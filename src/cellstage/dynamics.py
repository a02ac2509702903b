"""Dynamics of the 2-DOF motion stage.

The equation of motion is

    M qdd + C qd = tau - fe_d,   M = diag(mx+my+mp, my+mp),   C = I,

with q = (x, y) the stage position, tau the driving-motor torque pair and
fe_d the desired actuator-force pair. The damping matrix is the identity
exactly as the model states it; `posit_table_matrix` exposes it as a
constant, not a parameter. Units are read as SI (kg, N, N*m, s).

Both axes decouple, each a first-order linear ODE in the velocity, which is
what makes the closed-form solutions below possible. `simulate` integrates
the generic first-order system with classical fixed-step RK4 through the
selected kernel backend and returns a columnar `Trajectory`: the start time,
the step, and the four state columns the kernel produced, with no per-sample
objects unless a caller indexes or iterates it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from . import _backend
from .errors import DomainError
from .frames import Calibration, transformation_matrix
from .linalg2 import (
    DEFAULT_SINGULAR_EPS,
    Mat2,
    Vec2,
    inverse2,
    mat_mul,
    mat_vec_mul,
    _require_finite,
    _require_finite_column,
)

#: Masses below this are rejected so exp(-t/M) stays evaluable.
MIN_MASS = 1e-12

#: Hard cap on the number of fixed steps one simulate() call may take.
MAX_STEPS = 10**8


@dataclass(frozen=True)
class MassParams:
    """Masses of the x table, y table, and working plate, kg. All > 0."""

    mx: float
    my: float
    mp: float

    def __post_init__(self):
        for name, value in (("mx", self.mx), ("my", self.my), ("mp", self.mp)):
            _require_finite(name, value)
            if not value > 0.0:
                raise DomainError(f"{name} must be positive, got {value!r}")
            if value < MIN_MASS:
                raise DomainError(f"{name} must be >= {MIN_MASS:g}, got {value!r}")

    @property
    def x_effective(self) -> float:
        """Effective mass seen by the x axis: mx + my + mp."""
        return self.mx + self.my + self.mp

    @property
    def y_effective(self) -> float:
        """Effective mass seen by the y axis: my + mp."""
        return self.my + self.mp


@dataclass(frozen=True)
class Wrench:
    """Constant drive torque (taux, tauy) and desired contact force (fexd, feyd)."""

    taux: float = 0.0
    tauy: float = 0.0
    fexd: float = 0.0
    feyd: float = 0.0

    def __post_init__(self):
        _require_finite("taux", self.taux)
        _require_finite("tauy", self.tauy)
        _require_finite("fexd", self.fexd)
        _require_finite("feyd", self.feyd)

    def net_input(self) -> Vec2:
        """Right side of the equation of motion: tau - fe_d."""
        return Vec2(self.taux - self.fexd, self.tauy - self.feyd)

    def inf_norm(self) -> float:
        return max(abs(self.taux), abs(self.tauy), abs(self.fexd), abs(self.feyd))


ZERO_WRENCH = Wrench()


@dataclass(frozen=True)
class StageState:
    """Stage position and velocity at one time instant."""

    t: float
    x: float
    y: float
    xdot: float
    ydot: float

    def __post_init__(self):
        for name, value in (
            ("t", self.t),
            ("x", self.x),
            ("y", self.y),
            ("xdot", self.xdot),
            ("ydot", self.ydot),
        ):
            _require_finite(name, value)


class Trajectory:
    """Uniformly sampled stage states, held as columns.

    Sample i is at time t0 + i*dt with state (x[i], y[i], xdot[i], ydot[i]).
    The columns are kept as given; a StageState is built only when a sample
    is indexed or iterated. Every column value must be finite and the time
    column must be strictly increasing.
    """

    __slots__ = ("t0", "dt", "x", "y", "xdot", "ydot")

    def __init__(self, t0: float, dt: float, x, y, xdot, ydot):
        _require_finite("t0", t0)
        _require_finite("dt", dt)
        n = len(x)
        if n == 0:
            raise DomainError("trajectory must contain at least one sample")
        for name, column in (("x", x), ("y", y), ("xdot", xdot), ("ydot", ydot)):
            if len(column) != n:
                raise DomainError(
                    f"column {name} has {len(column)} samples, x has {n}"
                )
            _require_finite_column(name, column)
        self.t0 = t0
        self.dt = dt
        self.x = x
        self.y = y
        self.xdot = xdot
        self.ydot = ydot
        t = self.times()
        if not all(map(operator.lt, t, islice(t, 1, None))):
            i = next(i for i in range(n - 1) if not t[i] < t[i + 1])
            raise DomainError(
                f"timestamps must be strictly increasing: {t[i]!r} -> {t[i + 1]!r}"
            )

    def times(self, start: int = 0, stop: int | None = None) -> list[float]:
        """The time column t0 + i*dt, for rows start..stop-1 (default: all)."""
        t0 = self.t0
        dt = self.dt
        return [t0 + i * dt for i in range(len(self.x))[start:stop]]

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[StageState]:
        return map(StageState, self.times(), self.x, self.y, self.xdot, self.ydot)

    def __getitem__(self, index: int) -> StageState:
        i = range(len(self.x))[index]
        return StageState(
            self.t0 + i * self.dt, self.x[i], self.y[i], self.xdot[i], self.ydot[i]
        )

    @property
    def final(self) -> StageState:
        return self[-1]


def mass_matrix(m: MassParams) -> Mat2:
    """diag(mx+my+mp, my+mp)."""
    return Mat2(m.x_effective, 0.0, 0.0, m.y_effective)


def posit_table_matrix() -> Mat2:
    """The positioning-table damping matrix: the 2x2 identity, by definition."""
    return Mat2(1.0, 0.0, 0.0, 1.0)


def dynamics_residual(m: MassParams, accel: Vec2, vel: Vec2, w: Wrench) -> Vec2:
    """M . accel + C . vel - (tau - fe_d).

    Zero exactly when (accel, vel) satisfies the equation of motion under w.
    """
    inertial = mat_vec_mul(mass_matrix(m), accel)
    damping = mat_vec_mul(posit_table_matrix(), vel)
    return inertial + damping - w.net_input()


def _require_solution_inputs(init: StageState, t: float) -> None:
    if init.t != 0.0:
        raise DomainError(f"initial state must be at t=0, got t={init.t!r}")
    _require_finite("t", t)
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")


def analytic_homogeneous_solution(m: MassParams, init: StageState, t: float) -> StageState:
    """Closed-form zero-input solution (pipette not touching the cells).

    Per axis with effective mass M:

        pos(t) = pos0 + vel0 * M * (1 - exp(-t/M))
        vel(t) = vel0 * exp(-t/M)

    Velocities are the exact derivatives of the position formulas.
    """
    _require_solution_inputs(init, t)
    mx_eff = m.x_effective
    my_eff = m.y_effective
    ex = math.exp(-t / mx_eff)
    ey = math.exp(-t / my_eff)
    return StageState(
        t=t,
        x=init.x + init.xdot * mx_eff * (1.0 - ex),
        y=init.y + init.ydot * my_eff * (1.0 - ey),
        xdot=init.xdot * ex,
        ydot=init.ydot * ey,
    )


def analytic_homogeneous_acceleration(m: MassParams, init: StageState, t: float) -> Vec2:
    """Exact second derivative of the zero-input closed form: -vel0/M * exp(-t/M)."""
    _require_solution_inputs(init, t)
    mx_eff = m.x_effective
    my_eff = m.y_effective
    return Vec2(
        -(init.xdot / mx_eff) * math.exp(-t / mx_eff),
        -(init.ydot / my_eff) * math.exp(-t / my_eff),
    )


def analytic_constant_input_solution(
    m: MassParams, init: StageState, w: Wrench, t: float
) -> StageState:
    """Closed-form solution under a constant wrench, by variation of parameters.

    Per axis with effective mass M and constant input c = tau - fe_d,
    writing g = c - vel0:

        pos(t) = pos0 + c*t + M*g*(exp(-t/M) - 1)
        vel(t) = c - g*exp(-t/M)

    Reduces to the zero-input closed form when w == 0 (bit-for-bit: the
    grouping above makes the w = 0 arithmetic collapse to the same
    operations).
    """
    _require_solution_inputs(init, t)
    net = w.net_input()
    mx_eff = m.x_effective
    my_eff = m.y_effective
    gx = net.e1 - init.xdot
    gy = net.e2 - init.ydot
    ex = math.exp(-t / mx_eff)
    ey = math.exp(-t / my_eff)
    return StageState(
        t=t,
        x=init.x + (net.e1 * t + mx_eff * gx * (ex - 1.0)),
        y=init.y + (net.e2 * t + my_eff * gy * (ey - 1.0)),
        xdot=net.e1 - gx * ex,
        ydot=net.e2 - gy * ey,
    )


def analytic_constant_input_acceleration(
    m: MassParams, init: StageState, w: Wrench, t: float
) -> Vec2:
    """Exact second derivative of the constant-input closed form."""
    _require_solution_inputs(init, t)
    net = w.net_input()
    mx_eff = m.x_effective
    my_eff = m.y_effective
    return Vec2(
        (net.e1 - init.xdot) / mx_eff * math.exp(-t / mx_eff),
        (net.e2 - init.ydot) / my_eff * math.exp(-t / my_eff),
    )


def simulate(
    m: MassParams, init: StageState, w: Wrench, dt: float, t_end: float
) -> Trajectory:
    """Integrate the equation of motion with classical fixed-step RK4.

    Takes floor((t_end - init.t)/dt) steps of exactly dt, so the trajectory
    ends within dt of t_end. Timestamps are init.t + i*dt. Raises
    DomainError on a bad step or horizon and OverflowError if the state
    diverges past 1e100.
    """
    _require_finite("dt", dt)
    _require_finite("t_end", t_end)
    if not dt > 0.0:
        raise DomainError(f"dt must be positive, got {dt!r}")
    if t_end < init.t:
        raise DomainError(f"t_end={t_end!r} precedes initial time {init.t!r}")
    span = (t_end - init.t) / dt
    if span > MAX_STEPS:
        raise DomainError(
            f"horizon needs {span:.3g} steps, above the {MAX_STEPS:g} cap"
        )
    n_steps = int(math.floor(span))
    net = w.net_input()
    xs, ys, vxs, vys = _backend.rk4_stage_path(
        m.x_effective,
        m.y_effective,
        net.e1,
        net.e2,
        init.x,
        init.y,
        init.xdot,
        init.ydot,
        dt,
        n_steps,
    )
    return Trajectory(init.t, dt, xs, ys, vxs, vys)


def homogeneous_residual_maxnorm(
    m: MassParams, init: StageState, t0: float, t1: float, points: int
) -> float:
    """Worst equation-of-motion residual of the zero-input closed form.

    Max-norm of M . accel(t) + C . vel(t) with the exact analytic velocity
    and acceleration, swept over a uniform `points`-point grid on [t0, t1].
    Batch twin of evaluating dynamics_residual pointwise (the kernels match
    that route bit-for-bit); used for the large verification sweeps.
    """
    _require_solution_inputs(init, t0)
    _require_finite("t1", t1)
    if t1 < t0:
        raise DomainError(f"t1={t1!r} precedes t0={t0!r}")
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points!r}")
    return _backend.homogeneous_residual_maxnorm(
        m.x_effective, m.y_effective, init.xdot, init.ydot, t0, t1, points
    )


def inertia_matrix(
    m: MassParams, c: Calibration, eps: float = DEFAULT_SINGULAR_EPS
) -> Mat2:
    """Mass matrix recast against image-frame accelerations: M . T(c)^-1."""
    return mat_mul(mass_matrix(m), inverse2(transformation_matrix(c), eps))


def posit_table_matrix_fin(
    c: Calibration, eps: float = DEFAULT_SINGULAR_EPS
) -> Mat2:
    """Damping matrix recast against image-frame velocities: C . T(c)^-1 = T(c)^-1."""
    return mat_mul(posit_table_matrix(), inverse2(transformation_matrix(c), eps))


def image_dynamics_residual(
    m: MassParams,
    c: Calibration,
    img_accel: Vec2,
    img_vel: Vec2,
    w: Wrench,
    eps: float = DEFAULT_SINGULAR_EPS,
) -> Vec2:
    """Equation-of-motion residual expressed in image coordinates.

    (M T^-1) . img_accel + (C T^-1) . img_vel - (tau - fe_d); zero exactly
    when the image-frame trajectory is the transform of a stage trajectory
    satisfying the stage dynamics.
    """
    inertial = mat_vec_mul(inertia_matrix(m, c, eps), img_accel)
    damping = mat_vec_mul(posit_table_matrix_fin(c, eps), img_vel)
    return inertial + damping - w.net_input()
