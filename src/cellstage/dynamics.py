"""Dynamics of the 2-DOF motion stage.

The equation of motion is

    M qdd + C qd = tau - fe_d,   M = diag(mx+my+mp, my+mp),   C = I,

with q = (x, y) the stage position, tau the driving-motor torque pair and
fe_d the desired actuator-force pair. The damping matrix is the identity
exactly as the model states it; `posit_table_matrix` exposes it as a
constant, not a parameter. Units are read as SI (kg, N, N*m, s).

Both axes decouple, each a first-order linear ODE in the velocity, which is
what makes the closed-form solutions below possible; for the same reason the
RK4 kernel in `_backend` integrates one axis at a time. `simulate`
integrates the system with classical fixed-step RK4 and returns a columnar
`Trajectory`: the start time, the step, and the four state columns the
kernel produced, with no per-sample objects unless a caller indexes or
iterates it. It is one window of the path: `_path` integrates any row range
from the state of its first row, which is exact because an RK4 step depends
only on (x, y, xdot, ydot), so `cellstage simulate` streams the same rows in
windows.
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
    Mat2,
    Vec2,
    inverse2,
    mat_mul,
    mat_vec_mul,
    _require_finite,
    _require_finite_fields,
    _require_finite_rows,
    _require_positive,
)

#: Masses below this are rejected so exp(-t/M) stays evaluable.
MIN_MASS = 1e-12

#: Hard cap on the number of fixed steps of one simulate() call or one
#: `cellstage simulate` run. Only the library still holds all four state
#: columns, at about 200 bytes per step in memory, so 10**7 steps needs about
#: 2 GB there. The CLI holds one window of rows at a time, so its memory does
#: not grow with the horizon; at the cap its CSV takes about 1.9 GB of disk
#: (about 187 bytes per row).
MAX_STEPS = 10**7


@dataclass(frozen=True)
class MassParams:
    """Masses of the x table, y table, and working plate, kg. All > 0."""

    mx: float
    my: float
    mp: float

    def __post_init__(self):
        for name, value in (("mx", self.mx), ("my", self.my), ("mp", self.mp)):
            _require_positive(name, value)
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
        _require_finite_fields(self)

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
        _require_finite_fields(self)


class Trajectory:
    """Uniformly sampled stage states, held as columns.

    Sample i is row first + i of the path, at time t0 + (first + i)*dt with
    state (x[i], y[i], xdot[i], ydot[i]); first is 0 unless the trajectory
    is a window of a longer path. The columns are kept as given; a
    StageState is built only when a sample is indexed or iterated. Every
    column value must be finite and the time column must be finite and
    strictly increasing; an error names the first bad row of the path, the
    states before the times, and a pair that does not increase only once
    every time is finite. So with dt <= 0, or dt below half an ulp of the
    times, an infinite time is named before an earlier such pair.
    """

    __slots__ = ("t0", "dt", "x", "y", "xdot", "ydot", "first")

    def __init__(self, t0: float, dt: float, x, y, xdot, ydot, first: int = 0):
        _require_finite("t0", t0)
        _require_finite("dt", dt)
        n = len(x)
        if n == 0:
            raise DomainError("trajectory must contain at least one sample")
        names = ("x", "y", "xdot", "ydot")
        columns = (x, y, xdot, ydot)
        for name, column in zip(names, columns):
            if len(column) != n:
                raise DomainError(f"column {name} has {len(column)} samples, x has {n}")
        _require_finite_rows(names, columns, first)
        self.t0 = t0
        self.dt = dt
        self.x = x
        self.y = y
        self.xdot = xdot
        self.ydot = ydot
        self.first = first
        t = self.times()
        if not (
            math.isfinite(t[0])
            and math.isfinite(t[-1])
            and all(map(operator.lt, t, islice(t, 1, None)))
        ):
            _require_finite_rows(("t",), (t,), first)
            a, b = next((a, b) for a, b in zip(t, islice(t, 1, None)) if not a < b)
            raise DomainError(f"timestamps must be strictly increasing: {a!r} -> {b!r}")

    def times(self, start: int = 0, stop: int | None = None) -> list[float]:
        """The time column, for samples start..stop-1 (default: all)."""
        t0 = self.t0
        dt = self.dt
        first = self.first
        return [t0 + i * dt for i in range(first, first + len(self.x))[start:stop]]

    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[StageState]:
        return map(StageState, self.times(), self.x, self.y, self.xdot, self.ydot)

    def __getitem__(self, index: int) -> StageState:
        i = range(len(self.x))[index]
        t = self.t0 + (self.first + i) * self.dt
        return StageState(t, self.x[i], self.y[i], self.xdot[i], self.ydot[i])

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


def _require_solution_times(init: StageState, times) -> None:
    """The closed forms start at t = 0 and take finite times t >= 0; a bad
    time is named by its row, the first non-finite one before any negative."""
    if init.t != 0.0:
        raise DomainError(f"initial state must be at t=0, got t={init.t!r}")
    _require_finite_rows(("t",), (times,))
    if min(times, default=0.0) < 0.0:
        row, t = next((row, t) for row, t in enumerate(times) if t < 0.0)
        raise DomainError(f"t[{row}] must be >= 0, got {t!r}")


# The closed forms are built one axis per call, so each axis' exp column is
# freed before the next one is built.
def _homogeneous_axis(m_eff: float, pos0: float, vel0: float, times):
    exp = math.exp
    e = [exp(-t / m_eff) for t in times]
    reach = vel0 * m_eff
    decay = -(vel0 / m_eff)
    return (
        [pos0 + reach * (1.0 - ei) for ei in e],
        [vel0 * ei for ei in e],
        [decay * ei for ei in e],
    )


def homogeneous_columns(m: MassParams, init: StageState, times):
    """Closed-form zero-input solution (pipette not touching the cells).

    Per axis with effective mass M, writing e = exp(-t/M):

        pos(t) = pos0 + vel0 * M * (1 - e)
        vel(t) = vel0 * e
        acc(t) = -(vel0/M) * e

    Velocities and accelerations are the exact derivatives of the position
    formulas. Evaluated over the time column `times`; returns the lists
    (x, y, xdot, ydot, xddot, yddot). Raises DomainError unless init.t is 0,
    every t is finite and >= 0, and every value returned is finite, naming
    the first bad row, columns in order within it (`xddot[0] must be ...`).
    """
    _require_solution_times(init, times)
    x, xdot, xddot = _homogeneous_axis(m.x_effective, init.x, init.xdot, times)
    y, ydot, yddot = _homogeneous_axis(m.y_effective, init.y, init.ydot, times)
    columns = (x, y, xdot, ydot, xddot, yddot)
    _require_finite_rows(("x", "y", "xdot", "ydot", "xddot", "yddot"), columns)
    return columns


def _constant_input_axis(m_eff: float, pos0: float, vel0: float, c: float, times):
    exp = math.exp
    g = c - vel0
    e = [exp(-t / m_eff) for t in times]
    mg = m_eff * g
    return (
        [pos0 + (c * t + mg * (ei - 1.0)) for t, ei in zip(times, e)],
        [c - g * ei for ei in e],
    )


def constant_input_columns(m: MassParams, init: StageState, w: Wrench, times):
    """Closed-form solution under a constant wrench, by variation of parameters.

    Per axis with effective mass M and constant input c = tau - fe_d,
    writing g = c - vel0:

        pos(t) = pos0 + (c*t + M*g*(exp(-t/M) - 1))
        vel(t) = c - g*exp(-t/M)

    Reduces to the zero-input closed form when w == 0 (bit-for-bit: the
    grouping above makes the w = 0 arithmetic collapse to the same
    operations). Evaluated over the time column `times`; returns the lists
    (x, y, xdot, ydot) and validates as homogeneous_columns does.
    """
    _require_solution_times(init, times)
    net = w.net_input()
    x, xdot = _constant_input_axis(m.x_effective, init.x, init.xdot, net.e1, times)
    y, ydot = _constant_input_axis(m.y_effective, init.y, init.ydot, net.e2, times)
    columns = (x, y, xdot, ydot)
    _require_finite_rows(("x", "y", "xdot", "ydot"), columns)
    return columns


def analytic_homogeneous_solution(m: MassParams, init: StageState, t: float) -> StageState:
    """homogeneous_columns at the single time t, as a StageState."""
    x, y, xdot, ydot, _, _ = homogeneous_columns(m, init, [t])
    return StageState(t, x[0], y[0], xdot[0], ydot[0])


def analytic_homogeneous_acceleration(m: MassParams, init: StageState, t: float) -> Vec2:
    """Exact second derivative of the zero-input closed form at t.

    Validates as homogeneous_columns does, but checks only the two values
    it returns, so a position that overflows does not hide it.
    """
    _require_solution_times(init, [t])
    _, _, xddot = _homogeneous_axis(m.x_effective, init.x, init.xdot, [t])
    _, _, yddot = _homogeneous_axis(m.y_effective, init.y, init.ydot, [t])
    _require_finite_rows(("xddot", "yddot"), (xddot, yddot))
    return Vec2(xddot[0], yddot[0])


def analytic_constant_input_solution(
    m: MassParams, init: StageState, w: Wrench, t: float
) -> StageState:
    """constant_input_columns at the single time t, as a StageState."""
    x, y, xdot, ydot = constant_input_columns(m, init, w, [t])
    return StageState(t, x[0], y[0], xdot[0], ydot[0])


def analytic_constant_input_acceleration(
    m: MassParams, init: StageState, w: Wrench, t: float
) -> Vec2:
    """Exact second derivative of the constant-input closed form at t."""
    net = w.net_input()
    error = StageState(init.t, init.x, init.y, init.xdot - net.e1, init.ydot - net.e2)
    return analytic_homogeneous_acceleration(m, error, t)


def _row_count(init: StageState, dt: float, t_end: float) -> int:
    """Rows of the path from init to t_end: floor((t_end - init.t)/dt) + 1.

    Raises DomainError on a bad step or horizon, or above MAX_STEPS steps.
    """
    _require_positive("dt", dt)
    _require_finite("t_end", t_end)
    if t_end < init.t:
        raise DomainError(f"t_end={t_end!r} precedes initial time {init.t!r}")
    span = (t_end - init.t) / dt
    # floor(span) steps are taken, so this is floor(span) > MAX_STEPS
    # without calling floor on an infinite span.
    if span >= MAX_STEPS + 1:
        raise DomainError(
            f"horizon needs {span:.17g} steps, above the {MAX_STEPS} step cap"
        )
    return int(math.floor(span)) + 1


def _path(m: MassParams, w: Wrench, dt: float, state, first: int, stop: int):
    """The RK4 columns (x, y, xdot, ydot) of rows first..stop-1 of a path.

    `state` is (x, y, xdot, ydot) at row first. Raises OverflowError if the
    state diverges past 1e100 or turns NaN, naming the step of the whole
    path, so every window of it gives the message one call would.
    """
    net = w.net_input()
    columns = _backend.rk4_stage_path(
        m.x_effective, m.y_effective, net.e1, net.e2, *state, dt, stop - 1 - first
    )
    # The kernel stops before the step that diverged.
    step = first + len(columns[1])
    if step < stop:
        limit = _backend.OVERFLOW_LIMIT
        raise OverflowError(f"state left [{-limit:g}, {limit:g}] at step {step}")
    return columns


def simulate(
    m: MassParams, init: StageState, w: Wrench, dt: float, t_end: float
) -> Trajectory:
    """Integrate the equation of motion with classical fixed-step RK4.

    Takes floor((t_end - init.t)/dt) steps of exactly dt, so the trajectory
    ends within dt of t_end. Timestamps are init.t + i*dt. Raises
    DomainError on a bad step or horizon and OverflowError if the state
    diverges past 1e100 or turns NaN.
    """
    rows = _row_count(init, dt, t_end)
    state = (init.x, init.y, init.xdot, init.ydot)
    return Trajectory(init.t, dt, *_path(m, w, dt, state, 0, rows))


def homogeneous_residual_maxnorm(
    m: MassParams, init: StageState, t1: float, points: int
) -> float:
    """Worst equation-of-motion residual of the zero-input closed form.

    Max-norm of M . accel(t) + C . vel(t) over the velocity and acceleration
    columns of homogeneous_columns, on the uniform `points`-point grid
    i*h over [0, t1]; points == 1 evaluates only t = 0. Pinned bit-equal
    to evaluating dynamics_residual pointwise by
    TestHomogeneousResidualSweep::test_matches_scalar_route_exactly.
    """
    _require_finite("t1", t1)
    if t1 < 0.0:
        raise DomainError(f"t1 must be >= 0, got {t1!r}")
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points!r}")
    h = t1 / (points - 1) if points > 1 else 0.0
    times = [i * h for i in range(points)]
    _, _, xdot, ydot, xddot, yddot = homogeneous_columns(m, init, times)
    mx_eff = m.x_effective
    my_eff = m.y_effective
    return max(
        max([abs(mx_eff * a + v) for a, v in zip(xddot, xdot)]),
        max([abs(my_eff * a + v) for a, v in zip(yddot, ydot)]),
    )


def inertia_matrix(m: MassParams, c: Calibration) -> Mat2:
    """Mass matrix recast against image-frame accelerations: M . T(c)^-1."""
    return mat_mul(mass_matrix(m), inverse2(transformation_matrix(c)))


def posit_table_matrix_fin(c: Calibration) -> Mat2:
    """Damping matrix recast against image-frame velocities: C . T(c)^-1 = T(c)^-1."""
    return mat_mul(posit_table_matrix(), inverse2(transformation_matrix(c)))


def image_dynamics_residual(
    m: MassParams, c: Calibration, img_accel: Vec2, img_vel: Vec2, w: Wrench
) -> Vec2:
    """Equation-of-motion residual expressed in image coordinates.

    (M T^-1) . img_accel + (C T^-1) . img_vel - (tau - fe_d); zero exactly
    when the image-frame trajectory is the transform of a stage trajectory
    satisfying the stage dynamics.
    """
    inertial = mat_vec_mul(inertia_matrix(m, c), img_accel)
    damping = mat_vec_mul(posit_table_matrix_fin(c), img_vel)
    return inertial + damping - w.net_input()
