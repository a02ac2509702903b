"""Randomized numerical checks of every verified relation in the model.

Each registered property draws pseudo-random inputs from fixed ranges,
evaluates a relation both through the library and through an independent
route (a raw scalar formula, a closed-form oracle, or an exact identity),
and reports the worst normalized violation seen. Checks are deterministic:
the generator is the documented SplitMix64 scheme in `_rng`, with one
decorrelated stream per property id, so results are independent of check
order and of any concurrency. Each property declares how many draws a
sample takes, so its samples can also be split into ranges that start
anywhere in its stream and are scanned apart; merging the ranges' worst
samples gives the report one scan gives.

Report wire format (one report per line, fixed field order):

    id status samples max_violation tolerance seed

with floats rendered to 17 significant digits. A failing report is followed
by one extra line:

    counterexample sample_index=<i> <name>=<value> ...

listing every drawn input of the worst sample, in draw order, enough to
replay the evaluation by hand. A sample that cannot be judged fails the
property at once: a NaN violation is reported as max_violation nan with
that sample's inputs, and an evaluator exception as nan with
`error=<exception type>` in place of the inputs.

Violations are normalized so "pass" is scale-free: algebraic identities
divide the absolute deviation by the natural magnitude of the computation
(documented per property below), residual checks follow their stated
absolute or wrench-relative form. Tolerances are per-property constants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

from . import dynamics, frames
from ._rng import SplitMix64, property_stream
from .errors import DomainError, UnknownPropertyError
from .linalg2 import Vec2, determinant, inverse2, mat_mul, mat_vec_mul
from .scenario import key_values

DEFAULT_SAMPLES = 1000
DEFAULT_SEED = 42

#: Largest accepted seed: the stream state is 64 bits wide.
_MAX_SEED = 2**64 - 1

#: Points of the [0, 10] residual grid each THM4_HOMOG_SOLUTION draw sweeps.
_THM4_GRID_POINTS = 101
_THM4_T_MAX = 10.0

#: Central-difference step for the derivative-consistency check.
_FD_STEP = 1e-4

#: Steps taken per integrator-accuracy draw.
_INTEGRATOR_STEPS = 1000

#: Error floor below which a convergence ratio is numerically unresolvable.
_ORDER_FLOOR = 1e-11


# Sampling ranges for every free quantity, as (low, high) pairs, except that
# displacements are uniform on the half-open (0, _DISPLACEMENT_MAX]. Angles
# and signed quantities are drawn uniformly; scale-like quantities (fx, fy,
# masses) log-uniformly to exercise conditioning. Lower bounds respect the
# constructors' positivity constraints by construction, so no draw can
# violate a type invariant.
_ALPHA = (-math.pi, math.pi)
_DISPLACEMENT_MAX = 10.0
_RESOLUTION = (0.1, 100.0)
_MASS = (1e-3, 10.0)
_POSITION = (-100.0, 100.0)
_VELOCITY = (-100.0, 100.0)
_WRENCH = (-10.0, 10.0)


@dataclass(frozen=True)
class PropertyReport:
    """Result of one property check. status is 'pass' iff
    max_violation <= tolerance; counterexample is present iff 'fail'."""

    property_id: str
    samples: int
    max_violation: float
    tolerance: float
    status: str
    seed: int
    counterexample: tuple[tuple[str, float | int | str], ...] | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _fmt(value) -> str:
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.17g}"


def format_report(report: PropertyReport) -> str:
    """Render a report in the documented line format."""
    line = (
        f"{report.property_id} {report.status} {report.samples} "
        f"{report.max_violation:.17g} {report.tolerance:.17g} {report.seed}"
    )
    if report.counterexample is not None:
        pairs = " ".join(f"{k}={_fmt(v)}" for k, v in report.counterexample)
        line += f"\ncounterexample {pairs}"
    return line


# ---------------------------------------------------------------------------
# samplers

def sample_calibration(rng: SplitMix64) -> frames.Calibration:
    """Draw order: alpha, dx, dy, fx, fy."""
    return frames.Calibration(
        alpha=rng.uniform(*_ALPHA),
        dx=rng.uniform_open_low(_DISPLACEMENT_MAX),
        dy=rng.uniform_open_low(_DISPLACEMENT_MAX),
        fx=rng.log_uniform(*_RESOLUTION),
        fy=rng.log_uniform(*_RESOLUTION),
    )


def sample_masses(rng: SplitMix64) -> dynamics.MassParams:
    """Draw order: mx, my, mp (each log-uniform)."""
    return dynamics.MassParams(
        mx=rng.log_uniform(*_MASS),
        my=rng.log_uniform(*_MASS),
        mp=rng.log_uniform(*_MASS),
    )


def sample_stage_point(rng: SplitMix64) -> frames.StagePoint:
    return frames.StagePoint(rng.uniform(*_POSITION), rng.uniform(*_POSITION))


def sample_initial_state(rng: SplitMix64) -> dynamics.StageState:
    """Draw order: x0, y0, xd0, yd0; t pinned to 0."""
    return dynamics.StageState(
        t=0.0,
        x=rng.uniform(*_POSITION),
        y=rng.uniform(*_POSITION),
        xdot=rng.uniform(*_VELOCITY),
        ydot=rng.uniform(*_VELOCITY),
    )


def sample_wrench(rng: SplitMix64) -> dynamics.Wrench:
    """Draw order: taux, tauy, fexd, feyd."""
    return dynamics.Wrench(
        taux=rng.uniform(*_WRENCH),
        tauy=rng.uniform(*_WRENCH),
        fexd=rng.uniform(*_WRENCH),
        feyd=rng.uniform(*_WRENCH),
    )


# ---------------------------------------------------------------------------
# property evaluators; each returns (violation, inputs)

def _check_camera_stage(rng: SplitMix64):
    """Library stage_to_camera vs the raw componentwise relation.

    Normalized by the formula's magnitude: |x| + |y| + max(dx, dy).
    """
    c = sample_calibration(rng)
    p = sample_stage_point(rng)
    got = frames.stage_to_camera(p, c)
    ca = math.cos(c.alpha)
    sa = math.sin(c.alpha)
    want_xc = p.x * ca + p.y * sa + c.dx
    want_yc = -p.x * sa + p.y * ca + c.dy
    denom = max(1.0, abs(p.x) + abs(p.y) + max(c.dx, c.dy))
    violation = max(abs(got.xc - want_xc), abs(got.yc - want_yc)) / denom
    return violation, {**key_values("calibration", c), "x": p.x, "y": p.y}


def _check_image_camera(rng: SplitMix64):
    """Library camera_to_image vs (fx*xc, fy*yc), normalized by that scale."""
    c = sample_calibration(rng)
    cp = frames.CameraPoint(rng.uniform(*_POSITION), rng.uniform(*_POSITION))
    got = frames.camera_to_image(cp, c)
    want_u = c.fx * cp.xc
    want_v = c.fy * cp.yc
    denom = max(1.0, abs(want_u), abs(want_v))
    violation = max(abs(got.u - want_u), abs(got.v - want_v)) / denom
    return violation, {**key_values("calibration", c), "xc": cp.xc, "yc": cp.yc}


def _check_image_stage(rng: SplitMix64):
    """stage_to_image vs the two-step composition and vs the raw affine form.

    Per-component normalization by fx*(|x|+|y|+dx) resp. fy*(|x|+|y|+dy),
    the magnitude the affine evaluation actually moves through.
    """
    c = sample_calibration(rng)
    p = sample_stage_point(rng)
    direct = frames.stage_to_image(p, c)
    composed = frames.camera_to_image(frames.stage_to_camera(p, c), c)
    ca = math.cos(c.alpha)
    sa = math.sin(c.alpha)
    affine_u = c.fx * ca * p.x + c.fx * sa * p.y + c.fx * c.dx
    affine_v = -c.fy * sa * p.x + c.fy * ca * p.y + c.fy * c.dy
    denom_u = max(1.0, c.fx * (abs(p.x) + abs(p.y) + c.dx))
    denom_v = max(1.0, c.fy * (abs(p.x) + abs(p.y) + c.dy))
    violation = max(
        abs(direct.u - composed.u) / denom_u,
        abs(direct.v - composed.v) / denom_v,
        abs(direct.u - affine_u) / denom_u,
        abs(direct.v - affine_v) / denom_v,
    )
    return violation, {**key_values("calibration", c), "x": p.x, "y": p.y}


def _check_homogeneous_solution(rng: SplitMix64):
    """Equation-of-motion residual of the zero-input closed form.

    Sweeps a uniform grid over t in [0, 10] with
    dynamics.homogeneous_residual_maxnorm: max |M*accel + vel| over the
    exact analytic velocity and acceleration columns, the zero-wrench
    dynamics_residual. Absolute max-norm violation.
    """
    m = sample_masses(rng)
    init = sample_initial_state(rng)
    worst = dynamics.homogeneous_residual_maxnorm(
        m, init, _THM4_T_MAX, _THM4_GRID_POINTS
    )
    return worst, {**key_values("masses", m), **key_values("initial", init)}


def _check_image_dynamics(rng: SplitMix64):
    """Image-space residual of a transformed zero-residual stage state.

    Builds the stage acceleration axis-by-axis from the equation of motion
    (accel = (net - vel)/m_eff, no matrix code involved), pushes velocity
    and acceleration through T, and requires the image-space residual to
    vanish. Violation normalized by (1 + |wrench|_inf), matching the
    stated wrench-relative bound.
    """
    m = sample_masses(rng)
    c = sample_calibration(rng)
    vel = Vec2(rng.uniform(*_VELOCITY), rng.uniform(*_VELOCITY))
    w = sample_wrench(rng)
    net = w.net_input()
    accel = Vec2(
        (net.e1 - vel.e1) / m.x_effective,
        (net.e2 - vel.e2) / m.y_effective,
    )
    t_mat = frames.transformation_matrix(c)
    img_vel = mat_vec_mul(t_mat, vel)
    img_accel = mat_vec_mul(t_mat, accel)
    residual = dynamics.image_dynamics_residual(m, c, img_accel, img_vel, w)
    violation = residual.inf_norm() / (1.0 + w.inf_norm())
    return violation, {
        **key_values("masses", m),
        **key_values("calibration", c),
        "xdot": vel.e1,
        "ydot": vel.e2,
        **key_values("wrench", w),
    }


def _check_inverse_identity(rng: SplitMix64):
    """m . inverse2(m) = I for transformation and mass-scaled matrices.

    Deviation divided by max(1, |m|_inf^2 / |det m|), the conditioning of
    the adjugate formula.
    """
    c = sample_calibration(rng)
    m = sample_masses(rng)
    t_mat = frames.transformation_matrix(c)
    worst = 0.0
    for mat in (t_mat, mat_mul(dynamics.mass_matrix(m), t_mat)):
        inv = inverse2(mat)
        prod = mat_mul(mat, inv)
        dev = max(
            abs(prod.a11 - 1.0), abs(prod.a12), abs(prod.a21), abs(prod.a22 - 1.0)
        )
        denom = max(1.0, mat.inf_norm() ** 2 / abs(determinant(mat)))
        worst = max(worst, dev / denom)
    return worst, {**key_values("calibration", c), **key_values("masses", m)}


def _check_det_product(rng: SplitMix64):
    """det(a.b) = det(a) det(b), relative to max(1, |det a . det b|)."""
    c = sample_calibration(rng)
    m = sample_masses(rng)
    beta = rng.uniform(*_ALPHA)
    a = frames.transformation_matrix(c)
    b = mat_mul(dynamics.mass_matrix(m), frames.rotation_matrix(beta))
    da = determinant(a)
    db = determinant(b)
    dev = abs(determinant(mat_mul(a, b)) - da * db)
    violation = dev / max(1.0, abs(da * db))
    return violation, {
        **key_values("calibration", c),
        **key_values("masses", m),
        "beta": beta,
    }


def _check_matvec_linearity(rng: SplitMix64):
    """m.(s*u + r*v) = s*(m.u) + r*(m.v), normalized by the moved magnitude."""
    c = sample_calibration(rng)
    mat = frames.transformation_matrix(c)
    u = Vec2(rng.uniform(*_POSITION), rng.uniform(*_POSITION))
    v = Vec2(rng.uniform(*_POSITION), rng.uniform(*_POSITION))
    s = rng.uniform(*_WRENCH)
    r = rng.uniform(*_WRENCH)
    lhs = mat_vec_mul(mat, u.scaled(s) + v.scaled(r))
    rhs = mat_vec_mul(mat, u).scaled(s) + mat_vec_mul(mat, v).scaled(r)
    denom = max(
        1.0, mat.inf_norm() * (abs(s) * u.inf_norm() + abs(r) * v.inf_norm())
    )
    violation = (lhs - rhs).inf_norm() / denom
    return violation, {
        **key_values("calibration", c),
        "u1": u.e1,
        "u2": u.e2,
        "v1": v.e1,
        "v2": v.e2,
        "s": s,
        "r": r,
    }


def _check_factorization(rng: SplitMix64):
    """transformation_matrix = display_resolution_matrix . rotation_matrix."""
    c = sample_calibration(rng)
    direct = frames.transformation_matrix(c)
    factored = mat_mul(
        frames.display_resolution_matrix(c.fx, c.fy), frames.rotation_matrix(c.alpha)
    )
    denom = max(1.0, c.fx, c.fy)
    violation = (
        max(abs(x - y) for x, y in zip(direct, factored)) / denom
    )
    return violation, key_values("calibration", c)


def _check_det_scale(rng: SplitMix64):
    """det T = fx*fy up to the trig identity, relative to fx*fy."""
    c = sample_calibration(rng)
    dev = abs(determinant(frames.transformation_matrix(c)) - c.fx * c.fy)
    violation = dev / max(1.0, c.fx * c.fy)
    return violation, key_values("calibration", c)


def _check_rotation_inverse(rng: SplitMix64):
    """R(alpha) . R(-alpha) = I, absolute (rotation entries are order 1)."""
    alpha = rng.uniform(*_ALPHA)
    prod = mat_mul(frames.rotation_matrix(alpha), frames.rotation_matrix(-alpha))
    violation = max(
        abs(prod.a11 - 1.0), abs(prod.a12), abs(prod.a21), abs(prod.a22 - 1.0)
    )
    return violation, {"alpha": alpha}


def _check_round_trip(rng: SplitMix64):
    """image_to_stage(stage_to_image(p)) = p.

    Normalized by the recovered scale |T^-1|_inf * (|T|_inf |p|_inf +
    |offset|_inf), which is what the round trip actually amplifies.
    """
    c = sample_calibration(rng)
    p = sample_stage_point(rng)
    img = frames.stage_to_image(p, c)
    back = frames.image_to_stage(img, c)
    t_mat = frames.transformation_matrix(c)
    t_inv = inverse2(t_mat)
    offset = max(abs(c.fx * c.dx), abs(c.fy * c.dy))
    scale = t_inv.inf_norm() * (t_mat.inf_norm() * p.vec().inf_norm() + offset)
    denom = max(1.0, p.vec().inf_norm(), scale)
    violation = max(abs(back.x - p.x), abs(back.y - p.y)) / denom
    return violation, {**key_values("calibration", c), "x": p.x, "y": p.y}


def _check_derivative_fd(rng: SplitMix64):
    """Central difference of analytic position vs analytic velocity.

    One homogeneous_columns call over the times (t, t + h, t - h).
    h = 1e-4; t drawn from [1, 10], where the O(h^2) truncation bound
    (h^2/6 * max|pos'''| <= 5e-7 for the sampled mass and velocity ranges)
    holds; near t = 0 with near-minimal masses the third derivative alone
    exceeds the tolerance, so smaller times cannot certify anything at
    this step size. Absolute violation.
    """
    m = sample_masses(rng)
    init = sample_initial_state(rng)
    t = rng.uniform(1.0, _THM4_T_MAX)
    h = _FD_STEP
    x, y, xdot, ydot, _, _ = dynamics.homogeneous_columns(m, init, [t, t + h, t - h])
    violation = max(
        abs((x[1] - x[2]) / (2.0 * h) - xdot[0]),
        abs((y[1] - y[2]) / (2.0 * h) - ydot[0]),
    )
    return violation, {**key_values("masses", m), **key_values("initial", init), "t": t}


def _check_constant_input_reduction(rng: SplitMix64):
    """Constant-input closed form at w = 0 vs the zero-input closed form.

    At w = 0 the constant-input grouping collapses to the zero-input
    operations, so the two agree bit for bit and the violation is 0; the
    tolerance only allows for round-off. Normalized by the solution scale
    (|pos0| + m_eff*|vel0| for positions, |vel0| for velocities).
    """
    m = sample_masses(rng)
    init = sample_initial_state(rng)
    t = rng.uniform(0.0, _THM4_T_MAX)
    a = dynamics.analytic_homogeneous_solution(m, init, t)
    b = dynamics.analytic_constant_input_solution(m, init, dynamics.ZERO_WRENCH, t)
    scale_x = max(1.0, abs(init.x) + m.x_effective * abs(init.xdot))
    scale_y = max(1.0, abs(init.y) + m.y_effective * abs(init.ydot))
    violation = max(
        abs(a.x - b.x) / scale_x,
        abs(a.y - b.y) / scale_y,
        abs(a.xdot - b.xdot) / max(1.0, abs(init.xdot)),
        abs(a.ydot - b.ydot) / max(1.0, abs(init.ydot)),
    )
    return violation, {**key_values("masses", m), **key_values("initial", init), "t": t}


def _integrator_step(m: dynamics.MassParams) -> float:
    """Step small enough to resolve the fastest axis: min(1e-3, m_min/128)."""
    return min(1e-3, min(m.x_effective, m.y_effective) / 128.0)


def _max_error_vs_analytic(
    m: dynamics.MassParams,
    init: dynamics.StageState,
    w: dynamics.Wrench,
    dt: float,
    n_steps: int,
) -> float:
    """Max-norm gap between n_steps RK4 steps from init (at t = 0) and the
    constant-input closed form at the same times i*dt."""
    rows = n_steps + 1
    got = dynamics._path(m, w, dt, (init.x, init.y, init.xdot, init.ydot), 0, rows)
    exact = dynamics.constant_input_columns(m, init, w, [i * dt for i in range(rows)])
    return max(
        max(map(abs, map(operator.sub, column, want)))
        for column, want in zip(got, exact)
    )


def _check_integrator_vs_analytic(rng: SplitMix64):
    """Fixed-step RK4 vs the constant-input closed form, absolute max-norm.

    Per draw: 1000 steps at dt = min(1e-3, m_min/128), so the step always
    resolves the fastest time constant in the sampled mass range.
    """
    m = sample_masses(rng)
    init = sample_initial_state(rng)
    w = sample_wrench(rng)
    dt = _integrator_step(m)
    violation = _max_error_vs_analytic(m, init, w, dt, _INTEGRATOR_STEPS)
    return violation, {
        **key_values("masses", m),
        **key_values("initial", init),
        **key_values("wrench", w),
        "dt": dt,
    }


def _check_integrator_order(rng: SplitMix64):
    """Halving the step must cut the max error vs the closed form >= 12x.

    Runs the zero-input problem at dt = m_min/8 for 64 steps and again at
    dt/2; violation is max(0, 12/ratio - 1). Fourth order gives a ratio near
    2^4 = 16 (16.08 to 16.86 over 8,000 draws), third order one near
    2^3 = 8, so a zero violation certifies fourth order. Draws whose coarse
    error sits below the 1e-11 round-off floor cannot resolve a ratio and
    count as zero.
    """
    m = sample_masses(rng)
    init = sample_initial_state(rng)
    dt = min(m.x_effective, m.y_effective) / 8.0
    err_coarse = _max_error_vs_analytic(m, init, dynamics.ZERO_WRENCH, dt, 64)
    err_fine = _max_error_vs_analytic(m, init, dynamics.ZERO_WRENCH, dt / 2.0, 128)
    inputs = {**key_values("masses", m), **key_values("initial", init), "dt": dt}
    if err_coarse < _ORDER_FLOOR or err_fine == 0.0:
        return 0.0, inputs
    ratio = err_coarse / err_fine
    return max(0.0, 12.0 / ratio - 1.0), inputs


# ---------------------------------------------------------------------------
# registry and engine

_Evaluator = Callable[[SplitMix64], tuple[float, dict]]

#: Registry: property id -> (tolerance, draws, evaluator). Order is the
#: report order. draws is the number of SplitMix64 outputs the evaluator
#: takes per sample, so sample i starts i * draws into the stream.
PROPERTIES: dict[str, tuple[float, int, _Evaluator]] = {
    "THM1_CAMERA_STAGE": (1e-12, 7, _check_camera_stage),
    "THM2_IMAGE_CAMERA": (1e-12, 7, _check_image_camera),
    "THM3_IMAGE_STAGE": (1e-12, 7, _check_image_stage),
    "THM4_HOMOG_SOLUTION": (1e-9, 7, _check_homogeneous_solution),
    "THM5_IMAGE_DYNAMICS": (1e-9, 14, _check_image_dynamics),
    "LINALG_INVERSE_IDENTITY": (1e-12, 8, _check_inverse_identity),
    "LINALG_DET_PRODUCT": (1e-12, 9, _check_det_product),
    "LINALG_MATVEC_LINEARITY": (1e-12, 11, _check_matvec_linearity),
    "FRAMES_FACTORIZATION": (1e-12, 5, _check_factorization),
    "FRAMES_DET_SCALE": (1e-12, 5, _check_det_scale),
    "FRAMES_ROTATION_INVERSE": (1e-12, 1, _check_rotation_inverse),
    "FRAMES_ROUND_TRIP": (1e-12, 7, _check_round_trip),
    "THM4_DERIVATIVE_FD": (5e-7, 8, _check_derivative_fd),
    "THM4_CONSTANT_INPUT_REDUCTION": (1e-15, 8, _check_constant_input_reduction),
    "INTEGRATOR_VS_ANALYTIC": (1e-6, 11, _check_integrator_vs_analytic),
    "INTEGRATOR_ORDER": (0.0, 7, _check_integrator_order),
}


def _check_run_args(samples: int, seed: int) -> None:
    """Raise DomainError for samples < 1 or a seed outside [0, 2^64)."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples!r}")
    if not 0 <= seed <= _MAX_SEED:
        raise DomainError(f"seed must be in [0, 2^64), got {seed!r}")


def _scan(property_id: str, seed: int, start: int, stop: int):
    """Evaluate samples start..stop-1 (start < stop) of a registered property.

    Returns (max_violation, index, inputs) of the worst sample: the first
    unjudged one, which ends the scan, or else the first with the largest
    violation. Sample i draws from the property's stream i * draws in, so
    a range gives the same record whichever process scans it.
    """
    _, draws, evaluator = PROPERTIES[property_id]
    rng = property_stream(seed, property_id, start * draws)
    worst = None
    for index in range(start, stop):
        try:
            violation, inputs = evaluator(rng)
        except Exception as exc:
            violation, inputs = math.nan, {"error": type(exc).__name__}
        unjudged = math.isnan(violation)
        if unjudged or worst is None or violation > worst[0]:
            worst = (violation, index, inputs)
        if unjudged:
            break
    return worst


def _report(property_id: str, samples: int, seed: int, shares) -> PropertyReport:
    """Merge the _scan records of consecutive ranges covering all samples.

    The first range holding an unjudged sample wins; otherwise the largest
    violation does, ties going to the lowest index. That is the record one
    scan of every sample gives. Then the property's tolerance judges it.
    """
    worst = shares[0]
    for share in shares[1:]:
        if math.isnan(worst[0]):
            break
        if math.isnan(share[0]) or share[0] > worst[0]:
            worst = share
    max_violation, index, inputs = worst
    tolerance = PROPERTIES[property_id][0]
    if max_violation <= tolerance:
        return PropertyReport(
            property_id, samples, max_violation, tolerance, "pass", seed
        )
    counterexample = (("sample_index", index),) + tuple(inputs.items())
    return PropertyReport(
        property_id, samples, max_violation, tolerance, "fail", seed, counterexample
    )


def check_theorem(
    property_id: str, samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> PropertyReport:
    """Run one registered property over `samples` seeded draws, in process.

    Deterministic in (property_id, samples, seed). A sample whose
    violation is NaN, or whose evaluator raises, cannot be judged: the
    first such sample ends the run and fails the property with a NaN
    max_violation and that sample as the counterexample (its drawn inputs,
    or the exception's type name as `error`). Raises UnknownPropertyError
    for an unregistered id and DomainError for samples < 1 or a seed
    outside [0, 2^64).
    """
    if property_id not in PROPERTIES:
        raise UnknownPropertyError(f"unknown property id {property_id!r}")
    _check_run_args(samples, seed)
    return _report(property_id, samples, seed, [_scan(property_id, seed, 0, samples)])


def run_all(
    samples: int = DEFAULT_SAMPLES, seed: int = DEFAULT_SEED
) -> list[PropertyReport]:
    """Check every registered property, in registry order."""
    return [check_theorem(pid, samples, seed) for pid in PROPERTIES]
