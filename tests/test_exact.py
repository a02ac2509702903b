"""Exact checks of the arithmetic cores, in rational arithmetic.

One RK4 step, `stage_to_image` and `inverse2` use only +, -, * and /, so
`fractions.Fraction` evaluates the same expressions exactly on the same
float inputs; cos and sin are the float values the library uses. Each
result must lie within 8 ulps of its exact value, counted at the size of
its terms: the same expression evaluated on the absolute inputs, with every
subtraction made an addition, bounds every intermediate a rounding error
scales with (a running error bound; Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., SIAM 2002, ch. 3). The `verify` tolerances
are 1e-12, so a relative error of 1e-13 passes them; here it reads hundreds
of ulps. The window seams of `cellstage simulate` rest on the RK4 step: a
window resumes from the last state of the one before.

For this model the whole RK4 path has a closed form too. With e0 = v0 - c,
z = -dt/m and R = 1 + z + z^2/2 + z^3/6 + z^4/24 (the RK4 stability
function), one step multiplies v - c by R and adds dt*c + dt*Q*(v - c) to
the position, where 1 - R = -z*Q; so after n steps v_n = c + e0*R^n and
pos_n = pos0 + n*dt*c + m*e0*(1 - R^n). Each step rounds at the size of its
terms, and with |R| < 1 it carries earlier errors forward without growth,
so every row of `simulate` and of the `cellstage simulate` CSV must lie
within n eps of its term scale (|pos0| + n*dt*|c| + m*|e0| for positions,
|c| + |e0| for velocities) of that closed form, evaluated in mpmath at 50
digits. The worst row checked reads about 0.3 of that bound. The closed
form of the model differs from it only in exp(nz) for R^n, so what
INTEGRATOR_VS_ANALYTIC reports is |e0|*|R^n - exp(nz)|, times m for
positions, plus round-off.
"""

import dataclasses
import inspect
import itertools
import math
import operator
import random
import types
from fractions import Fraction

import mpmath
import pytest

from cellstage import _backend, cli, dynamics, frames, propcheck
from cellstage._rng import property_stream
from cellstage.dynamics import MassParams, StageState, Wrench, simulate
from cellstage.frames import Calibration, StagePoint, stage_to_image, transformation_matrix
from cellstage.linalg2 import SINGULAR_EPS, Mat2, inverse2
from cellstage.scenario import parse_config

from conftest import REFERENCE_CONFIG

ULPS = 8


def ulps_off(computed: float, exact: Fraction, scale: Fraction) -> float:
    """|computed - exact| in ulps of the term scale."""
    return float(abs(Fraction(computed) - exact)) / math.ulp(float(scale))


def exact(*values: float) -> list[Fraction]:
    return [Fraction(v) for v in values]


def absolute(*values: float) -> list[Fraction]:
    return [abs(Fraction(v)) for v in values]


def rk4_axis_step(pos, vel, m_eff, c, dt, minus):
    """One step of one axis, in the kernel's expressions and order."""
    half = Fraction(1, 2) * dt
    k1 = minus(c, vel) / m_eff
    s2 = vel + half * k1
    k2 = minus(c, s2) / m_eff
    s3 = vel + half * k2
    k3 = minus(c, s3) / m_eff
    s4 = vel + dt * k3
    k4 = minus(c, s4) / m_eff
    return (
        pos + dt * (vel + 2 * s2 + 2 * s3 + s4) / 6,
        vel + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6,
    )


def image_point(x, y, cos_a, sin_a, dx, dy, fx, fy, minus):
    """(u, v) of stage_to_image: T(c) . (x, y) + (fx*dx, fy*dy)."""
    return (
        fx * cos_a * x + fx * sin_a * y + fx * dx,
        minus(fy * cos_a * y + fy * dy, fy * sin_a * x),
    )


def test_one_rk4_step_is_within_8_ulps():
    rng = random.Random(2018)
    worst = 0.0
    for _ in range(1500):
        mx, my = (10 ** rng.uniform(-1, 1) for _ in range(2))
        cx, cy, vx, vy = (rng.uniform(-10, 10) for _ in range(4))
        x, y = (rng.uniform(-1, 1) for _ in range(2))
        dt = 10 ** rng.uniform(-3, 0)
        path = _backend.rk4_stage_path(mx, my, cx, cy, x, y, vx, vy, dt, 1)
        got = [column[1] for column in path]
        for axis, (pos, vel, m_eff, c) in enumerate(((x, vx, mx, cx), (y, vy, my, cy))):
            want = rk4_axis_step(*exact(pos, vel, m_eff, c, dt), operator.sub)
            scale = rk4_axis_step(*absolute(pos, vel, m_eff, c, dt), operator.add)
            for computed, value, size in zip(got[axis::2], want, scale):
                worst = max(worst, ulps_off(computed, value, size))
    assert worst <= ULPS


def test_stage_to_image_is_within_8_ulps():
    rng = random.Random(2019)
    worst = 0.0
    for _ in range(3000):
        c = Calibration(
            alpha=rng.uniform(-math.pi, math.pi),
            dx=10 ** rng.uniform(-2, 1),
            dy=10 ** rng.uniform(-2, 1),
            fx=10 ** rng.uniform(-1, 2),
            fy=10 ** rng.uniform(-1, 2),
        )
        x, y = (rng.uniform(-10, 10) for _ in range(2))
        img = stage_to_image(StagePoint(x, y), c)
        inputs = (x, y, math.cos(c.alpha), math.sin(c.alpha), c.dx, c.dy, c.fx, c.fy)
        want = image_point(*exact(*inputs), operator.sub)
        scale = image_point(*absolute(*inputs), operator.add)
        for computed, value, size in zip((img.u, img.v), want, scale):
            worst = max(worst, ulps_off(computed, value, size))
    assert worst <= ULPS


def _matrices(rng, count):
    """Transformation matrices of random calibrations, then general ones."""
    for _ in range(count):
        yield transformation_matrix(
            Calibration(
                alpha=rng.uniform(-math.pi, math.pi),
                dx=1.0,
                dy=1.0,
                fx=10 ** rng.uniform(-1, 2),
                fy=10 ** rng.uniform(-1, 2),
            )
        )
    while count:
        m = Mat2(*(rng.uniform(-2, 2) for _ in range(4)))
        if abs(m.a11 * m.a22 - m.a12 * m.a21) >= 1e3 * SINGULAR_EPS:
            count -= 1
            yield m


def test_inverse2_is_within_8_ulps():
    rng = random.Random(2020)
    worst = 0.0
    for m in _matrices(rng, 2000):
        got = inverse2(m)
        a11, a12, a21, a22 = exact(*m)
        det = a11 * a22 - a12 * a21
        det_scale = abs(a11 * a22) + abs(a12 * a21)
        for computed, numerator in zip(got, (a22, -a12, -a21, a11)):
            size = abs(numerator) * det_scale / det**2
            worst = max(worst, ulps_off(computed, numerator / det, size))
    assert worst <= ULPS


@pytest.mark.parametrize("computed, ulps", [(1.0, 0), (math.nextafter(1.0, 2.0), 1)])
def test_ulps_are_counted_at_the_scale(computed, ulps):
    assert ulps_off(computed, Fraction(1), Fraction(1)) == ulps


#: Rows where a 4,096-step kernel round ends and the next begins, plus the
#: first step.
ROUND_ROWS = (1, 4095, 4096, 4097)


def assert_exact_recurrence(got, state0, m_eff, c, dt):
    """Each got[n], one axis' (pos, vel) at row n, is within n eps of its
    term scale of the exact RK4 recurrence from state0."""
    eps = mpmath.mpf(2) ** -52
    with mpmath.workdps(50):
        pos0, vel0, m, c, dt = map(mpmath.mpf, (*state0, m_eff, c, dt))
        z = -dt / m
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        e0 = vel0 - c
        for n, values in got.items():
            rn = r**n
            want = (pos0 + n * dt * c + m * e0 * (1 - rn), c + e0 * rn)
            scale = (abs(pos0) + n * dt * abs(c) + m * abs(e0), abs(c) + abs(e0))
            for computed, exact, size in zip(values, want, scale):
                error = abs(mpmath.mpf(computed) - exact)
                assert error <= n * eps * size, f"row {n}: {computed!r} vs {exact}"


def random_case(rng: random.Random, undriven: str):
    """Masses, start state, wrench and step of a random path; the axis
    named by undriven has c = 0."""
    m = MassParams(*(10 ** rng.uniform(-1.5, 0) for _ in range(3)))
    x, y = (rng.uniform(-1, 1) for _ in range(2))
    init = StageState(0.0, x, y, rng.uniform(-10, 10), rng.uniform(-10, 10))
    taux, tauy, fexd, feyd = (rng.uniform(-10, 10) for _ in range(4))
    if undriven == "x":
        taux = fexd
    else:
        tauy = feyd
    return m, init, Wrench(taux, tauy, fexd, feyd), 10 ** rng.uniform(-3, -2)


def axes(m, init, w):
    """(effective mass, start (pos, vel), c) of the x and then the y axis."""
    net = w.net_input()
    return (
        (m.x_effective, (init.x, init.xdot), net.e1),
        (m.y_effective, (init.y, init.ydot), net.e2),
    )


@pytest.mark.parametrize("seed", range(4))
def test_simulate_rows_are_the_exact_recurrence(seed):
    rng = random.Random(seed)
    m, init, w, dt = random_case(rng, "xy"[seed % 2])
    steps = 50_000
    traj = simulate(m, init, w, dt, (steps + 0.5) * dt)
    assert len(traj) == steps + 1
    rows = (0, *ROUND_ROWS, 8192, 12_345, steps)
    columns = ((traj.x, traj.xdot), (traj.y, traj.ydot))
    for (m_eff, state0, c), (poss, vels) in zip(axes(m, init, w), columns):
        got = {n: (poss[n], vels[n]) for n in rows}
        assert_exact_recurrence(got, state0, m_eff, c, dt)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize(
    "window_rows, windows", [(65_536, 1), (4096, 2), (2731, 3), (2048, 4)]
)
def test_cli_rows_are_the_exact_recurrence(
    window_rows, windows, cpus, monkeypatch, tmp_path
):
    # 8,191 rows: under two 4,096-row chunks, so the window count follows
    # window_rows alone on both CPU counts.
    steps = 8190
    m, init, w, dt = random_case(random.Random(10 * windows + cpus), "y")
    config = dataclasses.replace(
        parse_config(REFERENCE_CONFIG.read_bytes()),
        masses=m, initial=init, wrench=w, dt=dt, t_end=(steps + 0.5) * dt,
    )
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli, "_WINDOW_ROWS", window_rows)
    out = tmp_path / "path.csv"
    assert cli.cmd_simulate(config, str(out)) == 0
    lines = out.read_text().splitlines()[1:]
    # x, y, xdot, ydot of each row.
    table = [list(map(float, line.split(",")[1:5])) for line in lines]
    assert len(table) == steps + 1
    bounds = [(steps + 1) * i // windows for i in range(1, windows)]
    rows = {0, *ROUND_ROWS, steps, *(b + d for b in bounds for d in (-1, 0, 1))}
    for axis, (m_eff, state0, c) in enumerate(axes(m, init, w)):
        got = {n: (table[n][axis], table[n][2 + axis]) for n in rows}
        assert_exact_recurrence(got, state0, m_eff, c, dt)


def truncation_gap(m_eff, vel0, c, dt, steps):
    """Largest gap between the exact RK4 recurrence and the closed form over
    rows 0..steps of one axis: |e0|*|R^n - e^(nz)| for the velocity and m
    times that for the position, in mpmath at 50 digits."""
    with mpmath.workdps(50):
        m, e0, dt = mpmath.mpf(m_eff), mpmath.mpf(vel0) - mpmath.mpf(c), mpmath.mpf(dt)
        z = -dt / m
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        widest = max(abs(r**n - mpmath.exp(n * z)) for n in range(steps + 1))
        # The larger of the velocity gap and m times it.
        return max(1, m) * abs(e0) * widest


@pytest.mark.parametrize("seed", [42, 9176])
def test_integrator_violation_is_the_exact_truncation(seed):
    # INTEGRATOR_VS_ANALYTIC compares RK4 rows with the closed form, so
    # what it reports is the truncation gap plus each side's round-off,
    # which stays within rows eps of the largest term scale.
    name = "INTEGRATOR_VS_ANALYTIC"
    _, draws, evaluate = propcheck.PROPERTIES[name]
    steps = propcheck._INTEGRATOR_STEPS
    for sample in range(8):
        violation, _ = evaluate(property_stream(seed, name, sample * draws))
        rng = property_stream(seed, name, sample * draws)
        m = propcheck.sample_masses(rng)
        init = propcheck.sample_initial_state(rng)
        w = propcheck.sample_wrench(rng)
        dt = propcheck._integrator_step(m)
        gap = bound = 0.0
        for m_eff, (pos0, vel0), c in axes(m, init, w):
            gap = max(gap, truncation_gap(m_eff, vel0, c, dt, steps))
            bound = max(bound, integrator_round_off(steps, dt, m_eff, pos0, vel0 - c, c))
        assert abs(violation - gap) <= bound, (sample, violation, float(gap), bound)


def integrator_round_off(steps, dt, m_eff, pos0, e0, c) -> float:
    """The round-off allowed between INTEGRATOR_VS_ANALYTIC's violation and
    its truncation gap on one axis: rows eps of the larger term scale,
    |pos0| + n*dt*|c| + m*|e0| of the positions or |c| + |e0| of the
    velocities."""
    eps = 2.0**-52
    c, e0 = abs(c), abs(e0)
    return (steps + 1) * eps * max(abs(pos0) + steps * dt * c + m_eff * e0, c + e0)


def integrator_step_box() -> tuple[float, float]:
    """The largest |z| = dt/m and the largest dt of INTEGRATOR_VS_ANALYTIC's
    draws. The step rule min(1e-3, m_min/128) makes dt/m <= dt/m_min
    largest at the lightest masses and dt largest at the heaviest."""
    lightest = MassParams(*[propcheck._MASS[0]] * 3)
    heaviest = MassParams(*[propcheck._MASS[1]] * 3)
    m_lo = min(lightest.x_effective, lightest.y_effective)
    return propcheck._integrator_step(lightest) / m_lo, propcheck._integrator_step(heaviest)


def integrator_bound() -> float:
    """A bound on INTEGRATOR_VS_ANALYTIC's violation over its whole sampling
    box.

    With z = -dt/m, the truncation gap is |e0|*|R^n - e^(nz)| for a velocity
    and m times that for a position. For -1 <= z < 0 the series of e^z
    alternates with falling terms, so |R(z) - e^z| <= |z|^5/120, and with
    0 < R, e^z <= 1, |R^n - e^(nz)| <= n |R - e^z| <= n |z|^5/120. As m|z|
    is dt, a position's gap is at most dt |e0| n |z|^4/120. |e0| = |v0 - c|
    with c = tau - fe_d. Round-off is `integrator_round_off` at the box's
    largest terms.
    """
    n = propcheck._INTEGRATOR_STEPS
    z, dt = integrator_step_box()
    assert z <= 1, z
    heaviest = MassParams(*[propcheck._MASS[1]] * 3)
    m_hi = max(heaviest.x_effective, heaviest.y_effective)
    c = 2 * max(map(abs, propcheck._WRENCH))
    e0 = max(map(abs, propcheck._VELOCITY)) + c
    p = max(map(abs, propcheck._POSITION))
    velocity = e0 * n * z**5 / 120
    position = dt * e0 * n * z**4 / 120
    return max(velocity, position) + integrator_round_off(n, dt, m_hi, p, e0, c)


def assert_integrator_is_certified():
    tolerance = propcheck.PROPERTIES["INTEGRATOR_VS_ANALYTIC"][0]
    bound = integrator_bound()
    assert bound <= tolerance, (bound, tolerance)


def test_integrator_truncation_is_within_its_tolerance():
    # About 2.9e-8 of velocity truncation (|z| = 1/128, |e0| = 120) and
    # 8.3e-10 of round-off (M = 30) against 1e-6.
    assert_integrator_is_certified()
    assert 2.9e-8 < integrator_bound() < 3.1e-8


def test_integrator_samples_lie_in_the_certified_box():
    name = "INTEGRATOR_VS_ANALYTIC"
    _, draws, evaluate = propcheck.PROPERTIES[name]
    z_max, dt_max = integrator_step_box()
    bound = integrator_bound()
    for sample in range(40):
        violation, inputs = evaluate(property_stream(42, name, sample * draws))
        m = MassParams(inputs["mx"], inputs["my"], inputs["mp"])
        assert inputs["dt"] <= dt_max
        assert inputs["dt"] / min(m.x_effective, m.y_effective) <= z_max
        assert violation <= bound


@pytest.mark.parametrize(
    "constant, wider",
    [
        ("_VELOCITY", (-1e4, 1e4)),
        ("_INTEGRATOR_STEPS", 100_000),
        ("_integrator_step", lambda m: min(1e-3, min(m.x_effective, m.y_effective) / 16)),
    ],
    ids=["_VELOCITY", "_INTEGRATOR_STEPS", "_integrator_step"],
)
def test_a_wider_box_breaks_the_integrator_certificate(constant, wider, monkeypatch):
    monkeypatch.setattr(propcheck, constant, wider)
    with pytest.raises(AssertionError):
        assert_integrator_is_certified()


def homogeneous_solution_bound() -> float:
    """A bound on THM4_HOMOG_SOLUTION's violation over its whole sampling box.

    Per axis the residual is fl(fl(M*a) + v) with a = fl(d*e), d =
    fl(-(v0/M)) and v = fl(v0*e), sharing one e = exp(-t/M) in [0, 1]. In
    exact arithmetic M*(-(v0/M))*e + v0*e is 0, so the residual is
    rounding alone: M*a is -v0*e times three factors (1 + delta) and v is
    v0*e times one, which leaves |v0 e| (u + gamma_3) before the last
    addition rounds by 1 + u (Higham ch. 3). A quotient or product that
    underflows adds at most 2^-1075 instead; those of d and a are then
    multiplied by up to M, so together they add at most (2M + 2) 2^-1075.
    """
    u = 2.0**-53
    gamma3 = 3 * u / (1 - 3 * u)
    heaviest = MassParams(*[propcheck._MASS[1]] * 3)
    m_hi = max(heaviest.x_effective, heaviest.y_effective)
    v = max(map(abs, propcheck._VELOCITY))
    return v * (u + gamma3) * (1 + u) + (m_hi + 1) * 2.0**-1074


def test_homogeneous_solution_is_round_off_within_its_tolerance():
    # About 4.4e-14 (|v0| = 100) against 1e-9.
    name = "THM4_HOMOG_SOLUTION"
    tolerance, draws, evaluate = propcheck.PROPERTIES[name]
    bound = homogeneous_solution_bound()
    assert bound <= tolerance
    assert 4.4e-14 < bound < 4.5e-14
    for sample in range(200):
        violation, _ = evaluate(property_stream(42, name, sample * draws))
        assert violation <= bound


#: THM4_DERIVATIVE_FD draws t from [_THM4_DERIVATIVE_T_MIN, _THM4_T_MAX].
_THM4_DERIVATIVE_T_MIN = 1.0


def derivative_fd_bound() -> float:
    """A bound on THM4_DERIVATIVE_FD's violation over its whole sampling box.

    The check compares (pos(t+h) - pos(t-h)) / 2h with vel(t) for
    pos(t) = pos0 + v0*M*(1 - e), vel(t) = v0*e, e = exp(-t/M), per axis.
    Truncation: h^2/6 * |pos'''(s)| for some s within h of t, and
    |pos'''(s)| = |v0| e^(-s/M) / M^2 falls with s and peaks at M = s/2.
    Round-off, to first order in the unit roundoff u: t +- h, -t/M and exp
    (1 ulp) put 2u(t+h)/M + 2u on e; 1 - e, v0*M and their product add 3u of
    |v0|M and the sum u(|pos0| + |v0|M). So each position is within
    u(2|v0|(t+h) + 6|v0|M + |pos0|), and the difference of two divided by 2h
    within twice that over 2h. The subtraction, the division and vel(t)
    (whose e carries (t/M)e <= 1 of 2u) add at most 7u|v0|.
    """
    u = 2.0**-53
    h = propcheck._FD_STEP
    lightest = MassParams(*[propcheck._MASS[0]] * 3)
    heaviest = MassParams(*[propcheck._MASS[1]] * 3)
    m_lo = min(lightest.x_effective, lightest.y_effective)
    m_hi = max(heaviest.x_effective, heaviest.y_effective)
    v = max(map(abs, propcheck._VELOCITY))
    p = max(map(abs, propcheck._POSITION))
    s = _THM4_DERIVATIVE_T_MIN - h
    m = min(max(s / 2, m_lo), m_hi)
    truncation = h * h / 6 * v * math.exp(-s / m) / (m * m)
    position = u * (2 * v * (propcheck._THM4_T_MAX + h) + 6 * v * m_hi + p)
    return truncation + 2 * position / (2 * h) + 7 * u * v


def assert_derivative_fd_is_certified():
    tolerance = propcheck.PROPERTIES["THM4_DERIVATIVE_FD"][0]
    bound = derivative_fd_bound()
    assert bound <= tolerance, (bound, tolerance)


def test_derivative_fd_truncation_is_within_its_tolerance():
    # About 9e-8 of truncation (M = 1/2, t = 1) and 2e-8 of round-off
    # (M = 30) against 5e-7.
    assert_derivative_fd_is_certified()
    assert 1e-7 < derivative_fd_bound() < 1.2e-7


def test_derivative_fd_samples_lie_in_the_certified_box():
    name = "THM4_DERIVATIVE_FD"
    _, draws, evaluate = propcheck.PROPERTIES[name]
    bound = derivative_fd_bound()
    for sample in range(200):
        violation, inputs = evaluate(property_stream(42, name, sample * draws))
        assert _THM4_DERIVATIVE_T_MIN <= inputs["t"] <= propcheck._THM4_T_MAX
        assert violation <= bound


@pytest.mark.parametrize(
    "constant, wider",
    [("_VELOCITY", (-1000.0, 1000.0)), ("_MASS", (1e-3, 1000.0)), ("_FD_STEP", 1e-3)],
)
def test_a_wider_box_breaks_the_derivative_fd_certificate(constant, wider, monkeypatch):
    monkeypatch.setattr(propcheck, constant, wider)
    with pytest.raises(AssertionError):
        assert_derivative_fd_is_certified()


# Certificates for six frame properties. Each violation is round-off alone,
# under a normalisation that scales with the terms the computation moves
# through, so its bound is a few u = 2^-53 whatever the draw (Higham ch. 3:
# each +, - and * rounds by a factor 1 + delta, |delta| <= u, and a result
# that underflows gains at most 2^-1075 instead).

#: The unit roundoff, exactly.
U = Fraction(1, 2**53)

#: What the bounds assume of math.cos and math.sin: within 1 ulp of the
#: exact value, a relative error of at most 2u. glibc documents errors below
#: 1 ulp for both; test_cos_and_sin_are_within_the_assumed_error checks it at
#: sampled angles.
TRIG_ERROR = 2 * U

#: Absolute allowance for results that underflow, a few 2^-1075 each; the
#: normalisations are at least 1, so it is added as it is.
UNDERFLOW = Fraction(16, 2**1075)

#: Samples of each property checked against its bound.
FRAME_SAMPLES = 4000


def gamma(n: int) -> Fraction:
    """gamma_n = n u / (1 - n u), which bounds |prod (1 + delta_i) - 1| over
    n roundings (Higham Lemma 3.1)."""
    return n * U / (1 - n * U)


def violations(name: str, samples: int = FRAME_SAMPLES, seed: int = 11):
    """The violations of the first `samples` samples of property name."""
    evaluate = propcheck.PROPERTIES[name][2]
    rng = property_stream(seed, name)
    return [evaluate(rng)[0] for _ in range(samples)]


@pytest.mark.parametrize(
    "name", ["THM1_CAMERA_STAGE", "THM2_IMAGE_CAMERA", "FRAMES_FACTORIZATION"]
)
def test_frame_properties_that_repeat_the_library_are_exact(name):
    """These three checks compute the library's products and sums again, in
    the library's order, so each violation is exactly 0 for every draw.

    - THM1_CAMERA_STAGE: `frames._affine` on R(alpha) and (dx, dy) gives
      xc = (cos*x + sin*y) + dx and yc = ((-sin)*x + cos*y) + dy; the check
      computes x*cos + y*sin + dx and (-x)*sin + y*cos + dy, left to right.
      Rounding is symmetric in the sign and products commute, so every
      operation has the same operands and the same result.
    - THM2_IMAGE_CAMERA: `_affine` on diag(fx, fy) with offset -0.0 gives
      (fx*xc + 0.0*yc) + -0.0. With |xc|, |yc| <= 100 and fx <= 100 nothing
      overflows, and adding zeros leaves fx*xc, the check's value, up to
      the sign of a zero, which |got - want| does not see.
    - FRAMES_FACTORIZATION: each entry of T(c) is one product, fx*cos,
      fx*sin, (-fy)*sin or fy*cos, and the matching entry of diag(fx, fy)
      R(alpha) is the same product plus a product with 0.0, that is plus a
      zero.

    No reordering of `_affine` can change the last two, which add only
    zeros; test_a_reordered_affine_breaks_camera_stage_exactness shows one
    that changes the first.
    """
    assert max(violations(name)) == 0.0


def test_a_reordered_affine_breaks_camera_stage_exactness(monkeypatch):
    def reordered(a, x, y):
        a11, a12, a21, a22, b1, b2 = a
        return a11 * x + (a12 * y + b1), a21 * x + (a22 * y + b2)

    monkeypatch.setattr(frames, "_affine", reordered)
    assert max(violations("THM1_CAMERA_STAGE")) > 0.0


def image_stage_bound() -> Fraction:
    """A bound on THM3_IMAGE_STAGE's violation for every draw.

    The check takes the largest of four normalised gaps. Its raw affine
    form fx*cos*x + fx*sin*y + fx*dx is `frames._affine` on the cached
    coefficients T(c) and (fx*dx, fy*dy), in the same order, so two gaps
    are exactly 0. The other two compare stage_to_image with
    camera_to_image(stage_to_camera(p)). With cos and sin the float values
    both share, and |cos|, |sin| <= 1, the exact value is
    U = fx*(cos*x + sin*y + dx). stage_to_image rounds the x and y terms
    four times (fx*cos, the product with x, two sums) and the dx term twice
    (fx*dx, the last sum); the composition rounds them four times (cos*x,
    two sums, fx*) and twice too (the last sum, fx*). So each is within
    gamma_4 * D of U, with D = fx*(|x| + |y| + dx), and the gap within
    2 gamma_4 D. The check's float D is at least D(1 - u)^3, and its
    subtraction and division add a factor (1 + u) each. The same holds for
    v with fy, -sin, cos and dy. Beyond |cos|, |sin| <= 1, no accuracy of
    cos or sin is assumed.
    """
    return (2 * gamma(4) / (1 - U) ** 3 + UNDERFLOW) * (1 + U) ** 2


def det_scale_bound() -> Fraction:
    """A bound on FRAMES_DET_SCALE's violation for every draw.

    det T = (fx*c)*(fy*c) - (fx*s)*((-fy)*s) with c, s the float cos and
    sin of alpha. Each product is fx*fy times C^2 or S^2 (the exact cos^2
    and sin^2) times (1 + TRIG_ERROR)^2 at most and three roundings, and
    the subtraction rounds once more; as C^2 + S^2 = 1, det / (fx*fy) lies
    in [L, H] = [(1 - t)^2 (1 - u)^4, (1 + t)^2 (1 + u)^4]. The reference
    fl(fx*fy) is within u of fx*fy, the normalisation max(1, fl(fx*fy)) is
    at least fx*fy*(1 - u), and the subtraction and division add (1 + u)
    each.
    """
    t = TRIG_ERROR
    high = (1 + t) ** 2 * (1 + U) ** 4
    low = (1 - t) ** 2 * (1 - U) ** 4
    return (max(high - 1, 1 - low) + U + UNDERFLOW) * (1 + U) ** 2 / (1 - U)


def rotation_inverse_bound() -> Fraction:
    """A bound on FRAMES_ROTATION_INVERSE's violation for every draw.

    R(alpha) R(-alpha) has diagonal entries c*c' + s*(-s') and
    (-s)*s' + c*c', with c, s the float cos and sin of alpha and c', s'
    those of -alpha. Each of c, c' is C (the exact cos alpha) and each of
    s, -s' is S times a factor within TRIG_ERROR of 1, and each entry takes
    two product roundings and one sum, so as C^2 + S^2 = 1 a diagonal
    entry lies in [L, H] = [(1 - t)^2 (1 - u)^2, (1 + t)^2 (1 + u)^2]; it
    lies in [1/2, 2], so the check's subtraction of 1 is exact. An
    off-diagonal entry, c*s' + s*c' or (-s)*c' + c*(-s'), is C*S times the
    difference of two such factors, at most (H - L)/2 as |C*S| <= 1/2.
    """
    t = TRIG_ERROR
    high = (1 + t) ** 2 * (1 + U) ** 2
    low = (1 - t) ** 2 * (1 - U) ** 2
    return max(high - 1, 1 - low, (high - low) / 2) + UNDERFLOW


#: Each round-off property, its bound, and the bound in units of u.
ROUND_OFF_FRAMES = pytest.mark.parametrize(
    "name, bound, in_u",
    [
        ("THM3_IMAGE_STAGE", image_stage_bound, 8),
        ("FRAMES_DET_SCALE", det_scale_bound, 9),
        ("FRAMES_ROTATION_INVERSE", rotation_inverse_bound, 6),
    ],
    ids=["THM3_IMAGE_STAGE", "FRAMES_DET_SCALE", "FRAMES_ROTATION_INVERSE"],
)


@ROUND_OFF_FRAMES
def test_frame_round_off_is_within_its_tolerance(name, bound, in_u):
    # The worst of these samples read 3.1u, 3.8u and 2.0u (of 20,000 at
    # seed 11: 3.7u, 3.8u and 2.0u).
    tolerance = propcheck.PROPERTIES[name][0]
    certified = bound()
    assert float(certified) <= tolerance
    assert in_u * U < certified < (in_u + Fraction(1, 100)) * U
    assert max(map(Fraction, violations(name))) <= certified


def test_cos_and_sin_are_within_the_assumed_error():
    angles = [*propcheck._ALPHA, 0.0, 2.0**-1074]
    for name in ("FRAMES_DET_SCALE", "FRAMES_ROTATION_INVERSE"):
        draws = propcheck.PROPERTIES[name][1]
        # alpha is the first draw of each sample.
        angles += [
            property_stream(11, name, i * draws).uniform(*propcheck._ALPHA)
            for i in range(500)
        ]
    with mpmath.workdps(50):
        for alpha in angles + [-a for a in angles]:
            for computed, exact_value in (
                (math.cos(alpha), mpmath.cos(alpha)),
                (math.sin(alpha), mpmath.sin(alpha)),
            ):
                error = abs(mpmath.mpf(computed) - exact_value)
                assert error <= mpmath.mpf(float(TRIG_ERROR)) * abs(exact_value), alpha


@pytest.mark.parametrize(
    "name, bound",
    [("FRAMES_DET_SCALE", det_scale_bound), ("FRAMES_ROTATION_INVERSE", rotation_inverse_bound)],
    ids=["FRAMES_DET_SCALE", "FRAMES_ROTATION_INVERSE"],
)
def test_a_less_accurate_sine_breaks_the_frame_bound(name, bound, monkeypatch):
    # A sine 8 ulps high, in frames only: its square grows by about 32u.
    coarse = types.SimpleNamespace(cos=math.cos, sin=lambda a: math.sin(a) * (1 + 2.0**-49))
    monkeypatch.setattr(frames, "math", coarse)
    assert max(map(Fraction, violations(name))) > bound()


def test_a_result_sized_normalisation_breaks_the_image_stage_bound():
    """THM3_IMAGE_STAGE divides by the size of the terms, D, not of the
    result: where x and y nearly cancel dx, u is small while the round-off
    still scales with D."""
    rng = property_stream(11, "THM3_IMAGE_STAGE")
    worst = Fraction(0)
    for _ in range(FRAME_SAMPLES):
        c = propcheck.sample_calibration(rng)
        p = propcheck.sample_stage_point(rng)
        direct = frames.stage_to_image(p, c)
        composed = frames.camera_to_image(frames.stage_to_camera(p, c), c)
        gap = max(abs(direct.u - composed.u), abs(direct.v - composed.v))
        worst = max(worst, Fraction(gap) / Fraction(max(1.0, abs(direct.u), abs(direct.v))))
    assert worst > image_stage_bound()


#: Samples of THM4_CONSTANT_INPUT_REDUCTION checked for exactness.
REDUCTION_SAMPLES = 20_000


def test_constant_input_reduction_is_exact():
    """At w = 0 the constant-input closed form gives the zero-input one's
    bits up to the sign of a zero, so THM4_CONSTANT_INPUT_REDUCTION's
    violation is exactly 0 for every draw.

    - At w = 0, net = (0.0, 0.0), so c = 0.0 and g = c - vel0 = -vel0.
    - Both forms evaluate e = exp(-t/M) on the same t and M.
    - M*g = -(M*vel0) and e - 1 = -(1 - e), both exactly: rounding is
      symmetric in the sign and products commute. So M*g*(e - 1) has the
      bits of `_homogeneous_axis`'s reach * (1.0 - e).
    - c*t = 0.0*t is +0.0 for t >= 0, and adding +-0 can change only the
      sign of a zero; so can the sum with pos0 that follows.
    - The velocity c - g*e = 0.0 - (-vel0)*e is vel0*e in the same way.

    Every value is finite (the closed forms check it), so each gap
    |a - b| is 0.
    """
    name = "THM4_CONSTANT_INPUT_REDUCTION"
    assert max(violations(name, REDUCTION_SAMPLES)) == 0.0


def test_a_regrouped_homogeneous_position_breaks_the_reduction_certificate(monkeypatch):
    """(pos0 + reach) - reach*e rounds otherwise than pos0 + reach*(1 - e).
    The violation stays below the 1e-15 tolerance, so `verify` still
    passes, but it is no longer 0."""
    homogeneous_axis = dynamics._homogeneous_axis

    def regrouped(m_eff, pos0, vel0, times):
        _, vel, acc = homogeneous_axis(m_eff, pos0, vel0, times)
        reach = vel0 * m_eff
        return [pos0 + reach - reach * math.exp(-t / m_eff) for t in times], vel, acc

    monkeypatch.setattr(dynamics, "_homogeneous_axis", regrouped)
    name = "THM4_CONSTANT_INPUT_REDUCTION"
    worst = max(violations(name, REDUCTION_SAMPLES))
    assert 0.0 < worst <= propcheck.PROPERTIES[name][0]


class Lifted(Fraction):
    """A Fraction whose +, -, * and / lift a float operand exactly, so code
    written for floats runs on it in exact rational arithmetic."""


def _lifted(op, reflected):
    def method(a, b):
        a, b = Fraction(a), Fraction(b)
        return Lifted(op(b, a) if reflected else op(a, b))

    return method


for _name in ("add", "sub", "mul", "truediv"):
    setattr(Lifted, f"__{_name}__", _lifted(getattr(operator, _name), False))
    setattr(Lifted, f"__r{_name}__", _lifted(getattr(operator, _name), True))

#: The grid of the RK4 step identity: 5 masses, 5 steps, 2 inputs, 2 velocities.
RK4_GRID = (
    [Fraction(k, 3) for k in (1, 2, 4, 5, 7)],
    [Fraction(1, k) for k in (2, 3, 5, 7, 11)],
    [Fraction(0), Fraction(3, 2)],
    [Fraction(-1), Fraction(5, 4)],
)


def rk4_velocity_gaps(rk4_axis) -> list[Fraction]:
    """v1 - c - R(z)*(v0 - c) after one step of rk4_axis from each grid point,
    with z = -dt/m and R the RK4 stability function."""
    gaps = []
    for m, dt, c, v0 in itertools.product(*RK4_GRID):
        vels = [Lifted(v0)]
        rk4_axis(Lifted(m), Lifted(c), [Lifted(0)], vels, Lifted(dt), 2)
        assert type(vels[1]) is Lifted
        z = -dt / m
        r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        gaps.append(vels[1] - c - r * (v0 - c))
    return gaps


def test_one_rk4_step_multiplies_the_velocity_gap_by_the_stability_function():
    """In exact arithmetic, `_backend._rk4_axis` as written gives
    v1 - c = R(z)*(v0 - c) for every input, which INTEGRATOR_VS_ANALYTIC's
    certificate assumes.

    With w = 1/m, k1 = (c - v0)*w, and each later stage multiplies by w and
    at most once by dt: k4 has degree 4 in w and 3 in dt, so v1 = v0 +
    dt*(k1 + 2*k2 + 2*k3 + k4)/6 has degree at most 4 in w and in dt, and
    is affine in c and in v0; so is c + R(-dt*w)*(v0 - c). Their difference
    vanishes on a product grid with 5 values of w (the masses k/3), 5 of dt
    and 2 each of c and v0, one more than its degree in each variable, so
    it is the zero polynomial (Schwartz 1980, the deterministic case).
    """
    gaps = rk4_velocity_gaps(_backend._rk4_axis)
    assert len(gaps) == 5 * 5 * 2 * 2
    assert set(gaps) == {0}


def test_a_changed_rk4_coefficient_breaks_the_identity():
    source = inspect.getsource(_backend._rk4_axis)
    assert source.count("2.0 * k3") == 1
    namespace = dict(vars(_backend))
    exec(source.replace("2.0 * k3", "3.0 * k3"), namespace)
    assert any(rk4_velocity_gaps(namespace["_rk4_axis"]))
