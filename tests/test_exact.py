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
"""

import math
import operator
import random
from fractions import Fraction

import pytest

from cellstage import _backend
from cellstage.frames import Calibration, StagePoint, stage_to_image, transformation_matrix
from cellstage.linalg2 import SINGULAR_EPS, Mat2, inverse2

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
