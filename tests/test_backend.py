"""The RK4 kernel's fixed-point tail against the loop it replaces.

`reference_axis` is the per-axis RK4 loop of `_backend._rk4_axis` as it was
before the tail, kept here as the oracle: every path `rk4_stage_path`
returns must have its bits, and the tail must really run.
"""

import functools
import random

import pytest

from cellstage import _backend

ROUND = _backend._ROUND_STEPS


def reference_axis(m_eff, c, pos, vel, dt, n_steps):
    """Positions and velocities of up to n_steps RK4 steps, stopping before
    the first step out of +-OVERFLOW_LIMIT or NaN."""
    poss = [pos]
    vels = [vel]
    h = 0.5 * dt
    high = _backend.OVERFLOW_LIMIT
    low = -high
    for _ in range(n_steps):
        k1 = (c - vel) / m_eff
        s2 = vel + h * k1
        k2 = (c - s2) / m_eff
        s3 = vel + h * k2
        k3 = (c - s3) / m_eff
        s4 = vel + dt * k3
        k4 = (c - s4) / m_eff
        pos = pos + dt * (vel + 2.0 * s2 + 2.0 * s3 + s4) / 6.0
        vel = vel + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not (low <= pos <= high and low <= vel <= high):
            break
        poss.append(pos)
        vels.append(vel)
    return poss, vels


def reference_path(mx, my, cx, cy, x0, y0, vx0, vy0, dt, n_steps):
    """rk4_stage_path's columns: both axes cut where the first one stops."""
    xs, vxs = reference_axis(mx, cx, x0, vx0, dt, n_steps)
    ys, vys = reference_axis(my, cy, y0, vy0, dt, n_steps)
    rows = min(len(xs), len(ys))
    return xs[:rows], ys[:rows], vxs[:rows], vys[:rows]


def bits(columns):
    """Each value's exact bits, zeros' signs included."""
    return [list(map(float.hex, column)) for column in columns]


@pytest.fixture
def steps_asked(monkeypatch):
    """RK4 steps asked of _rk4_axis, per call, while the test runs."""
    asked = []
    axis = _backend._rk4_axis

    def counting(m_eff, c, poss, vels, dt, stop):
        asked.append(stop - len(poss))
        return axis(m_eff, c, poss, vels, dt, stop)

    monkeypatch.setattr(_backend, "_rk4_axis", counting)
    return asked


def fixed_from(vels):
    """The first row from which every velocity has the bits of the last."""
    last = vels[-1].hex()
    row = len(vels) - 1
    while row > 0 and vels[row - 1].hex() == last:
        row -= 1
    return row


#: (m, c, pos, vel, dt) of a driven axis whose velocity is a fixed point
#: from row 8,367 and an undriven one whose velocity is an exact 0 from row
#: 9,140, both past two rounds.
DRIVEN = (1.0, 3.0, 10.0, -7.0, 2.0**-8)
UNDRIVEN = (0.012, 0.0, -5.0, 4.0, 2.0**-10)


@functools.lru_cache(maxsize=None)
def settling(axis):
    """The reference rows of axis and the first row of its fixed point."""
    m, c, pos, vel, dt = axis
    poss, vels = reference_axis(m, c, pos, vel, dt, 4 * ROUND)
    row = fixed_from(vels)
    assert row < 3 * ROUND, "the axis does not settle within three rounds"
    return poss, vels, row


def shifted_to(axis, row):
    """(m, c, pos, vel, dt) of axis started so that its velocity is first
    fixed at row."""
    poss, vels, fixed = settling(axis)
    start = fixed - row
    assert start >= 0, "the axis settles too soon"
    m, c, _, _, dt = axis
    return m, c, poss[start], vels[start], dt


class TestTailMatchesTheLoop:
    @pytest.mark.parametrize(
        "n_steps", [0, 1, 2, ROUND - 1, ROUND, ROUND + 1, 2 * ROUND + 5]
    )
    @pytest.mark.parametrize(
        "vx, vy, cx, cy",
        [
            (0.0, -0.0, 0.0, 0.0),
            (-0.0, 0.0, -0.0, -0.0),
            (-0.0, -0.0, 0.0, -0.0),
            (0.0, 0.0, 5e-324, -5e-324),
            # v = c: fixed from row 0, and x's increment underflows to -0.0.
            (-5e-324, 5e-324, -5e-324, 5e-324),
        ],
    )
    def test_signed_zero_velocities(self, n_steps, vx, vy, cx, cy):
        args = (1.0, 0.5, cx, cy, -0.0, 3.0, vx, vy, 0.1, n_steps)
        assert bits(_backend.rk4_stage_path(*args)) == bits(reference_path(*args))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_steps", [50, 200, ROUND + 300])
    def test_huge_inputs_leave_inside_a_tail(self, sign, n_steps, steps_asked):
        # v = c = +-1e99 is a fixed point from the start, so an axis that
        # carries it leaves +-1e100 inside its tail, after about 100 steps.
        # That round alone is run again by the loop, which stops where the
        # state leaves; every other call is a one-step probe.
        big = sign * 1e99
        for args in (
            (1.0, 0.5, big, -big, 0.0, 0.0, big, -big, 0.1, n_steps),
            (1.0, 0.5, 0.0, big, 1.0, -2.0, 0.0, big, 0.05, n_steps),
            (1.0, 0.5, big, 0.0, sign * 9.9e99, 0.0, big, 0.0, 0.001, n_steps),
        ):
            steps_asked.clear()
            got = _backend.rk4_stage_path(*args)
            assert bits(got) == bits(reference_path(*args))
            assert len([steps for steps in steps_asked if steps > 1]) <= 1

    @pytest.mark.parametrize("n_steps", [1, 2, 5, ROUND + 3])
    @pytest.mark.parametrize(
        "pos, vel, dt",
        [
            (2e100, 0.0, 0.1),
            (-2e100, 0.0, 0.1),
            (-2e100, 1.0, 0.1),
            (2e100, -1.0, 0.1),
            # Starts out, steps in at -5e99, leaves again at 1.5e100.
            (-1.5e100, 1e100, 1.0),
        ],
    )
    def test_positions_out_of_range_from_the_start(self, pos, vel, dt, n_steps):
        # v = c is a fixed point from row 0, so only the positions leave.
        for args in (
            (1.0, 0.5, vel, 0.0, pos, 0.0, vel, 0.0, dt, n_steps),
            (1.0, 0.5, 0.0, vel, 0.0, pos, 0.0, vel, dt, n_steps),
        ):
            got = _backend.rk4_stage_path(*args)
            assert bits(got) == bits(reference_path(*args))

    @pytest.mark.parametrize("axis", [DRIVEN, UNDRIVEN], ids=["driven", "undriven"])
    @pytest.mark.parametrize(
        "row",
        [0, 1, ROUND // 2, ROUND - 1, ROUND, ROUND + 1, 2 * ROUND],
        ids=lambda row: f"fixed-at-{row}",
    )
    def test_fixed_point_at_and_around_round_starts(self, axis, row):
        m, c, pos, vel, dt = shifted_to(axis, row)
        for n_steps in (row, row + 1, 2 * ROUND + 7):
            args = (m, 0.5, c, -1.0, pos, 1.0, vel, 2.0, dt, n_steps)
            got = _backend.rk4_stage_path(*args)
            assert bits(got) == bits(reference_path(*args))
            # The same axis as y, beside an x that never settles.
            args = (10.0, m, 1.0, c, 0.0, pos, -3.0, vel, dt, n_steps)
            got = _backend.rk4_stage_path(*args)
            assert bits(got) == bits(reference_path(*args))

    def test_random_cases(self):
        rng = random.Random(2018)
        specials = [0.0, -0.0, 1.0, -1.0, 1e99, -1e99, 5e-324]
        for _ in range(60):
            mx, my = (10 ** rng.uniform(-2.0, 0.5) for _ in range(2))
            cx, cy, x0, y0, vx0, vy0 = (
                rng.choice(specials)
                if rng.random() < 0.3
                else rng.uniform(-10.0, 10.0)
                for _ in range(6)
            )
            dt = rng.choice([2.0**-10, 1e-3, 0.01, 0.1])
            n_steps = rng.choice([1, ROUND, ROUND + 1, rng.randrange(1, 3 * ROUND)])
            args = (mx, my, cx, cy, x0, y0, vx0, vy0, dt, n_steps)
            got = _backend.rk4_stage_path(*args)
            assert bits(got) == bits(reference_path(*args)), args


class TestTailRuns:
    def test_an_axis_at_rest_takes_one_step_per_round(self, steps_asked):
        n_steps = 2 * ROUND + 10
        path = _backend.rk4_stage_path(
            1.0, 0.5, 0.0, 0.0, 2.0, -1.0, 0.0, 0.0, 0.01, n_steps
        )
        assert [len(column) for column in path] == [n_steps + 1] * 4
        # Three rounds, two axes, one step each.
        assert steps_asked == [1] * 6

    def test_a_settled_axis_takes_the_tail_from_the_next_round(self, steps_asked):
        # x settles within its first round, y is at rest.
        m, c, pos, vel, dt = shifted_to(DRIVEN, ROUND // 2)
        _backend.rk4_stage_path(m, 1.0, c, 0.0, pos, 0.0, vel, 0.0, dt, 3 * ROUND)
        # Round 1: x's step, its loop, y's step; rounds 2 and 3: one step each.
        assert steps_asked == [1, ROUND, 1, 1, 1, 1, 1]

    def test_the_velocity_column_repeats_one_object(self):
        # v = c: the tail from row 0 repeats the initial velocity itself.
        _, _, vxs, _ = _backend.rk4_stage_path(
            1.0, 0.5, 2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.01, 3 * ROUND
        )
        assert all(v is vxs[0] for v in vxs)
