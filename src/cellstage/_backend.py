"""The RK4 stage kernel.

One pure-Python implementation, written once for one axis. `dynamics._path`
looks up `rk4_stage_path` on this module at call time. `kernel_backend()`
is kept because the `cellbench` benchmark records it with every run.

Each axis' velocity update reads only the velocity, so once a step returns
its velocity bit for bit, every later step does too and adds the same
increment to the position. Each round of an axis therefore starts with one
RK4 step of its first velocity; if that velocity is a fixed point, the rest
of the round repeats it and sums the step's increment without further RK4
arithmetic (the tail), otherwise the full loop runs. A tail whose
positions leave +-OVERFLOW_LIMIT is run again by the loop, so a divergence
stops at the loop's own step. The bits are the same either way.
"""

from itertools import accumulate, islice, repeat
from math import copysign

#: A state component beyond this magnitude means the configuration diverged.
OVERFLOW_LIMIT = 1e100

#: Steps each axis takes per round of rk4_stage_path.
_ROUND_STEPS = 4096


def kernel_backend() -> str:
    """Name of the kernel implementation; always 'python'."""
    return "python"


def _rk4_axis(m_eff, c, poss, vels, dt, stop):
    """Classical fixed-step RK4 for one axis: pos' = vel, vel' = (c - vel)/m_eff.

    Extends the lists poss and vels from their last entries until they hold
    stop samples, or stops before the first step at which pos or vel
    exceeds OVERFLOW_LIMIT or is NaN.
    """
    pos = poss[-1]
    vel = vels[-1]
    append_pos = poss.append
    append_vel = vels.append
    # 0.5 * dt * k parses as (0.5 * dt) * k, so h keeps every bit.
    h = 0.5 * dt
    high = OVERFLOW_LIMIT
    low = -high
    for _ in range(len(poss), stop):
        k1 = (c - vel) / m_eff
        s2 = vel + h * k1
        k2 = (c - s2) / m_eff
        s3 = vel + h * k2
        k3 = (c - s3) / m_eff
        s4 = vel + dt * k3
        k4 = (c - s4) / m_eff
        pos = pos + dt * (vel + 2.0 * s2 + 2.0 * s3 + s4) / 6.0
        vel = vel + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        # Written as "not within" so that a NaN component trips it too.
        if not (low <= pos <= high and low <= vel <= high):
            return
        append_pos(pos)
        append_vel(vel)


def _rk4_round(m_eff, c, poss, vels, dt, stop):
    """_rk4_axis, with no RK4 arithmetic past a fixed point of the velocity.

    One _rk4_axis step of vels[-1] from position -0.0, the additive
    identity, gives the next velocity and the position increment the loop
    adds for vels[-1]. If that velocity is vels[-1] in value and sign, every
    later step repeats it, so the lists are extended by repeating it and by
    adding the increment in the loop's order. Positions with one increment
    are monotone, so if the first and last new positions are within
    +-OVERFLOW_LIMIT, all are; otherwise, and if the velocity is not fixed,
    _rk4_axis extends the lists, stopping where its loop stops.
    """
    vel = vels[-1]
    probe_poss = [-0.0]
    probe_vels = [vel]
    _rk4_axis(m_eff, c, probe_poss, probe_vels, dt, 2)
    fixed = len(probe_vels) == 2 and probe_vels[1] == vel
    # -0.0 == 0.0, so the signs are compared too.
    if fixed and copysign(1.0, probe_vels[1]) == copysign(1.0, vel):
        start = len(poss)
        sums = accumulate(repeat(probe_poss[1], stop - start), initial=poss[-1])
        poss.extend(islice(sums, 1, None))
        high = OVERFLOW_LIMIT
        if start == len(poss) or (
            -high <= poss[start] <= high and -high <= poss[-1] <= high
        ):
            vels.extend(repeat(vel, len(poss) - start))
            return
        # The state leaves the range in this round, which ends the run.
        del poss[start:]
    _rk4_axis(m_eff, c, poss, vels, dt, stop)


def rk4_stage_path(mx_eff, my_eff, cx, cy, x0, y0, vx0, vy0, dt, n_steps):
    """Classical fixed-step RK4 for the decoupled 2-DOF stage equations.

    Integrates each axis with _rk4_round for n_steps steps of size dt.
    Returns four lists (x, y, vx, vy), sample 0 being the initial state.
    They hold n_steps + 1 samples, or, if the state diverged, the samples
    before the first step at which any component exceeds OVERFLOW_LIMIT or
    is NaN.
    """
    rows = n_steps + 1
    xs = [x0]
    ys = [y0]
    vxs = [vx0]
    vys = [vy0]
    # In rounds, so that y diverging early stops x early too.
    while len(ys) < rows:
        goal = min(len(ys) + _ROUND_STEPS, rows)
        _rk4_round(mx_eff, cx, xs, vxs, dt, goal)
        _rk4_round(my_eff, cy, ys, vys, dt, len(xs))
        if len(ys) < goal:
            break
    del xs[len(ys):], vxs[len(ys):]
    return xs, ys, vxs, vys
