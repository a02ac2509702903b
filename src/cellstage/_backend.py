"""The RK4 stage kernel.

One pure-Python implementation, written once for one axis. `dynamics._path`
looks up `rk4_stage_path` on this module at call time. `kernel_backend()`
is kept because the `cellbench` benchmark records it with every run.
"""

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


def rk4_stage_path(mx_eff, my_eff, cx, cy, x0, y0, vx0, vy0, dt, n_steps):
    """Classical fixed-step RK4 for the decoupled 2-DOF stage equations.

    Integrates each axis with _rk4_axis for n_steps steps of size dt.
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
        _rk4_axis(mx_eff, cx, xs, vxs, dt, goal)
        _rk4_axis(my_eff, cy, ys, vys, dt, len(xs))
        if len(ys) < goal:
            break
    del xs[len(ys):], vxs[len(ys):]
    return xs, ys, vxs, vys
