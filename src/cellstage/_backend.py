"""The RK4 stage kernel.

One pure-Python implementation. `dynamics.simulate` looks up
`rk4_stage_path` on this module at call time. `kernel_backend()` is kept
because the `cellbench` benchmark records it with every run.
"""

#: A state component beyond this magnitude means the configuration diverged.
OVERFLOW_LIMIT = 1e100


def kernel_backend() -> str:
    """Name of the kernel implementation; always 'python'."""
    return "python"


def rk4_stage_path(mx_eff, my_eff, cx, cy, x0, y0, vx0, vy0, dt, n_steps):
    """Classical fixed-step RK4 for the decoupled 2-DOF stage equations.

    Integrates pos' = vel, vel' = (c - vel)/m_eff per axis for n_steps steps
    of size dt. Returns four lists (x, y, vx, vy) of length n_steps + 1,
    sample 0 being the initial state.

    Raises OverflowError as soon as any component exceeds OVERFLOW_LIMIT
    or is NaN.
    """
    x = x0
    y = y0
    vx = vx0
    vy = vy0
    xs = [x]
    ys = [y]
    vxs = [vx]
    vys = [vy]
    append_x = xs.append
    append_y = ys.append
    append_vx = vxs.append
    append_vy = vys.append
    # 0.5 * dt * k parses as (0.5 * dt) * k, so h keeps every bit.
    h = 0.5 * dt
    high = OVERFLOW_LIMIT
    low = -high
    for _ in range(n_steps):
        k1vx = (cx - vx) / mx_eff
        k1vy = (cy - vy) / my_eff
        s2vx = vx + h * k1vx
        s2vy = vy + h * k1vy
        k2vx = (cx - s2vx) / mx_eff
        k2vy = (cy - s2vy) / my_eff
        s3vx = vx + h * k2vx
        s3vy = vy + h * k2vy
        k3vx = (cx - s3vx) / mx_eff
        k3vy = (cy - s3vy) / my_eff
        s4vx = vx + dt * k3vx
        s4vy = vy + dt * k3vy
        k4vx = (cx - s4vx) / mx_eff
        k4vy = (cy - s4vy) / my_eff
        x = x + dt * (vx + 2.0 * s2vx + 2.0 * s3vx + s4vx) / 6.0
        y = y + dt * (vy + 2.0 * s2vy + 2.0 * s3vy + s4vy) / 6.0
        vx = vx + dt * (k1vx + 2.0 * k2vx + 2.0 * k3vx + k4vx) / 6.0
        vy = vy + dt * (k1vy + 2.0 * k2vy + 2.0 * k3vy + k4vy) / 6.0
        # Written as "not within" so that a NaN component trips it too.
        if not (
            low <= x <= high
            and low <= y <= high
            and low <= vx <= high
            and low <= vy <= high
        ):
            raise OverflowError(
                f"state left [{-OVERFLOW_LIMIT:g}, {OVERFLOW_LIMIT:g}]"
                f" at step {len(xs)}"
            )
        append_x(x)
        append_y(y)
        append_vx(vx)
        append_vy(vy)
    return xs, ys, vxs, vys
