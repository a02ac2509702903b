"""Output checks for the benchmark's operations.

Each check re-derives the program's output from the raw formulas (or from the
documented report format) and compares within the normalisations and
tolerances that cellstage's own properties use:

- THM1_CAMERA_STAGE: |cam - (R(alpha) p + d)| / max(1, |x|+|y|+max(dx,dy)) <= 1e-12
- THM3_IMAGE_STAGE: |img - raw affine form| / max(1, f*(|x|+|y|+d)) <= 1e-12
- FRAMES_ROUND_TRIP: |back - p| / max(1, |p|, |T^-1|(|T||p| + offset)) <= 1e-12
- INTEGRATOR_VS_ANALYTIC: |RK4 state - closed form| <= 1e-6, absolute

The checks use no cellstage code except the closed form the simulate check
compares against, so a defect in a transform cannot hide behind itself.
"""

from __future__ import annotations

import math

CSV_HEADER = "t,x,y,xdot,ydot,xc,yc,u,v"
FRAMES_TOL = 1e-12
INTEGRATOR_TOL = 1e-6

#: `cellstage verify` report order: the documented property registry.
PROPERTY_ORDER = (
    "THM1_CAMERA_STAGE",
    "THM2_IMAGE_CAMERA",
    "THM3_IMAGE_STAGE",
    "THM4_HOMOG_SOLUTION",
    "THM5_IMAGE_DYNAMICS",
    "LINALG_INVERSE_IDENTITY",
    "LINALG_DET_PRODUCT",
    "LINALG_MATVEC_LINEARITY",
    "FRAMES_FACTORIZATION",
    "FRAMES_DET_SCALE",
    "FRAMES_ROTATION_INVERSE",
    "FRAMES_ROUND_TRIP",
    "THM4_DERIVATIVE_FD",
    "THM4_CONSTANT_INPUT_REDUCTION",
    "INTEGRATOR_VS_ANALYTIC",
    "INTEGRATOR_ORDER",
)


def camera_violation(x, y, xc, yc, cal, ca, sa) -> float:
    """THM1: camera point vs R(alpha) (x, y) + (dx, dy), normalised."""
    want_xc = x * ca + y * sa + cal.dx
    want_yc = -x * sa + y * ca + cal.dy
    denom = max(1.0, abs(x) + abs(y) + max(cal.dx, cal.dy))
    return max(abs(xc - want_xc), abs(yc - want_yc)) / denom


def image_violation(x, y, u, v, cal, ca, sa) -> float:
    """THM3: image point vs the raw affine form, normalised per component."""
    want_u = cal.fx * ca * x + cal.fx * sa * y + cal.fx * cal.dx
    want_v = -cal.fy * sa * x + cal.fy * ca * y + cal.fy * cal.dy
    denom_u = max(1.0, cal.fx * (abs(x) + abs(y) + cal.dx))
    denom_v = max(1.0, cal.fy * (abs(x) + abs(y) + cal.dy))
    return max(abs(u - want_u) / denom_u, abs(v - want_v) / denom_v)


def round_trip_violation(x, y, bx, by, cal, ca, sa) -> float:
    """FRAMES_ROUND_TRIP: recovered stage point vs the original, normalised."""
    t11, t12, t21, t22 = cal.fx * ca, cal.fx * sa, -cal.fy * sa, cal.fy * ca
    det = t11 * t22 - t12 * t21
    t_norm = max(abs(t11) + abs(t12), abs(t21) + abs(t22))
    inv_norm = max(abs(t22) + abs(t12), abs(t21) + abs(t11)) / abs(det)
    p_norm = max(abs(x), abs(y))
    offset = max(abs(cal.fx * cal.dx), abs(cal.fy * cal.dy))
    denom = max(1.0, p_norm, inv_norm * (t_norm * p_norm + offset))
    return max(abs(bx - x), abs(by - y)) / denom


def servo_failures(coords, results, calibrations) -> int:
    """Points whose image, round trip or camera output misses its tolerance.

    coords holds (x, y) per point, results (u, v, back_x, back_y, xc, yc).
    """
    trig = [(math.cos(c.alpha), math.sin(c.alpha)) for c in calibrations]
    bad = 0
    for i in range(len(coords) // 2):
        k = i % len(calibrations)
        cal = calibrations[k]
        ca, sa = trig[k]
        x, y = coords[2 * i], coords[2 * i + 1]
        u, v, bx, by, xc, yc = results[6 * i : 6 * i + 6]
        if not (
            image_violation(x, y, u, v, cal, ca, sa) <= FRAMES_TOL
            and round_trip_violation(x, y, bx, by, cal, ca, sa) <= FRAMES_TOL
            and camera_violation(bx, by, xc, yc, cal, ca, sa) <= FRAMES_TOL
        ):
            bad += 1
    return bad


def trajectory_problems(data: bytes, config) -> list[str]:
    """Problems with a `cellstage simulate` CSV for `config` (empty if none).

    config is a cellstage ScenarioConfig with init.t == 0. Checks the
    header, the row count floor(t_end/dt) + 1, t = i*dt, the camera and
    image columns against the raw forms of the row's own x, y, and the final
    state against analytic_constant_input_solution.
    """
    from cellstage.dynamics import analytic_constant_input_solution

    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        return [f"output is not ASCII: {exc}"]
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    if lines[0] != CSV_HEADER:
        return [f"header {lines[0]!r}"]
    rows = lines[1:-1]
    dt = config.dt
    expected = math.floor(config.t_end / dt) + 1
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    cal = config.calibration
    ca, sa = math.cos(cal.alpha), math.sin(cal.alpha)
    problems = []
    for i, line in enumerate(rows):
        try:
            t, x, y, xdot, ydot, xc, yc, u, v = map(float, line.split(","))
        except ValueError:
            problems.append(f"row {i}: malformed {line!r}")
            break
        if t != i * dt:
            problems.append(f"row {i}: t={t!r}, expected {i * dt!r}")
        if camera_violation(x, y, xc, yc, cal, ca, sa) > FRAMES_TOL:
            problems.append(f"row {i}: camera columns off")
        if image_violation(x, y, u, v, cal, ca, sa) > FRAMES_TOL:
            problems.append(f"row {i}: image columns off")
        if len(problems) >= 5:
            return problems
    if problems:
        return problems
    exact = analytic_constant_input_solution(config.masses, config.initial, config.wrench, t)
    error = max(
        abs(x - exact.x), abs(y - exact.y), abs(xdot - exact.xdot), abs(ydot - exact.ydot)
    )
    if not error <= INTEGRATOR_TOL:
        problems.append(f"final state off the closed form by {error!r}")
    return problems


def verify_report_problems(text: str, samples: int, seed: int) -> list[str]:
    """Problems with a `cellstage verify` report (empty if none).

    Expects one `id status samples max_violation tolerance seed` line per
    property in registry order, every one `pass` with max_violation <=
    tolerance, and no counterexample lines.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        return ["report does not end with a newline"]
    lines = lines[:-1]
    if len(lines) != len(PROPERTY_ORDER):
        return [f"{len(lines)} report lines, expected {len(PROPERTY_ORDER)}"]
    problems = []
    for property_id, line in zip(PROPERTY_ORDER, lines):
        fields = line.split(" ")
        try:
            within = float(fields[3]) <= float(fields[4])
        except (IndexError, ValueError):
            within = False
        if (
            len(fields) != 6
            or fields[0] != property_id
            or fields[1] != "pass"
            or fields[2] != str(samples)
            or fields[5] != str(seed)
            or not within
        ):
            problems.append(f"bad report line {line!r}")
    return problems
