"""Acceptance gate: every criterion the deliverable must meet, at its stated
tolerance, printing one pass/fail line per criterion (run with -s to watch).
"""

import math
import time

import pytest

from cellstage import propcheck
from cellstage.dynamics import (
    MassParams,
    StageState,
    ZERO_WRENCH,
    analytic_homogeneous_solution,
    dynamics_residual,
    homogeneous_residual_maxnorm,
    image_dynamics_residual,
    simulate,
)
from cellstage.errors import DomainError, SingularError
from cellstage.frames import (
    Calibration,
    camera_to_image,
    displacement_vector,
    display_resolution_matrix,
    stage_to_camera,
    stage_to_image,
    transformation_matrix,
)
from cellstage.linalg2 import Mat2, Vec2, determinant, inverse2, mat_mul
from cellstage.propcheck import check_theorem
from cellstage._rng import property_stream

from conftest import DATA_DIR, REFERENCE_CONFIG, run_cli, start_cli


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c1_c2_composition_and_affine_form():
    """Stage-to-image equals the camera composition and the affine form over
    10,000 seeded draws, each within 1e-12 relative, in under a second."""
    rng = property_stream(42, "ACCEPTANCE_THM3")
    worst_composition = 0.0
    worst_affine = 0.0
    start = time.perf_counter()
    for _ in range(10_000):
        c = propcheck.sample_calibration(rng)
        p = propcheck.sample_stage_point(rng)
        direct = stage_to_image(p, c)
        composed = camera_to_image(stage_to_camera(p, c), c)
        ca = math.cos(c.alpha)
        sa = math.sin(c.alpha)
        affine_u = c.fx * ca * p.x + c.fx * sa * p.y + c.fx * c.dx
        affine_v = -c.fy * sa * p.x + c.fy * ca * p.y + c.fy * c.dy
        denom_u = max(1.0, c.fx * (abs(p.x) + abs(p.y) + c.dx))
        denom_v = max(1.0, c.fy * (abs(p.x) + abs(p.y) + c.dy))
        worst_composition = max(
            worst_composition,
            abs(direct.u - composed.u) / denom_u,
            abs(direct.v - composed.v) / denom_v,
        )
        worst_affine = max(
            worst_affine,
            abs(direct.u - affine_u) / denom_u,
            abs(direct.v - affine_v) / denom_v,
        )
    elapsed = time.perf_counter() - start
    _report(
        "C1 composition-of-frames",
        worst_composition <= 1e-12 and elapsed < 1.0,
        f"max deviation {worst_composition:.3e} (tol 1e-12), {elapsed:.2f}s over 10000 draws",
    )
    _report(
        "C2 affine-form",
        worst_affine <= 1e-12,
        f"max deviation {worst_affine:.3e} (tol 1e-12)",
    )


def test_c3_closed_form_residual_grid():
    """Zero-input closed form satisfies the dynamics to 1e-9 on a
    10,001-point grid over [0, 10] for 100 random configurations, < 5 s."""
    rng = property_stream(42, "ACCEPTANCE_THM4")
    worst = 0.0
    start = time.perf_counter()
    for _ in range(100):
        m = propcheck.sample_masses(rng)
        init = propcheck.sample_initial_state(rng)
        worst = max(worst, homogeneous_residual_maxnorm(m, init, 10.0, 10_001))
    elapsed = time.perf_counter() - start
    _report(
        "C3 closed-form-residual",
        worst <= 1e-9 and elapsed < 5.0,
        f"max residual {worst:.3e} (tol 1e-9), {elapsed:.2f}s over 100x10001 points",
    )


def test_c4_integrator_accuracy_and_order():
    """RK4 at dt=1e-3 over [0, 10] tracks the closed form to 1e-6, and each
    halving of dt over {4e-3, 2e-3, 1e-3} cuts the max error at least 12x."""
    m = MassParams(0.5, 0.3, 0.2)
    init = StageState(0.0, 0.0, 0.0, 1.0, -0.5)

    def max_error(masses, initial, dt, t_end):
        traj = simulate(masses, initial, ZERO_WRENCH, dt, t_end)
        worst = 0.0
        for s in traj:
            e = analytic_homogeneous_solution(masses, initial, s.t)
            worst = max(
                worst,
                abs(s.x - e.x),
                abs(s.y - e.y),
                abs(s.xdot - e.xdot),
                abs(s.ydot - e.ydot),
            )
        return worst

    err = max_error(m, init, 1e-3, 10.0)
    _report(
        "C4a integrator-vs-closed-form",
        err <= 1e-6,
        f"max error {err:.3e} at dt=1e-3 over [0, 10] (tol 1e-6)",
    )

    # Stiffer masses keep the truncation error far above round-off so the
    # convergence ratio is resolvable.
    m_order = MassParams(0.02, 0.02, 0.01)
    init_order = StageState(0.0, 0.1, -0.2, 1.0, -1.0)
    errors = {dt: max_error(m_order, init_order, dt, 2.0) for dt in (4e-3, 2e-3, 1e-3)}
    r1 = errors[4e-3] / errors[2e-3]
    r2 = errors[2e-3] / errors[1e-3]
    _report(
        "C4b fourth-order-convergence",
        r1 >= 12.0 and r2 >= 12.0,
        f"halving ratios {r1:.1f}x, {r2:.1f}x (need >= 12x)",
    )


def test_c5_image_space_dynamics():
    """Image-space residual of transformed zero-residual states stays within
    1e-9*(1+|w|inf) over 1000 tuples; with the identity calibration it
    matches the stage residual to 1e-15."""
    report = check_theorem("THM5_IMAGE_DYNAMICS", samples=1000, seed=42)
    _report(
        "C5a image-dynamics-residual",
        report.passed,
        f"max wrench-relative residual {report.max_violation:.3e} (tol 1e-9)",
    )

    identity_cal = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
    rng = property_stream(42, "ACCEPTANCE_THM5_IDENTITY")
    worst = 0.0
    for _ in range(1000):
        m = propcheck.sample_masses(rng)
        accel = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        vel = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
        w = propcheck.sample_wrench(rng)
        img = image_dynamics_residual(m, identity_cal, accel, vel, w)
        stage = dynamics_residual(m, accel, vel, w)
        worst = max(worst, (img - stage).inf_norm())
    _report(
        "C5b identity-calibration-collapse",
        worst <= 1e-15,
        f"max |image - stage| residual gap {worst:.3e} (tol 1e-15)",
    )


def test_c6_inverse_identities():
    """T T^-1 = I within 1e-12 for fx, fy in [0.1, 100]; det T = fx*fy within
    1e-12 relative; image->stage round trip within 1e-12."""
    rng = property_stream(42, "ACCEPTANCE_INVERSE")
    worst_inv = 0.0
    worst_det = 0.0
    for _ in range(10_000):
        c = propcheck.sample_calibration(rng)
        t_mat = transformation_matrix(c)
        prod = mat_mul(t_mat, inverse2(t_mat))
        worst_inv = max(
            worst_inv,
            abs(prod.a11 - 1.0),
            abs(prod.a12),
            abs(prod.a21),
            abs(prod.a22 - 1.0),
        )
        worst_det = max(
            worst_det, abs(determinant(t_mat) - c.fx * c.fy) / (c.fx * c.fy)
        )
    _report(
        "C6a transform-inverse-identity",
        worst_inv <= 1e-12,
        f"max |T T^-1 - I| {worst_inv:.3e} (tol 1e-12)",
    )
    _report(
        "C6b determinant-scale",
        worst_det <= 1e-12,
        f"max relative det deviation {worst_det:.3e} (tol 1e-12)",
    )
    round_trip = check_theorem("FRAMES_ROUND_TRIP", samples=10_000, seed=42)
    _report(
        "C6c image-stage-round-trip",
        round_trip.passed,
        f"max normalized deviation {round_trip.max_violation:.3e} (tol 1e-12)",
    )


def test_c7_finite_difference_consistency():
    """Central difference (h = 1e-4) of the analytic position matches the
    analytic velocity within 5e-7 at 100 random (config, t) points."""
    report = check_theorem("THM4_DERIVATIVE_FD", samples=100, seed=42)
    _report(
        "C7 derivative-consistency",
        report.passed,
        f"max |fd - velocity| {report.max_violation:.3e} (tol 5e-7)",
    )


def test_c8_determinism():
    """verify --seed 42 twice gives byte-identical reports, equal to the
    committed seed-42 fixture; simulate on the reference config reproduces
    the committed fixture byte-for-byte."""
    # Both children run at once, so the test waits for one verify, not two.
    children = [start_cli("verify", "--seed", "42") for _ in range(2)]
    (first, _), (second, _) = [child.communicate() for child in children]
    golden = (DATA_DIR / "verify_seed42_samples1000.txt").read_text()
    verify_ok = (
        all(child.returncode == 0 for child in children)
        and first == second
        and first == golden
        and len(first.splitlines()) == len(propcheck.PROPERTIES)
    )
    _report(
        "C8a verify-determinism",
        verify_ok,
        f"two runs, {len(first.splitlines())} report lines, byte-identical={first == second}, matches fixture={first == golden}",
    )


def test_c8b_golden_simulation(tmp_path):
    out = tmp_path / "golden.csv"
    result = run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out))
    fixture = (DATA_DIR / "reference_trajectory.csv").read_bytes()
    ok = result.returncode == 0 and out.read_bytes() == fixture
    _report(
        "C8b golden-trajectory",
        ok,
        f"{len(fixture)} fixture bytes reproduced exactly",
    )


def test_c9_error_paths(tmp_path):
    """Non-positive masses/resolutions/displacements raise the documented
    typed errors; the CLI exits 2 on them; the singular guard fires below
    |det| = 1e-12."""
    failures = []

    for label, call in [
        ("mass zero", lambda: MassParams(0.0, 1.0, 1.0)),
        ("mass negative", lambda: MassParams(1.0, -1.0, 1.0)),
        ("resolution zero", lambda: display_resolution_matrix(2.0, 0.0)),
        ("displacement zero", lambda: displacement_vector(0.0, 1.0)),
        ("calibration fx", lambda: Calibration(0.0, 1.0, 1.0, 0.0, 1.0)),
        ("calibration dy", lambda: Calibration(0.0, 1.0, -2.0, 1.0, 1.0)),
    ]:
        with pytest.raises(DomainError):
            call()

    for label, mat in [
        ("rank-1", Mat2(1.0, 2.0, 2.0, 4.0)),
        ("tiny det", Mat2(1.0, 0.0, 0.0, 9.9e-13)),
    ]:
        with pytest.raises(SingularError):
            inverse2(mat)
    inverse2(Mat2(1.0, 0.0, 0.0, 1.1e-12))  # just above the guard: fine

    base = REFERENCE_CONFIG.read_text()
    for label, bad_text in [
        ("fx = 0", base.replace("fx = 2.0", "fx = 0.0")),
        ("mx < 0", base.replace("mx = 0.5", "mx = -0.5")),
        ("dy = 0", base.replace("dy = 0.5", "dy = 0.0")),
    ]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(bad_text)
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv"))
        if result.returncode != 2:
            failures.append(f"{label} exited {result.returncode}")

    _report(
        "C9 error-paths",
        not failures,
        "typed errors, exit codes, and singular guard all as documented"
        if not failures
        else "; ".join(failures),
    )
