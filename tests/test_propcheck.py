import inspect
import math

import pytest

from cellstage import _backend, dynamics, frames, propcheck
from cellstage._rng import SplitMix64
from cellstage.errors import DomainError, UnknownPropertyError
from cellstage.linalg2 import Mat2
from cellstage.propcheck import (
    PROPERTIES,
    PropertyReport,
    check_theorem,
    format_report,
    run_all,
)

from conftest import DATA_DIR

# Small sample counts here; the full-scale runs live in the acceptance suite.
FAST = 50


class TestCheckTheorem:
    @pytest.mark.parametrize("property_id", list(PROPERTIES))
    def test_every_property_passes(self, property_id):
        report = check_theorem(property_id, samples=FAST, seed=42)
        assert report.passed, format_report(report)
        assert report.counterexample is None
        assert report.samples == FAST
        assert report.seed == 42

    def test_known_composition_margin(self):
        report = check_theorem("THM3_IMAGE_STAGE", samples=1000, seed=42)
        assert report.passed
        assert report.max_violation <= 1e-12

    def test_residual_property_margin(self):
        report = check_theorem("THM4_HOMOG_SOLUTION", samples=1000, seed=7)
        assert report.passed
        assert report.max_violation <= 1e-9

    def test_unknown_property(self):
        with pytest.raises(UnknownPropertyError):
            check_theorem("THM9_NOT_A_THING", samples=1)

    def test_samples_must_be_positive(self):
        with pytest.raises(DomainError):
            check_theorem("THM1_CAMERA_STAGE", samples=0)

    def test_single_sample_report_is_structurally_valid(self):
        report = check_theorem("THM1_CAMERA_STAGE", samples=1, seed=5)
        assert report.samples == 1
        assert report.status in ("pass", "fail")
        assert (report.status == "pass") == (report.max_violation <= report.tolerance)

    def test_deterministic_given_seed(self):
        a = check_theorem("THM5_IMAGE_DYNAMICS", samples=FAST, seed=3)
        b = check_theorem("THM5_IMAGE_DYNAMICS", samples=FAST, seed=3)
        assert a == b
        assert format_report(a) == format_report(b)

    def test_different_seeds_differ(self):
        a = check_theorem("THM5_IMAGE_DYNAMICS", samples=FAST, seed=3)
        b = check_theorem("THM5_IMAGE_DYNAMICS", samples=FAST, seed=4)
        assert a.max_violation != b.max_violation

    def test_tolerance_comes_from_registry(self, monkeypatch):
        _, draws, evaluator = PROPERTIES["THM3_IMAGE_STAGE"]
        monkeypatch.setitem(
            propcheck.PROPERTIES, "THM3_IMAGE_STAGE", (1e-30, draws, evaluator)
        )
        report = check_theorem("THM3_IMAGE_STAGE", samples=FAST, seed=42)
        assert report.tolerance == 1e-30
        assert report.status == "fail"
        assert report.counterexample is not None


class TestMutationSensitivity:
    def test_corrupted_rotation_sign_fails_thm1(self, monkeypatch):
        true_rotation = frames.rotation_matrix

        def flipped(alpha):
            r = true_rotation(alpha)
            return Mat2(r.a11, -r.a12, -r.a21, r.a22)

        monkeypatch.setattr(frames, "rotation_matrix", flipped)
        report = check_theorem("THM1_CAMERA_STAGE", samples=FAST, seed=42)
        assert report.status == "fail"
        keys = [k for k, _ in report.counterexample]
        assert keys[0] == "sample_index"
        assert {"alpha", "dx", "dy", "fx", "fy", "x", "y"} <= set(keys)

    def test_corrupted_solution_formula_fails_thm4(self, monkeypatch):
        true_columns = dynamics.homogeneous_columns

        def corrupted(m, init, times):
            x, y, xdot, ydot, xddot, yddot = true_columns(m, init, times)
            return x, y, [v * 1.001 for v in xdot], ydot, xddot, yddot

        monkeypatch.setattr(dynamics, "homogeneous_columns", corrupted)
        report = check_theorem("THM4_HOMOG_SOLUTION", samples=FAST, seed=7)
        assert report.status == "fail"
        assert report.max_violation > report.tolerance
        assert report.counterexample is not None

    def test_corrupted_velocity_fails_derivative_fd(self, monkeypatch):
        true_columns = dynamics.homogeneous_columns

        def corrupted(m, init, times):
            x, y, xdot, ydot, xddot, yddot = true_columns(m, init, times)
            return x, y, [v * 1.001 for v in xdot], ydot, xddot, yddot

        monkeypatch.setattr(dynamics, "homogeneous_columns", corrupted)
        report = check_theorem("THM4_DERIVATIVE_FD", samples=FAST, seed=42)
        assert report.status == "fail"
        assert report.max_violation > report.tolerance
        assert [k for k, _ in report.counterexample][-1] == "t"

    def test_corrupted_inverse_fails_round_trip(self, monkeypatch):
        from cellstage import linalg2

        true_inverse = linalg2.inverse2

        def skewed(m):
            inv = true_inverse(m)
            return Mat2(inv.a11 * (1 + 1e-6), inv.a12, inv.a21, inv.a22)

        monkeypatch.setattr(frames, "inverse2", skewed)
        report = check_theorem("FRAMES_ROUND_TRIP", samples=FAST, seed=42)
        assert report.status == "fail"

    def test_third_order_kernel_fails_integrator_order(self, monkeypatch):
        # Feeding k2 where RK4 takes k3 into the last stage drops the z^4/24
        # term of the step's growth factor on this linear ODE: halving dt
        # then cuts the error about 8x, not 16x.
        source = inspect.getsource(_backend._rk4_axis)
        mutant = source.replace("s4 = vel + dt * k3", "s4 = vel + dt * k2")
        assert mutant != source
        namespace = dict(vars(_backend))
        exec(mutant, namespace)
        monkeypatch.setattr(_backend, "_rk4_axis", namespace["_rk4_axis"])
        report = check_theorem("INTEGRATOR_ORDER", samples=40, seed=42)
        assert report.status == "fail"
        assert report.max_violation > report.tolerance


class TestRunAll:
    def test_all_green_and_ordered(self):
        reports = run_all(samples=10, seed=42)
        assert [r.property_id for r in reports] == list(PROPERTIES)
        assert all(r.passed for r in reports)

    def test_reproducible(self):
        a = run_all(samples=10, seed=42)
        b = run_all(samples=10, seed=42)
        assert a == b

    def test_order_independent_of_execution(self):
        # Streams are split per property: checking one id alone yields the
        # same report as checking it within the full run.
        alone = check_theorem("THM5_IMAGE_DYNAMICS", samples=10, seed=42)
        within = [
            r for r in run_all(samples=10, seed=42)
            if r.property_id == "THM5_IMAGE_DYNAMICS"
        ]
        assert alone == within[0]


class TestUnjudgedSamples:
    """A sample whose violation is NaN, or whose evaluator raises, fails."""

    @staticmethod
    def fake(at, outcome, others=0.0):
        """Evaluator giving violation `others` on every sample but sample `at`."""
        calls = []

        def evaluate(rng):
            index = len(calls)
            calls.append(index)
            draw = rng.uniform(0.0, 1.0)
            if index == at:
                return outcome(draw)
            return others, {"draw": draw}

        return evaluate, calls

    def test_nan_after_first_sample_fails(self, monkeypatch):
        evaluate, calls = self.fake(5, lambda draw: (math.nan, {"draw": draw}))
        monkeypatch.setitem(PROPERTIES, "FAKE_NAN", (1e-12, 1, evaluate))
        report = check_theorem("FAKE_NAN", samples=20, seed=42)
        assert report.status == "fail"
        assert math.isnan(report.max_violation)
        assert report.counterexample[0] == ("sample_index", 5)
        assert report.counterexample[1][0] == "draw"
        assert calls == list(range(6))
        assert format_report(report).startswith("FAKE_NAN fail 20 nan ")

    def test_nan_at_first_sample_fails(self, monkeypatch):
        evaluate, _ = self.fake(0, lambda draw: (math.nan, {"draw": draw}))
        monkeypatch.setitem(PROPERTIES, "FAKE_NAN", (1e-12, 1, evaluate))
        report = check_theorem("FAKE_NAN", samples=3, seed=42)
        assert report.status == "fail"
        assert report.counterexample[0] == ("sample_index", 0)

    def test_nan_after_a_larger_violation_still_fails(self, monkeypatch):
        evaluate, _ = self.fake(2, lambda draw: (math.nan, {}), others=1.0)
        monkeypatch.setitem(PROPERTIES, "FAKE_NAN", (10.0, 1, evaluate))
        report = check_theorem("FAKE_NAN", samples=5, seed=42)
        assert report.status == "fail"
        assert report.counterexample == (("sample_index", 2),)

    def test_evaluator_exception_fails(self, monkeypatch):
        def overflow(draw):
            raise OverflowError("math range error")

        evaluate, calls = self.fake(3, overflow)
        monkeypatch.setitem(PROPERTIES, "FAKE_RAISES", (1e-12, 1, evaluate))
        report = check_theorem("FAKE_RAISES", samples=10, seed=42)
        assert report.status == "fail"
        assert math.isnan(report.max_violation)
        assert report.counterexample == (("sample_index", 3), ("error", "OverflowError"))
        assert calls == list(range(4))
        assert format_report(report).endswith(
            "\ncounterexample sample_index=3 error=OverflowError"
        )


class TestDrawsPerSample:
    """The registry's draws per sample is what each evaluator takes: a
    worker starts sample i of a property that many draws times i in."""

    @pytest.mark.parametrize("property_id", list(PROPERTIES))
    def test_each_sample_takes_a_fixed_number_of_draws(self, property_id, monkeypatch):
        draws = 0
        next_u64 = SplitMix64.next_u64

        def counting(self):
            nonlocal draws
            draws += 1
            return next_u64(self)

        monkeypatch.setattr(SplitMix64, "next_u64", counting)
        tolerance, declared, evaluator = PROPERTIES[property_id]
        per_sample = []

        def counted(rng):
            before = draws
            result = evaluator(rng)
            per_sample.append(draws - before)
            return result

        monkeypatch.setitem(PROPERTIES, property_id, (tolerance, declared, counted))
        assert check_theorem(property_id, samples=30, seed=42).passed
        assert per_sample == [declared] * 30


class TestIntegratorOrderFloor:
    def test_a_draw_from_rest_counts_as_zero(self):
        # Every draw at the midpoint of its range: positions and velocities
        # 0.0, so RK4 and the closed form both stay at rest and the coarse
        # error is 0, below the round-off floor: no ratio can be resolved.
        class Midpoint(SplitMix64):
            def next_float(self):
                return 0.5

        violation, inputs = propcheck._check_integrator_order(Midpoint(0))
        mass = Midpoint(0).log_uniform(*propcheck._MASS)
        m = dynamics.MassParams(mass, mass, mass)
        init = dynamics.StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        dt = m.y_effective / 8.0
        error = propcheck._max_error_vs_analytic(m, init, dynamics.ZERO_WRENCH, dt, 64)
        assert error == 0.0
        assert violation == 0.0
        # Inputs in draw order: masses, initial, then dt.
        want = {
            **propcheck.key_values("masses", m),
            **propcheck.key_values("initial", init),
            "dt": dt,
        }
        assert list(inputs.items()) == list(want.items())


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(DomainError):
            check_theorem("THM1_CAMERA_STAGE", samples=1, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_64_bit_bounds(self, seed):
        assert check_theorem("THM1_CAMERA_STAGE", samples=1, seed=seed).passed


class TestReportFormat:
    def test_pass_line_fields(self):
        report = check_theorem("THM2_IMAGE_CAMERA", samples=FAST, seed=42)
        line = format_report(report)
        fields = line.split(" ")
        assert fields[0] == "THM2_IMAGE_CAMERA"
        assert fields[1] == "pass"
        assert fields[2] == str(FAST)
        assert float(fields[3]) == report.max_violation
        assert float(fields[4]) == 1e-12
        assert fields[5] == "42"
        assert "\n" not in line

    def test_fail_line_carries_counterexample_block(self):
        report = PropertyReport(
            property_id="THM1_CAMERA_STAGE",
            samples=3,
            max_violation=0.5,
            tolerance=1e-12,
            status="fail",
            seed=9,
            counterexample=(("sample_index", 2), ("alpha", 0.25)),
        )
        text = format_report(report)
        first, second = text.split("\n")
        # floats render in lossless 17-significant-digit form
        assert first == "THM1_CAMERA_STAGE fail 3 0.5 9.9999999999999998e-13 9"
        assert second == "counterexample sample_index=2 alpha=0.25"

    def test_every_counterexample_matches_golden_fixture(self, monkeypatch):
        # A tolerance of -1 fails every property, so each report carries its
        # worst sample's inputs: the fixture pins every input name, the
        # config key where one exists, and the order of the names.
        failing = {pid: (-1.0, draws, fn) for pid, (_, draws, fn) in PROPERTIES.items()}
        monkeypatch.setattr(propcheck, "PROPERTIES", failing)
        text = "".join(format_report(report) + "\n" for report in run_all(25, 7))
        assert text == (DATA_DIR / "counterexamples_seed7_samples25.txt").read_text()


class TestSampleDomain:
    def test_defaults_respect_invariants(self):
        assert propcheck._DISPLACEMENT_MAX > 0.0
        assert propcheck._RESOLUTION[0] > 0.0
        assert propcheck._MASS[0] > 0.0
        assert propcheck._ALPHA == (-math.pi, math.pi)

    def test_samplers_never_violate_type_invariants(self):
        from cellstage._rng import property_stream

        rng = property_stream(1, "sampler-smoke")
        for _ in range(500):
            propcheck.sample_calibration(rng)
            propcheck.sample_masses(rng)
            propcheck.sample_initial_state(rng)
            propcheck.sample_wrench(rng)
