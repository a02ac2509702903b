import math
from dataclasses import astuple

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellstage import cli, frames
from cellstage.errors import DomainError, SingularError
from cellstage.frames import (
    Calibration,
    CameraPoint,
    ImagePoint,
    StagePoint,
    camera_to_image,
    display_resolution_matrix,
    displacement_vector,
    image_to_stage,
    rotation_matrix,
    stage_to_camera,
    stage_to_camera_columns,
    stage_to_image,
    stage_to_image_columns,
    transformation_matrix,
)
from cellstage.linalg2 import IDENTITY, Mat2, Vec2, determinant, inverse2, mat_mul
from cellstage._rng import SplitMix64
from cellstage.propcheck import sample_calibration, sample_stage_point
from conftest import REFERENCE_CONFIG, degenerate_calibration

mpmath.mp.dps = 50

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
scales = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)
offsets = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)

calibrations = st.builds(Calibration, alpha=angles, dx=offsets, dy=offsets, fx=scales, fy=scales)

#: Each point map with a point of its input frame.
POINT_MAPS = (
    (stage_to_camera, StagePoint(1.0, 2.0)),
    (stage_to_image, StagePoint(1.0, 2.0)),
    (camera_to_image, CameraPoint(1.0, 2.0)),
    (image_to_stage, ImagePoint(1.0, 2.0)),
)


class TestCalibration:
    @pytest.mark.parametrize("field", ["dx", "dy", "fx", "fy"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_scales(self, field, bad):
        kwargs = dict(alpha=0.1, dx=1.0, dy=2.0, fx=1.5, fy=2.5)
        kwargs[field] = bad
        with pytest.raises(DomainError, match=field):
            Calibration(**kwargs)

    def test_rejects_non_finite_angle(self):
        with pytest.raises(DomainError):
            Calibration(alpha=math.inf, dx=1.0, dy=1.0, fx=1.0, fy=1.0)

    def test_point_types_are_distinct(self):
        assert StagePoint(1.0, 2.0) != CameraPoint(1.0, 2.0)
        assert CameraPoint(1.0, 2.0) != ImagePoint(1.0, 2.0)


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        assert rotation_matrix(0.0) == IDENTITY

    def test_quarter_turn(self):
        r = rotation_matrix(math.pi / 2)
        expected = Mat2(0.0, 1.0, -1.0, 0.0)
        assert max(abs(a - b) for a, b in zip(r, expected)) <= 1e-15

    def test_pi_over_six_against_high_precision(self):
        alpha = math.pi / 6
        r = rotation_matrix(alpha)
        cos_hp = float(mpmath.cos(mpmath.mpf(alpha)))
        sin_hp = float(mpmath.sin(mpmath.mpf(alpha)))
        assert abs(r.a11 - cos_hp) <= 1e-15
        assert abs(r.a12 - sin_hp) <= 1e-15
        assert abs(r.a21 + sin_hp) <= 1e-15
        assert abs(r.a22 - cos_hp) <= 1e-15
        # the coarse documented values
        assert r.a11 == pytest.approx(0.8660254, abs=1e-7)
        assert r.a12 == pytest.approx(0.5, abs=1e-7)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            rotation_matrix(math.nan)

    @given(angles)
    def test_inverse_rotation(self, alpha):
        prod = mat_mul(rotation_matrix(alpha), rotation_matrix(-alpha))
        assert max(abs(a - b) for a, b in zip(prod, IDENTITY)) <= 1e-12


class TestDisplacementVector:
    def test_basic(self):
        assert displacement_vector(1.0, 2.0) == Vec2(1.0, 2.0)
        assert displacement_vector(0.5, 0.5) == Vec2(0.5, 0.5)

    def test_rejects_zero_component(self):
        with pytest.raises(DomainError):
            displacement_vector(0.0, 1.0)


class TestDisplayResolutionMatrix:
    def test_unit_scales_give_identity(self):
        assert display_resolution_matrix(1.0, 1.0) == IDENTITY

    def test_diagonal(self):
        assert display_resolution_matrix(2.0, 3.0) == Mat2(2.0, 0.0, 0.0, 3.0)

    def test_rejects_zero_scale(self):
        with pytest.raises(DomainError):
            display_resolution_matrix(2.0, 0.0)


class TestTransformationMatrix:
    def test_identity_calibration(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        assert transformation_matrix(c) == IDENTITY

    def test_zero_angle_reduces_to_resolution(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=3.0)
        assert transformation_matrix(c) == Mat2(2.0, 0.0, 0.0, 3.0)

    @given(calibrations)
    def test_factorization(self, c):
        direct = transformation_matrix(c)
        factored = mat_mul(
            display_resolution_matrix(c.fx, c.fy), rotation_matrix(c.alpha)
        )
        dev = max(abs(a - b) for a, b in zip(direct, factored))
        assert dev <= 1e-12 * max(1.0, c.fx, c.fy)

    @given(calibrations)
    def test_determinant_is_scale_product(self, c):
        det = determinant(transformation_matrix(c))
        assert abs(det - c.fx * c.fy) <= 1e-12 * c.fx * c.fy


class TestStageToCamera:
    def test_pure_translation(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=2.0, fx=1.0, fy=1.0)
        got = stage_to_camera(StagePoint(3.0, 4.0), c)
        assert (got.xc, got.yc) == (4.0, 6.0)

    def test_quarter_turn(self):
        c = Calibration(alpha=math.pi / 2, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        got = stage_to_camera(StagePoint(1.0, 0.0), c)
        assert got.xc == pytest.approx(1.0, abs=1e-12)
        assert got.yc == pytest.approx(0.0, abs=1e-12)

    def test_pi_over_six_against_high_precision(self):
        alpha = math.pi / 6
        c = Calibration(alpha=alpha, dx=0.5, dy=0.5, fx=1.0, fy=1.0)
        got = stage_to_camera(StagePoint(1.0, 0.0), c)
        want_xc = float(mpmath.cos(mpmath.mpf(alpha)) + mpmath.mpf("0.5"))
        want_yc = float(-mpmath.sin(mpmath.mpf(alpha)) + mpmath.mpf("0.5"))
        assert abs(got.xc - want_xc) <= 1e-15
        assert abs(got.yc - want_yc) <= 1e-15
        assert got.xc == pytest.approx(1.3660254, abs=1e-7)
        assert got.yc == pytest.approx(0.0, abs=1e-7)

    @given(calibrations, st.builds(StagePoint, coords, coords))
    def test_matches_componentwise_relation(self, c, p):
        got = stage_to_camera(p, c)
        want_xc = p.x * math.cos(c.alpha) + p.y * math.sin(c.alpha) + c.dx
        want_yc = -p.x * math.sin(c.alpha) + p.y * math.cos(c.alpha) + c.dy
        scale = max(1.0, abs(p.x) + abs(p.y) + max(c.dx, c.dy))
        assert abs(got.xc - want_xc) <= 1e-12 * scale
        assert abs(got.yc - want_yc) <= 1e-12 * scale


class TestCameraToImage:
    def test_unit_resolution(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        got = camera_to_image(CameraPoint(3.0, 4.0), c)
        assert (got.u, got.v) == (3.0, 4.0)

    def test_componentwise_scaling(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=3.0)
        got = camera_to_image(CameraPoint(1.0, 1.0), c)
        assert (got.u, got.v) == (2.0, 3.0)

    def test_negative_coordinates(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.5, fy=0.5)
        got = camera_to_image(CameraPoint(-2.0, 4.0), c)
        assert (got.u, got.v) == (-3.0, 2.0)


class TestStageToImage:
    def test_reduces_to_translation_case(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=2.0, fx=1.0, fy=1.0)
        got = stage_to_image(StagePoint(3.0, 4.0), c)
        assert (got.u, got.v) == (4.0, 6.0)

    def test_scaled_translation_cross_checked_by_composition(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=3.0)
        p = StagePoint(1.0, 1.0)
        got = stage_to_image(p, c)
        assert (got.u, got.v) == (4.0, 6.0)
        via_camera = camera_to_image(stage_to_camera(p, c), c)
        assert (got.u, got.v) == (via_camera.u, via_camera.v)

    def test_composition_over_seeded_draws(self):
        rng = SplitMix64(2024)
        for _ in range(1000):
            c = sample_calibration(rng)
            p = sample_stage_point(rng)
            direct = stage_to_image(p, c)
            composed = camera_to_image(stage_to_camera(p, c), c)
            scale_u = max(1.0, c.fx * (abs(p.x) + abs(p.y) + c.dx))
            scale_v = max(1.0, c.fy * (abs(p.x) + abs(p.y) + c.dy))
            assert abs(direct.u - composed.u) <= 1e-12 * scale_u
            assert abs(direct.v - composed.v) <= 1e-12 * scale_v


class TestImageToStage:
    def test_inverse_of_translation_example(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=2.0, fx=1.0, fy=1.0)
        got = image_to_stage(ImagePoint(4.0, 6.0), c)
        assert got.x == pytest.approx(3.0, abs=1e-12)
        assert got.y == pytest.approx(4.0, abs=1e-12)

    @given(calibrations, st.builds(StagePoint, coords, coords))
    def test_round_trip(self, c, p):
        back = image_to_stage(stage_to_image(p, c), c)
        cond = max(c.fx, c.fy) / min(c.fx, c.fy)
        scale = max(1.0, p.vec().inf_norm(), cond * (p.vec().inf_norm() + max(c.dx, c.dy)))
        assert abs(back.x - p.x) <= 1e-12 * scale
        assert abs(back.y - p.y) <= 1e-12 * scale

    def test_singular_guard_fires_on_degenerate_calibration(self):
        bad = degenerate_calibration()
        with pytest.raises(SingularError):
            image_to_stage(ImagePoint(1.0, 1.0), bad)


class TestColumnTransforms:
    def test_bit_equal_to_literal_affine_forms(self):
        rng = SplitMix64(2024)
        image_bits, stage_bits = set(), set()
        for _ in range(20):
            c = sample_calibration(rng)
            xs = [rng.uniform(-1e3, 1e3) for _ in range(50)] + [-0.0, 0.0, -0.0]
            ys = [rng.uniform(-1e3, 1e3) for _ in range(50)] + [-0.0, -0.0, 0.0]
            ca = math.cos(c.alpha)
            sa = math.sin(c.alpha)
            fx, fy, dx, dy = c.fx, c.fy, c.dx, c.dy
            want_xc = [(ca * x + sa * y) + dx for x, y in zip(xs, ys)]
            want_yc = [(-sa * x + ca * y) + dy for x, y in zip(xs, ys)]
            want_u = [(fx * ca * x + fx * sa * y) + fx * dx for x, y in zip(xs, ys)]
            want_v = [(-fy * sa * x + fy * ca * y) + fy * dy for x, y in zip(xs, ys)]
            xc, yc = stage_to_camera_columns(xs, ys, c)
            u, v = stage_to_image_columns(xs, ys, c)
            assert [a.hex() for a in xc] == [a.hex() for a in want_xc]
            assert [a.hex() for a in yc] == [a.hex() for a in want_yc]
            assert [a.hex() for a in u] == [a.hex() for a in want_u]
            assert [a.hex() for a in v] == [a.hex() for a in want_v]
            # Each row of the column maps is the point map of that row.
            for i in (0, len(xs) - 2, len(xs) - 1):
                cam = stage_to_camera(StagePoint(xs[i], ys[i]), c)
                img = stage_to_image(StagePoint(xs[i], ys[i]), c)
                assert (cam.xc.hex(), cam.yc.hex()) == (xc[i].hex(), yc[i].hex())
                assert (img.u.hex(), img.v.hex()) == (u[i].hex(), v[i].hex())
            # camera_to_image and image_to_stage are one `_affine` call each
            # with a -0.0 offset, so they keep the bare products' signed zeros;
            # (fx*dx, fy*dy) maps to zeros signed like the entries of T^-1.
            inv = inverse2(transformation_matrix(c))
            for a, b in zip(xs + [fx * dx], ys + [fy * dy]):
                img = camera_to_image(CameraPoint(a, b), c)
                back = image_to_stage(ImagePoint(a, b), c)
                want_img = (fx * a + 0.0 * b, 0.0 * a + fy * b)
                want_back = (
                    inv.a11 * (a - fx * dx) + inv.a12 * (b - fy * dy),
                    inv.a21 * (a - fx * dx) + inv.a22 * (b - fy * dy),
                )
                assert (img.u.hex(), img.v.hex()) == tuple(w.hex() for w in want_img)
                assert (back.x.hex(), back.y.hex()) == tuple(w.hex() for w in want_back)
                image_bits.update((img.u.hex(), img.v.hex()))
                stage_bits.update((back.x.hex(), back.y.hex()))
        # Both maps met a -0.0, which a +0.0 offset would turn into +0.0.
        assert (-0.0).hex() in image_bits
        assert (-0.0).hex() in stage_bits

    def test_overflowing_point_maps_name_their_row_column(self):
        # The point types are the point maps' only check.
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=0.1, fy=1e10)
        with pytest.raises(DomainError, match=r"^v must be finite, got inf$"):
            camera_to_image(CameraPoint(0.0, 1e300), c)
        with pytest.raises(DomainError, match=r"^x must be finite, got -inf$"):
            image_to_stage(ImagePoint(-1.7e308, 0.0), c)
        # At 45 degrees u is fx*cos*x + fx*sin*y, here inf - inf.
        diagonal = Calibration(alpha=math.pi / 4, dx=1.0, dy=1.0, fx=1e300, fy=1.0)
        with pytest.raises(DomainError, match=r"^u must be finite, got nan$"):
            stage_to_image(StagePoint(1e9, -1e9), diagonal)
        with pytest.raises(DomainError, match=r"^xc must be finite, got inf$"):
            stage_to_camera(StagePoint(1.7e308, 1.7e308), diagonal)

    def test_column_maps_are_unchecked(self):
        # An overflowing row leaves inf or nan in its place and raises
        # nothing; the rows around it keep their point maps' bits.
        c = Calibration(alpha=math.pi / 4, dx=1.0, dy=1.0, fx=1e300, fy=1.0)
        xc, yc = stage_to_camera_columns([0.5, 1.7e308, -2.0], [0.25, 1.7e308, 3.0], c)
        u, v = stage_to_image_columns([0.5, 1e9, -2.0], [0.25, -1e9, 3.0], c)
        assert math.isinf(xc[1]) and math.isfinite(yc[1])
        assert math.isnan(u[1]) and math.isfinite(v[1])
        for i, (x, y) in ((0, (0.5, 0.25)), (2, (-2.0, 3.0))):
            cam = stage_to_camera(StagePoint(x, y), c)
            img = stage_to_image(StagePoint(x, y), c)
            assert (xc[i].hex(), yc[i].hex()) == (cam.xc.hex(), cam.yc.hex())
            assert (u[i].hex(), v[i].hex()) == (img.u.hex(), img.v.hex())


class TestCoefficientCache:
    """Each map's coefficients are derived once per Calibration, on first use."""

    def test_builders_run_at_most_once_per_map(self, monkeypatch):
        counts = {}

        def counting(name, fn):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)

            monkeypatch.setattr(frames, name, wrapper)

        for name in (
            "rotation_matrix",
            "displacement_vector",
            "display_resolution_matrix",
            "transformation_matrix",
            "inverse2",
        ):
            counting(name, getattr(frames, name))
        c = Calibration(alpha=0.7, dx=1.5, dy=2.5, fx=3.0, fy=4.0)
        for i in range(1000):
            img = stage_to_image(StagePoint(0.5 * i, -0.25 * i), c)
            cam = stage_to_camera(image_to_stage(img, c), c)
            camera_to_image(cam, c)
        stage_to_camera_columns([1.0], [2.0], c)
        stage_to_image_columns([1.0], [2.0], c)
        # transformation_matrix builds two maps: stage->image and its inverse.
        assert counts == {
            "rotation_matrix": 1,
            "displacement_vector": 1,
            "display_resolution_matrix": 1,
            "transformation_matrix": 2,
            "inverse2": 1,
        }

    def test_cache_is_invisible_to_eq_hash_repr(self):
        fields = dict(alpha=0.3, dx=1.0, dy=2.0, fx=1.5, fy=2.5)
        used, fresh = Calibration(**fields), Calibration(**fields)
        for fn, p in POINT_MAPS:
            fn(p, used)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert repr(used) == "Calibration(alpha=0.3, dx=1.0, dy=2.0, fx=1.5, fy=2.5)"

    def test_degenerate_calibration_raises_on_every_call(self):
        bad = degenerate_calibration()
        for _ in range(3):
            with pytest.raises(SingularError):
                image_to_stage(ImagePoint(1.0, 1.0), bad)
            with pytest.raises(DomainError, match=r"^fx must be positive, got 0\.0$"):
                camera_to_image(CameraPoint(1.0, 1.0), bad)
        # Maps that need neither builder still work on it.
        assert stage_to_camera(StagePoint(1.0, 2.0), bad) == CameraPoint(2.0, 3.0)

    def test_point_maps_bit_equal_to_literal_affine_forms(self):
        rng = SplitMix64(9)
        for _ in range(200):
            c = sample_calibration(rng)
            ca = math.cos(c.alpha)
            sa = math.sin(c.alpha)
            fx, fy, dx, dy = c.fx, c.fy, c.dx, c.dy
            t11, t12, t21, t22 = fx * ca, fx * sa, -fy * sa, fy * ca
            det = t11 * t22 - t12 * t21
            i11, i12, i21, i22 = t22 / det, -t12 / det, -t21 / det, t11 / det
            points = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(5)]
            for x, y in points + [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]:
                want = {
                    "stage_to_camera": ((ca * x + sa * y) + dx, (-sa * x + ca * y) + dy),
                    "stage_to_image": ((t11 * x + t12 * y) + fx * dx, (t21 * x + t22 * y) + fy * dy),
                    "camera_to_image": ((fx * x + 0.0 * y) + -0.0, (0.0 * x + fy * y) + -0.0),
                    "image_to_stage": (
                        (i11 * (x - fx * dx) + i12 * (y - fy * dy)) + -0.0,
                        (i21 * (x - fx * dx) + i22 * (y - fy * dy)) + -0.0,
                    ),
                }
                got = {
                    "stage_to_camera": astuple(stage_to_camera(StagePoint(x, y), c)),
                    "stage_to_image": astuple(stage_to_image(StagePoint(x, y), c)),
                    "camera_to_image": astuple(camera_to_image(CameraPoint(x, y), c)),
                    "image_to_stage": astuple(image_to_stage(ImagePoint(x, y), c)),
                }
                for name, pair in want.items():
                    assert [g.hex() for g in got[name]] == [w.hex() for w in pair], name


class TestOneCore:
    """Every frame map reaches its arithmetic through the one `_affine`."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = frames._affine

        def counting(a, x, y):
            calls.append((x, y))
            return original(a, x, y)

        monkeypatch.setattr(frames, "_affine", counting)
        return calls

    def test_each_point_map_calls_the_core_once(self, calls):
        c = Calibration(alpha=0.4, dx=1.0, dy=2.0, fx=3.0, fy=5.0)
        for fn, p in POINT_MAPS:
            calls.clear()
            fn(p, c)
            assert len(calls) == 1, fn.__name__

    def test_column_maps_call_the_core_once_per_row(self, calls):
        c = Calibration(alpha=0.4, dx=1.0, dy=2.0, fx=3.0, fy=5.0)
        xs, ys = [0.5 * i for i in range(7)], [-0.25 * i for i in range(7)]
        for fn in (stage_to_camera_columns, stage_to_image_columns):
            calls.clear()
            fn(xs, ys, c)
            assert calls == list(zip(xs, ys)), fn.__name__

    def test_transform_command_calls_the_core_twice(self, calls, capsys):
        argv = ["transform", "--config", str(REFERENCE_CONFIG), "--x", "1.25", "--y", "-3.5"]
        assert cli.main(argv) == 0
        assert calls == [(1.25, -3.5), (1.25, -3.5)]
        assert capsys.readouterr().out.startswith("camera ")


class TestColumnMapContract:
    """The column maps return two lists, each row bit-equal to its point map."""

    @pytest.mark.parametrize("fn", [stage_to_camera_columns, stage_to_image_columns])
    def test_empty_columns_give_two_empty_lists(self, fn):
        c = Calibration(alpha=0.4, dx=1.0, dy=2.0, fx=3.0, fy=5.0)
        result = fn([], [], c)
        assert type(result) is tuple
        assert result == ([], []) and all(type(col) is list for col in result)

    def test_every_row_bit_equal_to_its_point_map(self):
        rng = SplitMix64(1313)
        signed_zeros = [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)]
        for _ in range(200):
            c = sample_calibration(rng)
            rows = [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)) for _ in range(6)]
            rows += signed_zeros
            xs, ys = [x for x, _ in rows], [y for _, y in rows]
            cam = stage_to_camera_columns(xs, ys, c)
            img = stage_to_image_columns(xs, ys, c)
            for (x, y), xc, yc, u, v in zip(rows, *cam, *img):
                want_cam = stage_to_camera(StagePoint(x, y), c)
                want_img = stage_to_image(StagePoint(x, y), c)
                assert (xc.hex(), yc.hex()) == (want_cam.xc.hex(), want_cam.yc.hex())
                assert (u.hex(), v.hex()) == (want_img.u.hex(), want_img.v.hex())
