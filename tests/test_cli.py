import math

import pytest

from cellstage import cli, frames, propcheck
from cellstage.dynamics import MAX_STEPS
from cellstage.frames import Calibration, StagePoint, stage_to_image
from cellstage.linalg2 import Mat2

from conftest import DATA_DIR, REFERENCE_CONFIG, run_cli

TRANSLATION_ONLY = """\
[masses]
mx = 0.5
my = 0.3
mp = 0.2
[calibration]
alpha = 0.0
dx = 1.0
dy = 2.0
fx = 1.0
fy = 1.0
[initial]
x0 = 0.0
y0 = 0.0
xd0 = 0.0
yd0 = 0.0
[wrench]
taux = 0.0
tauy = 0.0
fexd = 0.0
feyd = 0.0
[sim]
dt = 0.1
t_end = 1.0
"""


@pytest.fixture
def translation_config(tmp_path):
    path = tmp_path / "translation.cfg"
    path.write_text(TRANSLATION_ONLY)
    return path


class TestTransform:
    def test_pure_translation(self, translation_config):
        result = run_cli(
            "transform", "--config", str(translation_config), "--x", "3", "--y", "4"
        )
        assert result.returncode == 0
        assert result.stdout == "camera 4 6\nimage 4 6\n"

    def test_scaled(self, translation_config, tmp_path):
        scaled = tmp_path / "scaled.cfg"
        scaled.write_text(
            TRANSLATION_ONLY.replace("fx = 1.0", "fx = 2.0").replace(
                "fy = 1.0", "fy = 3.0"
            )
        )
        result = run_cli("transform", "--config", str(scaled), "--x", "3", "--y", "4")
        assert result.returncode == 0
        # same pose as above: camera (4, 6), image (fx*4, fy*6) = (8, 18)
        assert result.stdout == "camera 4 6\nimage 8 18\n"

    def test_matches_library_for_random_points(self, tmp_path):
        config_path = REFERENCE_CONFIG
        from cellstage.scenario import parse_config

        config = parse_config(config_path.read_bytes())
        for x, y in [(0.3, -0.7), (12.5, 99.0), (-3.25, 0.125)]:
            result = run_cli(
                "transform", "--config", str(config_path), "--x", repr(x), "--y", repr(y)
            )
            assert result.returncode == 0
            camera_line, image_line = result.stdout.splitlines()
            u, v = (float(s) for s in image_line.split()[1:])
            want = stage_to_image(StagePoint(x, y), config.calibration)
            assert abs(u - want.u) <= 1e-12 * max(1.0, abs(want.u))
            assert abs(v - want.v) <= 1e-12 * max(1.0, abs(want.v))

    def test_config_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TRANSLATION_ONLY.replace("fx = 1.0", "fx = 0.0"))
        result = run_cli("transform", "--config", str(bad), "--x", "0", "--y", "0")
        assert result.returncode == 2
        assert "fx must be positive" in result.stderr

    def test_missing_config_exits_2(self):
        result = run_cli("transform", "--config", "no_such.cfg", "--x", "0", "--y", "0")
        assert result.returncode == 2
        assert "error" in result.stderr


class TestSimulate:
    def test_rest_state_rows_identical(self, translation_config, tmp_path):
        out = tmp_path / "rest.csv"
        result = run_cli(
            "simulate", "--config", str(translation_config), "--out", str(out)
        )
        assert result.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,y,xdot,ydot,xc,yc,u,v"
        assert len(lines) == 1 + math.floor(1.0 / 0.1) + 1
        cells = [line.split(",") for line in lines[1:]]
        assert all(row[1:] == cells[0][1:] for row in cells)
        assert cells[0][1:3] == ["0", "0"]

    def test_golden_fixture_byte_identical(self, tmp_path):
        out = tmp_path / "reference.csv"
        result = run_cli(
            "simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out)
        )
        assert result.returncode == 0
        assert out.read_bytes() == (DATA_DIR / "reference_trajectory.csv").read_bytes()

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert (
                run_cli(
                    "simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out)
                ).returncode
                == 0
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_image_columns_are_rowwise_transforms(self, tmp_path):
        out = tmp_path / "reference.csv"
        run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out))
        from cellstage.scenario import parse_config

        config = parse_config(REFERENCE_CONFIG.read_bytes())
        for line in out.read_text().splitlines()[1:]:
            t, x, y, xdot, ydot, xc, yc, u, v = (float(s) for s in line.split(","))
            want = stage_to_image(StagePoint(x, y), config.calibration)
            scale = max(1.0, abs(want.u), abs(want.v))
            assert abs(u - want.u) <= 1e-12 * scale
            assert abs(v - want.v) <= 1e-12 * scale

    def test_final_position_near_analytic_asymptote(self, tmp_path):
        out = tmp_path / "reference.csv"
        run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out))
        final = out.read_text().splitlines()[-1].split(",")
        # x(2) = xd0 * Mx * (1 - exp(-2)) with Mx = 1
        assert abs(float(final[1]) - (1.0 - math.exp(-2.0))) <= 1e-6

    def test_no_locale_dependent_formatting(self, tmp_path):
        out = tmp_path / "reference.csv"
        run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out))
        body = out.read_text()
        for line in body.splitlines()[1:]:
            assert len(line.split(",")) == 9

    def test_overflow_exits_3(self, tmp_path):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            TRANSLATION_ONLY.replace("taux = 0.0", "taux = 1e99").replace(
                "t_end = 1.0", "t_end = 50.0"
            )
        )
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 3
        assert "diverged" in result.stderr

    def test_config_error_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(TRANSLATION_ONLY.replace("mx = 0.5", "mx = -0.5"))
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "mx must be positive" in result.stderr

    def test_long_horizon_times_are_exact(self, tmp_path):
        # Timestamps past ~8192 s are no longer spaced within 1e-12 of dt;
        # the run must still succeed with t = i*dt on every row.
        cfg = tmp_path / "long.cfg"
        cfg.write_text(TRANSLATION_ONLY.replace("t_end = 1.0", "t_end = 9000.0"))
        out = tmp_path / "long.csv"
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 90_001
        assert all(float(row.split(",", 1)[0]) == i * 0.1 for i, row in enumerate(rows))

    def test_non_finite_image_column_exits_2_and_leaves_no_file(self, tmp_path):
        # u = fx*x + fx*dx overflows once x passes ~1.8e8, about 28,000 rows
        # in: several chunks have been written by then.
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            TRANSLATION_ONLY.replace("fx = 1.0", "fx = 1e300")
            .replace("taux = 0.0", "taux = 1e8")
            .replace("dt = 0.1", "dt = 1e-4")
            .replace("t_end = 1.0", "t_end = 3.0")
        )
        out = tmp_path / "wide.csv"
        out.write_text("previous contents\n")
        code = cli.main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert out.read_text() == "previous contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.cfg", "wide.csv"]
        out.unlink()
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert "u[" in result.stderr and "must be finite" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.cfg"]

    def test_horizon_above_step_cap_exits_2_and_leaves_no_file(self, tmp_path):
        # dt = 0.5 and t_end = 0.5 * (MAX_STEPS + 1) are exact, so the
        # horizon needs one step more than the cap. Only the error path
        # runs; nothing cap-sized is simulated.
        cfg = tmp_path / "capped.cfg"
        cfg.write_text(
            TRANSLATION_ONLY.replace("dt = 0.1", "dt = 0.5").replace(
                "t_end = 1.0", f"t_end = {0.5 * (MAX_STEPS + 1)!r}"
            )
        )
        out = tmp_path / "capped.csv"
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert f"{MAX_STEPS} step cap" in result.stderr
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["capped.cfg"]

    def test_out_is_directory_exits_2(self, translation_config, tmp_path):
        target = tmp_path / "outdir"
        target.mkdir()
        result = run_cli(
            "simulate", "--config", str(translation_config), "--out", str(target)
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "translation.cfg"]
        assert list(target.iterdir()) == []

    def test_config_is_directory_exits_2(self, tmp_path):
        result = run_cli(
            "simulate", "--config", str(tmp_path), "--out", str(tmp_path / "x.csv")
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_missing_out_directory_exits_2(self, translation_config, tmp_path):
        out = tmp_path / "no_such_dir" / "x.csv"
        result = run_cli("simulate", "--config", str(translation_config), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")


class TestVerify:
    def test_small_run_green(self):
        result = run_cli("verify", "--samples", "5", "--seed", "1")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert len(lines) == len(propcheck.PROPERTIES)
        for line, property_id in zip(lines, propcheck.PROPERTIES):
            fields = line.split(" ")
            assert fields[0] == property_id
            assert fields[1] == "pass"
            assert fields[2] == "5"
            assert fields[5] == "1"

    def test_byte_identical_reruns(self):
        a = run_cli("verify", "--samples", "5", "--seed", "7")
        b = run_cli("verify", "--samples", "5", "--seed", "7")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_zero_samples_is_usage_error(self):
        result = run_cli("verify", "--samples", "0")
        assert result.returncode == 2

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_usage_error(self, seed, capsys):
        assert cli.main(["verify", "--samples", "1", "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be in [0, 2^64)" in captured.err

    def test_largest_64_bit_seed_is_accepted(self, capsys):
        seed = 2**64 - 1
        assert cli.main(["verify", "--samples", "1", "--seed", str(seed)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(propcheck.PROPERTIES)
        assert all(line.split()[1:3] == ["pass", "1"] for line in lines)
        assert all(line.split()[5] == str(seed) for line in lines)

    def test_unjudged_sample_fails_verify(self, monkeypatch, capsys):
        def raises(rng, dom):
            raise OverflowError("math range error")

        monkeypatch.setitem(propcheck.PROPERTIES, "FAKE_RAISES", (1e-12, raises))
        assert cli.main(["verify", "--samples", "2", "--seed", "42"]) == 1
        out = capsys.readouterr().out
        assert "FAKE_RAISES fail 2 nan 9.9999999999999998e-13 42\n" in out
        assert "counterexample sample_index=0 error=OverflowError\n" in out

    def test_mutation_fails_with_counterexample(self, monkeypatch, capsys):
        true_rotation = frames.rotation_matrix

        def flipped(alpha):
            r = true_rotation(alpha)
            return Mat2(r.a11, -r.a12, -r.a21, r.a22)

        monkeypatch.setattr(frames, "rotation_matrix", flipped)
        code = cli.main(["verify", "--samples", "20", "--seed", "42"])
        assert code == 1
        out = capsys.readouterr().out
        assert "THM1_CAMERA_STAGE fail" in out
        assert "counterexample sample_index=" in out


class TestUsage:
    def test_no_command_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_in_process_main_matches_subprocess(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(TRANSLATION_ONLY)
        code = cli.main(["transform", "--config", str(cfg), "--x", "3", "--y", "4"])
        assert code == 0
        assert capsys.readouterr().out == "camera 4 6\nimage 4 6\n"
