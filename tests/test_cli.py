import dataclasses
import errno
import marshal
import math
import os
import re
import resource
import stat
import subprocess
import sys
import time

import pytest

from cellstage import cli, frames, propcheck
from cellstage._rng import property_stream
from cellstage.dynamics import MAX_STEPS, StageState, Trajectory, simulate
from cellstage.errors import DomainError
from cellstage.frames import StagePoint, stage_to_image
from cellstage.linalg2 import Mat2
from cellstage.scenario import parse_config

from conftest import (
    DATA_DIR, REFERENCE_CONFIG, _cli_env, config_file, config_text, run_cli, split_work
)

#: Address-space cap for a CLI child that must not allocate at scale.
_CHILD_ADDRESS_SPACE = 256 * 2**20


def _limit_address_space() -> None:
    resource.setrlimit(
        resource.RLIMIT_AS, (_CHILD_ADDRESS_SPACE, _CHILD_ADDRESS_SPACE)
    )

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

#: u = fx*x + fx*dx first overflows at row 27327 of 30,001, once x passes
#: about 1.8e8; every later row overflows too.
WIDE_IMAGE = config_text(TRANSLATION_ONLY, fx="1e300", taux="1e8", dt="1e-4", t_end="3.0")


#: Zero state and wrench, but 3 * dt rounds to inf: row 3 of 4 is at t = inf.
OVERFLOWING_TIME = config_text(
    TRANSLATION_ONLY, dt="5.992310449541053e+307", t_end="1.7976931348623157e308"
)


#: An --out beside an existing directory "outdir": the directory itself, and
#: a new name that ends in a path separator.
OUT_NAMES_A_DIRECTORY = pytest.mark.parametrize(
    "name",
    ["outdir", "new.csv" + os.sep],
    ids=["existing_directory", "trailing_separator"],
)


def long_name(length: int) -> str:
    """An ASCII base name of `length` bytes, ending in .csv."""
    return "a" * (length - 4) + ".csv"


#: Base names of --out from 227 bytes up to 255, the NAME_MAX of Linux file
#: systems and the longest open(out, "w") accepts. No scratch file takes a
#: part of --out's name, so each gives the bytes a short name gives.
LONG_OUT_NAMES = pytest.mark.parametrize("length", range(227, 256))

GOLDEN_CSV = DATA_DIR / "reference_trajectory.csv"


def listing(directory) -> list[str]:
    return sorted(os.listdir(directory))


def trajectory(config):
    """The path of a parsed config, simulated in this process in one piece."""
    return simulate(config.masses, config.initial, config.wrench, config.dt, config.t_end)


def main_simulate(out, cfg=REFERENCE_CONFIG) -> int:
    """The exit code of `cellstage simulate`, run in this process."""
    return cli.main(["simulate", "--config", str(cfg), "--out", str(out)])


def single_render(cfg) -> bytes:
    """The CSV of a config file, simulated and rendered in one piece."""
    config = parse_config(cfg.read_bytes())
    return cli.render_trajectory_csv(trajectory(config), config)


@pytest.fixture
def every_worker_reaped():
    """Fail a test that leaves a forked worker behind."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def no_path(monkeypatch):
    """Fail a test whose --out is not checked before a path is integrated."""

    def integrated(*args):
        raise AssertionError("integrated a path before refusing --out")

    monkeypatch.setattr(cli, "_path", integrated)


@pytest.fixture
def failed_forks(monkeypatch):
    """Make os.fork fail as at a process limit; one entry per attempt."""
    attempts = []

    def no_fork():
        attempts.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    return attempts


@pytest.fixture
def forked(monkeypatch):
    """The pid of every worker os.fork starts, as this process sees it."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def fail_in_workers(monkeypatch, starts=None):
    """Make a forked worker's _render_window fail on a full disk: every
    worker's, or only those of the windows that start at a row in starts."""
    parent = os.getpid()
    render_window = cli._render_window

    def full_disk_in_workers(handle, window, config, start):
        if os.getpid() != parent and (starts is None or start in starts):
            raise OSError(28, "No space left on device")
        render_window(handle, window, config, start)

    monkeypatch.setattr(cli, "_render_window", full_disk_in_workers)


@pytest.fixture
def fine_config(tmp_path):
    """The reference scenario at dt = 1e-4: 20,001 rows, five chunks."""
    return config_file(tmp_path, config_text(REFERENCE_CONFIG.read_text(), dt="0.0001"), "fine")


@pytest.fixture
def translation_config(tmp_path):
    return config_file(tmp_path, TRANSLATION_ONLY, "translation")


class TestTransform:
    def test_pure_translation(self, translation_config):
        result = run_cli(
            "transform", "--config", str(translation_config), "--x", "3", "--y", "4"
        )
        assert result.returncode == 0
        assert result.stdout == "camera 4 6\nimage 4 6\n"

    def test_scaled(self, translation_config, tmp_path):
        scaled = config_file(tmp_path, config_text(TRANSLATION_ONLY, fx="2.0", fy="3.0"), "scaled")
        result = run_cli("transform", "--config", str(scaled), "--x", "3", "--y", "4")
        assert result.returncode == 0
        # same pose as above: camera (4, 6), image (fx*4, fy*6) = (8, 18)
        assert result.stdout == "camera 4 6\nimage 8 18\n"

    def test_matches_library_for_random_points(self, tmp_path):
        config_path = REFERENCE_CONFIG
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
        bad = config_file(tmp_path, config_text(TRANSLATION_ONLY, fx="0.0"), "bad")
        result = run_cli("transform", "--config", str(bad), "--x", "0", "--y", "0")
        assert result.returncode == 2
        assert "fx must be positive" in result.stderr

    def test_missing_config_exits_2(self):
        result = run_cli("transform", "--config", "no_such.cfg", "--x", "0", "--y", "0")
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_overflowing_point_names_the_camera_column(self):
        result = run_cli(
            "transform", "--config", str(REFERENCE_CONFIG), "--x", "1.7e308", "--y", "1.7e308"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: xc must be finite, got inf\n"


class TestSimulate:
    @pytest.fixture(scope="class")
    def reference_run(self, tmp_path_factory):
        """One `cellstage simulate` of configs/reference.cfg, which several
        tests read: its result and its --out."""
        out = tmp_path_factory.mktemp("reference") / "reference.csv"
        return run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out)), out

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

    def test_golden_fixture_byte_identical(self, reference_run):
        result, out = reference_run
        assert result.returncode == 0
        assert out.read_bytes() == (DATA_DIR / "reference_trajectory.csv").read_bytes()

    @LONG_OUT_NAMES
    def test_long_out_name_gives_the_golden_bytes(self, length, tmp_path):
        # The temporary file beside --out has a fixed-length name of its own.
        out = tmp_path / long_name(length)
        assert main_simulate(out) == 0
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(tmp_path) == [out.name]

    @pytest.mark.parametrize("length", [244, 255])
    def test_long_out_name_exits_0_from_the_cli(self, length, tmp_path):
        out = tmp_path / long_name(length)
        result = run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out))
        assert (result.returncode, result.stderr) == (0, "")
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(tmp_path) == [out.name]

    def test_out_name_over_name_max_exits_2(self, translation_config, tmp_path):
        out = tmp_path / long_name(os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        with pytest.raises(OSError) as expected:
            open(out, "w")
        result = run_cli("simulate", "--config", str(translation_config), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == f"error: {expected.value}\n"
        assert f"{str(out)!r}" in result.stderr
        assert listing(tmp_path) == ["translation.cfg"]

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

    def test_image_columns_are_rowwise_transforms(self, reference_run):
        _, out = reference_run
        config = parse_config(REFERENCE_CONFIG.read_bytes())
        for line in out.read_text().splitlines()[1:]:
            t, x, y, xdot, ydot, xc, yc, u, v = (float(s) for s in line.split(","))
            want = stage_to_image(StagePoint(x, y), config.calibration)
            scale = max(1.0, abs(want.u), abs(want.v))
            assert abs(u - want.u) <= 1e-12 * scale
            assert abs(v - want.v) <= 1e-12 * scale

    def test_final_position_near_analytic_asymptote(self, reference_run):
        _, out = reference_run
        final = out.read_text().splitlines()[-1].split(",")
        # x(2) = xd0 * Mx * (1 - exp(-2)) with Mx = 1
        assert abs(float(final[1]) - (1.0 - math.exp(-2.0))) <= 1e-6

    def test_no_locale_dependent_formatting(self, reference_run):
        _, out = reference_run
        body = out.read_text()
        for line in body.splitlines()[1:]:
            assert len(line.split(",")) == 9

    def test_overflow_exits_3(self, tmp_path):
        text = config_text(TRANSLATION_ONLY, taux="1e99", t_end="50.0")
        cfg = config_file(tmp_path, text, "diverge")
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 3
        assert result.stderr == (
            "error: simulation diverged: state left [-1e+100, 1e+100] at step 110\n"
        )

    def test_nan_state_exits_3_and_leaves_no_file(self, tmp_path):
        # One 1e199 s step on 1e-12 kg masses turns x and xdot into NaN
        # without either passing 1e100 first.
        text = config_text(
            TRANSLATION_ONLY,
            mx="1e-12", my="1e-12", mp="1e-12", xd0="1.0", dt="1e199", t_end="1e200",
        )
        cfg = config_file(tmp_path, text, "nan")
        out = tmp_path / "nan.csv"
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 3
        assert result.stderr == (
            "error: simulation diverged: state left [-1e+100, 1e+100] at step 1\n"
        )
        assert listing(tmp_path) == ["nan.cfg"]

    def test_config_error_exits_2(self, tmp_path):
        cfg = config_file(tmp_path, config_text(TRANSLATION_ONLY, mx="-0.5"), "bad")
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 2
        assert "mx must be positive" in result.stderr

    def test_long_horizon_times_are_exact(self, tmp_path):
        # Timestamps past ~8192 s are no longer spaced within 1e-12 of dt;
        # the run must still succeed with t = i*dt on every row.
        cfg = config_file(tmp_path, config_text(TRANSLATION_ONLY, t_end="9000.0"), "long")
        out = tmp_path / "long.csv"
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 0, result.stderr
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 90_001
        assert all(float(row.split(",", 1)[0]) == i * 0.1 for i, row in enumerate(rows))

    def test_non_finite_image_column_exits_2_and_leaves_no_file(self, tmp_path):
        # u = fx*x + fx*dx overflows once x passes ~1.8e8, about 28,000 rows
        # in: several chunks have been written by then.
        cfg = config_file(tmp_path, WIDE_IMAGE, "wide")
        out = tmp_path / "wide.csv"
        out.write_text("previous contents\n")
        assert main_simulate(out, cfg) == 2
        assert out.read_text() == "previous contents\n"
        assert listing(tmp_path) == ["wide.cfg", "wide.csv"]
        out.unlink()
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        # The bad row is named by its trajectory row, not its row in a chunk.
        assert result.stderr.startswith("error: u[27327] must be finite, got inf")
        assert "Traceback" not in result.stderr
        assert listing(tmp_path) == ["wide.cfg"]

    def test_infinite_time_exits_2_and_leaves_out_untouched(self, tmp_path):
        # 3 * dt rounds to inf, so the last of the 4 rows would be at t = inf.
        cfg = config_file(tmp_path, OVERFLOWING_TIME, "inf")
        out = tmp_path / "inf.csv"
        out.write_text("previous contents\n")
        result = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == "error: t[3] must be finite, got inf\n"
        assert out.read_text() == "previous contents\n"
        assert listing(tmp_path) == ["inf.cfg", "inf.csv"]

    def test_horizon_above_step_cap_exits_2_and_leaves_no_file(self, tmp_path):
        # dt = 0.5 and t_end = 0.5 * (MAX_STEPS + 1) are exact, so the
        # horizon needs one step more than the cap. Only the error path
        # runs; nothing cap-sized is simulated. The child's address space
        # and time are capped, so a cap that stopped rejecting this horizon
        # fails fast (MemoryError) instead of filling about 2 GB first.
        text = config_text(TRANSLATION_ONLY, dt="0.5", t_end=0.5 * (MAX_STEPS + 1))
        cfg = config_file(tmp_path, text, "capped")
        out = tmp_path / "capped.csv"
        result = run_cli(
            "simulate", "--config", str(cfg), "--out", str(out),
            preexec_fn=_limit_address_space, timeout=60,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error: ")
        assert f"{MAX_STEPS} step cap" in result.stderr
        assert "Traceback" not in result.stderr
        assert listing(tmp_path) == ["capped.cfg"]

    @OUT_NAMES_A_DIRECTORY
    def test_out_is_directory_exits_2(self, name, translation_config, tmp_path):
        target = tmp_path / "outdir"
        target.mkdir()
        out = os.path.join(tmp_path, name)
        result = run_cli("simulate", "--config", str(translation_config), "--out", out)
        assert result.returncode == 2
        assert result.stderr == f"error: [Errno 21] Is a directory: {out!r}\n"
        assert listing(tmp_path) == ["outdir", "translation.cfg"]
        assert list(target.iterdir()) == []

    @OUT_NAMES_A_DIRECTORY
    def test_out_is_directory_fails_before_integrating(
        self, name, fine_config, no_path, tmp_path
    ):
        (tmp_path / "outdir").mkdir()
        out = os.path.join(tmp_path, name)
        with pytest.raises(IsADirectoryError) as excinfo:
            cli.cmd_simulate(parse_config(fine_config.read_bytes()), out)
        assert str(excinfo.value) == f"[Errno 21] Is a directory: {out!r}"
        assert listing(tmp_path) == ["fine.cfg", "outdir"]

    def test_out_is_fifo_exits_2(self, translation_config, tmp_path):
        # Replaced by the CSV, the FIFO would give its readers nothing.
        out = tmp_path / "out.csv"
        os.mkfifo(out)
        result = run_cli("simulate", "--config", str(translation_config), "--out", str(out))
        assert result.returncode == 2
        assert result.stderr == f"error: [Errno 22] not a regular file: {str(out)!r}\n"
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert listing(tmp_path) == ["out.csv", "translation.cfg"]

    def test_out_is_fifo_fails_before_integrating(self, fine_config, no_path, tmp_path):
        out = os.path.join(tmp_path, "out.csv")
        os.mkfifo(out)
        with pytest.raises(OSError) as excinfo:
            cli.cmd_simulate(parse_config(fine_config.read_bytes()), out)
        assert str(excinfo.value) == f"[Errno 22] not a regular file: {out!r}"
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert listing(tmp_path) == ["fine.cfg", "out.csv"]

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
        assert result.stderr == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert listing(tmp_path) == ["translation.cfg"]

    def test_empty_out_exits_2_and_leaves_no_file(self, translation_config, tmp_path):
        # The temporary file of an empty --out must not go beside the
        # working directory.
        work = tmp_path / "work"
        work.mkdir()
        result = run_cli(
            "simulate", "--config", str(translation_config), "--out", "", cwd=work
        )
        assert result.returncode == 2
        assert result.stderr == "error: [Errno 2] No such file or directory: ''\n"
        assert listing(tmp_path) == ["translation.cfg", "work"]
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "out",
        [
            "",
            os.path.join("no_such_dir", "x.csv"),
            os.path.join(os.pardir, "fine.cfg", "x.csv"),
            long_name(256),
        ],
        ids=["empty", "missing_directory", "file_as_directory", "name_too_long"],
    )
    def test_unopenable_out_fails_before_integrating(
        self, out, fine_config, no_path, monkeypatch, tmp_path
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        with pytest.raises(OSError) as expected:
            open(out, "w")
        with pytest.raises(OSError) as excinfo:
            cli.cmd_simulate(parse_config(fine_config.read_bytes()), out)
        assert type(excinfo.value) is type(expected.value)
        assert str(excinfo.value) == str(expected.value)
        assert excinfo.value.filename == out
        assert listing(tmp_path) == ["fine.cfg", "work"]
        assert list(work.iterdir()) == []


def entry(path) -> tuple:
    """What a run must leave as it was: a link's text, or a file's bytes and
    permission bits."""
    if os.path.islink(path):
        return ("link", os.readlink(path))
    return ("file", path.read_bytes(), stat.S_IMODE(os.stat(path).st_mode))


class TestOutLinksAndModes:
    """`simulate` writes through a symbolic --out as open(out, "w") would,
    and an existing --out keeps its permission bits."""

    def test_link_is_written_through(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("previous contents\n")
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        assert main_simulate(link) == 0
        assert os.readlink(link) == "real.csv"
        assert real.read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(tmp_path) == ["link.csv", "real.csv"]

    def test_target_is_replaced_from_its_own_directory(self, monkeypatch, tmp_path):
        # link.csv -> hop.csv -> ../data/real.csv: the temporary file goes
        # beside real.csv, and neither link changes.
        links, data = tmp_path / "links", tmp_path / "data"
        links.mkdir()
        data.mkdir()
        real = data / "real.csv"
        real.write_text("previous contents\n")
        (links / "hop.csv").symlink_to(os.path.join(os.pardir, "data", "real.csv"))
        (links / "link.csv").symlink_to("hop.csv")
        seen = []
        render_window = cli._render_window

        def listing_render(handle, window, config, start):
            seen.append((listing(links), listing(data)))
            render_window(handle, window, config, start)

        monkeypatch.setattr(cli, "_render_window", listing_render)
        assert main_simulate(links / "link.csv") == 0
        [(during_links, during_data)] = seen
        assert during_links == ["hop.csv", "link.csv"]
        assert len(during_data) == 2 and "real.csv" in during_data
        assert os.readlink(links / "link.csv") == "hop.csv"
        assert os.readlink(links / "hop.csv") == os.path.join(os.pardir, "data", "real.csv")
        assert real.read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(data) == ["real.csv"]

    def test_dangling_link_gets_its_target(self, tmp_path):
        (tmp_path / "data").mkdir()
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("data", "new.csv"))
        assert main_simulate(link) == 0
        assert os.readlink(link) == os.path.join("data", "new.csv")
        assert (tmp_path / "data" / "new.csv").read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(tmp_path) == ["data", "link.csv"]
        assert listing(tmp_path / "data") == ["new.csv"]

    def test_dangling_link_into_a_missing_directory_exits_2(self, tmp_path):
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("missing", "new.csv"))
        with pytest.raises(OSError) as expected:
            open(link, "w")
        result = run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", str(link))
        assert (result.returncode, result.stderr) == (2, f"error: {expected.value}\n")
        assert os.readlink(link) == os.path.join("missing", "new.csv")
        assert listing(tmp_path) == ["link.csv"]

    @pytest.mark.parametrize(
        "loop", [{"loop1": "loop2", "loop2": "loop1"}, {"loop1": "loop1"}], ids=["two", "self"]
    )
    def test_link_loop_exits_2_before_integrating(self, loop, no_path, tmp_path):
        for name, target in loop.items():
            (tmp_path / name).symlink_to(target)
        out = str(tmp_path / "loop1")
        with pytest.raises(OSError) as expected:
            open(out, "w")
        assert expected.value.errno == errno.ELOOP
        with pytest.raises(OSError) as excinfo:
            cli.cmd_simulate(parse_config(REFERENCE_CONFIG.read_bytes()), out)
        assert str(excinfo.value) == str(expected.value)
        assert excinfo.value.filename == out
        result = run_cli("simulate", "--config", str(REFERENCE_CONFIG), "--out", out)
        assert result.returncode == 2
        assert result.stderr == f"error: [Errno 40] Too many levels of symbolic links: {out!r}\n"
        assert {name: os.readlink(tmp_path / name) for name in loop} == loop
        assert listing(tmp_path) == sorted(loop)

    def test_hard_link_becomes_a_new_file(self, tmp_path):
        # The atomic rename wins over writing through: --out gets a new
        # inode and its other hard links keep the old bytes.
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        hard = tmp_path / "hard.csv"
        os.link(real, hard)
        inode = real.stat().st_ino
        assert main_simulate(hard) == 0
        assert hard.read_bytes() == GOLDEN_CSV.read_bytes()
        assert hard.stat().st_ino != inode
        assert real.read_text() == "old\n"
        assert (real.stat().st_ino, real.stat().st_nlink) == (inode, 1)
        assert listing(tmp_path) == ["hard.csv", "real.csv"]

    @pytest.mark.parametrize("mode", [0o600, 0o640, 0o604])
    def test_existing_out_keeps_its_mode(self, mode, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("previous contents\n")
        out.chmod(mode)
        assert main_simulate(out) == 0
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_link_target_keeps_its_mode(self, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("previous contents\n")
        real.chmod(0o600)
        link = tmp_path / "link.csv"
        link.symlink_to("real.csv")
        assert main_simulate(link) == 0
        assert stat.S_IMODE(real.stat().st_mode) == 0o600
        assert os.readlink(link) == "real.csv"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_out_takes_its_mode_from_the_umask(self, umask, mode, tmp_path):
        out = tmp_path / "out.csv"
        result = run_cli(
            "simulate", "--config", str(REFERENCE_CONFIG), "--out", str(out),
            preexec_fn=lambda: os.umask(umask),
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert stat.S_IMODE(out.stat().st_mode) == mode

    def test_failed_run_leaves_link_target_and_directories(self, tmp_path):
        cfg = config_file(tmp_path, OVERFLOWING_TIME, "inf")
        data = tmp_path / "data"
        data.mkdir()
        real = data / "real.csv"
        real.write_text("previous contents\n")
        real.chmod(0o600)
        link = tmp_path / "link.csv"
        link.symlink_to(os.path.join("data", "real.csv"))
        before = {path: entry(path) for path in (link, real)}
        result = run_cli("simulate", "--config", str(cfg), "--out", str(link))
        assert result.returncode == 2
        assert result.stderr == "error: t[3] must be finite, got inf\n"
        assert {path: entry(path) for path in (link, real)} == before
        assert listing(tmp_path) == ["data", "inf.cfg", "link.csv"]
        assert listing(data) == ["real.csv"]


@pytest.mark.usefixtures("every_worker_reaped")
class TestForkedWriter:
    """`simulate` splits the rows among forked workers; nothing may show it."""

    @staticmethod
    def simulate(cfg, out, parts, monkeypatch):
        split_work(monkeypatch, processes=parts)
        return main_simulate(out, cfg)

    def test_parts_follow_cpus_and_whole_chunks(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        chunk = cli._CSV_CHUNK_ROWS

        def parts(rows):
            return cli._processes(rows // chunk)

        assert [parts(n) for n in (1, 201, 2 * chunk - 1)] == [1, 1, 1]
        assert [parts(n) for n in (2 * chunk, 20_001, 10**6)] == [2, 4, 8]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert parts(10**6) == 1
        monkeypatch.setattr(sys, "platform", "darwin")
        assert parts(10**6) == 1

    def test_bytes_do_not_depend_on_parts(
        self, fine_config, translation_config, monkeypatch, tmp_path
    ):
        # The 11-row translation ranges are shorter than the file buffer,
        # so they are still buffered when a part is appended.
        expected = {
            "reference": (DATA_DIR / "reference_trajectory.csv").read_bytes(),
            "fine": single_render(fine_config),
            "translation": single_render(translation_config),
        }
        for parts in (1, 2, 3):
            for cfg in (REFERENCE_CONFIG, fine_config, translation_config):
                out = tmp_path / f"{cfg.stem}-{parts}.csv"
                assert self.simulate(cfg, out, parts, monkeypatch) == 0
                assert out.read_bytes() == expected[cfg.stem]
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix not in (".cfg", ".csv")]
        assert leftovers == []

    @pytest.mark.parametrize(
        "t_end, parts",
        # 30,001 rows: row 27327 is in the one process's range, then in the
        # last worker's of 2 and of 3. 60,001 rows in 2: it is in this
        # process's range, and every row of the worker's range is bad too.
        [("3.0", 1), ("3.0", 2), ("3.0", 3), ("6.0", 2)],
    )
    def test_non_finite_row_is_named_from_any_range(
        self, t_end, parts, monkeypatch, tmp_path, capsys
    ):
        cfg = config_file(tmp_path, config_text(WIDE_IMAGE, t_end=t_end), "wide")
        out = tmp_path / "wide.csv"
        out.write_text("previous contents\n")
        assert self.simulate(cfg, out, parts, monkeypatch) == 2
        assert capsys.readouterr().err == "error: u[27327] must be finite, got inf\n"
        assert out.read_text() == "previous contents\n"
        assert listing(tmp_path) == ["wide.cfg", "wide.csv"]

    def test_error_names_the_first_bad_row_of_any_column(self):
        # v overflows at row 5 and u at row 9 (fx = fy = 1e300): the error
        # names row 5 however the rows are split, although u is checked first.
        config = parse_config(config_text(WIDE_IMAGE, fy="1e300").encode())
        x = [0.0] * 20
        y = [0.0] * 20
        x[9] = 1e9
        y[5] = 1e9
        traj = Trajectory(0.0, 0.1, x, y, [0.0] * 20, [0.0] * 20)
        for start, stop in ((0, 20), (0, 7), (3, 12), (5, 6)):
            with pytest.raises(DomainError, match=r"^v\[5\] must be finite, got inf$"):
                cli.render_trajectory_csv(traj, config, start, stop)

    def test_nan_coordinate_is_named_by_its_row(self):
        # At 45 degrees with fx = 1e300, u at (1e9, -1e9) is inf - inf.
        config = parse_config(config_text(WIDE_IMAGE, alpha=math.pi / 4).encode())
        x = [0.0] * 10
        y = [0.0] * 10
        x[7] = 1e9
        y[7] = -1e9
        traj = Trajectory(0.0, 0.1, x, y, [0.0] * 10, [0.0] * 10)
        for start, stop in ((0, 10), (4, 8), (7, 8)):
            with pytest.raises(DomainError, match=r"^u\[7\] must be finite, got nan$"):
                cli.render_trajectory_csv(traj, config, start, stop)

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_worker_range_is_rendered_here(
        self, failing, fine_config, monkeypatch, tmp_path
    ):
        # Worker 1 failing is re-rendered before worker 2's part is
        # appended; worker 2 failing is re-rendered after worker 1's.
        # Worker j renders window j - 1 of the three over 20,001 rows.
        fail_in_workers(monkeypatch, starts={20_001 * (failing - 1) // 3})
        out = tmp_path / "fine.csv"
        assert self.simulate(fine_config, out, 3, monkeypatch) == 0
        assert out.read_bytes() == single_render(fine_config)
        assert listing(tmp_path) == ["fine.cfg", "fine.csv"]

    def test_fork_failure_renders_every_range_here(
        self, fine_config, failed_forks, monkeypatch, tmp_path
    ):
        out = tmp_path / "fine.csv"
        assert self.simulate(fine_config, out, 3, monkeypatch) == 0
        assert out.read_bytes() == single_render(fine_config)
        assert listing(tmp_path) == ["fine.cfg", "fine.csv"]

    @LONG_OUT_NAMES
    def test_long_out_name_gives_the_golden_bytes(self, length, monkeypatch, tmp_path):
        # Two windows: a worker renders rows 0-99 into a part file and this
        # process rows 100-200 into another.
        split_work(monkeypatch, cpus=2)
        out = tmp_path / long_name(length)
        assert self.simulate(REFERENCE_CONFIG, out, 2, monkeypatch) == 0
        assert out.read_bytes() == GOLDEN_CSV.read_bytes()
        assert listing(tmp_path) == [out.name]

    @pytest.mark.parametrize("windows", [2, 3])
    def test_long_out_name_gives_the_short_name_bytes(
        self, windows, fine_config, monkeypatch, tmp_path
    ):
        # 20,001 rows in two or three windows, all but the last rendered by
        # workers into part files: the split shows in neither name's bytes.
        split_work(monkeypatch, cpus=2)
        short = tmp_path / "short.csv"
        long = tmp_path / long_name(237)
        for out in (short, long):
            assert self.simulate(fine_config, out, windows, monkeypatch) == 0
        assert long.read_bytes() == short.read_bytes()
        assert listing(tmp_path) == sorted(["fine.cfg", long.name, "short.csv"])

    def test_scratch_files_are_not_named_after_out(self, fine_config, monkeypatch, tmp_path):
        # Two workers render windows 0 and 1 into part files and this
        # process window 2 into a third; the directory is listed as each
        # part is appended.
        split_work(monkeypatch, cpus=2)
        directory = tmp_path / "out"
        directory.mkdir()
        out = directory / long_name(255)
        seen = []
        append_part = cli._append_part

        def listing_append(fd, part):
            seen.append(os.listdir(directory))
            append_part(fd, part)

        monkeypatch.setattr(cli, "_append_part", listing_append)
        assert self.simulate(fine_config, out, 3, monkeypatch) == 0
        assert len(seen) == 3
        for names in seen:
            [name] = names
            assert re.fullmatch(r"\.[0-9a-f]{12}\.tmp", name), name
            assert out.stem not in name
        assert os.listdir(directory) == [out.name]
        assert out.read_bytes() == single_render(fine_config)


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


#: The writer's row before constant columns were folded: nine %.17g fields.
ONE_TEMPLATE_ROW = ",".join(["%.17g"] * 9) + "\n"


def one_template_render(traj, config):
    """The CSV text of traj as one template per row renders it, in one piece."""
    xc, yc = frames.stage_to_camera_columns(traj.x, traj.y, config.calibration)
    u, v = frames.stage_to_image_columns(traj.x, traj.y, config.calibration)
    columns = (traj.times(), traj.x, traj.y, traj.xdot, traj.ydot, xc, yc, u, v)
    body = "".join(ONE_TEMPLATE_ROW % row for row in zip(*columns))
    return cli.CSV_HEADER + "\n" + body if traj.first == 0 else body


@pytest.mark.usefixtures("every_worker_reaped")
class TestConstantColumns:
    """A column constant over a render chunk is formatted once for the chunk;
    the bytes are those of one template per row."""

    @staticmethod
    def simulated(text, tmp_path):
        """(cellstage simulate's CSV, the one-template render) of config text."""
        cfg = config_file(tmp_path, text, "case")
        out = tmp_path / "case.csv"
        assert main_simulate(out, cfg) == 0
        config = parse_config(text.encode())
        return out.read_text(), one_template_render(trajectory(config), config)

    def test_a_last_chunk_of_one_row_is_written(self, tmp_path):
        # 1,025 rows: the second 1,024-row chunk holds one row, in which
        # every column but time is constant.
        text = config_text(REFERENCE_CONFIG.read_text(), t_end="10.24")
        got, want = self.simulated(text, tmp_path)
        assert got.count("\n") == 1 + 1025
        assert got == want

    def test_undriven_run_from_rest(self, tmp_path):
        # Every non-time column is constant in every chunk, over 2 windows
        # of 2 chunks or more.
        text = config_text(TRANSLATION_ONLY, t_end="900.0")
        got, want = self.simulated(text, tmp_path)
        assert got.count("\n") == 1 + 9001
        assert got == want

    def test_zeros_of_both_signs_in_one_chunk(self):
        config = parse_config(TRANSLATION_ONLY.encode())
        n = 40
        columns = {name: [0.0] * n for name in ("x", "y", "xdot", "ydot")}
        columns["x"][-1] = -0.0
        columns["xdot"][n // 2] = -0.0
        columns["ydot"] = [-0.0] * n
        traj = Trajectory(0.0, 0.1, **columns)
        want = one_template_render(traj, config)
        assert ",-0," in want and ",0," in want
        assert cli.render_trajectory_csv(traj, config) == want.encode()
        for start, stop in ((0, 20), (19, 21), (n - 1, n), (0, n)):
            rows = (column[start:stop] for column in columns.values())
            window = Trajectory(0.0, 0.1, *rows, first=start)
            assert cli.render_trajectory_csv(traj, config, start, stop) == (
                one_template_render(window, config).encode()
            )

    def test_constant_needs_equal_bits(self):
        assert cli._constant([2.5, 2.5, 2.5])
        assert cli._constant([-0.0, -0.0])
        assert cli._constant([7.0])
        assert not cli._constant([])
        assert not cli._constant([0.0, -0.0])
        assert not cli._constant([-0.0, 0.0, -0.0])
        assert not cli._constant([1.0, 2.0, 1.0])


@pytest.mark.usefixtures("every_worker_reaped")
class TestWindows:
    """`simulate` integrates in windows beside forked renderers; errors and
    leftovers are those of one process."""

    @staticmethod
    def config(text, t0=None):
        config = parse_config(text.encode())
        if t0 is not None:
            config = dataclasses.replace(config, initial=StageState(t0, 0.0, 0.0, 0.0, 0.0))
        return config

    @staticmethod
    def one_process_error(config):
        """The error of simulating and rendering in one piece."""
        try:
            cli.render_trajectory_csv(trajectory(config), config)
        except (DomainError, OverflowError) as exc:
            return exc
        raise AssertionError("the case does not fail")

    DIVERGES = config_text(TRANSLATION_ONLY, taux="1e99")
    #: At t0 = 2**53 - k with dt = 1, rows k and k + 1 are both at 2**53.
    UNIT_STEP = config_text(TRANSLATION_ONLY, dt="1.0")
    #: The error of a path that diverges at a step.
    DIVERGED = "state left [-1e+100, 1e+100] at step {}"
    SAME_TIME = "timestamps must be strictly increasing: 9007199254740992.0 -> 9007199254740992.0"

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("windows", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "text, t0, error",
        [
            # 131 rows: step 110 is in the last window of 2 and of 3.
            (config_text(DIVERGES, t_end="13.0"), None, DIVERGED.format(110)),
            # u is inf from row 1, in the first window, but the later
            # divergence wins, as it does in one process.
            (config_text(DIVERGES, t_end="13.0", fx="1e300"), None, DIVERGED.format(110)),
            # 12 rows, 2**53 at rows 5 and 6: the seam of 2 windows.
            (config_text(UNIT_STEP, t_end=2.0**53 + 6), 2.0**53 - 5, SAME_TIME),
            # 31 rows: a time error at row 5 and a divergence at step 11.
            (config_text(UNIT_STEP, taux="1e99", t_end=2.0**53 + 26), 2.0**53 - 5,
             DIVERGED.format(11)),
            # 32 rows: u is inf from row 3, in the first window, and 2**53 is
            # at rows 25 and 26, in the last: the bad time still wins.
            (config_text(UNIT_STEP, taux="1e8", fx="1e300", t_end=2.0**53 + 6), 2.0**53 - 25,
             SAME_TIME),
            # 12,001 rows: u is inf from row 6892 and the state passes 1e100
            # at step 10,400, kernel rounds apart in the window this process
            # renders itself at 1 and 2 windows: the divergence still wins.
            (config_text(TRANSLATION_ONLY, taux="1e8", fx="3e299", mp="0.1", tauy="1e99",
                         dt="1e-3", t_end="12.0"), None, DIVERGED.format(10_400)),
            # 9,007 rows: u is inf from row 4995 and 2**53 is at rows 9000
            # and 9001, kernel rounds apart in the same way: the bad time wins.
            (config_text(UNIT_STEP, taux="1e4", fx="3.6e300", t_end=2.0**53 + 6), 2.0**53 - 9000,
             SAME_TIME),
            # 30,001 rows: only a bad row.
            (WIDE_IMAGE, None, "u[27327] must be finite, got inf"),
            # 4 rows: only a bad time.
            (OVERFLOWING_TIME, None, "t[3] must be finite, got inf"),
            # 210 rows: step 105 is the first of the second window of 2.
            (config_text(TRANSLATION_ONLY, taux="1.06e99", tauy="5e98", t_end="20.95"), None,
             DIVERGED.format(105)),
            (config_text(TRANSLATION_ONLY, taux="1e99", tauy="1e99", t_end="20.95"), None,
             DIVERGED.format(105)),
            (config_text(TRANSLATION_ONLY, taux="1.06e99", tauy="-1e99", t_end="20.95"), None,
             DIVERGED.format(105)),
            (config_text(TRANSLATION_ONLY, mx="1e-12", my="1e-12", mp="1e-12", yd0="1.0",
                         dt="1e199", t_end="1e200"), None, DIVERGED.format(1)),
            # 12,001 rows: step 10,400 is in the last window and past a
            # kernel round.
            (config_text(TRANSLATION_ONLY, mp="0.1", tauy="1e99", dt="1e-3", t_end="12.0"), None,
             DIVERGED.format(10_400)),
            # x at rest out of range from the start.
            (config_text(TRANSLATION_ONLY, x0="2e100"), None, DIVERGED.format(1)),
        ],
        ids=["late-divergence", "bad-u-then-divergence", "seam-time", "time-then-divergence",
             "bad-u-then-time", "bad-u-rounds-before-divergence", "bad-u-rounds-before-time",
             "bad-u", "infinite-time", "x-first", "y-first", "same-step",
             "y-nan", "y-past-a-round", "x-starts-out"],
    )
    def test_error_is_the_one_process_error(
        self, text, t0, error, windows, cpus, monkeypatch, tmp_path
    ):
        config = self.config(text, t0)
        expected = self.one_process_error(config)
        assert str(expected) == error
        # A divergence is an OverflowError; a bad time or row a DomainError.
        assert type(expected) is (OverflowError if error.startswith("state left") else DomainError)
        split_work(monkeypatch, processes=windows, cpus=cpus)
        out = tmp_path / "out.csv"
        with pytest.raises(type(expected)) as raised:
            cli.cmd_simulate(config, str(out))
        assert str(raised.value) == error
        assert list(tmp_path.iterdir()) == []

    def test_one_cpu_forks_nothing(self, fine_config, monkeypatch, tmp_path):
        def forbidden(*args):
            raise AssertionError("called on one usable CPU")

        expected = single_render(fine_config)
        split_work(monkeypatch, cpus=1)
        monkeypatch.setattr(cli, "_WINDOW_ROWS", 4096)
        monkeypatch.setattr(os, "fork", forbidden)
        monkeypatch.setattr(os, "sendfile", forbidden)
        out = tmp_path / "fine.csv"
        assert cli.cmd_simulate(parse_config(fine_config.read_bytes()), str(out)) == 0
        assert out.read_bytes() == expected

    def test_later_window_divergence_exits_3_from_the_cli(self, tmp_path):
        # 131,001 rows, so two windows on any host; the state passes 1e100
        # at step 110,000, in the second.
        cfg = config_file(tmp_path, config_text(self.DIVERGES, dt="1e-4", t_end="13.1"), "late")
        config = parse_config(cfg.read_bytes())
        message = str(self.one_process_error(config))
        assert message == "state left [-1e+100, 1e+100] at step 110000"
        result = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 3
        assert result.stderr == f"error: simulation diverged: {message}\n"
        assert listing(tmp_path) == ["late.cfg"]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failure", [None, "worker", "fork"])
    def test_nothing_is_left_behind(
        self, failure, cpus, fine_config, monkeypatch, request, tmp_path
    ):
        expected = single_render(fine_config)
        if failure == "worker":
            fail_in_workers(monkeypatch)
        elif failure == "fork":
            request.getfixturevalue("failed_forks")
        split_work(monkeypatch, processes=4, cpus=cpus)
        fds = _open_fds()
        out = tmp_path / "fine.csv"
        assert cli.cmd_simulate(parse_config(fine_config.read_bytes()), str(out)) == 0
        assert out.read_bytes() == expected
        assert _open_fds() == fds
        assert listing(tmp_path) == ["fine.cfg", "fine.csv"]

    def test_exception_in_this_process_kills_every_worker(
        self, fine_config, forked, monkeypatch, tmp_path
    ):
        # The first worker's part fails to append while the others run.
        def interrupted(fd, part):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_append_part", interrupted)
        split_work(monkeypatch, processes=4, cpus=3)
        fds = _open_fds()
        out = tmp_path / "fine.csv"
        out.write_text("previous contents\n")
        with pytest.raises(KeyboardInterrupt):
            cli.cmd_simulate(parse_config(fine_config.read_bytes()), str(out))
        assert len(forked) == 3
        assert _open_fds() == fds
        assert out.read_text() == "previous contents\n"
        assert listing(tmp_path) == ["fine.cfg", "fine.csv"]

    def test_helper_kills_a_running_worker_on_exception(self):
        began = time.monotonic()
        with pytest.raises(RuntimeError):
            with cli._Workers() as workers:
                assert workers.spawn(time.sleep, 60) is not None
                raise RuntimeError("in the parent")
        assert time.monotonic() - began < 30

    def test_helper_reports_each_worker_status(self):
        def fails():
            raise ValueError("in the worker")

        with cli._Workers() as workers:
            passing = workers.spawn(int)
            failing = workers.spawn(fails)
            assert workers.wait(failing) is False
            assert workers.wait(passing) is True
            workers.spawn(int)  # reaped on leaving the block


#: Runs argv[1:] and prints its exit code and its os.wait4 ru_maxrss (kB),
#: which folds in the workers it reaped. Started apart from the test process,
#: whose own peak would fold into the child's. Pinned to at most two CPUs, so
#: the windows are the same on any host.
_PEAK_RSS_KB = """
import os, subprocess, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _one_cpu() -> None:
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


class TestFlatMemory:
    @staticmethod
    def peak_rss_kb(tmp_path, rows, preexec_fn=None):
        dt = 2.0**-10
        text = config_text(TRANSLATION_ONLY, dt=dt, t_end=(rows - 1) * dt)
        cfg = config_file(tmp_path, text, str(rows))
        out = tmp_path / f"{rows}.csv"
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_KB, sys.executable, "-m", "cellstage",
             "simulate", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=_cli_env(), timeout=300,
            preexec_fn=preexec_fn,
        )
        code, maxrss_kb = map(int, result.stdout.split())
        assert code == 0, result.stderr
        assert len(out.read_bytes().splitlines()) == rows + 1
        out.unlink()
        return maxrss_kb

    def test_peak_rss_does_not_grow_with_the_horizon(self, tmp_path):
        window = cli._WINDOW_ROWS
        short = self.peak_rss_kb(tmp_path, 2 * window)
        long = self.peak_rss_kb(tmp_path, 6 * window)
        assert abs(long - short) <= 2 * 1024, (short, long)

    def test_one_cpu_peak_does_not_grow_with_the_window(self, tmp_path):
        # On one usable CPU this process renders every row itself, one
        # kernel round at a time: two whole windows peak as one round does.
        one_round = self.peak_rss_kb(tmp_path, cli._CSV_CHUNK_ROWS, _one_cpu)
        two_windows = self.peak_rss_kb(tmp_path, 2 * cli._WINDOW_ROWS, _one_cpu)
        assert abs(two_windows - one_round) <= 2 * 1024, (one_round, two_windows)

    def test_two_cpu_peak_does_not_grow_with_the_window(self, tmp_path):
        # On two CPUs a worker integrates and renders the first window one
        # kernel round at a time, while this process only advances through
        # it a round at a time and then renders the second itself.
        one_round = self.peak_rss_kb(tmp_path, cli._CSV_CHUNK_ROWS)
        two_windows = self.peak_rss_kb(tmp_path, 2 * cli._WINDOW_ROWS)
        assert abs(two_windows - one_round) <= 2 * 1024, (one_round, two_windows)


class TestFullDisk:
    """`simulate` on a disk that fills up: a file size limit, set in the
    CLI's process only, stops its writes partway."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("limit_mb", [1, 30])
    def test_file_too_large_exits_2_and_leaves_out_untouched(
        self, limit_mb, cpus, tmp_path
    ):
        # 315,001 rows of the reference scenario, about 56 MB of CSV. At 1 MB
        # the workers' part writes and then this process's fallback fail; at
        # 30 MB the parts are written and appending them fails.
        text = config_text(REFERENCE_CONFIG.read_text(), dt="0.0001", t_end="31.5")
        cfg = config_file(tmp_path, text, "long")
        out = tmp_path / "long.csv"
        out.write_text("previous contents\n")

        def limit():
            os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit_mb * 2**20,) * 2)

        result = run_cli(
            "simulate", "--config", str(cfg), "--out", str(out),
            preexec_fn=limit, timeout=300,
        )
        assert result.returncode == 2
        assert result.stderr == "error: [Errno 27] File too large\n"
        assert out.read_text() == "previous contents\n"
        assert listing(tmp_path) == ["long.cfg", "long.csv"]


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

    def test_report_matches_golden_fixture(self):
        result = run_cli("verify", "--seed", "7", "--samples", "40")
        assert result.returncode == 0
        assert result.stdout == (DATA_DIR / "verify_seed7_samples40.txt").read_text()

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_pipe_exits_141_silently(self, unbuffered):
        # Unbuffered, each report line is its own write, so the lines after
        # the first are written once the reader has read one and closed the
        # pipe. Buffered, the reader closes before anything is written and
        # the report reaches the pipe only when main flushes it.
        env = _cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        flags = ["-u"] if unbuffered else []
        proc = subprocess.Popen(
            [sys.executable, *flags, "-m", "cellstage", "verify", "--samples", "40"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        first = proc.stdout.readline() if unbuffered else None
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        if unbuffered:
            assert first.startswith(b"THM1_CAMERA_STAGE pass 40 ")
        assert stderr == b""

    def test_zero_samples_is_usage_error(self):
        result = run_cli("verify", "--samples", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: samples must be >= 1, got 0\n"

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
        def raises(rng):
            raise OverflowError("math range error")

        monkeypatch.setitem(propcheck.PROPERTIES, "FAKE_RAISES", (1e-12, 0, raises))
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


@pytest.mark.usefixtures("every_worker_reaped")
class TestForkedVerify:
    """`verify` splits every property's samples among forked workers;
    nothing may show it."""

    @staticmethod
    def verify(samples, seed, workers, monkeypatch, capsys):
        split_work(monkeypatch, processes=workers)
        code = cli.main(["verify", "--samples", str(samples), "--seed", str(seed)])
        return code, capsys.readouterr().out

    @staticmethod
    def only_fake_property(monkeypatch, tolerance, outcomes, samples, seed):
        """Make FAKE the one registered property.

        Sample i takes one draw, which names it, and gives outcomes.get(i,
        0.0), a violation or an exception type it raises, with the inputs
        i and i / 3. A worker whose stream did not start at its range's
        first sample raises KeyError.
        """
        stream = property_stream(seed, "FAKE")
        index_of = {stream.next_u64(): i for i in range(samples)}

        def evaluate(rng):
            i = index_of[rng.next_u64()]
            outcome = outcomes.get(i, 0.0)
            if isinstance(outcome, type):
                raise outcome("boom")
            return outcome, {"i": i, "third": i / 3}

        monkeypatch.setattr(propcheck, "PROPERTIES", {"FAKE": (tolerance, 1, evaluate)})

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("seed, samples", [(7, 40), (42, 1000)])
    def test_fixtures_do_not_depend_on_workers(
        self, seed, samples, workers, monkeypatch, capsys
    ):
        code, out = self.verify(samples, seed, workers, monkeypatch, capsys)
        assert code == 0
        assert out == (DATA_DIR / f"verify_seed{seed}_samples{samples}.txt").read_text()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "tolerance, outcomes, report",
        # Nine samples; three processes scan ranges 0-2, 3-5 and 6-8.
        [
            # A NaN in range 2 beats a larger violation in range 1.
            (10.0, {4: 50.0, 7: math.nan}, "FAKE fail 9 nan 10 42\n"
             "counterexample sample_index=7 i=7 third=2.3333333333333335\n"),
            # An exception in range 1 comes before a NaN in range 2.
            (1.0, {4: ValueError, 7: math.nan}, "FAKE fail 9 nan 1 42\n"
             "counterexample sample_index=4 error=ValueError\n"),
            # Equal violations in two ranges: the lower index.
            (1.0, {4: 5.0, 7: 5.0}, "FAKE fail 9 5 1 42\n"
             "counterexample sample_index=4 i=4 third=1.3333333333333333\n"),
        ],
    )
    def test_merge_gives_the_single_scan_sample(
        self, tolerance, outcomes, report, workers, monkeypatch, capsys
    ):
        self.only_fake_property(monkeypatch, tolerance, outcomes, 9, 42)
        assert self.verify(9, 42, workers, monkeypatch, capsys) == (1, report)

    def test_fork_failure_scans_every_range_here(self, failed_forks, monkeypatch, capsys):
        code, out = self.verify(40, 7, 3, monkeypatch, capsys)
        assert failed_forks == [1, 1]
        assert code == 0
        assert out == (DATA_DIR / "verify_seed7_samples40.txt").read_text()

    @pytest.mark.parametrize("dies_at", ["THM1_CAMERA_STAGE", "INTEGRATOR_VS_ANALYTIC"])
    @pytest.mark.parametrize("truncated", [False, True])
    def test_failed_worker_range_is_scanned_here(
        self, dies_at, truncated, monkeypatch, capsys
    ):
        # The worker of samples 26..39 exits with status 3 at dies_at's
        # record, after writing half of it or none of it.
        dump = marshal.dump
        records_before = list(propcheck.PROPERTIES).index(dies_at)
        sent = []

        def dying_dump(record, pipe):
            if record[1] >= 26 and len(sent) == records_before:
                data = marshal.dumps(record)
                pipe.write(data[: len(data) // 2] if truncated else b"")
                pipe.flush()
                os._exit(3)
            sent.append(record)
            dump(record, pipe)

        monkeypatch.setattr(marshal, "dump", dying_dump)
        code, out = self.verify(40, 7, 3, monkeypatch, capsys)
        assert code == 0
        assert out == (DATA_DIR / "verify_seed7_samples40.txt").read_text()

    def test_closed_stdout_kills_and_reaps_every_worker(self, forked, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        split_work(monkeypatch, processes=3)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli.cmd_verify(40, 7)
        assert len(forked) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestUsage:
    def test_no_command_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    def test_unknown_command_exits_2(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2

    def test_in_process_main_matches_subprocess(self, tmp_path, capsys):
        cfg = config_file(tmp_path, TRANSLATION_ONLY, "t")
        code = cli.main(["transform", "--config", str(cfg), "--x", "3", "--y", "4"])
        assert code == 0
        assert capsys.readouterr().out == "camera 4 6\nimage 4 6\n"
