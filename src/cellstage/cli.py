"""Command-line surface.

    cellstage simulate --config F --out F
    cellstage transform --config F --x R --y R
    cellstage verify [--samples N] [--seed N]

Exit codes: 0 ok, 1 property failure, 2 usage/config error (file errors
included), 3 numerical failure, 141 stdout closed by its reader before the
output was written (128 + SIGPIPE, as a shell reports it; nothing is
printed). All numbers are printed with 17 significant digits and a '.'
decimal separator regardless of locale; identical inputs give
byte-identical output. `simulate` replaces --out only with a complete
CSV; it renders the rows on one forked worker per usable CPU (one process
for outputs under two 4,096-row chunks), and the bytes do not depend on
how many. There is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
from itertools import chain
from pathlib import Path

from . import propcheck
from .dynamics import Trajectory, simulate
from .errors import DomainError, ParseError
from .frames import (
    StagePoint,
    stage_to_camera,
    stage_to_camera_columns,
    stage_to_image,
    stage_to_image_columns,
)
from .linalg2 import _require_finite
from .scenario import ScenarioConfig, parse_config

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
EXIT_BROKEN_PIPE = 141

CSV_HEADER = "t,x,y,xdot,ydot,xc,yc,u,v"


def _load_config(path: str) -> ScenarioConfig:
    return parse_config(Path(path).read_bytes())


#: One CSV row: every field with 17 significant digits.
_CSV_ROW = ",".join(["%.17g"] * 9) + "\n"

#: Rows rendered and written per chunk by cmd_simulate.
_CSV_CHUNK_ROWS = 4096


def render_trajectory_csv(
    traj: Trajectory, config: ScenarioConfig, start: int = 0, stop: int | None = None
) -> str:
    """CSV text with stage, camera, and image coordinates per sample.

    Renders rows start..stop-1 (all rows by default); the header line leads
    when start is 0. Raises DomainError if a camera or image coordinate is
    not finite, naming the first such row of the trajectory.
    """
    rows = slice(start, stop)
    x = traj.x[rows]
    y = traj.y[rows]
    xc, yc = stage_to_camera_columns(x, y, config.calibration)
    u, v = stage_to_image_columns(x, y, config.calibration)
    if not all(map(math.isfinite, chain(xc, yc, u, v))):
        # Row by row, so the error names the first bad row whatever split
        # of the rows into chunks or ranges led here.
        for row, values in enumerate(zip(xc, yc, u, v), start):
            for name, value in zip(("xc", "yc", "u", "v"), values):
                _require_finite(f"{name}[{row}]", value)
    t = traj.times(start, stop)
    columns = (t, x, y, traj.xdot[rows], traj.ydot[rows], xc, yc, u, v)
    body = "".join(map(_CSV_ROW.__mod__, zip(*columns)))
    return CSV_HEADER + "\n" + body if start == 0 else body


def _csv_parts(rows: int) -> int:
    """How many processes render a CSV of `rows` rows.

    One per CPU this process may run on, but at most one per full chunk, so
    outputs under two chunks fork nothing. 1 off Linux: elsewhere os.fork,
    os.sched_getaffinity or a file-to-file os.sendfile may be missing.
    """
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rows // _CSV_CHUNK_ROWS))


def _render_rows(handle, traj: Trajectory, config: ScenarioConfig, start, stop):
    """Write rows start..stop-1 to handle, one chunk at a time."""
    for first in range(start, stop, _CSV_CHUNK_ROWS):
        last = min(first + _CSV_CHUNK_ROWS, stop)
        handle.write(render_trajectory_csv(traj, config, first, last))


def _fork_worker(traj: Trajectory, config: ScenarioConfig, tmp_path, start, stop):
    """Fork a process that renders rows start..stop-1 into a part file.

    The part file is created beside tmp_path and unlinked at once, so only
    its descriptor names it. Returns [pid, part fd, start, stop]; pid is
    None if no process could be forked. The child leaves only through
    os._exit, with status 0 once its part is complete.
    """
    part_path = f"{tmp_path}.{start}.part"
    part = os.open(part_path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    os.unlink(part_path)
    try:
        pid = os.fork()
    except OSError:
        return [None, part, start, stop]
    if pid == 0:
        status = 1
        try:
            with open(part, "w", newline="\n") as handle:
                _render_rows(handle, traj, config, start, stop)
            status = 0
        finally:
            os._exit(status)
    return [pid, part, start, stop]


def _append_part(fd: int, part: int) -> None:
    """Copy all of file `part` to file `fd` at its current offset."""
    size = os.fstat(part).st_size
    offset = 0
    while offset < size:
        offset += os.sendfile(fd, part, offset, size - offset)


def _write_csv(traj: Trajectory, config: ScenarioConfig, out_path: str) -> None:
    """Render the CSV into a temporary file beside out_path, then rename it.

    The rows are split into _csv_parts(len(traj)) contiguous, equal ranges.
    This process renders the first; a forked worker renders each other one
    into its part file, which is appended in order once the worker exits.
    The bytes do not depend on the number of ranges. A range whose worker
    failed is rendered here, so an error is the one a single process
    raises. On any failure the workers are killed and reaped, the
    temporary file is removed and out_path is untouched.
    """
    directory, name = os.path.split(os.path.abspath(out_path))
    tmp_path = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    parts = _csv_parts(len(traj))
    bounds = [len(traj) * i // parts for i in range(parts + 1)]
    workers = []
    try:
        with open(fd, "w", newline="\n") as handle:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                workers.append(_fork_worker(traj, config, tmp_path, start, stop))
            _render_rows(handle, traj, config, 0, bounds[1])
            for worker in workers:
                pid, part, start, stop = worker
                status = 1 if pid is None else os.waitpid(pid, 0)[1]
                worker[0] = None
                if status == 0:
                    handle.flush()
                    _append_part(fd, part)
                else:
                    _render_rows(handle, traj, config, start, stop)
        os.replace(tmp_path, out_path)
    except BaseException:
        for pid, *_ in workers:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        os.unlink(tmp_path)
        raise
    finally:
        for _, part, *_ in workers:
            os.close(part)


def cmd_simulate(config: ScenarioConfig, out_path: str) -> int:
    traj = simulate(
        config.masses, config.initial, config.wrench, config.dt, config.t_end
    )
    _write_csv(traj, config, out_path)
    return EXIT_OK


def cmd_transform(config: ScenarioConfig, x: float, y: float) -> int:
    point = StagePoint(x, y)
    cam = stage_to_camera(point, config.calibration)
    img = stage_to_image(point, config.calibration)
    print(f"camera {cam.xc:.17g} {cam.yc:.17g}")
    print(f"image {img.u:.17g} {img.v:.17g}")
    return EXIT_OK


def cmd_verify(samples: int, seed: int) -> int:
    """Stream one report line (plus counterexample on failure) per property."""
    all_passed = True
    for property_id in propcheck.PROPERTIES:
        report = propcheck.check_theorem(property_id, samples=samples, seed=seed)
        print(propcheck.format_report(report))
        all_passed = all_passed and report.passed
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellstage",
        description="Motion-stage transforms, dynamics, and property checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario to CSV")
    p_sim.add_argument("--config", required=True, help="scenario config file")
    p_sim.add_argument("--out", required=True, help="output CSV path")

    p_tr = sub.add_parser("transform", help="map one stage point to camera/image")
    p_tr.add_argument("--config", required=True, help="scenario config file")
    p_tr.add_argument("--x", required=True, type=float, help="stage x coordinate")
    p_tr.add_argument("--y", required=True, type=float, help="stage y coordinate")

    p_ver = sub.add_parser("verify", help="run every registered property check")
    p_ver.add_argument("--samples", type=int, default=propcheck.DEFAULT_SAMPLES)
    p_ver.add_argument("--seed", type=int, default=propcheck.DEFAULT_SEED)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "simulate":
        return cmd_simulate(_load_config(args.config), args.out)
    if args.command == "transform":
        return cmd_transform(_load_config(args.config), args.x, args.y)
    if args.command == "verify":
        return cmd_verify(args.samples, args.seed)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        # Flush here so a reader that closed early surfaces below, not at
        # interpreter shutdown.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; send the rest to devnull so the flush at
        # interpreter shutdown cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (OSError, ParseError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OverflowError as exc:
        print(f"error: simulation diverged: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
