"""Command-line surface.

    cellstage simulate --config F --out F
    cellstage transform --config F --x R --y R
    cellstage verify [--samples N] [--seed N]

Exit codes: 0 ok, 1 property failure, 2 usage/config error (file errors
included), 3 numerical failure, 141 stdout closed by its reader before the
output was written (128 + SIGPIPE, as a shell reports it; nothing is
printed). All numbers are printed with 17 significant digits and a '.'
decimal separator regardless of locale; identical inputs give
byte-identical output. `simulate` replaces --out, through its links and
keeping its mode, only with a complete CSV. It streams the path in
windows of at most 65,536 rows, so its memory does not grow with the
horizon: it integrates each window from the last row of the one before
while forked workers, at most one per usable CPU, render the windows
already integrated (one process on one usable CPU and for outputs under
two 4,096-row chunks). A render chunk of 1,024 rows formats any column
but time whose values all have the same bits once, into its row
template. `verify` forks once per run, one worker per usable CPU
(at most one per sample), splits every property's samples among them and
streams each report line as soon as its ranges are merged. Both fork
through one helper, `_Workers`, and neither's bytes depend on how many
processes ran. No flag or environment variable sets the number of
processes, and there is no environment-variable configuration.
"""

from __future__ import annotations

import argparse
import errno
import marshal
import math
import os
import signal
import stat
import sys
import tempfile
from collections import deque
from itertools import chain, repeat
from pathlib import Path

from . import propcheck
from .dynamics import Trajectory, _path, _row_count
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


#: Rows rendered and written at a time.
_RENDER_ROWS = 1024

#: Fewest rows worth a process of their own: outputs under two of these
#: chunks fork nothing.
_CSV_CHUNK_ROWS = 4096

#: Most rows in one window of `cellstage simulate`, the rows held in memory
#: at a time.
_WINDOW_ROWS = 65_536


def render_trajectory_csv(
    traj: Trajectory, config: ScenarioConfig, start: int = 0, stop: int | None = None
) -> str:
    """CSV text with stage, camera, and image coordinates per sample.

    Renders samples start..stop-1 (all by default); the header line leads
    when the first of them is row 0 of the path. A column other than time
    whose values all have the same bits is formatted once, into the row
    template, which gives the same bytes. Raises DomainError if a camera or
    image coordinate is not finite, naming the first such row of the path.
    """
    rows = slice(start, stop)
    x = traj.x[rows]
    y = traj.y[rows]
    xc, yc = stage_to_camera_columns(x, y, config.calibration)
    u, v = stage_to_image_columns(x, y, config.calibration)
    if not all(map(math.isfinite, chain(xc, yc, u, v))):
        # Row by row, so the error names the first bad row whatever split
        # of the rows into chunks or windows led here.
        for row, values in enumerate(zip(xc, yc, u, v), traj.first + start):
            for name, value in zip(("xc", "yc", "u", "v"), values):
                _require_finite(f"{name}[{row}]", value)
    # Time is never folded: zip over no columns would give no rows.
    varying = [traj.times(start, stop)]
    fields = ["%.17g"]
    for column in (x, y, traj.xdot[rows], traj.ydot[rows], xc, yc, u, v):
        if _constant(column):
            fields.append("%.17g" % column[0])
        else:
            fields.append("%.17g")
            varying.append(column)
    row = ",".join(fields) + "\n"
    body = "".join(map(row.__mod__, zip(*varying)))
    return CSV_HEADER + "\n" + body if traj.first + start == 0 else body


def _constant(column) -> bool:
    """True if the column is not empty and every value has the bits of the
    first, so that %.17g of the first is every row's field."""
    if not column or column[-1] != column[0]:
        return False
    first = column[0]
    if column.count(first) != len(column):
        return False
    # -0.0 == 0.0 but prints as -0.
    return first != 0.0 or len(set(map(math.copysign, repeat(1.0), column))) == 1


def _usable_cpus() -> int:
    """How many CPUs this process may run on, as a cap on forked workers.

    1 off Linux: elsewhere os.fork, os.sched_getaffinity or a file-to-file
    os.sendfile may be missing.
    """
    if sys.platform != "linux":
        return 1
    return len(os.sched_getaffinity(0))


class _Workers:
    """Forked workers, each running one call; use it as a context manager.

    A worker leaves only through os._exit and hands its result back through
    a descriptor its caller opened. On an exception in the with-block every
    live worker is killed; on leaving it, every worker is reaped. Each
    caller keeps its own cap and its own fallback for a failed worker.
    """

    def __init__(self):
        self._pids = []

    def __enter__(self):
        return self

    def spawn(self, fn, *args) -> int | None:
        """Fork a worker that calls fn(*args), with exit status 0 once it
        returns. Returns its pid, or None if no process could be forked."""
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            status = 1
            try:
                fn(*args)
                status = 0
            finally:
                os._exit(status)
        self._pids.append(pid)
        return pid

    def wait(self, pid: int) -> bool:
        """Reap worker pid; True if its call returned."""
        status = os.waitpid(pid, 0)[1]
        self._pids.remove(pid)
        return status == 0

    def __exit__(self, exc_type, exc, tb):
        for pid in self._pids:
            if exc_type is not None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _csv_parts(rows: int) -> int:
    """The fewest windows a CSV of `rows` rows is split into.

    One per usable CPU, but at most one per full chunk, so outputs under
    two chunks fork nothing.
    """
    return max(1, min(_usable_cpus(), rows // _CSV_CHUNK_ROWS))


def _render_window(handle, window: Trajectory, config: ScenarioConfig, start: int):
    """Write the window's rows from row start of the path on to handle,
    _RENDER_ROWS at a time."""
    for first in range(start - window.first, len(window), _RENDER_ROWS):
        handle.write(render_trajectory_csv(window, config, first, first + _RENDER_ROWS))


def _render_part(part, window: Trajectory, config: ScenarioConfig, start: int):
    """_render_window into the open file part."""
    with open(part.fileno(), "w", newline="\n", closefd=False) as handle:
        _render_window(handle, window, config, start)


def _append_part(fd: int, part: int) -> None:
    """Copy all of file `part` to file `fd` at its current offset."""
    size = os.fstat(part).st_size
    offset = 0
    while offset < size:
        offset += os.sendfile(fd, part, offset, size - offset)


#: The pid slot of a part this process rendered itself; os.fork never gives
#: a parent pid 0.
_RENDERED_HERE = 0


def _write_windows(handle, fd: int, config: ScenarioConfig, rows: int, directory: str):
    """Integrate and render the path in windows; see cmd_simulate.

    Each part file is a `tempfile.TemporaryFile` in directory, which no
    name in it shows, so it vanishes when closed or when the process dies.
    """
    m, init, w, dt = config.masses, config.initial, config.wrench, config.dt
    windows = max(_csv_parts(rows), -(-rows // _WINDOW_ROWS))
    bounds = [rows * i // windows for i in range(windows + 1)]
    cpus = _usable_cpus()
    state = (init.x, init.y, init.xdot, init.ydot)
    # [pid, part file, start, stop, state at row start - 1] of each window
    # being rendered into a part, in row order.
    shares = deque()
    path_error = row_error = None

    def window_at(state, start, stop):
        first = max(start - 1, 0)
        return Trajectory(init.t, dt, *_path(m, w, dt, state, first, stop), first=first)

    def append_oldest():
        nonlocal row_error
        pid, part, start, stop, start_state = shares[0]
        rendered = pid == _RENDERED_HERE or (pid is not None and workers.wait(pid))
        shares.popleft()
        try:
            if path_error is None and row_error is None:
                if rendered:
                    handle.flush()
                    _append_part(fd, part.fileno())
                else:
                    window = window_at(start_state, start, stop)
                    _render_window(handle, window, config, start)
        except DomainError as exc:
            row_error = exc
        finally:
            part.close()

    with _Workers() as workers:
        try:
            for start, stop in zip(bounds, bounds[1:]):
                # Each window starts at the previous one's last row, so its
                # time check covers the seam.
                first = max(start - 1, 0)
                columns = _path(m, w, dt, state, first, stop)
                start_state, state = state, tuple(column[-1] for column in columns)
                if path_error is None:
                    try:
                        window = Trajectory(init.t, dt, *columns, first=first)
                    except DomainError as exc:
                        path_error = exc
                # This process holds one window at a time.
                columns = None
                if path_error is not None or row_error is not None:
                    continue
                if stop < rows and cpus > 1:
                    while len(shares) >= cpus:
                        append_oldest()
                    part = tempfile.TemporaryFile(dir=directory, buffering=0)
                    shares.append([None, part, start, stop, start_state])
                    shares[-1][0] = workers.spawn(_render_part, part, window, config, start)
                elif shares:
                    part = tempfile.TemporaryFile(dir=directory, buffering=0)
                    shares.append([None, part, start, stop, start_state])
                    try:
                        _render_part(part, window, config, start)
                        shares[-1][0] = _RENDERED_HERE
                    except DomainError:
                        pass  # rendered again, and raised, in its turn
                else:
                    try:
                        _render_window(handle, window, config, start)
                    except DomainError as exc:
                        # A later divergence or bad time column still wins.
                        row_error = exc
                window = None
            while shares:
                append_oldest()
        finally:
            for _, part, *_ in shares:
                part.close()
    if path_error is not None or row_error is not None:
        raise path_error or row_error


def cmd_simulate(config: ScenarioConfig, out_path: str) -> int:
    """Write the path's CSV to out_path, streamed in windows of rows.

    There are max(_csv_parts(rows), ceil(rows / _WINDOW_ROWS)) equal
    windows. This process integrates each window from the previous one's
    last row; a forked worker renders it into a part file, at most one live
    worker per usable CPU, and this process renders the last window. On one
    usable CPU this process renders every window itself and forks nothing.
    The parts are appended in order, so the bytes do not depend on the
    number of windows. Only a window's start state is kept for it: a window
    whose worker failed or could not be forked is integrated and rendered
    again here. Errors come in the order one process meets them: a divergence
    first, then a bad time or state column, then the first bad row, and
    none is raised before the kernel has finished.

    The CSV goes where open(out_path, "w") would write it: through any
    symbolic links to their final target, which a temporary file
    `.{12 hex digits}.tmp` beside it replaces once complete, so the links
    stay as they were. An existing target keeps its permission bits, not
    its owner; a new one is 0o666 under the umask. On any failure the
    workers are killed and reaped, the temporary file is removed and the
    target is untouched. An out_path that open(out_path, "w") refuses (an
    empty one, a directory, a link loop, a base name over the directory's
    limit) raises the OSError open raises, naming out_path, before any row
    is integrated; so does a directory where the temporary file cannot be
    made. An out_path that exists and is not a regular file, such as a
    FIFO, raises one too and is left as it was.
    """
    rows = _row_count(config.initial, config.dt, config.t_end)
    # Each check raises what open(out_path, "w") raises, before the path is
    # integrated: os.stat raises it for a link loop or a name too long. A
    # FIFO or device is refused rather than replaced.
    if out_path.endswith(os.sep):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    try:
        mode = os.stat(out_path).st_mode
    except FileNotFoundError:
        if not out_path:
            raise  # Its temporary file would go beside the working directory.
        mode = None  # A new file: 0o666 under the umask.
    else:
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
        if not stat.S_ISREG(mode):
            raise OSError(errno.EINVAL, "not a regular file", out_path)
    target = os.path.realpath(out_path)
    directory = os.path.dirname(target)
    tmp_path = os.path.join(directory, f".{os.urandom(6).hex()}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # A missing or unusable directory: name out_path, not the hidden file.
        raise OSError(exc.errno, exc.strerror, out_path) from None
    try:
        if mode is not None:
            os.fchmod(fd, mode & 0o777)
        with open(fd, "w", newline="\n") as handle:
            _write_windows(handle, fd, config, rows, directory)
        os.replace(tmp_path, target)
    except BaseException:
        os.unlink(tmp_path)
        raise
    return EXIT_OK


def cmd_transform(config: ScenarioConfig, x: float, y: float) -> int:
    point = StagePoint(x, y)
    cam = stage_to_camera(point, config.calibration)
    img = stage_to_image(point, config.calibration)
    print(f"camera {cam.xc:.17g} {cam.yc:.17g}")
    print(f"image {img.u:.17g} {img.v:.17g}")
    return EXIT_OK


def _verify_workers(samples: int) -> int:
    """How many processes split each property's samples: one per usable
    CPU, but at most one per sample."""
    return min(_usable_cpus(), samples)


def _scan_into(write_fd: int, seed: int, start: int, stop: int) -> None:
    """Write one marshal record per property, in registry order, of samples
    start..stop-1, to the pipe write_fd."""
    with open(write_fd, "wb") as pipe:
        for property_id in propcheck.PROPERTIES:
            marshal.dump(propcheck._scan(property_id, seed, start, stop), pipe)
            # Each record as it is made: the parent prints as it merges.
            pipe.flush()


def _fork_scanner(workers: _Workers, seed: int, start: int, stop: int):
    """Fork a worker that scans samples start..stop-1 of every property.

    Returns [pipe reader, start, stop]; the reader is None if no process
    could be forked.
    """
    read_fd, write_fd = os.pipe()
    pid = workers.spawn(_scan_into, write_fd, seed, start, stop)
    os.close(write_fd)
    if pid is None:
        os.close(read_fd)
        return [None, start, stop]
    return [open(read_fd, "rb"), start, stop]


def _scanned_share(worker, property_id: str, seed: int):
    """The worker's record for property_id, or its range scanned here.

    A worker that was not forked, died or sent a truncated record has its
    range scanned here, for this and every later property, so the record
    is the one a single process makes.
    """
    pipe, start, stop = worker
    if pipe is not None:
        try:
            return marshal.load(pipe)
        except EOFError:
            pipe.close()
            worker[0] = None
    return propcheck._scan(property_id, seed, start, stop)


def cmd_verify(samples: int, seed: int) -> int:
    """Stream one report line (plus counterexample on failure) per property.

    Each property's samples are split into _verify_workers(samples)
    contiguous ranges. This process scans the first; one worker, forked
    once per run, scans each other range of every property. Each line is
    printed as soon as its ranges are merged, and the bytes do not depend
    on the number of ranges. On any exception the workers are killed and
    reaped; a normal return has reaped them too.
    """
    propcheck._check_run_args(samples, seed)
    parts = _verify_workers(samples)
    bounds = [samples * i // parts for i in range(parts + 1)]
    shares = []
    all_passed = True
    with _Workers() as workers:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                shares.append(_fork_scanner(workers, seed, start, stop))
            for property_id in propcheck.PROPERTIES:
                records = [propcheck._scan(property_id, seed, 0, bounds[1])]
                records += [_scanned_share(s, property_id, seed) for s in shares]
                report = propcheck._report(property_id, samples, seed, records)
                print(propcheck.format_report(report))
                all_passed = all_passed and report.passed
        finally:
            for pipe, *_ in shares:
                if pipe is not None:
                    pipe.close()
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
