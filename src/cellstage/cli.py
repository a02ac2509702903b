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
windows of at most 65,536 rows, each from the last row of the one before:
forked workers, at most one per usable CPU, each integrate and render a
window, while this process integrates through it again to reach the next
window's start and renders the last window itself (one process on one
usable CPU and for outputs under two 4,096-row chunks). Every process
integrates, checks and renders one 4,096-row kernel round at a time and
holds no more, so memory does not grow with the horizon or the window.
A render chunk of 1,024 rows formats any column
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
from itertools import repeat
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
from .linalg2 import _require_finite_rows
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
#: chunks fork nothing. Also the rows integrated, checked and rendered at a
#: time, one round of the kernel's `_ROUND_STEPS`.
_CSV_CHUNK_ROWS = 4096

#: Most rows in one window of `cellstage simulate`, the rows one forked
#: worker streams into its part file.
_WINDOW_ROWS = 65_536


def render_trajectory_csv(
    traj: Trajectory, config: ScenarioConfig, start: int = 0, stop: int | None = None
) -> bytes:
    """CSV bytes with stage, camera, and image coordinates per sample.

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
    # Named by path row, so whatever split of the rows into chunks or
    # windows led here, the error names the same row.
    _require_finite_rows(("xc", "yc", "u", "v"), (xc, yc, u, v), traj.first + start)
    # Time is never folded: zip over no columns would give no rows.
    varying = [traj.times(start, stop)]
    fields = [b"%.17g"]
    for column in (x, y, traj.xdot[rows], traj.ydot[rows], xc, yc, u, v):
        if _constant(column):
            fields.append(b"%.17g" % column[0])
        else:
            fields.append(b"%.17g")
            varying.append(column)
    row = b",".join(fields) + b"\n"
    body = b"".join(map(row.__mod__, zip(*varying)))
    return CSV_HEADER.encode() + b"\n" + body if traj.first + start == 0 else body


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


def _processes(units: int) -> int:
    """How many processes share `units` units of work: one per usable CPU,
    but at most one per unit, and at least one."""
    return max(1, min(_usable_cpus(), units))


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


def _render_window(handle, window: Trajectory, config: ScenarioConfig, start: int):
    """Write the window's rows from row start of the path on to handle,
    _RENDER_ROWS at a time."""
    for first in range(start - window.first, len(window), _RENDER_ROWS):
        handle.write(render_trajectory_csv(window, config, first, first + _RENDER_ROWS))


def _into_part(part, render, *args):
    """render(handle, *args) with handle writing to the open file part;
    returns what render returns."""
    with open(part.fileno(), "wb", closefd=False) as handle:
        return render(handle, *args)


def _checked_rounds(config: ScenarioConfig, state, start: int, stop: int, errors):
    """Integrate rows start..stop-1 of the path one kernel round of
    _CSV_CHUNK_ROWS rows at a time, and yield (begin, state, rows) for each
    round: its first row, the state at its last row, and the round as a
    Trajectory whose times passed their check, or None once a time error is
    kept.

    state is (x, y, xdot, ydot) at row max(start - 1, 0); each round starts
    one row early, so its time check covers the seam. The first DomainError
    of the time checks is kept in errors[0], and from then on nothing more
    is checked, but every round is integrated, so a later divergence still
    raises its OverflowError. A caller drops each round's rows before it
    asks for the next, so at most one round is held.
    """
    m, w, dt, t0 = config.masses, config.wrench, config.dt, config.initial.t
    for begin in range(start, stop, _CSV_CHUNK_ROWS):
        first = max(begin - 1, 0)
        columns = _path(m, w, dt, state, first, min(begin + _CSV_CHUNK_ROWS, stop))
        state = tuple(column[-1] for column in columns)
        rows = None
        if errors[0] is None:
            try:
                rows = Trajectory(t0, dt, *columns, first=first)
            except DomainError as exc:
                errors[0] = exc
        yield begin, state, rows
        # Freed before the next round is integrated.
        columns = rows = None


def _stream_rows(handle, config: ScenarioConfig, state, start: int, stop: int, errors):
    """Integrate rows start..stop-1 of the path and render them to handle,
    one round of _checked_rounds at a time.

    errors is [time error, row error], each None until the first DomainError
    of the time checks or of the rendering, which is kept there; once
    either is set nothing more is rendered. Returns the state at row
    stop - 1.
    """
    for begin, state, rows in _checked_rounds(config, state, start, stop, errors):
        if not any(errors):
            try:
                _render_window(handle, rows, config, begin)
            except DomainError as exc:
                errors[1] = exc
        rows = None
    return state


def _stream_part(part, config: ScenarioConfig, state, start: int, stop: int):
    """A worker's call: _stream_rows into the open file part. It raises
    the first error it kept, so the worker fails and this process streams
    the window again in its turn, where the error takes its place in one
    process's order."""
    errors = [None, None]
    _into_part(part, _stream_rows, config, state, start, stop, errors)
    if any(errors):
        raise errors[0] or errors[1]


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

    A worker is forked for each window but the last when more than one CPU
    is usable; it streams the window into its part file with _stream_rows,
    integrating its own rows from the window's start state. This process
    then runs the same rounds through the window, keeping only the state
    and checking the times in row order, and renders the rest through
    _stream_rows: the last window, into its part file when workers exist;
    every window on one usable CPU; and the window of a worker that failed
    or could not be forked. Each part file is a `tempfile.TemporaryFile` in
    directory, which no name in it shows, so it vanishes when closed or
    when the process dies.
    """
    init = config.initial
    windows = max(_processes(rows // _CSV_CHUNK_ROWS), -(-rows // _WINDOW_ROWS))
    bounds = [rows * i // windows for i in range(windows + 1)]
    cpus = _usable_cpus()
    state = (init.x, init.y, init.xdot, init.ydot)
    # [pid, part file, start, stop, state at row start - 1] of each window
    # being rendered into a part, in row order.
    shares = deque()
    # [time error, row error], as _stream_rows keeps them.
    errors = [None, None]

    def append_oldest():
        pid, part, start, stop, start_state = shares[0]
        rendered = pid == _RENDERED_HERE or (pid is not None and workers.wait(pid))
        shares.popleft()
        try:
            if not any(errors):
                if rendered:
                    handle.flush()
                    _append_part(fd, part.fileno())
                else:
                    _stream_rows(handle, config, start_state, start, stop, errors)
        finally:
            part.close()

    with _Workers() as workers:
        try:
            for start, stop in zip(bounds, bounds[1:]):
                if not any(errors) and stop < rows and cpus > 1:
                    # A worker's window: integrated and rendered there, only
                    # integrated and time-checked here.
                    while len(shares) >= cpus:
                        append_oldest()
                    part = tempfile.TemporaryFile(dir=directory, buffering=0)
                    shares.append([None, part, start, stop, state])
                    shares[-1][0] = workers.spawn(_stream_part, part, config, state, start, stop)
                    for _, state, checked in _checked_rounds(config, state, start, stop, errors):
                        checked = None  # Dropped before the next round is integrated.
                elif not any(errors) and shares:
                    # The last window, into a part while the workers render.
                    part = tempfile.TemporaryFile(dir=directory, buffering=0)
                    shares.append([None, part, start, stop, state])
                    found = [None, None]
                    state = _into_part(part, _stream_rows, config, state, start, stop, found)
                    # A bad row is found again, and kept, in its turn.
                    errors[0] = found[0]
                    if not any(found):
                        shares[-1][0] = _RENDERED_HERE
                else:
                    # Into the output, or once an error is kept, only
                    # integrated and checked.
                    state = _stream_rows(handle, config, state, start, stop, errors)
            while shares:
                append_oldest()
        finally:
            for _, part, *_ in shares:
                part.close()
    if any(errors):
        raise errors[0] or errors[1]


def cmd_simulate(config: ScenarioConfig, out_path: str) -> int:
    """Write the path's CSV to out_path, streamed in windows of rows.

    There are max(_processes(rows // _CSV_CHUNK_ROWS), ceil(rows /
    _WINDOW_ROWS)) equal windows, so outputs under two chunks are one
    window. A forked worker, at most one live per usable CPU, integrates
    each window but the last from the previous one's last row and renders
    it into a part file; this process integrates the same rows again, to
    check their times in row order and reach the next window's start
    state, and renders the last window itself. On one usable CPU this
    process renders every window itself and forks nothing. The parts are
    appended in order, so the bytes do not depend on the number of
    windows. Only a window's start state is kept for it: a window whose
    worker failed, met an error or could not be forked is integrated and
    rendered again here, in its turn. Every process integrates, checks and
    renders one kernel round of _CSV_CHUNK_ROWS rows at a time and holds at
    most one round of rows. Errors come in the order one process meets
    them: a divergence first, then a bad time or state column, then the
    first bad row, and none is raised before the kernel has finished.

    The CSV goes where open(out_path, "w") would write it: through any
    symbolic links to their final target, which a temporary file
    `.{12 hex digits}.tmp` beside it replaces once complete, so the links
    stay as they were. A hard link is not written through: the target
    becomes a new file and its other names keep the old bytes. An existing
    target keeps its permission bits, not its owner; a new one is 0o666
    under the umask. On any failure the workers are killed and reaped, the
    temporary file is removed and the target is untouched. An out_path that
    open(out_path, "w") refuses (an empty one, a directory, a link loop, a
    base name over the directory's limit) raises the OSError open raises,
    naming out_path, before any row is integrated; so does a directory where
    the temporary file cannot be made. An out_path that exists and is not a
    regular file, such as a FIFO, raises one too and is left as it was.
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
        with open(fd, "wb") as handle:
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

    A range with no live worker is scanned here, so the record is the one a
    single process makes: this process's own (pipe None), and from then on
    one whose worker was not forked, died or sent a truncated record.
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

    Each property's samples are split into _processes(samples) contiguous
    ranges: one per usable CPU, at most one per sample. This process scans
    the first; one worker, forked once per run, scans each other range of
    every property. Each line is printed as soon as its ranges are merged,
    and the bytes do not depend on the number of ranges. On any exception
    the workers are killed and reaped; a normal return has reaped them too.
    """
    propcheck._check_run_args(samples, seed)
    parts = _processes(samples)
    bounds = [samples * i // parts for i in range(parts + 1)]
    shares = [[None, 0, bounds[1]]]
    all_passed = True
    with _Workers() as workers:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                shares.append(_fork_scanner(workers, seed, start, stop))
            for property_id in propcheck.PROPERTIES:
                records = [_scanned_share(s, property_id, seed) for s in shares]
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
