"""Per-layer span tracing for the benchmark's traced runs.

Nothing here changes the program: `install` replaces each traced cellstage
function with a timing wrapper in every cellstage namespace that holds it,
i.e. where its callers look it up (`cli` imports `simulate` by name, `frames`
imports `inverse2` and `mat_vec_mul` by name, so patching only the defining
module would miss those calls). Methods are patched on their class.

Spans nest through an explicit stack, so each span knows its parent and a
layer's self time is its span time minus the time of the spans it caused:
propcheck -> dynamics -> _backend give self times along that chain. A call
into a layer from inside the same layer (frames.stage_to_image calling
frames.transformation_matrix, linalg2.inverse2 calling determinant) is
counted but opens no new span, so a layer's time is measured once, at the
boundary where another layer called into it.

Spans are folded into per-key totals as they close instead of being kept as
records: a 1e5-row simulate opens several hundred thousand spans, and
keeping them would distort the memory metrics of the run being traced.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)

#: Properties whose self time is reported on its own; the rest share one key.
NAMED_PROPERTIES = ("INTEGRATOR_VS_ANALYTIC", "INTEGRATOR_ORDER", "THM4_HOMOG_SOLUTION")

_CLOSED_FORMS = (
    "analytic_homogeneous_solution",
    "analytic_homogeneous_acceleration",
    "analytic_constant_input_solution",
    "analytic_constant_input_acceleration",
)
_DYNAMICS_OTHER = (
    "dynamics_residual",
    "image_dynamics_residual",
    "inertia_matrix",
    "posit_table_matrix_fin",
    "mass_matrix",
    "posit_table_matrix",
)
_FRAMES = (
    "rotation_matrix",
    "displacement_vector",
    "display_resolution_matrix",
    "transformation_matrix",
    "stage_to_camera",
    "camera_to_image",
    "stage_to_image",
    "image_to_stage",
)
_LINALG2 = ("inverse2", "mat_vec_mul", "mat_mul", "determinant")
_RNG_METHODS = ("next_u64", "next_float", "uniform", "log_uniform", "uniform_open_low")


def _rss_mb() -> float:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Tracer:
    """Open-span stack plus per-key self time, inclusive time and counts."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [key, layer, start, child_time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.render_depth = 0
        self.trajectory_mb = 0.0

    def wrap(self, fn, layer, key, count=None, after=None):
        """Timing wrapper for `fn`.

        key: span key, or a function of (args, kwargs) giving it.
        count: counter bumped on every call, including same-layer ones.
        after: called as after(args, kwargs, result) when the call returns.
        """
        stack = self.stack
        self_s = self.self_s
        incl_s = self.incl_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_key = key(args, kwargs) if callable(key) else key
            frame = [span_key, layer, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[2]
                stack.pop()
                self_s[span_key] += duration - frame[3]
                incl_s[span_key] += duration
                if stack:
                    stack[-1][3] += duration
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def counter(self, fn, count):
        """Wrapper that only counts calls to `fn`."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "trajectory_mb": self.trajectory_mb,
        }

    # -- span bodies with side effects -------------------------------------

    def _render(self, fn):
        def render(*args, **kwargs):
            self.render_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.render_depth -= 1

        return functools.update_wrapper(render, fn)

    def _simulate(self, fn):
        def simulate(*args, **kwargs):
            before = _rss_mb()
            result = fn(*args, **kwargs)
            self.trajectory_mb = max(self.trajectory_mb, _rss_mb() - before)
            return result

        return functools.update_wrapper(simulate, fn)

    def _open_for_cli(self):
        """`open` for the cli module: writes and the close are cli.write spans."""
        tracer = self

        class TracedFile:
            def __init__(self, handle):
                self._handle = handle
                self.write = tracer.wrap(self._write, "cli", "cli.write")
                self.close = tracer.wrap(handle.close, "cli", "cli.write")

            def _write(self, data):
                tracer.counts["cli.csv_bytes"] += len(data)
                return self._handle.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def traced_open(file, mode="r", *args, **kwargs):
            handle = open(file, mode, *args, **kwargs)
            return TracedFile(handle) if "w" in mode or "a" in mode else handle

        return traced_open


def install(tracer: Tracer) -> None:
    """Patch every traced cellstage function, in every namespace holding it."""
    from cellstage import _backend, _rng, cli, dynamics, frames, linalg2, propcheck, scenario

    def frames_key(args, kwargs):
        return "frames.render" if tracer.render_depth else "frames.pointwise"

    check_signature = inspect.signature(propcheck.check_theorem)

    def property_key(args, kwargs):
        pid = check_signature.bind(*args, **kwargs).arguments["property_id"]
        return f"propcheck.{pid if pid in NAMED_PROPERTIES else 'other'}"

    def count_samples(args, kwargs, report):
        tracer.counts["propcheck.samples"] += report.samples

    def count_steps(args, kwargs, path):
        tracer.counts["backend.rk4_steps"] += len(path[0]) - 1

    wrap = tracer.wrap
    replace = {
        scenario.parse_config: wrap(scenario.parse_config, "scenario", "scenario.parse"),
        cli.render_trajectory_csv: wrap(
            tracer._render(cli.render_trajectory_csv), "cli", "cli.render"
        ),
        # RSS is read outside the span, so the reads do not count as simulate time.
        dynamics.simulate: tracer._simulate(
            wrap(dynamics.simulate, "dynamics", "dynamics.simulate")
        ),
        _backend.rk4_stage_path: wrap(
            _backend.rk4_stage_path, "backend", "backend.rk4", after=count_steps
        ),
        propcheck.check_theorem: wrap(
            propcheck.check_theorem, "propcheck", property_key, after=count_samples
        ),
        propcheck.format_report: wrap(
            propcheck.format_report, "propcheck", "propcheck.format"
        ),
        _rng.property_stream: wrap(_rng.property_stream, "rng", "rng"),
    }
    for name in _CLOSED_FORMS:
        fn = getattr(dynamics, name)
        replace[fn] = wrap(fn, "dynamics", "dynamics.closed_form", "dynamics.closed_form_calls")
    for name in _DYNAMICS_OTHER:
        fn = getattr(dynamics, name)
        replace[fn] = wrap(fn, "dynamics", "dynamics.other")
    for name in _FRAMES:
        fn = getattr(frames, name)
        replace[fn] = wrap(fn, "frames", frames_key, "frames.calls")
    for name in _LINALG2:
        fn = getattr(linalg2, name)
        key = "linalg2.inverse2" if name == "inverse2" else "linalg2.other"
        replace[fn] = wrap(fn, "linalg2", key, "linalg2.calls")

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "cellstage" or name.startswith("cellstage.")
    ]
    by_id = {id(original): wrapper for original, wrapper in replace.items()}
    for module in modules:
        for name, value in list(vars(module).items()):
            if id(value) in by_id:
                setattr(module, name, by_id[id(value)])

    for name in _RNG_METHODS:
        method = vars(_rng.SplitMix64)[name]
        count = "rng.draws" if name == "next_u64" else None
        setattr(_rng.SplitMix64, name, wrap(method, "rng", "rng", count))
    state_init = dynamics.StageState.__post_init__
    dynamics.StageState.__post_init__ = tracer.counter(state_init, "dynamics.states_built")
    cli.open = tracer._open_for_cli()
