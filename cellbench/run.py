#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cellstage.

    python3 cellbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a cellstage source tree; the program under test is the
tree's `src/cellstage`, imported from source in fresh child processes (one
client, one process at a time, closed loop). Workloads:

- simulate_long: `cellstage simulate` on a seed-drawn scenario, 20,000 RK4
  steps (20,001 CSV rows) per command;
- verify_suite: `cellstage verify --samples 40 --seed <drawn from seed>`;
- servo_points: 10,000 seed-drawn (Calibration, StagePoint) pairs per child,
  each mapped stage -> image -> stage -> camera through the library.

Operations run back to back until `--seconds` have passed and at least 3
children have run. With `--trace 1` untraced and traced children alternate,
at least 2 of each, and the per-layer metrics come from the traced ones. Every
operation's output is checked (see checks.py); a failing operation is
counted, not fatal.

The gated timings are in reference seconds (see host_probe): each
operation's times are scaled by how fast the host ran a fixed probe right
before and after it, because the shared hosts this runs on change speed by
a third or more for minutes at a time. Raw seconds are printed and stored
beside them. The last stdout line is the JSON result; the lines above
it are a readable summary. Each run also appends a record with its metadata
to cellbench/runs/results.jsonl, which compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from checks import PROPERTY_ORDER, trajectory_problems, verify_report_problems

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "runs" / "results.jsonl"

#: Seed for routine runs; claims are re-checked on the held-out seed.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9176

MIN_OPS = 3
MIN_TRACED_OPS = 2
#: No operation starts after this many seconds, so a run ends within 180 s.
RUN_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 50.0

SIM_DT = 2.0**-10  # exact in binary, so t = i*dt and the row count are exact


@dataclass(frozen=True)
class Sizes:
    sim_steps: int = 20_000
    verify_samples: int = 40
    servo_points: int = 10_000
    servo_calibrations: int = 8


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


#: host_probe()'s median time on the 2-vCPU x86-64 VM (CPython 3.11) where
#: the benchmark was defined; one reference second is one second there.
PROBE_REFERENCE_S = 0.025


def host_probe() -> float:
    """Seconds this process takes for a fixed piece of interpreter work.

    Float arithmetic, %.17g formatting, list growth and a join: the kinds
    of work the workloads do, but no cellstage code, so no change to the
    program can change it. Run next to each operation, it tells how fast
    the host is running at that moment; PROBE_REFERENCE_S / probe time
    turns the operation's seconds into reference seconds.
    """
    start = now()
    parts = []
    acc = 0.0
    for i in range(20_000):
        x = i * 0.0009765625
        acc = acc * 0.5 + x * x
        parts.append(f"{acc:.17g}")
    ",".join(parts)
    return now() - start


# ---------------------------------------------------------------------------
# inputs


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def random_scenario(rng: random.Random, dt: float, t_end: float) -> str:
    """Scenario config text with seed-drawn masses, calibration, state, wrench.

    Masses stay >= 0.05 kg, so dt/m_eff <= 0.01 and RK4 stays well inside
    the closed form's 1e-6 over 1e5 steps.
    """
    sections = {
        "masses": {key: _log_uniform(rng, 0.05, 2.0) for key in ("mx", "my", "mp")},
        "calibration": {
            "alpha": rng.uniform(-math.pi, math.pi),
            "dx": rng.uniform(0.1, 10.0),
            "dy": rng.uniform(0.1, 10.0),
            "fx": _log_uniform(rng, 0.5, 50.0),
            "fy": _log_uniform(rng, 0.5, 50.0),
        },
        "initial": {
            "x0": rng.uniform(-100.0, 100.0),
            "y0": rng.uniform(-100.0, 100.0),
            "xd0": rng.uniform(-10.0, 10.0),
            "yd0": rng.uniform(-10.0, 10.0),
        },
        "wrench": {key: rng.uniform(-10.0, 10.0) for key in ("taux", "tauy", "fexd", "feyd")},
        "sim": {"dt": dt, "t_end": t_end},
    }
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value:.17g}\n" for key, value in entries.items())
        for name, entries in sections.items()
    )


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Op:
    """One child process: its timings, peak RSS and whether it succeeded."""

    traced: bool
    ok: bool
    problem: str = ""
    setup_s: float = 0.0
    wall_s: float = 0.0
    latency_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    sidecar: dict | None = None
    stdout: bytes = b""
    probe_s: float = 0.0  # mean host_probe() time right before and after

    @property
    def scale(self) -> float:
        """Reference seconds per second of this operation."""
        return PROBE_REFERENCE_S / self.probe_s


class Children:
    """Runs child.py operations in `workdir` through one spawner.py process.

    Peak RSS is each child's own ru_maxrss from os.wait4; RUSAGE_CHILDREN
    would report the largest child reaped so far, so a small run would
    inherit an earlier large one's peak. spawner.py explains why the
    children are not spawned from this process.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.spawner = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, tag: str, args: list[str], traced: bool) -> Op:
        """Run `child.py args[0] TRACE SIDECAR args[1:]` and judge its exit."""
        sidecar = self.workdir / f"{tag}.json"
        out_path = self.workdir / f"{tag}.out"
        err_path = self.workdir / f"{tag}.err"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), args[0], "1" if traced else "0"]
        request = {
            "argv": argv + [str(sidecar), *args[1:]],
            "env": self.env,
            "cwd": str(self.root),
            "stdout": str(out_path),
            "stderr": str(err_path),
            "timeout": CHILD_TIMEOUT_S,
        }
        probe_before = host_probe()
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        probe_after = host_probe()
        stderr = err_path.read_bytes()
        op = Op(traced=traced, ok=False, stdout=out_path.read_bytes())
        op.probe_s = (probe_before + probe_after) / 2
        op.rss_mb = reply["maxrss_kb"] / 1024.0
        op.cpu_s = reply["cpu_s"]
        op.latency_s = reply["t_exit"] - reply["t_spawn"]
        if not reply["exited"]:
            op.problem = f"timed out after {CHILD_TIMEOUT_S:g} s"
        elif reply["status"] != 0 or b"Traceback" in stderr or not sidecar.exists():
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            op.problem = f"exit code {reply['status']}: {tail[0]}"
        else:
            op.sidecar = json.loads(sidecar.read_text())
            module = Path(op.sidecar["module_file"]).resolve()
            if not module.is_relative_to((self.root / "src").resolve()):
                op.problem = f"imported cellstage from {module}, not from this tree"
            else:
                op.ok = True
                op.setup_s = op.sidecar["t_ready"] - reply["t_spawn"]
                op.wall_s = op.sidecar["t_done"] - op.sidecar["t_ready"]
        return op


# ---------------------------------------------------------------------------
# workloads: prepare inputs, run one operation, check it


class Workload:
    """Inputs drawn from a seed, one operation per child, and its checks."""

    unit: str
    units: int  # units of work per operation

    def golden(self) -> Op | None:
        """An extra checked operation run once before the timed loop."""
        return None

    def failed_units(self, op: Op) -> tuple[int, int]:
        """(attempted, failed) units of work for one operation."""
        return 1, (0 if op.ok else 1)


class SimulateLong(Workload):
    """One `cellstage simulate` per operation; the unit is a CSV row."""

    unit = "rows"

    def __init__(self, rng, sizes: Sizes, children: Children):
        self.children = children
        self.config_path = children.workdir / "scenario.cfg"
        text = random_scenario(rng, SIM_DT, sizes.sim_steps * SIM_DT)
        self.config_path.write_text(text)
        from cellstage.scenario import parse_config  # cellstage is on the path only after main()

        self.config = parse_config(text)
        self.units = sizes.sim_steps + 1
        self.checked_digest = None

    def golden(self) -> Op:
        """configs/reference.cfg must reproduce the committed golden CSV."""
        root = self.children.root
        out = self.children.workdir / "golden.csv"
        op = self.children.run(
            "golden", ["simulate_long", str(root / "configs" / "reference.cfg"), str(out)], False
        )
        expected = (root / "tests" / "data" / "reference_trajectory.csv").read_bytes()
        if op.ok and out.read_bytes() != expected:
            op.ok, op.problem = False, "reference output differs from the golden CSV"
        return op

    def run(self, index: int, traced: bool) -> Op:
        out = self.children.workdir / "trajectory.csv"
        args = ["simulate_long", str(self.config_path), str(out)]
        op = self.children.run(f"op{index}", args, traced)
        if op.ok:
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if digest != self.checked_digest:
                # Same inputs give the same bytes, so one full check per
                # distinct output covers every operation.
                problems = trajectory_problems(data, self.config)
                if problems:
                    op.ok, op.problem = False, "; ".join(problems)
                elif self.checked_digest is None:
                    self.checked_digest = digest
                else:
                    op.ok, op.problem = False, "output differs from an earlier identical run"
        out.unlink(missing_ok=True)
        return op


class VerifySuite(Workload):
    """One `cellstage verify` per operation; the unit is a property sample."""

    unit = "property-samples"

    def __init__(self, rng, sizes: Sizes, children: Children):
        self.children = children
        self.samples = sizes.verify_samples
        self.seed = rng.getrandbits(63)
        self.units = len(PROPERTY_ORDER) * self.samples
        self.checked_report = None

    def run(self, index: int, traced: bool) -> Op:
        args = ["verify_suite", str(self.samples), str(self.seed)]
        op = self.children.run(f"op{index}", args, traced)
        if op.ok and op.stdout != self.checked_report:
            problems = verify_report_problems(
                op.stdout.decode("ascii", errors="replace"), self.samples, self.seed
            )
            if problems:
                op.ok, op.problem = False, "; ".join(problems[:3])
            elif self.checked_report is None:
                self.checked_report = op.stdout
            else:
                op.ok, op.problem = False, "report differs from an earlier identical run"
        return op


class ServoPoints(Workload):
    """One child looping over every point; the unit is a point round trip."""

    unit = "points"

    def __init__(self, rng, sizes: Sizes, children: Children):
        self.children = children
        self.config_paths = []
        for k in range(sizes.servo_calibrations):
            path = children.workdir / f"calibration{k}.cfg"
            path.write_text(random_scenario(rng, 0.01, 1.0))
            self.config_paths.append(str(path))
        coords = array("d", (rng.uniform(-100.0, 100.0) for _ in range(2 * sizes.servo_points)))
        self.points_path = children.workdir / "points.bin"
        self.points_path.write_bytes(coords.tobytes())
        self.units = sizes.servo_points
        self.latencies_ns = array("q")
        self.latencies_ref_us = array("d")

    def run(self, index: int, traced: bool) -> Op:
        latency_path = self.children.workdir / f"op{index}.lat"
        args = ["servo_points", str(self.points_path), str(latency_path), *self.config_paths]
        op = self.children.run(f"op{index}", args, traced)
        if op.ok:
            if op.sidecar["points"] != self.units or op.sidecar["bad_points"]:
                op.ok = False
                op.problem = (
                    f"{op.sidecar['bad_points']} of {op.sidecar['points']} points "
                    "outside the FRAMES_ROUND_TRIP/THM3/THM1 tolerances"
                )
            elif not traced:
                with open(latency_path, "rb") as handle:
                    self.latencies_ns.fromfile(handle, self.units)
                to_ref_us = op.scale / 1000.0
                self.latencies_ref_us.extend(
                    ns * to_ref_us for ns in self.latencies_ns[-self.units :]
                )
        latency_path.unlink(missing_ok=True)
        return op

    def failed_units(self, op: Op) -> tuple[int, int]:
        """Every point is an operation; a child that crashed failed them all."""
        if op.sidecar is None:
            return self.units, self.units
        return op.sidecar["points"], op.sidecar["bad_points"]


WORKLOADS = {
    "simulate_long": SimulateLong,
    "verify_suite": VerifySuite,
    "servo_points": ServoPoints,
}

# ---------------------------------------------------------------------------
# metrics

#: Metrics whose value must repeat exactly across traced runs of one seed.
COUNT_METRICS = (
    "backend.rk4_steps",
    "dynamics.states_built",
    "dynamics.closed_form_calls",
    "frames.calls",
    "linalg2.calls",
    "cli.csv_bytes",
    "propcheck.samples",
    "rng.draws",
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_share(n: int) -> float:
    """The highest percentile of n samples with at least ten samples above it.

    At most 0.99, and 0.5 when there are 20 samples or fewer: p99 for the
    servo points, about p60 for a run's few dozen CLI commands, whose
    slowest command alone would make a p99 that no two runs agree on.
    """
    return max(0.5, min(0.99, (n - 10) / n))


def layer_metrics(op: Op) -> dict[str, float]:
    """Per-layer figures of one traced child, over its timed phase.

    Times are self times (a layer's spans minus the spans they caused),
    except frames.* and linalg2.inverse2_s, which include the linalg2 work
    the transforms called, and cli.write_s, the file's write and close calls.
    scenario.parse_s covers set-up, where the inputs are parsed.
    """
    setup, end = op.sidecar["trace_setup"], op.sidecar["trace_end"]

    def timed(kind: str, key: str):
        return end[kind].get(key, 0) - setup[kind].get(key, 0)

    def self_s(key):
        return timed("self_s", key)

    def incl_s(key):
        return timed("incl_s", key)

    def count(key):
        return timed("counts", key)

    rk4_s, steps = self_s("backend.rk4"), count("backend.rk4_steps")
    attributed = sum(end["self_s"].values()) - sum(setup["self_s"].values())
    return {
        "scenario.parse_s": end["self_s"].get("scenario.parse", 0.0),
        "backend.rk4_s": rk4_s,
        "backend.rk4_steps": steps,
        "backend.rk4_steps_per_s": steps / rk4_s if rk4_s > 0 else 0.0,
        "dynamics.simulate_s": self_s("dynamics.simulate"),
        "dynamics.states_built": count("dynamics.states_built"),
        "dynamics.trajectory_mb": end["trajectory_mb"],
        "dynamics.closed_form_s": self_s("dynamics.closed_form"),
        "dynamics.closed_form_calls": count("dynamics.closed_form_calls"),
        "frames.render_s": incl_s("frames.render"),
        "frames.pointwise_s": incl_s("frames.pointwise"),
        "frames.calls": count("frames.calls"),
        "linalg2.inverse2_s": incl_s("linalg2.inverse2"),
        "linalg2.calls": count("linalg2.calls"),
        "cli.format_s": self_s("cli.render"),
        "cli.write_s": incl_s("cli.write"),
        "cli.csv_bytes": count("cli.csv_bytes"),
        "propcheck.INTEGRATOR_VS_ANALYTIC_s": self_s("propcheck.INTEGRATOR_VS_ANALYTIC"),
        "propcheck.INTEGRATOR_ORDER_s": self_s("propcheck.INTEGRATOR_ORDER"),
        "propcheck.THM4_HOMOG_SOLUTION_s": self_s("propcheck.THM4_HOMOG_SOLUTION"),
        "propcheck.other_s": self_s("propcheck.other"),
        "propcheck.format_s": self_s("propcheck.format"),
        "propcheck.samples": count("propcheck.samples"),
        "rng.draws": count("rng.draws"),
        "rng.s": self_s("rng"),
        "unattributed_s": op.wall_s - attributed,
    }


def summarize(workload, ops: list[Op], trace: bool) -> tuple[dict, dict]:
    """(metrics, extras) from the successful operations of one run.

    The *_ref metrics are in reference seconds (Op.scale); extras["raw"]
    holds the same figures in seconds as measured.
    """
    plain = [op for op in ops if op.ok and not op.traced]
    traced = [op for op in ops if op.ok and op.traced]
    extras = {"operations": len(ops), "untraced_ok": len(plain), "traced_ok": len(traced)}
    if not plain or (trace and not traced):
        return {}, extras
    median = statistics.median
    if isinstance(workload, ServoPoints):
        latencies_us = [ns / 1000.0 for ns in workload.latencies_ns]
        latencies_ref_us = workload.latencies_ref_us
    else:
        latencies_us = [op.latency_s * 1e6 for op in plain]
        latencies_ref_us = [op.latency_s * op.scale * 1e6 for op in plain]
    tail = tail_share(len(latencies_us))
    extras["latency_samples"] = len(latencies_us)
    extras["latency_tail_share"] = tail
    extras["raw"] = {
        "wall_s": median(op.wall_s for op in plain),
        "throughput": median(workload.units / op.wall_s for op in plain),
        "latency_p50_us": percentile(latencies_us, 0.50),
        "latency_tail_us": percentile(latencies_us, tail),
        "probe_s": median(op.probe_s for op in plain),
    }
    metrics = {
        "setup_s": median(op.setup_s for op in plain),
        "wall_ref_s": median(op.wall_s * op.scale for op in plain),
        "throughput_ref": median(workload.units / (op.wall_s * op.scale) for op in plain),
        "peak_rss_mb": median(op.rss_mb for op in plain),
        "latency_p50_ref_us": percentile(latencies_ref_us, 0.50),
        "latency_tail_ref_us": percentile(latencies_ref_us, tail),
    }
    if trace:
        per_op = [layer_metrics(op) for op in traced]
        for name in per_op[0]:
            pick = statistics.median_low if name in COUNT_METRICS else median
            metrics[name] = pick(m[name] for m in per_op)
        metrics["trace_overhead"] = (
            median(op.wall_s * op.scale for op in traced) / metrics["wall_ref_s"]
        )
    return metrics, extras


# ---------------------------------------------------------------------------
# run


def load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cellstage").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_rev(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_steal_s() -> float:
    """CPU time the hypervisor took from this machine so far, all CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, sizes=Sizes()):
    """Run one workload; returns (result, record) as printed and stored.

    The record's extras include host_steal_s, the CPU time the hypervisor
    took during the run, and each operation's cpu_s: a run whose wall times
    grew while its CPU times did not was slowed by the host, not the code.
    """
    steal_start = host_steal_s()
    workdir = BENCH_DIR / "runs" / f"tmp-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    children = Children(root, workdir)
    try:
        rng = random.Random(f"cellbench/{name}/{seed}")
        workload = WORKLOADS[name](rng, sizes, children)
        # Compile the package's bytecode once, outside any measurement.
        children.run("warmup", ["verify_suite", "1", "0"], traced=False)
        ops: list[Op] = []
        golden = workload.golden()
        t_start = now()
        while True:
            traced = trace and len(ops) % 2 == 1
            ops.append(workload.run(len(ops), traced))
            elapsed = now() - t_start
            untraced_n = sum(not op.traced for op in ops)
            traced_n = len(ops) - untraced_n
            enough = untraced_n >= MIN_OPS if not trace else traced_n >= MIN_TRACED_OPS
            if elapsed >= RUN_LIMIT_S or (elapsed >= seconds and enough):
                break
    finally:
        children.close()
        shutil.rmtree(workdir, ignore_errors=True)

    all_ops = ops + ([golden] if golden is not None else [])
    attempted = failed = 0
    for op in all_ops:
        units, bad = workload.failed_units(op)
        attempted += units
        failed += bad
    metrics, extras = summarize(workload, ops, trace)
    extras["host_steal_s"] = host_steal_s() - steal_start
    extras["fail_ratio"] = failed / attempted
    extras["success_ratio"] = 1.0 - extras["fail_ratio"]
    problems = [op.problem for op in all_ops if not op.ok]
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {**metrics, "success_ratio": extras["success_ratio"]}
    correct = failed == 0 and all(m["name"] in values for m in wanted)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        },
    }
    backends = sorted({op.sidecar["backend"] for op in all_ops if op.sidecar})
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "unix_time": time.time(),
        "meta": {
            "python": platform.python_version(),
            "kernel_backend": backends[0] if len(backends) == 1 else backends,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_rev": git_rev(root),
            "src_sha256": source_digest(root),
            "unit": workload.unit,
            "units_per_operation": workload.units,
            "sim_rows": sizes.sim_steps + 1,
            "verify_samples": sizes.verify_samples,
            "servo_points": sizes.servo_points,
        },
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "extras": extras,
        "metrics": values,
        "operations": [
            {
                key: getattr(op, key)
                for key in ("traced", "ok", "setup_s", "wall_s", "latency_s", "cpu_s", "rss_mb", "probe_s")
            }
            for op in ops
        ],
    }
    return result, record


def print_summary(result: dict, record: dict) -> None:
    meta = record["meta"]
    print(
        f"cellbench {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"backend={meta['kernel_backend']} python={meta['python']} nproc={meta['nproc']} "
        f"rev={meta['git_rev']} {meta['units_per_operation']} {meta['unit']}/operation"
    )
    extras = record["extras"]
    print(
        f"  operations={extras['operations']} attempted={record['attempted']} "
        f"failed={record['failed']} fail_ratio={extras['fail_ratio']:.6g} "
        f"latency_samples={extras.get('latency_samples', 0)} "
        f"latency_tail=p{100 * extras.get('latency_tail_share', 0):.4g}"
    )
    if "raw" in extras:
        print("  as measured: " + " ".join(f"{k}={v:.6g}" for k, v in extras["raw"].items()))
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = f"{value:>18d}" if isinstance(value, int) else f"{value:>18.6g}"
        print(f"  {name:40s} {shown} {entry['unit']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    needed = [root / "src" / "cellstage" / "__init__.py"]
    if args.workload == "simulate_long":
        needed += [root / "configs" / "reference.cfg", root / "tests" / "data" / "reference_trajectory.csv"]
    missing = [str(path) for path in needed if not path.is_file()]
    if missing:
        print(f"error: not a cellstage source tree, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    RESULTS.parent.mkdir(exist_ok=True)
    with open(RESULTS, "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print_summary(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
