#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two.

    python3 cellbench/compare.py BASE.jsonl [NEW.jsonl]

Each file holds run records as run.py appends them to
cellbench/runs/results.jsonl. Untraced runs are grouped per workload; for
every end-to-end metric in BENCHMARK.json the summary gives the median, the
quartiles (statistics.quantiles, n=4) and the spread, the quartile distance
as a share of the median, and flags a spread above the metric's bound. Traced
runs are checked for counts that repeat exactly between runs of one seed.

With two files, each metric's median in NEW is compared with BASE: where
either side's spread is wider than the bound the pairing is unresolved,
otherwise a change for the worse larger than the bound is a regression. Runs are only
paired when every run on both sides used the same kernel backend; otherwise
the comparison is refused.

Exit code: 0 ok, 1 a spread above its bound, a failed run, a count that did
not repeat or a regression, 2 comparison refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import COUNT_METRICS, load_spec


def load(path: str) -> dict[str, list[dict]]:
    by_workload = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload[record["workload"]].append(record)
    return by_workload


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread); spread is (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def backends(records: list[dict]) -> set[str]:
    return {json.dumps(r["meta"]["kernel_backend"]) for r in records}


def summarize(label: str, by_workload: dict[str, list[dict]], spec: dict) -> tuple[dict, bool]:
    """Print one set; return ({(workload, metric): stats}, all_good)."""
    good = True
    table = {}
    for workload, records in sorted(by_workload.items()):
        plain = [r for r in records if not r["trace"]]
        traced = [r for r in records if r["trace"]]
        failed = [r for r in records if not r["correct"] or r["failed"]]
        steal = statistics.median(r["extras"].get("host_steal_s", 0.0) for r in records)
        print(
            f"{label} {workload}: {len(plain)} untraced, {len(traced)} traced runs, "
            f"backend {', '.join(sorted(backends(records)))}, "
            f"median host steal {steal:.2f} s per run"
        )
        for r in failed:
            good = False
            print(f"  run seed={r['seed']} failed {r['failed']}/{r['attempted']}: {r['problems'][:2]}")
        for metric in spec["end_to_end"] if plain else []:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in plain if name in r["metrics"]]
            if not values:
                continue
            median, q1, q3, spread = stats(values)
            table[workload, name] = (median, spread)
            flag = ""
            if spread > bound and name != "setup_s":
                flag, good = "  SPREAD ABOVE BOUND", False
            elif spread > bound / 3:
                flag = "  spread above bound/3"
            print(
                f"  {name:16s} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                f"spread {spread:7.2%} (bound {bound:.0%}){flag}"
            )
        by_seed = defaultdict(list)
        for r in traced:
            by_seed[r["seed"]].append(r)
        for seed, runs in sorted(by_seed.items()):
            for name in COUNT_METRICS:
                seen = {r["metrics"].get(name) for r in runs}
                if len(seen) > 1:
                    good = False
                    print(f"  traced seed={seed}: {name} did not repeat: {sorted(seen)}")
        if traced:
            for metric in spec["per_layer"]:
                values = [r["metrics"][metric["name"]] for r in traced]
                print(f"  {metric['name']:36s} median {statistics.median(values):.10g} {metric['unit']}")
    return table, good


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load(path) for path in argv]
    if len(sets) == 2:
        for workload in sets[0].keys() & sets[1].keys():
            mixed = backends(sets[0][workload]) | backends(sets[1][workload])
            if len(mixed) > 1:
                print(f"refused: {workload} runs used different kernel backends {sorted(mixed)}")
                return 2
    tables = []
    good = True
    for label, runs in zip(("BASE", "NEW"), sets):
        table, ok = summarize(label, runs, spec)
        tables.append(table)
        good = good and ok
    if len(tables) == 2:
        base, new = tables
        print("NEW vs BASE (change for the worse, as a share of BASE's median)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            for workload, _ in sorted(k for k in base if k[1] == name):
                if (workload, name) not in new:
                    continue
                (b_med, b_spread), (n_med, n_spread) = base[workload, name], new[workload, name]
                worse = sign * (n_med - b_med) / b_med if b_med else 0.0
                if max(b_spread, n_spread) > bound:
                    verdict = "unresolved"
                elif worse <= bound:
                    verdict = "ok"
                else:
                    verdict, good = "REGRESSION", False
                print(f"  {workload:14s} {name:16s} {worse:+8.2%} (bound {bound:.0%}) {verdict}")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
