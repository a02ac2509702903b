"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest cellbench/test_bench.py -q
"""

import json
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import checks
import compare
import run

ROOT = Path(__file__).resolve().parent.parent
SMALL = run.Sizes(sim_steps=2_000, verify_samples=2, servo_points=300, servo_calibrations=3)


@pytest.fixture(scope="module", autouse=True)
def cellstage_on_path():
    sys.path.insert(0, str(ROOT / "src"))
    yield
    sys.path.remove(str(ROOT / "src"))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, _ = run.measure(workload, run.DEFAULT_SEED, 0, True, ROOT, SMALL)
    second, _ = run.measure(workload, run.DEFAULT_SEED, 0, True, ROOT, SMALL)
    assert first["correct"] and second["correct"]
    counts = [
        {name: result["metrics"][name]["value"] for name in run.COUNT_METRICS}
        for result in (first, second)
    ]
    assert counts[0] == counts[1]
    if workload == "simulate_long":
        assert counts[0]["backend.rk4_steps"] == SMALL.sim_steps
        assert counts[0]["dynamics.states_built"] == SMALL.sim_steps + 1
    elif workload == "verify_suite":
        assert counts[0]["propcheck.samples"] == len(checks.PROPERTY_ORDER) * SMALL.verify_samples
    else:
        assert counts[0]["frames.calls"] > 0 and counts[0]["backend.rk4_steps"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    result, record = run.measure("servo_points", 3, 0, False, ROOT, SMALL)
    spec = run.load_spec()
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert record["meta"]["kernel_backend"] in ("python", "compiled")


@pytest.fixture
def children(tmp_path):
    children = run.Children(ROOT, tmp_path)
    yield children
    children.close()


def test_peak_rss_is_per_child(children):
    big = run.SimulateLong(random.Random(1), run.Sizes(sim_steps=40_000), children)
    small = run.ServoPoints(random.Random(1), SMALL, children)
    ballast = b"\x01" * (100 * 1024 * 1024)  # the spawning side's peak must not leak in
    big_op = big.run(0, traced=False)
    small_op = small.run(1, traced=False)
    del ballast
    assert big_op.ok and small_op.ok
    assert small_op.rss_mb < 30 < big_op.rss_mb


def test_trajectory_check_catches_a_wrong_column(children, tmp_path):
    sim = run.SimulateLong(random.Random(5), SMALL, children)
    out = tmp_path / "out.csv"
    op = children.run("t", ["simulate_long", str(sim.config_path), str(out)], False)
    assert op.ok
    data = out.read_bytes()
    assert checks.trajectory_problems(data, sim.config) == []
    lines = data.decode().split("\n")
    fields = lines[7].split(",")
    fields[7] = repr(float(fields[7]) + 1.0)
    lines[7] = ",".join(fields)
    assert checks.trajectory_problems("\n".join(lines).encode(), sim.config)
    assert checks.trajectory_problems(data[: data.rindex(b"\n", 0, -1) + 1], sim.config)


def test_report_check_catches_fail_and_order():
    line = "{} pass 5 0 1e-12 9"
    good = "".join(line.format(pid) + "\n" for pid in checks.PROPERTY_ORDER)
    assert checks.verify_report_problems(good, 5, 9) == []
    assert checks.verify_report_problems(good.replace(" pass ", " fail ", 1), 5, 9)
    assert checks.verify_report_problems(good, 5, 10)
    swapped = good.split("\n")
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert checks.verify_report_problems("\n".join(swapped), 5, 9)


def test_servo_check_catches_a_bad_round_trip():
    from cellstage import Calibration, StagePoint, image_to_stage, stage_to_camera, stage_to_image

    cal = Calibration(alpha=0.3, dx=1.0, dy=2.0, fx=3.0, fy=0.5)
    coords = array("d", [1.5, -2.0])
    img = stage_to_image(StagePoint(1.5, -2.0), cal)
    back = image_to_stage(img, cal)
    cam = stage_to_camera(back, cal)
    results = array("d", [img.u, img.v, back.x, back.y, cam.xc, cam.yc])
    assert checks.servo_failures(coords, results, [cal]) == 0
    results[2] += 1e-9
    assert checks.servo_failures(coords, results, [cal]) == 1


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "cellbench", tmp_path / "cellbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "cellbench/run.py", "--workload", "servo_points", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    record = {"workload": "servo_points", "trace": 0, "meta": {"kernel_backend": "python"}}
    (tmp_path / "a.jsonl").write_text(json.dumps(record) + "\n")
    record["meta"]["kernel_backend"] = "compiled"
    (tmp_path / "b.jsonl").write_text(json.dumps(record) + "\n")
    assert compare.main([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 2


def test_tail_keeps_ten_samples_above_it():
    assert run.tail_share(400_000) == 0.99
    assert run.tail_share(1_000) == 0.99
    assert run.tail_share(30) == pytest.approx(2 / 3)
    assert run.tail_share(12) == 0.5
    values = list(range(1, 31))
    assert sum(v > run.percentile(values, run.tail_share(30)) for v in values) == 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([7.0], 0.99) == 7.0
    assert run.percentile([1.0, 2.0], 0.5) == 1.0


def test_reference_seconds_scale_each_operation_by_its_probe():
    class CliWorkload:
        units = 100

    ref = run.PROBE_REFERENCE_S
    ops = [
        run.Op(traced=False, ok=True, setup_s=0.1, wall_s=2.0, latency_s=2.5, probe_s=2 * ref),
        run.Op(traced=False, ok=True, setup_s=0.1, wall_s=1.0, latency_s=1.25, probe_s=ref),
        run.Op(traced=False, ok=True, setup_s=0.1, wall_s=0.5, latency_s=0.625, probe_s=ref / 2),
    ]
    metrics, extras = run.summarize(CliWorkload(), ops, trace=False)
    # Each operation took twice its neighbour's seconds on a host running half
    # as fast, so in reference seconds all three are the same.
    assert metrics["wall_ref_s"] == pytest.approx(1.0)
    assert metrics["throughput_ref"] == pytest.approx(100.0)
    assert metrics["latency_tail_ref_us"] == pytest.approx(1.25e6)
    assert metrics["setup_s"] == 0.1
    assert extras["raw"]["wall_s"] == 1.0 and extras["raw"]["probe_s"] == ref
    assert 0.0 < run.host_probe() < 10.0
