"""One benchmark operation, run in a fresh interpreter by run.py.

    python3 cellbench/child.py simulate_long TRACE SIDECAR CONFIG OUT
    python3 cellbench/child.py verify_suite  TRACE SIDECAR SAMPLES SEED
    python3 cellbench/child.py servo_points  TRACE SIDECAR POINTS LATENCIES CONFIG...

Set-up runs from interpreter start through `import cellstage` to the inputs
being parsed; `t_ready` is taken right before the first timed call and
`t_done` right after the last. Both are CLOCK_MONOTONIC readings, which are
comparable with the parent's, so the parent times set-up from the moment it
spawned this process. The CLI workloads go through the CLI's own argument
parser and config loader in set-up and then call the command function that
`cellstage.cli.main` dispatches to; the command's stdout is this process's
stdout. An exception is left to escape: the traceback and the nonzero exit
code mark the operation as failed. Timings and check results go to the
SIDECAR JSON file, written after `t_done`.
"""

import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_simulate(cellstage, ready, config_path, out_path):
    from pathlib import Path

    from cellstage import cli, scenario

    args = cli.build_parser().parse_args(
        ["simulate", "--config", config_path, "--out", out_path]
    )
    config = scenario.parse_config(Path(args.config).read_bytes())
    t_ready = ready()
    code = cli.cmd_simulate(config, args.out)
    t_done = now()
    return t_ready, t_done, {"exit_code": code}


def run_verify(cellstage, ready, samples, seed):
    from cellstage import cli

    args = cli.build_parser().parse_args(["verify", "--samples", samples, "--seed", seed])
    t_ready = ready()
    code = cli.cmd_verify(args.samples, args.seed)
    sys.stdout.flush()
    t_done = now()
    return t_ready, t_done, {"exit_code": code}


def run_servo(cellstage, ready, points_path, latency_path, *config_paths):
    """Stage point -> image -> stage -> camera, one round trip per point.

    Point i uses calibration i mod len(config_paths). Each round trip is
    timed on its own; the per-point latencies go to LATENCIES as int64 ns.
    """
    from array import array
    from pathlib import Path

    from cellstage import scenario

    calibrations = [
        scenario.parse_config(Path(path).read_bytes()).calibration for path in config_paths
    ]
    coords = array("d")
    coords.frombytes(Path(points_path).read_bytes())
    n = len(coords) // 2
    k = len(calibrations)
    latencies = array("q", bytes(8 * n))
    results = array("d", bytes(8 * 6 * n))
    StagePoint = cellstage.StagePoint
    stage_to_image = cellstage.stage_to_image
    image_to_stage = cellstage.image_to_stage
    stage_to_camera = cellstage.stage_to_camera
    clock = time.perf_counter_ns
    t_ready = ready()
    for i in range(n):
        cal = calibrations[i % k]
        start = clock()
        point = StagePoint(coords[2 * i], coords[2 * i + 1])
        img = stage_to_image(point, cal)
        back = image_to_stage(img, cal)
        cam = stage_to_camera(back, cal)
        latencies[i] = clock() - start
        j = 6 * i
        results[j] = img.u
        results[j + 1] = img.v
        results[j + 2] = back.x
        results[j + 3] = back.y
        results[j + 4] = cam.xc
        results[j + 5] = cam.yc
    t_done = now()
    with open(latency_path, "wb") as handle:
        latencies.tofile(handle)

    import checks

    bad = checks.servo_failures(coords, results, calibrations)
    return t_ready, t_done, {"points": n, "bad_points": bad}


RUNNERS = {
    "simulate_long": run_simulate,
    "verify_suite": run_verify,
    "servo_points": run_servo,
}


def main(argv) -> int:
    workload, trace, sidecar, *inputs = argv
    import cellstage

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    record = {}

    def ready() -> float:
        # Whatever the tracer saw up to here happened in set-up.
        if tracer is not None:
            record["trace_setup"] = tracer.snapshot()
        return now()

    t_ready, t_done, extra = RUNNERS[workload](cellstage, ready, *inputs)
    if tracer is not None:
        record["trace_end"] = tracer.snapshot()

    import json

    record.update(
        t_ready=t_ready,
        t_done=t_done,
        backend=cellstage.kernel_backend(),
        module_file=cellstage.__file__,
        **extra,
    )
    with open(sidecar, "w") as handle:
        json.dump(record, handle)
    return extra.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
