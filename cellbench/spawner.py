"""Starts and reaps run.py's child processes from a process that stays small.

Reads one JSON request per stdin line, {"argv", "env", "cwd", "stdout",
"stderr", "timeout"}, runs that child to completion (killing it after
`timeout` seconds) and answers with one JSON line {"t_spawn", "t_exit",
"exited", "status", "maxrss_kb", "cpu_s"}; times are CLOCK_MONOTONIC
readings, cpu_s is the child's user plus system time.

The peak RSS comes from the child's own os.wait4 rusage. On Linux a child's
ru_maxrss also holds the peak RSS of the process it was spawned from (exec
records the replaced address space's high-water mark), so spawning from
run.py, which grows while it checks large outputs, would pass run.py's
peak on to small children. This process only ever holds a request, so its
own peak, the floor of every child's, stays that of a bare interpreter.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"]
        )
    status = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], request["timeout"])[0])
        finally:
            os.close(pidfd)
        t_exit = time.clock_gettime(time.CLOCK_MONOTONIC)
        if not exited:
            proc.kill()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "exited": exited,
        "status": proc.returncode,
        "maxrss_kb": rusage.ru_maxrss,
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
