"""Spawn one command at a time and report its wall time and resource usage.

On exec, Linux folds the parent's resident-set high-water mark into the
child's `ru_maxrss`, so a command spawned by the benchmark process itself,
whose memory grows while it generates inputs and checks outputs, would
report the benchmark's peak instead of its own. The benchmark starts this
small process first and spawns every measured command through it.

Protocol: one JSON request per line on stdin,
{"argv": [...], "env": {...}, "cwd": "...", "stdout": "file", "stderr": "file"};
one JSON reply per line on stdout,
{"returncode": int, "wall_s": float, "cpu_s": float, "maxrss_kb": int}.
The process exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 150  # a command still running then is killed and reported as failed


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], env=request["env"], cwd=request["cwd"],
                                stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
