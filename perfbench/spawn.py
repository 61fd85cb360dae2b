"""Run one command, timing it and taking its peak RSS; stdlib only.

    python3 -I spawn.py OUT TIMEOUT_S -- COMMAND...

Reads the command's stdout through a pipe into the file OUT and prints one
JSON line: {"wall_s", "peak_rss_mib", "code"}.

Why a separate small process: Linux records the parent's memory high-water
mark in a child's ru_maxrss when the child execs, so a command spawned by
the benchmark, which holds large reference arrays, would report at least the
benchmark's own peak.  This process stays small, so the peak it reports is
the command's own.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    out_path, timeout = sys.argv[1], float(sys.argv[2])
    if sys.argv[3] != "--":
        print("usage: spawn.py OUT TIMEOUT_S -- COMMAND...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[4:], stdout=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(out_path, "wb") as fh:
        fh.write(out)
    print(json.dumps({"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0, "code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
