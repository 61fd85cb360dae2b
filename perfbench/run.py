"""karycount benchmark: one workload per call, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy.  With `--trace 0` every workload
command runs as its own `karycount` process, with tracing off: rounds of one
set-up command (the workload cut to one unit of work) and one full command
repeat until S seconds have passed, and the medians give the end-to-end
metrics.  With `--trace 1` the same commands run in this process, once plain
and once with timers around the calls into each module (see `layers.py`),
and the per-layer metrics are printed instead.  Either way every output is
checked against `reference.py`, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread, in this process and in every child: load comes from one
# process and stays within a 2-core machine (must precede the numpy import)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from workloads import SELF_TEST_ROWS, WORKLOADS, Stream, check_stream  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
#: A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: Rounds run even when they overrun `--seconds`, so every median has three samples.
MIN_ROUNDS = 3

END_TO_END = {
    "rows_per_s": "rows/s",
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mib: float
    code: int
    stdout: str
    stderr: str


def invoke(args: list[str]) -> Invocation:
    """Run `karycount <args>` in a fresh process through `spawn.py`.

    Its stdout is read through a pipe.  Wall time runs from spawn to exit;
    peak RSS is this command's alone, from wait4, not the cumulative
    RUSAGE_CHILDREN.
    """
    out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
    with open(err_path, "wb") as err:
        spawner = subprocess.run(
            [sys.executable, "-I", str(HERE / "spawn.py"), str(out_path), str(CHILD_TIMEOUT_S),
             "--", sys.executable, "-m", "karycount.cli", *args],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    r = json.loads(spawner.stdout)
    return Invocation(r["wall_s"], r["peak_rss_mib"], r["code"],
                      out_path.read_text(), err_path.read_text())


def stream_self_test(wl: Stream) -> list[str]:
    """The stream check passes a true release and rejects two false ones.

    A --zero-noise release must fail on its values alone, with its "NOT
    private" header lines ignored.
    """
    failures = []
    for name, argv, passes in wl.self_test_runs():
        run = invoke(argv)
        if run.code != 0:
            failures.append(f"self-test {name}: exit {run.code}: {run.stderr.strip()[-200:]}")
            continue
        expected = wl.cases[SELF_TEST_ROWS][1]
        text = wl.output(run.stdout)
        found = check_stream(text, *expected), check_stream(text, *expected, headers=False)
        if passes and any(found):
            failures.append(f"self-test {name} rejected: {found[0][:2]}")
        if not passes and not all(found):
            failures.append(f"self-test: stream check accepted a {name}")
    return failures


def measure(wl, seconds: float):
    """Rounds of (set-up, full) invocations until `seconds` have passed."""
    if isinstance(wl, Stream):
        problems = stream_self_test(wl)  # also fills the file cache and __pycache__
    else:
        problems = []
        invoke(wl.setup_argv())  # warm-up, untimed
    setups, fulls, rss = [], [], []
    attempted = failed = 0
    start = round_start = time.perf_counter()
    longest = 0.0
    # whole rounds only: the last one starts while it can still end in time
    while attempted < 2 * MIN_ROUNDS or round_start - start + longest <= seconds:
        attempted += 2
        s = invoke(wl.setup_argv())
        if s.code in wl.setup_codes:
            setups.append(s.wall_s)
            problems += wl.check_setup(s.stdout)
        else:
            failed += 1
            print(f"set-up failed: exit {s.code}: {s.stderr.strip()[-300:]}", file=sys.stderr)
        f = invoke(wl.full_argv())
        if f.code == 0:
            fulls.append(f.wall_s)
            rss.append(f.peak_rss_mib)
            problems += wl.check(f.stdout)
        else:
            failed += 1
            print(f"full run failed: exit {f.code}: {f.stderr.strip()[-300:]}", file=sys.stderr)
        now = time.perf_counter()
        longest, round_start = max(longest, now - round_start), now
    metrics = {}
    if setups and fulls:
        setup, full = statistics.median(setups), statistics.median(fulls)
        busy = full - setup
        values = {
            "rows_per_s": wl.rows_per_run / busy,
            "trials_per_s": wl.trials_per_run / busy,
            "setup_s": setup,
            "peak_rss_mb": statistics.median(rss),
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
        print(f"# {wl.name}: full runs {[round(x, 4) for x in fulls]} s; "
              f"set-up runs {[round(x, 4) for x in setups]} s", file=sys.stderr)
    return problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "karycount" / "cli.py").is_file():
        print(f"error: no karycount sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    wl.prepare(args.seed, WORK)
    if args.trace:
        import layers

        problems, attempted, failed, metrics = layers.measure(wl, args.seconds, SRC)
    else:
        problems, attempted, failed, metrics = measure(wl, args.seconds)
    problems = reference.self_test() + problems
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    correct = not problems and bool(metrics)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
