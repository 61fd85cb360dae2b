"""Run the benchmark on a parent commit and on the working tree, in alternating pairs.

Usage: python tools/pairs.py [--rev REV] [--pairs N] [--seed N] [--workload NAME ...]

The parent is `git archive REV` (default HEAD); the change is a copy of
this checkout's working tree: the files git tracks or would add,
uncommitted edits included.  Both sides go to a temporary directory, in
subdirectories "parent" and "change", whose paths have the same length:
the length of a checkout's path alone moves a run's peak RSS by about
0.2 MiB.  For each workload (default: all of BENCHMARK.json's), N pairs
run one after the other, the parent first in odd pairs and the change
first in even ones; each run is `perfbench/run.py --workload NAME --seed N
--seconds S` in its own checkout, S being BENCHMARK.json's run_seconds.
For each side it prints the runs that were not correct or had failed
operations; for every end-to-end metric of BENCHMARK.json, each side's
median and quartiles, the pairs the change wins (a tie counts for neither
side) and whether a gain may be claimed: at least 10 pairs, no more bad
runs on the change's side than on the parent's, the change wins at least
9 of every 10 pairs, and its median is better than the parent's by more
than the distance between the parent's quartiles.  The same table, with
every run's values, goes to stderr as one JSON object.  Nothing here is
edited; each run leaves its files in its temporary checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def copy_working_tree(dest: Path) -> None:
    """Copy the working tree's files that git tracks or would add to `dest`."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, capture_output=True, check=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object `perfbench/run.py` prints last, for one run in `checkout`."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed nothing: {result.stderr[-500:]}")
    return json.loads(lines[-1])


def summary(parent: list[float], change: list[float], higher_is_better: bool,
            bad: dict[str, int]) -> dict:
    """Medians, quartiles, wins and the gain verdict of one metric over its pairs.

    `bad` holds each side's count of runs that were not correct or had
    failed operations; a change with more of them than the parent claims
    no gain, nor does one measured on fewer than 10 pairs.
    """
    sign = 1.0 if higher_is_better else -1.0
    p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
    c1, cm, c3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "median_ratio": cm / pm if pm else None,
        "gain": (len(parent) >= 10 and bad["change"] <= bad["parent"]
                 and 10 * wins >= 9 * len(parent) and gap > p3 - p1),
    }


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] == "higher" for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    archive = subprocess.run(["git", "archive", args.rev], cwd=ROOT, capture_output=True, check=True)
    seconds = benchmark["run_seconds"]
    table = {"rev": args.rev, "seed": args.seed, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(sides["parent"], filter="data")
        copy_working_tree(sides["change"])
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(run_benchmark(sides[side], workload, args.seed, seconds))
                print(f"# {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
            bad = {side: sum(not r["correct"] or r["failed"] for r in runs[side]) for side in runs}
            rows = {"runs": runs, "bad_runs": bad, "metrics": {}}
            for name, higher in metrics.items():
                values = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
                          for side in runs}
                if None in values["parent"] or None in values["change"]:
                    continue  # a run that failed reports no metrics
                rows["metrics"][name] = summary(values["parent"], values["change"], higher, bad)
            table["workloads"][workload] = rows
            print(f"{workload}: {args.pairs} pairs; incorrect or with failed operations:"
                  f" parent {bad['parent']}, change {bad['change']}")
            for name, s in rows["metrics"].items():
                p, c = s["parent"], s["change"]
                print(f"  {name:12s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                      f"  change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                      f"  wins {s['wins']}/{s['pairs']}  gain {'yes' if s['gain'] else 'no'}",
                      flush=True)
    json.dump(table, sys.stderr)
    print(file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
