"""Per-layer metrics: the workload commands run in this process, with timers.

Each pass calls `karycount.cli.main` on the workload's full command.  Plain
passes and traced passes alternate; a traced pass first replaces the public
functions each module calls in the next (the CLI command, `Mechanism.feed`,
`vertex_laplace`, `output_keys`, `empirical_mse`, `BatchRunner`, the
lowerbound sampler) by timing wrappers and restores them afterwards.  The
program's code is not changed.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  A parent is charged for a child's whole wrapper, bookkeeping
included, so the tracer's own cost lands in no layer's self time; it shows
as `trace.overhead_pct`, the traced pass's wall time over the plain pass's.
Metrics of a layer the workload never calls read 0.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workloads import Packing

PER_LAYER = {
    "mechanisms.feed_us": "us",
    "mechanisms.feed_p50_us": "us",
    "mechanisms.feed_p99_us": "us",
    "mechanisms.feed_self_us": "us",
    "noise.scalar_us_per_draw": "us",
    "noise.scalar_draws_per_row": "count",
    "mechanisms.ledger_terms_per_row": "count",
    "mechanisms.work_per_row": "count",
    "mechanisms.ledger_high_water": "count",
    "cli.self_us_per_row": "us",
    "mechanisms.output_keys_s": "s",
    "mechanisms.keys_per_output": "count",
    "noise.vector_ns_per_draw": "ns",
    "noise.vector_draws": "count",
    "analysis.self_s": "s",
    "analysis.incidence_mb": "MiB-computed",
    "lowerbound.factory_s": "s",
    "mechanisms.batch_init_self_s": "s",
    "lowerbound.sample_x0_ms": "ms",
    "lowerbound.derive_xi_us": "us",
    "mechanisms.batch_run_ms": "ms",
    "lowerbound.self_ms_per_trial": "ms",
    "mechanisms.batch_rows": "count",
    "mechanisms.batch_keys": "count",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Span totals per name, and the counts read off the calls' results."""

    def __init__(self):
        self.stack: list[float] = []  # wrapped-child time of each open span
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.feed_s: list[float] = []
        self.ledger_terms = 0
        self.mechanism = None  # the last streaming Mechanism fed
        self.noise = {"scalar": [0.0, 0], "vector": [0.0, 0]}  # seconds, draws
        self.key_rows = self.keys = self.unique_keys = 0
        self.batch_shape = (0, 0)
        self.block_end_fn = None

    def span(self, name, fn, after=None):
        """`fn` timed under `name`; `after(args, result, seconds)` runs untimed."""

        def wrapper(*args, **kwargs):
            outer = time.perf_counter()
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.total[name] += dt
                self.child[name] += self.stack.pop()
                self.calls[name] += 1
            if after is not None:
                after(args, result, dt)
            if self.stack:
                self.stack[-1] += time.perf_counter() - outer
            return result

        return wrapper

    def self_s(self, name):
        return self.total[name] - self.child[name]

    # -- hooks reading counts off results -----------------------------------

    def after_feed(self, args, result, dt):
        self.feed_s.append(dt)
        self.mechanism = args[0]
        self.ledger_terms += self.mechanism.ledger_size

    def after_noise(self, args, result, dt):
        kind = "scalar" if isinstance(result, float) else "vector"
        self.noise[kind][0] += dt
        self.noise[kind][1] += 1 if kind == "scalar" else int(np.size(result))

    def after_output_keys(self, args, result, dt):
        self.key_rows = len(result)
        self.keys = sum(map(len, result))
        self.unique_keys = len({p for keys in result for p in keys})

    def after_batch_init(self, args, result, dt):
        self.batch_shape = (len(result.times), len(result.keys))

    def after_factory(self, args, result, dt):
        self.block_end_fn = result


def patches(tr: Tracer, kc):
    """(namespace, name, wrapper) for every call the tracer times."""
    cli, mech, analysis, lb = kc.cli, kc.mechanisms, kc.analysis, kc.lowerbound
    noise = tr.span("noise.vertex_laplace", mech.vertex_laplace, tr.after_noise)
    keys = tr.span("mechanisms.output_keys", mech.output_keys, tr.after_output_keys)
    out = [(cli._COMMANDS, c, tr.span("cli.cmd", cli._COMMANDS[c]))
           for c in ("run", "bench", "lowerbound")]
    out += [
        (mech.Mechanism, "feed", tr.span("mechanisms.feed", mech.Mechanism.feed, tr.after_feed)),
        (mech, "vertex_laplace", noise),
        (analysis, "vertex_laplace", noise),
        (mech, "output_keys", keys),
        (analysis, "output_keys", keys),
        (analysis, "empirical_mse", tr.span("analysis.empirical_mse", analysis.empirical_mse)),
        (lb, "packing_experiment", tr.span("lowerbound.packing", lb.packing_experiment)),
        (lb, "tree_mechanism_factory",
         tr.span("lowerbound.factory", lb.tree_mechanism_factory, tr.after_factory)),
        (lb, "BatchRunner", tr.span("mechanisms.batch_init", mech.BatchRunner, tr.after_batch_init)),
        (mech.BatchRunner, "run", tr.span("mechanisms.batch_run", mech.BatchRunner.run)),
        (lb, "sample_x0", tr.span("lowerbound.sample_x0", lb.sample_x0)),
        (lb, "derive_xi", tr.span("lowerbound.derive_xi", lb.derive_xi)),
    ]
    return out


@contextmanager
def traced(tr: Tracer, kc):
    saved = []
    try:
        for ns, name, wrapper in patches(tr, kc):
            if isinstance(ns, dict):
                saved.append((ns, name, ns[name]))
                ns[name] = wrapper
            else:
                saved.append((ns, name, getattr(ns, name)))
                setattr(ns, name, wrapper)
        yield tr
    finally:
        for ns, name, original in reversed(saved):
            if isinstance(ns, dict):
                ns[name] = original
            else:
                setattr(ns, name, original)


@contextmanager
def stdout_pipe():
    """sys.stdout into an OS pipe drained by a thread; yields a list that gets the text."""
    r, w = os.pipe()
    text: list[str] = []

    def drain():
        with os.fdopen(r, "rb") as fh:
            text.append(fh.read().decode())

    reader = threading.Thread(target=drain)
    reader.start()
    saved, sys.stdout = sys.stdout, open(w, "w")
    try:
        yield text
    finally:
        sys.stdout.close()
        sys.stdout = saved
        reader.join()


def one_pass(kc, argv):
    """(seconds, exit code, stdout) of `karycount <argv>` in this process."""
    with stdout_pipe() as text:
        t0 = time.perf_counter()
        code = kc.cli.main(argv)
        wall = time.perf_counter() - t0
    return wall, code, text[0]


def import_karycount(src: Path):
    sys.path.insert(0, str(src))
    import karycount.analysis
    import karycount.cli
    import karycount.lowerbound
    import karycount.mechanisms

    if Path(karycount.__file__).resolve().parent != (src / "karycount").resolve():
        raise ImportError(f"karycount imported from {karycount.__file__}, not {src}")
    return karycount


def layer_metrics(tr: Tracer, overhead_pct: float) -> dict[str, float]:
    c = tr.calls

    def mean(name, unit_s):
        return tr.total[name] / c[name] / unit_s if c[name] else 0.0

    rows = c["mechanisms.feed"]
    (scalar_s, scalar_n), (vector_s, vector_n) = tr.noise["scalar"], tr.noise["vector"]
    feed_s = np.array(tr.feed_s) if rows else np.zeros(1)
    mech = tr.mechanism
    trials = c["lowerbound.sample_x0"]
    mse_runs = c["analysis.empirical_mse"]
    values = {
        "mechanisms.feed_us": mean("mechanisms.feed", 1e-6),
        "mechanisms.feed_p50_us": float(np.percentile(feed_s, 50)) * 1e6,
        "mechanisms.feed_p99_us": float(np.percentile(feed_s, 99)) * 1e6,
        "mechanisms.feed_self_us": tr.self_s("mechanisms.feed") / rows * 1e6 if rows else 0.0,
        "noise.scalar_us_per_draw": scalar_s / scalar_n * 1e6 if scalar_n else 0.0,
        "noise.scalar_draws_per_row": scalar_n / rows if rows else 0.0,
        "mechanisms.ledger_terms_per_row": tr.ledger_terms / rows if rows else 0.0,
        "mechanisms.work_per_row": mech.work / mech.t if mech else 0.0,
        "mechanisms.ledger_high_water": mech.high_water if mech else 0,
        "cli.self_us_per_row": tr.self_s("cli.cmd") / rows * 1e6 if rows else 0.0,
        "mechanisms.output_keys_s": mean("mechanisms.output_keys", 1.0),
        "mechanisms.keys_per_output": tr.keys / tr.key_rows if tr.key_rows else 0.0,
        "noise.vector_ns_per_draw": vector_s / vector_n * 1e9 if vector_n else 0.0,
        "noise.vector_draws": vector_n // c["cli.cmd"] if c["cli.cmd"] else 0,
        "analysis.self_s": tr.self_s("analysis.empirical_mse") / mse_runs if mse_runs else 0.0,
        # the T x V float64 incidence matrix empirical_mse allocates, from its key sets
        "analysis.incidence_mb": tr.key_rows * tr.unique_keys * 8 / 2**20 if mse_runs else 0.0,
        "lowerbound.factory_s": mean("lowerbound.factory", 1.0),
        "mechanisms.batch_init_self_s": (tr.self_s("mechanisms.batch_init")
                                         / c["mechanisms.batch_init"]
                                         if c["mechanisms.batch_init"] else 0.0),
        "lowerbound.sample_x0_ms": mean("lowerbound.sample_x0", 1e-3),
        "lowerbound.derive_xi_us": mean("lowerbound.derive_xi", 1e-6),
        "mechanisms.batch_run_ms": mean("mechanisms.batch_run", 1e-3),
        "lowerbound.self_ms_per_trial": (tr.self_s("lowerbound.packing") / trials * 1e3
                                         if trials else 0.0),
        "mechanisms.batch_rows": tr.batch_shape[0],
        "mechanisms.batch_keys": tr.batch_shape[1],
        "trace.overhead_pct": overhead_pct,
    }
    assert values.keys() == PER_LAYER.keys()
    return values


def measure(wl, seconds: float, src: Path):
    """Plain and traced in-process passes, in turn, until `seconds` have passed.

    Which of the two goes first alternates from round to round, so that
    neither always runs on a freshly grown heap.
    """
    problems = []
    kc = import_karycount(src)
    argv = wl.full_argv()
    tr = Tracer()
    plain, traced_s = [], []
    attempted = failed = 0
    start = time.perf_counter()
    order = [(plain, False), (traced_s, True)]
    while attempted == 0 or time.perf_counter() - start < seconds:
        for timings, tracing in order:
            attempted += 1
            try:
                if tracing:
                    with traced(tr, kc):
                        wall, code, stdout = one_pass(kc, argv)
                else:
                    wall, code, stdout = one_pass(kc, argv)
            except Exception:  # a crash is a failed operation, reported in full
                traceback.print_exc()
                failed += 1
                continue
            if code != 0:
                failed += 1
            else:
                timings.append(wall)
                problems += wl.check(stdout)
        order.reverse()
    if isinstance(wl, Packing) and tr.block_end_fn is not None:
        problems += wl.mechanism_problems(tr.block_end_fn)
    if not (plain and traced_s):
        return problems, attempted, failed, {}
    p, t = statistics.median(plain), statistics.median(traced_s)
    print(f"# {wl.name}: {len(plain)} plain passes, median {p:.4f} s; "
          f"{len(traced_s)} traced passes, median {t:.4f} s", file=sys.stderr)
    values = layer_metrics(tr, (t - p) / p * 100.0)
    metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in values.items()}
    return problems, attempted, failed, metrics
