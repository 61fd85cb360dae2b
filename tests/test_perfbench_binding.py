"""The traced benchmark pass still finds every name it wraps."""

import sys
from pathlib import Path

import pytest

import karycount
import karycount.analysis
import karycount.cli
import karycount.lowerbound
import karycount.mechanisms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_binds(monkeypatch):
    # `perfbench/run.py --trace 1` replaces these names by timing wrappers;
    # a renamed or deleted one would break that run, not this suite
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    import layers

    bound = layers.patches(layers.Tracer(), karycount)
    assert bound
    for namespace, name, _ in bound:
        if isinstance(namespace, dict):
            assert name in namespace
        else:
            assert hasattr(namespace, name), f"{namespace!r} has no {name}"


@pytest.mark.parametrize("name", ["mc-mse-even20", "packing-lowerbound"])
def test_traced_benchmark_passes_on_the_batch_workloads(name, tmp_path, monkeypatch):
    # one plain and one traced in-process pass of the full command: no
    # operation fails and no check finds a problem, the lowerbound's
    # mechanism included, which the traced pass checks against the reference
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "path", list(sys.path))  # `measure` prepends src/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers
    import workloads

    wl = workloads.WORKLOADS[name]
    wl.prepare(1, tmp_path)
    problems, attempted, failed, metrics = layers.measure(wl, 0.0, PERFBENCH.parent / "src")
    assert (problems, attempted, failed) == ([], 2, 0)
    if name == "packing-lowerbound":
        # read off `BatchRunner.times` and `.keys`: 320 block ends, 1,429 keys
        assert metrics["mechanisms.batch_rows"]["value"] == 320
        assert metrics["mechanisms.batch_keys"]["value"] == 1429
