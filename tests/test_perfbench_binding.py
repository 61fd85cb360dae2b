"""The traced benchmark pass still finds every name it wraps."""

import sys
from pathlib import Path

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
