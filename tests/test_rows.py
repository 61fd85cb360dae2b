"""`rows.row_bytes` against the `%` formatter of `karyref`, byte for byte.

The numpy path formats a block whose estimates all lie in 1 <= |x| < 2^53;
`%` formats any other block.  Each test says which path it expects, by
making the fallback raise where it must not run.
"""

import io
import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from karycount import cli, rows
from karycount.mechanisms import BlockNoise, MechanismConfig

import karyref

SRC = Path(cli.__file__).resolve().parents[1]


def numpy_path_only():
    """A context in which a block formatted by `%` fails the test."""
    return mock.patch.object(rows, "_percent_rows", side_effect=AssertionError("fell back to %"))


def check(t, est, counts=None):
    est = np.asarray(est, dtype=np.float64)
    want = karyref.format_rows(t, est, counts).encode()
    assert rows.row_bytes(t, est, counts) == want
    return want


def from_bits(sign: int, biased: int, mantissa: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | biased << 52 | mantissa))[0]


IN_RANGE = st.builds(
    from_bits,
    st.integers(0, 1),
    st.integers(1023, 1075),  # 2^0 <= |x| < 2^53
    st.integers(0, 2**52 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(IN_RANGE, min_size=1, max_size=60),
    t=st.sampled_from([0, 9, 99_990, 2**40, 2**63 - 1000]),
    with_counts=st.booleans(),
)
@example(values=[1.0], t=0, with_counts=False)
@example(values=[2.0**53 - 1, -(2.0**53 - 1)], t=0, with_counts=True)
@example(values=[float.fromhex("0x1.fffffffffffffp+52")], t=0, with_counts=False)
def test_every_bit_pattern_in_range_is_percent(values, t, with_counts):
    # any float64 with 1 <= |x| < 2^53, alone or among others of any other
    # width, gives the bytes of "%.17g" % x
    counts = np.arange(len(values)) * 7_919 if with_counts else None
    with numpy_path_only():
        check(t, values, counts)
    for x in values:
        with numpy_path_only():
            assert rows.row_bytes(t, np.array([x])) == b"%d,%s\n" % (t + 1, b"%.17g" % x)


def edge_values():
    """Values where digits carry, round to even, end in zeros or change width."""
    out = []
    for j in range(16):  # one ulp either side of each power of ten below 2^53
        p = 10.0**j
        out += [p, math.nextafter(p, math.inf)]
        if j:
            out.append(math.nextafter(p, 0))
    for n in range(1, 54):  # powers of two and 2^n - 1 up to 2^53
        out += [2.0**n - 1, 2.0 ** min(n, 52)]
    out += [float(m) for m in (1, 2, 9, 10, 99, 100, 123_456_789, 10**15, 2**53 - 1)]
    rng = np.random.default_rng(1)
    for decimals in range(6):  # values rounded to 0-5 decimals: fractions that end in zeros
        out += np.round(rng.uniform(1, 1e6, 200), decimals).tolist()
        out += np.round(rng.uniform(1, 10, 50), decimals).tolist()
    out += [1.5, 2.5, 0.5 + 2**52, 1 + 2.0**-52, 9.999999999999998, 4503599627370495.5]
    return out


@pytest.mark.parametrize("t", [0, 9, 99_990, 2**40])
def test_edge_values_are_percent(t):
    values = edge_values()
    values += [-x for x in values]
    est = np.array(values)
    counts = np.arange(len(est)) * 1_001
    with numpy_path_only():
        check(t, est, counts)
        check(t, est)
        for x in values:  # each alone: a block of one width
            check(t, [x])


@pytest.mark.parametrize("t", [0, 5, 95, 995, 99_995, 999_999_995, 10**18 - 5])
def test_times_and_counts_that_cross_a_power_of_ten_in_a_block(t):
    est = np.full(10, 12345.678)
    counts = np.arange(t - 3, t + 7).clip(0)
    with numpy_path_only():
        want = check(t, est, counts)
    assert want.split(b",", 1)[0] == b"%d" % (t + 1)


@pytest.mark.parametrize("value", [0.0, -0.0, 0.5, -0.999, 5e-324, 2.0**53, -(2.0**53),
                                   1e300, math.inf, -math.inf, math.nan])
def test_a_block_with_a_value_out_of_range_falls_back_to_percent(value):
    est = np.array([3.25, value, 17.0])
    with mock.patch.object(rows, "_percent_rows", wraps=rows._percent_rows) as percent:
        check(9, est, np.array([1, 2, 3]))
    assert percent.call_count == 1


def test_empty_block_is_empty():
    assert rows.row_bytes(7, np.zeros(0)) == b""
    assert rows.row_bytes(7, np.zeros(0), np.zeros(0, dtype=np.int64)) == b""


# -- whole releases ---------------------------------------------------------


def reference_release(argv, bits, seed):
    """The bytes `run` writes: its header lines and `karyref.format_rows` of `BlockNoise`'s noise."""
    opts = dict(zip(argv[::2], argv[1::2]))
    with_true, zero_noise = "--with-true" in argv, "--zero-noise" in argv
    cfg = MechanismConfig(cli._VARIANTS[opts["--variant"]], int(opts["--k"]), len(bits), 1.0,
                          seed=seed, zero_noise=zero_noise)
    engine = BlockNoise(cfg)
    counts = np.cumsum(bits, dtype=np.int64)
    text = [f"# seed={seed}\n"]
    if zero_noise:
        text.append("# zero-noise: outputs are NOT private\n")
    if with_true:
        text.append("# with-true: true prefix sums included, NOT private\n")
    text.append("t,estimate,true\n" if with_true else "t,estimate\n")
    for a in range(0, len(bits), 50_000):
        b = min(a + 50_000, len(bits))
        est = counts[a:b] + engine(np.arange(a + 1, b + 1))
        text.append(karyref.format_rows(a, est, counts[a:b] if with_true else None))
    return "".join(text).encode()


def bits_file(path, bits):
    path.write_text("\n".join(map(str, bits.tolist())) + "\n")
    return path


RELEASES = {
    "offset-odd k=19, T=10^6, to a file": (["--variant", "offset-odd", "--k", "19"], 10**6, "random", "file"),
    "plain k=2, T=10^5, to stdout": (["--variant", "plain", "--k", "2"], 10**5, "random", "stdout"),
    "--with-true": (["--variant", "offset-odd", "--k", "19", "--with-true"], 30_000, "random", "file"),
    "--zero-noise": (["--variant", "offset-even", "--k", "4", "--zero-noise", "--with-true"], 30_000,
                     "random", "stdout"),
    "all-zero input": (["--variant", "offset-odd", "--k", "19"], 30_000, "zeros", "file"),
}


@pytest.mark.parametrize("name", list(RELEASES))
def test_release_equals_the_reference_rows(name, tmp_path):
    # the rows of a whole release are the `%` rows of `BlockNoise`'s output;
    # an all-zero input keeps its estimates near 0, so its blocks fall back
    options, T, kind, sink = RELEASES[name]
    rng = np.random.default_rng(T)
    bits = rng.integers(0, 2, T) if kind == "random" else np.zeros(T, dtype=np.int64)
    seed = 31
    argv = ["run", *options, "--T", str(T), "--seed", str(seed),
            "--input", str(bits_file(tmp_path / "bits.txt", bits))]
    if sink == "file":
        out = tmp_path / "rows.csv"
        assert cli.main([*argv, "--output", str(out)]) == 0
        got = out.read_bytes()
    else:
        result = subprocess.run([sys.executable, "-m", "karycount.cli", *argv], capture_output=True,
                                env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120, check=True)
        got = result.stdout
    assert got == reference_release(options, bits, seed)


def test_stdout_text_layer_is_flushed_before_the_rows(monkeypatch, tmp_path):
    # the header lines and the rows all go to stdout's binary layer, after
    # the text that its text layer held before the command
    raw = io.BytesIO()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=False))
    print("# before the release")
    bits = bits_file(tmp_path / "bits.txt", np.ones(50, dtype=np.int64))
    assert cli.main(["run", "--k", "3", "--seed", "2", "--zero-noise", "--input", str(bits)]) == 0
    lines = raw.getvalue().decode().splitlines()
    assert lines[:4] == ["# before the release", "# seed=2", "# zero-noise: outputs are NOT private",
                         "t,estimate"]
    assert lines[4:] == [f"{t},{t}" for t in range(1, 51)]
