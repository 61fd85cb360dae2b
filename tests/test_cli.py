"""CLI tests driven through main(): outputs, exit codes, seed resolution."""

import contextlib
import io
import math
import os
import re
import resource
import select
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from karycount import analysis, cli, mechanisms, noise
from karycount.mechanisms import Mechanism, MechanismConfig
from karycount.rows import row_bytes

SRC = Path(cli.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def unbuffered_env(unbuffered: bool) -> dict:
    """`ENV` with `PYTHONUNBUFFERED` set, as `python -u`, or unset."""
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def byte_stream(data: bytes = b""):
    """A stand-in for stdin or stdout: a text stream whose `.buffer` is an `io.BytesIO`."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None, env=None):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", byte_stream(stdin_text.encode()))
    if env:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_run_zero_noise_with_true(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["run", "--zero-noise", "--with-true", "--input", "-"],
        stdin_text="1\n1\n0\n1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines == ["t,estimate,true", "1,1,1", "2,2,2", "3,2,2", "4,3,3"]
    assert "# zero-noise" in out and "# with-true" in out


def test_run_is_deterministic(monkeypatch, capsys):
    args = ["run", "--seed", "5", "--input", "-"]
    a = run_cli(args, stdin_text="1,0,1,1\n", monkeypatch=monkeypatch, capsys=capsys)
    b = run_cli(args, stdin_text="1,0,1,1\n", monkeypatch=monkeypatch, capsys=capsys)
    assert a == b
    assert a[0] == 0
    assert "# seed=5" in a[1]


def test_run_accepts_comma_separated_bits(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["run", "--zero-noise", "--input", "-"],
        stdin_text="1, 0, 1\n1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert out.splitlines()[-1] == "4,3"


def test_run_rejects_bad_token(monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--input", "-"],
        stdin_text="1\n2\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "line 2" in err


def test_run_rejects_empty_stream(monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--input", "-"], stdin_text="", monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "empty" in err


def test_run_rejects_bad_parity(monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--variant", "offset-odd", "--k", "4", "--input", "-"],
        stdin_text="1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "usage error" in err


def test_unknown_flag_is_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(["run", "--frobnicate"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert "usage error" in err


def test_seed_resolution_env(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["run", "--zero-noise", "--input", "-"],
        stdin_text="1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
        env={"DP_SEED": "77"},
    )
    assert code == 0
    assert "# seed=77" in out


def test_seed_flag_beats_env(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["run", "--zero-noise", "--seed", "3", "--input", "-"],
        stdin_text="1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
        env={"DP_SEED": "77"},
    )
    assert code == 0
    assert "# seed=3" in out


def test_bad_env_seed(monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--input", "-"],
        stdin_text="1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
        env={"DP_SEED": "minus-one"},
    )
    assert code == 1
    assert "DP_SEED" in err


def test_bench_passes(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["bench", "--variant", "offset-odd", "--k", "3", "--h", "2", "--trials", "30000"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert row[0] == "offset-odd" and row[3] == "4"
    assert float(row[-1]) == pytest.approx(12.0)


def test_bench_zero_noise(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["bench", "--k", "3", "--h", "2", "--trials", "100", "--zero-noise"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert float(out.splitlines()[-1].split(",")[6]) == 0.0


def test_calibrate_table(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["calibrate", "--delta1", "3", "--delta2", "1", "--epsilon", "0.5", "--delta", "1e-6"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "# theorem3_branch=pure" in out
    rows = {l.split(",")[0]: l.split(",") for l in out.splitlines() if "," in l and "#" not in l}
    assert float(rows["pure-laplace"][1]) == 6.0
    assert float(rows["pure-laplace"][4]) == 72.0
    assert "gaussian" in rows and "l2-laplace" in rows


def test_calibrate_requires_delta_with_delta2(monkeypatch, capsys):
    code, _, err = run_cli(
        ["calibrate", "--delta2", "1", "--epsilon", "0.5"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 1
    assert "--delta" in err


NON_FINITE_CALIBRATIONS = [
    ["--delta1", "3", "--epsilon", "inf"],
    ["--delta1", "3", "--epsilon", "nan"],
    ["--delta1", "inf", "--epsilon", "1"],
    ["--delta1", "nan", "--epsilon", "1"],
    ["--delta2", "inf", "--epsilon", "0.5", "--delta", "1e-6"],
    ["--delta2", "nan", "--epsilon", "0.5", "--delta", "1e-6"],
]


@pytest.mark.parametrize("args", NON_FINITE_CALIBRATIONS, ids=" ".join)
def test_calibrate_rejects_non_finite(args, monkeypatch, capsys):
    # epsilon=inf gave a Laplace scale of 0 with exit 0, nan a nan scale
    code, out, err = run_cli(["calibrate", *args], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "must be finite" in err
    assert "laplace" not in out and "gaussian" not in out


def test_calibrate_prints_the_variance_ratio_bound(monkeypatch, capsys):
    # the paper's second claim: l2-Laplace noise at most this many times the
    # Gaussian variance; written with --delta2 while epsilon <= ln(1/delta)
    argv = ["calibrate", "--delta2", "1", "--epsilon", "0.5", "--delta", "1e-6"]
    code, out, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    ratio = noise.variance_ratio_bound(0.5, 1e-6)
    assert f"# variance_ratio_bound={cli.fmt(ratio)}" in out.splitlines()
    assert 2.0 < ratio < 2.1
    # ln(1/0.5) < 1: past the bound's range the line is left out
    for argv in (["calibrate", "--delta2", "1", "--epsilon", "1", "--delta", "0.5"],
                 ["calibrate", "--delta1", "1", "--epsilon", "1"]):
        code, out, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
        assert code == 0
        assert "variance_ratio_bound" not in out
        assert out.splitlines()[0] == "regime,scale_or_sigma,epsilon,delta,variance"


@pytest.mark.parametrize("args", [
    ["--delta1", "3", "--epsilon", "1e-300"],
    ["--delta1", "1e200", "--epsilon", "1"],
    ["--delta2", "1e200", "--epsilon", "1", "--delta", "1e-6"],
], ids=" ".join)
def test_calibrate_variance_that_overflows_is_usage_error(args, monkeypatch, capsys):
    # each scale is finite but its variance is not: the header was written,
    # then an OverflowError traceback
    code, out, err = run_cli(["calibrate", *args], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "overflows" in err
    assert out == ""


@pytest.mark.parametrize("args", [
    ["--delta1", "1e-320", "--epsilon", "1"],
    ["--delta2", "1e-320", "--epsilon", "1", "--delta", "1e-6"],
], ids=" ".join)
def test_calibrate_variance_that_underflows_is_usage_error(args, monkeypatch, capsys):
    # each scale is > 0 but its variance underflows: a row with variance 0
    # was printed, with exit 0
    code, out, err = run_cli(["calibrate", *args], monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "underflows" in err
    assert out == ""


def test_bench_epsilon_whose_square_overflows_is_usage_error(monkeypatch, capsys):
    # epsilon**2 raised OverflowError, reported as "--k 3 --h 2 is too large to simulate"
    argv = ["bench", "--epsilon", "1e200", "--trials", "5"]
    code, out, err = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "epsilon" in err and "--k" not in err
    assert out == ""


def test_bench_trials_too_many_to_hold_name_trials(monkeypatch, capsys):
    # the per-trial array of 10^13 trials cannot be allocated: the message
    # blamed only --k and --h
    argv = ["bench", "--trials", str(10**13)]
    code, out, err = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "--trials" in err
    assert out == ""


def test_bench_trials_past_ten_million_are_refused(monkeypatch, capsys):
    # refused by the count itself, before any plan or per-trial array
    with mock.patch.object(analysis, "BatchRunner", side_effect=AssertionError("planned")):
        code, out, err = run_cli(["bench", "--trials", str(10**7 + 1)],
                                 monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and out == ""
    assert err == f"usage error: --trials must be in [1, 10^7], got {10**7 + 1}\n"


def test_analyze_constants(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["analyze", "constants", "--variant", "offset-odd"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    assert "# argmin k=19" in out


def test_analyze_crossover(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["analyze", "crossover", "--k", "19", "--T", "1024", "--epsilon", "0.5"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    row = out.splitlines()[-1].split(",")
    assert float(row[0]) == pytest.approx(0.12359121795987113)
    assert float(row[2]) == pytest.approx(0.915695295699376)
    assert float(row[2]) < 0.92


def test_analyze_crossover_prints_both_leading_terms(monkeypatch, capsys):
    # the paper's first claim: below delta_threshold the pure-DP tree's
    # leading term is at most the Gaussian bound's
    argv = ["analyze", "crossover", "--k", "19", "--T", "1024", "--epsilon", "0.5"]
    code, out, _ = run_cli(argv, monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), map(float, row.split(","))))
    assert list(cells)[-2:] == ["pure_leading_term", "approx_leading_term"]
    assert cells["approx_leading_term"] == analysis.approx_leading_term(1024, 0.5, 1e-6)
    assert cells["pure_leading_term"] <= cells["approx_leading_term"]
    threshold = cli.fmt(cells["delta_threshold"] / 2)
    code, out, _ = run_cli([*argv, "--delta", threshold], monkeypatch=monkeypatch, capsys=capsys)
    cells = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert float(cells["pure_leading_term"]) <= float(cells["approx_leading_term"])


def test_lowerbound_zero_noise(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["lowerbound", "--T", "256", "--k", "4", "--trials", "32", "--zero-noise"],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    data_rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(data_rows) == 16
    assert all(float(r[1]) == 1.0 for r in data_rows)
    assert all(float(r[3]) == 0.0 for r in data_rows)


LOWERBOUND_ARGV = ["lowerbound", "--T", "256", "--k", "4", "--trials", "40", "--seed", "3"]
LOWERBOUND_KEYS = {
    "seed", "B", "m", "alpha", "packing_value", "k_threshold", "premise_rate",
    "mean_max_error", "sum_null_se", "base_tv_bound", "combined_tv_bound",
}


# "False" and "True" are `lowerbound` without and with --zero-noise
@pytest.mark.parametrize("argv,keys", [
    (LOWERBOUND_ARGV, LOWERBOUND_KEYS),
    (LOWERBOUND_ARGV + ["--zero-noise"], LOWERBOUND_KEYS),
    (["bench", "--k", "3", "--h", "2", "--trials", "200", "--seed", "3"], {"seed"}),
    (["calibrate", "--delta1", "2", "--delta2", "1", "--epsilon", "1", "--delta", "1e-6"],
     {"theorem3_branch", "epsilon", "variance_ratio_bound"}),
    (["run", "--seed", "3", "--input", "-"], {"seed"}),
], ids=["False", "True", "bench", "calibrate", "run"])
def test_lowerbound_comment_lines_are_key_value_tokens(argv, keys, monkeypatch, capsys):
    # the benchmark's check splits every token of every `#` line of
    # `lowerbound` on "=", so a bare word there fails each of its runs; the
    # other commands' `#` lines hold the same tokens
    code, out, _ = run_cli(argv, stdin_text="1\n0\n1\n", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    tokens = [kv for line in out.splitlines() if line.startswith("#") for kv in line[1:].split()]
    assert [kv for kv in tokens if "=" not in kv] == []
    fields = dict(kv.split("=", 1) for kv in tokens)
    assert len(fields) == len(tokens)
    assert set(fields) == keys
    if argv[0] != "lowerbound":
        return
    fields = {key: float(value) for key, value in fields.items()}
    assert 0.0 <= fields["premise_rate"] <= 1.0 and fields["mean_max_error"] >= 0.0
    if "--zero-noise" in argv:
        assert fields["premise_rate"] == 1.0 and fields["mean_max_error"] == 0.0
        assert fields["sum_null_se"] == 0.0


def test_lowerbound_rejects_bad_shape(monkeypatch, capsys):
    code, _, err = run_cli(
        ["lowerbound", "--T", "200", "--k", "2"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("trials", ["0", str(10**7 + 1), str(2**62), str(2**62 + 1), str(2**63)])
def test_lowerbound_out_of_range_trials_are_blamed(trials, monkeypatch, capsys):
    # 2^63 trials once gave "seed must be an integer in [0, 2^64 - 4*trials]",
    # and 2^62 trials once ran for ever
    code, out, err = run_cli(["lowerbound", "--T", "256", "--k", "2", "--trials", trials],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err == f"usage error: trials must be in [1, 10^7], got {trials}\n"
    assert out == ""


@pytest.mark.parametrize("k_min,k_max", [("2", "65538"), ("2", str(2**62)),
                                         ("100000", str(100000 + 65536))])
def test_analyze_arity_range_past_the_maximum_is_refused(k_min, k_max, monkeypatch, capsys):
    # `analyze constants` scans every arity from --k-min to --k-max; 2^62 once
    # ran for ever
    code, out, err = run_cli(["analyze", "constants", "--k-min", k_min, "--k-max", k_max],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err == f"usage error: k_max - k_min must be below 65536, got {k_max} - {k_min}\n"
    assert out == ""


@pytest.mark.parametrize("k_min,k_max", [("2", "65537"), ("100000", "100001")])
def test_analyze_arity_range_up_to_the_maximum_is_answered(k_min, k_max, monkeypatch, capsys):
    # the bound is on the number of arities, not on their size
    code, out, err = run_cli(["analyze", "constants", "--k-min", k_min, "--k-max", k_max],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 0
    assert out.startswith("k,leading_constant\n") and out.splitlines()[-1].startswith("# argmin k=")
    assert err == ""


def test_output_file(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(
        ["run", "--zero-noise", "--input", "-", "--output", str(out_path)],
        stdin_text="1\n0\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.splitlines()[-1] == "2,1"


def test_run_missing_input_file(monkeypatch, capsys):
    code, _, err = run_cli(
        ["run", "--input", "/nonexistent/bits.txt"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("sink", ["stdout", "file"])
@pytest.mark.parametrize("horizon", [["--T", "5"], []], ids=["T", "no-T"])
def test_unreadable_input_leaves_the_output_untouched(horizon, sink, tmp_path, monkeypatch, capsys):
    # the input is opened before the first write: with --T, the header lines
    # were once written first, and a named output cut to them
    path = tmp_path / "results.csv"
    path.write_text("earlier results\n")
    output = ["--output", str(path)] if sink == "file" else []
    code, out, err = run_cli(["run", "--input", str(tmp_path / "missing.txt"), *horizon, *output],
                             monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2 and err.startswith("data error: cannot read input")
    assert out == "" and path.read_text() == "earlier results\n"


def test_fmt_round_trips_floats():
    for x in (1.0 / 3.0, math.pi, 5.349980061976299, -0.0):
        assert float(cli.fmt(x)) == x
    assert cli.fmt(7) == "7"


BAD_PRIVACY_PARAMS = [
    (["--epsilon", "inf"], {}),
    (["--epsilon", "nan"], {}),
    (["--seed", str(2**64)], {}),
    ([], {"DP_SEED": str(2**64)}),
]
COMMANDS = {
    "run": ["run", "--input", "-"],
    "bench": ["bench", "--k", "3", "--h", "2", "--trials", "10"],
    "lowerbound": ["lowerbound", "--T", "256", "--k", "4", "--trials", "4"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("extra,env", BAD_PRIVACY_PARAMS)
def test_bad_epsilon_or_seed_is_usage_error(command, extra, env, monkeypatch, capsys):
    code, out, err = run_cli(
        COMMANDS[command] + extra,
        stdin_text="1\n0\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
        env=env,
    )
    assert code == 1
    assert err.startswith("usage error:") and "Traceback" not in err
    assert "estimate" not in out


def test_bench_seed_above_int64(monkeypatch, capsys):
    # trial seeds are built as uint64, so the top half of the seed range works
    code, out, _ = run_cli(
        ["bench", "--k", "3", "--h", "2", "--trials", "10", "--seed", str(2**63)],
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code in (0, 3)
    assert f"# seed={2**63}" in out


def test_cli_import_leaves_scipy_unloaded():
    # `run` and `bench` never need scipy, nor `fractions` and the `decimal` it
    # loads: each module imported is resident memory of every `run`.  Nor
    # does `lowerbound`, whose exact block TV takes `math.lgamma`, not scipy.
    code = (
        "import sys, karycount.cli\n"
        "names = sys.argv[1:]\n"
        "loaded = [m in sys.modules for m in names]\n"
        "code = karycount.cli.main(['lowerbound', '--T', '256', '--k', '4', '--trials', '4'])\n"
        "print(*loaded, code, *(m in sys.modules for m in names), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "scipy", "fractions", "decimal"],
        capture_output=True, text=True, check=True, env=ENV,
    )
    assert result.stderr.split() == ["False"] * 3 + ["0"] + ["False"] * 3
    assert "\ni,pr_Ei,se,sum_Ej_null,tv_exact,tv_bound\n" in result.stdout


class RecordingStdout(io.BytesIO):
    """Fake stdout whose binary layer, itself, logs each write (as text) and flush in order."""

    def __init__(self):
        super().__init__()
        self.events = []

    @property
    def buffer(self):
        return self

    def write(self, data):
        self.events.append(("write", bytes(data).decode()))
        return super().write(data)

    def flush(self):
        self.events.append(("flush", None))
        super().flush()


class RecordingStdin(io.BytesIO):
    """Fake stdin whose binary layer, itself, returns at most `size` bytes per read, logging each read."""

    def __init__(self, text, events, size):
        super().__init__(text.encode())
        self.events, self.size = events, size

    @property
    def buffer(self):
        return self

    def read1(self, n=-1):
        self.events.append(("read", None))
        return super().read1(self.size)


def test_stdout_release_flushes_every_row(monkeypatch):
    # every row is flushed before the next read of the input, which may
    # block, and before the end; rows read together are flushed together,
    # not one by one.  A write may hold several rows, so rows are the lines
    # of the written text
    fake = RecordingStdout()
    monkeypatch.setattr("sys.stdin", RecordingStdin("1\n0\n1\n" * 4, fake.events, 6))
    monkeypatch.setattr("sys.stdout", fake)
    assert cli.main(["run", "--seed", "4", "--T", "12", "--input", "-"]) == 0

    def rows(text):
        return [line for line in text.split("\n") if line[:1].isdigit()]

    written = "".join(text for kind, text in fake.events if kind == "write")
    assert len(rows(written)) == 12
    unflushed = ""  # the text written since the last flush
    for kind, text in fake.events + [("end", None)]:
        if kind == "write":
            unflushed += text
        elif kind == "flush":
            unflushed = ""
        else:  # a read, which may block, or the end of the release
            assert rows(unflushed) == []
    assert [kind for kind, _ in fake.events].count("flush") < 12


def _read_line(fd, pending: bytes):
    """(one line from the pipe `fd`, the bytes after it); 30 s at most per read."""
    while b"\n" not in pending:
        ready, _, _ = select.select([fd], [], [], 30)
        assert ready, "no row within 30 s"
        chunk = os.read(fd, 4096)
        assert chunk, "the pipe closed before a full row"
        pending += chunk
    line, _, rest = pending.partition(b"\n")
    return line.decode(), rest


@pytest.mark.parametrize("sep,fifo", [(sep, fifo) for fifo in (False, True) for sep in ("\n", "\r", "\r\n")],
                         ids=["LF", "CR", "CRLF", "LF-fifo", "CR-fifo", "CRLF-fifo"])
def test_stdout_row_arrives_before_the_next_bit_is_sent(sep, fifo, tmp_path, monkeypatch, capsys):
    # a real pipe on each side, one bit at a time: the release must show each
    # row while it waits for the next bit, on stdout as in a FIFO that
    # `--output` names.  A "\r\n" is sent in two writes, its "\n" with the
    # next bit, so a read ends on the "\r"
    head, carry = sep[:1], sep[1:]
    T = 20
    bits = [(t * 5) % 3 % 2 for t in range(T)]
    argv = ["run", "--k", "3", "--T", str(T), "--seed", "9", "--input", "-"]
    in_r, in_w = os.pipe()
    if fifo:
        # the reader is there before the release opens the FIFO, which would wait for one;
        # without O_NONBLOCK this open would wait for the writer
        os.mkfifo(tmp_path / "rows.fifo")
        out_r = os.open(tmp_path / "rows.fifo", os.O_RDONLY | os.O_NONBLOCK)
        out_w = os.open(os.devnull, os.O_WRONLY)
    else:
        out_r, out_w = os.pipe()
    output = ["--output", str(tmp_path / "rows.fifo")] * fifo
    proc = subprocess.Popen([sys.executable, "-m", "karycount.cli", *argv, *output],
                            stdin=in_r, stdout=out_w, stderr=subprocess.DEVNULL, env=ENV)
    os.close(in_r)
    os.close(out_w)
    lines, pending = [], b""
    try:
        line = ""
        while line != "t,estimate":
            line, pending = _read_line(out_r, pending)
            lines.append(line)
        for t, bit in enumerate(bits, start=1):
            os.write(in_w, f"{carry if t > 1 else ''}{bit}{head}".encode())
            line, pending = _read_line(out_r, pending)
            assert line.startswith(f"{t},")
            lines.append(line)
        os.write(in_w, carry.encode())
        os.close(in_w)
        in_w = None
        assert proc.wait(timeout=30) == 0
    finally:
        if in_w is not None:
            os.close(in_w)
        os.close(out_r)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    stdin_text = "".join(f"{b}{sep}" for b in bits)
    code, out, _ = run_cli(argv, stdin_text, monkeypatch, capsys)
    assert code == 0 and lines == out.splitlines()


@pytest.mark.parametrize("horizon,unbuffered", [([], False), (["--T", "200000"], False),
                                                ([], True), (["--T", "200000"], True)],
                         ids=["no-T", "T", "no-T-unbuffered", "T-unbuffered"])
def test_closed_stdout_exits_141_without_traceback(horizon, unbuffered, tmp_path):
    # `... | karycount run | head -3`: the reader goes away mid-release.
    # Under -u stdout's binary layer is a raw file, whose write of a block
    # of rows stores part of it before the next write fails
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n" * 200_000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "karycount.cli", "run", "--k", "19", *horizon,
         "--input", str(bits)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=unbuffered_env(unbuffered),
    )
    try:
        for _ in range(3):
            proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_file_sink_matches_stdout_release(tmp_path, monkeypatch, capsys):
    bits = "".join(f"{(t * 7) % 3 % 2}\n" for t in range(500))
    args = ["run", "--k", "19", "--seed", "11", "--with-true", "--input", "-"]
    code, stdout_text, _ = run_cli(args, bits, monkeypatch, capsys)
    assert code == 0
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(args + ["--output", str(out_path)], bits, monkeypatch, capsys)
    assert code == 0
    assert out_path.read_bytes() == stdout_text.encode()


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", ","], ids=["LF", "CR", "CRLF", "comma"])
def test_reader_cuts_at_every_separator(sep, tmp_path):
    # each read's bits come out before the next read, whatever the separator:
    # a tail never cut would hold the whole input, re-scanned at every read
    n = 3 * cli.READ_BYTES
    path = tmp_path / "bits.txt"
    path.write_text("".join(f"{t % 2}{sep}" for t in range(n)))
    with open(path, "rb") as source:
        chunks = list(cli._read_bits(source, lambda: None))
    assert b"".join(chunks) == b"01" * (n // 2)
    assert len(chunks) >= 3 and max(map(len, chunks)) <= cli.READ_BYTES


@pytest.mark.parametrize("sep", ["\r", "\r\n"], ids=["CR", "CRLF"])
def test_large_cr_input_releases_like_lf_input(sep, tmp_path):
    # a release of many reads through both sinks: the same bytes as the
    # release of the same bits one per "\n" line
    bits = "".join(f"{(t * 7) % 3 % 2}" for t in range(20_000))
    lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
    lf.write_text("".join(b + "\n" for b in bits))
    other.write_bytes("".join(b + sep for b in bits).encode())
    argv = ["run", "--k", "19", "--seed", "5", "--with-true", "--T", str(len(bits))]
    code, want, err = release(argv, lf)
    assert code == 0 and err == ""
    assert release(argv, other) == (0, want, "")
    out_path = tmp_path / "rows.csv"
    assert release(argv + ["--output", str(out_path)], other) == (0, "", "")
    assert out_path.read_text() == want


def test_closed_named_output_is_data_error(tmp_path):
    # a FIFO as `--output` whose reader goes away: a failed write to a named
    # file, not the stdout reader leaving, so exit 2 and no traceback
    bits, fifo = tmp_path / "bits.txt", tmp_path / "rows.fifo"
    bits.write_text("1\n" * 200_000)
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "karycount.cli", "run", "--k", "19", "--T", "200000",
         "--input", str(bits), "--output", str(fifo)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
    )
    try:
        with open(fifo, "rb") as reader:
            assert reader.read(100)
        assert proc.wait(timeout=60) == cli.EXIT_DATA
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.stdout.read() == b""
    proc.stdout.close()
    assert err.startswith(f"data error: cannot write output {fifo}")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv,sink", [
    (["run", "--T", "3", "--input", "-"], "--output"),
    (["run", "--T", "3", "--input", "-"], "stdout"),
    (["bench", "--k", "3", "--h", "2", "--trials", "10"], "--output"),
], ids=["run-output", "run-stdout", "bench-output"])
def test_full_device_is_data_error(argv, sink, unbuffered):
    # every write fails with ENOSPC: once an OSError traceback with exit 1
    output = ["--output", "/dev/full"] if sink == "--output" else []
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "karycount.cli", *argv, *output], input=b"1\n0\n1\n",
            stdout=full if sink == "stdout" else subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=unbuffered_env(unbuffered), timeout=60,
        )
    err = result.stderr.decode()
    assert result.returncode == cli.EXIT_DATA, err
    path = "/dev/full" if output else "-"
    assert err.startswith(f"data error: cannot write output {path}: [Errno 28]")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_non_blocking_stdout_is_data_error(unbuffered, tmp_path):
    # a non-blocking stdout pipe that no one reads until the release ends:
    # once a BlockingIOError traceback with exit 120, and under -u a release
    # cut at 2,725 of its 200,000 rows with exit 0
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n" * 200_000)
    r, w = os.pipe()
    os.set_blocking(w, False)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "karycount.cli", "run", "--k", "19", "--T", "200000",
             "--input", str(bits)],
            stdout=w, stderr=subprocess.PIPE, env=unbuffered_env(unbuffered), timeout=60,
        )
    finally:
        os.close(w)
    with open(r, "rb") as reader:
        released = reader.read()
    err = result.stderr.decode()
    assert result.returncode == cli.EXIT_DATA, err
    assert err.startswith("data error: cannot write output -: ")
    assert "Traceback" not in err and err.count("\n") == 1
    assert 0 < released.count(b"\n") < 200_000


SMALL_COMMANDS = {
    **COMMANDS,
    "calibrate": ["calibrate", "--delta1", "1", "--epsilon", "1"],
    "analyze": ["analyze", "crossover"],
}


@pytest.mark.parametrize("where", ["directory", "missing directory"])
@pytest.mark.parametrize("command", list(SMALL_COMMANDS))
def test_unopenable_output_is_data_error(command, where, tmp_path, monkeypatch, capsys):
    # once an IsADirectoryError or FileNotFoundError traceback with exit 1
    path = tmp_path if where == "directory" else tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(SMALL_COMMANDS[command] + ["--output", str(path)],
                             stdin_text="1\n0\n", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 2
    assert err.startswith(f"data error: cannot write output {path}: ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("command", list(SMALL_COMMANDS))
def test_usage_error_leaves_the_output_untouched(command, tmp_path, monkeypatch, capsys):
    # the output is opened at its first line, after the arguments are checked
    path = tmp_path / "results.csv"
    path.write_text("earlier results\n")
    code, _, err = run_cli(SMALL_COMMANDS[command] + ["--epsilon", "-1", "--output", str(path)],
                           stdin_text="1\n0\n", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1 and err.startswith("usage error:")
    assert path.read_text() == "earlier results\n"


def test_file_sink_keeps_rows_before_bad_token(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, err = run_cli(
        ["run", "--zero-noise", "--T", "10", "--input", "-", "--output", str(out_path)],
        stdin_text="1\n0\n1\nx\n1\n",
        monkeypatch=monkeypatch,
        capsys=capsys,
    )
    assert code == 2
    assert "line 4" in err
    rows = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert rows == ["t,estimate", "1,1", "2,1", "3,2"]


def test_bench_height_past_int64_is_usage_error():
    # T = (19^20 - 1)/2 ~ 1.9e25: once a hang in a per-step walk over all T
    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "bench", "--k", "19", "--h", "20"],
        capture_output=True, text=True, timeout=60, env=ENV,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage error:") and "int64" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_bench_over_the_plan_budget_is_refused_before_allocating():
    # T = 23,522,940 outputs at k=19, h=6: the plan would take 3.1 GB; the
    # budget refuses it before even the 188 MB array of times exists
    cap = 3_000_000 * 1024

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "bench", "--variant", "offset-odd",
         "--k", "19", "--h", "6", "--trials", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_child, env=ENV,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage error: the plan of 23522940 outputs")
    assert f"budget of {mechanisms.PLAN_BYTES_MAX} bytes" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_plan_budget_admits_the_benchmarked_sizes():
    # the largest plans tier-1 and the benchmark run: bench --k 19 --h 5,
    # the benchmark's bench and its lowerbound at T = 102,400 (320 block ends)
    big = MechanismConfig(cli._VARIANTS["offset-odd"], 19, 1_238_049, 1.0)
    even = MechanismConfig(cli._VARIANTS["offset-even"], 20, 4210, 1.0)
    packing = MechanismConfig(cli._VARIANTS["offset-odd"], 3, 102_400, 1.0)
    for cfg, rows, span in ((big, 1_238_049, 1_238_048), (even, 4210, 4209),
                            (packing, 320, 102_400 - 320)):
        mechanisms.check_plan_budget(cfg, rows, span)
    with pytest.raises(ValueError, match="budget"):
        h6 = MechanismConfig(cli._VARIANTS["offset-odd"], 19, 23_522_940, 1.0)
        mechanisms.check_plan_budget(h6, 23_522_940, 23_522_939)


def test_bench_k19_h4_memory(monkeypatch, capsys):
    # T = 65,160 outputs: a dense outputs x vertices float64 matrix would be
    # 31.6 GiB; the plan and the trials' arrays take about 9 MiB
    tracemalloc.start()
    try:
        code, out, _ = run_cli(
            ["bench", "--variant", "offset-odd", "--k", "19", "--h", "4", "--trials", "20"],
            monkeypatch=monkeypatch,
            capsys=capsys,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out.splitlines()[-1].startswith("offset-odd,19,4,65160,1,20,")
    assert peak <= 16 * 2**20


def test_bench_k19_h5_runs():
    # the paper's arity at T = 1,238,049, refused while the batch path walked
    # every digit slot of every output
    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "bench", "--variant", "offset-odd",
         "--k", "19", "--h", "5", "--trials", "2"],
        capture_output=True, text=True, timeout=120, env=ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].startswith("offset-odd,19,5,1238049,1,2,")


def test_lowerbound_out_of_memory_is_usage_error():
    # B = m = 400,000: the plan of the 400,000 block ends passes the plan
    # budget but peaks near 600 MiB, past a 300 MB cap; a run at T = 1024
    # peaks near 35 MiB.  One BLAS thread keeps the address space that
    # importing numpy reserves, about 40 MB a thread, from growing with the
    # number of cores
    cap = 300_000 * 1024

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "lowerbound",
         "--T", "160000000000", "--k", "2", "--trials", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_child,
        env=dict(ENV, OPENBLAS_NUM_THREADS="1"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage error:")
    assert "too large to simulate" in result.stderr  # a MemoryError, not the budget
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


SUBNORMAL_EPSILON = [
    ["run", "--epsilon", "5e-324", "--input", "-"],
    ["lowerbound", "--T", "256", "--k", "4", "--trials", "4", "--epsilon", "1e-320"],
    ["calibrate", "--delta1", "1", "--epsilon", "1e-320"],
    ["calibrate", "--delta2", "1", "--epsilon", "1", "--delta", "1e-320"],
    ["bench", "--k", "3", "--h", "2", "--trials", "10", "--epsilon", "1e-320"],
    ["bench", "--k", "3", "--h", "2", "--trials", "10", "--epsilon", "1e-200"],
    ["analyze", "crossover", "--epsilon", "1e-200"],
    # the Gaussian bound is finite, but the pure leading term overflows to inf
    ["analyze", "crossover", "--epsilon", "1e-152", "--T", str(2**62), "--delta", "0.5"],
]


@pytest.mark.parametrize("argv", SUBNORMAL_EPSILON, ids=" ".join)
def test_scale_that_is_not_finite_is_usage_error(argv, monkeypatch, capsys):
    # each was an inf or nan release with exit 0, or a raw traceback: the
    # scale h/epsilon, delta1/epsilon, sigma or delta2/a overflows, or
    # epsilon^2 underflows to 0
    code, out, err = run_cli(argv, stdin_text="1\n0\n1\n1\n", monkeypatch=monkeypatch,
                             capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:")
    assert "inf" not in out and "nan" not in out


@pytest.mark.parametrize("epsilon,what", [
    ("1e-160", "closed-form MSE"),
    ("3.2e-154", "Monte-Carlo MSE"),  # the closed form is finite, the mean of squares is not
    ("1e-153", "Monte-Carlo MSE"),  # the mean of squares is finite, its standard error is not
])
def test_bench_whose_error_overflows_is_usage_error(epsilon, what):
    # epsilon^2 > 0 passes, but the closed form or the squared draws pass the
    # float range: once `inf,nan,inf` with exit 3 and a numpy warning
    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "bench", "--k", "3", "--h", "2",
         "--trials", "10", "--epsilon", epsilon],
        capture_output=True, text=True, timeout=60, env=ENV,
    )
    assert result.returncode == 1
    assert result.stderr.startswith(f"usage error: the {what} at epsilon={epsilon}")
    assert result.stderr.count("\n") == 1 and "Warning" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("sink", ["stdout", "file"])
def test_run_tree_past_int64_is_usage_error(sink, tmp_path, monkeypatch, capsys):
    # T = 10^30 needs h = 24 at k = 19, and 19^24 > 2^63 - 1
    extra = ["--output", str(tmp_path / "rows.csv")] if sink == "file" else []
    code, out, err = run_cli(["run", "--k", "19", "--T", str(10**30), "--input", "-", *extra],
                             stdin_text="1\n", monkeypatch=monkeypatch, capsys=capsys)
    assert code == 1
    assert err.startswith("usage error:") and "int64" in err
    assert "estimate" not in out


def old_line_tokens(text: str):
    """(bits, error) of the input by the rule of a line-by-line text reader."""
    bits = []
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        for token in line.split(","):
            token = token.strip()
            if token in ("0", "1"):
                bits.append(token)
            elif token:
                return "".join(bits), f"line {lineno}: expected '0' or '1', got {token!r}"
    return "".join(bits), None


TOKENS = st.sampled_from([
    b"0", b"1", b"0", b"1", b"10", b"2", b" 1", b"0 ", b"1\t", b"x", "\u00e9".encode(), b"",
    b"\x0b1\x0c", b"\x1c0\x1d", b"\x1e1\x1f", b"\x0b", b"0 1",  # ASCII whitespace, two bits
    "\u00a01".encode(), "0\u3000".encode(), "\u00851\u0085".encode(),  # Unicode whitespace
    "\u00a0".encode(), "\u3000 ".encode(), "\u0085".encode(),
    b"\xff", b"1\xff", b"\xe2\x80", b" \x85",  # not UTF-8: each gives U+FFFD
])
SEPARATORS = st.sampled_from([b"\n", b"\n", b",", b", ", b"\r\n", b"\r", b"\n\n"])


def read_all_bits(path):
    """(bits, error or None) of `cli._read_bits` over the file at `path`."""
    got, error = [], None
    with open(path, "rb") as source:
        try:
            for chunk in cli._read_bits(source, lambda: None):
                got.append(chunk.decode())
        except cli.DataError as exc:
            error = str(exc)
    return "".join(got), error


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=40), st.integers(1, 9))
@example([(b"0", b"\r"), (b"0", b"\n"), (b"0", b"\n")], 3)  # a read ends after "0\r0"
def test_read_bits_chunks_follow_the_line_rule(pairs, read_bytes):
    # reads of a few bytes cut tokens, lines, "\r\n" pairs and UTF-8
    # sequences anywhere; the reference decodes the whole input at once
    data = b"".join(token + sep for token, sep in pairs)
    want = old_line_tokens(data.decode("utf-8", "replace"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bits.txt"
        path.write_bytes(data)
        with mock.patch.object(cli, "READ_BYTES", read_bytes):
            assert read_all_bits(path) == want


@pytest.mark.parametrize("bad", [b"x", b"0 1", "\u00e9".encode(), b"\xff"])
def test_bad_token_in_the_middle_of_a_full_read(bad, tmp_path):
    # the benchmark's input, one seeded bit per "\n" line, cut by 8 KiB reads,
    # with one bad token in the middle of the first read: its line and the
    # bits before it as the reference has them.  A chunk of bits, blanks and
    # separators alone is settled by the byte table: `_UNSETTLED` is not used
    lines = [str(b).encode() for b in np.random.default_rng(7).integers(0, 2, 10_000)]
    lines[2_000] = b" \t" + bad + b"\x0c"
    data = b"\n".join(lines) + b"\n"
    path = tmp_path / "bits.txt"
    path.write_bytes(data)
    want = old_line_tokens(data.decode("utf-8", "replace"))
    assert want[1].startswith("line 2001:") and len(want[0]) == 2_000
    assert read_all_bits(path) == want
    clean = b"".join(b"%s\x0b\r\n  ,\t" % line for line in lines[:2_000])
    with mock.patch.object(cli, "_UNSETTLED", None):
        assert cli._parse_lines(clean, 5) == (b"".join(lines[:2_000]), 2_005, None)


def release(argv, input_path):
    """(exit code, stdout, stderr) of `main(argv)` reading `input_path`, in process."""
    out, err = byte_stream(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--input", str(input_path)])
    return code, out.buffer.getvalue().decode(), err.getvalue()


BLOCK_CASES = [("plain", 2), ("plain", 3), ("offset-odd", 3), ("offset-odd", 5),
               ("offset-even", 4), ("offset-even", 6)]


@settings(max_examples=50, deadline=None)
@given(
    case=st.sampled_from(BLOCK_CASES),
    seed=st.sampled_from([0, 2**64 - 1]),
    n=st.integers(1, 100),
    shape=st.sampled_from(["exact", "no --T", "short", "long", "bad token"]),
    flags=st.sampled_from([[], ["--with-true"], ["--zero-noise"], ["--zero-noise", "--with-true"]]),
    read_bytes=st.integers(1, 40),
    data=st.data(),
)
def test_file_release_equals_stdout_release(case, seed, n, shape, flags, read_bytes, data):
    # short reads, each one engine call of a few rows, so that call edges,
    # read edges and digit carries fall everywhere; both sinks must write the
    # same bytes, fail the same way, and release the rows of `Mechanism.feed`
    variant, k = case
    bits = data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    T = n
    if shape == "short":
        T = n + data.draw(st.integers(1, 50))
    elif shape == "long":
        assume(n > 1)
        T = data.draw(st.integers(1, n - 1))
    elif shape == "bad token":
        bad = data.draw(st.integers(0, n - 1))
        bits[bad] = "2"
    argv = ["run", "--variant", variant, "--k", str(k), "--seed", str(seed), *flags]
    if shape != "no --T":
        argv += ["--T", str(T)]
    cfg = MechanismConfig(cli._VARIANTS[variant], k, T, 1.0, seed=seed,
                          zero_noise="--zero-noise" in flags)
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = Path(tmp) / "bits.txt", Path(tmp) / "rows.csv"
        path.write_text("\n".join(bits) + "\n")
        with mock.patch.object(cli, "READ_BYTES", read_bytes):
            code, stdout_text, stdout_err = release(argv, path)
            file_code, file_out, file_err = release(argv + ["--output", str(out_path)], path)
        assert (file_code, file_out, file_err) == (code, "", stdout_err)
        assert out_path.read_bytes() == stdout_text.encode()
    data_rows = [line for line in stdout_text.splitlines() if line[0].isdigit()]
    if shape == "bad token":
        assert code == 2 and f"line {bad + 1}:" in stdout_err and len(data_rows) == bad
    elif shape == "long":
        assert code == 2 and "longer than --T" in stdout_err and len(data_rows) == T
    else:
        assert code == 0 and len(data_rows) == n
    mech, true_sum, want = Mechanism(cfg), 0, []
    for t, bit in enumerate(map(int, bits[: len(data_rows)]), start=1):
        true_sum += bit
        row = f"{t},{cli.fmt(mech.feed(bit))}"
        want.append(row + f",{true_sum}" if "--with-true" in flags else row)
    assert data_rows == want


def test_format_rows_is_fmt():
    # `row_bytes` gives the bytes of `fmt`, row by row, on random
    # doubles and on the edges of the float and int formats
    rng = np.random.default_rng(3)
    est = np.concatenate((
        rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000),
        [-0.0, 0.0, 5e-324, -5e-324, 2.0**53 + 2, 1e300, -1e300, 0.1, 1 / 3],
    ))
    counts = rng.integers(0, 2**62, len(est))
    counts[:3] = [0, 2**53 + 1, 2**63 - 1]
    for t in (0, 2**53):
        want = [f"{cli.fmt(t + i + 1)},{cli.fmt(e)}" for i, e in enumerate(est.tolist())]
        assert row_bytes(t, est) == "".join(row + "\n" for row in want).encode()
        got = row_bytes(t, est, counts)
        assert got == "".join(f"{row},{c}\n" for row, c in zip(want, counts.tolist())).encode()


def test_stdout_release_draws_each_key_once_on_a_wide_tree(tmp_path, monkeypatch):
    # plain k=2^20 has h=1 and digit t at time t: a block that drew its
    # keys from j=1 would draw O(t) keys, about T^2/8192 in all; the release
    # carries each level's running sum, so it draws about one key per row
    T = 200_000
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n" * T)
    draws, draw = [], mechanisms.vertex_laplace

    def counted(scale, seed, keys, **arrays):
        draws.append(keys.size)
        return draw(scale, seed, keys, **arrays)

    monkeypatch.setattr(mechanisms, "vertex_laplace", counted)
    code, out, _ = release(["run", "--variant", "plain", "--k", str(2**20), "--T", str(T)], bits)
    assert code == 0 and out.count("\n") == T + 2
    assert sum(draws) == T


# a small process between the test and the release, so that the release's
# ru_maxrss is its own: Linux carries a parent's high-water mark into a
# child's ru_maxrss when the child execs
SPAWN = (
    "import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
    "_, status, usage = os.wait4(p.pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
)


def test_stdout_release_memory_is_flat_in_T(tmp_path):
    # criterion 4 checks the release to a file under `tracemalloc`; the
    # release to stdout holds one read of input and one block of rows, so its
    # peak RSS must not grow with T either
    rss = {}
    for T in (10**5, 10**6):
        bits = tmp_path / f"bits_{T}.txt"
        bits.write_text("1\n" * T)
        result = subprocess.run(
            [sys.executable, "-I", "-c", SPAWN, sys.executable, "-m", "karycount.cli", "run",
             "--k", "19", "--T", str(T), "--input", str(bits)],
            capture_output=True, text=True, timeout=120, env=ENV, check=True,
        )
        code, maxrss_kib = map(int, result.stdout.split())
        assert code == 0
        rss[T] = maxrss_kib * 1024
    assert rss[10**6] <= rss[10**5] + 2**21


EDGE_INTS = ["0", "-1", str(2**63), str(2**64)]
EDGE_FLOATS = ["0", "-1", "5e-324", "inf", "nan", str(2.0**63), str(2.0**64)]


def ints(*valid):
    return st.sampled_from([*map(str, valid), *EDGE_INTS])


def floats(*valid):
    return st.sampled_from([*map(str, valid), *EDGE_FLOATS])


def given_value(name, values):
    return values.map(lambda value: [name, value])


def option(name, values):
    """`[name, value]`, or the option left out."""
    return st.one_of(st.just([]), given_value(name, values))


def switch(name):
    return st.sampled_from([[], [name]])


def argv_of(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for args in lists for arg in args])


VARIANT = option("--variant", st.sampled_from(list(cli._VARIANTS)))
SEED = option("--seed", ints(5))
# `analyze constants` writes a row per arity in [--k-min, --k-max], so the
# span is drawn small, or past the largest arity it accepts; either end may
# still be an edge value
ARITY_RANGE = st.one_of(
    st.just([]),
    st.tuples(ints(2, 3), st.integers(-1, 30)).map(
        lambda lo_span: ["--k-min", lo_span[0], "--k-max", str(int(lo_span[0]) + lo_span[1])]),
    given_value("--k-max", st.sampled_from(["65538", str(2**62)])),
)
ARGV = {
    "run": argv_of(VARIANT, option("--k", ints(2, 3, 4, 19)), option("--epsilon", floats(1, 0.5)),
                   option("--T", ints(1, 3, 10)), SEED, switch("--with-true"),
                   switch("--zero-noise")),
    "bench": argv_of(VARIANT, option("--k", ints(3, 4, 5)), option("--h", ints(1, 2)),
                     option("--epsilon", floats(1, 0.5)), given_value("--trials", ints(1, 10)),
                     SEED, switch("--zero-noise")),
    "calibrate": argv_of(option("--delta1", floats(1, 3, 1e200, 1e-320)),
                         option("--delta2", floats(1, 1e200, 1e-320)),
                         given_value("--epsilon", floats(1, 0.5)),
                         option("--delta", floats(1e-6, 0.1))),
    "analyze": argv_of(st.sampled_from([["constants"], ["crossover"]]), VARIANT,
                       option("--k", ints(3, 19)), ARITY_RANGE, option("--T", ints(2, 1 << 20)),
                       option("--epsilon", floats(1, 0.5)), option("--delta", floats(1e-6, 0.1))),
    "lowerbound": argv_of(given_value("--T", ints(16, 256)), given_value("--k", ints(2, 4)),
                          option("--epsilon", floats(1, 0.5)),
                          given_value("--trials", ints(1, 4, 20, 10**7 + 1, 2**62)), SEED,
                          switch("--zero-noise")),
}
INPUTS = st.sampled_from([
    b"", b"\n\n", b"1\n0\n1\n", b"1,0\r\n1\r", b" 1 ,\t0\n\n", "\u00a01\n0\u3000\n".encode(),
    b"x\n", b"1\n2\n", b"0 1\n", b"\xff\n", b"1" * 12,
])


def finite_problems(text: str, command: str, argv: list[str]) -> list[str]:
    """The numeric fields of a release that are not finite.

    `lowerbound` gives nan as pr_Ei and se of a block that got no trial,
    trial j going to block j mod m + 1: that one is documented.
    """
    trials = int(argv[argv.index("--trials") + 1]) if "--trials" in argv else None
    problems = []
    for line in text.splitlines():
        if line.startswith("#"):
            fields = [kv.partition("=")[2] for kv in line[1:].split()]
        else:
            fields = line.split(",")
            if command == "lowerbound" and fields[0].isdigit() and int(fields[0]) > trials:
                if fields[1:3] != ["nan", "nan"]:
                    problems.append(line)
                fields = fields[3:]
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                problems.append(line)
    return problems


@settings(max_examples=250, deadline=None)
@given(command=st.sampled_from(list(ARGV)), data=st.data(), input_bytes=INPUTS,
       output=st.sampled_from(["stdout", "fresh file", "directory", "missing directory"]))
def test_main_exits_with_a_documented_code_on_any_argv(command, data, input_bytes, output):
    # edge values of every option of every subcommand, in process: a
    # documented exit code, never a traceback, and a release of finite
    # numbers that says it is not private only when a testing hook is on
    argv = [command, *data.draw(ARGV[command], label="options")]
    with tempfile.TemporaryDirectory() as tmp:
        path = {"stdout": None, "fresh file": Path(tmp) / "rows.csv", "directory": Path(tmp),
                "missing directory": Path(tmp) / "missing" / "rows.csv"}[output]
        bits = Path(tmp) / "bits.txt"
        bits.write_bytes(input_bytes)
        if command == "run":
            argv += ["--input", str(bits)]
        if path is not None:
            argv += ["--output", str(path)]
        out, err = byte_stream(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ):
            os.environ.pop("DP_SEED", None)
            code = cli.main(argv)
        stdout_text = out.buffer.getvalue().decode()
        released = path.read_text() if output == "fresh file" and path.exists() else stdout_text
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if output in ("directory", "missing directory"):
        assert code in (1, 2) and stdout_text == ""
    if code == 0:
        assert finite_problems(released, command, argv) == [], argv
        if command == "calibrate":  # a scale > 0 has a variance > 0
            rows = [line for line in released.splitlines() if not line.startswith("#")][1:]
            assert all(float(row.rsplit(",", 1)[1]) > 0 for row in rows), argv
        hooked = "--zero-noise" in argv or "--with-true" in argv
        assert hooked or "NOT private" not in released
