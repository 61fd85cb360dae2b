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

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from karycount import cli, mechanisms
from karycount.mechanisms import Mechanism, MechanismConfig

SRC = Path(cli.__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None, env=None):
    """Invoke main() and return (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
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


def test_lowerbound_rejects_bad_shape(monkeypatch, capsys):
    code, _, err = run_cli(
        ["lowerbound", "--T", "200", "--k", "2"], monkeypatch=monkeypatch, capsys=capsys
    )
    assert code == 1
    assert "usage error" in err


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


class RecordingStdout(io.StringIO):
    """Fake stdout that logs each write and flush in order."""

    def __init__(self):
        super().__init__()
        self.events = []

    def write(self, text):
        self.events.append(("write", text))
        return super().write(text)

    def flush(self):
        self.events.append(("flush", None))
        super().flush()


class RecordingStdin(io.StringIO):
    """Fake stdin that returns at most `size` characters per read, logging each read."""

    def __init__(self, text, events, size):
        super().__init__(text)
        self.events, self.size = events, size

    def read(self, n=-1):
        self.events.append(("read", None))
        return super().read(self.size)


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


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
def test_stdout_row_arrives_before_the_next_bit_is_sent(sep, monkeypatch, capsys):
    # a real pipe on each side, one bit at a time: the release must show each
    # row while it waits for the next bit.  A "\r\n" is sent in two writes,
    # its "\n" with the next bit, so a read ends on the "\r"
    head, carry = sep[:1], sep[1:]
    T = 20
    bits = [(t * 5) % 3 % 2 for t in range(T)]
    argv = ["run", "--k", "3", "--T", str(T), "--seed", "9", "--input", "-"]
    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "karycount.cli", *argv],
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


@pytest.mark.parametrize("horizon", [[], ["--T", "200000"]], ids=["no-T", "T"])
def test_closed_stdout_exits_141_without_traceback(horizon, tmp_path):
    # `... | karycount run | head -3`: the reader goes away mid-release
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n" * 200_000)
    proc = subprocess.Popen(
        [sys.executable, "-m", "karycount.cli", "run", "--k", "19", *horizon,
         "--input", str(bits)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV,
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
    chunks = list(cli._read_bits(str(path)))
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


def test_bench_k19_h4_memory(monkeypatch, capsys):
    # T = 65,160 outputs: a dense outputs x vertices float64 matrix would be 31.6 GiB
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
    assert peak <= 200 * 2**20


def test_lowerbound_out_of_memory_is_usage_error():
    # B = m = 100,000: the base strings alone are 10^10 bytes, past a 3 GB cap
    cap = 3_000_000 * 1024

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "lowerbound",
         "--T", "10000000000", "--k", "2", "--trials", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_child, env=ENV,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage error:")
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


TOKENS = st.sampled_from(["0", "1", "0", "1", "10", "2", " 1", "0 ", "1\t", "x", "é", ""])
SEPARATORS = st.sampled_from(["\n", "\n", ",", ", ", "\r\n", "\r", "\n\n"])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(TOKENS, SEPARATORS), max_size=40), st.integers(1, 9))
@example([("0", "\r"), ("0", "\n"), ("0", "\n")], 3)  # a read ends after "0\r0"
def test_read_bits_chunks_follow_the_line_rule(pairs, read_bytes):
    # reads of a few bytes cut tokens, lines and "\r\n" pairs anywhere
    text = "".join(token + sep for token, sep in pairs)
    want_bits, want_error = old_line_tokens(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bits.txt"
        path.write_bytes(text.encode())
        got, error = [], None
        with mock.patch.object(cli, "READ_BYTES", read_bytes):
            try:
                for chunk in cli._read_bits(str(path)):
                    got.append(chunk.decode())
            except cli.DataError as exc:
                error = str(exc)
    assert ("".join(got), error) == (want_bits, want_error)


def release(argv, input_path):
    """(exit code, stdout, stderr) of `main(argv)` reading `input_path`, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--input", str(input_path)])
    return code, out.getvalue(), err.getvalue()


BLOCK_CASES = [("plain", 2), ("plain", 3), ("offset-odd", 3), ("offset-odd", 5),
               ("offset-even", 4), ("offset-even", 6)]


@settings(max_examples=50, deadline=None)
@given(
    case=st.sampled_from(BLOCK_CASES),
    seed=st.sampled_from([0, 2**64 - 1]),
    n=st.integers(1, 100),
    shape=st.sampled_from(["exact", "no --T", "short", "long", "bad token"]),
    flags=st.sampled_from([[], ["--with-true"], ["--zero-noise"], ["--zero-noise", "--with-true"]]),
    rows=st.integers(1, 9),
    read_bytes=st.integers(1, 40),
    data=st.data(),
)
def test_file_release_equals_stdout_release(case, seed, n, shape, flags, rows, read_bytes, data):
    # blocks of a few rows and short reads, so that block edges, read edges
    # and digit carries fall everywhere; both sinks must write the same
    # bytes, fail the same way, and release the rows of `Mechanism.feed`
    variant, k = case
    bits = data.draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    T = n
    if shape == "short":
        T = n + data.draw(st.integers(1, 50))
    elif shape == "long":
        assume(n > 1)
        T = data.draw(st.integers(1, n - 1))
    elif shape == "bad token":
        assume(n > rows)
        bad = data.draw(st.integers(rows, min(n, 2 * rows) - 1))  # a bit of the second block
        bits[bad] = "2"
    argv = ["run", "--variant", variant, "--k", str(k), "--seed", str(seed), *flags]
    if shape != "no --T":
        argv += ["--T", str(T)]
    cfg = MechanismConfig(cli._VARIANTS[variant], k, T, 1.0, seed=seed,
                          zero_noise="--zero-noise" in flags)
    with tempfile.TemporaryDirectory() as tmp:
        path, out_path = Path(tmp) / "bits.txt", Path(tmp) / "rows.csv"
        path.write_text("\n".join(bits) + "\n")
        # a block holds BLOCK_CELLS // h rows
        with mock.patch.object(cli, "BLOCK_CELLS", rows * cfg.height), \
                mock.patch.object(cli, "READ_BYTES", read_bytes):
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


def test_stdout_release_draws_each_key_once_on_a_wide_tree(tmp_path, monkeypatch):
    # plain k=2^20 has h=1 and digit t at time t: a block that drew its
    # keys from j=1 would draw O(t) keys, about T^2/8192 in all; the release
    # carries each level's running sum, so it draws about one key per row
    T = 200_000
    bits = tmp_path / "bits.txt"
    bits.write_text("1\n" * T)
    draws, draw = [], mechanisms.vertex_laplace

    def counted(scale, seed, keys):
        draws.append(keys.size)
        return draw(scale, seed, keys)

    monkeypatch.setattr(mechanisms, "vertex_laplace", counted)
    code, out, _ = release(["run", "--variant", "plain", "--k", str(2**20), "--T", str(T)], bits)
    assert code == 0 and out.count("\n") == T + 2
    assert T <= sum(draws) <= T + 2 * len(draws)


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
