"""CLI tests driven through main(): outputs, exit codes, seed resolution."""

import io
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from karycount import cli


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
    # `run` and `bench` never need scipy; importing it was half a short run's time
    code = "import sys, karycount.cli; print('scipy' in sys.modules)"
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.stdout.strip() == "False"


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


def test_stdout_release_flushes_every_row(monkeypatch):
    fake = RecordingStdout()
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n0\n1\n1\n0\n"))
    monkeypatch.setattr("sys.stdout", fake)
    assert cli.main(["run", "--seed", "4", "--input", "-"]) == 0
    rows = [i for i, (kind, text) in enumerate(fake.events)
            if kind == "write" and text[0].isdigit()]
    assert len(rows) == 5
    for i in rows:
        assert fake.events[i + 1] == ("flush", None)


def test_file_sink_matches_stdout_release(tmp_path, monkeypatch, capsys):
    bits = "".join(f"{(t * 7) % 3 % 2}\n" for t in range(500))
    args = ["run", "--k", "19", "--seed", "11", "--with-true", "--input", "-"]
    code, stdout_text, _ = run_cli(args, bits, monkeypatch, capsys)
    assert code == 0
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(args + ["--output", str(out_path)], bits, monkeypatch, capsys)
    assert code == 0
    assert out_path.read_bytes() == stdout_text.encode()


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
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "bench", "--k", "19", "--h", "20"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
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
    src = Path(cli.__file__).resolve().parents[1]
    cap = 3_000_000 * 1024

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    result = subprocess.run(
        [sys.executable, "-m", "karycount.cli", "lowerbound",
         "--T", "10000000000", "--k", "2", "--trials", "1"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit_child,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("usage error:")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
