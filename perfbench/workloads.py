"""The benchmark's four workloads: inputs, command lines and output checks.

Every workload runs one `karycount` subcommand twice over: cut to one unit
of work (the set-up command) and in full.  The input is generated from the
benchmark's `--seed`; the program itself always gets the fixed
`PROGRAM_SEED`, so the noise, and with it every check, is reproducible.
Each check compares the program's output with `reference`, which shares no
code with the program.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import reference

PROGRAM_SEED = 1234567
EPSILON = 1.0
#: Rows of the small release the stream check is tested on.
SELF_TEST_ROWS = 500
#: Relative tolerance on a sum of floats, scaled by the sum of |terms|: one
#: summation order against another, or np.log1p against math.log1p, differ
#: by a few units in the last place of each term, far below this.
SUM_RTOL = 1e-12


def parse_csv(text: str, header: str):
    """(comment lines, data lines) of CSV text with a `#` preamble and a header line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    if i == len(lines) or lines[i] != header:
        raise ValueError(f"no {header!r} header line")
    return lines[:i], lines[i + 1 :]


class Stream:
    """`karycount run` over seeded random bits; every row checked."""

    trials_per_run = 1  # one release of the whole stream
    setup_codes = (0,)

    def __init__(self, name: str, variant: str, k: int, T: int, sink: str):
        self.name, self.variant, self.k, self.T, self.sink = name, variant, k, T, sink
        self.rows_per_run = T

    def prepare(self, seed: int, work: Path) -> None:
        """Bernoulli(1/2) bits, one per line; the first n bits make the cut inputs."""
        rng = np.random.default_rng([seed, self.T])
        self.bits = rng.integers(0, 2, size=self.T, dtype=np.int64)
        self.out = work / f"{self.name}.csv"
        self.cases = {}
        for n in (self.T, 1, SELF_TEST_ROWS):
            path = work / f"{self.name}.{n}.bits"
            path.write_text("\n".join(map(str, self.bits[:n].tolist())) + "\n")
            expected = reference.expected_estimates(
                self.bits[:n], np.arange(1, n + 1), self.variant, self.k, EPSILON, PROGRAM_SEED
            )
            self.cases[n] = path, expected

    def argv(self, n: int, seed: int = PROGRAM_SEED, extra=()) -> list[str]:
        """The command on the first n bits."""
        argv = ["run", "--variant", self.variant, "--k", str(self.k), "--T", str(n),
                "--epsilon", str(EPSILON), "--input", str(self.cases[n][0]),
                "--seed", str(seed), *extra]
        if self.sink == "file":
            argv += ["--output", str(self.out)]
        return argv

    def full_argv(self) -> list[str]:
        return self.argv(self.T)

    def setup_argv(self) -> list[str]:
        return self.argv(1)

    def output(self, stdout: str) -> str:
        return self.out.read_text() if self.sink == "file" else stdout

    def check_setup(self, stdout: str) -> list[str]:
        return check_stream(self.output(stdout), *self.cases[1][1])

    def check(self, stdout: str) -> list[str]:
        return check_stream(self.output(stdout), *self.cases[self.T][1])

    def self_test_runs(self):
        """(name, argv, passes) of three releases of the first SELF_TEST_ROWS bits."""
        n = SELF_TEST_ROWS
        yield "release", self.argv(n), True
        yield "--zero-noise release", self.argv(n, extra=("--zero-noise",)), False
        yield "release under another --seed", self.argv(n, seed=PROGRAM_SEED + 1), False


def check_stream(text: str, expected: np.ndarray, magnitude: np.ndarray,
                 headers: bool = True) -> list[str]:
    """Problems with a `run` release against the reference estimates.

    All rows must be present, in order, and each estimate must equal the
    reference within SUM_RTOL of its magnitude.  With `headers`, a comment
    line saying the release is not private is a problem too.
    """
    try:
        comments, rows = parse_csv(text, "t,estimate")
    except ValueError as exc:
        return [str(exc)]
    problems = [f"header {c!r}" for c in comments if headers and "NOT private" in c]
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, want {len(expected)}"]
    try:
        cells = np.array(",".join(rows).split(","), dtype=np.float64).reshape(len(rows), 2)
    except ValueError as exc:
        return problems + [f"unparsable rows: {exc}"]
    if not np.array_equal(cells[:, 0], np.arange(1, len(rows) + 1)):
        problems.append("rows are not t = 1..T in order")
    off = np.abs(cells[:, 1] - expected) > SUM_RTOL * magnitude
    if off.any():
        t = int(np.flatnonzero(off)[0]) + 1
        problems.append(
            f"{int(off.sum())} estimates off the reference, first at t={t}: "
            f"{cells[t - 1, 1]!r} vs {expected[t - 1]!r}"
        )
    return problems


class MonteCarloMSE:
    """`karycount bench`: Monte-Carlo MSE against the exact closed form."""

    # with one trial the program's own acceptance test may fail (exit 3)
    setup_codes = (0, 3)

    def __init__(self, name: str, variant: str, k: int, h: int, trials: int):
        self.name, self.variant, self.k, self.h, self.trials = name, variant, k, h, trials
        self.T = reference.max_time(variant, k, h)
        self.trials_per_run = trials
        self.rows_per_run = trials * self.T  # each trial releases all T prefix sums

    def prepare(self, seed: int, work: Path) -> None:
        """No input: the noise alone sets the error, and its seed is fixed."""
        weight = reference.mean_digit_weight(self.variant, self.k, self.h, self.T)
        # mean vertices per output times the per-vertex variance 2 (h / epsilon)^2
        self.exact_mse = float(weight) * 2.0 * (self.h / EPSILON) ** 2

    def _argv(self, trials: int) -> list[str]:
        return ["bench", "--variant", self.variant, "--k", str(self.k), "--h", str(self.h),
                "--epsilon", str(EPSILON), "--trials", str(trials), "--seed", str(PROGRAM_SEED)]

    def full_argv(self) -> list[str]:
        return self._argv(self.trials)

    def setup_argv(self) -> list[str]:
        return self._argv(1)

    def _row(self, stdout: str, trials: int):
        _, rows = parse_csv(stdout, "variant,k,h,T,epsilon,trials,empirical_mse,se,closed_form")
        if len(rows) != 1:
            raise ValueError(f"{len(rows)} result rows, want 1")
        f = rows[0].split(",")
        want = [self.variant, str(self.k), str(self.h), str(self.T), "1", str(trials)]
        if f[:6] != want:
            raise ValueError(f"result row starts {f[:6]}, want {want}")
        return float(f[6]), float(f[7]), float(f[8])

    def check_setup(self, stdout: str) -> list[str]:
        try:
            self._row(stdout, 1)
        except ValueError as exc:
            return [str(exc)]
        return []

    def check(self, stdout: str) -> list[str]:
        try:
            mse, se, closed = self._row(stdout, self.trials)
        except ValueError as exc:
            return [str(exc)]
        problems = []
        if abs(closed - self.exact_mse) > 1e-9 * self.exact_mse:
            problems.append(f"closed form {closed!r} vs exact {self.exact_mse!r}")
        if not (se > 0 and abs(mse - self.exact_mse) <= 4.0 * se):
            problems.append(f"empirical MSE {mse!r} (se {se!r}) vs exact {self.exact_mse!r}")
        return problems


class Packing:
    """`karycount lowerbound`: the packing-argument simulator."""

    setup_codes = (0,)

    def __init__(self, name: str, T: int, k: int, trials: int):
        self.name, self.T, self.k, self.trials = name, T, k, trials
        self.B = math.isqrt(T)
        self.m = T // self.B
        self.trials_per_run = trials
        # each trial runs the mechanism on two pairs of inputs, m block ends each
        self.rows_per_run = trials * 4 * self.m

    def prepare(self, seed: int, work: Path) -> None:
        """No input file: the simulator draws its strings from the fixed seed.

        The traced run also feeds one seeded string to the mechanism itself.
        """
        self.bits = np.random.default_rng([seed, self.T]).integers(0, 2, self.T, dtype=np.int64)
        self.tv = reference.block_tv(self.B, self.k)

    def _argv(self, trials: int) -> list[str]:
        return ["lowerbound", "--T", str(self.T), "--k", str(self.k),
                "--epsilon", str(EPSILON), "--trials", str(trials), "--seed", str(PROGRAM_SEED)]

    def full_argv(self) -> list[str]:
        return self._argv(self.trials)

    def setup_argv(self) -> list[str]:
        return self._argv(1)

    def check_setup(self, stdout: str) -> list[str]:
        return self._problems(stdout, 1)

    def check(self, stdout: str) -> list[str]:
        return self._problems(stdout, self.trials)

    def mechanism_problems(self, mechanism) -> list[str]:
        """The simulator's mechanism, `mechanism(bits, seed)`, at the block ends.

        Its documented default is the offset-odd k=3 tree at the run's epsilon.
        """
        ends = np.arange(self.B, self.T + 1, self.B)
        expected, magnitude = reference.expected_estimates(
            self.bits, ends, "offset-odd", 3, EPSILON, PROGRAM_SEED
        )
        got = np.asarray(mechanism(self.bits, PROGRAM_SEED), dtype=np.float64)
        if got.shape != expected.shape:
            return [f"mechanism gave {got.shape} block-end outputs, want {expected.shape}"]
        off = np.abs(got - expected) > SUM_RTOL * magnitude
        if off.any():
            j = int(np.flatnonzero(off)[0])
            return [f"{int(off.sum())} block-end outputs off the reference, first at "
                    f"t={ends[j]}: {got[j]!r} vs {expected[j]!r}"]
        return []

    def _problems(self, stdout: str, trials: int) -> list[str]:
        try:
            comments, rows = parse_csv(stdout, "i,pr_Ei,se,sum_Ej_null,tv_exact,tv_bound")
            fields = dict(kv.split("=", 1) for c in comments for kv in c[1:].split())
            B, m = int(fields["B"]), int(fields["m"])
            packing, k_thr = float(fields["packing_value"]), float(fields["k_threshold"])
            cells = np.array([r.split(",") for r in rows], dtype=np.float64)
        except (ValueError, KeyError) as exc:
            return [f"unparsable output: {exc!r}"]
        problems = []
        if (B, m) != (self.B, self.m):
            problems.append(f"B={B} m={m}, want {self.B} and {self.m}")
        close = lambda a, b: abs(a - b) <= 1e-12 * abs(b)
        if not close(packing, self.m * math.exp(-self.k * EPSILON) / 2.0):
            problems.append(f"packing_value {packing!r} != m exp(-k eps) / 2")
        if not close(k_thr, math.log(self.m / 2.0) / EPSILON):
            problems.append(f"k_threshold {k_thr!r} != ln(m / 2) / eps")
        if cells.shape != (self.m, 6) or not np.array_equal(cells[:, 0], np.arange(1, self.m + 1)):
            return problems + [f"rows are not i = 1..{self.m} in order"]
        if not np.all(np.abs(cells[:, 4] - self.tv) <= 1e-9 * self.tv):
            problems.append(f"tv_exact {cells[0, 4]!r} vs reference {self.tv!r}")
        bound = 6.0 * math.sqrt(2.0) / math.sqrt(math.pi) * self.k / math.sqrt(self.B)
        if not np.all(np.abs(cells[:, 5] - bound) <= 1e-12 * bound):
            problems.append(f"tv_bound {cells[0, 5]!r} != 6 sqrt(2/pi) k / sqrt(B)")
        pr, null = cells[:, 1], cells[:, 3]
        tried = np.arange(self.m) < trials  # trial j targets block j mod m + 1
        if not np.all((pr[tried] >= 0) & (pr[tried] <= 1)):
            problems.append("pr_Ei outside [0, 1] on a block that got a trial")
        if not np.all(np.isnan(pr[~tried])):
            problems.append("pr_Ei is not nan on a block that got no trial")
        if not np.all((null >= 0) & (null <= 1)):
            problems.append("sum_Ej_null outside [0, 1]")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        # paper's headline arity; T past 65,160 gives h=5, up to 9 terms per level
        Stream("stream-k19-file", "offset-odd", 19, 100_000, sink="file"),
        # classic binary tree, h=17: deepest carry chain, no negative digits
        Stream("stream-binary-pipe", "plain", 2, 100_000, sink="pipe"),
        # no streaming: vectorized noise, dense incidence matrix and matmul
        MonteCarloMSE("mc-mse-even20", "offset-even", 20, 3, trials=2000),
        # only workload through lowerbound: B = 320 blocks, two trials per block
        Packing("packing-lowerbound", 102_400, 8, trials=640),
    )
}
