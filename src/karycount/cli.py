"""Command-line surface: run, bench, calibrate, analyze, lowerbound.

Output is CSV with `#`-prefixed comment lines; every numeric field is
printed with round-trip precision so downstream comparisons are exact.
Exit codes: 0 success, 1 usage error, 2 data error (a named output that
cannot be opened or written is one; it is opened at the command's first
line, so a usage error leaves it as it was), 3 bench acceptance failure,
141 the reader of stdout went away (128 + SIGPIPE, as a shell reports a
process killed by that signal).  `run` releases the rows of each read of
input in one call of `mechanisms.BlockNoise`, equal bit for bit to
`Mechanism.feed`, formats them in numpy with the bytes of `%`
(`rows.row_bytes`) and writes those bytes to the binary layer of the
named file or of stdout; on stdout they are flushed before the next read.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import analysis, lowerbound, noise
from .digits import DigitSystem, max_value
from .mechanisms import BlockNoise, MechanismConfig, check_int64
from .rows import row_bytes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ACCEPT = 3
EXIT_PIPE = 141

#: Bytes asked of the input per read; a read returns what is there, up to this.
#: A read holds at most READ_BYTES // 2 + 1 bits, each but the last followed
#: by a separator, and its rows are one `BlockNoise` call: the call works on
#: their digit runs, about rows * k/(k - 1) + h of them, so its work and
#: memory do not grow with h, and its fixed cost (the numpy calls of its
#: plan) is spread over the rows of a read.
READ_BYTES = 1 << 13

_VARIANTS = {
    "plain": DigitSystem.PLAIN,
    "offset-odd": DigitSystem.OFFSET_ODD,
    "offset-even": DigitSystem.OFFSET_EVEN,
}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("DP_SEED")
    if env is not None:
        try:
            return int(env)  # its range is checked with --seed's, by `noise.check_seed`
        except ValueError:
            raise UsageError(f"DP_SEED must be an unsigned integer, got {env!r}")
    return 0


def _open_input(path: str):
    """(read, close) of the input: read(n) returns up to n bytes, b"" at its end."""
    if path != "-":
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise DataError(f"cannot read input {path}: {exc}")
        return fh.read1, fh.close
    stdin = sys.stdin
    if hasattr(stdin, "buffer"):
        return stdin.buffer.read1, None
    return (lambda n: stdin.read(n).encode()), None  # a text stream standing in for stdin


def _read_bits(path: str, before_read=None):
    """Yield the input's bits in chunks, each a bytes of b"0" and b"1".

    A chunk holds the tokens of one read of the input, up to `READ_BYTES`,
    up to its last separator; a token cut off at its end waits for the next
    read, and so does the "\n" of a "\r\n" cut at its "\r".
    `before_read()` is called before every read, which may block.  Each
    chunk goes through `_parse_lines`; a bad token raises `DataError`
    naming its line, once the bits before it are yielded.
    """
    read, close = _open_input(path)
    lineno = 1
    pending = []  # the reads since the last separator, none of which holds one
    cr = False  # the last read ended with a "\r" cut, which a "\n" may complete
    try:
        while True:
            if before_read is not None:
                before_read()
            data = read(READ_BYTES)
            eof = not data
            if cr and data[:1] == b"\n":  # the rest of a "\r\n" cut at its "\r"
                data = data[1:]
            cr = False
            cut = len(data) if eof else max(map(data.rfind, (b"\n", b"\r", b","))) + 1
            if not cut and not eof:  # no separator yet: the token goes on
                pending.append(data)
                continue
            pending.append(data[:cut])
            text = b"".join(pending)
            pending = [data[cut:]]
            cr = cut == len(data) and text.endswith(b"\r")
            bits, lineno, error = _parse_lines(text, lineno)
            if bits:
                yield bits
            if error is not None:
                raise DataError(error)
            if eof:
                return
    finally:
        if close is not None:
            close()


#: The ASCII whitespace that `str.strip` removes, but for the separators.
_BLANKS = b"\t\v\f\x1c\x1d\x1e\x1f "
_SEPARATORS = b",\n\r"
#: The class of every byte: " " a blank, "," a separator, "b" a bit and "x"
#: any other byte, every byte >= 0x80 among them.
_CLASSES = bytes(
    ord(" ") if c in _BLANKS else ord(",") if c in _SEPARATORS else ord("b") if c in b"01"
    else ord("x")
    for c in range(256)
)
#: In the classes of a chunk: a token the table cannot settle, one with an
#: "x" or with two bits.  It is matched from the token's first byte, and
#: compiled by `re` at its first use: input of bits may never need it.
_UNSETTLED = rb"(?<![^,])[^,]*?(?:x|b *b)[^,]*"


def _parse_lines(text: bytes, lineno: int):
    """(bits, next line number, error or None) of UTF-8 input cut at a separator.

    The rule of a line-by-line text reader: "\r\n", "\r" and "\n" end a
    line, a comma ends a token too, a token is stripped of whitespace
    (`str.strip`, Unicode whitespace included) and must then be "0", "1"
    or empty, and the first bad token stops the parse.

    `_CLASSES` settles a token whose bytes are blanks and at most one bit:
    its bit is the only byte left when the blanks and separators are
    deleted.  When every token is settled, as in any input of bits, blanks
    and separators, the chunk is parsed by two `bytes.translate` calls and
    a few searches.  Otherwise `_UNSETTLED` finds the other tokens, and
    each of them alone is decoded with "replace" and stripped.
    """
    solid = text.translate(_CLASSES, _BLANKS)
    settled = b"x" not in solid and b"bb" not in solid
    parts, start = [], 0
    for token in () if settled else re.finditer(_UNSETTLED, text.translate(_CLASSES)):
        parts.append(text[start : token.start()].translate(None, _BLANKS + _SEPARATORS))
        start = token.end()
        value = text[token.start() : start].decode("utf-8", "replace").strip()
        if value in ("0", "1"):
            parts.append(value.encode())
        elif value:
            lineno += _line_breaks(text[: token.start()])
            error = f"line {lineno}: expected '0' or '1', got {value!r}"
            return b"".join(parts), lineno, error
    parts.append(text[start:].translate(None, _BLANKS + _SEPARATORS))
    return b"".join(parts), lineno + _line_breaks(text), None


def _line_breaks(text: bytes) -> int:
    """The lines `text` ends: each "\n", "\r" and "\r\n" ends one."""
    n = text.count(b"\n")
    if b"\r" in text:
        n += text.count(b"\r") - text.count(b"\r\n")
    return n


class _Output:
    """A named output file, opened in binary mode, and so truncated, at its first write.

    A command writes its first line only once its arguments are valid, so
    a usage error leaves the file as it was.  Text is written as UTF-8;
    `buffer` is the file itself, which takes bytes.
    """

    def __init__(self, path: str):
        self.path, self.file = path, None

    @property
    def buffer(self):
        if self.file is None:
            try:
                self.file = open(self.path, "wb")
            except OSError as exc:
                raise DataError(f"cannot write output {self.path}: {exc}")
        return self.file

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        if self.file is not None:
            self.file.flush()

    def close(self) -> None:
        if self.file is not None:
            self.file.close()


def build_parser() -> _Parser:
    parser = _Parser(prog="karycount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: DP_SEED or 0)")

    run = sub.add_parser("run", help="stream private prefix sums")
    run.add_argument("--variant", choices=_VARIANTS, default="offset-odd")
    run.add_argument("--k", type=int, default=3)
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--T", type=int, default=None, help="stream length (default: input length)")
    run.add_argument("--input", default="-", help="bit file, '-' for stdin")
    run.add_argument("--output", default="-")
    run.add_argument("--with-true", action="store_true", help="emit true prefix sums (non-private)")
    run.add_argument("--zero-noise", action="store_true", help="testing hook: no noise (non-private)")
    add_seed(run)

    bench = sub.add_parser("bench", help="Monte-Carlo MSE vs closed form")
    bench.add_argument("--variant", choices=_VARIANTS, default="offset-odd")
    bench.add_argument("--k", type=int, default=3)
    bench.add_argument("--h", type=int, default=2)
    bench.add_argument("--epsilon", type=float, default=1.0)
    bench.add_argument("--trials", type=int, default=100000)
    bench.add_argument("--zero-noise", action="store_true")
    bench.add_argument("--output", default="-")
    add_seed(bench)

    cal = sub.add_parser("calibrate", help="noise calibration table")
    cal.add_argument("--delta1", type=float, default=None, help="l1-sensitivity")
    cal.add_argument("--delta2", type=float, default=None, help="l2-sensitivity")
    cal.add_argument("--epsilon", type=float, required=True)
    cal.add_argument("--delta", type=float, default=None)
    cal.add_argument("--output", default="-")

    ana = sub.add_parser("analyze", help="leading constants and crossover")
    ana.add_argument("mode", choices=["constants", "crossover"])
    ana.add_argument("--variant", choices=_VARIANTS, default="offset-odd")
    ana.add_argument("--k", type=int, default=19)
    ana.add_argument("--k-min", type=int, default=2)
    ana.add_argument("--k-max", type=int, default=99)
    ana.add_argument("--T", type=int, default=1 << 20)
    ana.add_argument("--epsilon", type=float, default=1.0)
    ana.add_argument("--delta", type=float, default=1e-6)
    ana.add_argument("--output", default="-")

    low = sub.add_parser("lowerbound", help="packing-argument simulation")
    low.add_argument("--T", type=int, required=True, help="stream length (perfect square, 4 | sqrt(T))")
    low.add_argument("--k", type=int, required=True, help="even flip count <= sqrt(T)/4")
    low.add_argument("--epsilon", type=float, default=1.0)
    low.add_argument("--trials", type=int, default=1000)
    low.add_argument("--zero-noise", action="store_true")
    low.add_argument("--output", default="-")
    add_seed(low)

    return parser


def cmd_run(args, out) -> int:
    variant = _VARIANTS[args.variant]
    seed = _resolve_seed(args.seed)
    # stdout is an online release: the rows of each read are flushed before
    # the next read, which may wait for more input
    online = args.output in (None, "-")
    if args.T is not None:
        # known horizon: stream the input, holding one chunk of it
        T = args.T
        chunks = _read_bits(args.input, out.flush if online else None)
    else:
        chunks = list(_read_bits(args.input))
        T = sum(map(len, chunks))
        if not T:
            raise DataError("empty input stream")
    try:
        cfg = MechanismConfig(
            variant=variant, k=args.k, T=T, epsilon=args.epsilon,
            seed=seed, zero_noise=args.zero_noise,
        )
        check_int64(cfg)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc))
    out.write(f"# seed={seed}\n")
    if args.zero_noise:
        out.write("# zero-noise: outputs are NOT private\n")
    if args.with_true:
        out.write("# with-true: true prefix sums included, NOT private\n")
    header = "t,estimate,true" if args.with_true else "t,estimate"
    out.write(header + "\n")
    if _release_blocks(cfg, chunks, _row_writer(out), args.with_true) == 0:
        raise DataError("empty input stream")
    out.flush()
    return EXIT_OK


def _row_writer(out):
    """write(t, est, counts) of a block's rows, as `format_rows` lays them out, to `out`.

    The rows go to `out.buffer`, looked up now, as the bytes of
    `row_bytes`, once the text written before them is flushed.  A text
    stream with no `.buffer`, standing in for stdout, gets their text.
    """
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        return lambda *block: out.write(format_rows(*block))
    out.flush()
    return lambda *block: buffer.write(row_bytes(*block))


def _release_blocks(cfg: MechanismConfig, chunks, write, with_true: bool) -> int:
    """Write one row per input bit, the rows of a chunk at a time; return the rows.

    A chunk's rows are the true counts plus the next call of one
    `BlockNoise`, which equals `Mechanism.feed` bit for bit, handed to
    `write` (of `_row_writer`) in one call.
    """
    engine = BlockNoise(cfg)
    t = true_sum = 0
    for chunk in chunks:
        bits = np.frombuffer(chunk, dtype=np.uint8)
        n = min(len(bits), cfg.T - t)
        if n:
            times = np.arange(t + 1, t + n + 1, dtype=np.int64)
            counts = np.cumsum(bits[:n] - 48, dtype=np.int64)
            counts += true_sum
            est = counts + engine(times)
            write(t, est, counts if with_true else None)
            t, true_sum = t + n, int(counts[-1])
        if n < len(bits):
            raise DataError(f"input longer than --T {cfg.T}")
    return t


def format_rows(t: int, est: np.ndarray, counts: np.ndarray | None = None) -> str:
    """CSV rows t+1, t+2, ... of the estimates (and true counts), by `fmt`'s rule.

    The text of `rows.row_bytes`, which `run` writes to a text stream with
    no binary layer, such as one standing in for stdout.
    """
    return row_bytes(t, est, counts).decode()


def cmd_bench(args, out) -> int:
    variant = _VARIANTS[args.variant]
    seed = _resolve_seed(args.seed)
    if args.h > 63:  # k >= 2, so k^h > 2^63 - 1; k**h itself would not end
        raise UsageError(f"--h {args.h}: times and vertex keys do not fit in int64")
    try:
        T = max_value(variant, args.k, args.h)
        cfg = MechanismConfig(
            variant=variant, k=args.k, T=T, epsilon=args.epsilon,
            seed=seed, zero_noise=args.zero_noise,
        )
        report = analysis.empirical_mse(cfg, trials=args.trials, seed=seed)
    except ValueError as exc:
        message = str(exc)  # empirical_mse names its count "trials", bench's flag --trials
        raise UsageError("--" + message if message.startswith("trials ") else message)
    except (OverflowError, MemoryError) as exc:
        # the plan grows with k^h, the per-trial array with --trials (80 MB at 10^7)
        raise UsageError(f"--k {args.k} --h {args.h} --trials {args.trials} is too large to simulate: {exc}")
    out.write(f"# seed={seed}\n")
    out.write("variant,k,h,T,epsilon,trials,empirical_mse,se,closed_form\n")
    out.write(
        f"{args.variant},{args.k},{args.h},{T},{fmt(args.epsilon)},{args.trials},"
        f"{fmt(report.empirical_mse)},{fmt(report.standard_error)},"
        f"{fmt(report.closed_form_mse)}\n"
    )
    out.flush()
    if args.zero_noise:
        return EXIT_OK if report.empirical_mse == 0.0 else EXIT_ACCEPT
    tol = max(3.0 * report.standard_error, 0.05 * report.closed_form_mse)
    ok = abs(report.empirical_mse - report.closed_form_mse) <= tol
    return EXIT_OK if ok else EXIT_ACCEPT


def cmd_calibrate(args, out) -> int:
    rows = []
    branch = ratio = None
    try:
        if args.delta1 is not None:
            rows.append(noise.calibrate_pure_laplace(args.delta1, args.epsilon))
        if args.delta2 is not None:
            if args.delta is None:
                raise UsageError("--delta is required with --delta2")
            rows.append(noise.calibrate_gaussian(args.delta2, args.epsilon, args.delta))
            rows.append(noise.calibrate_l2_laplace(args.delta2, args.epsilon, args.delta))
            # the bound is derived for epsilon <= ln(1/delta) only
            if args.epsilon <= math.log(1.0 / args.delta):
                ratio = noise.variance_ratio_bound(args.epsilon, args.delta)
        if args.delta1 is not None and args.delta2 is not None:
            lam = args.delta1 / args.epsilon
            branch = noise.epsilon_of_laplace(args.delta1, args.delta2, lam, args.delta)
        # a finite scale whose variance overflows or underflows raises here
        variances = [r.variance for r in rows]
    except ValueError as exc:
        raise UsageError(str(exc))
    if not rows:
        raise UsageError("provide --delta1 and/or --delta2")
    if branch is not None:
        out.write(f"# theorem3_branch={branch.branch} epsilon={fmt(branch.epsilon)}\n")
    if ratio is not None:
        out.write(f"# variance_ratio_bound={fmt(ratio)}\n")
    out.write("regime,scale_or_sigma,epsilon,delta,variance\n")
    for r, variance in zip(rows, variances):
        out.write(
            f"{r.regime.value},{fmt(r.scale_or_sigma)},{fmt(r.epsilon)},"
            f"{fmt(r.delta)},{fmt(variance)}\n"
        )
    out.flush()
    return EXIT_OK


def cmd_analyze(args, out) -> int:
    variant = _VARIANTS[args.variant]
    try:
        if args.mode == "constants":
            k_star, c_star = analysis.optimal_k(variant, args.k_min, args.k_max)
            out.write("k,leading_constant\n")
            for k in range(args.k_min, args.k_max + 1):
                try:
                    out.write(f"{k},{fmt(analysis.leading_constant(variant, k))}\n")
                except ValueError:
                    continue
            out.write(f"# argmin k={k_star} constant={fmt(c_star)}\n")
        else:
            rep = analysis.crossover(variant, args.k)
            hb = analysis.henzinger_bound(args.T, args.epsilon, args.delta)
            pure = analysis.pure_leading_term(variant, args.k, args.T, args.epsilon)
            approx = analysis.approx_leading_term(args.T, args.epsilon, args.delta)
            out.write(
                "B_eps,B_eps_delta,exponent,T,delta_threshold,"
                "henzinger_bound,pure_leading_term,approx_leading_term\n"
            )
            out.write(
                f"{fmt(rep.B_eps)},{fmt(rep.B_eps_delta)},{fmt(rep.exponent)},"
                f"{args.T},{fmt(rep.delta_threshold(args.T))},{fmt(hb)},{fmt(pure)},"
                f"{fmt(approx)}\n"
            )
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError as exc:  # a square or power past the float range
        raise UsageError(f"a closed form overflows: {exc}")
    out.flush()
    return EXIT_OK


def cmd_lowerbound(args, out) -> int:
    seed = _resolve_seed(args.seed)
    try:
        cfg = lowerbound.LowerBoundConfig(
            T=args.T, k=args.k, epsilon=args.epsilon,
            trials=args.trials, seed=seed, zero_noise=args.zero_noise,
        )
        report = lowerbound.packing_experiment(cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    except (OverflowError, MemoryError) as exc:
        raise UsageError(f"--T {args.T} is too large to simulate: {exc}")
    out.write(f"# seed={seed}\n")
    out.write(
        f"# B={cfg.B} m={cfg.m} alpha={fmt(cfg.alpha)} "
        f"packing_value={fmt(report.packing_value)} "
        f"k_threshold={fmt(report.k_threshold)}\n"
    )
    out.write(
        f"# premise_rate={fmt(report.premise_rate)} "
        f"mean_max_error={fmt(report.mean_max_error)} "
        f"sum_null_se={fmt(report.sum_null_se)} "
        f"base_tv_bound={fmt(report.base_tv_bound)} "
        f"combined_tv_bound={fmt(report.combined_tv_bound)}\n"
    )
    out.write("i,pr_Ei,se,sum_Ej_null,tv_exact,tv_bound\n")
    for i in range(cfg.m):
        out.write(
            f"{i + 1},{fmt(float(report.pr_event[i]))},{fmt(float(report.pr_event_se[i]))},"
            f"{fmt(report.sum_null)},{fmt(report.tv_exact)},{fmt(report.tv_bound)}\n"
        )
    out.flush()
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "bench": cmd_bench,
    "calibrate": cmd_calibrate,
    "analyze": cmd_analyze,
    "lowerbound": cmd_lowerbound,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        path = getattr(args, "output", "-")
        named = path not in (None, "-")
        out = _Output(path) if named else sys.stdout
        try:
            try:
                return _COMMANDS[args.command](args, out)
            finally:
                if named:
                    out.close()
        except BrokenPipeError as exc:
            if named:  # the reader of a named output, a FIFO, went away
                raise DataError(f"cannot write output {path}: {exc}")
            # the rows still buffered would fail again when Python flushes stdout
            # at exit, so stdout goes to /dev/null (the recipe of the `signal` docs)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
