"""Command-line surface: run, bench, calibrate, analyze, lowerbound.

Output is CSV with `#`-prefixed comment lines of `key=value` tokens; every
numeric field is printed with round-trip precision so downstream
comparisons are exact.  Every command writes bytes to one sink, `_Output`:
stdout's binary layer, or the file `--output` names, opened, and so
truncated, at the command's first write.
Exit codes: 0 success, 1 usage error, 2 data error (an input that cannot
be read or parsed, or an output that cannot be opened or written in full;
a command checks its arguments and opens its input before its first
write, so a usage error or an unreadable input leaves a named output as
it was), 3 bench acceptance failure, 141 the reader of stdout went away (128 + SIGPIPE, as
a shell reports a process killed by that signal).  `run` releases the
rows of each read of input in one call of `mechanisms.BlockNoise`, equal
bit for bit to `Mechanism.feed`, formats them in numpy with the bytes of
`%` (`rows.row_bytes`) and flushes the sink before the next read, to a
file as to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys

import numpy as np

from . import analysis, lowerbound, noise
from .digits import DigitSystem, max_value
from .mechanisms import BlockNoise, MechanismConfig
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
    """The input as a context of a binary stream: stdin's binary layer for "-", else the file."""
    if path == "-":
        return contextlib.nullcontext(sys.stdin.buffer)
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}")


def _read_bits(source, before_read):
    """Yield the bits of the binary stream `source` in chunks, each a bytes of b"0" and b"1".

    A chunk holds the tokens of one read of the input, up to `READ_BYTES`,
    up to its last separator; a token cut off at its end waits for the next
    read, and so does the "\n" of a "\r\n" cut at its "\r".
    `before_read()` is called before every read, which may block.  Each
    chunk goes through `_parse_lines`; a bad token raises `DataError`
    naming its line, once the bits before it are yielded.
    """
    lineno = 1
    pending = []  # the reads since the last separator, none of which holds one
    cr = False  # the last read ended with a "\r" cut, which a "\n" may complete
    while True:
        before_read()
        data = source.read1(READ_BYTES)
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
    """The byte sink of a command: stdout's binary layer for "-", else the named file.

    The file is opened, and so truncated, at the first write.  `write`
    takes str, as UTF-8, or bytes, and writes all of them: under `python
    -u` stdout's binary layer is a raw file, whose write may store fewer
    bytes than it is given, and none (None) when it is non-blocking and
    full.  An `OSError` of open, write, flush or close, or a write that
    stores no byte, is a `DataError`; only a `BrokenPipeError` of stdout
    passes, for `main`'s exit 141.  Once stdout fails it goes to /dev/null
    (the recipe of the `signal` docs): the bytes still buffered would fail
    again when Python flushes it at exit.
    """

    def __init__(self, path: str):
        self.path, self.file = path, None

    def write(self, data) -> None:
        view = memoryview(data.encode() if isinstance(data, str) else data)
        with self._failures():
            if self.file is None:
                self.file = sys.stdout.buffer if self.path == "-" else open(self.path, "wb")
                if self.path == "-":  # what stdout's text layer holds comes first
                    sys.stdout.flush()
            while view:
                stored = self.file.write(view)
                if not stored:
                    raise OSError(f"a write stored none of {len(view)} bytes")
                view = view[stored:]

    def flush(self) -> None:
        if self.file is not None:
            with self._failures():
                self.file.flush()

    def close(self) -> None:
        if self.file is not None:
            with self._failures():
                self.file.flush() if self.path == "-" else self.file.close()

    @contextlib.contextmanager
    def _failures(self):
        try:
            yield
        except OSError as exc:
            if self.path == "-":
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, self.file.fileno())
                os.close(devnull)
                if isinstance(exc, BrokenPipeError):
                    raise
            raise DataError(f"cannot write output {self.path}: {exc}")


def _line(out: _Output, *cells) -> None:
    """One CSV row of `cells`, each written by `fmt`."""
    out.write(",".join(map(fmt, cells)) + "\n")


def _comment(out: _Output, **fields) -> None:
    """One `#` line of space-separated `key=value` tokens, each value written by `fmt`."""
    out.write("# " + " ".join(f"{key}={fmt(value)}" for key, value in fields.items()) + "\n")


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
    with _open_input(args.input) as source:
        # an online release: what is written is flushed before every read,
        # which may wait for more input
        chunks = _read_bits(source, out.flush)
        T = args.T  # a known horizon streams the input, holding one chunk of it
        if T is None:
            chunks = list(chunks)
            T = sum(map(len, chunks))
            if not T:
                raise DataError("empty input stream")
        try:
            cfg = MechanismConfig(
                variant=variant, k=args.k, T=T, epsilon=args.epsilon,
                seed=seed, zero_noise=args.zero_noise,
            )
            engine = BlockNoise(cfg)
        except (ValueError, OverflowError) as exc:
            raise UsageError(str(exc))
        _comment(out, seed=seed)
        if args.zero_noise:
            out.write("# zero-noise: outputs are NOT private\n")
        if args.with_true:
            out.write("# with-true: true prefix sums included, NOT private\n")
        out.write("t,estimate,true\n" if args.with_true else "t,estimate\n")
        # one row per input bit: the true counts plus the next call of the
        # engine, which equals `Mechanism.feed` bit for bit, a chunk at a time
        t = true_sum = 0
        for chunk in chunks:
            bits = np.frombuffer(chunk, dtype=np.uint8)
            n = min(len(bits), T - t)
            if n:
                times = np.arange(t + 1, t + n + 1, dtype=np.int64)
                counts = np.cumsum(bits[:n] - 48, dtype=np.int64)
                counts += true_sum
                out.write(row_bytes(t, counts + engine(times), counts if args.with_true else None))
                t, true_sum = t + n, int(counts[-1])
            if n < len(bits):
                raise DataError(f"input longer than --T {T}")
    if t == 0:
        raise DataError("empty input stream")
    return EXIT_OK


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
    _comment(out, seed=seed)
    out.write("variant,k,h,T,epsilon,trials,empirical_mse,se,closed_form\n")
    _line(out, args.variant, args.k, args.h, T, args.epsilon, args.trials,
          report.empirical_mse, report.standard_error, report.closed_form_mse)
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
        _comment(out, theorem3_branch=branch.branch, epsilon=branch.epsilon)
    if ratio is not None:
        _comment(out, variance_ratio_bound=ratio)
    out.write("regime,scale_or_sigma,epsilon,delta,variance\n")
    for r, variance in zip(rows, variances):
        _line(out, r.regime.value, r.scale_or_sigma, r.epsilon, r.delta, variance)
    return EXIT_OK


def cmd_analyze(args, out) -> int:
    variant = _VARIANTS[args.variant]
    try:
        if args.mode == "constants":
            k_star, c_star = analysis.optimal_k(variant, args.k_min, args.k_max)
            out.write("k,leading_constant\n")
            for k in range(args.k_min, args.k_max + 1):
                try:
                    _line(out, k, analysis.leading_constant(variant, k))
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
            _line(out, rep.B_eps, rep.B_eps_delta, rep.exponent, args.T,
                  rep.delta_threshold(args.T), hb, pure, approx)
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError as exc:  # a square or power past the float range
        raise UsageError(f"a closed form overflows: {exc}")
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
    _comment(out, seed=seed)
    _comment(out, B=cfg.B, m=cfg.m, alpha=cfg.alpha, packing_value=report.packing_value,
             k_threshold=report.k_threshold)
    _comment(out, premise_rate=report.premise_rate, mean_max_error=report.mean_max_error,
             sum_null_se=report.sum_null_se, base_tv_bound=report.base_tv_bound,
             combined_tv_bound=report.combined_tv_bound)
    out.write("i,pr_Ei,se,sum_Ej_null,tv_exact,tv_bound\n")
    for i in range(cfg.m):
        _line(out, i + 1, float(report.pr_event[i]), float(report.pr_event_se[i]),
              report.sum_null, report.tv_exact, report.tv_bound)
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
        out = _Output(args.output)
        try:
            return _COMMANDS[args.command](args, out)
        finally:
            out.close()
    except BrokenPipeError:  # the reader of stdout went away
        return EXIT_PIPE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
