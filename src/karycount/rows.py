"""The CSV rows of a release, `"%d,%.17g\\n"` or `"%d,%.17g,%d\\n"` of each, as bytes.

`row_bytes` formats a block of rows in numpy with the bytes of `%` when
every estimate in it lies in 1 <= |x| < 2^53, and by one `%` otherwise.
`%.17g` of a double is exact integer arithmetic on its bits (Steele &
White, PLDI 1990; Adams, "Ryu revisited", OOPSLA 2019), so it can be done
on arrays.  In a noisy release only the first reads, where the counts are
near 0, hold an estimate outside that range.
"""

from __future__ import annotations

import numpy as np


def _cells(text: bytes) -> np.ndarray:
    """`text` as cells of two bytes each, the unit in which `row_bytes` lays out a row."""
    return np.frombuffer(text, dtype=np.uint16)


#: 10^0 to 10^18, every power of ten below 2^63.
_POW10 = 10 ** np.arange(19, dtype=np.int64)
#: The two digits of 0 to 99.
_PAIRS = _cells(b"".join(b"%02d" % p for p in range(100)))
#: "." and the digit d at d, the digit d and "." at 10 + d.
_DOTS = _cells(b"".join(b".%d" % d for d in range(10)) + b"".join(b"%d." % d for d in range(10)))
#: The comma before an estimate, and its sign: a blank at 0, "-" at -1, the
#: sign bit shifted right.
_COMMA_SIGN = _cells(b",\0,-")
_COMMA, _NEWLINE = _cells(b",\0\n\0")


def row_bytes(t: int, est: np.ndarray, counts: np.ndarray | None = None) -> bytearray:
    """`"%d,%.17g\\n"` or `"%d,%.17g,%d\\n"` of each row t+1, t+2, ..., as bytes.

    The counts, running sums of 0/1 bits, are >= 0.  A block whose
    estimates all lie in 1 <= |x| < 2^53 is formatted in numpy; any other
    block by one `%` over its interleaved columns.  In that range `%.17g` prints x in fixed point:
    its 17 significant digits, the "." after the ni digits of its integer
    part, and no trailing zero after the "." (nor the "." itself, after
    none left).  x = F / 2^E with 0 <= E <= 52 and F < 2^53, so:

    * the integer part is F >> E, and the fraction digits come from long
      division of its remainder, three at a time (remainder * 1000 < 2^62),
      one past the 17th significant digit or more;
    * those 17 digits, N with 10^16 <= N < 10^17, are rounded half to even,
      as `%` does: twice the digits past them, plus a sticky bit for the
      remainder, against their unit;
    * each row is laid out in fixed columns of two-byte cells from digit
      pairs, blanks are NUL and one `translate` removes them.  The digit
      next to the "." shares its cell.  All rows are laid out for the
      block's least ni, read off its least integer part, and each larger ni
      up to that of its largest moves its rows' "." to its own cell;
      trailing zeros are blanked only in the rows whose last digit is 0.

    The arithmetic is in int64, as the release's own, so that it pages in
    few numpy loops that a release does not load anyway.
    """
    n = len(est)
    est = np.ascontiguousarray(est, dtype=np.float64)
    bits = est.view(np.int64)
    shift = (bits >> 52) & 0x7FF  # 1023 + the binary exponent
    if counts is not None:
        counts = np.ascontiguousarray(counts, dtype=np.int64)
    if not n or shift.min() < 1023 or shift.max() > 1075:
        return _percent_rows(t, est, counts)
    np.subtract(1075, shift, out=shift)  # E
    rest = bits & (2**52 - 1)
    rest |= 2**52  # F
    whole = rest >> shift
    mask = 1 << shift
    mask -= 1
    rest &= mask
    lo, hi = len(str(whole.min())), len(str(whole.max()))  # the least and most ni
    rounds = (20 - lo) // 3  # 3 * rounds >= 18 - ni fraction digits
    frac = np.zeros_like(rest)
    for _ in range(rounds):
        rest *= 1000
        frac *= 1000
        frac += rest >> shift
        rest &= mask
    ni = lo
    if lo < hi:
        ni = np.full(n, lo)
        for j in range(lo, hi):
            ni += np.minimum(whole // _POW10[j], 1)
    unit = _POW10[ni + 3 * rounds - 17]  # of the last fraction digit kept
    kept = frac // unit
    frac -= kept * unit
    frac *= 2
    frac += np.minimum(rest, 1)
    frac += kept & 1  # a tie rounds up from an odd digit
    whole *= _POW10[17 - ni]
    whole += kept
    whole -= (unit - frac) >> 63  # -1 where frac > unit: round up
    digits = whole  # N
    # the cell of the "." holds the digit after ni // 2 pairs; the other 16
    # digits make 8 pairs
    pairs = ni // 2
    high = _POW10[17 - 2 * pairs]
    head = digits // high
    tail = digits - head * high
    high //= 10
    mid = tail // high
    tail -= mid * high
    tail += head * high
    dot = _DOTS.take(mid + 10 * (ni & 1))
    tw = (len(str(t + n)) + 1) // 2
    e = tw + 1  # the first cell of the estimate
    cw = 0 if counts is None else (len(str(counts.max())) + 1) // 2
    width = e + 9 + (cw and cw + 1) + 1
    out = bytearray(2 * n * width)
    cells = np.frombuffer(out, dtype=np.uint16).reshape(n, width)
    _put_int(cells, 0, np.arange(n) + (t + 1), tw)
    cells[:, tw] = _COMMA_SIGN.take(bits >> 63)
    first = lo // 2  # the least pairs: laid out for all rows, then moved right
    _put_pairs(cells, [*range(e, e + first), *range(e + first + 1, e + 9)], tail)
    cells[:, e + first] = dot
    for p in range(first + 1, hi // 2 + 1):  # the rows whose "." is in cell e + p
        where = pairs == p
        np.copyto(cells[:, e + first : e + p], cells[:, e + first + 1 : e + p + 1],
                  where=where[:, None])
        np.copyto(cells[:, e + p], dot, where=where)
    raw = cells.view(np.uint8)
    zeros = raw[:, 2 * e + 17] == ord("0")  # the last digit, always after the "."
    if zeros.any():
        rows = np.flatnonzero(zeros)
        digits = digits[rows]
        fraction = 17 - (ni if lo == hi else ni[rows])  # its digits
        field = raw[rows, 2 * e : 2 * e + 18]
        for k in range(1, 18):  # the k-th byte from the end: a digit, or "." at fraction + 1
            blank = (digits % _POW10[np.minimum(fraction, k)] == 0) & (fraction + 1 >= k)
            if not blank.any():
                break
            field[blank, 18 - k] = 0
        raw[rows, 2 * e : 2 * e + 18] = field
    if counts is not None:
        cells[:, e + 9] = _COMMA
        _put_int(cells, e + 10, counts, cw)
    cells[:, -1] = _NEWLINE
    return out.translate(None, b"\0")


def _percent_rows(t: int, est: np.ndarray, counts: np.ndarray | None) -> bytearray:
    """`row_bytes` by one `%` over the interleaved columns, for any values."""
    n = len(est)
    width = 2 if counts is None else 3
    cells = [None] * (width * n)
    cells[0::width] = range(t + 1, t + n + 1)
    cells[1::width] = est.tolist()
    if counts is not None:
        cells[2::width] = counts.tolist()
    row = "%d,%.17g\n" if counts is None else "%d,%.17g,%d\n"
    return bytearray(((row * n) % tuple(cells)).encode())


def _put_pairs(cells: np.ndarray, columns, v: np.ndarray) -> None:
    """Write the low digits of `v`, two to a cell, into `columns`, the most significant first."""
    for c in reversed(columns):
        q = v // 100
        cells[:, c] = _PAIRS.take(v - q * 100)
        v = q


def _put_int(cells: np.ndarray, col: int, v: np.ndarray, width: int) -> None:
    """Write `v` >= 0 into `width` cells from `col`, with its leading zeros blank."""
    _put_pairs(cells, range(col, col + width), v)
    raw = cells.view(np.uint8)
    for j in range(len(str(v.min())), 2 * width):  # the rows with at most j digits
        raw[v < 10**j, 2 * (col + width) - 1 - j] = 0
