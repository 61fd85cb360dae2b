"""Streaming continual-counting mechanisms on k-ary trees.

`Mechanism` is the streaming engine: it keeps a signed-digit counter for the
current time step and a lazy ledger of Laplace noise terms keyed by tree
vertex index p.  The value of a noise term is a pure function of
(seed, p) -- see `noise.vertex_laplace` -- so the batch `TreeOracle`, which
walks an explicit tree of subtree sums, is bit-identical to it under the
same seed, as are the vectorized `BlockNoise` (`karycount run`) and
`BatchRunner` (`bench`, `lowerbound`), which share one digit walk, `_runs`.
That pointwise equality is deliberately stronger than the distributional
equivalence it mirrors and is what the equivalence tests pin down.

Sign convention: a vertex is always consumed with the same role (left
children are added, right children subtracted), and since Laplace noise is
symmetric the ledger stores one draw per vertex which is always *added* to
the output, for both added and subtracted vertices.

Canonical summation order, used by `Mechanism.feed`, `TreeOracle.run`,
`BatchRunner` and `BlockNoise` alike: the noise of an output is 0.0 plus
each level's sum, from level h-1 down to level 0, and each level's sum is
0.0 plus that level's draws in digit-walk order.  The true prefix sum is
added last.  Any other order gives the same distribution but may differ in
the last bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .digits import DigitSystem, digit_bounds, encode, max_value
from .noise import check_scale, vertex_laplace

#: Elements of one (keys + 1) x seeds or outputs x seeds array of
#: `BatchRunner.noise`: batch callers draw their trials in blocks of
#: `BatchRunner.seeds_per_block()` seeds, 512 KiB of float64, which bounds
#: the memory they hold and keeps each array in a core's cache.
TRIAL_BLOCK_ELEMENTS = 1 << 16

#: Bytes the plan of a `BatchRunner` may take: 8 per output and level for
#: its index, and 64 per digit run and per vertex key while it is built,
#: counted for the most runs and keys the requested times can have.  A
#: larger plan is refused before anything is allocated.  1 GiB holds the
#: plan of `bench --variant offset-odd --k 19 --h 5` (T = 1,238,049, 212 MB)
#: but not that of `--h 6` (4.2 GB).
PLAN_BYTES_MAX = 1 << 30

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class MechanismConfig:
    variant: DigitSystem
    k: int
    T: int
    epsilon: float
    seed: int = 0
    zero_noise: bool = False

    def __post_init__(self) -> None:
        digit_bounds(self.variant, self.k)  # validates variant/arity parity
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        check_scale("per-vertex scale h/epsilon", self.height / self.epsilon)
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
                and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        # a Python int, so a scalar draw takes the int hash
        object.__setattr__(self, "seed", int(self.seed))

    @functools.cached_property
    def height(self) -> int:
        """Tree height: smallest h whose digit range covers all of [1, T].

        Computed once per config: the frozen fields cannot change it.
        """
        h = 1
        while max_value(self.variant, self.k, h) < self.T:
            h += 1
        return h

    @property
    def scale(self) -> float:
        """Per-vertex Laplace scale h/epsilon (0 under the zero-noise hook)."""
        if self.zero_noise:
            return 0.0
        return self.height / self.epsilon


class MechanismStateError(RuntimeError):
    """Raised when feeding past the configured stream length."""


class Mechanism:
    """Streaming state advanced one input bit at a time.

    Single-owner: one caller advances the state; run parallel trials on
    distinct instances with derived seeds.
    """

    def __init__(self, config: MechanismConfig):
        self.config = config
        self.h = config.height
        self.scale = config.scale
        self._seed = config.seed
        self._lo, self._hi = digit_bounds(config.variant, config.k)
        self._pows = [config.k**i for i in range(self.h + 1)]
        self._digits = [0] * self.h
        # _pref[i] = integer value of the digits strictly above level index i
        self._pref = [0] * self.h
        # Level index i is a stack in digit-walk order: a step appends to or
        # pops from the top of at most one level, and clears the levels below.
        # _keys[i] holds its vertex indices p; _sums[i][j] is 0.0 plus its
        # first j+1 noise draws, so _sums[i][-1] is the level's sum.
        self._keys: list[list[int]] = [[] for _ in range(self.h)]
        self._sums: list[list[float]] = [[] for _ in range(self.h)]
        # _acc[i] = 0.0 plus the level sums from h-1 down to i; _acc[h] = 0.0
        self._acc = [0.0] * (self.h + 1)
        self._size = 0
        self.t = 0
        self._true_sum = 0
        self.high_water = 0
        self.work = 0  # digit writes + ledger insertions + evictions

    # -- ledger bookkeeping -------------------------------------------------

    @property
    def ledger_size(self) -> int:
        """Noise terms held now, kept as a counter by insert, evict and clear."""
        return self._size

    def ledger_keys(self) -> list[int]:
        """Vertex indices currently held, in output summation order."""
        keys: list[int] = []
        for lvl in reversed(self._keys):
            keys.extend(lvl)
        return keys

    def _insert(self, level: int, p: int) -> None:
        sums = self._sums[level]
        z = vertex_laplace(self.scale, self._seed, p)
        sums.append((sums[-1] if sums else 0.0) + z)
        self._keys[level].append(p)
        self._size += 1
        self.work += 1

    def _evict(self, level: int, p: int) -> None:
        if self._keys[level].pop() != p:  # unreachable; guards a corrupted state
            raise MechanismStateError(f"vertex {p} is not on top of level {level}")
        self._sums[level].pop()
        self._size -= 1
        self.work += 1

    # -- streaming ----------------------------------------------------------

    def feed(self, x: int) -> float:
        """Consume one input bit and return the private prefix-sum estimate."""
        if type(x) is not int or (x != 0 and x != 1):
            raise ValueError(f"input must be the int 0 or 1, got {x!r}")
        if self.t >= self.config.T:
            raise MechanismStateError(f"stream length {self.config.T} exhausted")
        self.t += 1
        self._true_sum += x

        # increment the digit counter; levels [0, top] are the carry chain
        digits, lo, hi = self._digits, self._lo, self._hi
        i = 0
        while i < self.h and digits[i] == hi:
            digits[i] = lo
            self.work += 1
            i += 1
        if i == self.h:  # unreachable while t <= T; guards a corrupted state
            raise MechanismStateError("digit counter overflow")
        digits[i] += 1
        self.work += 1
        top = i

        # prefixes strictly above levels < top changed with the carry
        pref, pows = self._pref, self._pows
        for lvl in range(top - 1, -1, -1):
            pref[lvl] = pref[lvl + 1] + digits[lvl + 1] * pows[lvl + 1]

        # ledger delta at the top of the carry chain: the digit moved d -> d+1
        d_new = digits[top]
        base = pref[top]
        if d_new <= 0:
            # one fewer right-child subtraction; that term is never used again
            self._evict(top, base + (d_new - 1) * pows[top])
        else:
            self._insert(top, base + d_new * pows[top])

        # levels below the carry top restarted at the lowest digit
        for lvl in range(top):
            keys = self._keys[lvl]
            self.work += len(keys)
            self._size -= len(keys)
            keys.clear()
            self._sums[lvl].clear()
            if lo < 0:
                base = pref[lvl]
                for j in range(1, -lo + 1):
                    self._insert(lvl, base - j * pows[lvl])

        if self._size > self.high_water:
            self.high_water = self._size

        # only the level sums at or below the carry top changed
        acc, sums = self._acc, self._sums
        for lvl in range(top, -1, -1):
            level = sums[lvl]
            acc[lvl] = acc[lvl + 1] + (level[-1] if level else 0.0)
        return self._true_sum + acc[0]


def check_int64(config: MechanismConfig) -> None:
    """Raise `OverflowError` unless every time and key of the tree fits in int64."""
    # every key and every time is at most max_value(h) < k^h
    if config.k**config.height > _INT64_MAX:
        raise OverflowError(
            f"k={config.k}, h={config.height} (T={config.T}): "
            "times and vertex keys do not fit in int64"
        )


def check_plan_budget(config: MechanismConfig, rows: int, span: int) -> None:
    """Raise `ValueError` if the plan of `rows` sorted times passes `PLAN_BYTES_MAX`.

    `span` is the largest time minus the smallest.  Level l has at most
    min(rows, span // k^l + 2) runs, and a row at level l + 1 walks at most
    k - 1 keys, as a run at level l at most m, the largest digit magnitude.
    """
    k, h = config.k, config.height
    lo, hi = digit_bounds(config.variant, k)
    runs = [min(rows, span // k**lvl + 2) for lvl in range(h)] + [1]
    keys = sum(min(max(hi, -lo) * runs[lvl], (k - 1) * runs[lvl + 1]) for lvl in range(h))
    need = 8 * h * rows + 64 * (sum(runs) + keys)
    if need > PLAN_BYTES_MAX:
        raise ValueError(
            f"the plan of {rows} outputs at k={k}, h={h} needs {need} bytes "
            f"({need // rows} per output), over the budget of {PLAN_BYTES_MAX} bytes"
        )


def _check_times(config: MechanismConfig, times) -> np.ndarray:
    """`times` as a one-dimensional int64 array in [1, T], after `check_int64`."""
    check_int64(config)
    t = np.asarray(times, dtype=np.int64)
    if t.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
    if len(t) and (t.min() < 1 or t.max() > config.T):
        raise ValueError(f"times must lie in [1, T={config.T}]")
    return t


def _shifts(config: MechanismConfig) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, pows, shift): the lowest digit, k^l and the shift of the digits at levels >= l.

    In every system the digits span [lo, lo + k - 1], so with
    C = -lo * (k^h - 1)/(k - 1) the shifted time u = t + C lies in [0, k^h)
    and its plain base-k digits are d_l - lo.  pows and shift have h + 1
    entries, l = 0..h; shift[l] = -lo * (k^l + ... + k^(h-1)) is the part
    of C at levels >= l, so shift[0] = C and shift[h] = 0.
    """
    k, h = config.k, config.height
    lo = digit_bounds(config.variant, k)[0]
    pows = k ** np.arange(h + 1, dtype=np.int64)
    return lo, pows, -lo * ((pows[h] - pows) // (k - 1))


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values of the sorted, non-empty x, index of each element's value among them)."""
    change = np.empty(len(x), dtype=bool)
    change[0] = True
    np.not_equal(x[1:], x[:-1], out=change[1:])
    index = np.cumsum(change)
    index -= 1
    return x[change], index


def _runs(config: MechanismConfig, shifts, t: np.ndarray):
    """(off, split, row, plevel, d, base): the digit runs of sorted times t.

    `shifts` is `_shifts(config)`.  Level 0's runs are the times (a repeated
    time is a run of its own), level l+1's the distinct q // k of level
    l's.  Levels split..h-1 have one run each, from one broadcast; run r is
    at level l for off[l] <= r < off[l+1], and run off[h] is the root,
    q_h = 0.  d[r] is run r's digit.  The runs above level 0 are the rows:
    row[r] is run r's parent, plevel[i] is row i's level and base[i] the
    base of its children, the value of the digits from level plevel[i] up.
    A row's children are consecutive runs, and their digits never decrease.
    """
    k, h = config.k, config.height
    lo, pows, shift = shifts
    q = t + shift[0]
    qs, parents = [], []
    while len(q) > 1:
        qs.append(q)
        q, parent = _distinct(q // k)
        parents.append(parent)
    split = len(qs)
    qs.append(q // pows[: h + 1 - split])
    counts = [len(x) for x in qs[:split]] + [1] * (h + 1 - split)
    off = list(itertools.accumulate(counts, initial=0))
    n = off[h]
    row = np.concatenate([p + (off[lvl + 1] - off[1]) for lvl, p in enumerate(parents)]
                         + [np.arange(off[split] + 1, n + 1) - off[1]])
    q = np.concatenate(qs)
    plevel = np.repeat(np.arange(1, h + 1), counts[1:])
    base = q[off[1] :] * pows[plevel]
    base -= shift[plevel]
    d = q[:n] % k
    d += lo
    return off, split, row, plevel, d, base


class BlockNoise:
    """Noise of the outputs at sorted times, call after call, equal to `feed`'s bit for bit.

    With u = t + C (`_shifts`), the digits at every level >= l depend only
    on q_l = u // k^l, and over sorted times q_l changes only once every
    k^l steps.  A call therefore works on runs: level 0's runs are its
    times, and level l+1's the distinct q_l // k of level l's runs, so each
    run has one digit and one base.  Once a level has one run, so has every
    level above it, and their q_l come from one broadcast.  The work of a
    call over r consecutive times is O(r*k/(k-1) + h), not O(r*h).

    At level l a run walks the vertices base + j*k^l (digit d > 0) or
    base - j*k^l (d < 0), j = 1..|d|, where base, the value of the digits
    above level l, is a multiple of k^(l+1) that never decreases over sorted
    times, and the digit never decreases while the base stays.  The runs of
    all levels are laid end to end; a run's base is that of its parent run
    at level l+1, so the parent runs (and, above level h-1, the root) are
    the rows of one grid.  A level's top row goes on from the state the
    level was left in by the last call (at first: base 0, digit 0) if its
    base is the same: its + side starts from the carried running sum at j0,
    the carried digit, so only the keys past j0 are drawn.  The - side of a
    base is drawn once, by the call that meets the base first, as wide as
    its first digit; later calls read its running sums from the carried
    state.  So over a stream of calls each key is drawn once, as `feed`
    draws it, plus the padding of each call's grid to its widest row, and
    the cost of a call does not grow with t, however wide the tree.  One
    `vertex_laplace` call draws both sides of every row, `cumsum` gives the
    running sums, and one gather gives each run its level sum.  The noise
    of a run at level l is acc_l = acc_(l+1)[parent run] + its level sum,
    from level h-1 down to 0 starting at 0.0: `feed`'s recursion, the
    canonical order.  No key is sorted or searched.
    """

    def __init__(self, config: MechanismConfig):
        check_int64(config)
        h = config.height
        self.config = config
        self._shifts = _shifts(config)
        self._pows = self._shifts[1]
        self._last = 0
        self._base = np.zeros(h, dtype=np.int64)
        self._j = np.zeros(h, dtype=np.int64)  # the digit, or 0 if it is <= 0
        # running sum of the + side at j (0.0 if j is 0), and of the - side
        # of the base at j = 0, 1, ... (j = 0 holds 0.0)
        self._sum = np.zeros(h)
        self._neg = np.zeros((h, 1))

    def __call__(self, times) -> np.ndarray:
        t = _check_times(self.config, times)
        if not len(t):
            return np.zeros(0)
        if t[0] < self._last or (t[1:] < t[:-1]).any():
            raise ValueError("times must be sorted, and not before those of the last call")
        off, split, row, plevel, d, base = _runs(self.config, self._shifts, t)
        acc = self._level_sums(off, row, plevel, d, base)
        self._last = int(t[-1])
        # the noise of each run, from the root down, as `feed` adds it: the
        # single runs of levels h-1..split in one sequential cumsum from the
        # root's 0.0, then level by level onto the parents
        chain = acc[off[split] :][::-1]
        chain.cumsum(out=chain)
        above = acc[off[1] :]
        for lvl in range(split - 1, -1, -1):
            runs = slice(off[lvl], off[lvl + 1])
            acc[runs] += above[row[runs]]
        return acc[: len(t)]

    def _level_sums(self, off, row, plevel, d, base) -> np.ndarray:
        """Each run's level sum, then 0.0 for the root; carries each level's state on.

        A level's top row goes on from the carried state if its base is the
        carried one: its + side then starts at j0, the carried digit.
        """
        h, n, rows = self.config.height, len(d), len(base)
        top = row[off[:h]]
        goes_on = base[top] == self._base
        j0 = np.zeros(rows, dtype=np.int64)
        j0[top] = self._j * goes_on
        col = d - j0[row]  # a run's + side column: its digit past j0
        up = max(0, int(col.max()))
        starts = np.ones(n, dtype=bool)  # first run of each row
        np.not_equal(row[1:], row[:-1], out=starts[1:])
        first = d[starts]
        new = first < 0  # a new base whose first digit is negative
        new[top] &= ~goes_on
        down = -int(first.min(initial=0, where=new))
        del starts, first  # freed here, not at the return, for the call's peak memory
        # the grid: + side j0 + c, c = 0..up, then - side j = 0..down; keys
        # base + (j0 + c)*k^l of every row and base - j*k^l of the new
        # bases, c, j >= 1.  Keys of slots no run walks may wrap, and their
        # draws go unread.
        step = self._pows[plevel - 1]
        plus = j0[:, None] + np.arange(1, up + 1)
        plus *= step[:, None]
        plus += base[:, None]
        minus = base[new, None] - np.arange(1, down + 1) * step[new, None]
        z = vertex_laplace(self.config.scale, self.config.seed,
                           np.concatenate((plus.ravel(), minus.ravel())))
        width = up + down + 2
        grid = np.zeros((rows, width))
        grid[top, 0] = np.where(goes_on, self._sum, 0.0)
        grid[:, 1 : up + 1] = z[: plus.size].reshape(plus.shape)
        grid[new, up + 2 :] = z[plus.size :].reshape(minus.shape)
        del j0, step, plus, minus, z  # likewise
        grid[:, : up + 1].cumsum(axis=1, out=grid[:, : up + 1])
        grid[:, up + 1 :].cumsum(axis=1, out=grid[:, up + 1 :])
        # a digit <= 0 on a row that is not new reads a 0.0 of the - side
        # (clipped to its last column), and on a carried row then adds the
        # carried - side
        np.subtract(up + 1, d, out=col, where=d <= 0)
        np.minimum(col, width - 1, out=col)
        acc = np.empty(n + 1)
        acc[:n] = grid[row, col]
        acc[n] = 0.0
        if self._neg.shape[1] > 1:
            carried = np.zeros(rows, dtype=bool)
            carried[top] = goes_on
            old = np.minimum(d, 0)
            np.negative(old, out=old)
            old *= carried[row]
            acc[:n] += self._neg[plevel[row] - 1, old]
        last = [o - 1 for o in off[1 : h + 1]]
        last_row = row[last]
        renew = new[last_row]
        if renew.any():
            if self._neg.shape[1] < down + 1:
                self._neg = np.pad(self._neg, ((0, 0), (0, down + 1 - self._neg.shape[1])))
            self._neg[renew, : down + 1] = grid[last_row[renew], up + 1 :]
        self._base = base[last_row]
        self._j = np.maximum(d[last], 0)
        self._sum = np.where(self._j > 0, acc[last], 0.0)
        return acc


def output_keys(config: MechanismConfig) -> list[list[int]]:
    """Vertex indices consumed per output, in walk order.

    Entry t-1 holds the indices whose noise terms form the estimate at time
    t: `Mechanism.ledger_keys()` after step t.  Input-independent, so the
    steps feed zeros and draw no noise.
    """
    mech = Mechanism(replace(config, zero_noise=True))
    keys = []
    for _ in range(config.T):
        mech.feed(0)
        keys.append(mech.ledger_keys())
    return keys


class TreeOracle:
    """Batch reference: an explicit k-ary tree of noisy subtree sums.

    Level-l vertices are the intervals [1 + j*k^(l-1), (j+1)*k^(l-1)]; the
    stream is logically padded with zeros up to k^height leaves.
    """

    def __init__(self, bits, config: MechanismConfig):
        if len(bits) != config.T:
            raise ValueError(f"input length {len(bits)} != T={config.T}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("input must be bits")
        self.config = config
        self.h = config.height
        self.scale = config.scale
        self.bits = list(bits)
        self._cum = [0]
        for b in self.bits:
            self._cum.append(self._cum[-1] + b)

    def _interval_sum(self, a: int, b: int) -> int:
        T = self.config.T
        return self._cum[min(b, T)] - self._cum[min(a, T)]

    def run(self) -> list[float]:
        """All T estimates via the signed digit walk over the tree.

        Noise is summed in the canonical order of the module docstring.
        """
        cfg = self.config
        k, h = cfg.k, self.h
        pows = [k**i for i in range(h + 1)]
        outputs: list[float] = []
        for t in range(1, cfg.T + 1):
            v = encode(t, k, h, cfg.variant)
            p = 0
            true_part = 0
            noise = 0.0
            for lvl in range(h - 1, -1, -1):
                d = v.digits[lvl]
                level_sum = 0.0
                for _ in range(abs(d)):
                    if d > 0:
                        true_part += self._interval_sum(p, p + pows[lvl])
                        p += pows[lvl]
                    else:
                        true_part -= self._interval_sum(p - pows[lvl], p)
                        p -= pows[lvl]
                    level_sum += vertex_laplace(self.scale, cfg.seed, p)
                noise += level_sum
            outputs.append(true_part + noise)
        return outputs


def run_oracle(bits, config: MechanismConfig) -> list[float]:
    """Batch run of the tree oracle; pointwise equal to streaming `feed`."""
    return TreeOracle(bits, config).run()


class BatchRunner:
    """Vectorized repeated runs of a fixed configuration at chosen times.

    The keys of the requested outputs come from the digit runs of their
    times (`_runs`), each key once.  A vertex key fixes its level, its sign
    and its slot in the level's walk, so the level sum that ends at a vertex
    is the same in every output that walks to it.  The runner therefore
    stores, per output and level, only the index of the last vertex walked
    there (an index into the sorted unique keys; an empty level points one
    past the last key, at a sentinel draw of 0.0), and per vertex the index
    of the one walked before it.

    `noise` draws the unique keys under each of its seeds, turns the draws
    into the running level sums along those chains, and adds the level sums
    of each output from level h-1 down to 0: the canonical order of the
    module docstring, so a run equals `feed` under the same seed bit for
    bit, and so does each seed's column of a batch of seeds.
    Memory is O(len(times) * h) indices plus the runs and the keys, which
    `check_plan_budget` bounds before anything is allocated.
    """

    def __init__(self, config: MechanismConfig, times=None):
        self.config = config
        if times is None:
            check_int64(config)
            check_plan_budget(config, config.T, config.T - 1)
            times = np.arange(1, config.T + 1, dtype=np.int64)
        else:
            times = _check_times(config, times)
            if not len(times):
                raise ValueError("times must not be empty")
            check_plan_budget(config, len(times), int(times.max() - times.min()))
        self.times = times
        # true counts are block sums of the input between consecutive times
        self._ends, self._rows = np.unique(times, return_inverse=True)
        self._starts = np.concatenate(([0], self._ends[:-1]))
        shifts = _shifts(config)
        off, _, row, plevel, d, base = _runs(config, shifts, self._ends)
        step = shifts[1][plevel - 1]
        # a row's children are consecutive runs with nondecreasing digits: it
        # walks base - j*k^l for j = 1..down, then base + j*k^l for j = 1..up
        first = np.diff(row, prepend=-1) != 0
        down = np.maximum(-d[first], 0)
        up = np.maximum(d[np.append(first[1:], True)], 0)
        width = up + down
        owner = np.repeat(np.arange(len(width)), width)
        j = np.arange(len(owner)) - np.repeat(np.cumsum(width) - up, width)
        j += j >= 0
        keys = base[owner] + j * step[owner]
        self.keys = np.sort(keys)
        # (vertices in slot s, the vertices walked just before them), s >= 2
        prev = keys - np.sign(j) * step[owner]
        np.abs(j, out=j)
        self._chain = [(np.searchsorted(self.keys, keys[j == s]),
                        np.searchsorted(self.keys, prev[j == s])) for s in range(2, j.max() + 1)]
        del first, owner, j, keys, prev  # freed before the index, for the plan's peak memory
        # index[l, r]: last vertex of output r at the l-th level in walk
        # order, or one past the last key for a digit of 0; levels no output
        # uses add 0.0 everywhere and are dropped
        sentinel = len(self.keys)
        last = np.where(d != 0, np.searchsorted(self.keys, base[row] + d * step[row]), sentinel)
        h = config.height
        index = np.empty((h, len(times)), dtype=np.intp)
        run = np.arange(len(self._ends))  # the level-0 runs are the distinct times
        for lvl in range(h):
            index[h - 1 - lvl] = last[run][self._rows]
            run = off[1] + row[run]
        used = (index != sentinel).any(axis=1)
        self.index = index if used.all() else index[used]
        self._buffers = None

    def seeds_per_block(self) -> int:
        """Seeds per `noise` call that keep its arrays within `TRIAL_BLOCK_ELEMENTS`."""
        return max(1, TRIAL_BLOCK_ELEMENTS // max(len(self.times), len(self.keys) + 1))

    def noise(self, seeds) -> np.ndarray:
        """The noise of every output under each of `seeds`, in canonical order.

        `seeds` is one seed or an array of them; the result has shape
        (len(times),) + shape of `seeds`.  Every key is drawn under every
        seed in one `vertex_laplace` call, with a sentinel row of 0.0 after
        the keys for the levels an output leaves empty.  The arrays are kept
        from call to call while the shape of `seeds` stays the same, so the
        next such call overwrites the result.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        if self._buffers is None or self._buffers[2].shape[1:] != seeds.shape:
            z = np.empty((len(self.keys) + 1, *seeds.shape))
            z[-1] = 0.0
            noise = np.empty((self.index.shape[1], *seeds.shape))
            self._buffers = z, np.empty(z[:-1].shape, np.uint64), noise, np.empty_like(noise)
        z, work, noise, term = self._buffers
        vertex_laplace(self.config.scale, seeds, self.keys.reshape(-1, *(1,) * seeds.ndim),
                       out=z[:-1], work=work)
        # running level sums, slot by slot: 0.0 + z1, then (0.0 + z1) + z2, ...
        for child, parent in self._chain:
            z[child] += z[parent]
        # every index is in range, and mode="raise" would copy through a buffer
        np.take(z, self.index[0], axis=0, out=noise, mode="clip")  # 0.0 plus the top level
        for idx in self.index[1:]:
            noise += np.take(z, idx, axis=0, out=term, mode="clip")
        return noise

    def run(self, bits, seed: int) -> np.ndarray:
        """Estimates at the selected times for one seeded run."""
        bits = np.asarray(bits)
        if len(bits) != self.config.T:
            raise ValueError(f"input length {len(bits)} != T={self.config.T}")
        # unique ends keep every segment non-empty; the last ends at max(times)
        segments = np.add.reduceat(bits[: self._ends[-1]], self._starts, dtype=np.int64)
        return np.cumsum(segments)[self._rows] + self.noise(seed)


@dataclass
class AuditResult:
    """Non-root interval membership counts per stream index."""

    counts: np.ndarray
    max_count: int


def sensitivity_audit(config: MechanismConfig) -> AuditResult:
    """Count, for each i in [1, T], the non-root tree vertices containing i.

    The maximum is the l1-sensitivity of releasing the noisy tree; it must
    equal the height h (one vertex per non-root level).
    """
    h = config.height
    k = config.k
    counts = np.zeros(config.T, dtype=np.int64)
    for level in range(1, h + 1):
        width = k ** (level - 1)
        for j in range(k ** (h - level + 1)):
            a, b = j * width, min((j + 1) * width, config.T)
            if a >= config.T:
                break
            counts[a:b] += 1
    return AuditResult(counts=counts, max_count=int(counts.max()))
