"""Streaming continual-counting mechanisms on k-ary trees.

`Mechanism` is the online engine: it keeps a signed-digit counter for the
current time step and a lazy ledger of Laplace noise terms keyed by tree
vertex index p.  The value of a noise term is a pure function of
(seed, p) -- see `noise.vertex_laplace` -- so the vectorized `BlockNoise`
(`karycount run`) and `BatchRunner` (`bench`, `lowerbound`), which build
one `_Plan` of the requested times and evaluate it, under one seed or
under many, are bit-identical to it under the same seed, and so is the
tests' explicit tree of subtree sums.  That pointwise equality is
deliberately stronger than the distributional equivalence it mirrors and
is what the equivalence tests pin down.

Sign convention: a vertex is always consumed with the same role (left
children are added, right children subtracted), and since Laplace noise is
symmetric the ledger stores one draw per vertex which is always *added* to
the output, for both added and subtracted vertices.

Canonical summation order, used by `Mechanism.feed`, `BatchRunner` and
`BlockNoise` alike: the noise of an output is 0.0 plus each level's sum,
from level h-1 down to level 0, and each level's sum is 0.0 plus that
level's draws in digit-walk order.  The true prefix sum is added last.
Any other order gives the same distribution but may differ in the last
bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .digits import DigitSystem, digit_bounds, max_value
from .noise import check_scale, vertex_laplace

#: Elements of the (keys + 1) x seeds draws or of the outputs x seeds result
#: of `BatchRunner.noise`, whichever is larger (its runs, about k/(k - 1)
#: times the outputs, a few more): batch callers draw their trials in blocks
#: of `BatchRunner.seeds_per_block()` seeds, 512 KiB of float64, which bounds
#: the memory they hold and keeps each array in a core's cache.
TRIAL_BLOCK_ELEMENTS = 1 << 16

#: Bytes the plan of a `BatchRunner` may take: 64 per digit run and per
#: vertex key while it is built, counted for the most runs and keys the
#: requested times can have.  A larger plan is refused before anything is
#: allocated.  1 GiB holds the plan of `bench --variant offset-odd --k 19
#: --h 5` (T = 1,238,049, 163 MB) but not that of `--h 6` (3.1 GB).
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
        """Noise terms held now, kept as a counter by insert, evict and clear.

        No command reads it; `perfbench/layers.py` reads it after each step.
        """
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
        """Consume one input bit and return the private prefix-sum estimate.

        The library's online per-bit API, for an in-process caller that
        needs each estimate before its next bit: one step draws only its new
        vertices, one scalar splitmix64 draw each, and re-adds only the
        level sums at or below its carry.  Measured in the same hour on a
        2-core x86-64 VM (Python 3.11, numpy 2.4; 2,000 steps, five
        repeats, plain k=2 and offset-odd k=19 at T=1e5), a step took
        3.6-7.2 us against 350-445 us for a one-row `BlockNoise` call,
        which makes a few dozen numpy calls whatever its size.  The tests
        pin `BlockNoise` and `BatchRunner` to it bit for bit.
        """
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
    need = 64 * (sum(runs) + keys)
    if need > PLAN_BYTES_MAX:
        raise ValueError(
            f"the plan of {rows} outputs at k={k}, h={h} needs {need} bytes "
            f"({need // rows} per output), over the budget of {PLAN_BYTES_MAX} bytes"
        )


def _check_times(config: MechanismConfig, times) -> np.ndarray:
    """`times`, integers, as a one-dimensional int64 array in [1, T], after `check_int64`."""
    check_int64(config)
    t = np.asarray(times)
    # a float would be truncated to another time, and a bool read as 0 or 1
    if t.ndim != 1 or t.size and t.dtype.kind not in "iu":
        raise ValueError(f"times must be one-dimensional integers, got {t.dtype}, shape {t.shape}")
    t = t.astype(np.int64, copy=False)
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


def _runs(config: MechanismConfig, shifts, t: np.ndarray):
    """(off, split, first, row, plevel, d, base): the digit runs of sorted times t.

    `shifts` is `_shifts(config)`.  Level 0's runs are the times (a repeated
    time is a run of its own), level l+1's the distinct q // k of level
    l's.  Levels split..h-1 have one run each, from one broadcast; run r is
    at level l for off[l] <= r < off[l+1], and run off[h] is the root,
    q_h = 0.  d[r] is run r's digit.  The runs above level 0 are the rows:
    row[r] is run r's parent, plevel[i] is row i's level and base[i] the
    base of its children, the value of the digits from level plevel[i] up.
    A row's children are consecutive runs, first[r] is whether run r is
    its row's first, and their digits never decrease.
    """
    k, h = config.k, config.height
    lo, pows, shift = shifts
    q = t + shift[0]
    qs, firsts = [], []
    while len(q) > 1:
        qs.append(q)
        q = q // k
        firsts.append(np.concatenate(([True], q[1:] != q[:-1])))
        q = q[firsts[-1]]
    split = len(qs)
    qs.append(q // pows[: h + 1 - split])
    firsts.append(np.ones(h - split, dtype=bool))
    counts = [len(x) for x in qs[:split]] + [1] * (h + 1 - split)
    off = list(itertools.accumulate(counts, initial=0))
    first = np.concatenate(firsts)
    # the rows are numbered in run order, so a run's row is the count of
    # first runs up to it, less one
    row = np.cumsum(first)
    row -= 1
    q = np.concatenate(qs)
    plevel = np.repeat(np.arange(1, h + 1), counts[1:])
    base = q[off[1] :] * pows[plevel]
    base -= shift[plevel]
    d = q[: off[h]] % k
    d += lo
    return off, split, first, row, plevel, d, base


class _Plan:
    """A `BlockNoise` call on sorted times t, but for its draws: the same under every seed.

    Built from the digit runs of t (`_runs`) and the state that the last
    call, whose last time was `last` (0 before the first call), left at
    each level: the base of its last run, and that run's digit if > 0
    (else 0), j0.  A run at level l walks base + j*k^l (digit d > 0) or
    base - j*k^l (d < 0), j = 1..|d|, where base is its parent row's.  A
    row's digits never decrease, so a row walks at most two lanes: its +
    side past j0, the carried digit if the row goes on from the state (its
    base is the carried one), up to its last digit; and the - side of a new
    base down to its first digit.  Each walked key that no earlier call drew
    is in one lane, once.

    The lanes, longest first, are laid out slot by slot: slot j holds key j
    of every lane that has one, so the slots that the same lanes have form
    a regular slots x lanes grid, a stretch.  After the lanes come the
    carried state, at each level its + sum at j0 and its - sums at j = 1..m
    (m = -lo, the largest magnitude of a negative digit), and one 0.0, so
    each run's level sum is one gather: a lane slot, a carried sum, or the
    0.0 of a digit of 0.  Only the runs of a level's first row read the
    carried state.
    """

    def __init__(self, config: MechanismConfig, shifts, t: np.ndarray, last: int):
        h = config.height
        lo, pows, shift = shifts
        m = -lo
        # the last time's digits at every level are those of q
        q = (last + shift[0]) // pows
        base0 = q[1:] * pows[1:] - shift[1:]
        j0 = np.maximum(q[:-1] % config.k + lo, 0)
        off, split, first, row, plevel, d, base = _runs(config, shifts, t)
        n = len(d)
        rows = len(base)
        self.off = off
        self.split = split
        self.row = row
        # row i's children are the runs bound[i] .. bound[i + 1] - 1
        bound = np.append(np.flatnonzero(first), n)
        del first  # the dels free arrays early, for the peak memory
        offh = np.array(off[:h])
        top = row[offh]  # the first row of each level, at level l + 1
        goes_on = base[top] == base0
        jrow = np.zeros(rows, dtype=np.int64)
        jrow[top] = j0 * goes_on
        # lane i is row i's - side, down to its first digit if its base is
        # new, and lane rows + i its + side, from jrow[i] up to its last digit
        length = np.empty(2 * rows, dtype=np.int64)
        np.negative(d[bound[:-1]], out=length[:rows])
        length[top[goes_on]] = 0
        np.take(d, bound[1:] - 1, out=length[rows:])
        np.maximum(length, 0, out=length)
        length[rows:] -= jrow
        order = np.argsort(-length, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(2 * rows)
        # lanes[j - 1] lanes have a slot j, which starts at slot[j]; the 0.0
        # is at slot[0], and each lane's slot j at slot[j] + its rank
        lanes = np.cumsum(np.bincount(length)[:0:-1])[::-1]
        nkeys = int(length.sum())
        self.size = nkeys + h * (m + 1) + 1  # lanes, carried state and the 0.0
        zero = self.size - 1
        slot = np.concatenate(([zero, 0], np.cumsum(lanes)))
        # stretches (start, lanes, slots): the slots that the same lanes have
        cut = [0, *(np.flatnonzero(lanes[1:] != lanes[:-1]) + 1).tolist(), len(lanes)]
        self.stretches = [(int(slot[a + 1]), int(lanes[a]), b - a) for a, b in zip(cut, cut[1:]) if b > a]
        # slot j of the lane ranked r holds the key start[r] + j*step[r]
        lane = order[: lanes[0] if nkeys else 0]
        del order
        minus = lane < rows
        lane %= rows
        step = pows[plevel[lane] - 1]
        step[minus] *= -1
        start = jrow[lane] * step + base[lane]
        del lane, minus, plevel, base
        keys = np.empty(nkeys, dtype=np.int64)
        j = 1
        for at, count, slots in self.stretches:
            grid = keys[at : at + count * slots].reshape(slots, count)
            np.add(start[:count], np.arange(j, j + slots)[:, None] * step[:count], out=grid)
            j += slots
        self.keys = keys.view(np.uint64)
        del start, step
        # each run's level sum: slot |d| of its lane, the 0.0 for d = 0, ...
        self.gather = np.full(n + 1, zero)
        np.abs(d, out=self.gather[:n])
        np.take(slot, self.gather[:n], out=self.gather[:n], mode="clip")
        lane = np.where(d > 0, rows, 0)
        lane += row
        self.gather[:n] += np.take(rank, lane, out=lane)
        del lane
        np.minimum(self.gather, zero, out=self.gather)
        # ... or, for the runs of a level's first row if it goes on, the
        # carried + sum if d <= j0 and the carried - sums if d < 0
        count = (bound[top + 1] - offh) * goes_on
        lvl = np.repeat(np.arange(h), count)
        runs = np.repeat(offh - np.cumsum(count) + count, count)
        runs += np.arange(len(runs))
        dr = d[runs]
        c = dr - jrow[top[lvl]]
        self.gather[runs] = np.where(c > 0, np.take(slot, c, mode="clip") + rank[top[lvl] + rows],
                                     nkeys + lvl * (m + 1) + np.maximum(-dr, 0))
        # the state left: at each level the + sum at its last digit (or the
        # 0.0), and the - sums of its last row's base, drawn here if new
        final = np.array(off[1 : h + 1]) - 1
        keep = np.empty((h, m + 1), dtype=np.int64)
        keep[:, 0] = np.where(d[final] > 0, self.gather[final], zero)
        if m:  # digits can be negative, so a base can have a - side
            last_row = row[final, None]
            down = length[last_row]
            j = np.arange(1, m + 1)
            keep[:, 1:] = np.where(down > 0, slot[np.minimum(j, down)] + rank[last_row],
                                   nkeys + np.arange(h)[:, None] * (m + 1) + j)
        self.keep = np.append(keep, zero)
        # the levels whose first row's + side goes on from the carried j0
        onto = np.flatnonzero(length[top + rows] * jrow[top] > 0)
        self.onto = rank[top[onto] + rows]
        self.carried = nkeys + onto * (m + 1)
        self.arrays = None

    def evaluate(self, scale: float, seeds, carry) -> np.ndarray:
        """The noise of each run, then 0.0 for the root, under each of `seeds`.

        `seeds` is one seed or an array of them, and the result has shape
        (runs + 1,) + shape of `seeds`; `carry` holds the values of the
        carried state and the 0.0 (the last plan's `keep` of its `arrays`),
        or is 0.0 for a fresh state.  One `vertex_laplace` call draws the
        keys under every seed, the lanes' running sums and one gather give
        each run its level sum, and the noise of a run at level l is that of
        its parent run plus its level sum, from level h-1 down to 0 starting
        at 0.0: `feed`'s recursion, the canonical order.  The arrays, values
        first, are kept from call to call while the shape of `seeds` stays,
        so the next such call overwrites the result.
        """
        shape = np.shape(seeds)
        nkeys = len(self.keys)
        if self.arrays is None or self.arrays[0].shape[1:] != shape:
            sizes = self.size, len(self.gather), self.off[1]
            self.arrays = [np.empty((size, *shape)) for size in sizes]
            self.arrays.append(np.empty((nkeys, *shape), dtype=np.uint64))
        z, acc, part, work = self.arrays
        keys = self.keys.reshape(-1, *[1] * len(shape))
        vertex_laplace(scale, seeds, keys, out=z[:nkeys], work=work)
        z[nkeys:] = np.reshape(carry, (-1, *[1] * len(shape)))
        z[self.onto] += z[self.carried]
        # running sums along the lanes, a stretch at a time, on from the slot
        # before it: one add per slot, or one cumsum along the slots, which
        # runs one strided loop per column (lane and seed).  On numpy 2.4 an
        # add costs about 1.2 us and the cumsum about 4 us plus 6 ns an
        # element, so the cumsum wins from about 4 slots with 1 to 16
        # columns, 8 slots with 64 and 16 slots with 256
        columns = int(np.prod(shape))
        prev = 0
        for at, count, slots in self.stretches:
            grid = z[at : at + count * slots].reshape(slots, count, *shape)
            if at:
                grid[0] += z[prev : prev + count]
            if 16 * (slots - 1) > count * columns + 48:
                np.cumsum(grid, axis=0, out=grid)
            else:
                for j in range(1, slots):
                    grid[j] += grid[j - 1]
            prev = at + count * (slots - 1)
        # every index is in range, and mode="raise" would copy through a buffer
        np.take(z, self.gather, axis=0, out=acc, mode="clip")
        # the single runs of levels h-1..split in one sequential cumsum from
        # the root's 0.0, then level by level onto the parents
        chain = acc[self.off[self.split] :][::-1]
        np.cumsum(chain, axis=0, out=chain)
        above = acc[self.off[1] :]
        for lvl in range(self.split - 1, -1, -1):
            runs = slice(self.off[lvl], self.off[lvl + 1])
            acc[runs] += np.take(above, self.row[runs], axis=0, out=part[: runs.stop - runs.start],
                                 mode="clip")
        return acc


class BlockNoise:
    """Noise of the outputs at sorted times, call after call, equal to `feed`'s bit for bit.

    With u = t + C (`_shifts`), the digits at every level >= l depend only
    on q_l = u // k^l, and over sorted times q_l changes only once every
    k^l steps.  A call therefore works on runs: level 0's runs are its
    times, and level l+1's the distinct q_l // k of level l's runs, so each
    run has one digit and one base.  Once a level has one run, so has every
    level above it, and their q_l come from one broadcast.  The work of a
    call over r consecutive times is O(r*k/(k-1) + h), not O(r*h).

    A call is a `_Plan` of its times from the state the last call left,
    evaluated under the config's seed.  Each level carries its base, its
    digit and its running sums from call to call, so a call draws only the
    walked keys that no earlier call drew: over a stream of calls each key
    is drawn once, as `feed` draws it, and the cost of a call does not grow
    with t, however wide the tree.  No key is sorted or searched.
    """

    def __init__(self, config: MechanismConfig):
        check_int64(config)
        self.config = config
        self._shifts = _shifts(config)
        self._last = 0
        self._carry = 0.0

    def __call__(self, times) -> np.ndarray:
        t = _check_times(self.config, times)
        if not len(t):
            return np.zeros(0)
        if t[0] < self._last or (t[1:] < t[:-1]).any():
            raise ValueError("times must be sorted, and not before those of the last call")
        plan = _Plan(self.config, self._shifts, t, self._last)
        acc = plan.evaluate(self.config.scale, self.config.seed, self._carry)
        self._carry = plan.arrays[0][plan.keep]
        self._last = int(t[-1])
        return acc[: len(t)]


def output_keys(config: MechanismConfig) -> list[list[int]]:
    """Vertex indices consumed per output, in walk order.

    Entry t-1 holds the indices whose noise terms form the estimate at time
    t: `Mechanism.ledger_keys()` after step t.  Input-independent, so the
    steps feed zeros and draw no noise.  No command calls it: it is the
    online ledger's key walk, which `perfbench/layers.py` wraps by name.
    """
    mech = Mechanism(replace(config, zero_noise=True))
    keys = []
    for _ in range(config.T):
        mech.feed(0)
        keys.append(mech.ledger_keys())
    return keys


class BatchRunner:
    """Vectorized repeated runs of a fixed configuration at chosen times.

    The runner is one `_Plan` of the distinct sorted times, built once from
    a fresh engine state, so its keys are those of the requested outputs,
    each once, and `noise` evaluates it under a whole array of seeds: each
    seed's column is the noise a `BlockNoise` call, and so `feed`, gives
    under that seed, bit for bit.  Memory is the plan, O(runs + keys),
    which `check_plan_budget` bounds before anything is allocated.
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
        self._plan = _Plan(config, _shifts(config), self._ends, 0)
        self.keys = self._plan.keys
        self._noise = None

    def seeds_per_block(self) -> int:
        """Seeds per `noise` call that keep its arrays within `TRIAL_BLOCK_ELEMENTS`."""
        return max(1, TRIAL_BLOCK_ELEMENTS // max(len(self.times), len(self.keys) + 1))

    def noise(self, seeds) -> np.ndarray:
        """The noise of every output under each of `seeds`, in canonical order.

        `seeds` is one seed or an array of them; the result has shape
        (len(times),) + shape of `seeds`.  The arrays are kept from call to
        call while the shape of `seeds` stays the same, so the next such
        call overwrites the result.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        if self._noise is None or self._noise.shape[1:] != seeds.shape:
            self._noise = np.empty((len(self.times), *seeds.shape))
        # the level-0 runs are the distinct times
        return np.take(self._plan.evaluate(self.config.scale, seeds, 0.0), self._rows, axis=0,
                       out=self._noise, mode="clip")

    def run(self, bits, seed: int) -> np.ndarray:
        """Estimates at the selected times for one seeded run."""
        bits = np.asarray(bits)
        if len(bits) != self.config.T:
            raise ValueError(f"input length {len(bits)} != T={self.config.T}")
        # unique ends keep every segment non-empty; the last ends at max(times)
        segments = np.add.reduceat(bits[: self._ends[-1]], self._starts, dtype=np.int64)
        return np.cumsum(segments)[self._rows] + self.noise(seed)
