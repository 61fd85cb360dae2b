"""Streaming continual-counting mechanisms on k-ary trees.

`Mechanism` is the streaming engine: it keeps a signed-digit counter for the
current time step and a lazy ledger of Laplace noise terms keyed by tree
vertex index p.  The value of a noise term is a pure function of
(seed, p) -- see `noise.vertex_laplace` -- so the batch `TreeOracle`, which
walks an explicit tree of subtree sums, and the vectorized `BatchRunner`
produce bit-identical outputs under the same seed, as does `BlockNoise`, the
block engine behind both sinks of `karycount run`.  That pointwise
equality is deliberately stronger than the distributional equivalence it
mirrors and is what the equivalence tests pin down.

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
from dataclasses import dataclass

import numpy as np

from .digits import DigitSystem, digit_bounds, encode, max_value
from .noise import check_scale, vertex_laplace

#: Elements of one (keys + 1) x seeds or outputs x seeds array of
#: `BatchRunner.noise`: batch callers draw their trials in blocks of
#: `BatchRunner.seeds_per_block()` seeds, 512 KiB of float64, which bounds
#: the memory they hold and keeps each array in a core's cache.
TRIAL_BLOCK_ELEMENTS = 1 << 16


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


def _all_times(config: MechanismConfig) -> np.ndarray:
    """The times 1..T as an int64 array, after `check_int64`."""
    check_int64(config)
    return np.arange(1, config.T + 1, dtype=np.int64)


def check_int64(config: MechanismConfig) -> None:
    """Raise `OverflowError` unless every time and key of the tree fits in int64."""
    # every key and every time is at most max_value(h) < k^h
    if config.k**config.height > np.iinfo(np.int64).max:
        raise OverflowError(
            f"k={config.k}, h={config.height} (T={config.T}): "
            "times and vertex keys do not fit in int64"
        )


def _encode_times(config: MechanismConfig, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, digits, bases) of `times`: int64, and two (h, len(times)) arrays.

    digits[l] is the level-l digit and bases[l] the value of the digits above
    level l, a multiple of k^(l+1).  In every system the digits span
    [lo, lo + k - 1], so with C = -lo * (k^h - 1)/(k - 1) the shifted time
    u = t + C lies in [0, k^h) and its plain base-k digits are d_l - lo: with
    q_l = u // k^l, one broadcast, d_l = q_l - k*q_(l+1) + lo at every
    level, the unique encoding that `digits.encode` finds by repeated
    division.
    """
    check_int64(config)
    t = np.asarray(times, dtype=np.int64)
    if t.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
    if len(t) and (t.min() < 1 or t.max() > config.T):
        raise ValueError(f"times must lie in [1, T={config.T}]")
    k, h = config.k, config.height
    lo = digit_bounds(config.variant, k)[0]
    pows = k ** np.arange(h + 1, dtype=np.int64)
    # shift[l] = -lo * (k^l + ... + k^(h-1)), the part of C at levels >= l
    shift = -lo * ((pows[h] - pows) // (k - 1))
    q = (t + shift[0]) // pows[:, None]  # q[l] = u // k^l, so q[l+1] = q[l] // k
    digits = q[:-1] - k * q[1:] + lo
    bases = q[1:] * pows[1:, None] - shift[1:, None]
    return t, digits, bases


def walk_keys(config: MechanismConfig, times) -> tuple[np.ndarray, np.ndarray]:
    """Vertex keys of the outputs at `times`, one padded row per time.

    Returns (keys, mask), both of shape (len(times), h*m), where m is the
    largest digit magnitude.  The columns are h blocks of m slots, one per
    level from h-1 down to 0 (walk order); slot j of a block holds the
    (j+1)-th vertex walked at that level, and `mask` marks the slots in use.
    Unused slots hold 0.  A row's keys in use are `Mechanism.ledger_keys()`
    after that step.  Only the given times are encoded.
    """
    t, digits, bases = _encode_times(config, times)
    h, k = config.height, config.k
    lo, hi = digit_bounds(config.variant, k)
    m = max(hi, -lo)
    keys = np.zeros((len(t), h * m), dtype=np.int64)
    mask = np.zeros((len(t), h * m), dtype=bool)
    slot = np.arange(1, m + 1, dtype=np.int64)
    for block, lvl in enumerate(range(h - 1, -1, -1)):
        d = digits[lvl][:, None]
        used = slot <= np.abs(d)
        cols = slice(block * m, (block + 1) * m)
        keys[:, cols] = np.where(used, bases[lvl][:, None] + np.sign(d) * slot * k**lvl, 0)
        mask[:, cols] = used
    return keys, mask


class BlockNoise:
    """Noise of the outputs at sorted times, call after call, equal to `feed`'s bit for bit.

    At level l an output walks the vertices base + j*k^l (digit d > 0) or
    base - j*k^l (d < 0), j = 1..|d|, where base, the value of the digits
    above level l, is a multiple of k^(l+1) that never decreases over sorted
    times, and the digit never decreases while the base stays.  A call lays
    the distinct (level, base) pairs of its times out as the rows of one
    grid.  A level's top row goes on from the state the level was left in
    by the last call (at first: base 0, digit 0) if its base is the same:
    its + side starts from the carried running sum at j0, the carried
    digit, so only the keys past j0 are drawn.  The - side of a base is
    drawn once, by the call that meets the base first, as wide as its first
    digit; later calls read its running sums from the carried state.  So
    over a stream of calls each key is drawn once, as `feed` draws it, plus
    the padding of each call's grid to its widest row, and the cost of a
    call does not grow with t, however wide the tree.  One `vertex_laplace`
    call draws both sides of every row, `cumsum` gives the running sums,
    and one gather puts the level sums of the outputs into an
    (h, len(times)) matrix whose rows are added onto 0.0 from level h-1
    down to 0, the canonical order.  No key is sorted or searched: a base's
    row is the count of base changes before it.
    """

    def __init__(self, config: MechanismConfig):
        check_int64(config)
        h = config.height
        self.config = config
        self._step = config.k ** np.arange(h, dtype=np.int64)
        self._last = 0
        self._base = np.zeros(h, dtype=np.int64)
        self._digit = np.zeros(h, dtype=np.int64)
        # running sum of the + side at the digit (0.0 if it is <= 0), and of
        # the - side of the base at j = 0, 1, ... (j = 0 holds 0.0)
        self._sum = np.zeros(h)
        self._neg = np.zeros((h, 1))

    def __call__(self, times) -> np.ndarray:
        t, d, b = _encode_times(self.config, times)
        if not len(t):
            return np.zeros(0)
        if t[0] < self._last or np.any(t[1:] < t[:-1]):
            raise ValueError("times must be sorted, and not before those of the last call")
        starts = np.ones(b.shape, dtype=bool)  # first column of each (level, base)
        np.not_equal(b[:, 1:], b[:, :-1], out=starts[:, 1:])
        row = np.cumsum(starts).reshape(b.shape) - 1
        # a level's top row goes on from the carried state if its base is the
        # carried one; its + side then starts at j0, the carried digit
        top = row[:, 0]
        on_top = row == top[:, None]
        goes_on = b[:, 0] == self._base
        j0 = np.where(goes_on, np.maximum(self._digit, 0), 0)
        jc = j0[:, None] * on_top  # j0 per column
        step = np.repeat(self._step, starts.sum(axis=1))
        base, first = b[starts], d[starts]
        new = first < 0  # a new base whose first digit is negative
        new[top] &= ~goes_on
        up = max(0, int((d - jc).max()))
        down = -int(first.min(initial=0, where=new))
        # the grid: + side j0 + c, c = 0..up, then - side j = 0..down; keys
        # base + (j0 + c)*k^l of every row and base - j*k^l of the new
        # bases, c, j >= 1.  Keys of slots no output walks may wrap, and
        # their draws go unread.
        j0_row = np.zeros(len(base), dtype=np.int64)
        j0_row[top] = j0
        plus = base[:, None] + (j0_row[:, None] + np.arange(1, up + 1)) * step[:, None]
        minus = base[new, None] - np.arange(1, down + 1) * step[new, None]
        z = vertex_laplace(self.config.scale, self.config.seed,
                           np.concatenate((plus.ravel(), minus.ravel())))
        width = up + down + 2
        grid = np.zeros((len(base), width))
        grid[top, 0] = np.where(goes_on, self._sum, 0.0)
        grid[:, 1 : up + 1] = z[: plus.size].reshape(plus.shape)
        grid[new, up + 2 :] = z[plus.size :].reshape(minus.shape)
        np.cumsum(grid[:, : up + 1], axis=1, out=grid[:, : up + 1])
        np.cumsum(grid[:, up + 1 :], axis=1, out=grid[:, up + 1 :])
        # the outputs; a digit <= 0 on a row that is not new reads a 0.0 of
        # the - side (clipped to its last column), and on a carried row then
        # adds the carried - side
        col = np.where(d > 0, d - jc, up + 1 - d)
        np.minimum(col, width - 1, out=col)
        level_sums = grid.ravel()[row * width + col]
        if self._neg.shape[1] > 1:
            old = np.where(on_top & goes_on[:, None], -np.minimum(d, 0), 0)
            level_sums += self._neg[np.arange(len(d))[:, None], old]
        noise = np.zeros(len(t))
        for lvl in range(self.config.height - 1, -1, -1):
            noise += level_sums[lvl]
        # carry each level's state at the last time to the next call
        renew = new[row[:, -1]]
        if renew.any():
            if self._neg.shape[1] < down + 1:
                self._neg = np.pad(self._neg, ((0, 0), (0, down + 1 - self._neg.shape[1])))
            self._neg[renew, : down + 1] = grid[row[renew, -1], up + 1 :]
        self._last = int(t[-1])
        self._base = b[:, -1].copy()
        self._digit = d[:, -1].copy()
        self._sum = np.where(self._digit > 0, level_sums[:, -1], 0.0)
        return noise


def output_keys(config: MechanismConfig) -> list[list[int]]:
    """Vertex indices consumed per output, in walk order.

    A list view of `walk_keys` over all times: entry t-1 holds the indices
    whose noise terms form the estimate at time t.  Input-independent.
    """
    keys, mask = walk_keys(config, _all_times(config))
    flat = iter(keys[mask].tolist())
    return [list(itertools.islice(flat, n)) for n in mask.sum(axis=1).tolist()]


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

    The keys of the requested outputs are walked once (`walk_keys`).  A
    vertex key fixes its level, its sign and its slot in the level's walk,
    so the level sum that ends at a vertex is the same in every output that
    walks to it.  The runner therefore stores, per output and level, only
    the index of the last vertex walked there (an index into the sorted
    unique keys; an empty level points one past the last key, at a sentinel
    draw of 0.0), and per vertex the index of the one walked before it.

    `noise` draws the unique keys under each of its seeds, turns the draws
    into the running level sums along those chains, and adds the level sums
    of each output from level h-1 down to 0: the canonical order of the
    module docstring, so a run equals `feed` under the same seed bit for
    bit, and so does each seed's column of a batch of seeds.
    Memory is O(len(times) * h) indices, after a walk of O(len(times) * h * m).
    """

    def __init__(self, config: MechanismConfig, times=None):
        self.config = config
        self.times = _all_times(config) if times is None else np.asarray(times, dtype=np.int64)
        if not len(self.times):
            raise ValueError("times must not be empty")
        keys, mask = walk_keys(config, self.times)
        self.keys = np.unique(keys[mask])
        sentinel = len(self.keys)
        rows, h = len(self.times), config.height
        pos = np.full(keys.shape, sentinel, dtype=np.intp)
        pos[mask] = np.searchsorted(self.keys, keys[mask])
        m = keys.shape[1] // h
        pos, mask = pos.reshape(rows, h, m), mask.reshape(rows, h, m)
        # index[l, r]: last vertex of output r at the l-th level in walk
        # order; levels no output uses add 0.0 everywhere and are dropped
        weight = mask.sum(axis=2)
        last = np.take_along_axis(pos, np.maximum(weight - 1, 0)[:, :, None], axis=2)[:, :, 0]
        last[weight == 0] = sentinel
        self.index = np.ascontiguousarray(last.T[(weight > 0).any(axis=0)])
        # (vertices in slot j, the vertices walked just before them), j >= 1
        self._chain = []
        for j in range(1, m):
            walked = mask[:, :, j]
            child, first = np.unique(pos[:, :, j][walked], return_index=True)
            if len(child):
                self._chain.append((child, pos[:, :, j - 1][walked][first]))
        # true counts are block sums of the input between consecutive times
        self._ends, self._rows = np.unique(self.times, return_inverse=True)
        self._starts = np.concatenate(([0], self._ends[:-1]))

    def seeds_per_block(self) -> int:
        """Seeds per `noise` call that keep its arrays within `TRIAL_BLOCK_ELEMENTS`."""
        return max(1, TRIAL_BLOCK_ELEMENTS // max(len(self.times), len(self.keys) + 1))

    def noise(self, seeds) -> np.ndarray:
        """The noise of every output under each of `seeds`, in canonical order.

        `seeds` is one seed or an array of them; the result has shape
        (len(times),) + shape of `seeds`.  Every key is drawn under every
        seed in one `vertex_laplace` call, with a sentinel row of 0.0 after
        the keys for the levels an output leaves empty.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        z = np.zeros((len(self.keys) + 1, *seeds.shape))
        z[:-1] = vertex_laplace(self.config.scale, seeds,
                                self.keys.reshape(-1, *(1,) * seeds.ndim))
        # running level sums, slot by slot: 0.0 + z1, then (0.0 + z1) + z2, ...
        for child, parent in self._chain:
            z[child] += z[parent]
        noise = np.take(z, self.index[0], axis=0)  # 0.0 plus the top level
        term = np.empty_like(noise)
        for idx in self.index[1:]:
            noise += np.take(z, idx, axis=0, out=term)
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
