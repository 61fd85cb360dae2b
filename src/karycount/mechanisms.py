"""Streaming continual-counting mechanisms on k-ary trees.

`Mechanism` is the streaming engine: it keeps a signed-digit counter for the
current time step and a lazy ledger of Laplace noise terms keyed by tree
vertex index p.  The value of a noise term is a pure function of
(seed, p) -- see `noise.vertex_laplace` -- so the batch `TreeOracle`, which
walks an explicit tree of subtree sums, and the vectorized `BatchRunner`
produce bit-identical outputs under the same seed, as does `block_noise`, the
per-level engine behind the file release of `karycount run`.  That pointwise
equality is deliberately stronger than the distributional equivalence it
mirrors and is what the equivalence tests pin down.

Sign convention: a vertex is always consumed with the same role (left
children are added, right children subtracted), and since Laplace noise is
symmetric the ledger stores one draw per vertex which is always *added* to
the output, for both added and subtracted vertices.

Canonical summation order, used by `Mechanism.feed`, `TreeOracle.run`,
`BatchRunner` and `block_noise` alike: the noise of an output is 0.0 plus
each level's sum, from level h-1 down to level 0, and each level's sum is
0.0 plus that level's draws in digit-walk order.  The true prefix sum is
added last.  Any other order gives the same distribution but may differ in
the last bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitSystem, digit_bounds, encode, max_value
from .noise import check_scale, vertex_laplace


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

    @property
    def height(self) -> int:
        """Tree height: smallest h whose digit range covers all of [1, T]."""
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


def _encode_times(config: MechanismConfig, times) -> tuple[np.ndarray, np.ndarray]:
    """(times, digits): `times` as int64, and their (h, len(times)) digits.

    Digits are least-significant first, encoded by `%` and `//` per level as
    `digits.encode` does.
    """
    check_int64(config)
    t = np.asarray(times, dtype=np.int64)
    if t.ndim != 1:
        raise ValueError(f"times must be one-dimensional, got shape {t.shape}")
    if len(t) and (t.min() < 1 or t.max() > config.T):
        raise ValueError(f"times must lie in [1, T={config.T}]")
    k = config.k
    hi = digit_bounds(config.variant, k)[1]
    digits = np.empty((config.height, len(t)), dtype=np.int64)
    rem = t
    for lvl in range(config.height):
        d = rem % k
        d[d > hi] -= k
        rem = (rem - d) // k
        digits[lvl] = d
    return t, digits


def walk_keys(config: MechanismConfig, times) -> tuple[np.ndarray, np.ndarray]:
    """Vertex keys of the outputs at `times`, one padded row per time.

    Returns (keys, mask), both of shape (len(times), h*m), where m is the
    largest digit magnitude.  The columns are h blocks of m slots, one per
    level from h-1 down to 0 (walk order); slot j of a block holds the
    (j+1)-th vertex walked at that level, and `mask` marks the slots in use.
    Unused slots hold 0.  A row's keys in use are `Mechanism.ledger_keys()`
    after that step.  Only the given times are encoded.
    """
    t, digits = _encode_times(config, times)
    h, k = config.height, config.k
    lo, hi = digit_bounds(config.variant, k)
    m = max(hi, -lo)
    keys = np.zeros((len(t), h * m), dtype=np.int64)
    mask = np.zeros((len(t), h * m), dtype=bool)
    slot = np.arange(1, m + 1, dtype=np.int64)
    base = np.zeros(len(t), dtype=np.int64)  # value of the digits above the level
    for block, lvl in enumerate(range(h - 1, -1, -1)):
        d = digits[lvl][:, None]
        used = slot <= np.abs(d)
        cols = slice(block * m, (block + 1) * m)
        keys[:, cols] = np.where(used, base[:, None] + np.sign(d) * slot * k**lvl, 0)
        mask[:, cols] = used
        base += digits[lvl] * k**lvl
    return keys, mask


def block_noise(config: MechanismConfig, times) -> np.ndarray:
    """Noise of the outputs at sorted `times`, equal to `feed`'s bit for bit.

    At level l an output walks the vertices base + j*k^l (digit d > 0) or
    base - j*k^l (d < 0), j = 1..|d|, where base, the value of the digits
    above level l, is a multiple of k^(l+1) that never decreases over sorted
    times.  So per level and sign one grid of draws, a row per distinct base
    and a column per j, holds every vertex the outputs walk there, and an
    output's level sum is one entry of the grid's running sums along j.  The
    level sums are added onto 0.0 from level h-1 down to 0, the canonical
    order.  No key is sorted or searched: a base's row is the count of base
    changes before it.
    """
    t, digits = _encode_times(config, times)
    if np.any(t[1:] < t[:-1]):
        raise ValueError("times must be sorted")
    k, scale, seed = config.k, config.scale, config.seed
    noise = np.zeros(len(t))
    base = np.zeros(len(t), dtype=np.int64)  # value of the digits above the level
    starts = np.ones(len(t), dtype=bool)  # first output of each distinct base
    for lvl in range(config.height - 1, -1, -1):
        d = digits[lvl]
        np.not_equal(base[1:], base[:-1], out=starts[1:])
        up, down = int(d.max(initial=0)), -int(d.min(initial=0))
        if up or down:
            # columns: j = 1..up on the + side, then j = 1..down on the - side;
            # keys of slots no output walks may wrap, and their draws go unread
            j = np.concatenate((np.arange(1, up + 1), -np.arange(1, down + 1)))
            z = vertex_laplace(scale, seed, base[starts][:, None] + j * k**lvl)
            np.cumsum(z[:, :up], axis=1, out=z[:, :up])
            np.cumsum(z[:, up:], axis=1, out=z[:, up:])
            col = np.where(d > 0, d - 1, up - 1 - d)
            # an output whose digit is 0 adds 0.0
            noise += np.where(d != 0, z[np.cumsum(starts) - 1, col], 0.0)
        base += d * k**lvl
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

    A run draws one noise vector over the unique keys, turns it into the
    running level sums along those chains, and adds the level sums of each
    output from level h-1 down to 0: the canonical order of the module
    docstring, so a run equals `feed` under the same seed bit for bit.
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

    def noise_sum(self, z: np.ndarray) -> np.ndarray:
        """Per output, the draws `z` over its keys summed in canonical order.

        `z` has one draw per key of `self.keys` and then the sentinel 0.0,
        along its first axis; further axes (trials) are carried through.
        """
        # running level sums, slot by slot: 0.0 + z1, then (0.0 + z1) + z2, ...
        level = z.copy()
        for child, parent in self._chain:
            level[child] += level[parent]
        noise = np.take(level, self.index[0], axis=0)  # 0.0 plus the top level
        term = np.empty_like(noise)
        for idx in self.index[1:]:
            noise += np.take(level, idx, axis=0, out=term)
        return noise

    def run(self, bits, seed: int) -> np.ndarray:
        """Estimates at the selected times for one seeded run."""
        bits = np.asarray(bits)
        if len(bits) != self.config.T:
            raise ValueError(f"input length {len(bits)} != T={self.config.T}")
        z = np.zeros(len(self.keys) + 1)
        z[:-1] = vertex_laplace(self.config.scale, seed, self.keys)
        # unique ends keep every segment non-empty; the last ends at max(times)
        segments = np.add.reduceat(bits[: self._ends[-1]], self._starts, dtype=np.int64)
        return np.cumsum(segments)[self._rows] + self.noise_sum(z)


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
