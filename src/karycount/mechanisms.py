"""Streaming continual-counting mechanisms on k-ary trees.

`Mechanism` is the streaming engine: it keeps a signed-digit counter for the
current time step and a lazy ledger of Laplace noise terms keyed by tree
vertex index p.  The value of a noise term is a pure function of
(seed, p) -- see `noise.vertex_laplace` -- so the batch `TreeOracle`, which
walks an explicit tree of subtree sums, produces bit-identical outputs
under the same seed.  That pointwise equality is deliberately stronger than
the distributional equivalence it mirrors and is what the equivalence tests
pin down.

Sign convention: a vertex is always consumed with the same role (left
children are added, right children subtracted), and since Laplace noise is
symmetric the ledger stores one draw per vertex which is always *added* to
the output, for both added and subtracted vertices.

Canonical summation order, used by `Mechanism.feed` and `TreeOracle.run`
alike: the noise of an output is 0.0 plus each level's sum, from level
h-1 down to level 0, and each level's sum is 0.0 plus that level's draws
in digit-walk order.  The true prefix sum is added last.  Any other order
gives the same distribution but may differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .digits import DigitSystem, digit_bounds, encode, max_value
from .noise import vertex_laplace


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
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

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
        self._seed = int(config.seed)  # a numpy seed would miss the int hash
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


def new_mechanism(config: MechanismConfig) -> Mechanism:
    return Mechanism(config)


def output_keys(config: MechanismConfig):
    """Vertex indices consumed per output, in walk order.

    Returns a list of length T; entry t-1 holds the indices whose noise
    terms form the estimate at time t.  Input-independent.
    """
    h = config.height
    k = config.k
    pows = [k**i for i in range(h + 1)]
    out: list[list[int]] = []
    for t in range(1, config.T + 1):
        v = encode(t, k, h, config.variant)
        p = 0
        keys: list[int] = []
        for lvl in range(h - 1, -1, -1):
            d = v.digits[lvl]
            step = pows[lvl] if d > 0 else -pows[lvl]
            for _ in range(abs(d)):
                p += step
                keys.append(p)
        out.append(keys)
    return out


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

    def subtree_sum(self, level: int, j: int) -> int:
        """Exact sum over the j-th (0-based) level-`level` vertex interval."""
        width = self.config.k ** (level - 1)
        a, b = j * width, (j + 1) * width
        T = self.config.T
        return self._cum[min(b, T)] - self._cum[min(a, T)]

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
    """Vectorized repeated runs of a fixed configuration.

    Precomputes the key sets once; each run only needs one noise vector and
    a matrix product.  Outputs agree with `feed` up to floating-point
    summation order (same distribution, not bit-identical).
    """

    def __init__(self, config: MechanismConfig, times=None):
        self.config = config
        keysets = output_keys(config)
        if times is None:
            times = list(range(1, config.T + 1))
        self.times = list(times)
        uniq = sorted({p for t in self.times for p in keysets[t - 1]})
        self._index = {p: i for i, p in enumerate(uniq)}
        self.keys = np.array(uniq, dtype=np.int64)
        self.A = np.zeros((len(self.times), len(uniq)))
        for row, t in enumerate(self.times):
            for p in keysets[t - 1]:
                self.A[row, self._index[p]] += 1.0

    def noise_vector(self, seed: int) -> np.ndarray:
        return np.atleast_1d(vertex_laplace(self.config.scale, seed, self.keys))

    def run(self, bits, seed: int) -> np.ndarray:
        """Estimates at the selected times for one seeded run."""
        if len(bits) != self.config.T:
            raise ValueError(f"input length {len(bits)} != T={self.config.T}")
        cum = np.concatenate([[0], np.cumsum(np.asarray(bits))])
        true_at = cum[self.times]
        return true_at + self.A @ self.noise_vector(seed)


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
