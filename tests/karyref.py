"""Independent reference of the tree mechanism, for the tests.

Written from the definitions and importing nothing from `karycount`, so a
test that compares the package with it compares two programs:

* the scalar signed-digit codec of the three digit systems (`encode`,
  `decode`, `weight`), with digits as a tuple, least significant first;
* the walk of the tree vertices summed into each prefix, read off those
  digits (`walk_at`, `output_keys_at`);
* the counter-based Laplace draw: splitmix64 on Python ints and the
  inverse-CDF transform through `np.log1p`.  `math.log1p` differs from it
  in the last bit on about 6 % of draws, and the comparisons are bit-exact;
* the explicit tree of noisy subtree sums (`TreeOracle`, `run_oracle`),
  summed in the canonical order: 0.0 plus each level's sum from level h-1
  down to 0, each level's sum 0.0 plus its draws in walk order, and the
  true prefix sum added last;
* the oracles of the acceptance criteria: `exhaustive_mse`,
  `sensitivity_audit` and the per-trial `run_distinguisher`.

A digit system is `karycount.digits.DigitSystem` or its value ("plain",
"offset-odd", "offset-even").  A configuration is any object with the
fields of `karycount.mechanisms.MechanismConfig`; only its inputs (variant,
k, T, epsilon, seed, zero_noise) are read, and its height and scale are
computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
C1 = 0x9E3779B97F4A7C15
C2 = 0xBF58476D1CE4E5B9
C3 = 0x94D049BB133111EB


def digit_bounds(system, k: int) -> tuple[int, int]:
    """Inclusive (low, high) digit range of the system with base k."""
    name = getattr(system, "value", system)
    if name == "plain" and k >= 2:
        return 0, k - 1
    if name == "offset-odd" and k >= 3 and k % 2 == 1:
        return -(k - 1) // 2, (k - 1) // 2
    if name == "offset-even" and k >= 4 and k % 2 == 0:
        return -(k // 2) + 1, k // 2
    raise ValueError(f"no digit system {name!r} with base {k}")


def max_value(system, k: int, w: int) -> int:
    """Largest value of w digits: every digit at its highest, hi * (k^w - 1)/(k - 1)."""
    return digit_bounds(system, k)[1] * (k**w - 1) // (k - 1)


def height(system, k: int, T: int) -> int:
    """Smallest number of digits whose range covers [1, T]."""
    h = 1
    while max_value(system, k, h) < T:
        h += 1
    return h


def encode(t: int, k: int, w: int, system) -> tuple[int, ...]:
    """The width-w digits of t, by repeated division with the remainder in range."""
    lo, hi = digit_bounds(system, k)
    if not 0 <= t <= max_value(system, k, w):
        raise ValueError(f"t={t} is out of the range of {w} digits")
    digits = []
    for _ in range(w):
        d = t % k
        if d > hi:
            d -= k
        t = (t - d) // k
        digits.append(d)
    return tuple(digits)


def decode(digits, k: int, system) -> int:
    """The value sum_i d_i k^i of digits that each lie in the system's range."""
    lo, hi = digit_bounds(system, k)
    value = 0
    for d in reversed(digits):
        if not lo <= d <= hi:
            raise ValueError(f"digit {d} is outside [{lo}, {hi}]")
        value = value * k + d
    return value


def weight(digits) -> int:
    """The l1 norm of the digits: the vertices summed into the prefix."""
    return sum(abs(d) for d in digits)


def weight_sum(system, k: int, w: int, T: int) -> int:
    """sum of weight(encode(t, k, w, system)) over t in [1, T], counted, not enumerated.

    The digits span [lo, lo + k - 1], so u = t + C, C = -lo (k^w - 1)/(k - 1),
    has the plain base-k digits d_i - lo.  For each level and digit this
    counts the u of the range whose digit it is.
    """
    lo, _ = digit_bounds(system, k)
    if not 0 <= T <= max_value(system, k, w):
        raise ValueError(f"T={T} is out of the range of {w} digits")
    C = -lo * (k**w - 1) // (k - 1)

    def below(n: int, i: int, r: int) -> int:
        """The u in [0, n) whose digit i is r."""
        period, block = k ** (i + 1), k**i
        return n // period * block + min(max(n % period - r * block, 0), block)

    return sum(
        abs(r + lo) * (below(C + T + 1, i, r) - below(C + 1, i, r))
        for i in range(w)
        for r in range(k)
    )


def walk_at(config, t: int):
    """(level, previous position, key) of each vertex summed into prefix t, in walk order.

    From the top level down, digit d moves the position |d| times by
    sign(d) * k^level; each position reached is a vertex key.
    """
    h = height(config.variant, config.k, config.T)
    digits = encode(t, config.k, h, config.variant)
    p = 0
    for lvl in range(h - 1, -1, -1):
        step = config.k**lvl if digits[lvl] > 0 else -(config.k**lvl)
        for _ in range(abs(digits[lvl])):
            yield lvl, p, p + step
            p += step


def output_keys_at(config, t: int) -> list[int]:
    """The keys of prefix t's walk, in walk order."""
    return [p for _, _, p in walk_at(config, t)]


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int in [0, 2^64), mod 2^64."""
    z = (z + C1) & MASK64
    z = ((z ^ (z >> 30)) * C2) & MASK64
    z = ((z ^ (z >> 27)) * C3) & MASK64
    return z ^ (z >> 31)


def laplace(scale: float, seed: int, index: int) -> float:
    """Laplace(0, scale) keyed by (seed, index): the inverse CDF at a splitmix64 uniform."""
    if scale == 0.0:
        return 0.0
    u = ((mix64(mix64(seed) ^ ((index * C1) & MASK64)) >> 11) + 0.5) * 2.0**-53
    v = u - 0.5
    return -scale * math.copysign(1.0, v) * float(np.log1p(-2.0 * abs(v)))


class TreeOracle:
    """Batch reference: an explicit k-ary tree of noisy subtree sums.

    Level-l vertices are the intervals [1 + j*k^(l-1), (j+1)*k^(l-1)]; the
    stream is logically padded with zeros up to k^height leaves.
    """

    def __init__(self, bits, config):
        if len(bits) != config.T:
            raise ValueError(f"input length {len(bits)} != T={config.T}")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("input must be bits")
        self.config = config
        self.h = height(config.variant, config.k, config.T)
        self.scale = 0.0 if config.zero_noise else self.h / config.epsilon
        self.bits = list(bits)
        self._cum = [0]
        for b in self.bits:
            self._cum.append(self._cum[-1] + b)

    def _interval_sum(self, a: int, b: int) -> int:
        T = self.config.T
        return self._cum[min(b, T)] - self._cum[min(a, T)]

    def run(self) -> list[float]:
        """All T estimates via the signed digit walk over the tree, in canonical order."""
        cfg = self.config
        k, h = cfg.k, self.h
        pows = [k**i for i in range(h + 1)]
        outputs: list[float] = []
        for t in range(1, cfg.T + 1):
            digits = encode(t, k, h, cfg.variant)
            p = 0
            true_part = 0
            noise = 0.0
            for lvl in range(h - 1, -1, -1):
                d = digits[lvl]
                level_sum = 0.0
                for _ in range(abs(d)):
                    if d > 0:
                        true_part += self._interval_sum(p, p + pows[lvl])
                        p += pows[lvl]
                    else:
                        true_part -= self._interval_sum(p - pows[lvl], p)
                        p -= pows[lvl]
                    level_sum += laplace(self.scale, cfg.seed, p)
                noise += level_sum
            outputs.append(true_part + noise)
        return outputs


def run_oracle(bits, config) -> list[float]:
    """Batch run of the tree oracle; pointwise equal to streaming `Mechanism.feed`."""
    return TreeOracle(bits, config).run()


def exhaustive_mse(variant, k: int, h: int, epsilon: float) -> float:
    """Average digit weight over [1, T] times the per-vertex variance 2h^2/eps^2.

    Encodes every t of the height-h tree; shares nothing with the closed
    forms beyond the per-vertex variance.
    """
    eps2 = epsilon**2
    if not eps2 > 0:
        raise ValueError(f"epsilon^2 must be > 0, got {epsilon!r}^2 = {eps2!r}")
    T = max_value(variant, k, h)
    total = sum(weight(encode(t, k, h, variant)) for t in range(1, T + 1))
    return (total / T) * 2.0 * h**2 / eps2


@dataclass
class AuditResult:
    """Non-root interval membership counts per stream index."""

    counts: np.ndarray
    max_count: int


def sensitivity_audit(config) -> AuditResult:
    """Count, for each i in [1, T], the non-root tree vertices containing i.

    The maximum is the l1-sensitivity of releasing the noisy tree; it must
    equal the height h (one vertex per non-root level).
    """
    h = height(config.variant, config.k, config.T)
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


def run_distinguisher(mechanism, y, y_prime, config, seeds) -> int | None:
    """First block end where two seeded runs differ by more than k/2.

    `mechanism(bits, seed)` returns the m estimates at t = B, 2B, ..., mB;
    the 1-based index of the first block end where the difference exceeds
    k/2 is returned, or None.
    """
    if len(y) != config.T or len(y_prime) != config.T:
        raise ValueError("inputs must have length T")
    diff = mechanism(y, seeds[0]) - mechanism(y_prime, seeds[1])
    over = np.flatnonzero(diff > config.k / 2.0)
    return int(over[0]) + 1 if len(over) else None
