"""Independent reference for checking karycount's outputs.

Written from the published definitions, importing nothing from `karycount`:

* the signed-digit walk of the three digit systems (plain, offset-odd,
  offset-even), which names the tree vertices summed into each prefix;
* the splitmix64 finalizer used as a counter hash keyed by (seed, vertex);
* the inverse-CDF Laplace draw from that hash.

`self_test` checks the reference against values worked by hand before any
program output is judged by it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

MASK64 = (1 << 64) - 1
C1 = 0x9E3779B97F4A7C15
C2 = 0xBF58476D1CE4E5B9
C3 = 0x94D049BB133111EB

#: First output of splitmix64 seeded with 0 (Vigna's reference generator).
SPLITMIX64_FIRST = 0xE220A8397B1DCDAF

def digit_high(variant: str, k: int) -> int:
    """Largest digit of the system; the lowest is high - (k - 1)."""
    if variant == "plain":
        return k - 1
    if variant == "offset-odd":
        return (k - 1) // 2
    if variant == "offset-even":
        return k // 2
    raise ValueError(f"unknown variant {variant!r}")


def max_time(variant: str, k: int, h: int) -> int:
    """Largest t with h digits: every digit high, hi * (k^h - 1) / (k - 1)."""
    return digit_high(variant, k) * (k**h - 1) // (k - 1)


def height(variant: str, k: int, T: int) -> int:
    """Smallest h with max_time(h) >= T."""
    h = 1
    while max_time(variant, k, h) < T:
        h += 1
    return h


def digits(t: int, k: int, h: int, variant: str) -> list[int]:
    """Width-h digits of t, least significant first."""
    hi = digit_high(variant, k)
    rem, out = t, []
    for _ in range(h):
        d = rem % k
        if d > hi:
            d -= k
        rem = (rem - d) // k
        out.append(d)
    if rem != 0:
        raise ValueError(f"t={t} needs more than {h} digits")
    return out


def walk_keys(t: int, k: int, h: int, variant: str) -> list[int]:
    """Vertex indices summed for prefix t: top digit first, |d| steps of ±k^level."""
    ds = digits(t, k, h, variant)
    p, keys = 0, []
    for lvl in range(h - 1, -1, -1):
        step = k**lvl if ds[lvl] > 0 else -(k**lvl)
        for _ in range(abs(ds[lvl])):
            p += step
            keys.append(p)
    return keys


def mix64(z: int) -> int:
    """splitmix64 finalizer on Python ints, mod 2^64."""
    z = (z + C1) & MASK64
    z = ((z ^ (z >> 30)) * C2) & MASK64
    z = ((z ^ (z >> 27)) * C3) & MASK64
    return z ^ (z >> 31)


def uniform(seed: int, p: int) -> float:
    """Counter-hash uniform in (0, 1) for vertex p under seed."""
    h = mix64(mix64(seed) ^ ((p * C1) & MASK64))
    return ((h >> 11) + 0.5) * 2.0**-53


def laplace_from_uniform(scale: float, u: float) -> float:
    """Inverse CDF of Laplace(0, scale) at u."""
    v = u - 0.5
    return -scale * math.copysign(1.0, v) * math.log1p(-2.0 * abs(v))


def laplace(scale: float, seed: int, p: int) -> float:
    return laplace_from_uniform(scale, uniform(seed, p))


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(C1)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(C2)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(C3)
    return z ^ (z >> np.uint64(31))


def laplace_array(scale: float, seed: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized `laplace` over an array of non-negative vertex indices."""
    s = np.uint64(mix64(seed))
    h = _mix64_array(s ^ (keys.astype(np.uint64) * np.uint64(C1)))
    v = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53 - 0.5
    return -scale * np.sign(v) * np.log1p(-2.0 * np.abs(v))


def key_matrix(times: np.ndarray, k: int, h: int, variant: str):
    """Walk keys for many times at once: (keys, mask), each len(times) x h*max|d|.

    Row r holds the keys of times[r] in walk order in its masked-in cells.
    """
    hi = digit_high(variant, k)
    width = max(hi, k - 1 - hi)
    rem = np.asarray(times, dtype=np.int64).copy()
    ds = np.empty((len(rem), h), dtype=np.int64)
    for lvl in range(h):
        d = rem % k
        d[d > hi] -= k
        rem = (rem - d) // k
        ds[:, lvl] = d
    if rem.any():
        raise ValueError(f"times exceed height {h}")
    keys = np.zeros((len(rem), h * width), dtype=np.int64)
    mask = np.zeros_like(keys, dtype=bool)
    p = np.zeros(len(rem), dtype=np.int64)
    col = 0
    for lvl in range(h - 1, -1, -1):
        d = ds[:, lvl]
        step = np.where(d > 0, k**lvl, -(k**lvl))
        for j in range(1, width + 1):
            on = np.abs(d) >= j
            p = p + np.where(on, step, 0)
            keys[:, col] = p
            mask[:, col] = on
            col += 1
    return keys, mask


def expected_estimates(bits: np.ndarray, times: np.ndarray, variant: str, k: int,
                       epsilon: float, seed: int):
    """(estimates, magnitude) at `times` for the stream `bits` of length T.

    estimate = true prefix sum + the Laplace(h / epsilon) draws keyed by the
    walk's vertices; magnitude = |true| + sum of |draws|, the scale of the
    rounding error any summation order can make.
    """
    h = height(variant, k, len(bits))
    keys, mask = key_matrix(times, k, h, variant)
    z = np.zeros(keys.shape)
    z[mask] = laplace_array(h / epsilon, seed, keys[mask])
    true = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])[times]
    return true + z.sum(axis=1), true + np.abs(z).sum(axis=1)


def mean_digit_weight(variant: str, k: int, h: int, T: int) -> Fraction:
    """Exact mean over t in [1, T] of the l1 digit weight (vertices per output)."""
    times = np.arange(1, T + 1)
    _, mask = key_matrix(times, k, h, variant)
    return Fraction(int(mask.sum()), T)


def block_tv(B: int, k: int) -> float:
    """TV between Bin(B, 1/2) conditioned on [B/4, 3B/4] and its shift by k, exactly."""
    support = range(B // 4, 3 * B // 4 + 1)
    weights = {l: math.comb(B, l) for l in support}
    total = sum(weights.values())
    diff = sum(abs(weights.get(l, 0) - weights.get(l - k, 0))
               for l in range(B // 4, 3 * B // 4 + k + 1))
    return float(Fraction(diff, 2 * total))


def self_test() -> list[str]:
    """Check the reference against hand-worked values; returns the failures."""
    failures = []
    if mix64(0) != SPLITMIX64_FIRST:
        failures.append(f"mix64(0)={mix64(0):#x}, want {SPLITMIX64_FIRST:#x}")
    hand_walks = [
        # offset-odd k=3: 2 = 1*3 - 1 -> up one level-1 vertex, back one leaf
        (("offset-odd", 3, 2, 2), [3, 2]),
        # plain k=2: 3 = 1*2 + 1 -> keys 2 then 3
        (("plain", 2, 2, 3), [2, 3]),
        # offset-even k=4: 3 = 1*4 - 1
        (("offset-even", 4, 2, 3), [4, 3]),
        # offset-odd k=19: 10 = 1*19 - 9 -> nine leaves back from 19
        (("offset-odd", 19, 2, 10), [19, 18, 17, 16, 15, 14, 13, 12, 11, 10]),
    ]
    for (variant, k, h, t), want in hand_walks:
        got = walk_keys(t, k, h, variant)
        if got != want:
            failures.append(f"walk {variant} k={k} t={t}: {got}, want {want}")
    for variant, k in (("plain", 2), ("offset-odd", 19), ("offset-even", 20)):
        times = np.arange(1, 400)
        h = height(variant, k, 399)
        keys, mask = key_matrix(times, k, h, variant)
        for r, t in enumerate(times):
            if keys[r][mask[r]].tolist() != walk_keys(int(t), k, h, variant):
                failures.append(f"key_matrix {variant} k={k} t={t} disagrees with walk_keys")
                break
    if laplace_from_uniform(1.0, 0.75) != math.log(2.0):
        failures.append("Laplace(1) at u=3/4 is not ln 2")
    ks = np.arange(1, 50, dtype=np.int64)
    vec = laplace_array(2.5, 99, ks)
    scal = np.array([laplace(2.5, 99, int(p)) for p in ks])
    if not np.allclose(vec, scal, rtol=1e-14, atol=0.0):
        failures.append("vectorized Laplace disagrees with the scalar draw")
    return failures
