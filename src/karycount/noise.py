"""Noise samplers and privacy calibration.

Sampling is counter-based: `vertex_uniform` and `vertex_laplace` give a
value that is a pure function of (seed, index), so tree mechanisms can
materialize the noise for a vertex lazily and in any order while remaining
reproducible.  The hash is splitmix64, written twice: on Python ints for one
(seed, index) pair, the streaming hot path, and on numpy uint64 arrays for
batches.  The two bodies are bit-identical, which the tests check.  Both
paths share one Laplace transform, `np.log1p`, so a vertex's draw is the
same float whichever path computes it.

Calibration covers three regimes: pure DP with Laplace noise scaled to the
l1-sensitivity, approximate DP with Gaussian noise scaled to the
l2-sensitivity, and approximate DP with Laplace noise scaled to the
l2-sensitivity.

The samplers add plain floating-point noise; no snapping or discretization
is applied, so outputs are unsafe against floating-point side-channel
attacks in adversarial deployments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_M64 = 0xFFFFFFFFFFFFFFFF
_K1 = 0x9E3779B97F4A7C15
_K2 = 0xBF58476D1CE4E5B9
_K3 = 0x94D049BB133111EB

_U64 = np.uint64
_C1 = _U64(_K1)
_C2 = _U64(_K2)
_C3 = _U64(_K3)


def _mix64(z, scratch=None):
    """splitmix64 finalizer on a uint64 array, in place (wraps mod 2^64); returns z.

    The shifts go into `scratch`, a uint64 array of z's shape, if given.  A
    numpy scalar cannot change in place, so for one the result is a new scalar.
    """
    z += _C1
    z ^= np.right_shift(z, _U64(30), out=scratch)
    z *= _C2
    z ^= np.right_shift(z, _U64(27), out=scratch)
    z *= _C3
    z ^= np.right_shift(z, _U64(31), out=scratch)
    return z


def _mix64_int(z: int) -> int:
    """`_mix64` on a Python int in [0, 2^64), masked to 64 bits after each step."""
    z = (z + _K1) & _M64
    z = ((z ^ (z >> 30)) * _K2) & _M64
    z = ((z ^ (z >> 27)) * _K3) & _M64
    return z ^ (z >> 31)


# a stream hashes one seed for every vertex, so its mix is computed once
_mix64_seed = functools.lru_cache(maxsize=64)(_mix64_int)


def _uniform_int(seed: int, index: int) -> float:
    """`vertex_uniform` for one Python-int (seed, index) pair."""
    if not (0 <= seed <= _M64 and 0 <= index <= _M64):
        raise OverflowError(f"seed and index must lie in [0, 2^64), got {seed}, {index}")
    h = _mix64_int(_mix64_seed(seed) ^ ((index * _K1) & _M64))
    # h >> 11 < 2^53 converts exactly; the + 0.5 rounds as the array path does
    return ((h >> 11) + 0.5) * 2.0**-53


def vertex_uniform(seed, index):
    """Uniform in (0, 1), a pure function of (seed, index).

    Accepts a Python-int pair, which gives a float, or numpy integer arrays,
    which give an array (broadcasting applies).  Seed and index must lie in
    [0, 2^64); a Python int outside raises `OverflowError`, as numpy does,
    and so does a negative seed or index array.  A float or bool seed or
    index raises `ValueError`: a cast would hash it as another integer.
    """
    if type(seed) is int and type(index) is int:
        return _uniform_int(seed, index)
    return _scalar_or_array(_uniform_array(seed, index)[0])


def _integers(name: str, values) -> np.ndarray:
    """`values` as an integer array, to be cast to uint64.

    A cast would take a float, bool or negative value for another integer,
    so a float or bool array raises `ValueError` and a negative one
    `OverflowError`, as a Python int outside [0, 2^64) does.
    """
    if type(values) is int:
        return np.asarray(values, dtype=np.uint64)
    a = np.asarray(values)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {a.dtype}")
    if a.dtype.kind == "i" and (a < 0).any():
        raise OverflowError(f"{name} must lie in [0, 2^64)")
    return a


def _uniform_array(seed, index, out=None, work=None) -> tuple[np.ndarray, np.ndarray]:
    """`vertex_uniform` as an array (0-d for scalars), and its spent uint64 hash.

    The hash is built in `work` and the uniform in `out`, if they are given;
    `out` is the hash's scratch until then.  An index array of dtype uint64
    is not copied.
    """
    # array arithmetic wraps silently; only numpy scalars warn on overflow
    s = _integers("seeds", seed)
    s = _U64(_mix64_seed(seed)) if type(seed) is int else _mix64(s.astype(np.uint64))
    index = _integers("indices", index).astype(np.uint64, copy=False)
    h = np.empty(np.broadcast(s, index).shape, dtype=np.uint64) if work is None else work
    u = np.empty(h.shape) if out is None else out
    # the operands are broadcast, and the hash is cast, by assignment, which
    # takes no buffer, as a ufunc's broadcast or cast would (numpy's 64 KiB);
    # u is the hash's scratch until it holds the uniform
    h[...] = index
    h *= _C1
    u.view(np.uint64)[...] = s
    h ^= u.view(np.uint64)
    _mix64(h, u.view(np.uint64))
    h >>= _U64(11)
    u[...] = h
    u += 0.5
    u *= 2.0**-53
    return u, h


def _scalar_or_array(a: np.ndarray):
    """A numpy scalar for a 0-d array, else the array, as numpy arithmetic returns."""
    return a if a.ndim else a[()]


# the one Laplace transform of both paths: a scalar draw through `math.log1p`
# may differ from the array draw in the last bit
_log1p = np.log1p


def vertex_laplace(scale, seed, index, out=None, work=None):
    """Laplace(0, scale) draw keyed by (seed, index); 0.0 when scale is 0.

    Inverse-CDF transform of `vertex_uniform`, so the value never depends
    on how many other vertices have been materialized, nor on whether it is
    drawn alone or in an array.  An array draw goes into `out`, a float64
    array of its shape, with `work`, a uint64 one, as scratch, if given.
    """
    if not 0.0 <= scale < math.inf:  # nan too
        raise ValueError(f"scale must be finite and >= 0, got {scale!r}")
    if type(seed) is int and type(index) is int:
        if scale == 0.0:
            return 0.0
        v = _uniform_int(seed, index) - 0.5
        return -scale * math.copysign(1.0, v) * float(_log1p(-2.0 * abs(v)))
    v, h = _uniform_array(seed, index, out, work)
    if scale == 0.0:
        v.fill(0.0)
        return _scalar_or_array(v)
    # -scale * sign(v) * log1p(-2|v|) with v = u - 0.5, in v and the hash's memory
    v -= 0.5
    a = np.abs(v, out=h.view(np.float64))
    a *= -2.0
    _log1p(a, out=a)
    np.sign(v, out=v)
    v *= -scale
    v *= a
    return _scalar_or_array(v)


class NoiseRegime(Enum):
    PURE_LAPLACE = "pure-laplace"
    L2_LAPLACE = "l2-laplace"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class CalibrationResult:
    """Noise scale and the privacy parameters it achieves."""

    scale_or_sigma: float
    epsilon: float
    delta: float
    regime: NoiseRegime
    a_param: float | None = None

    @property
    def variance(self) -> float:
        """sigma^2 or 2 scale^2; `ValueError` if it overflows or underflows to 0."""
        s = self.scale_or_sigma
        var = s * s if self.regime is NoiseRegime.GAUSSIAN else 2.0 * (s * s)
        if not (math.isfinite(var) and var > 0):
            flow = "underflows" if var == 0 else "overflows"
            raise ValueError(f"the variance of the noise scale {s!r} {flow} to {var!r}")
        return var


def check_scale(name: str, value: float) -> float:
    """`value`, a sensitivity or noise scale; `ValueError` naming it unless finite and > 0.

    A subnormal epsilon or delta passes a check on its own range, but the
    scale it gives overflows to inf or comes out nan: noise that no longer
    calibrates anything.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} = {value!r} must be finite and > 0")
    return value


def check_epsilon(epsilon: float, most: float = math.inf) -> float:
    """`epsilon`; `ValueError` unless finite and in (0, most].

    An infinite epsilon gives a noise scale of 0: exact counts released as
    private.
    """
    if not (math.isfinite(epsilon) and 0 < epsilon <= most):
        raise ValueError(f"epsilon = {epsilon!r} must be finite and in (0, {most:.6g}]")
    return epsilon


def check_delta(delta: float) -> float:
    """`delta`; `ValueError` unless in (0, 1)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta = {delta!r} must be in (0, 1)")
    return delta


def check_seed(seed, count: int = 1) -> int:
    """`seed` as an int; `ValueError` unless seeds seed .. seed + count - 1 lie in [0, 2^64).

    The seed is an integer, Python or numpy, and not a bool.
    """
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
            and 0 <= int(seed) <= 2**64 - count):
        raise ValueError(f"seed must be an integer in [0, 2^64 - {count}], got {seed!r}")
    return int(seed)


def calibrate_pure_laplace(delta1: float, epsilon: float) -> CalibrationResult:
    """Laplace scale delta1/epsilon for pure epsilon-DP."""
    check_scale("delta1", delta1)
    check_epsilon(epsilon)
    scale = check_scale("Laplace scale delta1/epsilon", delta1 / epsilon)
    return CalibrationResult(scale, epsilon, 0.0, NoiseRegime.PURE_LAPLACE)


def calibrate_gaussian(delta2: float, epsilon: float, delta: float) -> CalibrationResult:
    """Gaussian sigma = delta2 * sqrt(2 ln(1.25/delta)) / epsilon."""
    check_scale("delta2", delta2)
    check_epsilon(epsilon, 1.0)
    check_delta(delta)
    sigma = delta2 * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    check_scale("Gaussian sigma", sigma)
    return CalibrationResult(sigma, epsilon, delta, NoiseRegime.GAUSSIAN)


def l2_laplace_a(epsilon: float, delta: float) -> float:
    """a = sqrt(2 ln(1/delta)) * (sqrt(1 + epsilon/ln(1/delta)) - 1).

    Evaluated as sqrt(2/ln(1/delta)) * epsilon / (sqrt(1 + eps/ln(1/delta)) + 1)
    to avoid the cancellation in sqrt(1+x) - 1 for small epsilon.
    """
    check_epsilon(epsilon, 1.0)
    ln1d = math.log(1.0 / check_delta(delta))
    x = epsilon / ln1d
    return math.sqrt(2.0 * ln1d) * x / (math.sqrt(1.0 + x) + 1.0)


def calibrate_l2_laplace(delta2: float, epsilon: float, delta: float) -> CalibrationResult:
    """Laplace scale delta2/a for (epsilon, delta)-DP via l2-sensitivity."""
    check_scale("delta2", delta2)
    a = l2_laplace_a(epsilon, delta)  # 0.0 when a subnormal epsilon underflows it
    scale = check_scale("l2-Laplace scale delta2/a", delta2 / a if a > 0 else math.inf)
    return CalibrationResult(scale, epsilon, delta, NoiseRegime.L2_LAPLACE, a_param=a)


@dataclass(frozen=True)
class LaplaceEpsilonResult:
    """Achieved epsilon of Lap(lambda) noise for given sensitivities."""

    epsilon: float
    branch: str  # "pure" or "l2"
    pure_branch: float
    l2_branch: float
    out_of_regime: bool  # epsilon >= 1: outside the derivation's comfort zone
    scale_below_delta1: bool  # lambda <= delta1: stated precondition violated


def epsilon_of_laplace(
    delta1: float,
    delta2: float,
    lam: float,
    delta: float,
) -> LaplaceEpsilonResult:
    """epsilon = min{ d1/lam, (d2/lam)(d2/(2 lam) + sqrt(2 ln(1/delta))) }.

    The guarantee is derived for lam > delta1; a violation only sets
    `scale_below_delta1`, so parameter sweeps can still see the raw number.
    """
    check_scale("delta1", delta1)
    if not 0 <= delta2 <= delta1:
        raise ValueError(f"delta2 = {delta2!r} must be in [0, delta1 = {delta1!r}]")
    check_scale("lambda", lam)
    check_delta(delta)
    below = lam <= delta1
    pure = delta1 / lam
    l2 = (delta2 / lam) * (delta2 / (2.0 * lam) + math.sqrt(2.0 * math.log(1.0 / delta)))
    eps = min(pure, l2)
    return LaplaceEpsilonResult(
        epsilon=eps,
        branch="pure" if pure <= l2 else "l2",
        pure_branch=pure,
        l2_branch=l2,
        out_of_regime=eps >= 1.0,
        scale_below_delta1=below,
    )


def variance_ratio_bound(epsilon: float, delta: float) -> float:
    """Upper bound on Var[l2-Laplace] / Var[Gaussian] at equal (eps, delta).

    Equals w^2 / (2 (sqrt(1+w) - 1)^2) with w = epsilon/ln(1/delta); valid
    for epsilon <= ln(1/delta) and always >= 2, approaching 2 as epsilon
    goes to 0.  Evaluated as (sqrt(1+w) + 1)^2 / 2, the same value, since
    w = (sqrt(1+w) - 1)(sqrt(1+w) + 1): sqrt(1+w) - 1 cancels for small w.
    """
    ln1d = math.log(1.0 / check_delta(delta))
    check_epsilon(epsilon, ln1d)
    return (math.sqrt(1.0 + epsilon / ln1d) + 1.0) ** 2 / 2.0
