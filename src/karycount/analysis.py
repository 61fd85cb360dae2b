"""Closed-form error analysis and the Monte-Carlo harness.

The closed forms give the exact mean squared error of the tree mechanisms
at the natural maximum stream length for a given (k, h): the MSE equals the
average digit weight over [1, T] times the per-vertex variance 2h^2/eps^2.
The even-arity case has no clean product form and is evaluated through an
exact vertex-count recursion instead of its leading-order approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitSystem, digit_bounds, max_value
from .mechanisms import BatchRunner, MechanismConfig
from .mechanisms import output_keys  # noqa: F401 -- unused; perfbench/layers.py patches this name
from .noise import vertex_laplace  # noqa: F401 -- unused; perfbench/layers.py patches this name

LOG2E = math.log2(math.e)

#: Leading constant of the Gaussian-noise factorization error bound,
#: 4 / (pi^2 * log2(e)^3), in front of log2(T)^2 * log2(1/delta) / eps^2.
B_EPS_DELTA = 4.0 / (math.pi**2 * LOG2E**3)


def _epsilon_squared(epsilon: float) -> float:
    """epsilon^2, which the closed forms divide by; `ValueError` unless it is > 0.

    A subnormal epsilon is > 0, but its square underflows to 0.
    """
    eps2 = epsilon**2
    if not eps2 > 0:
        raise ValueError(f"epsilon^2 must be > 0, got {epsilon!r}^2 = {eps2!r}")
    return eps2


def natural_max_T(variant: DigitSystem, k: int, h: int) -> int:
    """Largest stream length a height-h tree supports in this variant."""
    return max_value(variant, k, h)


def mse_plain(k: int, h: int, epsilon: float) -> float:
    """(k-1) h^3 / (eps^2 (1 - k^-h)) over T = k^h - 1 outputs."""
    if k < 2 or h < 1 or epsilon <= 0:
        raise ValueError(f"need k >= 2, h >= 1, epsilon > 0; got {(k, h, epsilon)}")
    return (k - 1) * h**3 / (_epsilon_squared(epsilon) * (1.0 - k ** (-h)))


def mse_offset_odd(k: int, h: int, epsilon: float) -> float:
    """k (1 - 1/k^2) h^3 / (2 eps^2 (1 - k^-h)) over T = (k^h - 1)/2 outputs."""
    digit_bounds(DigitSystem.OFFSET_ODD, k)
    if h < 1 or epsilon <= 0:
        raise ValueError(f"need h >= 1 and epsilon > 0; got {(h, epsilon)}")
    eps2 = _epsilon_squared(epsilon)
    return k * (1.0 - 1.0 / k**2) * h**3 / (2.0 * eps2 * (1.0 - k ** (-h)))


def even_vertex_count(k: int, h: int) -> "Fraction":
    """Total vertices combined over all prefixes a height-h even-k tree supports.

    c_h = ((k+2)/4 + k(h-1)/4) * (k/2) * k^(h-1) + c_(h-1), c_0 = 0.
    """
    # imported here: `fractions` loads `decimal`, which `run` never needs
    from fractions import Fraction

    digit_bounds(DigitSystem.OFFSET_EVEN, k)
    c = Fraction(0)
    for height in range(1, h + 1):
        c += (
            (Fraction(k + 2, 4) + Fraction(k * (height - 1), 4))
            * Fraction(k, 2)
            * k ** (height - 1)
        )
    return c


def mse_offset_even(k: int, h: int, epsilon: float) -> float:
    """Exact even-k MSE (c_h / T) * 2h^2/eps^2 over T = k(k^h-1)/(2(k-1)) outputs."""
    if h < 1 or epsilon <= 0:
        raise ValueError(f"need h >= 1 and epsilon > 0; got {(h, epsilon)}")
    c = even_vertex_count(k, h)
    T = natural_max_T(DigitSystem.OFFSET_EVEN, k, h)
    return float(c / T) * 2.0 * h**2 / _epsilon_squared(epsilon)


def closed_form_mse(variant: DigitSystem, k: int, h: int, epsilon: float) -> float:
    if variant is DigitSystem.PLAIN:
        return mse_plain(k, h, epsilon)
    if variant is DigitSystem.OFFSET_ODD:
        return mse_offset_odd(k, h, epsilon)
    return mse_offset_even(k, h, epsilon)


def leading_constant(variant: DigitSystem, k: int) -> float:
    """Coefficient of log2(T)^3 / eps^2 in the asymptotic MSE."""
    digit_bounds(variant, k)  # parity/range check
    lk3 = math.log2(k) ** 3
    if variant is DigitSystem.PLAIN:
        return (k - 1) / lk3
    if variant is DigitSystem.OFFSET_ODD:
        return k * (1.0 - 1.0 / k**2) / (2.0 * lk3)
    return k / (2.0 * lk3)


def optimal_k(variant: DigitSystem, k_min: int, k_max: int) -> tuple[int, float]:
    """Arity minimizing the leading constant over [k_min, k_max] (ties: smallest k).

    The range spans at most 65,536 arities: `analyze constants` writes a row
    per arity, and 2^16 of them take under a second.
    """
    if k_max - k_min >= 65536:
        raise ValueError(f"k_max - k_min must be below 65536, got {k_max} - {k_min}")
    best: tuple[int, float] | None = None
    for k in range(k_min, k_max + 1):
        try:
            c = leading_constant(variant, k)
        except ValueError:
            continue
        if best is None or c < best[1]:
            best = (k, c)
    if best is None:
        raise ValueError(f"no admissible arity in [{k_min}, {k_max}] for {variant.value}")
    return best


def _finite(name: str, value: float) -> float:
    """`value`; `ValueError` naming it unless it is finite (a tiny epsilon or delta overflows it)."""
    if not math.isfinite(value):
        raise ValueError(f"the {name} overflows to {value!r}")
    return value


def henzinger_bound(T: int, epsilon: float, delta: float) -> float:
    """Gaussian factorization MSE bound C^2 (1 + ln(4T/5)/pi)^2."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if not 0 < epsilon <= 1 or not 0 < delta < 1:
        raise ValueError(f"epsilon must be in (0, 1] and delta in (0, 1), got {(epsilon, delta)}")
    C = (2.0 / epsilon) * math.sqrt(4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / delta))
    bound = C**2 * (1.0 + math.log(4.0 * T / 5.0) / math.pi) ** 2
    # a subnormal delta overflows sqrt(2/pi) / delta
    return _finite(f"Gaussian bound at delta={delta!r}", bound)


@dataclass(frozen=True)
class CrossoverReport:
    """Where pure-DP Laplace tree error crosses the Gaussian bound."""

    variant: DigitSystem
    k: int
    B_eps: float
    B_eps_delta: float

    @property
    def exponent(self) -> float:
        return self.B_eps / self.B_eps_delta

    def delta_threshold(self, T: int) -> float:
        """delta below which the pure leading term is no worse: T^(-exponent)."""
        if T < 2:
            raise ValueError(f"T must be >= 2, got {T}")
        return T ** (-self.exponent)


def crossover(variant: DigitSystem, k: int) -> CrossoverReport:
    return CrossoverReport(
        variant=variant,
        k=k,
        B_eps=leading_constant(variant, k),
        B_eps_delta=B_EPS_DELTA,
    )


def pure_leading_term(variant: DigitSystem, k: int, T: int, epsilon: float) -> float:
    """B_eps * log2(T)^3 / eps^2."""
    term = leading_constant(variant, k) * math.log2(T) ** 3 / _epsilon_squared(epsilon)
    return _finite("pure leading term", term)


def approx_leading_term(T: int, epsilon: float, delta: float) -> float:
    """B_eps_delta * log2(T)^2 * log2(1/delta) / eps^2: the Gaussian bound's leading term."""
    eps2 = _epsilon_squared(epsilon)
    term = B_EPS_DELTA * math.log2(T) ** 2 * math.log2(1.0 / delta) / eps2
    return _finite("approximate-DP leading term", term)


@dataclass
class ErrorReport:
    variant: DigitSystem
    k: int
    h: int
    T: int
    epsilon: float
    closed_form_mse: float
    trials: int = 0
    empirical_mse: float | None = None
    standard_error: float | None = None


def empirical_mse(config: MechanismConfig, trials: int, seed: int | None = None) -> ErrorReport:
    """Monte-Carlo MSE over seeded runs, with per-trial standard error.

    Trial i draws its vertex noise under seed + i (one independent
    mechanism run each); the additive noise, not the input, determines the
    error, so each trial's errors are the `BatchRunner.noise` of all T
    outputs.  Trials go in blocks of `BatchRunner.seeds_per_block` seeds.
    The closed form is reported at the variant's natural maximum T for the
    config's height.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    base_seed = config.seed if seed is None else seed
    if not 0 <= base_seed <= 2**64 - trials:
        raise ValueError(f"trial seeds {base_seed} + [0, {trials}) must lie in [0, 2^64)")
    h = config.height
    # before any trial: it rejects an epsilon whose square underflows
    closed = closed_form_mse(config.variant, config.k, h, config.epsilon)
    if not math.isfinite(closed):
        raise ValueError(f"the closed-form MSE at epsilon={config.epsilon!r} overflows to {closed!r}")
    runner = BatchRunner(config)
    block = runner.seeds_per_block()

    per_trial = np.empty(trials)
    # squares past the float range give inf or nan, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, trials, block):
            n = min(block, trials - done)
            err = runner.noise(np.arange(base_seed + done, base_seed + done + n, dtype=np.uint64))
            per_trial[done : done + n] = np.einsum("ij,ij->j", err, err) / config.T
        est = float(per_trial.mean())
        se = float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    if not (math.isfinite(est) and math.isfinite(se)):
        raise ValueError(
            f"the Monte-Carlo MSE at epsilon={config.epsilon!r} overflows: "
            f"mse {est!r}, standard error {se!r}"
        )
    return ErrorReport(
        variant=config.variant,
        k=config.k,
        h=h,
        T=config.T,
        epsilon=config.epsilon,
        closed_form_mse=closed,
        trials=trials,
        empirical_mse=est,
        standard_error=se,
    )
