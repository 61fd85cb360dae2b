"""Closed-form error analysis and the Monte-Carlo harness.

The closed form gives the exact mean squared error of the tree mechanisms
at the natural maximum stream length T = max_value(variant, k, h): an
output sums one Laplace draw per vertex, as many as its digit weight, so
the MSE is the mean digit weight over [1, T] times the per-vertex variance
2h^2/eps^2.  The systems differ only in their digit range [lo, hi], from
which `digit_weight_sum` counts the total weight exactly, in one loop over
the widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitSystem, digit_bounds, max_value
from .mechanisms import BatchRunner, MechanismConfig
from .mechanisms import output_keys  # noqa: F401 -- unused; perfbench/layers.py patches this name
from .noise import check_delta, check_epsilon, check_seed, check_trials
from .noise import vertex_laplace  # noqa: F401 -- unused; perfbench/layers.py patches this name

LOG2E = math.log2(math.e)

#: Leading constant of the Gaussian-noise factorization error bound,
#: 4 / (pi^2 * log2(e)^3), in front of log2(T)^2 * log2(1/delta) / eps^2.
B_EPS_DELTA = 4.0 / (math.pi**2 * LOG2E**3)


def _epsilon_squared(epsilon: float) -> float:
    """epsilon^2, which the closed forms divide by; `ValueError` unless finite and > 0.

    A tiny epsilon passes `check_epsilon`, but its square underflows to 0,
    and a huge one's overflows to inf.
    """
    eps2 = check_epsilon(epsilon) * epsilon
    if not (math.isfinite(eps2) and eps2 > 0):
        raise ValueError(f"epsilon^2 must be finite and > 0, got {epsilon!r}^2 = {eps2!r}")
    return eps2


def _abs_digit_sum(lo: int, hi: int) -> int:
    """The sum of |d| over the digits d in [lo, hi], where lo <= 0 <= hi."""
    return (hi * (hi + 1) + lo * (lo - 1)) // 2


def digit_weight_sum(variant: DigitSystem, k: int, h: int) -> int:
    """Total digit weight S_h of t = 1 .. max_value(variant, k, h): the vertices all outputs sum.

    A value's sign is that of its top non-zero digit, so the t of width w
    are a top digit in [1, hi] over any w - 1 digits in [lo, hi].  Their top
    digits weigh k^(w-1) hi (hi+1)/2, and each lower place holds each digit
    hi k^(w-2) times.
    """
    lo, hi = digit_bounds(variant, k)
    if h < 1:
        raise ValueError(f"need h >= 1; got {h}")
    abs_sum = _abs_digit_sum(lo, hi)
    total = 0
    for w in range(1, h + 1):
        top = k ** (w - 1)
        total += top * hi * (hi + 1) // 2 + (w - 1) * hi * top // k * abs_sum
    return total


def closed_form_mse(variant: DigitSystem, k: int, h: int, epsilon: float) -> float:
    """Exact MSE over the T = max_value(variant, k, h) outputs: (S_h / T) * 2h^2/eps^2.

    S_h / T, a quotient of ints, is correctly rounded.
    """
    weight = digit_weight_sum(variant, k, h) / max_value(variant, k, h)
    return weight * 2.0 * h**2 / _epsilon_squared(epsilon)


def leading_constant(variant: DigitSystem, k: int) -> float:
    """Coefficient of log2(T)^3 / eps^2 in the asymptotic MSE, 2 mean|d| / log2(k)^3.

    The mean digit weight grows by mean|d| = sum|d| / k a level, and
    h ~ log2(T) / log2(k).  This order of evaluation gives (k-1)/log2(k)^3
    for plain digits, k (1 - 1/k^2) / (2 log2(k)^3) for odd offset digits
    and k / (2 log2(k)^3) for even ones bit for bit, as the tests check.
    """
    return k * (2 * _abs_digit_sum(*digit_bounds(variant, k)) / k**2) / math.log2(k) ** 3


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


def _check_length(T: int) -> int:
    """`T`; `ValueError` unless >= 2: at T = 1 the log terms are 0, below it undefined."""
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    return T


def henzinger_bound(T: int, epsilon: float, delta: float) -> float:
    """Gaussian factorization MSE bound C^2 (1 + ln(4T/5)/pi)^2.

    This understates the error of the mechanism it models, the square-root
    factorization of Henzinger, Upadhyay & Upadhyay (SODA 2023): its
    largest variance is C^2 S_T^2, with S_T = sum_{j<T} f_j^2 and
    f_j = C(2j, j)/4^j, and S_T exceeds 1 + ln(4T/5)/pi at every T in
    [2, 2^24] (S_2 = 1.25 against 1.1496, S_{2^20} = 5.4790 against
    5.3417).  S_T = (ln T + gamma + 4 ln 2)/pi + O(1/T), so the leading
    term, and the crossover exponent, are the same.
    """
    _check_length(T)
    check_epsilon(epsilon, 1.0)
    check_delta(delta)
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
        return _check_length(T) ** (-self.exponent)


def crossover(variant: DigitSystem, k: int) -> CrossoverReport:
    return CrossoverReport(
        variant=variant,
        k=k,
        B_eps=leading_constant(variant, k),
        B_eps_delta=B_EPS_DELTA,
    )


def pure_leading_term(variant: DigitSystem, k: int, T: int, epsilon: float) -> float:
    """B_eps * log2(T)^3 / eps^2."""
    _check_length(T)
    term = leading_constant(variant, k) * math.log2(T) ** 3 / _epsilon_squared(epsilon)
    return _finite("pure leading term", term)


def approx_leading_term(T: int, epsilon: float, delta: float) -> float:
    """B_eps_delta * log2(T)^2 * log2(1/delta) / eps^2: the Gaussian bound's leading term."""
    _check_length(T)
    eps2 = _epsilon_squared(epsilon)
    term = B_EPS_DELTA * math.log2(T) ** 2 * math.log2(1.0 / check_delta(delta)) / eps2
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
    check_trials(trials)
    base_seed = check_seed(config.seed if seed is None else seed, trials)
    h = config.height
    # before any trial: it rejects an epsilon whose square underflows or overflows
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
