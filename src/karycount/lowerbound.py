"""Empirical packing-argument simulator for random-input continual counting.

The construction: draw a base string whose every length-B block holds
between B/4 and 3B/4 ones, then derive per-block variants by flipping k
zeros to ones inside one block.  A mechanism that is accurate on all these
near-uniform strings can tell them apart through the first block end where
the difference of two runs exceeds k/2 -- but differential privacy caps how
often that can happen, which is what the experiment measures.

Total variation distances over full strings are infeasible to enumerate;
the block-count reduction (conditioned binomial vs its k-shift) is computed
exactly, with `math.lgamma` and no scipy, and the base-string distance is
evaluated via its closed-form bound.

The experiment samples its strings one trial at a time but runs the
mechanism on blocks of trials: it keeps only the strings' block sums, draws
the noise of all the block's runs in one `BatchRunner.noise` call and finds
every run's first crossing with numpy, in O(block) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .digits import DigitSystem
from .mechanisms import BatchRunner, MechanismConfig

#: 6 * sqrt(2) / sqrt(pi): constant of the block-count TV upper bound k/sqrt(B).
TV_BOUND_CONST = 6.0 * math.sqrt(2.0) / math.sqrt(math.pi)

_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class LowerBoundConfig:
    T: int
    k: int
    epsilon: float
    trials: int = 1000
    seed: int = 0
    zero_noise: bool = False

    def __post_init__(self) -> None:
        B = math.isqrt(self.T)
        if B * B != self.T:
            raise ValueError(f"T={self.T} must be a perfect square")
        if B % 4 != 0:
            raise ValueError(f"block size B={B} must be divisible by 4")
        if self.k % 2 != 0 or self.k <= 0:
            raise ValueError(f"flip count k={self.k} must be a positive even integer")
        if self.k > B // 4:
            raise ValueError(f"need k <= B/4 = {B // 4}, got k={self.k}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        self.tree_config()  # its per-vertex scale must be finite too
        # trial i runs the mechanism under seeds seed + 4i .. seed + 4i + 3; at
        # about 1,200 trials a second (T = 102,400), 10^7 trials take 2.3 hours
        if not 1 <= self.trials <= 10**7:
            raise ValueError(f"trials must be in [1, 10^7], got {self.trials}")
        if not (isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
                and 0 <= self.seed <= 2**64 - 4 * self.trials):
            raise ValueError(
                f"seed must be an integer in [0, 2^64 - 4*trials], got {self.seed!r}"
            )
        object.__setattr__(self, "seed", int(self.seed))

    def tree_config(self) -> MechanismConfig:
        """The mechanism under test: an offset-odd k=3 tree at this epsilon."""
        return MechanismConfig(
            variant=DigitSystem.OFFSET_ODD,
            k=3,
            T=self.T,
            epsilon=self.epsilon,
            zero_noise=self.zero_noise,
        )

    @property
    def B(self) -> int:
        return math.isqrt(self.T)

    @property
    def m(self) -> int:
        return self.T // self.B

    @property
    def alpha(self) -> float:
        return self.k / 4.0


@dataclass(frozen=True)
class BlockCountDistribution:
    """Exact pmf over [0, B] of the conditioned block sum, optionally shifted.

    The base law is Bin(B, 1/2) conditioned on [B/4, 3B/4]; a shift of k
    models a block with k extra forced ones.
    """

    B: int
    shift: int = 0
    pmf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        B, shift = self.B, self.shift
        if B % 4 != 0:
            raise ValueError(f"B={B} must be divisible by 4")
        if shift < 0 or shift > B // 4:
            raise ValueError(f"shift must be in [0, B/4], got {shift}")
        ell = np.arange(B // 4, 3 * B // 4 + 1)
        # binomial log-pmf via ln n! = lgamma(n + 1); safe for large B
        ln_fact = np.array([math.lgamma(n + 1) for n in range(B + 1)])
        logp = ln_fact[B] - ln_fact[ell] - ln_fact[B - ell] - B * math.log(2.0)
        top = logp.max()
        logp -= top + math.log(np.exp(logp - top).sum())  # log-sum-exp
        pmf = np.zeros(B + 1)
        pmf[ell + shift] = np.exp(logp)
        object.__setattr__(self, "pmf", pmf)


def exact_block_tv(B: int, k: int) -> float:
    """Exact TV distance between the conditioned block count and its k-shift."""
    if k % 2 != 0 or k < 0:
        raise ValueError(f"k must be a non-negative even integer, got {k}")
    base = BlockCountDistribution(B).pmf
    shifted = BlockCountDistribution(B, shift=k).pmf
    return 0.5 * float(np.abs(base - shifted).sum())


def block_tv_upper_bound(B: int, k: int) -> float:
    """(6 sqrt(2)/sqrt(pi)) * k / sqrt(B); valid for large B."""
    return TV_BOUND_CONST * k / math.sqrt(B)


def base_string_tv_bound(T: int) -> float:
    """2 sqrt(T) exp(-sqrt(T)/8): TV of the conditioned base string to uniform."""
    return 2.0 * math.sqrt(T) * math.exp(-math.sqrt(T) / 8.0)


def combined_tv_bound(T: int) -> float:
    """10 * T^(-1/20): TV of a flipped string to uniform, valid for T >= 400."""
    return 10.0 * T ** (-1.0 / 20.0)


def sample_x0(config: LowerBoundConfig, rng: np.random.Generator) -> np.ndarray:
    """Uniform string with every block count in [B/4, 3B/4], by per-block rejection."""
    B, m = config.B, config.m
    blocks = rng.integers(0, 2, size=(m, B), dtype=np.int8)
    lo, hi = B // 4, 3 * B // 4
    for _ in range(_REJECTION_CAP):
        sums = blocks.sum(axis=1, dtype=np.int32)
        bad = (sums < lo) | (sums > hi)
        if not bad.any():
            return blocks.reshape(-1)
        blocks[bad] = rng.integers(0, 2, size=(int(bad.sum()), B), dtype=np.int8)
    raise RuntimeError(f"block rejection cap {_REJECTION_CAP} exceeded (B={B})")


def derive_xi(
    x0: np.ndarray, i: int, k: int, rng: np.random.Generator, B: int | None = None
) -> np.ndarray:
    """Flip k zeros to ones inside block i (1-based); Hamming distance exactly k."""
    if B is None:
        B = math.isqrt(len(x0))
    start = (i - 1) * B
    block = x0[start : start + B]
    zeros = np.flatnonzero(block == 0)
    if len(zeros) < k:
        raise RuntimeError(
            f"block {i} has only {len(zeros)} zeros, cannot flip {k}; "
            "base string violates its conditioning"
        )
    picks = rng.choice(zeros, size=k, replace=False)
    out = x0.copy()
    out[start + picks] = 1
    return out


def tree_mechanism_factory(config: LowerBoundConfig):
    """The mechanism under test, `config.tree_config()`, at the block ends.

    Returns `mechanism(bits, seed)`; its `runner` attribute is the
    `BatchRunner` behind it, which `packing_experiment` drives in blocks.
    """
    mech_cfg = config.tree_config()
    # the distinguisher only looks at block ends, so only those rows are built
    ends = range(config.B, config.T + 1, config.B)
    runner = BatchRunner(mech_cfg, times=ends)

    def run(bits, seed: int) -> np.ndarray:
        return runner.run(bits, seed)

    run.runner = runner
    return run


@dataclass
class PackingReport:
    config: LowerBoundConfig
    pr_event: np.ndarray  # Pr[E_i] for Alg(x^(i), x^(0)), per target block i
    pr_event_se: np.ndarray
    trials_per_block: np.ndarray
    sum_null: float  # sum_j Pr[E_j] for Alg(x^(0), x^(0))
    sum_null_se: float
    tv_exact: float
    tv_bound: float
    base_tv_bound: float
    combined_tv_bound: float
    packing_value: float  # m * exp(-k * epsilon) / 2, must be <= 1
    k_threshold: float  # epsilon^-1 * ln(m/2): flip counts below this are infeasible


def packing_experiment(config: LowerBoundConfig) -> PackingReport:
    """Monte-Carlo estimates of the distinguishing events and the packing sum.

    Each trial draws a fresh base string, targets one block i (cycling), and
    runs the distinguisher on (x^(i), x^(0)) and on the null pair
    (x^(0), x^(0)) with independent derived seeds: trial t runs x^(i), x^(0),
    x^(0), x^(0) under seeds seed + 4t .. seed + 4t + 3.  The runs of a block
    of trials are one `BatchRunner.noise` call over all their seeds plus the
    cumulative block sums of the strings, and so equal, bit for bit, a
    trial-by-trial loop of four runs of `tree_mechanism_factory`'s mechanism.
    """
    runner = tree_mechanism_factory(config).runner
    B, m, trials = config.B, config.m, config.trials
    per_block = max(1, runner.seeds_per_block() // 4)
    hits = np.zeros(m)
    totals = np.zeros(m)
    null_fired = 0
    sums = np.empty((per_block, 2, m), dtype=np.int32)  # of x^(i) and x^(0), per trial
    for done in range(0, trials, per_block):
        n = min(per_block, trials - done)
        for r, trial in enumerate(range(done, done + n)):
            rng = np.random.default_rng((config.seed, trial))
            x0 = sample_x0(config, rng)
            xi = derive_xi(x0, trial % m + 1, config.k, rng, B=B)
            xi.reshape(m, B).sum(axis=1, dtype=np.int32, out=sums[r, 0])
            x0.reshape(m, B).sum(axis=1, dtype=np.int32, out=sums[r, 1])
        # (input, block end, trial)
        counts = np.cumsum(sums[:n], axis=2, dtype=np.int64).transpose(1, 2, 0)
        seeds = np.arange(config.seed + 4 * done, config.seed + 4 * (done + n), dtype=np.uint64)
        noise = runner.noise(seeds).reshape(m, n, 4)
        # the estimates of run c of each trial are counts + noise[:, :, c]
        event = (counts[0] + noise[:, :, 0]) - (counts[1] + noise[:, :, 1]) > config.k / 2.0
        null = (counts[1] + noise[:, :, 2]) - (counts[1] + noise[:, :, 3]) > config.k / 2.0
        target = np.arange(done, done + n) % m
        # the first block end over k/2 is the target one
        hit = event.any(axis=0) & (event.argmax(axis=0) == target)
        totals += np.bincount(target, minlength=m)
        hits += np.bincount(target[hit], minlength=m)
        null_fired += int(null.any(axis=0).sum())

    with np.errstate(invalid="ignore", divide="ignore"):
        pr = np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)
        se = np.sqrt(pr * (1.0 - pr) / np.maximum(totals, 1))
    p_null = null_fired / config.trials
    se_null = math.sqrt(p_null * (1.0 - p_null) / config.trials)
    return PackingReport(
        config=config,
        pr_event=pr,
        pr_event_se=se,
        trials_per_block=totals,
        sum_null=p_null,
        sum_null_se=se_null,
        tv_exact=exact_block_tv(config.B, config.k),
        tv_bound=block_tv_upper_bound(config.B, config.k),
        base_tv_bound=base_string_tv_bound(config.T),
        combined_tv_bound=combined_tv_bound(config.T),
        packing_value=config.m * math.exp(-config.k * config.epsilon) / 2.0,
        k_threshold=math.log(config.m / 2.0) / config.epsilon,
    )
