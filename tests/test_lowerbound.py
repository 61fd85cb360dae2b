"""Packing-simulator tests: exact TV values, bounds, sampling, distinguisher."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from karycount import mechanisms
from karycount.lowerbound import (
    BlockCountDistribution,
    LowerBoundConfig,
    TV_BOUND_CONST,
    base_string_tv_bound,
    block_tv_upper_bound,
    combined_tv_bound,
    derive_xi,
    exact_block_tv,
    packing_experiment,
    sample_x0,
    tree_mechanism_factory,
)
from karyref import run_distinguisher


def exact_tv_by_fractions(B, k):
    """Independent oracle: the same TV computed in exact rational arithmetic."""
    lo, hi = B // 4, 3 * B // 4
    weights = {ell: Fraction(math.comb(B, ell)) for ell in range(lo, hi + 1)}
    total = sum(weights.values())
    base = {ell: w / total for ell, w in weights.items()}
    shifted = {ell + k: p for ell, p in base.items()}
    support = set(base) | set(shifted)
    tv = sum(abs(base.get(s, 0) - shifted.get(s, 0)) for s in support) / 2
    return tv


def test_block_distribution_is_normalized_and_symmetric():
    for B in (8, 16, 64):
        pmf = BlockCountDistribution(B).pmf
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pmf[: B // 4] == 0).all() and (pmf[3 * B // 4 + 1 :] == 0).all()
        np.testing.assert_allclose(pmf, pmf[::-1], atol=1e-15)


def test_block_distribution_shift():
    base = BlockCountDistribution(8).pmf
    shifted = BlockCountDistribution(8, shift=2).pmf
    np.testing.assert_allclose(shifted[2:], base[:-2], atol=1e-15)


def test_exact_block_tv_small_case():
    # B=8, k=2: mass 2 * C(8,2)/sum = 2*28/238 plus boundary effects -> 63/119
    assert exact_block_tv(8, 2) == pytest.approx(63.0 / 119.0, abs=1e-12)
    assert exact_block_tv(8, 0) == 0.0


@pytest.mark.parametrize("B,k", [(8, 2), (16, 2), (16, 4), (64, 4), (256, 4)])
def test_exact_block_tv_matches_rational_oracle(B, k):
    assert exact_block_tv(B, k) == pytest.approx(float(exact_tv_by_fractions(B, k)), abs=1e-12)


# every even k <= B/4 at B <= 64, then k = 2, 8 and B/4
EXACTNESS_CASES = [(B, k) for B in (8, 16, 64) for k in range(2, B // 4 + 1, 2)] + [
    (B, k) for B in (320, 1024) for k in (2, 8, B // 4)
]


@pytest.mark.parametrize("B,k", EXACTNESS_CASES)
def test_exact_block_tv_relative_error(B, k):
    # the log-gamma pmf, normalized by a hand-written log-sum-exp, against
    # exact rationals from math.comb
    exact = exact_tv_by_fractions(B, k)
    assert abs(Fraction(exact_block_tv(B, k)) - exact) <= Fraction(1, 10**12) * exact


@pytest.mark.parametrize("B,k", [(16, 2), (64, 4), (256, 4)])
def test_exact_tv_matches_monte_carlo(B, k):
    # sample the conditioned block sum directly and compare empirical TV proxy:
    # Pr[base in A] - Pr[shifted in A] for the optimal set A = {pmf_base > pmf_shifted}
    rng = np.random.default_rng(0)
    n = 200_000
    base = BlockCountDistribution(B).pmf
    shifted = BlockCountDistribution(B, shift=k).pmf
    favored = base > shifted
    draws = rng.binomial(B, 0.5, size=4 * n)
    draws = draws[(draws >= B // 4) & (draws <= 3 * B // 4)][:n]
    assert len(draws) == n
    p_base = favored[draws].mean()
    p_shift = favored[np.minimum(draws + k, B)].mean()
    tv = exact_block_tv(B, k)
    se = math.sqrt(2.0 / n)
    assert abs((p_base - p_shift) - tv) < 3.0 * se


@pytest.mark.parametrize("B", [64, 256, 1024])
def test_block_tv_upper_bound_holds(B):
    for k in (2, 4, B // 8):
        if k % 2 or k > B // 4:
            continue
        assert exact_block_tv(B, k) <= block_tv_upper_bound(B, k)
    assert block_tv_upper_bound(B, 2) == pytest.approx(TV_BOUND_CONST * 2 / math.sqrt(B))


def test_base_string_and_combined_bounds():
    assert base_string_tv_bound(1024) == pytest.approx(64.0 * math.exp(-4.0), rel=1e-12)
    assert combined_tv_bound(1024) == pytest.approx(10.0 * 1024 ** (-0.05), rel=1e-12)
    # the combined bound dominates its ingredients on a feasible grid
    for T in (400, 1024, 4096, 65536):
        B = math.isqrt(T)
        k = min(2 * max(1, int(T**0.2) // 2), 2 * (B // 8))
        assert block_tv_upper_bound(B, k) + base_string_tv_bound(T) <= combined_tv_bound(T)


def test_config_validation():
    LowerBoundConfig(T=256, k=4, epsilon=1.0)
    with pytest.raises(ValueError):
        LowerBoundConfig(T=200, k=2, epsilon=1.0)  # not a square
    with pytest.raises(ValueError):
        LowerBoundConfig(T=36, k=2, epsilon=1.0)  # B=6 not divisible by 4
    with pytest.raises(ValueError):
        LowerBoundConfig(T=256, k=3, epsilon=1.0)  # odd flip count
    with pytest.raises(ValueError):
        LowerBoundConfig(T=256, k=6, epsilon=1.0)  # k > B/4
    with pytest.raises(ValueError):
        LowerBoundConfig(T=256, k=4, epsilon=0.0)


@pytest.mark.parametrize("epsilon", [math.inf, math.nan])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="finite"):
        LowerBoundConfig(T=256, k=4, epsilon=epsilon)


def test_config_seed_range():
    # trial i uses seeds seed + 4i .. seed + 4i + 3, all below 2^64
    LowerBoundConfig(T=256, k=4, epsilon=1.0, trials=8, seed=2**64 - 32)
    for seed in (-1, 2**64 - 31, 2**64, 1.0):
        with pytest.raises(ValueError, match="seed"):
            LowerBoundConfig(T=256, k=4, epsilon=1.0, trials=8, seed=seed)


def test_config_derived_quantities():
    cfg = LowerBoundConfig(T=1024, k=8, epsilon=0.5)
    assert cfg.B == 32 and cfg.m == 32 and cfg.alpha == 2.0


def test_sample_x0_block_conditioning():
    cfg = LowerBoundConfig(T=1024, k=4, epsilon=1.0)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = sample_x0(cfg, rng)
        assert x.shape == (1024,)
        sums = x.reshape(cfg.m, cfg.B).sum(axis=1)
        assert (sums >= cfg.B // 4).all() and (sums <= 3 * cfg.B // 4).all()


def test_sample_x0_is_uniform_within_condition():
    # per-bit marginal stays 1/2 by symmetry of the conditioning
    cfg = LowerBoundConfig(T=64, k=2, epsilon=1.0)
    rng = np.random.default_rng(2)
    acc = np.zeros(64)
    n = 3000
    for _ in range(n):
        acc += sample_x0(cfg, rng)
    p = acc / n
    assert np.abs(p - 0.5).max() < 5.0 * math.sqrt(0.25 / n)


def test_derive_xi_flips_exactly_k_zeros():
    cfg = LowerBoundConfig(T=256, k=4, epsilon=1.0)
    rng = np.random.default_rng(3)
    x0 = sample_x0(cfg, rng)
    for i in (1, 7, cfg.m):
        xi = derive_xi(x0, i, cfg.k, rng, B=cfg.B)
        diff = xi - x0
        assert (diff >= 0).all()
        assert diff.sum() == cfg.k
        lo, hi = (i - 1) * cfg.B, i * cfg.B
        assert diff[:lo].sum() == 0 and diff[hi:].sum() == 0


def test_derive_xi_rejects_impossible_flip():
    x0 = np.ones(16, dtype=np.int8)
    with pytest.raises(RuntimeError):
        derive_xi(x0, 1, 2, np.random.default_rng(0), B=4)


def test_zero_noise_distinguisher_finds_target_block():
    cfg = LowerBoundConfig(T=256, k=4, epsilon=1.0, zero_noise=True)
    mech = tree_mechanism_factory(cfg)
    rng = np.random.default_rng(4)
    for i in (1, 5, 16):
        x0 = sample_x0(cfg, rng)
        xi = derive_xi(x0, i, cfg.k, rng, B=cfg.B)
        assert run_distinguisher(mech, xi, x0, cfg, (0, 1)) == i
        assert run_distinguisher(mech, x0, x0, cfg, (0, 1)) is None


def test_packing_experiment_zero_noise():
    cfg = LowerBoundConfig(T=256, k=4, epsilon=1.0, trials=64, seed=0, zero_noise=True)
    rep = packing_experiment(cfg)
    assert np.nanmin(rep.pr_event) == 1.0
    assert rep.sum_null == 0.0
    assert rep.tv_exact == pytest.approx(exact_block_tv(16, 4))
    assert rep.packing_value == pytest.approx(16 * math.exp(-4.0) / 2.0)


def test_packing_experiment_noisy_null_calibration():
    # with real noise the null pair still fires at most one event per run,
    # so sum_j Pr[E_j] under the null stays <= 1 (plus sampling error)
    cfg = LowerBoundConfig(T=256, k=4, epsilon=1.0, trials=400, seed=7)
    rep = packing_experiment(cfg)
    assert rep.sum_null <= 1.0 + 3.0 * rep.sum_null_se
    assert rep.trials_per_block.sum() == cfg.trials
    assert rep.k_threshold == pytest.approx(math.log(8.0), rel=1e-12)


def test_packing_experiment_deterministic():
    cfg = LowerBoundConfig(T=256, k=4, epsilon=1.0, trials=32, seed=11)
    a = packing_experiment(cfg)
    b = packing_experiment(cfg)
    np.testing.assert_array_equal(a.pr_event, b.pr_event)
    assert a.sum_null == b.sum_null


def per_trial_experiment(config):
    """The experiment one trial at a time: four mechanism runs per trial.

    (pr_event, pr_event_se, trials_per_block, sum_null, sum_null_se), as
    `packing_experiment` reports them.
    """
    mechanism = tree_mechanism_factory(config)
    m = config.m
    hits, totals, null_fired = np.zeros(m), np.zeros(m), 0
    for trial in range(config.trials):
        rng = np.random.default_rng((config.seed, trial))
        x0 = sample_x0(config, rng)
        i = trial % m + 1
        xi = derive_xi(x0, i, config.k, rng, B=config.B)
        base = config.seed + 4 * trial
        totals[i - 1] += 1
        if run_distinguisher(mechanism, xi, x0, config, (base, base + 1)) == i:
            hits[i - 1] += 1
        if run_distinguisher(mechanism, x0, x0, config, (base + 2, base + 3)) is not None:
            null_fired += 1
    with np.errstate(invalid="ignore", divide="ignore"):
        pr = np.where(totals > 0, hits / np.maximum(totals, 1), np.nan)
        se = np.sqrt(pr * (1.0 - pr) / np.maximum(totals, 1))
    p_null = null_fired / config.trials
    return pr, se, totals, p_null, math.sqrt(p_null * (1.0 - p_null) / config.trials)


def trials_per_noise_block(config):
    return max(1, tree_mechanism_factory(config).runner.seeds_per_block() // 4)


def assert_batched_is_per_trial(config):
    rep = packing_experiment(config)
    pr, se, totals, p_null, se_null = per_trial_experiment(config)
    np.testing.assert_array_equal(rep.pr_event, pr)
    np.testing.assert_array_equal(rep.pr_event_se, se)
    np.testing.assert_array_equal(rep.trials_per_block, totals)
    assert rep.sum_null == p_null and rep.sum_null_se == se_null
    return rep


def test_batched_experiment_fewer_trials_than_blocks():
    cfg = LowerBoundConfig(T=1024, k=4, epsilon=1.0, trials=10, seed=3)
    rep = assert_batched_is_per_trial(cfg)
    assert np.isnan(rep.pr_event[10:]).all() and not np.isnan(rep.pr_event[:10]).any()


def test_batched_experiment_partial_last_block():
    # at this epsilon the noise decides some runs of both pairs either way
    cfg = LowerBoundConfig(T=1024, k=4, epsilon=16.0, trials=1, seed=21)
    block = trials_per_noise_block(cfg)
    cfg = LowerBoundConfig(T=1024, k=4, epsilon=16.0, trials=2 * block + 3, seed=21)
    assert block > 3
    rep = assert_batched_is_per_trial(cfg)
    assert 0.0 < rep.sum_null < 1.0
    assert 0.0 < np.mean(rep.pr_event) < 1.0


def test_batched_experiment_one_trial_per_block(monkeypatch):
    monkeypatch.setattr(mechanisms, "TRIAL_BLOCK_ELEMENTS", 1)
    cfg = LowerBoundConfig(T=256, k=4, epsilon=0.5, trials=40, seed=8)
    assert trials_per_noise_block(cfg) == 1
    assert_batched_is_per_trial(cfg)


def test_batched_experiment_zero_noise():
    cfg = LowerBoundConfig(T=1024, k=2, epsilon=1.0, trials=70, seed=5, zero_noise=True)
    rep = assert_batched_is_per_trial(cfg)
    assert np.all(rep.pr_event == 1.0) and rep.sum_null == 0.0


def test_batched_experiment_top_seeds():
    # the last trial's last run takes seed 2^64 - 1
    trials = 50
    cfg = LowerBoundConfig(T=1024, k=4, epsilon=2.0, trials=trials, seed=2**64 - 4 * trials)
    assert_batched_is_per_trial(cfg)


def test_experiment_memory_does_not_grow_with_trials():
    # counts and noise are held for one block of trials, never for all
    def peak(trials):
        cfg = LowerBoundConfig(T=6400, k=4, epsilon=1.0, trials=trials, seed=1)
        tracemalloc.start()
        try:
            packing_experiment(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    m = 80
    assert peak(8 * m) <= 1.5 * peak(m)
