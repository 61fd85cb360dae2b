"""Packing-simulator tests: exact TV values, bounds, sampling, distinguisher."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    run_distinguisher,
    sample_x0,
    tree_mechanism_factory,
)


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
