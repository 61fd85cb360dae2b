"""Error-analysis tests: closed forms vs enumeration, constants, crossover."""

import math

import pytest

from karycount.analysis import (
    B_EPS_DELTA,
    approx_leading_term,
    closed_form_mse,
    crossover,
    empirical_mse,
    even_vertex_count,
    henzinger_bound,
    leading_constant,
    mse_offset_even,
    mse_offset_odd,
    mse_plain,
    natural_max_T,
    optimal_k,
    pure_leading_term,
)
from karycount.digits import DigitSystem
from karycount.mechanisms import MechanismConfig
from karyref import exhaustive_mse


def test_closed_form_examples():
    assert mse_plain(3, 2, 1.0) == pytest.approx(18.0, abs=1e-12)
    assert mse_offset_odd(3, 2, 1.0) == pytest.approx(12.0, abs=1e-12)
    assert mse_offset_even(4, 2, 1.0) == pytest.approx(18.4, abs=1e-12)


def test_closed_forms_scale_with_epsilon():
    assert mse_offset_odd(3, 2, 0.5) == pytest.approx(4.0 * 12.0)
    assert mse_plain(3, 2, 2.0) == pytest.approx(18.0 / 4.0)


@pytest.mark.parametrize(
    "variant,ks",
    [
        (DigitSystem.PLAIN, [2, 3, 5, 9]),
        (DigitSystem.OFFSET_ODD, [3, 5, 7, 9]),
        (DigitSystem.OFFSET_EVEN, [4, 6, 8]),
    ],
)
def test_closed_form_matches_enumeration(variant, ks):
    # independent oracle: enumerate the key walk for every output
    for k in ks:
        for h in range(1, 5):
            expected = exhaustive_mse(variant, k, h, 1.0)
            got = closed_form_mse(variant, k, h, 1.0)
            assert got == pytest.approx(expected, rel=1e-9)


def test_even_vertex_count_small_cases():
    # k=4, h=1: values 1, 2 with weights 1, 2 -> 3
    assert even_vertex_count(4, 1) == 3
    # recursion step: c_2 - c_1 = ((k+2)/4 + k/4) * (k/2) * k
    assert even_vertex_count(4, 2) - even_vertex_count(4, 1) == 20


def test_even_leading_term_converges():
    # the exact even-k MSE approaches its leading-order form as h grows
    for k in (4, 6):
        exact = mse_offset_even(k, 6, 1.0)
        leading = k * 6**3 / (2.0 * (1.0 - k ** (-6)))  # k h^3 / (2 eps^2 (1 - k^-h))
        assert abs(exact - leading) / leading < 0.05


def test_leading_constants():
    assert leading_constant(DigitSystem.OFFSET_ODD, 19) == pytest.approx(
        0.12359121795987113, abs=1e-12
    )
    assert leading_constant(DigitSystem.PLAIN, 17) == pytest.approx(
        16.0 / math.log2(17) ** 3, abs=1e-12
    )
    assert leading_constant(DigitSystem.OFFSET_EVEN, 20) == pytest.approx(
        10.0 / math.log2(20) ** 3, abs=1e-12
    )


def test_optimal_k():
    assert optimal_k(DigitSystem.OFFSET_ODD, 2, 99)[0] == 19
    assert optimal_k(DigitSystem.PLAIN, 2, 99)[0] == 17
    assert optimal_k(DigitSystem.OFFSET_EVEN, 2, 99)[0] == 20
    with pytest.raises(ValueError):
        optimal_k(DigitSystem.OFFSET_EVEN, 2, 3)


def test_b_eps_delta_constant():
    assert B_EPS_DELTA == pytest.approx(4.0 / (math.pi**2 * math.log2(math.e) ** 3), abs=0)
    assert B_EPS_DELTA == pytest.approx(0.1349698076863838, abs=1e-15)


def test_henzinger_bound_known_value():
    assert henzinger_bound(1024, 1.0, 1e-6) == pytest.approx(551.8388460667281, rel=1e-12)


def test_henzinger_bound_shape():
    # grows like log(T)^2 and collapses the log term at T = 5/4
    b1 = henzinger_bound(10**3, 0.5, 1e-6)
    b2 = henzinger_bound(10**6, 0.5, 1e-6)
    ratio = (1.0 + math.log(4e6 / 5.0) / math.pi) ** 2 / (1.0 + math.log(4e3 / 5.0) / math.pi) ** 2
    assert b2 / b1 == pytest.approx(ratio, rel=1e-12)
    C2 = henzinger_bound(2, 0.5, 1e-6) / (1.0 + math.log(8.0 / 5.0) / math.pi) ** 2
    assert henzinger_bound(2, 0.5, 1e-6) == pytest.approx(
        C2 * (1.0 + math.log(8.0 / 5.0) / math.pi) ** 2
    )


def test_crossover_exponent():
    rep = crossover(DigitSystem.OFFSET_ODD, 19)
    assert rep.exponent == pytest.approx(0.915695295699376, abs=1e-12)
    assert rep.exponent < 0.92
    assert rep.delta_threshold(1024) == pytest.approx(1024 ** (-rep.exponent), rel=1e-12)


def test_leading_term_comparison():
    # below the delta threshold the pure leading term is no worse
    rep = crossover(DigitSystem.OFFSET_ODD, 19)
    for log2T in (10, 20, 30):
        T = 1 << log2T
        thr = rep.delta_threshold(T)
        pure = pure_leading_term(DigitSystem.OFFSET_ODD, 19, T, 1.0)
        assert pure <= approx_leading_term(T, 1.0, thr * 0.999)
        assert pure >= approx_leading_term(T, 1.0, thr * 1.001)


def test_natural_max_T():
    assert natural_max_T(DigitSystem.PLAIN, 3, 4) == 80
    assert natural_max_T(DigitSystem.OFFSET_ODD, 3, 2) == 4
    assert natural_max_T(DigitSystem.OFFSET_EVEN, 4, 2) == 10


def test_empirical_mse_matches_closed_form():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0)
    rep = empirical_mse(cfg, trials=60_000, seed=0)
    assert rep.closed_form_mse == pytest.approx(12.0)
    tol = max(3.0 * rep.standard_error, 0.05 * rep.closed_form_mse)
    assert abs(rep.empirical_mse - rep.closed_form_mse) <= tol


def test_empirical_mse_plain():
    cfg = MechanismConfig(DigitSystem.PLAIN, 3, 8, 1.0)
    rep = empirical_mse(cfg, trials=60_000, seed=1)
    assert rep.closed_form_mse == pytest.approx(18.0)
    tol = max(3.0 * rep.standard_error, 0.05 * rep.closed_form_mse)
    assert abs(rep.empirical_mse - rep.closed_form_mse) <= tol


def test_empirical_mse_zero_noise():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0, zero_noise=True)
    rep = empirical_mse(cfg, trials=100, seed=0)
    assert rep.empirical_mse == 0.0


def test_empirical_mse_deterministic_in_seed():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0)
    a = empirical_mse(cfg, trials=500, seed=42)
    b = empirical_mse(cfg, trials=500, seed=42)
    assert a.empirical_mse == b.empirical_mse


def test_invalid_parameters():
    with pytest.raises(ValueError):
        mse_plain(1, 2, 1.0)
    with pytest.raises(ValueError):
        mse_offset_odd(4, 2, 1.0)
    with pytest.raises(ValueError):
        mse_offset_even(5, 2, 1.0)
    with pytest.raises(ValueError):
        leading_constant(DigitSystem.OFFSET_ODD, 2)
    with pytest.raises(ValueError):
        henzinger_bound(1, 0.5, 1e-6)
    with pytest.raises(ValueError):
        henzinger_bound(100, 1.5, 1e-6)


def test_closed_forms_reject_epsilon_whose_square_underflows():
    # epsilon = 1e-200 is finite and > 0, but epsilon^2 is 0.0: each closed
    # form that divides by it raised ZeroDivisionError
    calls = [
        lambda eps: mse_plain(3, 2, eps),
        lambda eps: mse_offset_odd(3, 2, eps),
        lambda eps: mse_offset_even(4, 2, eps),
        lambda eps: exhaustive_mse(DigitSystem.OFFSET_ODD, 3, 2, eps),
        lambda eps: pure_leading_term(DigitSystem.OFFSET_ODD, 19, 1024, eps),
        lambda eps: approx_leading_term(1024, eps, 1e-6),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="epsilon\\^2"):
            call(1e-200)
        assert math.isfinite(call(1e-150))
