"""Error-analysis tests: closed forms vs enumeration, constants, crossover."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from karycount.analysis import (
    B_EPS_DELTA,
    approx_leading_term,
    closed_form_mse,
    crossover,
    digit_weight_sum,
    empirical_mse,
    henzinger_bound,
    leading_constant,
    optimal_k,
    pure_leading_term,
)
from karycount.digits import DigitSystem, max_value
from karycount.mechanisms import MechanismConfig
import karyref
from karyref import exhaustive_mse

PLAIN, ODD, EVEN = DigitSystem.PLAIN, DigitSystem.OFFSET_ODD, DigitSystem.OFFSET_EVEN


def test_closed_form_examples():
    assert closed_form_mse(PLAIN, 3, 2, 1.0) == pytest.approx(18.0, abs=1e-12)
    assert closed_form_mse(ODD, 3, 2, 1.0) == pytest.approx(12.0, abs=1e-12)
    assert closed_form_mse(EVEN, 4, 2, 1.0) == pytest.approx(18.4, abs=1e-12)


def test_closed_forms_scale_with_epsilon():
    assert closed_form_mse(ODD, 3, 2, 0.5) == pytest.approx(4.0 * 12.0)
    assert closed_form_mse(PLAIN, 3, 2, 2.0) == pytest.approx(18.0 / 4.0)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 17, 20])
def test_plain_product_form(k):
    # the paper's (k-1) h^3 / (eps^2 (1 - k^-h)) over T = k^h - 1, exactly
    for h in range(1, 10):
        mse = Fraction(digit_weight_sum(PLAIN, k, h), max_value(PLAIN, k, h)) * 2 * h**2
        assert mse == (k - 1) * h**3 / (1 - Fraction(1, k**h))


@pytest.mark.parametrize("k", [3, 5, 7, 19, 21])
def test_offset_odd_product_form(k):
    # the paper's k (1 - 1/k^2) h^3 / (2 eps^2 (1 - k^-h)) over T = (k^h - 1)/2, exactly
    for h in range(1, 10):
        mse = Fraction(digit_weight_sum(ODD, k, h), max_value(ODD, k, h)) * 2 * h**2
        assert mse == k * (1 - Fraction(1, k**2)) * h**3 / (2 * (1 - Fraction(1, k**h)))


def per_system_leading_constant(variant: DigitSystem, k: int) -> float:
    """Each system's own expression of the leading constant, in its own order of evaluation."""
    lk3 = math.log2(k) ** 3
    if variant is PLAIN:
        return (k - 1) / lk3
    if variant is ODD:
        return k * (1.0 - 1.0 / k**2) / (2.0 * lk3)
    return k / (2.0 * lk3)


def system_arities(top: int):
    """(system, k) over every admissible arity k <= top of the three systems."""
    return st.one_of(
        st.integers(2, top).map(lambda k: (PLAIN, k)),
        st.integers(1, (top - 1) // 2).map(lambda j: (ODD, 2 * j + 1)),
        st.integers(2, top // 2).map(lambda j: (EVEN, 2 * j)),
    )


@given(system_arities(64), st.integers(1, 12), st.floats(1e-3, 1e3))
def test_one_closed_form_equals_the_reference_count(system_arity, h, eps):
    # every system's MSE is its counted mean digit weight times 2h^2/eps^2,
    # bit for bit, and its T the reference's largest value
    variant, k = system_arity
    T = karyref.max_value(variant, k, h)
    assert max_value(variant, k, h) == T
    want = karyref.weight_sum(variant, k, h, T) / T * 2.0 * h**2 / (eps * eps)
    assert closed_form_mse(variant, k, h, eps) == want
    assert leading_constant(variant, k) == per_system_leading_constant(variant, k)


@given(system_arities(10**12))
@example((ODD, 19))
@example((PLAIN, 17))
@example((EVEN, 20))
@example((ODD, 10**12 - 1))
@example((EVEN, 10**12))
def test_leading_constant_equals_the_per_system_expressions(system_arity):
    # one expression over the digit range, bit for bit each system's own
    assert leading_constant(*system_arity) == per_system_leading_constant(*system_arity)


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
    assert digit_weight_sum(EVEN, 4, 1) == 3
    # the even recursion's step: c_2 - c_1 = ((k+2)/4 + k/4) * (k/2) * k
    assert digit_weight_sum(EVEN, 4, 2) - digit_weight_sum(EVEN, 4, 1) == 20
    # c_h = ((k+2)/4 + k(h-1)/4) * (k/2) * k^(h-1) + c_(h-1), c_0 = 0
    for k in (4, 6, 20):
        c = Fraction(0)
        for h in range(1, 11):
            c += (Fraction(k + 2, 4) + Fraction(k * (h - 1), 4)) * Fraction(k, 2) * k ** (h - 1)
            assert digit_weight_sum(EVEN, k, h) == c


def test_even_leading_term_converges():
    # the exact even-k MSE approaches its leading-order form as h grows
    for k in (4, 6):
        exact = closed_form_mse(EVEN, k, 6, 1.0)
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


@pytest.mark.parametrize("T", [2, 3, 10, 1000, 2**20])
def test_henzinger_bound_understates_the_square_root_factorization(T):
    # its bracket 1 + ln(4T/5)/pi is below S_T = sum_{j<T} f_j^2, f_j =
    # C(2j, j)/4^j, the squared column norm of the square-root
    # factorization, so the bound is below that mechanism's largest variance
    # C^2 S_T^2; S_T is summed in float64, f_j = f_{j-1} (2j - 1)/(2j)
    j = np.arange(1, T)
    f = np.concatenate(([1.0], np.cumprod((2 * j - 1) / (2 * j))))
    s_T = float(np.sum(f * f))
    bracket = 1.0 + math.log(4.0 * T / 5.0) / math.pi
    assert s_T > bracket
    C2 = (2.0 / 0.5) ** 2 * (4.0 / 9.0 + math.log(math.sqrt(2.0 / math.pi) / 1e-6))
    assert henzinger_bound(T, 0.5, 1e-6) == pytest.approx(C2 * bracket**2, rel=1e-12)
    assert henzinger_bound(T, 0.5, 1e-6) < C2 * s_T**2
    if T == 2:
        assert (round(s_T, 4), round(bracket, 4)) == (1.25, 1.1496)
    if T == 2**20:
        assert (round(s_T, 4), round(bracket, 4)) == (5.479, 5.3417)
        assert s_T == pytest.approx((math.log(T) + np.euler_gamma + 4 * math.log(2)) / math.pi,
                                    rel=1e-5)


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
    assert max_value(PLAIN, 3, 4) == 80
    assert max_value(ODD, 3, 2) == 4
    assert max_value(EVEN, 4, 2) == 10


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


@pytest.mark.parametrize("trials", [0, -1, 10**7 + 1, 10**13])
def test_empirical_mse_refuses_trials_out_of_range_before_allocating(trials):
    # 10^13 trials was refused only when its per-trial array failed to
    # allocate, and 10^9 would have run holding 8 GB
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0)
    tracemalloc.start()
    try:
        with mock.patch("karycount.analysis.BatchRunner", side_effect=AssertionError("planned")):
            with pytest.raises(ValueError, match=r"trials must be in \[1, 10\^7\]"):
                empirical_mse(cfg, trials=trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_empirical_mse_deterministic_in_seed():
    cfg = MechanismConfig(DigitSystem.OFFSET_ODD, 3, 4, 1.0)
    a = empirical_mse(cfg, trials=500, seed=42)
    b = empirical_mse(cfg, trials=500, seed=42)
    assert a.empirical_mse == b.empirical_mse


def test_invalid_parameters():
    with pytest.raises(ValueError):
        closed_form_mse(PLAIN, 1, 2, 1.0)
    with pytest.raises(ValueError):
        closed_form_mse(ODD, 4, 2, 1.0)
    with pytest.raises(ValueError):
        closed_form_mse(EVEN, 5, 2, 1.0)
    for variant, k in ((PLAIN, 2), (ODD, 3), (EVEN, 4)):
        with pytest.raises(ValueError):
            closed_form_mse(variant, k, 0, 1.0)
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
        lambda eps: closed_form_mse(PLAIN, 3, 2, eps),
        lambda eps: closed_form_mse(ODD, 3, 2, eps),
        lambda eps: closed_form_mse(EVEN, 4, 2, eps),
        lambda eps: exhaustive_mse(DigitSystem.OFFSET_ODD, 3, 2, eps),
        lambda eps: pure_leading_term(DigitSystem.OFFSET_ODD, 19, 1024, eps),
        lambda eps: approx_leading_term(1024, eps, 1e-6),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="epsilon\\^2"):
            call(1e-200)
        assert math.isfinite(call(1e-150))


@pytest.mark.parametrize("T", [1, 0, -5])
def test_leading_terms_refuse_fewer_than_two_steps(T):
    # at T = 1 both log terms were 0.0, below it a bare "math domain error"
    with pytest.raises(ValueError, match="T must be >= 2"):
        pure_leading_term(ODD, 19, T, 1.0)
    with pytest.raises(ValueError, match="T must be >= 2"):
        approx_leading_term(T, 1.0, 1e-6)
    with pytest.raises(ValueError, match="T must be >= 2"):
        henzinger_bound(T, 1.0, 1e-6)
