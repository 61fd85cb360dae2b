"""Sampler and calibration tests: determinism, moments, and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from karycount.noise import (
    _mix64,
    _mix64_int,
    CalibrationResult,
    NoiseRegime,
    calibrate_gaussian,
    calibrate_l2_laplace,
    calibrate_pure_laplace,
    epsilon_of_laplace,
    l2_laplace_a,
    variance_ratio_bound,
    vertex_laplace,
    vertex_uniform,
)


def test_vertex_uniform_deterministic():
    assert vertex_uniform(42, 7) == vertex_uniform(42, 7)
    assert vertex_uniform(42, 7) != vertex_uniform(42, 8)
    assert vertex_uniform(43, 7) != vertex_uniform(42, 7)


def test_vertex_uniform_range_and_array():
    idx = np.arange(10_000, dtype=np.int64)
    u = vertex_uniform(5, idx)
    assert u.shape == idx.shape
    assert (u > 0).all() and (u < 1).all()
    # scalar path agrees with the vectorized path element-wise
    assert vertex_uniform(5, 123) == u[123]


def test_vertex_uniform_moments():
    n = 200_000
    u = vertex_uniform(0, np.arange(n, dtype=np.int64))
    assert abs(u.mean() - 0.5) < 3.0 * math.sqrt(1.0 / 12.0 / n)
    assert abs(u.var() - 1.0 / 12.0) < 1e-3


def test_vertex_laplace_scalar_matches_array():
    # one transform on both paths: with math.log1p on the scalar path,
    # about 6 % of these draws differed in the last bit
    n = 100_000
    z = vertex_laplace(2.5, 1234567, np.arange(n, dtype=np.int64))
    assert [vertex_laplace(2.5, 1234567, i) for i in range(n)] == z.tolist()


def test_vertex_laplace_moments():
    n = 500_000
    scale = 1.0
    z = vertex_laplace(scale, 1, np.arange(n, dtype=np.int64))
    var = 2.0 * scale**2
    assert abs(z.mean()) < 3.0 * math.sqrt(var / n)
    assert abs(z.var() - var) < 0.05
    # median of |Laplace(0,1)| is ln 2
    assert abs(np.median(np.abs(z)) - math.log(2.0)) < 0.01


def test_vertex_laplace_zero_scale():
    assert vertex_laplace(0.0, 3, 11) == 0.0
    z = vertex_laplace(0.0, 3, np.arange(5))
    assert (z == 0.0).all()
    with pytest.raises(ValueError):
        vertex_laplace(-1.0, 3, 11)


def test_calibrate_pure_laplace():
    res = calibrate_pure_laplace(3.0, 0.5)
    assert res.scale_or_sigma == 6.0
    assert res.variance == 72.0
    assert res.regime is NoiseRegime.PURE_LAPLACE
    assert res.delta == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_calibration_rejects_non_finite(bad):
    # epsilon=inf once gave a Laplace scale of 0, an exact release
    calls = [
        lambda: calibrate_pure_laplace(bad, 1.0),
        lambda: calibrate_pure_laplace(3.0, bad),
        lambda: calibrate_gaussian(bad, 0.5, 1e-6),
        lambda: calibrate_l2_laplace(bad, 0.5, 1e-6),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite|must be in"):
            call()


def test_calibration_rejects_a_scale_that_is_not_finite():
    # a subnormal epsilon or delta passes the range checks, but the scale it
    # gives is inf (delta1/epsilon, sigma) or nan (delta2/a)
    with pytest.raises(ValueError, match="scale delta1/epsilon"):
        calibrate_pure_laplace(1.0, 1e-320)
    with pytest.raises(ValueError, match="sigma"):
        calibrate_gaussian(1.0, 1.0, 1e-320)
    with pytest.raises(ValueError, match="scale delta2/a"):
        calibrate_l2_laplace(1.0, 1.0, 1e-320)


def test_calibrate_gaussian_known_value():
    res = calibrate_gaussian(1.0, 1.0, 1e-5)
    assert res.scale_or_sigma == pytest.approx(4.844805262605389, abs=1e-12)
    assert res.variance == pytest.approx(res.scale_or_sigma**2)


def test_calibrate_l2_laplace_known_value():
    res = calibrate_l2_laplace(1.0, 1.0, 1e-6)
    assert res.a_param == pytest.approx(0.1869165844387459, abs=1e-12)
    assert res.scale_or_sigma == pytest.approx(5.349980061976299, abs=1e-9)
    assert res.regime is NoiseRegime.L2_LAPLACE


def test_l2_laplace_a_round_trip_grid():
    # a solves a(a/2 + sqrt(2 ln(1/delta))) = epsilon exactly
    for eps in np.linspace(0.05, 0.95, 20):
        for delta in np.logspace(-12, -1, 20):
            a = l2_laplace_a(float(eps), float(delta))
            back = a * (a / 2.0 + math.sqrt(2.0 * math.log(1.0 / delta)))
            assert back == pytest.approx(eps, abs=1e-12)


def test_epsilon_of_laplace_branches():
    res = epsilon_of_laplace(2.0, 1.0, 4.0, 1e-6)
    expected_pure = 2.0 / 4.0
    expected_l2 = (1.0 / 4.0) * (1.0 / 8.0 + math.sqrt(2.0 * math.log(1e6)))
    assert res.pure_branch == pytest.approx(expected_pure)
    assert res.l2_branch == pytest.approx(expected_l2)
    assert res.epsilon == min(expected_pure, expected_l2)
    assert res.branch == "pure"
    assert not res.out_of_regime
    assert not res.scale_below_delta1


def test_epsilon_of_laplace_known_value():
    # high-dimensional case where the l2 branch wins
    res = epsilon_of_laplace(10.0, 1.0, 5.0, 1e-6)
    assert res.branch == "l2"
    assert res.epsilon == pytest.approx(1.0713043539513865, abs=1e-12)
    assert res.out_of_regime  # epsilon >= 1


def test_epsilon_of_laplace_flags():
    res = epsilon_of_laplace(2.0, 1.0, 1.5, 1e-6)
    assert res.scale_below_delta1
    with pytest.raises(ValueError):
        epsilon_of_laplace(1.0, 2.0, 4.0, 1e-6)


def test_epsilon_of_laplace_never_beats_pure_target():
    # scaling for a pure epsilon target never reports a worse epsilon
    for eps in (0.1, 0.5, 0.9):
        for delta in (1e-9, 1e-3):
            res = epsilon_of_laplace(2.0, 1.0, 2.0 / eps, delta)
            assert res.epsilon <= eps + 1e-15


def test_variance_ratio_bound_values():
    assert variance_ratio_bound(math.log(1e6), 1e-6) == pytest.approx(
        2.9142135623730936, abs=1e-12
    )
    near_two = variance_ratio_bound(1e-4, 1e-6)
    assert 2.0 <= near_two <= 2.001


def test_variance_ratio_bound_monotone_and_floor():
    delta = 1e-8
    prev = 2.0
    for eps in np.linspace(1e-6, math.log(1.0 / delta), 50):
        r = variance_ratio_bound(float(eps), delta)
        assert r >= prev - 1e-12
        prev = r
    with pytest.raises(ValueError):
        variance_ratio_bound(math.log(1e8) + 0.1, 1e-8)


@given(
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=1e-12, max_value=0.099),
)
def test_l2_laplace_scale_exceeds_pure_requirement(eps, delta):
    # a < epsilon always, so the l2-Laplace scale delta2/a beats delta2/epsilon
    a = l2_laplace_a(eps, delta)
    assert 0 < a < eps


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**40))
def test_vertex_uniform_always_open_interval(seed, index):
    u = vertex_uniform(seed, index)
    assert 0.0 < u < 1.0


def test_splitmix64_first_output():
    # splitmix64's published first output for state 0
    assert _mix64_int(0) == 0xE220A8397B1DCDAF
    with np.errstate(over="ignore"):
        assert int(_mix64(np.uint64(0))) == 0xE220A8397B1DCDAF


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=2**40))
def test_vertex_uniform_int_path_equals_array_path(seed, index):
    # the Python-int body and the numpy uint64 body are the same hash, bit for bit
    scalar = vertex_uniform(seed, index)
    array = vertex_uniform(seed, np.array([index], dtype=np.uint64))
    assert type(scalar) is float
    assert scalar == float(array[0])


@pytest.mark.parametrize("seed,index", [(2**64, 1), (-1, 1), (1, 2**64), (1, -1)])
def test_vertex_uniform_int_path_rejects_out_of_range(seed, index):
    # no silent wrap mod 2^64; numpy raises the same error converting these ints
    with pytest.raises(OverflowError):
        vertex_uniform(seed, index)
    with pytest.raises(OverflowError):
        vertex_laplace(1.0, seed, index)
