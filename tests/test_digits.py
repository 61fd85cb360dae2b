"""Digit-system tests: round trips, uniqueness, weights, and carry behavior."""

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from karycount.digits import DigitSystem, digit_bounds, max_value
from karycount.mechanisms import Mechanism, MechanismConfig, MechanismStateError
import karyref
from karyref import decode, encode, weight, weight_sum

SYSTEM_ARITIES = [
    (DigitSystem.PLAIN, 2),
    (DigitSystem.PLAIN, 3),
    (DigitSystem.PLAIN, 5),
    (DigitSystem.OFFSET_ODD, 3),
    (DigitSystem.OFFSET_ODD, 5),
    (DigitSystem.OFFSET_ODD, 7),
    (DigitSystem.OFFSET_EVEN, 4),
    (DigitSystem.OFFSET_EVEN, 6),
]


def brute_force_encodings(system, k, w):
    """Independent oracle: enumerate all digit tuples and map value -> digits."""
    lo, hi = karyref.digit_bounds(system, k)
    table = {}
    for digits in product(range(lo, hi + 1), repeat=w):
        value = sum(d * k**i for i, d in enumerate(digits))
        if value >= 0:
            assert value not in table or table[value] == digits, (
                f"value {value} has two representations in {system} k={k}"
            )
            table.setdefault(value, digits)
    return table


@pytest.mark.parametrize("system,k", SYSTEM_ARITIES)
def test_encode_matches_enumeration(system, k):
    w = 3
    table = brute_force_encodings(system, k, w)
    for t in range(max_value(system, k, w) + 1):
        assert encode(t, k, w, system) == table[t]


@pytest.mark.parametrize("system,k", SYSTEM_ARITIES)
def test_round_trip_exhaustive(system, k):
    w = 4 if k <= 3 else 3
    for t in range(max_value(system, k, w) + 1):
        v = encode(t, k, w, system)
        assert decode(v, k, system) == t


def test_digit_bounds():
    assert digit_bounds(DigitSystem.PLAIN, 5) == (0, 4)
    assert digit_bounds(DigitSystem.OFFSET_ODD, 5) == (-2, 2)
    assert digit_bounds(DigitSystem.OFFSET_EVEN, 6) == (-2, 3)
    with pytest.raises(ValueError):
        digit_bounds(DigitSystem.OFFSET_ODD, 4)
    with pytest.raises(ValueError):
        digit_bounds(DigitSystem.OFFSET_EVEN, 5)
    with pytest.raises(ValueError):
        digit_bounds(DigitSystem.PLAIN, 1)


def test_max_value():
    assert max_value(DigitSystem.PLAIN, 3, 4) == 80
    assert max_value(DigitSystem.OFFSET_ODD, 3, 4) == 40
    assert max_value(DigitSystem.OFFSET_EVEN, 4, 3) == 42  # 2 * (64-1)/3
    assert max_value(DigitSystem.OFFSET_EVEN, 4, 1) == 2


def test_known_encodings():
    assert encode(16, 3, 3, DigitSystem.PLAIN) == (1, 2, 1)
    assert encode(8, 3, 3, DigitSystem.OFFSET_ODD) == (-1, 0, 1)
    assert encode(2, 3, 2, DigitSystem.OFFSET_ODD) == (-1, 1)
    assert encode(10, 4, 2, DigitSystem.OFFSET_EVEN) == (2, 2)
    assert encode(7, 4, 2, DigitSystem.OFFSET_EVEN) == (-1, 2)


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode(41, 3, 4, DigitSystem.OFFSET_ODD)
    with pytest.raises(ValueError):
        encode(-1, 3, 4, DigitSystem.PLAIN)


@pytest.mark.parametrize("system,k", SYSTEM_ARITIES)
def test_increment_walks_all_values(system, k):
    # the digit counter's one carry is `Mechanism.feed`'s; it steps through
    # every value of the fixed width and stops at the largest
    w = 3
    T = max_value(system, k, w)
    mech = Mechanism(MechanismConfig(system, k, T, 1.0, zero_noise=True))
    for t in range(1, T + 1):
        mech.feed(0)
        assert decode(mech._digits, k, system) == t
    with pytest.raises(MechanismStateError):
        mech.feed(0)


def test_weight():
    assert weight((1, -2, 0, 3)) == 6
    assert weight(encode(0, 3, 4, DigitSystem.PLAIN)) == 0


@pytest.mark.parametrize("system,k", SYSTEM_ARITIES)
def test_counted_weight_sum_equals_enumeration(system, k):
    # the count of criterion 5's mean digit weight, against every prefix of
    # a width-4 range encoded one by one
    w = 4
    total = 0
    for T in range(max_value(system, k, w) + 1):
        total += weight(encode(T, k, w, system))
        assert weight_sum(system, k, w, T) == total


def test_reference_digit_bounds():
    # the tests' codec has its own digit ranges; they are the package's
    for system in DigitSystem:
        for k in range(2, 12):
            try:
                want = digit_bounds(system, k)
            except ValueError:
                with pytest.raises(ValueError):
                    karyref.digit_bounds(system, k)
                continue
            assert karyref.digit_bounds(system, k) == want
            assert karyref.max_value(system, k, 3) == max_value(system, k, 3)


@pytest.mark.parametrize("k", [3, 5, 7])
def test_offset_odd_weight_sum(k):
    # sum of weights over the full symmetric range [-M, M] is w * k^w * (k^2-1)/(4k);
    # halving and dropping 0 gives the sum over [1, M]
    w = 3
    M = max_value(DigitSystem.OFFSET_ODD, k, w)
    total = sum(weight(encode(t, k, w, DigitSystem.OFFSET_ODD)) for t in range(1, M + 1))
    expected = Fraction(w * k**w * (k**2 - 1), 4 * k) / 2
    assert total == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_plain_average_weight(k):
    # each digit is uniform over [0, k-1] across a full period
    w = 3
    T = k**w
    total = sum(weight(encode(t, k, w, DigitSystem.PLAIN)) for t in range(T))
    assert Fraction(total, T) == Fraction(w * (k - 1), 2)


@pytest.mark.parametrize("k,h", [(4, 1), (4, 2), (4, 3), (4, 4), (6, 1), (6, 2), (6, 3)])
def test_even_weight_sum_recursion(k, h):
    # c_h = ((k+2)/4 + k(h-1)/4) * (k/2) * k^(h-1) + c_(h-1) counts total digit
    # weight over all representable positive values at width h
    def c(height):
        if height == 0:
            return Fraction(0)
        step = (Fraction(k + 2, 4) + Fraction(k * (height - 1), 4)) * Fraction(k, 2) * k ** (
            height - 1
        )
        return step + c(height - 1)

    M = max_value(DigitSystem.OFFSET_EVEN, k, h)
    total = sum(weight(encode(t, k, h, DigitSystem.OFFSET_EVEN)) for t in range(1, M + 1))
    assert total == c(h)


@pytest.mark.parametrize("system,k", SYSTEM_ARITIES)
def test_leading_digit_nonnegative(system, k):
    # the most significant digit of a nonnegative value is never negative
    w = 3
    for t in range(max_value(system, k, w) + 1):
        assert encode(t, k, w, system)[-1] >= 0


@given(
    st.sampled_from(SYSTEM_ARITIES),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_round_trip_property(system_arity, w, data):
    system, k = system_arity
    t = data.draw(st.integers(min_value=0, max_value=max_value(system, k, w)))
    v = encode(t, k, w, system)
    assert decode(v, k, system) == t
    lo, hi = digit_bounds(system, k)
    assert all(lo <= d <= hi for d in v)
    assert len(v) == w
