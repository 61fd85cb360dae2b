"""Digit systems for k-ary tree aggregation.

Three positional number systems are supported, all least-significant digit
first:

* plain k-ary, digits in [0, k-1];
* offset (balanced) k-ary for odd k, digits in [-(k-1)/2, (k-1)/2];
* offset k-ary for even k, digits in [-k/2 + 1, k/2].

The l1-weight of a representation equals the number of tree vertices that a
prefix-sum mechanism combines for that time step, which is why these
encodings drive both the mechanisms and the error analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class DigitSystem(Enum):
    PLAIN = "plain"
    OFFSET_ODD = "offset-odd"
    OFFSET_EVEN = "offset-even"


def digit_bounds(system: DigitSystem, k: int) -> tuple[int, int]:
    """Inclusive (low, high) digit range for a system with base k."""
    if system is DigitSystem.PLAIN:
        if k < 2:
            raise ValueError(f"plain system needs k >= 2, got {k}")
        return 0, k - 1
    if system is DigitSystem.OFFSET_ODD:
        if k < 3 or k % 2 == 0:
            raise ValueError(f"offset-odd system needs odd k >= 3, got {k}")
        return -(k - 1) // 2, (k - 1) // 2
    if system is DigitSystem.OFFSET_EVEN:
        if k < 4 or k % 2 == 1:
            raise ValueError(f"offset-even system needs even k >= 4, got {k}")
        return -(k // 2) + 1, k // 2
    raise ValueError(f"unknown digit system {system!r}")


def max_value(system: DigitSystem, k: int, w: int) -> int:
    """Largest integer representable with w digits in the given system."""
    lo, hi = digit_bounds(system, k)
    if w < 1:
        raise ValueError(f"width must be >= 1, got {w}")
    if system is DigitSystem.PLAIN:
        return k**w - 1
    if system is DigitSystem.OFFSET_ODD:
        return (k**w - 1) // 2
    # all digits at k/2: (k/2) * (k^w - 1) / (k - 1)
    return (k // 2) * ((k**w - 1) // (k - 1))


@dataclass(frozen=True)
class DigitVector:
    """Positional representation of an integer, least-significant first."""

    digits: tuple[int, ...]
    base: int
    system: DigitSystem

    def __post_init__(self) -> None:
        lo, hi = digit_bounds(self.system, self.base)
        for d in self.digits:
            if not lo <= d <= hi:
                raise ValueError(
                    f"digit {d} outside [{lo}, {hi}] for {self.system.value} base {self.base}"
                )

    @property
    def width(self) -> int:
        return len(self.digits)


def encode(t: int, k: int, w: int, system: DigitSystem) -> DigitVector:
    """Unique width-w representation of t in the given system.

    Repeated Euclidean division; remainders above the system's high digit
    are pulled down by k with a carry into the next position.
    """
    lo, hi = digit_bounds(system, k)
    if t < 0 or t > max_value(system, k, w):
        raise ValueError(
            f"t={t} out of range [0, {max_value(system, k, w)}] for "
            f"{system.value} k={k} w={w}"
        )
    rem = t
    digits = []
    for _ in range(w):
        d = rem % k
        if d > hi:
            d -= k
        rem = (rem - d) // k
        digits.append(d)
    assert rem == 0
    return DigitVector(tuple(digits), k, system)


def decode(v: DigitVector) -> int:
    """Integer value sum_i k^(i-1) * digits_i."""
    value = 0
    for d in reversed(v.digits):
        value = value * v.base + d
    return value


def weight(v: DigitVector) -> int:
    """l1 norm of the digit vector."""
    return sum(abs(d) for d in v.digits)
