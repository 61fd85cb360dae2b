"""Digit systems for k-ary tree aggregation.

Three positional number systems are supported, all least-significant digit
first:

* plain k-ary, digits in [0, k-1];
* offset (balanced) k-ary for odd k, digits in [-(k-1)/2, (k-1)/2];
* offset k-ary for even k, digits in [-k/2 + 1, k/2].

The l1-weight of a representation equals the number of tree vertices that a
prefix-sum mechanism combines for that time step, which is why these
systems drive both the mechanisms and the error analysis.  This module
holds their digit ranges, the only place that tells the systems apart, and
their largest values; the mechanisms read the digits of a time
arithmetically (`Mechanism.feed` as a counter, `BlockNoise` from the
shifted time's plain base-k digits).
"""

from __future__ import annotations

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
    """Largest integer of w digits: every digit at its highest, hi (k^w - 1)/(k - 1)."""
    hi = digit_bounds(system, k)[1]
    if w < 1:
        raise ValueError(f"width must be >= 1, got {w}")
    return hi * (k**w - 1) // (k - 1)
