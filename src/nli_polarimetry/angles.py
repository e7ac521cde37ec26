"""Angle wrapping helpers; all ranges are half-open at the lower end.

Each takes a float or a numpy array.  A Python float is wrapped in Python
float arithmetic, whose ``%`` is the remainder numpy's takes (``fmod``, then
the divisor's sign), so both give the same bits; an array is wrapped by numpy.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return math.pi - (math.pi - x) % TWO_PI


def wrap_half_pi(x):
    """Wrap modulo pi to (-pi/2, pi/2]; use for phases defined only mod pi."""
    return 0.5 * math.pi - (0.5 * math.pi - x) % math.pi


def wrap_axis(x):
    """Wrap an axis orientation to [0, pi)."""
    return x % math.pi
