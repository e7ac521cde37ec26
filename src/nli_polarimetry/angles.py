"""Angle wrapping helpers; all ranges are half-open at the lower end.

Each takes a float or a numpy array.  A Python float is wrapped in Python
float arithmetic, whose ``%`` is the remainder numpy's takes (``fmod``, then
the divisor's sign), so both give the same bits; an array is wrapped by numpy.
The remainder of a value just below a multiple of the divisor rounds up to
the divisor itself, so a wrap lands on the excluded end of its range; that
end is replaced by the included one, the same angle modulo the period.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return _include(math.pi - (math.pi - x) % TWO_PI, -math.pi, math.pi)


def wrap_half_pi(x):
    """Wrap modulo pi to (-pi/2, pi/2]; use for phases defined only mod pi."""
    return _include(0.5 * math.pi - (0.5 * math.pi - x) % math.pi, -0.5 * math.pi, 0.5 * math.pi)


def wrap_axis(x):
    """Wrap an axis orientation to [0, pi)."""
    return _include(x % math.pi, math.pi, 0.0)


def _include(wrapped, end: float, included: float):
    """``wrapped`` with each value equal to the excluded ``end`` replaced by
    ``included``; an array (a new one, from the wrap) is changed in place."""
    if isinstance(wrapped, np.ndarray):
        wrapped[wrapped == end] = included
        return wrapped
    return included if wrapped == end else wrapped
