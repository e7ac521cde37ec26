"""Angle wrapping helpers for floats; all ranges are half-open at the lower end.

Each wraps in Python float arithmetic, whose ``%`` is the remainder numpy's
takes (``fmod``, then the divisor's sign), so it gives numpy's bits.  The
remainder of a value just below a multiple of the divisor rounds up to the
divisor itself, so a wrap lands on the excluded end of its range; that end
is replaced by the included one, the same angle modulo the period.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi


def wrap_pi(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return _include(math.pi - (math.pi - x) % TWO_PI, -math.pi, math.pi)


def wrap_half_pi(x: float) -> float:
    """Wrap modulo pi to (-pi/2, pi/2]; use for phases defined only mod pi."""
    return _include(0.5 * math.pi - (0.5 * math.pi - x) % math.pi, -0.5 * math.pi, 0.5 * math.pi)


def wrap_axis(x: float) -> float:
    """Wrap an axis orientation to [0, pi)."""
    return _include(x % math.pi, math.pi, 0.0)


def _include(wrapped: float, end: float, included: float) -> float:
    """``wrapped``, or ``included`` when it equals the excluded ``end``."""
    return included if wrapped == end else wrapped
