"""Angle wrapping helpers; all ranges are half-open at the lower end."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_pi(x):
    """Wrap to (-pi, pi]."""
    return np.pi - (np.pi - np.asarray(x)) % TWO_PI


def wrap_half_pi(x):
    """Wrap modulo pi to (-pi/2, pi/2]; use for phases defined only mod pi."""
    return 0.5 * np.pi - (0.5 * np.pi - np.asarray(x)) % np.pi


def wrap_axis(x):
    """Wrap an axis orientation to [0, pi)."""
    return np.asarray(x) % np.pi
