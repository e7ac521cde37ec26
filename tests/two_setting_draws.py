"""The seeded samples that ``test_estimation.py`` checks the two-setting
routes on and ``tools/estimate_bits.sh`` compares across commits; numpy
only, so the tool can import it beside any commit's package."""

import collections
import math

import numpy as np

Draw = collections.namedtuple("Draw", "tbar dt phibar dphi psi v phibar_given kappa")


def two_setting_draws() -> list[Draw]:
    """500 samples from ``default_rng(20261018)``: a third pure retarders
    (dt = 0), a third pure diattenuators (dphi = 0), and retardances up to a
    full turn, which reach the general mode's c1 flip.  ``phibar_given`` is
    the general mode's mean phase, perturbed by N(0, 0.3) on about half the
    draws (so the mode refuses some records); ``v`` is the gain and
    ``kappa`` the Poisson records' count scale."""
    rng = np.random.default_rng(20261018)
    draws = []
    for _ in range(500):
        tbar = rng.uniform(0.02, 1.0)
        dt = rng.uniform(-1.0, 1.0) * min(2.0 * tbar, 2.0 - 2.0 * tbar)
        dphi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        structure = rng.integers(3)
        if structure == 1:
            dt = 0.0
        elif structure == 2:
            dphi = 0.0
        phibar = rng.uniform(-math.pi, math.pi)
        psi = rng.uniform(0.0, math.pi)
        v = rng.uniform(0.05, 1.0)
        phibar_given = phibar + (rng.normal(0.0, 0.3) if rng.uniform() < 0.5 else 0.0)
        kappa = 10.0 ** rng.uniform(0.5, 4.0)
        draws.append(Draw(tbar, dt, phibar, dphi, psi, v, phibar_given, kappa))
    return draws
