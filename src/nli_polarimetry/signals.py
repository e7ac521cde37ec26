"""Closed-form signal models of the interferometer output.

These formulas are implemented independently of the exact operator
composition so that agreement between the two is a genuine cross-check.
They also serve as the forward models of the estimation stage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .elements import sample_summary

if TYPE_CHECKING:
    from .interferometer import InterferometerConfig
    from .scan import ScanSchedule

__all__ = [
    "BeatingParameters",
    "FourierModel",
    "beating_parameters",
    "n_lowgain",
    "n_lowgain_timescan",
    "fourier_model",
    "n_highgain",
    "highgain_visibility",
    "n_blocked",
    "amplitude_relations",
    "n_rotated",
]


@dataclass(frozen=True)
class BeatingParameters:
    """Parameters of the two-fringe beating signal.

    Phases split into sample properties (``mean_sample_phase``,
    ``retardance``) and setup contributions: ``control_phase`` is the
    interferometer phase collecting the pump phase difference and the
    signal-arm control phase, while the ``*_setup_phase`` fields hold the
    waveplate-pair contributions.
    """

    mean_photons: float
    signal_mag: float
    control_phase: float
    mean_trans: float
    diff_trans: float
    mean_sample_phase: float
    retardance: float
    setup_phase_offset: float
    diff_setup_phase: float

    def __post_init__(self):
        if self.mean_photons < 0.0:
            raise ValueError("mean_photons must be >= 0")
        if not 0.0 <= self.signal_mag <= 1.0 + 1e-12:
            raise ValueError("signal_mag must lie in [0, 1]")

    @property
    def amplitude(self) -> float:
        """Beating amplitude 2V(|t_s|^2 + 1)."""
        return 2.0 * self.mean_photons * (self.signal_mag**2 + 1.0)

    @property
    def mean_visibility(self) -> float:
        return 2.0 * self.signal_mag * self.mean_trans / (self.signal_mag**2 + 1.0)

    @property
    def diff_visibility(self) -> float:
        return self.signal_mag * self.diff_trans / (self.signal_mag**2 + 1.0)

    @property
    def mean_total_phase(self) -> float:
        """Mean fringe phase: sample mean phase plus all setup contributions."""
        return self.mean_sample_phase + self.control_phase + self.setup_phase_offset

    @property
    def half_diff_phase(self) -> float:
        """Half the total differential phase (sample retardance + setup)."""
        return 0.5 * (self.retardance + self.diff_setup_phase)


def beating_parameters(cfg: "InterferometerConfig") -> BeatingParameters:
    """Reduce an interferometer configuration to beating parameters.

    Requires equal crystal gains (the closed forms assume them).  The
    interferometer phase uses the gauge with real positive squeezing
    coefficients, so it collects the pump phase difference and the
    control-splitter phase.
    """
    if not cfg.has_equal_gains:
        raise ValueError("closed-form signals require equal crystal gains")
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()
    summ = sample_summary(cfg.sample, (tau1, rho1), (tau2, rho2))
    ts = complex(cfg.signal.transmission)
    if abs(ts) > 0.0:
        control_phase = cfg.crystal1.pump_phase - cfg.crystal2.pump_phase + cmath.phase(ts)
    else:
        control_phase = 0.0
    return BeatingParameters(
        mean_photons=cfg.crystal1.mean_photons,
        signal_mag=abs(ts),
        control_phase=control_phase,
        mean_trans=summ.mean_trans,
        diff_trans=summ.diff_trans,
        mean_sample_phase=summ.mean_sample_phase,
        retardance=summ.retardance,
        setup_phase_offset=summ.setup_phase_offset,
        diff_setup_phase=summ.diff_setup_phase,
    )


def beating_intensity(amplitude, diff_vis, mean_vis, half_diff_phase, mean_phase):
    """Low-gain beating signal; broadcasts over array-valued phases."""
    return 0.5 * amplitude * (
        1.0
        + diff_vis * np.cos(half_diff_phase) * np.cos(mean_phase)
        - mean_vis * np.sin(half_diff_phase) * np.sin(mean_phase)
    )


def n_lowgain(p: BeatingParameters) -> float:
    """Detected photon number to first order in the gain."""
    return float(
        beating_intensity(
            p.amplitude,
            p.diff_visibility,
            p.mean_visibility,
            p.half_diff_phase,
            p.mean_total_phase,
        )
    )


def n_lowgain_timescan(t, schedule: "ScanSchedule", p: BeatingParameters):
    """Low-gain signal under dual phase scans, evaluated at step ``t``.

    This is ``beating_intensity`` in the calibration-pair convention: both
    analyzer quarter-wave plates are assumed set to the calibration pair,
    whose fixed setup phases swap the roles of the two visibilities (the
    mean visibility multiplies the cosine product, the differential one the
    sine product).  The scans add ``signal_offset + signal_rate*t`` to the
    mean phase and ``diff_offset + diff_rate*t`` to the differential phase.
    """
    t = np.asarray(t, dtype=float)
    mean = p.mean_sample_phase + schedule.signal_offset + schedule.signal_rate * t
    half_diff = 0.5 * (p.retardance + schedule.diff_offset + schedule.diff_rate * t)
    return beating_intensity(p.amplitude, p.mean_visibility, p.diff_visibility,
                             half_diff, mean)


@dataclass(frozen=True)
class FourierModel:
    """Spectral content of an equal-rate dual scan.

    The beating signal concentrates at the scan frequency halves: a dc level
    ``amplitude/2``, one component at half the scan rate whose magnitude is
    proportional to the parallel-axis transmission, and one at three halves
    proportional to the perpendicular-axis transmission.  Complex amplitudes
    follow the cosine-phase convention ``Re[amp * exp(i Omega t)]``.
    """

    dc: float
    amp_half: complex
    amp_threehalf: complex
    epsilon_plus: complex
    kappa_plus: complex


def fourier_model(p: BeatingParameters, schedule: "ScanSchedule") -> FourierModel:
    """Predicted harmonic content of the scan signal; rates must be equal."""
    if abs(schedule.signal_rate - schedule.diff_rate) > 1e-12:
        raise ValueError("fourier_model requires equal signal and differential scan rates")
    mean0 = p.mean_sample_phase + schedule.signal_offset
    half0 = 0.5 * (p.retardance + schedule.diff_offset)
    epsilon_plus = cmath.exp(1j * (mean0 - half0))
    kappa_plus = cmath.exp(1j * (mean0 + half0))
    quarter = 0.25 * p.amplitude
    return FourierModel(
        dc=0.5 * p.amplitude,
        amp_half=quarter * (p.mean_visibility - p.diff_visibility) * epsilon_plus,
        amp_threehalf=quarter * (p.mean_visibility + p.diff_visibility) * kappa_plus,
        epsilon_plus=epsilon_plus,
        kappa_plus=kappa_plus,
    )


def highgain_intensity(mean_photons, signal_mag, mean_trans, diff_trans,
                       half_diff_phase, mean_phase):
    """Exact (all orders in gain) signal for equal pumping; broadcasts."""
    v = mean_photons
    low = beating_intensity(
        2.0 * v * (signal_mag**2 + 1.0),
        signal_mag * diff_trans / (signal_mag**2 + 1.0),
        2.0 * signal_mag * mean_trans / (signal_mag**2 + 1.0),
        half_diff_phase,
        mean_phase,
    )
    cross_pol = _cross_pol(mean_trans, diff_trans, half_diff_phase)
    return low * (1.0 + v) - v**2 + v**2 * cross_pol


def _cross_pol(mean_trans, diff_trans, half_diff_phase):
    """Gain-squared interference of the idler's two polarization paths; broadcasts."""
    return (0.25 * diff_trans**2 * np.cos(half_diff_phase) ** 2
            + mean_trans**2 * np.sin(half_diff_phase) ** 2)


def n_highgain(p: BeatingParameters) -> float:
    """Detected photon number including all gain-squared contributions."""
    return float(
        highgain_intensity(
            p.mean_photons,
            p.signal_mag,
            p.mean_trans,
            p.diff_trans,
            p.half_diff_phase,
            p.mean_total_phase,
        )
    )


def highgain_visibility(p: BeatingParameters) -> float:
    """Fringe visibility of a mean-phase scan at fixed differential phase pi.

    Reduces to the low-gain mean visibility at zero gain and never drops
    below it.
    """
    v = p.mean_photons
    s = p.signal_mag
    return 2.0 * s * (1.0 + v) * p.mean_trans / (
        1.0 + s**2 * (1.0 + v) + p.mean_trans**2 * v
    )


def blocked_intensity(mean_photons, mean_trans, diff_trans, half_diff_phase):
    """Signal with the signal arm blocked; broadcasts over array-valued phases.

    Only the idler's two polarization paths interfere; the fringe amplitude
    scales with the square of the gain.
    """
    v = mean_photons
    return v + v**2 * _cross_pol(mean_trans, diff_trans, half_diff_phase)


def n_blocked(p: BeatingParameters) -> float:
    """Detected photon number with the signal arm blocked."""
    return float(
        blocked_intensity(p.mean_photons, p.mean_trans, p.diff_trans, p.half_diff_phase)
    )


def amplitude_relations(mean_trans: float, diff_trans: float, retardance: float
                        ) -> tuple[float, float, float, float]:
    """Fringe amplitudes of the two analyzer settings for a rotated sample.

    Setting 1 (crossed quarter-wave pair) yields amplitudes (b1, c1), setting
    2 (aligned pair) yields (b2, c2):

        b1 = -(dt/2) sin(dphi/2)    c1 = tbar cos(dphi/2)
        b2 = -tbar sin(dphi/2)      c2 = (dt/2) cos(dphi/2)
    """
    half = 0.5 * retardance
    b1 = -0.5 * diff_trans * math.sin(half)
    c1 = mean_trans * math.cos(half)
    b2 = -mean_trans * math.sin(half)
    c2 = 0.5 * diff_trans * math.cos(half)
    return b1, c1, b2, c2


def n_rotated(setting: int, phi0, *, mean_photons: float, mean_trans: float,
              diff_trans: float, retardance: float, mean_sample_phase: float,
              rotation: float):
    """Low-gain signal of the two quarter-wave analyzer settings, lossless
    signal arm assumed.

    Setting 1 uses the crossed pair, which cancels the sample rotation
    exactly; setting 2 uses the aligned pair, where the rotation shifts the
    fringe phase by twice its value.  Broadcasts over ``phi0``.
    """
    b1, c1, b2, c2 = amplitude_relations(mean_trans, diff_trans, retardance)
    phi0 = np.asarray(phi0, dtype=float)
    if setting == 1:
        x = mean_sample_phase + phi0
        b, c = b1, c1
    elif setting == 2:
        x = mean_sample_phase + phi0 - 2.0 * rotation
        b, c = b2, c2
    else:
        raise ValueError("setting must be 1 or 2")
    return 2.0 * mean_photons * (1.0 + b * np.sin(x) + c * np.cos(x))
