"""Closed-form signal models of the interferometer output.

``n_lowgain`` is the paper's first-order photon number; ``fourier_model``
and ``amplitude_relations`` are the stated models that the Fourier and
two-setting routes invert.  They are implemented independently of the
operator composer (``interferometer.detected_mode``), so agreement between
the two is a genuine cross-check.  The all-orders photon number is the
exact model ``photon_number_exact``, shared by the simulator and the figures.

``n_lowgain(p, signal_phase=0.0, diff_phase=0.0)`` takes the exact model's
scan phases, for the ``BeatingParameters`` ``p`` of one configuration.  They
are imprinted as in ``detected_mode``: the fringe phase is
``p.mean_total_phase + signal_phase`` and the half differential phase
``p.half_diff_phase + 0.5 * diff_phase``.  Array phases broadcast against
each other, so one call evaluates a whole scan.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .interferometer import InterferometerConfig
    from .scan import ScanSchedule

__all__ = [
    "BeatingParameters",
    "HarmonicDecomposition",
    "beating_parameters",
    "n_lowgain",
    "fourier_model",
    "amplitude_relations",
]


@dataclass(frozen=True)
class BeatingParameters:
    """Parameters of the two-fringe beating signal.

    Phases split into sample properties (``mean_sample_phase``,
    ``retardance``) and setup contributions: ``control_phase`` is the
    interferometer phase collecting the pump phase difference and the
    signal-arm control phase, while the ``*_setup_phase`` fields hold the
    waveplate-pair contributions.  A NaN or infinite field raises
    ``ValueError`` naming it.
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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
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

    Requires equal crystal gains (the closed forms assume them).  The sample
    enters only through the waveplate-sample-waveplate sandwich, with the
    rotation folded into the plates' coefficients (tau1, rho1), (tau2, rho2):

    ``mean_trans``         |tau2 t_perp tau1| + |rho2 t_par rho1|
    ``diff_trans``         2(|tau2 t_perp tau1| - |rho2 t_par rho1|)
    ``mean_sample_phase``  (phase_perp + phase_par)/2
    ``retardance``         phase_perp - phase_par
    ``diff_setup_phase``   arg(tau2 tau1) - arg(rho2 conj(rho1))
    ``setup_phase_offset`` (arg(tau2 tau1) + arg(rho2 conj(rho1)))/2

    A path whose waveplate product vanishes has its undefined phase set to 0;
    its amplitude multiplies every term the phase enters, so the closed forms
    stay continuous.  The interferometer phase uses the gauge with real
    positive squeezing coefficients, so it collects the pump phase difference
    and the control-splitter phase.

    Reduced once per configuration object and kept on it
    (``InterferometerConfig._beating``), as ``photon_number_exact`` keeps
    its fringes: the memo is per instance, a configuration that raises keeps
    nothing, a copy or a pickle may carry the frozen result (it depends only
    on the bits of the fields), and ``dataclasses.replace`` reduces afresh.
    """
    return cfg._beating


def n_lowgain(p: BeatingParameters, signal_phase=0.0, diff_phase=0.0):
    """Detected photon number to first order in the gain."""
    mean = p.mean_total_phase + signal_phase
    half = p.half_diff_phase + 0.5 * diff_phase
    return 0.5 * p.amplitude * (
        1.0
        + p.diff_visibility * np.cos(half) * np.cos(mean)
        - p.mean_visibility * np.sin(half) * np.sin(mean)
    )


@dataclass(frozen=True)
class HarmonicDecomposition:
    """Harmonic content of an equal-rate dual scan at the scan rate ``w``.

    Complex amplitudes use the cosine-phase convention
    ``counts ~ dc + Re[amp_half e^{i w t/2}] + Re[amp_threehalf e^{i 3w t/2}]``.
    ``residual_rms`` is the fit's residual; a predicted record has none.  A
    NaN or infinite field raises ``ValueError`` naming it.
    """

    dc: float
    amp_half: complex
    amp_threehalf: complex
    residual_rms: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")


def fourier_model(p: BeatingParameters, schedule: "ScanSchedule") -> HarmonicDecomposition:
    """Harmonic content of ``n_lowgain(p, signal_offset + w t, diff_offset + w t)``.

    The two scan rates must equal ``w``.  With the fringe phase ``m = p.mean_total_phase + signal_offset`` and the
    half differential phase ``h = p.half_diff_phase + diff_offset/2`` at step
    zero, the record is ``A/2 + Re[A/4 (Dv - Mv) e^{i(m - h)} e^{i w t/2}]
    + Re[A/4 (Dv + Mv) e^{i(m + h)} e^{i 3w t/2}]`` for the amplitude ``A``
    and the visibilities ``Mv`` (mean) and ``Dv`` (differential) of ``p``.
    """
    if abs(schedule.signal_rate - schedule.diff_rate) > 1e-12:
        raise ValueError("fourier_model requires equal signal and differential scan rates")
    mean = p.mean_total_phase + schedule.signal_offset
    half = p.half_diff_phase + 0.5 * schedule.diff_offset
    quarter = 0.25 * p.amplitude
    return HarmonicDecomposition(
        dc=0.5 * p.amplitude,
        amp_half=quarter * (p.diff_visibility - p.mean_visibility)
        * cmath.exp(1j * (mean - half)),
        amp_threehalf=quarter * (p.diff_visibility + p.mean_visibility)
        * cmath.exp(1j * (mean + half)),
    )


def amplitude_relations(mean_trans: float, diff_trans: float, retardance: float
                        ) -> tuple[float, float, float, float]:
    """Fringe amplitudes of the two analyzer settings for a rotated sample.

    Setting 1 (crossed quarter-wave pair) yields amplitudes (b1, c1), setting
    2 (aligned pair) yields (b2, c2):

        b1 = -(dt/2) sin(dphi/2)    c1 = tbar cos(dphi/2)
        b2 = -tbar sin(dphi/2)      c2 = (dt/2) cos(dphi/2)

    The estimators' model: with a lossless signal arm, a setting's low-gain
    record is ``2V(1 + b sin(x) + c cos(x))``, ``x = phibar + phi0`` for
    setting 1 and ``phibar + phi0 - 2 psi`` for setting 2.  At any gain it is
    ``photon_number_exact`` of the setting's configuration.
    """
    half = 0.5 * retardance
    b1 = -0.5 * diff_trans * math.sin(half)
    c1 = mean_trans * math.cos(half)
    b2 = -mean_trans * math.sin(half)
    c2 = 0.5 * diff_trans * math.cos(half)
    return b1, c1, b2, c2
