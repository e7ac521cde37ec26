"""Coefficients of the individual optical elements.

Covers the two-mode-squeezing crystals, the signal-arm control beam splitter,
waveplates as SU(2) transformations, the lossy sample axes, and the combined
waveplate coefficients for a sample rotated against the idler polarization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CrystalGain", "SampleAxes", "SignalControl", "WaveplateCoeffs", "quarter_wave",
           "rotated_waveplate_coeffs", "waveplate"]


@dataclass(frozen=True)
class CrystalGain:
    """Two-mode squeezer strength.

    ``mean_photons`` is the mean photon number generated per mode; the pump
    phase is carried entirely by the down-conversion amplitude ``v`` while
    ``u`` stays real positive, so |u|^2 - |v|^2 = 1 holds exactly.
    """

    mean_photons: float
    pump_phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mean_photons) and self.mean_photons >= 0.0):
            raise ValueError("mean_photons must be finite and >= 0")
        if not math.isfinite(self.pump_phase):
            raise ValueError("pump_phase must be finite")

    @property
    def u(self) -> float:
        return math.sqrt(1.0 + self.mean_photons)

    @property
    def v(self) -> complex:
        return math.sqrt(self.mean_photons) * cmath.exp(1j * self.pump_phase)


@dataclass(frozen=True)
class WaveplateCoeffs:
    """A waveplate as its SU(2) coefficient pair (tau, rho); |tau|^2 + |rho|^2 must be 1.

    ``waveplate`` and ``quarter_wave`` build the pair of a plate from its
    fast-axis angle and retardance.
    """

    tau: complex
    rho: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.tau) and cmath.isfinite(self.rho)):
            raise ValueError("tau and rho must be finite")
        norm = abs(self.tau) ** 2 + abs(self.rho) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("coefficients must satisfy |tau|^2 + |rho|^2 = 1")


def waveplate(axis_angle: float, retardance: float) -> WaveplateCoeffs:
    """SU(2) pair of a plate with fast axis g = ``axis_angle`` and retardance th (radians):

    tau = cos^2(g) e^{-i th/2} + sin^2(g) e^{+i th/2},  rho = i sin(2g) sin(th/2).
    """
    if not (math.isfinite(axis_angle) and math.isfinite(retardance)):
        raise ValueError("waveplate angles must be finite")
    g = axis_angle
    th = retardance
    tau = math.cos(g) ** 2 * cmath.exp(-0.5j * th) + math.sin(g) ** 2 * cmath.exp(0.5j * th)
    rho = 1j * math.sin(2.0 * g) * math.sin(0.5 * th)
    return WaveplateCoeffs(tau, rho)


def quarter_wave(axis_angle: float) -> WaveplateCoeffs:
    return waveplate(axis_angle, math.pi / 2)


def rotated_waveplate_coeffs(
    plate1: WaveplateCoeffs, plate2: WaveplateCoeffs, rotation: float
) -> tuple[complex, complex, complex, complex]:
    """Waveplate coefficients with a sample rotation folded in.

    A sample rotated by ``rotation`` against the idler polarization is
    equivalent to an un-rotated sample with the first plate followed by the
    rotation and the second plate preceded by its inverse:

        tau1' = tau1 cos(psi) + conj(rho1) sin(psi)
        rho1' = -conj(tau1) sin(psi) + rho1 cos(psi)
        tau2' = tau2 cos(psi) - rho2 sin(psi)
        rho2' = tau2 sin(psi) + rho2 cos(psi)

    Each pair keeps |tau|^2 + |rho|^2 = 1.
    """
    t1, r1 = plate1.tau, plate1.rho
    t2, r2 = plate2.tau, plate2.rho
    c = math.cos(rotation)
    s = math.sin(rotation)
    t1r = t1 * c + np.conj(r1) * s
    r1r = -np.conj(t1) * s + r1 * c
    t2r = t2 * c - r2 * s
    r2r = t2 * s + r2 * c
    return t1r, r1r, t2r, r2r


@dataclass(frozen=True)
class SampleAxes:
    """Complex transmissions of the sample's two polarization axes.

    Loss is completed unitarily with real nonnegative reflection amplitudes
    r = sqrt(1 - |t|^2); only the transmission moduli and phases are
    observable, so this phase convention is free.
    """

    t_perp: complex
    t_par: complex

    def __post_init__(self):
        for name in ("t_perp", "t_par"):
            t = getattr(self, name)
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                raise ValueError(f"{name} must be finite")
            if abs(t) > 1.0 + 1e-12:
                raise ValueError(f"|{name}| must be <= 1")

    @property
    def r_perp(self) -> float:
        return math.sqrt(max(0.0, 1.0 - abs(self.t_perp) ** 2))

    @property
    def r_par(self) -> float:
        return math.sqrt(max(0.0, 1.0 - abs(self.t_par) ** 2))

    @property
    def phase_perp(self) -> float:
        return cmath.phase(self.t_perp)

    @property
    def phase_par(self) -> float:
        return cmath.phase(self.t_par)


@dataclass(frozen=True)
class SignalControl:
    """Signal-arm beam splitter; ``transmission`` carries the control phase."""

    transmission: complex

    def __post_init__(self):
        t = complex(self.transmission)
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise ValueError("transmission must be finite")
        if abs(t) > 1.0 + 1e-12:
            raise ValueError("|transmission| must be <= 1")

    @property
    def reflection(self) -> float:
        return math.sqrt(max(0.0, 1.0 - abs(self.transmission) ** 2))
