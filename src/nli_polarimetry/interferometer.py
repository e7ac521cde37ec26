"""Exact composition of the full interferometer chain.

The detected signal mode is built by operator substitution through the chain
first crystal -> control beam splitter / first waveplate -> sample axes ->
second waveplate -> second crystal, valid at any parametric gain, for blocked
or open signal arm, and for arbitrary sample rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .elements import (
    CrystalGain,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    WaveplateSetting,
    rotated_waveplate_coeffs,
)
from .mode_algebra import (
    Mode,
    OperatorExpansion,
    adjoint,
    linear_combine,
    pure_mode,
    vacuum_photon_number,
)

__all__ = [
    "InterferometerConfig",
    "detected_mode",
    "photon_number_exact",
    "three_path_decomposition",
]


@dataclass(frozen=True)
class InterferometerConfig:
    """Complete parameter set of one interferometer configuration.

    ``rotation`` is the angle of the sample's axes against the idler
    polarization (0 for an aligned sample).
    """

    crystal1: CrystalGain
    crystal2: CrystalGain
    signal: SignalControl
    waveplate1: WaveplateSetting | WaveplateCoeffs
    waveplate2: WaveplateSetting | WaveplateCoeffs
    sample: SampleAxes
    rotation: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")

    @property
    def has_equal_gains(self) -> bool:
        g1 = self.crystal1.mean_photons
        g2 = self.crystal2.mean_photons
        return abs(g1 - g2) <= 1e-12 * max(1.0, g1, g2)

    def effective_waveplates(self) -> tuple[complex, complex, complex, complex]:
        """(tau1, rho1, tau2, rho2) with the sample rotation folded in."""
        return rotated_waveplate_coeffs(self.waveplate1, self.waveplate2, self.rotation)


def detected_mode(
    cfg: InterferometerConfig,
    signal_phase: float | np.ndarray = 0.0,
    diff_phase: float | np.ndarray = 0.0,
) -> OperatorExpansion:
    """Detected signal mode as an operator expansion over the vacuum inputs.

    The scan phases are imprinted as in ``with_scan_phases``.  Array phases
    broadcast against each other and give an expansion whose batch axes
    follow them, so a whole scan is composed in one pass.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    ts = complex(cfg.signal.transmission) * np.exp(1j * np.asarray(signal_phase))
    rs = cfg.signal.reflection
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()
    half_diff = np.exp(0.5j * np.asarray(diff_phase))
    t_perp = cfg.sample.t_perp * half_diff
    t_par = cfg.sample.t_par * np.conj(half_diff)
    r_perp, r_par = cfg.sample.r_perp, cfg.sample.r_par

    a_sig = pure_mode(Mode.SIGNAL)
    a_idl = pure_mode(Mode.IDLER)

    # first crystal
    gen_sig = linear_combine([(u1, a_sig), (v1, adjoint(a_idl))])
    gen_idl = linear_combine([(u1, a_idl), (v1, adjoint(a_sig))])

    # signal arm: control beam splitter
    ctrl_sig = linear_combine([(ts, gen_sig), (rs, pure_mode(Mode.SIGNAL_TAP))])

    # idler arm: first waveplate splits into the two sample axes
    pol_vac = pure_mode(Mode.IDLER_POL)
    comp_perp = linear_combine([(tau1, gen_idl), (rho1, pol_vac)])
    comp_par = linear_combine([(-np.conj(rho1), gen_idl), (np.conj(tau1), pol_vac)])

    # sample axes act as independent lossy beam splitters
    out_perp = linear_combine([(t_perp, comp_perp), (r_perp, pure_mode(Mode.SAMPLE_PERP))])
    out_par = linear_combine([(t_par, comp_par), (r_par, pure_mode(Mode.SAMPLE_PAR))])

    # second waveplate recombines onto the original idler polarization
    seed_idl = linear_combine([(tau2, out_perp), (rho2, out_par)])

    # second crystal mixes the seeded signal and idler
    return linear_combine([(u2, ctrl_sig), (v2, adjoint(seed_idl))])


def photon_number_exact(cfg: InterferometerConfig) -> float:
    """Detected photon number, exact at any gain."""
    return vacuum_photon_number(detected_mode(cfg))


def three_path_decomposition(cfg: InterferometerConfig) -> tuple[complex, complex, complex]:
    """Additive contributions to the interfering amplitude.

    The photon-carrying idler amplitude is a superposition of three paths:
    the signal photon seeding the second crystal directly, and the idler
    probing the perpendicular or the parallel sample axis.  Their sum equals
    ``detected_mode(cfg).cre[Mode.IDLER]``.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    ts = complex(cfg.signal.transmission)
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()

    signal_path = u2 * ts * v1
    perp_path = v2 * np.conj(tau2 * cfg.sample.t_perp * tau1) * u1
    par_path = -v2 * np.conj(rho2 * cfg.sample.t_par) * rho1 * u1
    return complex(signal_path), complex(perp_path), complex(par_path)


def with_scan_phases(
    cfg: InterferometerConfig, signal_phase: float, diff_phase: float
) -> InterferometerConfig:
    """Imprint scan phases: ``signal_phase`` on the control beam splitter and
    an antisymmetric ``diff_phase`` between the sample's axes (mean idler
    phase unchanged)."""
    new_signal = SignalControl(cfg.signal.transmission * cmath.exp(1j * signal_phase))
    new_sample = SampleAxes(
        t_perp=cfg.sample.t_perp * cmath.exp(0.5j * diff_phase),
        t_par=cfg.sample.t_par * cmath.exp(-0.5j * diff_phase),
    )
    return replace(cfg, signal=new_signal, sample=new_sample)
