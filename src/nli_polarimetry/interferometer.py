"""Exact composition of the full interferometer chain.

The detected signal mode is built by operator substitution through the chain
first crystal -> control beam splitter / first waveplate -> sample axes ->
second waveplate -> second crystal, valid at any parametric gain, for blocked
or open signal arm, and for arbitrary sample rotation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elements import (
    CrystalGain,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    rotated_waveplate_coeffs,
)
from .mode_algebra import (
    Mode,
    OperatorExpansion,
    _per_expansion,
    adjoint,
    linear_combine,
    pure_mode,
)
from .signals import BeatingParameters

__all__ = [
    "InterferometerConfig",
    "detected_mode",
    "path_amplitudes",
    "photon_number_exact",
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
    waveplate1: WaveplateCoeffs
    waveplate2: WaveplateCoeffs
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

    @cached_property
    def _fringes(self) -> tuple[float, ...]:
        """The photon number's real form ``(c0, m1, a1, m2, a2, m3, a3)``,

            n = c0 + m1 cos(s + d/2 + a1) + m2 cos(s - d/2 + a2) + m3 cos(a3 - d)

        at signal phase ``s`` and differential phase ``d``: ``c0`` is ``L``
        plus the five squared moduli of ``path_amplitudes``, the fringes are
        ``2 S conj(P)``, ``2 S conj(Q)`` and ``2 (P conj(Q) + P' conj(Q'))``.
        A tuple of floats that depends only on the bits of the fields, so a
        copy or a pickle may carry it; an overflowing ``c0`` raises
        ``OverflowError`` and keeps nothing.  Kept per instance, not by
        value: equal configurations can differ in a zero's sign, which
        moves a phase by 2*pi (``cmath.phase(-1-0j)`` is -pi).
        """
        s, p, q, p_pol, q_pol, loss = path_amplitudes(self)
        c0 = _square(s) + _square(p) + _square(q) + _square(p_pol) + _square(q_pol) + loss
        if not math.isfinite(c0):
            raise OverflowError("detected photon number overflows at this gain")
        return (c0, *_fringe(s * p.conjugate()), *_fringe(s * q.conjugate()),
                *_fringe(p * q.conjugate() + p_pol * q_pol.conjugate()))

    @cached_property
    def _beating(self) -> BeatingParameters:
        """``signals.beating_parameters``, reduced on first use, then held."""
        if not self.has_equal_gains:
            raise ValueError("closed-form signals require equal crystal gains")
        tau1, rho1, tau2, rho2 = self.effective_waveplates()
        sample = self.sample
        perp_amp = abs(tau2) * abs(sample.t_perp) * abs(tau1)
        par_amp = abs(rho2) * abs(sample.t_par) * abs(rho1)
        tau_prod = tau2 * tau1
        rho_prod = rho2 * np.conj(rho1)
        phase_tau = 0.0 if tau_prod == 0.0 else cmath.phase(tau_prod)
        phase_rho = 0.0 if rho_prod == 0.0 else cmath.phase(rho_prod)
        ts = complex(self.signal.transmission)
        control_phase = 0.0
        if abs(ts) > 0.0:
            control_phase = (self.crystal1.pump_phase - self.crystal2.pump_phase
                             + cmath.phase(ts))
        return BeatingParameters(
            mean_photons=self.crystal1.mean_photons,
            signal_mag=abs(ts),
            control_phase=control_phase,
            mean_trans=perp_amp + par_amp,
            diff_trans=2.0 * (perp_amp - par_amp),
            mean_sample_phase=0.5 * (sample.phase_perp + sample.phase_par),
            retardance=sample.phase_perp - sample.phase_par,
            setup_phase_offset=0.5 * (phase_tau + phase_rho),
            diff_setup_phase=phase_tau - phase_rho,
        )


def detected_mode(
    cfg: InterferometerConfig,
    signal_phase: float | np.ndarray = 0.0,
    diff_phase: float | np.ndarray = 0.0,
) -> OperatorExpansion:
    """Detected signal mode as an operator expansion over the vacuum inputs,
    composed element by element in the order light meets the chain, each
    element a ``linear_combine`` of the modes before it.

    ``signal_phase`` multiplies the control beam splitter's transmission by
    ``exp(i signal_phase)``; ``diff_phase`` is imprinted antisymmetrically
    between the sample's axes, ``t_perp`` times ``exp(+i diff_phase/2)`` and
    ``t_par`` times ``exp(-i diff_phase/2)``, leaving the mean idler phase
    unchanged.  Array phases broadcast against each other and give an
    expansion whose batch axes follow them; each enters where it arises.
    Every combination checks its amplitudes finite (``ValueError``).
    Nothing is kept on the configuration.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()
    sample = cfg.sample
    ts = np.multiply(complex(cfg.signal.transmission), np.exp(1j * np.asarray(signal_phase)))
    half_diff = np.exp(0.5j * np.asarray(diff_phase))
    t_perp = np.multiply(sample.t_perp, half_diff)
    t_par = np.multiply(sample.t_par, np.conj(half_diff))

    # the six vacuum inputs, in ``Mode``'s order
    a_sig, a_idl, tap, pol, perp_loss, par_loss = map(pure_mode, Mode)
    # first crystal
    gen_sig = linear_combine([(u1, a_sig), (v1, adjoint(a_idl))])
    gen_idl = linear_combine([(u1, a_idl), (v1, adjoint(a_sig))])
    # the control beam splitter on the signal arm; the first waveplate splits
    # the idler and its orthogonal polarization onto the sample's axes
    ctrl_sig = linear_combine([(ts, gen_sig), (cfg.signal.reflection, tap)])
    comp_perp = linear_combine([(tau1, gen_idl), (rho1, pol)])
    comp_par = linear_combine([(-np.conj(rho1), gen_idl), (np.conj(tau1), pol)])
    # the sample's axes, each with its loss port
    out_perp = linear_combine([(t_perp, comp_perp), (sample.r_perp, perp_loss)])
    out_par = linear_combine([(t_par, comp_par), (sample.r_par, par_loss)])
    # the second waveplate back onto the idler polarization, then the second crystal
    seed_idl = linear_combine([(tau2, out_perp), (rho2, out_par)])
    return linear_combine([(u2, ctrl_sig), (v2, adjoint(seed_idl))])


def _square(z: complex) -> float:
    """|z|**2, inf (not an error) where it overflows."""
    return z.real * z.real + z.imag * z.imag


def _fringe(z: complex) -> tuple[float, float]:
    """(2|z|, arg z): the amplitude and phase of the fringe 2 Re(z e^{ix})."""
    return 2.0 * math.hypot(z.real, z.imag), cmath.phase(z)


def path_amplitudes(
    cfg: InterferometerConfig,
) -> tuple[complex, complex, complex, complex, complex, float]:
    """The photon number's five path amplitudes and loss constant
    ``(S, P, Q, P', Q', L)``, with (tau1, rho1, tau2, rho2) the
    ``effective_waveplates``:

        S  = u2 t_s v1,                     P  = v2 conj(tau2 t_perp tau1) u1,
        Q  = -v2 conj(rho2 t_par) rho1 u1,  P' = v2 conj(tau2 t_perp) conj(rho1),
        Q' = v2 conj(rho2 t_par) tau1,      L  = |v2|^2 (|tau2|^2 r_perp^2 + |rho2|^2 r_par^2).

    The detected creation amplitude's idler row is the paper's three paths,
    ``S e^{is} + P e^{-id/2} + Q e^{id/2}`` (the signal photon seeding the
    second crystal, the idler probing the perpendicular or the parallel
    axis), its orthogonal polarization's row ``P' e^{-id/2} + Q' e^{id/2}``,
    and the loss ports add ``L``.  Reduced in Python ``complex``
    arithmetic, which overflows to inf or NaN without a warning.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    sample = cfg.sample
    # numpy scalars become Python numbers of the same bits; S, P and Q keep a
    # real factor real, P' and Q' make it complex (its conjugate has a -0.0
    # imaginary part): the two rules differ in a zero's sign, so a phase of
    # +-pi, and the tests pin both
    tau1, rho1, tau2, rho2, t_perp, t_par = (
        z.item() if isinstance(z, np.generic) else z
        for z in (*cfg.effective_waveplates(), sample.t_perp, sample.t_par))
    return (
        u2 * complex(cfg.signal.transmission) * v1,
        v2 * (tau2 * t_perp * tau1).conjugate() * u1,
        -v2 * (rho2 * t_par).conjugate() * rho1 * u1,
        v2 * (complex(tau2) * complex(t_perp)).conjugate() * complex(rho1).conjugate(),
        v2 * (complex(rho2) * complex(t_par)).conjugate() * complex(tau1),
        _square(v2) * (_square(tau2) * sample.r_perp * sample.r_perp
                       + _square(rho2) * sample.r_par * sample.r_par),
    )


def photon_number_exact(
    cfg: InterferometerConfig,
    signal_phase: float | np.ndarray = 0.0,
    diff_phase: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Detected photon number, exact at any gain, with the scan phases of
    ``detected_mode``: ``vacuum_photon_number(detected_mode(...))`` to within
    rounding, evaluated as the real form ``cfg._fringes``, three cosines per
    step.  Rounding can take that sum a few ulps below zero on a dark
    fringe, so it is clipped at 0.0.  A photon number that overflows a
    double raises ``OverflowError``, a nonfinite phase ``ValueError`` (after
    what the caller's ``np.errstate`` makes of the cosine of an infinity);
    an underflow, to a subnormal or to zero, is no error, whatever the
    caller's ``np.errstate``.  Scalar and array phases give the same bits.
    """
    c0, m1, a1, m2, a2, m3, a3 = cfg._fringes
    try:
        with np.errstate(over="raise", under="ignore"):
            sigma, diff = np.asarray(signal_phase), np.asarray(diff_phase)
            half = 0.5 * diff
            n = (c0 + m1 * np.cos(sigma + half + a1) + m2 * np.cos(sigma - half + a2)
                 + m3 * np.cos(a3 - diff))
    except FloatingPointError:
        raise OverflowError("detected photon number overflows at this gain") from None
    # c0 and the fringes are finite, so only a nonfinite phase leaves a NaN
    if not np.isfinite(n).all():
        raise ValueError("scan phases must be finite")
    return _per_expansion(np.maximum(n, 0.0))
