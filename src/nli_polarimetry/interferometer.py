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
    _adjoint,
    _per_expansion,
    _weighted_sum,
    pure_mode,
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
    waveplate1: WaveplateCoeffs
    waveplate2: WaveplateCoeffs
    sample: SampleAxes
    rotation: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rotation):
            raise ValueError("rotation must be finite")

    def __getstate__(self):
        # the fields; a copy or an unpickled configuration reduces its own
        # photon-number fringes (``_fringes``) and beating parameters
        # (``signals.beating_parameters``), so what it keeps is its own
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

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

    ``signal_phase`` multiplies the control beam splitter's transmission by
    ``exp(i signal_phase)``; ``diff_phase`` is imprinted antisymmetrically
    between the sample's axes, ``t_perp`` times ``exp(+i diff_phase/2)`` and
    ``t_par`` times ``exp(-i diff_phase/2)``, leaving the mean idler phase
    unchanged.  Array phases broadcast against each other and give an
    expansion whose batch axes follow them, so a whole scan is composed in
    one pass.  The phase-free paths are composed unbatched, as raw amplitude
    arrays; the scan phases enter only the coefficients of the last
    combination, and only its result becomes an ``OperatorExpansion``.
    Every call composes afresh and keeps nothing on the configuration.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()
    sample = cfg.sample
    a_sig = pure_mode(Mode.SIGNAL)._amps
    a_idl_dag, pol_dag, perp_dag, par_dag = (
        _adjoint(pure_mode(m)._amps)
        for m in (Mode.IDLER, Mode.IDLER_POL, Mode.SAMPLE_PERP, Mode.SAMPLE_PAR)
    )

    # first crystal; the first waveplate splits the idler onto the sample
    # axes, composed as adjoints, which is how they seed the second crystal
    gen_sig = _weighted_sum([(u1, a_sig), (v1, a_idl_dag)])
    gen_idl_dag = _weighted_sum([(u1, a_idl_dag), (np.conj(v1), a_sig)])
    comp_perp_dag = _weighted_sum([(np.conj(tau1), gen_idl_dag), (np.conj(rho1), pol_dag)])
    comp_par_dag = _weighted_sum([(-rho1, gen_idl_dag), (tau1, pol_dag)])

    # vacua of the control beam splitter's open port and the sample's loss ports
    vacua = _weighted_sum([
        (u2 * cfg.signal.reflection, pure_mode(Mode.SIGNAL_TAP)._amps),
        (v2 * np.conj(tau2 * sample.r_perp), perp_dag),
        (v2 * np.conj(rho2 * sample.r_par), par_dag),
    ])
    # the unbatched vacua go first, so one fewer sum runs at the batch
    # shape; one finiteness check, on the result, is enough: c*inf, 0*inf
    # and inf-inf are all non-finite, so a non-finite intermediate reaches it
    half_diff = np.exp(0.5j * np.asarray(diff_phase))
    signal = np.exp(1j * np.asarray(signal_phase))
    return OperatorExpansion(*_weighted_sum([
        (1.0, vacua),
        (u2 * complex(cfg.signal.transmission) * signal, gen_sig),
        (v2 * np.conj(tau2 * sample.t_perp) * np.conj(half_diff), comp_perp_dag),
        (v2 * np.conj(rho2 * sample.t_par) * half_diff, comp_par_dag),
    ]))


def _square(z: complex) -> float:
    """|z|**2, inf (not an error) where it overflows."""
    return z.real * z.real + z.imag * z.imag


def _fringe(z: complex) -> tuple[float, float]:
    """(2|z|, arg z): the amplitude and phase of the fringe 2 Re(z e^{ix})."""
    return 2.0 * math.hypot(z.real, z.imag), cmath.phase(z)


def _fringes(cfg: InterferometerConfig) -> tuple[float, ...]:
    """The photon number's real form ``(c0, m1, a1, m2, a2, m3, a3)``:

        n = c0 + m1 cos(s + d/2 + a1) + m2 cos(s - d/2 + a2) + m3 cos(a3 - d)

    at signal phase ``s`` and differential phase ``d``.  The detected
    creation amplitude has two rows that the scan phases reach, the idler's
    ``S e^{is} + P e^{-id/2} + Q e^{id/2}`` (the paper's three paths,
    ``three_path_decomposition``) and its orthogonal polarization's
    ``P' e^{-id/2} + Q' e^{id/2}``, and the sample's loss ports add the
    constant ``L``:

        P' = v2 conj(tau2 t_perp) conj(rho1),  Q' = v2 conj(rho2 t_par) tau1,
        L  = |v2|^2 (|tau2|^2 r_perp^2 + |rho2|^2 r_par^2),

    so ``c0`` is the sum of the five squared moduli and ``L``, and the
    fringes are ``2 S conj(P)``, ``2 S conj(Q)`` and
    ``2 (P conj(Q) + P' conj(Q'))``.

    Reduced once per configuration object and kept on it.  A reduction that
    overflows leaves ``c0`` infinite (every fringe is at most ``c0``), is
    kept too, and makes every photon number raise.  The memo is per
    instance, not keyed by value: equal configurations can differ in a
    zero's sign, which moves a phase by 2*pi (``cmath.phase(-1-0j)`` is
    -pi, ``cmath.phase(-1+0j)`` is +pi).
    """
    kept = cfg.__dict__.get("_fringes")
    if kept is not None:
        return kept
    # the paths' numpy-scalar products warn where they overflow; an
    # overflow shows as an infinite c0 instead
    with np.errstate(all="ignore"):
        s, p, q = three_path_decomposition(cfg)
        tau1, rho1, tau2, rho2 = (complex(c) for c in cfg.effective_waveplates())
    v2, sample = complex(cfg.crystal2.v), cfg.sample
    p_pol = v2 * (tau2 * complex(sample.t_perp)).conjugate() * rho1.conjugate()
    q_pol = v2 * (rho2 * complex(sample.t_par)).conjugate() * tau1
    loss = _square(v2) * (_square(tau2) * sample.r_perp * sample.r_perp
                          + _square(rho2) * sample.r_par * sample.r_par)
    c0 = _square(s) + _square(p) + _square(q) + _square(p_pol) + _square(q_pol) + loss
    fringes = (c0, *_fringe(s * p.conjugate()), *_fringe(s * q.conjugate()),
               *_fringe(p * q.conjugate() + p_pol * q_pol.conjugate()))
    object.__setattr__(cfg, "_fringes", fringes)
    return fringes


def photon_number_exact(
    cfg: InterferometerConfig,
    signal_phase: float | np.ndarray = 0.0,
    diff_phase: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Detected photon number, exact at any gain, with the scan phases of
    ``detected_mode``: ``vacuum_photon_number(detected_mode(...))`` to within
    rounding, evaluated as the real form of ``_fringes``, three cosines per
    step.  Rounding can take that sum a few ulps below zero on a dark
    fringe, so it is clipped at 0.0.  A photon number that overflows a
    double raises ``OverflowError``, a nonfinite phase ``ValueError`` (after
    what the caller's ``np.errstate`` makes of the cosine of an infinity:
    ``simulate_scan``'s turns it into ``OverflowError``); an underflow, to a
    subnormal or to zero, is no error, whatever the caller's
    ``np.errstate``.  Scalar and array phases give the same bits.
    """
    c0, m1, a1, m2, a2, m3, a3 = _fringes(cfg)
    try:
        if not math.isfinite(c0):
            raise FloatingPointError
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


def three_path_decomposition(cfg: InterferometerConfig) -> tuple[complex, complex, complex]:
    """Additive contributions to the interfering amplitude (the paper's
    three-path formula).

    The photon-carrying idler amplitude is a superposition of three paths:
    the signal photon seeding the second crystal directly, and the idler
    probing the perpendicular or the parallel sample axis.  Their sum equals
    ``detected_mode(cfg).cre[Mode.IDLER]``.  They are the first of the
    photon number's two phase-dependent rows (``_fringes``); the second is
    the idler's orthogonal polarization.
    """
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    ts = complex(cfg.signal.transmission)
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()

    signal_path = u2 * ts * v1
    perp_path = v2 * np.conj(tau2 * cfg.sample.t_perp * tau1) * u1
    par_path = -v2 * np.conj(rho2 * cfg.sample.t_par) * rho1 * u1
    return complex(signal_path), complex(perp_path), complex(par_path)

