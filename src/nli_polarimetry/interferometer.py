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
from functools import reduce

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
    _require_finite,
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
        # the fields; a copy or an unpickled configuration composes its own
        # phase-free paths (``_phase_free_terms``) and reduces its own beating
        # parameters (``signals.beating_parameters``), so what it keeps is its
        # own and the kept arrays read-only
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    @property
    def has_equal_gains(self) -> bool:
        g1 = self.crystal1.mean_photons
        g2 = self.crystal2.mean_photons
        return abs(g1 - g2) <= 1e-12 * max(1.0, g1, g2)

    def effective_waveplates(self) -> tuple[complex, complex, complex, complex]:
        """(tau1, rho1, tau2, rho2) with the sample rotation folded in."""
        return rotated_waveplate_coeffs(self.waveplate1, self.waveplate2, self.rotation)


# The creation rows each phase-free term reaches, in term order: the vacua
# reach the sample's loss ports, the signal path the idler, and the two
# sample-axis paths the idler and its orthogonal polarization; the signal and
# the tap enter as annihilators only.  This is the chain's structure, not a
# test of values: at zero first-crystal gain the signal path's amplitude is
# 0, yet its phase still sets the photon number's batch shape and a NaN in
# it still refuses.
_CREATION_ROWS = (
    (Mode.SAMPLE_PERP, Mode.SAMPLE_PAR),
    (Mode.IDLER,),
    (Mode.IDLER, Mode.IDLER_POL),
    (Mode.IDLER, Mode.IDLER_POL),
)


class _PhaseFree(tuple):
    """The (coefficient, amplitude array) terms of ``_phase_free_terms``,
    and as ``plan`` the photon number's plan of their creation rows: per row
    that a term reaches, in ascending row order, the (term index, 0-d
    amplitude array) pairs of the terms that reach it, or the row's squared
    modulus when only the vacua (coefficient 1) reach it and that square is
    finite (one that overflowed is summed on each call instead, so it raises
    there as the dense sum did).  Rows no term reaches hold zeros, which add
    nothing."""

    def __init__(self, terms):
        plan = []
        for m in sorted(set().union(*_CREATION_ROWS)):
            reach = tuple((k, a[1, m, ...]) for k, ((_, a), rows) in
                          enumerate(zip(terms, _CREATION_ROWS)) if m in rows)
            if [k for k, _ in reach] == [0]:
                # in array loops, as the scan's own rows: numpy's scalar
                # arithmetic and Python's round some of these differently
                with np.errstate(over="ignore", under="ignore"):
                    square = np.square(np.abs(reach[0][1]))
                if np.isfinite(square):
                    reach = square
            plan.append(reach)
        self.plan = tuple(plan)


def _phase_free_terms(cfg: InterferometerConfig) -> _PhaseFree:
    """``detected_mode``'s last combination with the scan phases left out:
    (coefficient, stacked amplitude array) pairs of the vacua (coefficient
    1), the signal path and the two sample-axis paths, each coefficient the
    phase-free factor that a scan phase multiplies.  Beside them, as
    ``plan``, ``photon_number_exact``'s plan of the creation rows
    (``_PhaseFree``): the rows no term reaches (the signal's and the tap's)
    are left out, and the loss ports' rows, which only the phase-free vacua
    reach, keep their squared modulus, so only the idler's two rows are
    summed at the scan's batch shape.

    Composed once per configuration object and kept on it, read-only, when
    every value is finite; a composition that overflowed is recomposed on
    each call, so it raises or warns as the first call did.  The memo is per
    instance, not keyed by value: equal configurations can differ in a
    zero's sign, which moves a phase by 2*pi (``cmath.phase(-1-0j)`` is -pi,
    ``cmath.phase(-1+0j)`` is +pi).
    """
    kept = cfg.__dict__.get("_phase_free")
    if kept is not None:
        return kept
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
    terms = ((1.0, vacua),
             (u2 * complex(cfg.signal.transmission), gen_sig),
             (v2 * np.conj(tau2 * sample.t_perp), comp_perp_dag),
             (v2 * np.conj(rho2 * sample.t_par), comp_par_dag))
    for _, a in terms:
        a.flags.writeable = False
    terms = _PhaseFree(terms)
    # an overflow leaves an inf or a NaN in what it fed, so a finite
    # composition raised no overflow under any np.errstate
    if all(cmath.isfinite(c) and np.isfinite(a).all() for c, a in terms):
        object.__setattr__(cfg, "_phase_free", terms)
    return terms


def _scan_coefficients(
    terms: _PhaseFree,
    signal_phase: float | np.ndarray,
    diff_phase: float | np.ndarray,
) -> list[complex | np.ndarray]:
    """The coefficients of ``detected_mode``'s last combination: those of
    ``_phase_free_terms`` with the scan phases on."""
    # np.multiply rounds a scalar phase as an array element, so scalar and
    # array phases give the same bits (complex * numpy scalar would not)
    half_diff = np.exp(0.5j * np.asarray(diff_phase))
    phases = (1.0, np.exp(1j * np.asarray(signal_phase)), np.conj(half_diff), half_diff)
    return [np.multiply(c, phase) for (c, _), phase in zip(terms, phases)]


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
    one pass.  The phase-free paths are composed once per configuration
    object, unbatched, as raw amplitude arrays, and kept on it; the scan
    phases enter only the coefficients of the last combination, and only its
    result becomes an ``OperatorExpansion``.
    """
    # the unbatched vacua go first, so one fewer sum runs at the batch
    # shape; one finiteness check, on the result, is enough: c*inf, 0*inf
    # and inf-inf are all non-finite, so a non-finite intermediate reaches it
    terms = _phase_free_terms(cfg)
    coeffs = _scan_coefficients(terms, signal_phase, diff_phase)
    return OperatorExpansion(*_weighted_sum([(c, a) for c, (_, a) in zip(coeffs, terms)]))


def photon_number_exact(
    cfg: InterferometerConfig,
    signal_phase: float | np.ndarray = 0.0,
    diff_phase: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Detected photon number, exact at any gain, with the scan phases of
    ``detected_mode``: the bits of ``vacuum_photon_number(detected_mode(...))``.
    A photon number, or any amplitude composed on the way to it, that
    overflows a double raises ``OverflowError``; an underflow, to a subnormal
    or to zero, is no error, whatever the caller's ``np.errstate``.

    Only the creation rows that a term reaches are summed (the plan of
    ``_phase_free_terms``): each row from the terms that reach it, in term
    order, the loss ports' rows from their kept squares, and the rows'
    squared moduli in ascending row order.  A left-out term or row adds
    exact zeros, so these are the dense combination's bits.  Every product,
    sum, modulus and square runs in numpy's array loops, 0-d amplitudes
    included: numpy's scalar arithmetic and Python's round some complex
    products and moduli differently.
    """
    try:
        with np.errstate(over="raise", under="ignore"):
            terms = _phase_free_terms(cfg)
            coeffs = _scan_coefficients(terms, signal_phase, diff_phase)
            # a row's (term index, amplitude) pairs are summed at the batch
            # shape, a kept square stands for its row; every sum is checked
            # before any is squared, as in the dense combination
            sums = [reduce(np.add, [np.multiply(coeffs[k], a) for k, a in entry])
                    if isinstance(entry, tuple) else None for entry in terms.plan]
            for row in sums:
                if row is not None:
                    _require_finite(row)
            squares = [entry if row is None else np.square(np.abs(row))
                       for entry, row in zip(terms.plan, sums)]
            return _per_expansion(reduce(np.add, squares))
    except FloatingPointError:
        raise OverflowError("detected photon number overflows at this gain") from None


def three_path_decomposition(cfg: InterferometerConfig) -> tuple[complex, complex, complex]:
    """Additive contributions to the interfering amplitude (the paper's
    three-path formula).

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

