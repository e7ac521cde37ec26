"""Exact algebra of bosonic mode operators over a fixed set of vacuum inputs.

Every optical element in the interferometer maps mode operators to linear
combinations of annihilation and creation operators of the six vacuum input
modes.  This module provides that linear-combination type together with the
handful of operations needed to compose elements and evaluate vacuum
expectation values of photon numbers.

Amplitude arrays may carry trailing batch axes, shape ``(N_MODES, *batch)``,
so that one composition evaluates a whole family of configurations (for
example every step of a phase scan) at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Mode(IntEnum):
    """The six vacuum input modes feeding the interferometer."""

    SIGNAL = 0        # signal input of the first crystal
    IDLER = 1         # idler input of the first crystal
    SIGNAL_TAP = 2    # open port of the signal-arm control beam splitter
    IDLER_POL = 3     # orthogonal idler polarization admitted at the first waveplate
    SAMPLE_PERP = 4   # loss port of the sample's perpendicular axis
    SAMPLE_PAR = 5    # loss port of the sample's parallel axis


N_MODES = len(Mode)


@dataclass(frozen=True)
class OperatorExpansion:
    """Linear combination of annihilation/creation operators of the input modes.

    ``ann[m]`` is the amplitude of the annihilation operator of mode ``m``,
    ``cre[m]`` the amplitude of its creation operator.  A canonical output
    mode satisfies sum|ann|^2 - sum|cre|^2 = 1.  Both arrays have shape
    ``(N_MODES, *batch)``; each batch index is an independent expansion.
    """

    ann: np.ndarray
    cre: np.ndarray

    def __post_init__(self):
        ann = np.asarray(self.ann, dtype=complex).copy()
        cre = np.asarray(self.cre, dtype=complex).copy()
        if ann.shape[:1] != (N_MODES,) or cre.shape != ann.shape:
            raise ValueError(f"amplitude arrays must have equal shape ({N_MODES}, *batch)")
        if not (np.isfinite(ann).all() and np.isfinite(cre).all()):
            raise ValueError("amplitudes must be finite")
        ann.flags.writeable = False
        cre.flags.writeable = False
        object.__setattr__(self, "ann", ann)
        object.__setattr__(self, "cre", cre)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.ann.shape[1:]


def pure_mode(mode: Mode) -> OperatorExpansion:
    """Annihilation operator of a single input mode."""
    ann = np.zeros(N_MODES, dtype=complex)
    ann[int(mode)] = 1.0
    return OperatorExpansion(ann, np.zeros(N_MODES, dtype=complex))


def adjoint(x: OperatorExpansion) -> OperatorExpansion:
    """Hermitian adjoint: swaps annihilation and creation parts and conjugates."""
    return OperatorExpansion(np.conj(x.cre), np.conj(x.ann))


def linear_combine(
    terms: list[tuple[complex | np.ndarray, OperatorExpansion]],
) -> OperatorExpansion:
    """Amplitude-wise weighted sum ``sum_k c_k * x_k``; needs at least one term.

    Coefficients may be arrays; they broadcast against the expansions' batch
    shapes, both aligned on their trailing axes.
    """
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    coeffs = [np.asarray(c) for c, _ in terms]
    ndim = max(*(c.ndim for c in coeffs), *(len(x.batch_shape) for _, x in terms))
    ann = cre = 0.0
    for coeff, (_, x) in zip(coeffs, terms):
        # unit axes after the mode axis align x's batch axes with the coefficients'
        lift = (N_MODES,) + (1,) * (ndim - len(x.batch_shape)) + x.batch_shape
        ann = ann + coeff * x.ann.reshape(lift)
        cre = cre + coeff * x.cre.reshape(lift)
    return OperatorExpansion(ann, cre)


def _per_expansion(total: np.ndarray) -> float | np.ndarray:
    """A float for an unbatched expansion, the batch-shaped array otherwise."""
    return float(total) if total.ndim == 0 else total


def vacuum_photon_number(x: OperatorExpansion) -> float | np.ndarray:
    """Vacuum expectation value <0| x^dagger x |0> = sum_m |cre[m]|^2."""
    return _per_expansion(np.sum(np.abs(x.cre) ** 2, axis=0))


def commutator_defect(x: OperatorExpansion) -> float | np.ndarray:
    """(sum|ann|^2 - sum|cre|^2) - 1; vanishes for any canonical output mode."""
    return _per_expansion(
        np.sum(np.abs(x.ann) ** 2, axis=0) - np.sum(np.abs(x.cre) ** 2, axis=0) - 1.0
    )
