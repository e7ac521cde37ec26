"""Exact algebra of bosonic mode operators over a fixed set of vacuum inputs.

Every optical element in the interferometer maps mode operators to linear
combinations of annihilation and creation operators of the six vacuum input
modes.  This module provides that linear-combination type together with the
handful of operations needed to compose elements and evaluate vacuum
expectation values of photon numbers.

Amplitude arrays may carry trailing batch axes, shape ``(N_MODES, *batch)``,
so that one composition evaluates a whole family of configurations (for
example every step of a phase scan) at once.  Each operation builds a new
``OperatorExpansion``, and so checks every amplitude it composed finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["Mode", "OperatorExpansion", "adjoint", "commutator_defect", "linear_combine",
           "pure_mode", "vacuum_photon_number"]


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
    They are read-only views of one private ``(2, N_MODES, *batch)`` array,
    a copy of what the caller passed, so no caller's array aliases them.
    """

    ann: np.ndarray
    cre: np.ndarray

    def __post_init__(self):
        ann, cre = np.asarray(self.ann), np.asarray(self.cre)
        if ann.shape[:1] != (N_MODES,) or cre.shape != ann.shape:
            raise ValueError(f"amplitude arrays must have equal shape ({N_MODES}, *batch)")
        amps = np.array((ann, cre), dtype=complex)
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "_amps", amps)
        object.__setattr__(self, "ann", amps[0])
        object.__setattr__(self, "cre", amps[1])

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.ann.shape[1:]


_PURE_MODES = tuple(OperatorExpansion(np.eye(N_MODES)[m], np.zeros(N_MODES)) for m in Mode)


def pure_mode(mode: Mode) -> OperatorExpansion:
    """Annihilation operator of a single input mode (one shared instance per mode)."""
    return _PURE_MODES[mode]


def adjoint(x: OperatorExpansion) -> OperatorExpansion:
    """Hermitian adjoint: swaps annihilation and creation parts and conjugates."""
    return OperatorExpansion(*np.conj(x._amps[::-1]))


def linear_combine(
    terms: list[tuple[complex | np.ndarray, OperatorExpansion]],
) -> OperatorExpansion:
    """Amplitude-wise weighted sum ``sum_k c_k * x_k``; needs at least one term.

    Coefficients may be arrays; they broadcast against the expansions' batch
    shapes, both aligned on their trailing axes.
    """
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    ndim = max(max(np.ndim(c), len(x.batch_shape)) for c, x in terms)
    parts = []
    for c, x in terms:
        # unit axes after the part and mode axes align x's batch with the coefficients'
        a = x._amps
        lift = a.shape[:2] + (1,) * (ndim + 2 - a.ndim) + a.shape[2:]
        parts.append(np.asarray(c) * a.reshape(lift))
    return OperatorExpansion(*sum(parts[1:], parts[0]))


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
