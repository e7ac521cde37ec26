import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nli_polarimetry import (
    Mode,
    OperatorExpansion,
    adjoint,
    commutator_defect,
    linear_combine,
    pure_mode,
    vacuum_photon_number,
)
from nli_polarimetry.mode_algebra import N_MODES

complex_amps = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


def random_expansion(draw_ann, draw_cre):
    return OperatorExpansion(np.array(draw_ann), np.array(draw_cre))


expansions = st.builds(
    random_expansion,
    st.lists(complex_amps, min_size=6, max_size=6),
    st.lists(complex_amps, min_size=6, max_size=6),
)


def test_pure_mode_is_identity_annihilation():
    x = pure_mode(Mode.SIGNAL)
    assert x.ann[Mode.SIGNAL] == 1.0
    assert np.count_nonzero(x.ann) == 1
    assert np.count_nonzero(x.cre) == 0


def test_pure_mode_is_canonical():
    assert commutator_defect(pure_mode(Mode.IDLER)) == 0.0


def test_pure_mode_has_no_vacuum_photons():
    assert vacuum_photon_number(pure_mode(Mode.SAMPLE_PERP)) == 0.0


def test_adjoint_of_single_mode():
    x = adjoint(pure_mode(Mode.IDLER))
    assert x.cre[Mode.IDLER] == 1.0
    assert np.count_nonzero(x.ann) == 0


def test_adjoint_conjugates_coefficients():
    c = 0.3 + 0.4j
    x = linear_combine([(c, pure_mode(Mode.SIGNAL))])
    dag = adjoint(x)
    assert dag.cre[Mode.SIGNAL] == np.conj(c)
    assert np.count_nonzero(dag.ann) == 0


@given(expansions)
@settings(max_examples=100, deadline=None)
def test_adjoint_is_involution(x):
    back = adjoint(adjoint(x))
    np.testing.assert_array_equal(back.ann, x.ann)
    np.testing.assert_array_equal(back.cre, x.cre)


def test_linear_combine_identity():
    x = linear_combine([(0.2 - 0.7j, pure_mode(Mode.IDLER)), (1.5, adjoint(pure_mode(Mode.SIGNAL)))])
    y = linear_combine([(1.0, x)])
    np.testing.assert_array_equal(y.ann, x.ann)
    np.testing.assert_array_equal(y.cre, x.cre)


def test_linear_combine_cancellation():
    x = linear_combine([(0.3 + 1j, pure_mode(Mode.SIGNAL_TAP))])
    z = linear_combine([(1.0, x), (-1.0, x)])
    np.testing.assert_array_equal(z.ann, np.zeros(6, dtype=complex))
    np.testing.assert_array_equal(z.cre, np.zeros(6, dtype=complex))


def test_linear_combine_rejects_empty():
    with pytest.raises(ValueError):
        linear_combine([])


@given(expansions, expansions, complex_amps, complex_amps)
@settings(max_examples=100, deadline=None)
def test_linear_combine_is_linear(x, y, a, b):
    left = linear_combine([(a, x), (b, y)])
    right_ann = a * x.ann + b * y.ann
    right_cre = a * x.cre + b * y.cre
    np.testing.assert_allclose(left.ann, right_ann, atol=1e-12)
    np.testing.assert_allclose(left.cre, right_cre, atol=1e-12)


def test_squeezed_mode_photon_number():
    # single unseeded squeezer: output u*a_s + v*a_i^dag carries |v|^2 photons
    v_mean = 0.7
    u = math.sqrt(1.0 + v_mean)
    v = math.sqrt(v_mean)
    b = linear_combine([(u, pure_mode(Mode.SIGNAL)), (v, adjoint(pure_mode(Mode.IDLER)))])
    assert vacuum_photon_number(b) == pytest.approx(v_mean, abs=1e-12)
    assert commutator_defect(b) == pytest.approx(0.0, abs=1e-12)


@given(expansions, st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=100, deadline=None)
def test_photon_number_invariant_under_global_phase(x, phase):
    rotated = linear_combine([(np.exp(1j * phase), x)])
    assert vacuum_photon_number(rotated) == pytest.approx(
        vacuum_photon_number(x), rel=1e-12, abs=1e-12
    )


def test_zero_expansion_flagged_nonphysical():
    assert commutator_defect(OperatorExpansion(np.zeros(N_MODES), np.zeros(N_MODES))) == -1.0


def test_rejects_nonfinite_amplitudes():
    bad = np.zeros(6, dtype=complex)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        OperatorExpansion(bad, np.zeros(6, dtype=complex))


def test_rejects_nonfinite_batched_amplitude():
    ann = np.ones((6, 5), dtype=complex)
    cre = np.zeros((6, 5), dtype=complex)
    cre[3, 2] = np.inf
    with pytest.raises(ValueError):
        OperatorExpansion(ann, cre)
    with pytest.raises(ValueError):
        OperatorExpansion(cre, ann)


@pytest.mark.parametrize("ann_shape, cre_shape", [((6, 3), (6, 4)), ((6,), (6, 1)), ((5, 3), (5, 3))])
def test_rejects_mismatched_batched_shapes(ann_shape, cre_shape):
    with pytest.raises(ValueError):
        OperatorExpansion(np.zeros(ann_shape, dtype=complex), np.zeros(cre_shape, dtype=complex))


def batched_expansion(columns):
    ann = np.array([c[0] for c in columns]).T
    cre = np.array([c[1] for c in columns]).T
    return OperatorExpansion(ann, cre)


amp_lists = st.lists(complex_amps, min_size=6, max_size=6)


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.tuples(amp_lists, amp_lists), min_size=k, max_size=k),
            st.lists(complex_amps, min_size=k, max_size=k),
            st.lists(complex_amps, min_size=k, max_size=k),
        )
    ),
    expansions,
)
@settings(max_examples=50, deadline=None)
def test_batched_linear_combine_matches_columns(batch, y):
    # a batched expansion and an unbatched one, each weighted per column
    columns, a, b = batch
    x = batched_expansion(columns)
    combined = linear_combine([(np.array(a), x), (np.array(b), y)])
    assert combined.batch_shape == (len(columns),)
    photons = vacuum_photon_number(combined)
    defects = commutator_defect(combined)
    for j, (ann, cre) in enumerate(columns):
        col = linear_combine([(a[j], random_expansion(ann, cre)), (b[j], y)])
        np.testing.assert_allclose(combined.ann[:, j], col.ann, rtol=1e-14, atol=1e-12)
        np.testing.assert_allclose(combined.cre[:, j], col.cre, rtol=1e-14, atol=1e-12)
        assert photons[j] == pytest.approx(vacuum_photon_number(col), rel=1e-12, abs=1e-12)
        assert defects[j] == pytest.approx(commutator_defect(col), rel=1e-12, abs=1e-9)
