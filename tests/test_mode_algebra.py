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


@pytest.mark.parametrize("batch", [(1,), (3,), (3, 4)])
def test_unbatched_term_lifts_onto_expansion_batch(batch):
    # the batch comes from an expansion, not from a coefficient: the
    # unbatched term is lifted onto its trailing axes, column by column
    y = linear_combine([(0.2 - 0.7j, pure_mode(Mode.IDLER)), (1.5, adjoint(pure_mode(Mode.SIGNAL)))])
    rng = np.random.default_rng(4)
    ann, cre = rng.normal(size=(2, N_MODES, *batch)) + 1j * rng.normal(size=(2, N_MODES, *batch))
    combined = linear_combine([(2.0, y), (1.0, OperatorExpansion(ann, cre))])
    assert combined.batch_shape == batch
    for idx in np.ndindex(batch):
        col = (slice(None),) + idx
        want = linear_combine([(2.0, y), (1.0, OperatorExpansion(ann[col], cre[col]))])
        np.testing.assert_array_equal(combined.ann[col], want.ann)
        np.testing.assert_array_equal(combined.cre[col], want.cre)


def _results(x):
    """Every operation's result on ``x``: the expansion itself, its adjoint
    and combinations with ``x`` alone, with a pure mode and with a batch."""
    return [
        x,
        adjoint(x),
        linear_combine([(1.0, x)]),
        linear_combine([(0.5 - 2j, x), (1.5, pure_mode(Mode.IDLER))]),
        linear_combine([(np.array([1.0, -2.0, 0.25j]), x)]),
    ]


def test_construction_copies_caller_arrays():
    ann = np.arange(N_MODES, dtype=complex)
    cre = 1j * np.arange(N_MODES, dtype=complex)
    x = OperatorExpansion(ann, cre)
    ann[:] = 7.0
    cre[:] = np.nan
    np.testing.assert_array_equal(x.ann, np.arange(N_MODES))
    np.testing.assert_array_equal(x.cre, 1j * np.arange(N_MODES))
    for arr in (ann, cre):
        assert not np.shares_memory(x.ann, arr) and not np.shares_memory(x.cre, arr)


@pytest.mark.parametrize("mode", list(Mode))
def test_results_are_read_only(mode):
    x = OperatorExpansion(np.ones((N_MODES, 3)), np.zeros((N_MODES, 3)))
    for result in _results(pure_mode(mode)) + _results(x):
        for arr in (result.ann, result.cre):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 2.0


@pytest.mark.parametrize("mode", list(Mode))
def test_results_share_no_memory_with_inputs(mode):
    a = pure_mode(mode)
    y = linear_combine([(0.3 + 0.4j, a), (2.0, adjoint(pure_mode(Mode.SIGNAL)))])
    inputs = [y] + [pure_mode(m) for m in Mode]
    for x in (a, y):
        for result in _results(x)[1:]:
            for out in (result.ann, result.cre):
                assert not any(np.shares_memory(out, arr) for z in inputs for arr in (z.ann, z.cre))
                # a view of a read-only array cannot be made writeable
                with pytest.raises(ValueError):
                    out.flags.writeable = True
    assert pure_mode(mode) is a
    np.testing.assert_array_equal(a.ann, np.eye(N_MODES)[mode])
    np.testing.assert_array_equal(a.cre, np.zeros(N_MODES))
