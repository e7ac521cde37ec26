"""The fits' reductions, roots and clamps keep the bits of the numpy forms
they replaced: ``np.max(np.abs(v))``, ``np.sqrt(np.mean(...))`` and
``np.clip``, over signed zeros, subnormals and values near 2**1023."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import previous_pow2_scale
from nli_polarimetry import EstimationError, HarmonicDecomposition, extract_sample_fourier
from nli_polarimetry.scan import _fit_design, _pow2_scale, _solve

TINY = 5e-324  # the smallest subnormal
BIG = 2.0**1023
EDGES = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.0, 1.05, 2.0, BIG, math.nextafter(BIG, 0.0), 1.7976931348623157e308]
# every finite double, with the edges and their negatives drawn often
FINITE = (st.sampled_from(EDGES + [-x for x in EDGES])
          | st.floats(allow_nan=False, allow_infinity=False))
# a clamped transmission: at least +0.0, near the bounds 0, 1 and 1.05 often
TRANSMISSIONS = (st.sampled_from([0.0, TINY, 1.0, math.nextafter(1.0, 0.0),
                                  math.nextafter(1.0, 2.0), 1.05, math.nextafter(1.05, 0.0),
                                  math.nextafter(1.05, 2.0), BIG, 1.7976931348623157e308])
                 | st.floats(0.0, 2.0) | st.floats(min_value=0.0, allow_infinity=False))


def previous_rms(resid):
    scale = previous_pow2_scale(resid)
    return scale * float(np.sqrt(np.mean((resid / scale) ** 2)))


class TestPow2Scale:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FINITE | st.sampled_from([math.nan, math.inf, -math.inf]),
                           min_size=1, max_size=50),
           pairs=st.booleans())
    def test_matches_np_max_of_np_abs(self, values, pairs):
        array = np.array(values if not pairs else values * 2)
        if pairs:
            array = array.reshape(-1, 2)  # the ellipse fit's (n, 2) points
        assert _pow2_scale(array).hex() == previous_pow2_scale(array).hex()


def kernel_fit(design, counts):
    """The solve of ``design``, the coefficients and the residual
    ``_fit_design`` takes from it, as its own arithmetic gives them."""
    solve = _solve(design)
    u, back = solve
    w = counts @ u
    return solve, back @ w, counts - u @ w


class TestResidualRms:
    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(FINITE, min_size=2, max_size=60))
    def test_matches_np_sqrt_of_np_mean(self, counts):
        # a one-column design (1, 0, 0, ...) fits only the first row, so the
        # residual is every other count as drawn (up to the sign of a zero)
        counts = np.array(counts)
        design = np.zeros((len(counts), 1))
        design[0, 0] = 1.0
        solve, coef, resid = kernel_fit(design, counts)
        np.testing.assert_array_equal(resid, np.concatenate(([0.0], counts[1:])))
        want = previous_rms(resid)
        if math.isfinite(want):
            dc, amps, rms = _fit_design(solve, counts)
            assert (rms.hex(), dc.hex(), amps) == (want.hex(), float(coef[0]).hex(), [])
        else:
            with pytest.raises(EstimationError) as info:
                _fit_design(solve, counts)
            assert info.value.flag == "nonfinite_counts"

    @pytest.mark.parametrize("n", [8, 400, 40_000])
    def test_matches_on_fit_sized_residuals(self, n):
        # residuals of the sizes a round trip and the CLI fit, and one whose
        # sum of squares would overflow without the power-of-two scale
        rng = np.random.default_rng(n)
        design = np.column_stack([np.ones(n), *np.eye(n, 2).T])
        for counts in (rng.poisson(1e4, n).astype(float), rng.normal(0.0, 1.0, n) * 1e300):
            solve, _, resid = kernel_fit(design, counts)
            want = previous_rms(resid)
            assert _fit_design(solve, counts)[2].hex() == want.hex()


class TestFourierClamp:
    @settings(max_examples=300, deadline=None)
    @given(t_par=TRANSMISSIONS, t_perp=TRANSMISSIONS,
           signs=st.tuples(*[st.sampled_from((1.0, -1.0))] * 4),
           swap=st.tuples(st.booleans(), st.booleans()))
    def test_matches_np_clip(self, t_par, t_perp, signs, swap):
        # with a beating amplitude of 4 each transmission is |Z| itself, and
        # a part of Z that is a signed zero leaves |Z| exact
        def amplitude(t, sign, zero_sign, swapped):
            parts = (sign * t, zero_sign * 0.0)
            return complex(*(parts[::-1] if swapped else parts))
        decomp = HarmonicDecomposition(
            dc=2.0, amp_half=amplitude(t_par, signs[0], signs[1], swap[0]),
            amp_threehalf=amplitude(t_perp, signs[2], signs[3], swap[1]))
        est = extract_sample_fourier(decomp, 4.0, 0.0, 0.0)
        raw = {"t_par": 4.0 * t_par / 4.0, "t_perp": 4.0 * t_perp / 4.0}
        clipped = {name: float(np.clip(t, 0.0, 1.0)) for name, t in raw.items()}
        want = [clipped["t_par"], clipped["t_perp"],
                0.5 * (clipped["t_perp"] + clipped["t_par"]),
                clipped["t_perp"] - clipped["t_par"]]
        got = [est.t_par, est.t_perp, est.tbar, est.dt]
        assert all(type(value) is float for value in got)
        assert [value.hex() for value in got] == [value.hex() for value in want]
        exceeds = [f"{name}_exceeds_unity" for name, t in raw.items() if t > 1.05]
        assert [f for f in est.flags if f.endswith("_exceeds_unity")] == exceeds
