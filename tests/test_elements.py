import cmath
import math

import numpy as np
import pytest

from conftest import angles_close
from nli_polarimetry import (
    CrystalGain,
    InterferometerConfig,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    WaveplateSetting,
    beating_parameters,
    half_wave,
    quarter_wave,
    rotated_waveplate_coeffs,
    waveplate_coeffs,
    waveplate_matrix,
)

SQ2 = math.sqrt(2.0)


def rotation_matrix(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestCrystalGain:
    def test_hyperbolic_identity(self):
        g = CrystalGain(mean_photons=2.3, pump_phase=1.1)
        assert abs(g.u) ** 2 - abs(g.v) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_pump_phase_in_v(self):
        g = CrystalGain(mean_photons=0.5, pump_phase=0.8)
        assert g.u == pytest.approx(math.sqrt(1.5))
        assert cmath.phase(g.v) == pytest.approx(0.8)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            CrystalGain(mean_photons=-0.1)


class TestWaveplateCoeffs:
    def test_unrotated_quarter_wave_is_pure_phase(self):
        tau, rho = waveplate_coeffs(WaveplateSetting(0.0, math.pi / 2))
        assert tau == pytest.approx(cmath.exp(-0.25j * math.pi), abs=1e-15)
        assert rho == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_quarter_wave(self):
        tau, rho = waveplate_coeffs(quarter_wave(math.pi / 4))
        assert tau == pytest.approx(1.0 / SQ2, abs=1e-15)
        assert rho == pytest.approx(1j / SQ2, abs=1e-15)

    def test_diagonal_half_wave_swaps_polarizations(self):
        tau, rho = waveplate_coeffs(half_wave(math.pi / 4))
        assert tau == pytest.approx(0.0, abs=1e-15)
        assert rho == pytest.approx(1j, abs=1e-15)

    def test_modulus_sum_on_dense_grid(self):
        angles = np.linspace(0.0, 2.0 * math.pi, 41)
        rets = np.linspace(0.0, 2.0 * math.pi, 37)
        for g in angles:
            for th in rets:
                tau, rho = waveplate_coeffs(WaveplateSetting(g, th))
                assert abs(tau) ** 2 + abs(rho) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_matrix_is_unitary(self, rng):
        for _ in range(50):
            tau, rho = waveplate_coeffs(
                WaveplateSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            )
            m = waveplate_matrix(tau, rho)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-13)

    def test_raw_coeffs_pass_through(self):
        pair = WaveplateCoeffs(tau=0.6, rho=0.8j)
        assert waveplate_coeffs(pair) == (0.6, 0.8j)

    def test_raw_coeffs_validated(self):
        with pytest.raises(ValueError):
            WaveplateCoeffs(tau=1.0, rho=1.0)


class TestRotatedWaveplates:
    def test_zero_rotation_is_identity(self):
        wp1 = WaveplateSetting(0.3, 1.2)
        wp2 = WaveplateSetting(1.7, 0.4)
        t1, r1 = waveplate_coeffs(wp1)
        t2, r2 = waveplate_coeffs(wp2)
        assert rotated_waveplate_coeffs(wp1, wp2, 0.0) == (t1, r1, t2, r2)

    def test_diagonal_quarter_wave_picks_up_pure_phase(self, rng):
        # circular polarization after the plate: rotation becomes a phase only
        for psi in rng.uniform(0.0, 2.0 * math.pi, size=10):
            t1r, r1r, _, _ = rotated_waveplate_coeffs(
                quarter_wave(math.pi / 4), quarter_wave(3 * math.pi / 4), psi
            )
            assert t1r == pytest.approx(cmath.exp(-1j * psi) / SQ2, abs=1e-12)
            assert r1r == pytest.approx(1j * cmath.exp(1j * psi) / SQ2, abs=1e-12)

    def test_matches_explicit_matrix_products(self, rng):
        # oracle: R(psi) M1 and M2 R(-psi) in the SU(2) matrix representation
        for _ in range(100):
            wp1 = WaveplateSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            wp2 = WaveplateSetting(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            psi = rng.uniform(0.0, 2.0 * math.pi)
            t1r, r1r, t2r, r2r = rotated_waveplate_coeffs(wp1, wp2, psi)
            m1 = rotation_matrix(psi) @ waveplate_matrix(*waveplate_coeffs(wp1))
            m2 = waveplate_matrix(*waveplate_coeffs(wp2)) @ rotation_matrix(-psi)
            assert t1r == pytest.approx(m1[0, 0], abs=1e-13)
            assert r1r == pytest.approx(m1[0, 1], abs=1e-13)
            assert t2r == pytest.approx(m2[0, 0], abs=1e-13)
            assert r2r == pytest.approx(m2[0, 1], abs=1e-13)
            for tau, rho in ((t1r, r1r), (t2r, r2r)):
                assert abs(tau) ** 2 + abs(rho) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_rotation_composes_with_its_inverse(self, rng):
        wp1 = WaveplateSetting(0.9, 2.1)
        wp2 = WaveplateSetting(2.8, 0.7)
        psi = 1.3
        t1r, r1r, t2r, r2r = rotated_waveplate_coeffs(wp1, wp2, psi)
        t1b, r1b, t2b, r2b = rotated_waveplate_coeffs(
            WaveplateCoeffs(t1r, r1r), WaveplateCoeffs(t2r, r2r), -psi
        )
        t1, r1 = waveplate_coeffs(wp1)
        t2, r2 = waveplate_coeffs(wp2)
        for got, want in ((t1b, t1), (r1b, r1), (t2b, t2), (r2b, r2)):
            assert got == pytest.approx(want, abs=1e-13)


class TestSampleAxes:
    def test_unitary_loss_completion(self):
        s = SampleAxes(t_perp=0.6 * cmath.exp(0.4j), t_par=0.3)
        assert abs(s.t_perp) ** 2 + s.r_perp**2 == pytest.approx(1.0, abs=1e-14)
        assert abs(s.t_par) ** 2 + s.r_par**2 == pytest.approx(1.0, abs=1e-14)

    def test_rejects_gain(self):
        with pytest.raises(ValueError):
            SampleAxes(t_perp=1.2, t_par=0.5)


class TestSignalControl:
    def test_unitary(self):
        c = SignalControl(0.8 * cmath.exp(1j * 0.3))
        assert abs(c.transmission) ** 2 + c.reflection**2 == pytest.approx(1.0, abs=1e-14)


def sandwich_config(plate1, plate2, sample):
    return InterferometerConfig(
        crystal1=CrystalGain(0.5),
        crystal2=CrystalGain(0.5),
        signal=SignalControl(1.0),
        waveplate1=plate1,
        waveplate2=plate2,
        sample=sample,
    )


class TestSampleSummary:
    """The waveplate-sample-waveplate reduction inside ``beating_parameters``."""

    def test_identity_waveplates_kill_parallel_path(self):
        # no conversion: the parallel axis is never probed
        plate = WaveplateCoeffs(1.0 + 0j, 0j)
        s = beating_parameters(sandwich_config(plate, plate, SampleAxes(0.7, 0.7)))
        assert s.mean_trans == pytest.approx(0.7)
        assert s.diff_trans == pytest.approx(1.4)
        assert s.retardance == 0.0

    def test_crossed_quarter_wave_pair(self):
        cfg = sandwich_config(quarter_wave(math.pi / 4), quarter_wave(3 * math.pi / 4),
                              SampleAxes(0.9, 0.2))
        s = beating_parameters(cfg)
        assert s.mean_trans == pytest.approx(0.55, abs=1e-12)
        assert s.diff_trans == pytest.approx(0.7, abs=1e-12)
        angles_close(s.diff_setup_phase, -math.pi, atol=1e-12)

    def test_equal_axes_have_no_diattenuation(self):
        cfg = sandwich_config(quarter_wave(math.pi / 4), quarter_wave(3 * math.pi / 4),
                              SampleAxes(0.55, 0.55))
        s = beating_parameters(cfg)
        assert s.diff_trans == pytest.approx(0.0, abs=1e-12)

    def test_global_sample_phase_shifts_only_mean_phase(self, rng):
        plate1 = WaveplateSetting(0.4, 1.1)
        plate2 = WaveplateSetting(1.9, 2.3)
        base = SampleAxes(0.8 * cmath.exp(0.2j), 0.5 * cmath.exp(-0.7j))
        shift = 0.9
        shifted = SampleAxes(
            base.t_perp * cmath.exp(1j * shift), base.t_par * cmath.exp(1j * shift)
        )
        a = beating_parameters(sandwich_config(plate1, plate2, base))
        b = beating_parameters(sandwich_config(plate1, plate2, shifted))
        assert b.mean_trans == pytest.approx(a.mean_trans, abs=1e-14)
        assert b.diff_trans == pytest.approx(a.diff_trans, abs=1e-14)
        assert b.retardance == pytest.approx(a.retardance, abs=1e-12)
        angles_close(b.mean_sample_phase, a.mean_sample_phase + shift, atol=1e-12)
