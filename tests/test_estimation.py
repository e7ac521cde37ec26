import cmath
import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from nli_polarimetry import (
    CrystalGain,
    EstimationError,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    SampleEstimate,
    ScanSchedule,
    SignalControl,
    SinusoidFit,
    TimeSeries,
    UnidentifiableError,
    amplitude_relations,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    fit_ellipse,
    fit_sinusoid,
    fourier_protocol_schedule,
    harmonic_regress,
    n_rotated,
    quarter_wave,
    recover_rotated_params,
    simulate_scan,
)
from nli_polarimetry import estimation
from nli_polarimetry.angles import axis_distance, wrap_axis, wrap_pi
from nli_polarimetry.estimation import ROTATED_ASSUMPTIONS

KAPPA = 1.0e4


def qwp_pair_config(t_perp, t_par, v=0.5, rotation=0.0, gamma2=3 * math.pi / 4):
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(gamma2),
        sample=SampleAxes(t_perp, t_par),
        rotation=rotation,
    )


def sample_from(tbar, dt, phibar, dphi):
    t_perp = (tbar + 0.5 * dt) * cmath.exp(1j * (phibar + 0.5 * dphi))
    t_par = (tbar - 0.5 * dt) * cmath.exp(1j * (phibar - 0.5 * dphi))
    return SampleAxes(t_perp, t_par)


def fourier_scan(t_perp, t_par, xi_bar=0.0, delta_xi=0.0, n_periods=4,
                 samples_per_period=100, noise=None, v=0.5):
    cfg = qwp_pair_config(t_perp, t_par, v=v)
    sched = fourier_protocol_schedule(n_periods, samples_per_period, xi_bar, delta_xi)
    noise = noise or NoiseModel(KAPPA)
    return simulate_scan(cfg, sched, noise, regime="lowgain"), sched


def setting_scan(tbar, dt, phibar, dphi, psi, setting, n=72, noise=None, v=0.5):
    gamma2 = 3 * math.pi / 4 if setting == 1 else math.pi / 4
    cfg = qwp_pair_config(0.0, 0.0, v=v, rotation=psi, gamma2=gamma2)
    # axis moduli through the quarter-wave pair: tbar +- dt/2
    cfg = dataclasses.replace(cfg, sample=sample_from(tbar, dt, phibar, dphi))
    sched = ScanSchedule(signal_rate=2.0 * math.pi / n, n_samples=n)
    noise = noise or NoiseModel(KAPPA)
    return simulate_scan(cfg, sched, noise, regime="lowgain")


class TestHarmonicRegress:
    def test_matches_single_bin_projection(self):
        series, sched = fourier_scan(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j))
        decomp = harmonic_regress(series, sched.signal_rate)
        t = series.step.astype(float)
        y = series.counts
        n = len(y)
        for freq, amp in ((0.5 * sched.signal_rate, decomp.amp_half),
                          (1.5 * sched.signal_rate, decomp.amp_threehalf)):
            a = 2.0 / n * np.sum(y * np.cos(freq * t))
            b = 2.0 / n * np.sum(y * np.sin(freq * t))
            assert amp == pytest.approx(complex(a, -b), abs=1e-12 * decomp.dc)
        assert decomp.dc == pytest.approx(np.mean(y), rel=1e-12)

    def test_amplitude_ratio(self):
        series, sched = fourier_scan(0.9, 0.2)
        decomp = harmonic_regress(series, sched.signal_rate)
        ratio = abs(decomp.amp_threehalf) / abs(decomp.amp_half)
        assert ratio == pytest.approx(4.5, rel=1e-9)

    def test_flat_series(self):
        cfg = qwp_pair_config(0.9, 0.2)
        sched = ScanSchedule(signal_rate=0.2, diff_rate=0.2, n_samples=70)
        series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        flat = TimeSeries(
            step=series.step, phi0=series.phi0, delta_phase=series.delta_phase,
            expected_n=series.expected_n, counts=np.full(len(series), 3.7),
        )
        decomp = harmonic_regress(flat, 0.2)
        assert decomp.dc == pytest.approx(3.7, rel=1e-12)
        assert abs(decomp.amp_half) == pytest.approx(0.0, abs=1e-12)
        assert abs(decomp.amp_threehalf) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unequal_rates(self):
        cfg = qwp_pair_config(0.9, 0.2)
        sched = ScanSchedule(signal_rate=0.2, diff_rate=0.1, n_samples=80)
        series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        with pytest.raises(EstimationError):
            harmonic_regress(series, 0.2)

    def test_rejects_short_series(self):
        series, sched = fourier_scan(0.9, 0.2, n_periods=4, samples_per_period=100)
        short = TimeSeries(
            step=series.step[:50], phi0=series.phi0[:50],
            delta_phase=series.delta_phase[:50],
            expected_n=series.expected_n[:50], counts=series.counts[:50],
        )
        with pytest.raises(EstimationError):
            harmonic_regress(short, sched.signal_rate)

    def test_poisson_amplitudes_within_standard_errors(self):
        sched = fourier_protocol_schedule(4, 100)
        cfg = qwp_pair_config(0.9, 0.2)
        clean = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="lowgain")
        truth = harmonic_regress(clean, sched.signal_rate)
        half_err, threehalf_err = [], []
        for seed in range(100):
            noisy = simulate_scan(
                cfg, sched, NoiseModel(KAPPA, seed=seed, mode="poisson"),
                regime="lowgain",
            )
            decomp = harmonic_regress(noisy, sched.signal_rate)
            half_err.append(abs(decomp.amp_half - truth.amp_half))
            threehalf_err.append(abs(decomp.amp_threehalf - truth.amp_threehalf))
        # amplitude standard error for white noise: sigma * sqrt(2/n)
        sigma = math.sqrt(truth.dc)
        se = sigma * math.sqrt(2.0 / len(clean))
        assert np.mean(half_err) < 3.0 * se
        assert np.mean(threehalf_err) < 3.0 * se


class TestExtractSampleFourier:
    def run_pipeline(self, t_perp_mag, t_par_mag, phibar, dphi, xi_bar, delta_xi,
                     noise=None, calib_noise=None, v=0.5):
        sample = SampleAxes(
            t_perp_mag * cmath.exp(1j * (phibar + 0.5 * dphi)),
            t_par_mag * cmath.exp(1j * (phibar - 0.5 * dphi)),
        )
        cfg = qwp_pair_config(sample.t_perp, sample.t_par, v=v)
        sched = fourier_protocol_schedule(4, 100, xi_bar, delta_xi)
        series = simulate_scan(cfg, sched, noise or NoiseModel(KAPPA),
                               regime="lowgain")
        decomp = harmonic_regress(series, sched.signal_rate)
        return extract_sample_fourier(decomp, 2.0 * decomp.dc, xi_bar, delta_xi)

    def test_noiseless_round_trip(self):
        est = self.run_pipeline(0.9, 0.2, 0.4, 0.9, 0.23, -0.61)
        assert est.t_perp == pytest.approx(0.9, abs=1e-9)
        assert est.t_par == pytest.approx(0.2, abs=1e-9)
        assert est.phibar == pytest.approx(0.4, abs=1e-9)
        assert est.dphi == pytest.approx(0.9, abs=1e-9)
        assert est.tbar == pytest.approx(0.55, abs=1e-9)
        assert est.dt == pytest.approx(0.7, abs=1e-9)

    def test_symmetric_sample(self):
        est = self.run_pipeline(0.7, 0.7, 0.0, 0.0, 0.1, 0.2)
        assert est.dphi == pytest.approx(0.0, abs=1e-9)
        assert est.t_perp == pytest.approx(est.t_par, abs=1e-9)

    def test_noiseless_round_trip_random_sweep(self, rng):
        for _ in range(20):
            t_perp = rng.uniform(0.05, 1.0)
            t_par = rng.uniform(0.05, 1.0)
            phibar = rng.uniform(-1.4, 1.4)
            dphi = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
            xi_bar = rng.uniform(-1.2, 1.2)
            delta_xi = rng.uniform(-2.4, 2.4)
            est = self.run_pipeline(t_perp, t_par, phibar, dphi, xi_bar, delta_xi)
            assert est.t_perp == pytest.approx(t_perp, abs=1e-9)
            assert est.t_par == pytest.approx(t_par, abs=1e-9)
            assert abs(wrap_pi(est.dphi - dphi)) < 1e-9
            assert abs(float(est.phibar) - phibar) < 1e-9 or abs(
                abs(float(est.phibar) - phibar) - math.pi
            ) < 1e-9

    def test_rejects_bad_amplitude(self):
        series, sched = fourier_scan(0.9, 0.2)
        decomp = harmonic_regress(series, sched.signal_rate)
        with pytest.raises(EstimationError):
            extract_sample_fourier(decomp, 0.0, 0.0, 0.0)

    def test_out_of_range_transmission_clipped_and_flagged(self):
        series, sched = fourier_scan(0.9, 0.2)
        decomp = harmonic_regress(series, sched.signal_rate)
        # understate the amplitude so the inferred transmissions overshoot
        est = extract_sample_fourier(decomp, 1.6 * decomp.dc, 0.0, 0.0)
        assert est.t_perp == 1.0
        assert "t_perp_exceeds_unity" in est.flags

    def test_poisson_errors_small(self):
        errs = []
        for seed in range(100):
            est = self.run_pipeline(
                0.9, 0.2, 0.4, 0.9, 0.23, -0.61,
                noise=NoiseModel(KAPPA, seed=seed, mode="poisson"),
            )
            errs.append(
                max(abs(est.t_perp - 0.9), abs(est.t_par - 0.2),
                    abs(est.phibar - 0.4), abs(wrap_pi(est.dphi - 0.9)))
            )
        assert np.mean(np.array(errs) < 0.02) >= 0.95

    def test_error_scales_with_detector_flux(self):
        # RMS error shrinks like the square root of the count scale
        rms = {}
        for kappa in (1e2, 1e3, 1e4):
            errs = []
            for seed in range(60):
                est = self.run_pipeline(
                    0.9, 0.2, 0.4, 0.9, 0.0, 0.0,
                    noise=NoiseModel(kappa, seed=seed, mode="poisson"),
                )
                errs.append(est.t_perp - 0.9)
            rms[kappa] = float(np.sqrt(np.mean(np.square(errs))))
        expected = math.sqrt(10.0)
        for ratio in (rms[1e2] / rms[1e3], rms[1e3] / rms[1e4]):
            assert expected / 1.5 < ratio < expected * 1.5


class TestFitSinusoid:
    def test_recovers_gauge_fixed_amplitudes(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        fit = fit_sinusoid(series)
        assert fit.amp_sin == 0.0
        assert fit.amp_cos == pytest.approx(0.6, abs=1e-9)
        assert fit.phase_reference == pytest.approx(0.4, abs=1e-9)

    def test_setting2_amplitude(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        fit = fit_sinusoid(series)
        assert fit.amp_cos == pytest.approx(0.3, abs=1e-9)

    def test_known_reference_frame(self):
        series = setting_scan(0.5, 0.2, 0.4, 1.1, 0.0, setting=1)
        fit = fit_sinusoid(series, phase_reference=0.4)
        b1, c1, _, _ = amplitude_relations(0.5, 0.2, 1.1)
        assert fit.amp_sin == pytest.approx(b1, abs=1e-9)
        assert fit.amp_cos == pytest.approx(c1, abs=1e-9)

    def test_constant_series(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        flat = TimeSeries(
            step=series.step, phi0=series.phi0, delta_phase=series.delta_phase,
            expected_n=series.expected_n, counts=np.full(len(series), 5.0),
        )
        fit = fit_sinusoid(flat)
        assert fit.amp_sin == 0.0
        assert fit.amp_cos == pytest.approx(0.0, abs=1e-12)

    def test_rejects_undersampled(self):
        cfg = qwp_pair_config(0.9, 0.2)
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 6, n_samples=12)
        series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        with pytest.raises(EstimationError):
            fit_sinusoid(series)


class TestRecoverRotatedParams:
    def test_isotropic_phase_case(self):
        rec = recover_rotated_params(0.0, 0.6, 0.0, 0.3)
        assert rec.dphi == pytest.approx(0.0, abs=1e-12)
        assert rec.tbar == pytest.approx(0.6, abs=1e-12)
        assert rec.dt == pytest.approx(0.6, abs=1e-12)
        assert rec.residual < 1e-12

    def test_pure_retarder_quarter_turn(self):
        b1, c1, b2, c2 = amplitude_relations(1.0, 0.0, 0.5 * math.pi)
        rec = recover_rotated_params(b1, c1, b2, c2)
        assert rec.dphi == pytest.approx(0.5 * math.pi, abs=1e-12)
        assert rec.tbar == pytest.approx(1.0, abs=1e-12)
        assert rec.dt == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(300):
            tbar = rng.uniform(0.05, 1.0)
            dt = rng.uniform(-1.0, 1.0) * min(2.0 * tbar, 2.0 - 2.0 * tbar + 1e-12)
            dphi = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
            rec = recover_rotated_params(*amplitude_relations(tbar, dt, dphi))
            assert rec.tbar == pytest.approx(tbar, abs=1e-12)
            assert rec.dt == pytest.approx(dt, abs=1e-12)
            assert rec.dphi == pytest.approx(dphi, abs=1e-12)
            assert rec.residual < 1e-12

    def test_residual_matches_inline_oracle(self, rng):
        # oracle: the residual as recover_rotated_params wrote out its
        # predicted amplitudes before it called amplitude_relations
        for _ in range(2000):
            amps = rng.normal(size=4) * (rng.uniform(size=4) > 0.2)
            if not np.any(amps[[1, 2]]):
                continue
            rec = recover_rotated_params(*amps)
            b1, c1, b2, c2 = (float(a) for a in amps)
            if c1 < 0.0:
                c1, c2 = -c1, -c2
            half = 0.5 * rec.dphi
            pred = (
                -0.5 * rec.dt * math.sin(half),
                rec.tbar * math.cos(half),
                -rec.tbar * math.sin(half),
                0.5 * rec.dt * math.cos(half),
            )
            want = max(abs(p - q) for p, q in zip(pred, (b1, c1, b2, c2)))
            assert rec.residual.hex() == want.hex()

    def test_negative_c1_flip_rule(self):
        # retardance beyond a half turn flips the fitted cosine amplitudes
        tbar, dt, dphi = 0.7, 0.3, 2.5
        b1, c1, b2, c2 = amplitude_relations(tbar, dt, dphi + 2.0 * math.pi)
        assert c1 < 0
        rec = recover_rotated_params(b1, c1, b2, c2)
        assert "c1_flipped_retardance_mod_2pi" in rec.flags
        assert rec.tbar == pytest.approx(tbar, abs=1e-12)

    def test_unidentifiable_tbar(self):
        with pytest.raises(UnidentifiableError):
            recover_rotated_params(0.5, 0.0, 0.0, 0.4)

    def test_half_turn_dt_flagged(self):
        b1, c1, b2, c2 = amplitude_relations(0.6, 0.4, math.pi)
        rec = recover_rotated_params(b1, c1, b2, c2)
        assert "dt_sign_unidentified_at_half_turn" in rec.flags
        assert rec.dt == pytest.approx(0.4, abs=1e-12)


class TestEstimateRotated:
    def test_isotropic_phase_round_trip(self):
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        est = estimate_rotated(s1, s2, assume="isotropic_phase")
        assert est.tbar == pytest.approx(0.6, abs=1e-6)
        assert est.dt == pytest.approx(0.6, abs=1e-6)
        assert est.dphi == pytest.approx(0.0, abs=1e-6)
        assert est.phibar == pytest.approx(0.4, abs=1e-6)
        assert axis_distance(est.psi, 1.8) < 1e-6

    def test_isotropic_attenuation_round_trip(self):
        s1 = setting_scan(0.6, 0.0, 0.4, 0.5 * math.pi, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.0, 0.4, 0.5 * math.pi, 1.8, setting=2)
        est = estimate_rotated(s1, s2, assume="isotropic_attenuation")
        assert est.tbar == pytest.approx(0.6, abs=1e-6)
        assert est.dt == pytest.approx(0.0, abs=1e-6)
        assert est.dphi == pytest.approx(0.5 * math.pi, abs=1e-6)
        assert axis_distance(est.psi, 1.8) < 1e-6

    def test_general_mode_exact_branch(self):
        # even with the mean phase known, the two-setting data admits two
        # exactly-consistent parameter sets; the estimator returns one,
        # flags the ambiguity, and must regenerate the record either way
        tbar, dt, dphi, phibar, psi = 0.55, 0.4, 0.8, 0.4, 1.1
        s1 = setting_scan(tbar, dt, phibar, dphi, psi, setting=1)
        s2 = setting_scan(tbar, dt, phibar, dphi, psi, setting=2)
        est = estimate_rotated(s1, s2, assume="general", phibar=phibar)
        assert "general_mode_root_choice" in est.flags
        assert est.residuals["amplitude_consistency"] < 1e-9
        # the recovered set must reproduce both fringe harmonics
        b1, c1, b2, c2 = amplitude_relations(est.tbar, est.dt, est.dphi)
        b1_true, c1_true, b2_true, c2_true = amplitude_relations(tbar, dt, dphi)
        assert b1 == pytest.approx(b1_true, abs=1e-6)
        assert c1 == pytest.approx(c1_true, abs=1e-6)
        assert math.hypot(b2, c2) == pytest.approx(
            math.hypot(b2_true, c2_true), abs=1e-6
        )

    def test_general_mode_recovers_truth_on_primary_branch(self):
        # truth lies on the returned branch when the diattenuation-type
        # quadrature dominates
        tbar, dt, dphi, phibar, psi = 0.45, 0.7, 0.6, 0.4, 1.1
        s1 = setting_scan(tbar, dt, phibar, dphi, psi, setting=1)
        s2 = setting_scan(tbar, dt, phibar, dphi, psi, setting=2)
        est = estimate_rotated(s1, s2, assume="general", phibar=phibar)
        assert est.tbar == pytest.approx(tbar, abs=1e-6)
        assert est.dt == pytest.approx(dt, abs=1e-6)
        assert est.dphi == pytest.approx(dphi, abs=1e-6)
        assert axis_distance(est.psi, psi) < 1e-6

    def test_general_mode_requires_phibar(self):
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        with pytest.raises(EstimationError):
            estimate_rotated(s1, s2, assume="general")

    def test_general_mode_rejects_nonfinite_phibar(self):
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        for phibar in (math.nan, math.inf, -math.inf):
            with pytest.raises(EstimationError) as err:
                estimate_rotated(s1, s2, assume="general", phibar=phibar)
            assert err.value.flag == "bad_phibar"

    def test_structural_modes_reject_phibar(self):
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        for assume in ("isotropic_phase", "isotropic_attenuation"):
            with pytest.raises(EstimationError) as err:
                estimate_rotated(s1, s2, assume=assume, phibar=2.5)
            assert err.value.flag == "phibar_unused"

    def test_rounding_noise_fringe_leaves_psi_unidentified(self):
        # without diattenuation the setting-2 fringe is rounding noise
        # (about 1e-16 of dc), which must not fix an orientation
        s1, s2 = (setting_scan(0.6, 0.0, 0.4, 0.0, 1.8, setting=k, v=0.01) for k in (1, 2))
        est = estimate_rotated(s1, s2, assume="isotropic_phase")
        assert est.psi is None
        assert est.flags == ["psi_unidentified_no_diattenuation_fringe"]
        assert est.tbar == pytest.approx(0.6, abs=1e-9)

    @pytest.mark.parametrize("assume", ROTATED_ASSUMPTIONS)
    def test_opaque_sample_unidentifiable(self, assume):
        # every fringe amplitude of an opaque sample is rounding noise
        s1, s2 = (setting_scan(0.0, 0.0, 0.4, 0.0, 1.8, setting=k, v=0.01) for k in (1, 2))
        kwargs = {"phibar": 0.4} if assume == "general" else {}
        with pytest.raises(UnidentifiableError) as err:
            estimate_rotated(s1, s2, assume=assume, **kwargs)
        assert err.value.flag == "tbar_unidentifiable"

    def test_axis_swap_equivalence(self):
        # a sample rotated by a quarter turn with swapped axes produces the
        # same record; estimates land in the canonical branch
        psi_b = 1.8 + 0.5 * math.pi
        s1 = setting_scan(0.6, -0.6, 0.4, 0.0, psi_b, setting=1)
        s2 = setting_scan(0.6, -0.6, 0.4, 0.0, psi_b, setting=2)
        est = estimate_rotated(s1, s2, assume="isotropic_phase")
        assert est.dt == pytest.approx(0.6, abs=1e-6)
        assert axis_distance(est.psi, 1.8) < 1e-6


def ellipse_points(tbar, dt, dphi, psi, phibar=0.4, n=73, v=0.5, phase_start=0.0):
    phi0 = phase_start + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    kwargs = dict(mean_photons=v, mean_trans=tbar, diff_trans=dt,
                  retardance=dphi, mean_sample_phase=phibar, rotation=psi)
    return np.column_stack([n_rotated(1, phi0, **kwargs), n_rotated(2, phi0, **kwargs)])


class TestFitEllipse:
    def test_recovers_rotation_isotropic_phase(self):
        fit = fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert axis_distance(fit.psi, 1.8) < 1e-9
        assert fit.residual < 1e-10
        assert fit.c1 == pytest.approx(0.6, abs=1e-9)
        assert fit.c2 == pytest.approx(0.3, abs=1e-9)
        assert fit.flux_scale == pytest.approx(0.5, abs=1e-9)

    def test_recovers_rotation_isotropic_attenuation(self):
        fit = fit_ellipse(
            ellipse_points(0.6, 0.0, 0.5 * math.pi, 1.8),
            assume="isotropic_attenuation",
        )
        assert axis_distance(fit.psi, 1.8) < 1e-9
        rec = recover_rotated_params(fit.b1, fit.c1, fit.b2, fit.c2)
        assert rec.dphi == pytest.approx(0.5 * math.pi, abs=1e-9)
        assert rec.tbar == pytest.approx(0.6, abs=1e-9)

    def test_distinguishes_rotations(self):
        fit_a = fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8))
        fit_b = fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 3.5))
        assert axis_distance(fit_a.psi, fit_b.psi) > 0.1

    def test_invariant_under_phase_offset_resampling(self):
        fit_a = fit_ellipse(ellipse_points(0.55, 0.4, 0.0, 1.1))
        fit_b = fit_ellipse(ellipse_points(0.55, 0.4, 0.0, 1.1, phase_start=1.234))
        assert fit_a.psi == pytest.approx(fit_b.psi, abs=1e-9)
        assert fit_a.c1 == pytest.approx(fit_b.c1, abs=1e-9)
        assert fit_a.c2 == pytest.approx(fit_b.c2, abs=1e-9)

    def test_circle_flagged(self):
        # equal amplitudes in quadrature trace a circle; its orientation
        # carries no rotation information
        fit = fit_ellipse(ellipse_points(0.4, 0.8, 0.0, math.pi / 4))
        assert "psi_unidentifiable_circle" in fit.flags

    def test_collinear_points_rejected(self):
        phi0 = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        line = np.column_stack([1.0 + 0.3 * np.cos(phi0), np.full_like(phi0, 1.0)])
        with pytest.raises(UnidentifiableError) as err:
            fit_ellipse(line)
        assert err.value.flag == "degenerate_conic"

    def test_too_few_points_rejected(self):
        with pytest.raises(EstimationError):
            fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8)[:5])

    def test_estimate_ellipse_round_trip(self):
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        est = estimate_ellipse(s1, s2, assume="isotropic_phase")
        assert est.tbar == pytest.approx(0.6, abs=1e-6)
        assert est.dt == pytest.approx(0.6, abs=1e-6)
        assert axis_distance(est.psi, 1.8) < 1e-6
        assert est.phibar is None


# Oracle: the two-setting estimators as written before they shared one back
# end (one assumption mapping, one estimate assembly).  ``estimate_rotated``
# is kept whole; the ellipse route keeps its old mapping of the fitted
# invariants and its old assembly around the current conic fit.  The
# rotated reference treats a relative setting-2 fringe of at most 1e-12 as
# absent, as the estimators do; both references call the estimators'
# ``recover_rotated_params`` and so share its 1e-12 floor on the largest
# relative amplitude.


def reference_estimate_rotated(series_setting1, series_setting2,
                               assume="isotropic_phase", phibar=None):
    if assume not in ("isotropic_phase", "isotropic_attenuation", "general"):
        raise EstimationError(f"unknown assumption {assume!r}", flag="bad_assumption")
    fit1 = estimation.fit_sinusoid(series_setting1)
    fit2 = estimation.fit_sinusoid(series_setting2)
    w1 = fit1.amp_cos * cmath.exp(1j * fit1.phase_reference)
    w2 = fit2.amp_cos * cmath.exp(1j * fit2.phase_reference)
    flags = []

    if assume == "general":
        if phibar is None:
            raise EstimationError(
                "general mode needs the mean sample phase from an independent "
                "measurement",
                flag="phibar_required",
            )
        z1 = w1 * cmath.exp(-1j * phibar)
        b1, c1 = -z1.imag, z1.real
        z2 = w2 * cmath.exp(-1j * phibar)
        s = abs(z2) ** 2
        m = b1 * c1
        disc = s * s - 4.0 * m * m
        if disc < -1e-9 * max(s * s, 1.0):
            raise EstimationError(
                "fringe amplitudes are inconsistent with the two-setting model",
                flag="inconsistent_amplitudes",
            )
        disc = max(disc, 0.0)
        c2sq = 0.5 * (s + math.sqrt(disc))
        c2 = math.sqrt(c2sq)
        if c2 > 1e-12:
            b2 = m / c2
        else:
            b2 = -math.sqrt(max(s, 0.0))
        flags.append("general_mode_root_choice")
        psi = float(wrap_axis(0.5 * (cmath.phase(complex(c2, -b2)) - cmath.phase(z2))))
        phib = float(phibar)
    else:
        c1 = abs(w1)
        b1 = 0.0
        phib = cmath.phase(w1) if abs(w1) > 0 else 0.0
        if assume == "isotropic_phase":
            c2 = abs(w2)
            b2 = 0.0
            psi = float(wrap_axis(0.5 * (phib - cmath.phase(w2)))) if abs(w2) > 1e-12 else None
            if abs(w2) <= 1e-12:
                flags.append("psi_unidentified_no_diattenuation_fringe")
        else:
            b2 = -abs(w2)
            c2 = 0.0
            psi = (
                float(wrap_axis(0.5 * (phib - cmath.phase(w2) + 0.5 * math.pi)))
                if abs(w2) > 1e-12
                else None
            )
            if abs(w2) <= 1e-12:
                flags.append("psi_unidentified_no_retardance_fringe")

    rec = recover_rotated_params(b1, c1, b2, c2)
    flags.extend(rec.flags)
    if "c1_flipped_retardance_mod_2pi" in rec.flags and psi is not None:
        psi = float(wrap_axis(psi + 0.5 * math.pi))
    t_perp = rec.tbar + 0.5 * rec.dt
    t_par = rec.tbar - 0.5 * rec.dt
    return SampleEstimate(
        t_perp=t_perp,
        t_par=t_par,
        tbar=rec.tbar,
        dt=rec.dt,
        phibar=float(wrap_pi(phib)),
        dphi=float(wrap_pi(rec.dphi)),
        psi=psi,
        residuals={
            "fit_rms_setting1": fit1.residual_rms,
            "fit_rms_setting2": fit2.residual_rms,
            "amplitude_consistency": rec.residual,
        },
        flags=flags,
    )


def reference_ellipse_mapping(fit, assume):
    amp_x, amp_y, rel_phase = fit.amp_x, fit.amp_y, fit.rel_phase
    if assume == "isotropic_phase":
        b1, c1 = 0.0, amp_x
        b2, c2 = 0.0, amp_y
        psi = float(wrap_axis(-0.5 * rel_phase))
    else:
        b1, c1 = 0.0, amp_x
        b2, c2 = -amp_y, 0.0
        psi = float(wrap_axis(0.5 * (0.5 * math.pi - rel_phase)))
    return b1, c1, b2, c2, psi


def reference_estimate_ellipse(series_setting1, series_setting2,
                               assume="isotropic_phase"):
    if len(series_setting1) != len(series_setting2):
        raise EstimationError("the two series must have matching samples",
                              flag="length_mismatch")
    points = np.column_stack([series_setting1.counts, series_setting2.counts])
    fit = fit_ellipse(points, assume=assume)
    b1, c1, b2, c2, psi = reference_ellipse_mapping(fit, assume)
    rec = recover_rotated_params(b1, c1, b2, c2)
    flags = list(fit.flags) + rec.flags
    return SampleEstimate(
        t_perp=rec.tbar + 0.5 * rec.dt,
        t_par=rec.tbar - 0.5 * rec.dt,
        tbar=rec.tbar,
        dt=rec.dt,
        phibar=None,
        dphi=float(wrap_pi(rec.dphi)),
        psi=psi,
        residuals={
            "conic_rms": fit.residual,
            "amplitude_consistency": rec.residual,
        },
        flags=flags,
    )


def outcome(estimator, *args, **kwargs):
    """The estimate as JSON text (repr of every float: exact to the bit), or
    the error's flag and message."""
    try:
        return json.dumps(estimator(*args, **kwargs).to_json_dict())
    except EstimationError as exc:
        return (exc.flag, str(exc))


TWO_SETTING_ROUTES = [
    (estimate_rotated, reference_estimate_rotated, "isotropic_phase"),
    (estimate_rotated, reference_estimate_rotated, "isotropic_attenuation"),
    (estimate_rotated, reference_estimate_rotated, "general"),
    (estimate_ellipse, reference_estimate_ellipse, "isotropic_phase"),
    (estimate_ellipse, reference_estimate_ellipse, "isotropic_attenuation"),
]


class TestTwoSettingOracle:
    def test_routes_match_reference_bitwise(self):
        # 500 random samples, each scanned noiseless and with Poisson noise;
        # a third are pure retarders, a third pure diattenuators; retardances
        # up to a full turn reach the c1 flip, and a perturbed mean phase
        # makes the general mode reject some records
        rng = np.random.default_rng(20261018)
        seen = collections.Counter()
        for k in range(500):
            tbar = rng.uniform(0.02, 1.0)
            dt = rng.uniform(-1.0, 1.0) * min(2.0 * tbar, 2.0 - 2.0 * tbar)
            dphi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            structure = rng.integers(3)
            if structure == 1:
                dt = 0.0
            elif structure == 2:
                dphi = 0.0
            phibar = rng.uniform(-math.pi, math.pi)
            psi = rng.uniform(0.0, math.pi)
            v = rng.uniform(0.05, 1.0)
            phibar_given = phibar + (rng.normal(0.0, 0.3) if rng.uniform() < 0.5 else 0.0)
            kappa = 10.0 ** rng.uniform(0.5, 4.0)
            for noise in (NoiseModel(KAPPA), NoiseModel(kappa, seed=k, mode="poisson")):
                s1, s2 = (setting_scan(tbar, dt, phibar, dphi, psi, setting, noise=noise, v=v)
                          for setting in (1, 2))
                for estimator, reference, assume in TWO_SETTING_ROUTES:
                    kwargs = {"phibar": phibar_given} if assume == "general" else {}
                    got = outcome(estimator, s1, s2, assume=assume, **kwargs)
                    want = outcome(reference, s1, s2, assume=assume, **kwargs)
                    assert got == want, (k, noise.mode, estimator.__name__, assume)
                    seen["error" if isinstance(got, tuple) else "estimate"] += 1
                    seen["c1_flip"] += "c1_flipped_retardance_mod_2pi" in got
        assert seen["estimate"] + seen["error"] == 5000
        assert seen["error"] > 0 and seen["c1_flip"] > 0

    def test_vanishing_fringes_match_reference(self, monkeypatch):
        # fitted fringes that vanish exactly (psi unidentified, tbar
        # unidentifiable) or share their phase (zero phase lag) are out of
        # reach of simulated records, so the sinusoid fits are drawn directly
        rng = np.random.default_rng(1018)
        fits = {}
        monkeypatch.setattr(estimation, "fit_sinusoid", lambda series: fits[id(series)])
        s1, s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, 1), setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, 2)
        seen = collections.Counter()
        for k in range(300):
            amps = [0.0 if rng.uniform() < 0.3 else rng.uniform(0.0, 1.0) for _ in range(2)]
            phases = list(rng.uniform(-math.pi, math.pi, size=2))
            if rng.uniform() < 0.3:
                phases[1] = phases[0]
            for series, amp, phase in zip((s1, s2), amps, phases):
                fits[id(series)] = SinusoidFit(1.0, 0.0, amp, phase if amp else 0.0, 0.0)
            phibar = rng.uniform(-math.pi, math.pi)
            for assume in ROTATED_ASSUMPTIONS:
                kwargs = {"phibar": phibar} if assume == "general" else {}
                got = outcome(estimate_rotated, s1, s2, assume=assume, **kwargs)
                want = outcome(reference_estimate_rotated, s1, s2, assume=assume, **kwargs)
                assert got == want, (k, assume)
                seen["psi_unidentified"] += "psi_unidentified" in str(got)
                seen["error"] += isinstance(got, tuple)
        assert seen["psi_unidentified"] > 0 and seen["error"] > 0

    def test_fringe_floor_matches_reference(self, monkeypatch):
        # relative fringes below, at and just above the 1e-12 floor, drawn
        # directly as sinusoid fits
        fits = {}
        monkeypatch.setattr(estimation, "fit_sinusoid", lambda series: fits[id(series)])
        s1, s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, 1), setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, 2)
        levels = (0.0, 3e-13, 1e-12, 1.001e-12, 5e-12, 0.4)
        seen = collections.Counter()
        for amp1 in levels:
            for amp2 in levels:
                fits[id(s1)] = SinusoidFit(1.0, 0.0, amp1, 0.3, 0.0)
                fits[id(s2)] = SinusoidFit(1.0, 0.0, amp2, -1.1, 0.0)
                for assume in ROTATED_ASSUMPTIONS:
                    kwargs = {"phibar": 0.2} if assume == "general" else {}
                    got = outcome(estimate_rotated, s1, s2, assume=assume, **kwargs)
                    want = outcome(reference_estimate_rotated, s1, s2, assume=assume, **kwargs)
                    assert got == want, (amp1, amp2, assume)
                    seen["psi_unidentified"] += "psi_unidentified" in str(got)
                    seen["tbar_unidentifiable"] += "tbar_unidentifiable" in str(got)
        assert seen["psi_unidentified"] > 0 and seen["tbar_unidentifiable"] > 0
