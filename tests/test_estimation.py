import cmath
import dataclasses
import math

import numpy as np
import pytest

from nli_polarimetry import (
    CrystalGain,
    EstimationError,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
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
from nli_polarimetry.angles import axis_distance, wrap_pi

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
        with pytest.raises(EstimationError) as err:
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
