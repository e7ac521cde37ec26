import cmath
import collections
import copy
import dataclasses
import gc
import math
import pickle
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    HUGE,
    analyzer_config,
    angles_close,
    axis_distance,
    scaled_counts,
    two_setting_points,
)
from two_setting_draws import two_setting_draws
from nli_polarimetry import (
    CalibrationError,
    CrystalGain,
    EstimationError,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    SampleEstimate,
    ScanSchedule,
    SignalControl,
    TimeSeries,
    UnidentifiableError,
    amplitude_relations,
    calibrate,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    fourier_protocol_schedule,
    harmonic_regress,
    quarter_wave,
    simulate_scan,
)
from nli_polarimetry import estimation, scan
from nli_polarimetry.angles import wrap_pi
from nli_polarimetry.estimation import ROTATED_ASSUMPTIONS, _two_setting_estimate
from nli_polarimetry.scan import _fit_ramp

KAPPA = 1.0e4

EllipseFit = collections.namedtuple("EllipseFit", "amp_x amp_y rel_phase center residual")


def fit_ellipse(points):
    """``estimation._fit_ellipse`` with the fields of its result named."""
    return EllipseFit(*estimation._fit_ellipse(points))


def qwp_pair_config(t_perp, t_par, v=0.5):
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4),
        sample=SampleAxes(t_perp, t_par),
    )


def fourier_scan(t_perp, t_par, xi_bar=0.0, delta_xi=0.0, n_periods=4,
                 samples_per_period=100, noise=None, v=0.5):
    cfg = qwp_pair_config(t_perp, t_par, v=v)
    sched = fourier_protocol_schedule(n_periods, samples_per_period, xi_bar, delta_xi)
    noise = noise or NoiseModel(KAPPA)
    return simulate_scan(cfg, sched, noise, regime="lowgain"), sched


def setting_scan(tbar, dt, phibar, dphi, psi, setting, n=72, noise=None, v=0.5):
    cfg = analyzer_config(tbar, dt, phibar, dphi, psi, setting, v=v)
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

    def test_rejects_bad_scan_rate(self, capfd):
        series, sched = fourier_scan(0.9, 0.2)
        for omega in (0.0, math.nan, math.inf, -math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EstimationError) as err:
                    harmonic_regress(series, omega)
            assert err.value.flag == "bad_scan_rate", omega
            assert str(err.value) == "omega_scan must be nonzero and finite"
        # a rate whose sign the upward record does not have is off its ramp,
        # and so is one whose ramp overflows
        for omega in (-sched.signal_rate, 1e308, -1e308):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EstimationError) as err:
                    harmonic_regress(series, omega)
            assert err.value.flag == "phase_step_mismatch", omega
            assert str(err.value) == "phase columns are not omega_scan * step"
        assert capfd.readouterr().err == ""

    def test_rejects_short_series(self):
        series, sched = fourier_scan(0.9, 0.2, n_periods=4, samples_per_period=100)
        short = TimeSeries(
            step=series.step[:50], phi0=series.phi0[:50],
            delta_phase=series.delta_phase[:50],
            expected_n=series.expected_n[:50], counts=series.counts[:50],
        )
        with pytest.raises(EstimationError):
            harmonic_regress(short, sched.signal_rate)

    def test_rejects_phase_columns_off_the_step_base(self):
        # a 1-based step column under unchanged phase columns would shift
        # every fitted phase by half and three halves of the rate
        series, sched = fourier_scan(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j), v=0.01)
        harmonic_regress(series, sched.signal_rate)
        shifted = dataclasses.replace(series, step=series.step + 1)
        with pytest.raises(EstimationError) as err:
            harmonic_regress(shifted, sched.signal_rate)
        assert err.value.flag == "phase_step_mismatch"

    def test_accepts_a_record_sampled_every_other_step(self):
        # the rule reads the rate per row (2 omega) and the fit runs on step
        series, sched = fourier_scan(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j),
                                     xi_bar=0.23, delta_xi=-0.61, v=0.01)
        kept = slice(None, None, 2)
        decimated = TimeSeries(series.step[kept], series.phi0[kept],
                               series.delta_phase[kept], series.expected_n[kept],
                               series.counts[kept])
        decomp = harmonic_regress(decimated, sched.signal_rate)
        est = extract_sample_fourier(decomp, 2.0 * decomp.dc, 0.23, -0.61)
        assert est.t_perp == pytest.approx(0.9, abs=1e-12)
        assert est.t_par == pytest.approx(0.2, abs=1e-12)
        assert est.dphi == pytest.approx(0.9, abs=1e-12)
        assert est.phibar == pytest.approx(0.4, abs=1e-12)

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

    def test_rejects_bad_amplitude(self, capfd):
        series, sched = fourier_scan(0.9, 0.2)
        decomp = harmonic_regress(series, sched.signal_rate)
        nan, inf = math.nan, math.inf
        for args, flag in (
            ((0.0, 0.0, 0.0), "bad_amplitude"), ((-1.0, 0.0, 0.0), "bad_amplitude"),
            ((nan, 0.0, 0.0), "bad_amplitude"), ((inf, 0.0, 0.0), "bad_amplitude"),
            ((1.0, nan, 0.0), "bad_offset"), ((1.0, 0.0, nan), "bad_offset"),
            ((1.0, -inf, 0.0), "bad_offset"), ((1.0, 0.0, inf), "bad_offset"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EstimationError) as err:
                    extract_sample_fourier(decomp, *args)
            assert err.value.flag == flag, args
        assert capfd.readouterr().err == ""

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


def fit_fringe(series):
    """The rotated route's fringe fit: ``_fit_ramp`` over ``phi0`` at harmonic 1."""
    return _fit_ramp(series, "phi0", 1.0)


class TestFitSinusoid:
    """The rotated route's fringe fit, which reports counts."""

    def test_recovers_gauge_fixed_amplitudes(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        dc, z, _ = fit_fringe(series)
        assert dc == pytest.approx(KAPPA, rel=1e-12)
        assert abs(z) == pytest.approx(0.6 * KAPPA, rel=1e-9)
        assert cmath.phase(z) == pytest.approx(0.4, abs=1e-9)

    def test_setting2_amplitude(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        dc, z, _ = fit_fringe(series)
        assert abs(z / dc) == pytest.approx(0.3, abs=1e-9)

    def test_constant_series(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        flat = TimeSeries(
            step=series.step, phi0=series.phi0, delta_phase=series.delta_phase,
            expected_n=series.expected_n, counts=np.full(len(series), 5.0),
        )
        dc, z, rms = fit_fringe(flat)
        assert dc == pytest.approx(5.0, rel=1e-12)
        assert abs(z / dc) == pytest.approx(0.0, abs=1e-12)
        assert rms == pytest.approx(0.0, abs=1e-12)

    def test_rejects_undersampled(self):
        cfg = qwp_pair_config(0.9, 0.2)
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 6, n_samples=12)
        series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        with pytest.raises(EstimationError):
            fit_fringe(series)

    def test_rejects_nonpositive_dc(self):
        series = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        for level in (0.0, -5.0):
            flat = TimeSeries(
                step=series.step, phi0=series.phi0, delta_phase=series.delta_phase,
                expected_n=series.expected_n, counts=np.full(len(series), level),
            )
            with pytest.raises(EstimationError) as err:
                fit_fringe(flat)
            assert err.value.flag == "bad_amplitude"


def invert_amplitudes(b1, c1, b2, c2):
    """``(tbar, dt, dphi, flags)`` of the two-setting back end for amplitudes
    with c1 >= 0, no psi and no phibar."""
    est = _two_setting_estimate((b1, c1, b2, c2), None, None, {}, [])
    return est.tbar, est.dt, est.dphi, est.flags


class TestRecoverRotatedParams:
    """The recovery of (tbar, dt, dphi) from ``(b1, c1, b2, c2)``, c1 >= 0, by
    the two-setting back end; a negative c1 through the general mode."""

    def test_isotropic_phase_case(self):
        tbar, dt, dphi, _ = invert_amplitudes(0.0, 0.6, 0.0, 0.3)
        assert dphi == pytest.approx(0.0, abs=1e-12)
        assert tbar == pytest.approx(0.6, abs=1e-12)
        assert dt == pytest.approx(0.6, abs=1e-12)

    def test_pure_retarder_quarter_turn(self):
        b1, c1, b2, c2 = amplitude_relations(1.0, 0.0, 0.5 * math.pi)
        tbar, dt, dphi, _ = invert_amplitudes(b1, c1, b2, c2)
        assert dphi == pytest.approx(0.5 * math.pi, abs=1e-12)
        assert tbar == pytest.approx(1.0, abs=1e-12)
        assert dt == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(300):
            tbar = rng.uniform(0.05, 1.0)
            dt = rng.uniform(-1.0, 1.0) * min(2.0 * tbar, 2.0 - 2.0 * tbar + 1e-12)
            dphi = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
            got_tbar, got_dt, got_dphi, _ = invert_amplitudes(
                *amplitude_relations(tbar, dt, dphi))
            assert got_tbar == pytest.approx(tbar, abs=1e-12)
            assert got_dt == pytest.approx(dt, abs=1e-12)
            assert got_dphi == pytest.approx(dphi, abs=1e-12)

    def test_unidentifiable_tbar(self):
        with pytest.raises(UnidentifiableError):
            invert_amplitudes(0.5, 0.0, 0.0, 0.4)

    def test_half_turn_dt_flagged(self):
        b1, c1, b2, c2 = amplitude_relations(0.6, 0.4, math.pi)
        _, dt, _, flags = invert_amplitudes(b1, c1, b2, c2)
        assert "dt_sign_unidentified_at_half_turn" in flags
        assert dt == pytest.approx(0.4, abs=1e-12)

    def test_negative_c1_flip(self):
        # retardance beyond a half turn makes the fitted setting-1 cosine
        # amplitude negative; the general mode flips it as a half turn of
        # phibar, which negates b1 and c1 and so keeps the sign of dt
        # (setting 2's cosine amplitude is the larger root, so the root
        # choice picks the true one)
        tbar, dt, phibar, dphi, psi = 0.5, 0.8, 0.4, 0.2 + 2.0 * math.pi, 1.8
        assert amplitude_relations(tbar, dt, dphi)[1] < 0
        s1, s2 = (setting_scan(tbar, dt, phibar, dphi, psi, setting) for setting in (1, 2))
        est = estimate_rotated(s1, s2, assume="general", phibar=phibar)
        assert est.flags == ["general_mode_root_choice", "c1_flipped_retardance_mod_2pi"]
        assert est.tbar == pytest.approx(tbar, abs=1e-12)
        assert est.dt == pytest.approx(dt, abs=1e-12)
        assert est.dphi == pytest.approx(wrap_pi(dphi), abs=1e-12)
        assert axis_distance(est.psi, psi) < 1e-12


class TestEstimateRotated:
    def test_residuals_are_the_fit_residuals_only(self):
        # each two-setting route reports its own fit's residuals, nothing more
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        assert ((estimate_rotated(s1, s2).residuals.keys(),
                 estimate_ellipse(s1, s2).residuals.keys())
                == ({"fit_rms_setting1", "fit_rms_setting2"}, {"conic_rms"}))

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
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        with pytest.raises(EstimationError):
            estimate_rotated(s1, s2, assume="general")

    def test_general_mode_rejects_nonfinite_phibar(self):
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        for phibar in (math.nan, math.inf, -math.inf):
            with pytest.raises(EstimationError) as err:
                estimate_rotated(s1, s2, assume="general", phibar=phibar)
            assert err.value.flag == "bad_phibar"

    def test_structural_modes_reject_phibar(self):
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        for assume in ("isotropic_phase", "isotropic_attenuation"):
            with pytest.raises(EstimationError) as err:
                estimate_rotated(s1, s2, assume=assume, phibar=2.5)
            assert err.value.flag == "phibar_unused"

    def test_rejects_unknown_assumption(self):
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        with pytest.raises(EstimationError) as err:
            estimate_rotated(s1, s2, assume="bogus")
        assert err.value.flag == "bad_assumption"
        assert str(err.value) == "unknown assumption 'bogus'"

    @pytest.mark.parametrize("assume, phibar, flags", [
        ("isotropic_phase", None, ["psi_unidentified_no_diattenuation_fringe"]),
        ("isotropic_attenuation", None, ["psi_unidentified_no_retardance_fringe"]),
        ("general", 0.4, ["general_mode_root_choice", "psi_unidentified_no_setting2_fringe"]),
        # a half turn off the mean phase: the c1 flip leaves psi None
        ("general", 0.4 + math.pi, ["general_mode_root_choice",
                                    "psi_unidentified_no_setting2_fringe",
                                    "c1_flipped_retardance_mod_2pi"]),
    ], ids=["isotropic_phase", "isotropic_attenuation", "general", "general-flipped"])
    @pytest.mark.parametrize("psi", [0.3, 1.8])
    def test_rounding_noise_fringe_leaves_psi_unidentified(self, assume, phibar, flags, psi):
        # an isotropic sample's setting-2 fringe is rounding noise (about
        # 1e-16 of dc), which must not fix an orientation in any mode (the
        # general mode used to return psi 0.838 for 0.3 and 0.706 for 1.8)
        s1, s2 = (setting_scan(0.6, 0.0, 0.4, 0.0, psi, setting=k, v=0.01) for k in (1, 2))
        kwargs = {} if phibar is None else {"phibar": phibar}
        est = estimate_rotated(s1, s2, assume=assume, **kwargs)
        assert est.psi is None
        assert est.flags == flags
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


# residuals in counts; the others are relative to the fringe amplitudes
COUNT_RESIDUALS = ("harmonic_rms", "fit_rms_setting1", "fit_rms_setting2")


def poisson(seed):
    return NoiseModel(KAPPA, seed=seed, mode="poisson")


def fourier_route(series, sched):
    decomp = harmonic_regress(series, sched.signal_rate)
    return extract_sample_fourier(decomp, 2.0 * decomp.dc, 0.23, -0.61)


def malformed_settings(case, v=0.01):
    """The two analyzer-setting records of the rotated sample (tbar = dt =
    0.6, psi = 1.8) at low gain, scanned so that the record rule refuses
    them with flag ``case``."""
    rate = 2.0 * math.pi / 72
    sched = {
        "mixed_scan": ScanSchedule(signal_rate=rate, diff_rate=0.7 * rate, n_samples=72),
        "undersampled": ScanSchedule(signal_rate=2.0 * math.pi / 4, n_samples=72),
        "series_too_short": ScanSchedule(signal_rate=rate, n_samples=71),
    }.get(case, ScanSchedule(signal_rate=rate, n_samples=72))
    pair = [simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting, v=v), sched,
                          NoiseModel(KAPPA), regime="lowgain") for setting in (1, 2)]
    if case == "nonuniform_scan":
        # the ramp's step grows by 0.1% per period
        pair = [dataclasses.replace(s, phi0=s.phi0 * (1.0 + 1e-3 * s.step / 72)) for s in pair]
    return pair


def malformed_fourier(case, v=0.01):
    """A dual-rate record of the crossed pair (t_perp 0.9, t_par 0.2) at low
    gain and its schedule, scanned so that the record rule refuses it with
    flag ``case``."""
    rate = 4.0 * math.pi / 100
    sched = {
        "undersampled": ScanSchedule(signal_rate=math.pi, diff_rate=math.pi, n_samples=72),
        "series_too_short": ScanSchedule(signal_rate=rate, diff_rate=rate, n_samples=99),
    }.get(case, fourier_protocol_schedule(4, 100))
    series = simulate_scan(qwp_pair_config(0.9, 0.2, v=v), sched, NoiseModel(KAPPA),
                           regime="lowgain")
    if case == "nonuniform_scan":
        # the ramps' step grows by 0.1% per beat period
        grow = 1.0 + 1e-3 * series.step / 100
        series = dataclasses.replace(series, phi0=series.phi0 * grow,
                                     delta_phase=series.delta_phase * grow)
    return series, sched


# each route with the maker of its malformed records
RULE_ROUTES = {
    "rotated": (estimate_rotated, malformed_settings),
    "ellipse": (estimate_ellipse, malformed_settings),
    "fourier": (fourier_route, malformed_fourier),
}
RULE_CASES = [(route, case) for route in ("ellipse", "rotated")
              for case in ("mixed_scan", "nonuniform_scan", "undersampled", "series_too_short")]
RULE_CASES += [("fourier", case) for case in ("nonuniform_scan", "undersampled",
                                              "series_too_short")]


def overflowing_ramp(both):
    """16 finite rows whose phi0 ramp (and delta_phase too if ``both``) spans
    more than the largest double."""
    step = np.arange(16)
    ramp = (step - 7.5) * 1.3e307
    other = ramp if both else np.zeros(16)
    return TimeSeries(step, ramp, other, np.ones(16), np.full(16, 5.0))


class TestRecordRule:
    """The routes refuse a malformed scan alike."""

    @pytest.mark.parametrize("route, case", RULE_CASES,
                             ids=[f"{route}-{case}" for route, case in RULE_CASES])
    def test_routes_raise_the_same_flag(self, route, case):
        estimate, malformed = RULE_ROUTES[route]
        with pytest.raises(EstimationError) as err:
            estimate(*malformed(case))
        assert err.value.flag == case

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("route", ["fourier", "rotated", "ellipse", "calibrate"])
    def test_ramp_beyond_the_largest_double_is_undersampled(self, route):
        # the span (15 steps of 1.3e307) overflows a double, the steps do not
        record = overflowing_ramp(both=route == "fourier")
        if route == "calibrate":
            with pytest.raises(CalibrationError, match="^first scan has fewer than 8 points"):
                calibrate(record, record)
            return
        estimate = {"fourier": lambda s: harmonic_regress(s, 1.3e307),
                    "rotated": lambda s: estimate_rotated(s, s),
                    "ellipse": lambda s: estimate_ellipse(s, s)}[route]
        with pytest.raises(EstimationError) as err:
            estimate(record)
        assert err.value.flag == "undersampled"

    @pytest.mark.parametrize("case", ["mixed_scan", "nonuniform_scan", "undersampled",
                                      "series_too_short", "bad_amplitude"])
    def test_calibration_raises_the_rotated_routes_flag(self, case):
        # the same bad record as calibration's first scan and as setting 1
        if case == "bad_amplitude":
            pair = [dataclasses.replace(s, counts=-s.counts) for s in malformed_settings("ok")]
        else:
            pair = malformed_settings(case)
        with pytest.raises(EstimationError) as rotated:
            estimate_rotated(*pair)
        with pytest.raises(CalibrationError) as calibration:
            calibrate(*pair)
        assert calibration.value.flag == rotated.value.flag == case

    @pytest.mark.parametrize("case", ["mixed_scan", "undersampled", "bad_amplitude",
                                      "nonfinite_counts"])
    def test_calibration_refuses_with_the_rotated_routes_error_under_its_label(self, case):
        # one error family: calibration's refusal is the rotated route's
        # flag and message, which opens with "scan", naming the first scan
        assert issubclass(CalibrationError, EstimationError)
        pair = malformed_settings(case if case in ("mixed_scan", "undersampled") else "ok")
        if case == "bad_amplitude":
            pair = [dataclasses.replace(s, counts=-s.counts) for s in pair]
        elif case == "nonfinite_counts":
            pair = [edited_record(s, "counts", math.nan) for s in pair]
        with pytest.raises(EstimationError) as rotated:
            estimate_rotated(*pair)
        with pytest.raises(CalibrationError) as calibration:
            calibrate(*pair)
        assert type(rotated.value) is EstimationError
        assert calibration.value.flag == rotated.value.flag == case
        assert str(rotated.value).startswith("scan ")
        assert str(calibration.value) == "first " + str(rotated.value)

    @pytest.mark.parametrize("order", ["first", "second"])
    @pytest.mark.parametrize("flag, message", [
        ("bad_amplitude", "scan has a nonpositive mean count level"),
        ("nonfinite_counts", "scan counts or their fit residual are not finite"),
        ("rank_deficient", "scan design matrix is rank deficient"),
    ])
    def test_calibration_names_the_scan_the_kernel_refuses(self, monkeypatch, order, flag,
                                                           message):
        # the kernel's refusals open with "scan" too, so calibration names
        # the refused scan for them as for the rule's; copies hold no layout
        sig, idl = map(hand_built, round_trip_records("lowgain", 0.5)[:2])
        bad, harmonic = (sig, 1.0) if order == "first" else (idl, 0.5)
        if flag == "bad_amplitude":
            bad.counts = -bad.counts
        elif flag == "nonfinite_counts":
            bad.counts[40] = math.nan
        else:
            # a rank-one design for the refused scan's harmonic only
            design = scan._design
            monkeypatch.setattr(scan, "_design", lambda t, rates: (
                np.ones((len(t), 3)) if rates == (harmonic,) else design(t, rates)))
        with pytest.raises(CalibrationError) as err:
            calibrate(sig, idl)
        assert err.value.flag == flag
        assert str(err.value) == f"{order} {message}"


# each structural assumption with a sample it holds for: (tbar, dt, dphi)
DOWNWARD_SAMPLES = {"isotropic_phase": (0.6, 0.6, 0.0),
                    "isotropic_attenuation": (0.6, 0.0, 0.7)}


class TestDownwardScans:
    """A record scanned downward (a negative rate) gives the estimate of the
    same record scanned upward: the record rule reads |rate|, and each route
    reads the ramp's direction from the record."""

    @pytest.mark.parametrize("assume", list(DOWNWARD_SAMPLES))
    def test_ellipse_reads_a_downward_pair_as_the_upward_one(self, assume):
        tbar, dt, dphi = DOWNWARD_SAMPLES[assume]
        estimates = {}
        for sign in (1.0, -1.0):
            sched = ScanSchedule(signal_rate=sign * 2.0 * math.pi / 72, n_samples=72)
            pair = [simulate_scan(analyzer_config(tbar, dt, 0.4, dphi, 1.8, setting, v=0.01),
                                  sched, NoiseModel(KAPPA), regime="lowgain")
                    for setting in (1, 2)]
            estimates[sign] = estimate_ellipse(*pair, assume=assume)
            rotated = estimate_rotated(*pair, assume=assume)
            assert axis_distance(rotated.psi, 1.8) < 1e-9
        up, down = estimates[1.0], estimates[-1.0]
        assert axis_distance(up.psi, 1.8) < 1e-6
        assert axis_distance(down.psi, up.psi) < 1e-9
        for name in ("t_perp", "t_par", "tbar", "dt", "dphi"):
            assert getattr(down, name) == pytest.approx(getattr(up, name), abs=1e-9), name
        assert down.phibar is up.phibar is None
        assert down.flags == up.flags

    def test_fourier_reads_a_downward_dual_scan_as_the_upward_one(self):
        cfg = qwp_pair_config(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j), v=0.01)
        up = fourier_protocol_schedule(4, 100, 0.23, -0.61)
        down = ScanSchedule(0.23, -0.61, -up.signal_rate, -up.diff_rate, up.n_samples)
        estimates = []
        for sched in (up, down):
            series = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="lowgain")
            decomp = harmonic_regress(series, sched.signal_rate)
            estimates.append(extract_sample_fourier(decomp, 2.0 * decomp.dc, 0.23, -0.61))
        for name, truth in (("t_perp", 0.9), ("t_par", 0.2), ("dphi", 0.9), ("phibar", 0.4)):
            got_up, got_down = getattr(estimates[0], name), getattr(estimates[1], name)
            assert got_down == pytest.approx(got_up, abs=1e-9), name
            assert got_up == pytest.approx(truth, abs=1e-2), name
        assert estimates[1].flags == estimates[0].flags


def edited_record(record, column, value, row=40):
    """A writeable copy of ``record`` with ``value`` written into ``column``
    at ``row`` after construction, where ``TimeSeries``'s check cannot see it."""
    copied = copy.deepcopy(record)
    getattr(copied, column)[row] = value
    return copied


# values edited into a record, each with the flag of the rotated route
# (either setting) and of calibration's first scan
EDITS = {
    "phi0-nan": ("phi0", math.nan, "nonuniform_scan"),
    "phi0-inf": ("phi0", math.inf, "nonuniform_scan"),
    "delta_phase-nan": ("delta_phase", math.nan, "mixed_scan"),
    "counts-nan": ("counts", math.nan, "nonfinite_counts"),
    "counts-inf": ("counts", math.inf, "nonfinite_counts"),
    "counts-minus-inf": ("counts", -math.inf, "nonfinite_counts"),
}


class TestEditedRecords:
    """A NaN or infinite value edited into a record after its check is
    refused with a flag by every route, and nothing reaches stderr: no
    LAPACK message, no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("edit", list(EDITS))
    def test_every_route_flags_the_edit(self, edit, capfd):
        column, value, flag = EDITS[edit]
        s1, s2 = malformed_settings("ok")
        sig, idl = round_trip_records("lowgain", 0.5)[:2]
        series, sched = malformed_fourier("ok")
        # the idler scan ramps delta_phase, the Fourier scan both columns
        idler_flag = {"phi0": "mixed_scan", "delta_phase": "nonuniform_scan"}.get(column, flag)
        fourier_flag = "nonfinite_counts" if column == "counts" else "nonuniform_scan"
        ellipse_flag = "nonfinite_points" if column == "counts" else "phase_mismatch"
        bad = edited_record(s1, column, value)
        for call, error, want in (
            (lambda: estimate_rotated(bad, s2), EstimationError, flag),
            (lambda: estimate_rotated(s2, edited_record(s2, column, value)), EstimationError,
             flag),
            (lambda: estimate_ellipse(bad, s2), EstimationError, ellipse_flag),
            (lambda: calibrate(edited_record(sig, column, value), idl), CalibrationError, flag),
            (lambda: calibrate(sig, edited_record(idl, column, value)), CalibrationError,
             idler_flag),
            (lambda: fourier_route(edited_record(series, column, value), sched),
             EstimationError, fourier_flag),
        ):
            with pytest.raises(error) as err:
                call()
            assert err.value.flag == want
        assert capfd.readouterr().err == ""


def round_trip_configs(v):
    """The four configurations of ``round_trip_records`` at gain ``v``: the
    empty and loaded crossed pair, and the rotated sample's two settings."""
    return (qwp_pair_config(1.0, 1.0, v=v),
            qwp_pair_config(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j), v=v),
            *(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting, v=v) for setting in (1, 2)))


def round_trip_schedules(xi_bar=0.23, delta_xi=-0.61):
    """The four schedules of ``round_trip_records``: the two calibration
    scans (400 steps), the dual-rate scan (four beat periods of 100 steps)
    and the analyzer settings' scan (72 steps)."""
    return (ScanSchedule(xi_bar, delta_xi, 2.0 * math.pi / 100, 0.0, 400),
            ScanSchedule(xi_bar, delta_xi, 0.0, 4.0 * math.pi / 160, 400),
            fourier_protocol_schedule(4, 100, xi_bar, delta_xi),
            ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72))


def round_trip_records(regime, v, seed=11, xi_bar=0.23, delta_xi=-0.61, configs=None,
                       schedules=None):
    """The five Poisson records of a calibrate -> Fourier -> rotated ->
    ellipse round trip at gain ``v``, about 1e4 counts per step, simulated
    on ``configs`` (new ``round_trip_configs`` by default) and ``schedules``
    (new ``round_trip_schedules`` by default, which die on return, and with
    them their layouts)."""
    def record(cfg, sched, k):
        noise = NoiseModel(5.0e3 / v, seed=seed + k, mode="poisson")
        return simulate_scan(cfg, sched, noise, regime=regime)
    empty, loaded, *settings = configs or round_trip_configs(v)
    sig_sched, idl_sched, sched, setting_sched = (schedules
                                                  or round_trip_schedules(xi_bar, delta_xi))
    return (
        record(empty, sig_sched, 0),
        record(empty, idl_sched, 1),
        (record(loaded, sched, 2), sched),
        *(record(cfg, setting_sched, 3 + k) for k, cfg in enumerate(settings)),
    )


def hex_fields(result):
    """``float.hex`` of every float (and of both parts of every complex) of a
    ``Calibration``, ``SampleEstimate`` or ``HarmonicDecomposition``."""
    def walk(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, complex):
            return value.real.hex(), value.imag.hex()
        if isinstance(value, dict):
            return {key: walk(item) for key, item in value.items()}
        return value
    return walk(dataclasses.asdict(result))


def round_trip_stages(records):
    """The four estimation stages of a round trip on ``round_trip_records``."""
    sig, idl, (series, sched), s1, s2 = records
    return {
        "calibration": lambda: calibrate(sig, idl),
        "fourier": lambda: fourier_route(series, sched),
        "rotated": lambda: estimate_rotated(s1, s2),
        "ellipse": lambda: estimate_ellipse(s1, s2),
    }


def flat_records(records):
    sig, idl, (series, _), s1, s2 = records
    return sig, idl, series, s1, s2


def hand_built(record):
    """A record built by hand from copies of the columns: on no layout."""
    return TimeSeries(*(getattr(record, name).copy() for name in scan._SERIES_FIELDS))


def map_records(records, make):
    """``round_trip_records`` with ``make`` of each record."""
    sig, idl, (series, sched), s1, s2 = records
    return make(sig), make(idl), (make(series), sched), make(s1), make(s2)


# the gains of the exact benchmark workload
GAIN_SWEEP = (0.01, 0.1, 0.5, 1.0, 2.0)
ROUND_TRIPS = [(regime, v) for regime in ("lowgain", "exact") for v in GAIN_SWEEP]
# scan rates: phase-like ones, and any finite double, whose ramp may overflow
RATES = st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False)


class TestStridedColumns:
    @pytest.mark.parametrize("regime, v", [("lowgain", 0.5), ("exact", 2.0)])
    def test_strided_columns_fit_like_contiguous_copies(self, regime, v):
        # ``from_csv`` returns each column as a ``data[:, k]`` view of one
        # row-major array; every route fits such a record to the bits of
        # contiguous copies of its columns
        def strided(record):
            data = np.column_stack([getattr(record, name) for name in scan._SERIES_FIELDS])
            return TimeSeries(record.step.copy(), *data[:, 1:].T)
        records = round_trip_records(regime, v)
        views = map_records(records, strided)
        for record in flat_records(views):
            assert not (record.counts.flags.c_contiguous or record.phi0.flags.c_contiguous)
        want = {name: hex_fields(stage())
                for name, stage in round_trip_stages(map_records(records, hand_built)).items()}
        assert {name: hex_fields(stage())
                for name, stage in round_trip_stages(views).items()} == want


@pytest.fixture
def builds(monkeypatch):
    """Counts of the record rule's verdicts (the Fourier route's step check
    among them) and the harmonic designs built, while the test runs."""
    counts = collections.Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counting(scan, "_phase_verdict")
    counting(scan, "_design")
    return counts


class TestPhaseLayoutMemo:
    """Every record ``simulate_scan`` builds on one ramp shape holds that
    shape's ``scan._Layout`` columns; the record rule's verdict (the
    Fourier route's step check within it) and the harmonic designs'
    least-squares solves are built once per layout, and a kept result
    changes no bit."""

    @pytest.mark.parametrize("regime, v", ROUND_TRIPS, ids=[f"{r}-{v}" for r, v in ROUND_TRIPS])
    def test_cold_and_warm_memos_give_the_same_bits(self, regime, v, builds):
        schedules = round_trip_schedules()
        records = round_trip_records(regime, v, schedules=schedules)
        layouts = {scan._layout_of(r) for r in flat_records(records)}
        assert None not in layouts and len(layouts) == 4
        stages = round_trip_stages(records)
        cold = {}
        for name, stage in stages.items():
            for layout in layouts:
                layout.kept.clear()
            cold[name] = hex_fields(stage())
        for stage in stages.values():
            stage()
        built = collections.Counter(builds)
        warm = {name: hex_fields(stage()) for name, stage in stages.items()}
        assert builds == built  # the warm pass built nothing
        # records without a layout are checked on every call, six times with
        # the ellipse route's check of setting 1, and get a design for each
        # of the five fits (the ellipse route fits no ramp, so builds none)
        fresh = {name: hex_fields(stage())
                 for name, stage in round_trip_stages(map_records(records, hand_built)).items()}
        assert builds - built == {"_phase_verdict": 6, "_design": 5}
        assert warm == cold == fresh

    def test_each_verdict_and_design_is_built_once_per_layout(self, builds):
        # four layouts: each keeps one build, a verdict (the Fourier
        # layout's with its step check) and its design; later round trips on
        # new Poisson records of the same schedules build nothing
        schedules = round_trip_schedules()
        records = round_trip_records("lowgain", 0.5, schedules=schedules)
        for layout in {scan._layout_of(r) for r in flat_records(records)}:
            layout.kept.clear()
        for stage in round_trip_stages(records).values():
            stage()
        assert builds == {"_phase_verdict": 4, "_design": 4}
        for seed in (12, 13, 14):
            records = round_trip_records("lowgain", 0.5, seed=seed, schedules=schedules)
            for stage in round_trip_stages(records).values():
                stage()
        assert builds == {"_phase_verdict": 4, "_design": 4}

    def test_a_refused_layout_keeps_nothing_and_a_passed_one_keeps_its_verdict(self, builds):
        # 4 points per period: each fit judges the layout's records again and
        # refuses them with one message and flag, and the layout keeps no key
        refused = ScanSchedule(signal_rate=2.0 * math.pi / 4, n_samples=72)
        passed = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        pairs = [[simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting), sched,
                                NoiseModel(KAPPA), regime="lowgain") for setting in (1, 2)]
                 for sched in (refused, passed)]
        for sched in (refused, passed):
            sched._layout.kept.clear()
        outcomes = []
        for _ in range(2):
            with pytest.raises(EstimationError) as err:
                estimate_rotated(*pairs[0])
            outcomes.append((type(err.value), str(err.value), err.value.flag))
        assert outcomes == [(EstimationError, "scan has fewer than 8 points per period",
                             "undersampled")] * 2
        assert refused._layout.kept == {}
        assert builds == {"_phase_verdict": 2}  # no design for a refused record
        # both settings of the passed layout, on two fits: one verdict and
        # its design built, kept as one entry
        for _ in range(2):
            estimate_rotated(*pairs[1])
        assert builds == {"_phase_verdict": 3, "_design": 1}
        assert list(passed._layout.kept) == [("phi0", 1.0, (1.0,), None)]

    def test_a_kept_solve_is_read_only(self):
        # a record on a layout gets the kept solve on every fit; a record
        # built by hand gets a new solve of the same bytes on each
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        record = simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1), sched,
                               NoiseModel(KAPPA), regime="lowgain")
        assert scan._layout_of(record) is sched._layout
        args = ("phi0", 1.0, (1.0,))
        kept = scan._kept_design(record, *args)
        assert scan._kept_design(record, *args) is kept
        for array in kept:
            with pytest.raises(ValueError):
                array[0, 0] = 2.0
            with pytest.raises(ValueError):
                array.flags.writeable = True
        fresh = [scan._kept_design(hand_built(record), *args) for _ in range(2)]
        for solve in fresh:
            for array, kept_array in zip(solve, kept):
                assert not np.shares_memory(array, kept_array)
                assert array.tobytes() == kept_array.tobytes()
        assert not any(np.shares_memory(a, b) for a, b in zip(*fresh))

    def test_the_svd_runs_once_per_kept_key(self, monkeypatch):
        # four layouts keep one solve each; the fits of later round trips on
        # new records of the same schedules run no SVD (the ellipse stage,
        # whose conic fit runs an SVD of its own, is left out)
        schedules = round_trip_schedules()
        records = round_trip_records("lowgain", 0.5, schedules=schedules)
        layouts = {scan._layout_of(r) for r in flat_records(records)}
        for layout in layouts:
            layout.kept.clear()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        for seed in (11, 12, 13):
            records = round_trip_records("lowgain", 0.5, seed=seed, schedules=schedules)
            for name, stage in round_trip_stages(records).items():
                if name != "ellipse":  # the conic fit runs an SVD of its own
                    stage()
        assert len(calls) == 4
        assert sorted(len(layout.kept) for layout in layouts) == [1, 1, 1, 1]

    def test_an_edited_count_moves_the_fit(self):
        # the solve is kept, the counts are read on every fit
        schedules = round_trip_schedules()
        sig, idl, (series, sched), s1, s2 = round_trip_records("lowgain", 0.5,
                                                               schedules=schedules)
        stages = {"calibration": lambda: calibrate(sig, idl),
                  "fourier": lambda: harmonic_regress(series, sched.signal_rate),
                  "rotated": lambda: estimate_rotated(s1, s2)}
        before = {name: hex_fields(stage()) for name, stage in stages.items()}
        for record in (sig, series, s1):
            record.counts[7] += 1.0
        after = {name: hex_fields(stage()) for name, stage in stages.items()}
        for name in stages:
            assert after[name] != before[name]
        for record in (sig, series, s1):
            record.counts[7] -= 1.0
        assert {name: hex_fields(stage()) for name, stage in stages.items()} == before

    def test_perturbed_delta_phase_is_still_mixed(self):
        s1, s2 = malformed_settings("ok")
        estimate_rotated(s1, s2)
        delta_phase = s1.delta_phase.copy()
        delta_phase[40] += 1e-9
        mixed = dataclasses.replace(s1, delta_phase=delta_phase)
        np.testing.assert_array_equal(mixed.phi0, s1.phi0)
        with pytest.raises(EstimationError) as err:
            estimate_rotated(mixed, s2)
        assert err.value.flag == "mixed_scan"

    def test_column_edited_in_place_is_seen(self):
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        s1, s2 = (simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting, v=0.01),
                                sched, NoiseModel(KAPPA), regime="lowgain") for setting in (1, 2))
        before = estimate_rotated(s1, s2)
        # the shared columns cannot be edited, nor made writeable
        for column in (s1.step, s1.phi0, s1.delta_phase):
            with pytest.raises(ValueError):
                column[40] += 1
            with pytest.raises(ValueError):
                column.flags.writeable = True
        assert hex_fields(estimate_rotated(s1, s2)) == hex_fields(before)
        # an edited copy is refused
        phi0 = s1.phi0.copy()
        phi0[40] += 1e-3
        with pytest.raises(EstimationError) as err:
            estimate_rotated(dataclasses.replace(s1, phi0=phi0), s2)
        assert err.value.flag == "nonuniform_scan"
        # the same ramp shifted by a constant passes, with the bits of a
        # record built by hand from fresh arrays
        shifted = estimate_rotated(dataclasses.replace(s1, phi0=s1.phi0 + 0.5), s2)
        assert shifted.psi != before.psi
        by_hand = TimeSeries(np.arange(72), s1.phi0 + 0.5, np.zeros(72), s1.expected_n.copy(),
                             s1.counts.copy())
        assert hex_fields(estimate_rotated(by_hand, s2)) == hex_fields(shifted)

    def test_kept_results_are_told_apart_by_their_arguments(self):
        # one layout asked with other harmonics, columns and rates answers
        # each as a record without a layout does
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        record = simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1), sched,
                               poisson(1), regime="lowgain")
        fresh = hand_built(record)

        def outcomes(series):
            found = []
            for call in (lambda: _fit_ramp(series, "phi0", 1.0),
                         lambda: _fit_ramp(series, "phi0", 2.0),
                         lambda: _fit_ramp(series, "phi0", 10.0),
                         lambda: _fit_ramp(series, "delta_phase", 1.0),
                         lambda: _fit_ramp(series, "phi0", 1.0)):
                try:
                    dc, z, rms = call()
                    found.append((dc.hex(), z.real.hex(), z.imag.hex(), rms.hex()))
                except EstimationError as err:
                    found.append(err.flag)
            return found
        got = outcomes(record)
        assert got == outcomes(fresh)
        assert got[2:4] == ["undersampled", "mixed_scan"] and got[0] != got[1]
        series, fourier = fourier_scan(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j),
                                       noise=poisson(2))
        rate = fourier.signal_rate
        for omega in (rate, 1.5 * rate, rate, np.array(rate)):
            results = []
            for candidate in (series, hand_built(series)):
                try:
                    results.append(hex_fields(harmonic_regress(candidate, omega)))
                except EstimationError as err:
                    results.append(err.flag)
            assert results[0] == results[1]
            assert (results[0] == "phase_step_mismatch") == (omega != rate)

    def test_ellipse_skips_the_phase_comparison_only_within_one_layout(self):
        # the skip goes by column objects, which records of one layout
        # share; records of two layouts, or a shifted copy, are compared
        rate = 2.0 * math.pi / 72
        schedules = [ScanSchedule(signal_rate=r, n_samples=72) for r in (rate, 2.0 * rate)]
        s1, s2, other = (simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting), sched,
                                       NoiseModel(KAPPA), regime="lowgain")
                         for setting, sched in ((1, schedules[0]), (2, schedules[0]),
                                                (2, schedules[1])))
        assert (hex_fields(estimate_ellipse(s1, s2))
                == hex_fields(estimate_ellipse(hand_built(s1), hand_built(s2))))
        for partner in (other, dataclasses.replace(s2, phi0=s2.phi0 + 0.5)):
            for pair in ((s1, partner), (partner, s1)):
                with pytest.raises(EstimationError) as err:
                    estimate_ellipse(*pair)
                assert err.value.flag == "phase_mismatch"

    def test_ellipse_pairs_shared_column_objects_uncompared(self, monkeypatch):
        # hand-built records that hold s1's very phase-column objects give
        # the bits of fresh copies, and compare nothing
        s1, s2 = malformed_settings("ok")
        shared = [TimeSeries(s1.step, s1.phi0, s1.delta_phase, s.expected_n, s.counts)
                  for s in (s1, s2)]
        copies = [TimeSeries(*(getattr(s, name).copy() for name in scan._SERIES_FIELDS))
                  for s in (s1, s2)]
        want = hex_fields(estimate_ellipse(*copies))
        assert hex_fields(estimate_ellipse(s1, s2)) == want
        compared = []
        array_equal = np.array_equal
        monkeypatch.setattr(np, "array_equal",
                            lambda a, b: compared.append(1) or array_equal(a, b))
        assert hex_fields(estimate_ellipse(*shared)) == want
        assert compared == []

    @pytest.mark.parametrize("copied", ["phi0", "delta_phase"])
    def test_ellipse_compares_a_copied_column_next_to_a_shared_one(self, copied):
        s1, s2 = malformed_settings("ok")
        want = hex_fields(estimate_ellipse(s1, s2))
        column = getattr(s1, copied).copy()
        partner = dataclasses.replace(s2, **{copied: column})
        assert getattr(partner, copied) is not getattr(s1, copied)
        assert hex_fields(estimate_ellipse(s1, partner)) == want
        column[40] += 1e-3
        for pair in ((s1, partner), (partner, s1)):
            with pytest.raises(EstimationError) as err:
                estimate_ellipse(*pair)
            assert err.value.flag == "phase_mismatch"

    @pytest.mark.parametrize("column, flag", [("phi0", "nonuniform_scan"),
                                              ("delta_phase", "mixed_scan")])
    def test_shared_column_edited_to_nan_is_refused_by_the_rule(self, column, flag, capfd):
        # both records hold one writeable column; a NaN written into it is
        # in both, so the pair is not compared, and the record rule refuses it
        s1, s2 = malformed_settings("ok")
        values = getattr(s1, column).copy()
        pair = [dataclasses.replace(s, **{column: values}) for s in (s1, s2)]
        want = hex_fields(estimate_ellipse(s1, s2))
        assert hex_fields(estimate_ellipse(*pair)) == want
        values[40] = math.nan
        with pytest.raises(EstimationError) as err:
            estimate_ellipse(*pair)
        assert err.value.flag == flag
        assert capfd.readouterr().err == ""

    def test_long_records_are_kept_too(self, builds):
        # no row bound: a 5000-row pair builds one verdict and one design
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=5000)
        s1, s2 = (simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting), sched,
                                poisson(setting), regime="lowgain") for setting in (1, 2))
        first = estimate_rotated(s1, s2)
        assert hex_fields(estimate_rotated(s1, s2)) == hex_fields(first)
        assert (hex_fields(estimate_rotated(hand_built(s1), hand_built(s2)))
                == hex_fields(first))
        assert builds == {"_phase_verdict": 1 + 2, "_design": 1 + 2}

    def test_schedules_of_one_ramp_shape_share_a_layout_that_dies_with_the_last(self):
        rate = 2.0 * math.pi / 71  # a ramp shape no other live schedule has
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1)
        schedules = [ScanSchedule(0.001 * k, -0.002 * k, rate, 0.0, 71) for k in range(1000)]
        assert all("_layout" not in vars(s) for s in schedules)  # nothing built at construction
        records = [simulate_scan(cfg, s, NoiseModel(KAPPA), regime="lowgain") for s in schedules]
        layout = weakref.ref(schedules[0]._layout)
        assert all(s._layout is layout() for s in schedules)
        assert all(scan._layout_of(r) is layout() for r in records)
        assert all(r.phi0 is records[0].phi0 for r in records)
        assert len({id(r.counts) for r in records}) == len(records)  # counts stay per record
        alive = estimate_rotated(records[0], records[0])
        del schedules[:-1]
        assert layout() is not None
        del schedules
        assert layout() is None
        assert (rate.hex(), 0.0.hex(), 71) not in scan._LAYOUTS
        # the records keep their columns and are now checked afresh
        assert scan._layout_of(records[0]) is None
        assert hex_fields(estimate_rotated(records[0], records[0])) == hex_fields(alive)

    def test_signed_zero_rates_get_different_layouts(self):
        rate = 2.0 * math.pi / 72
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1)
        positive, negative = (ScanSchedule(signal_rate=rate, diff_rate=zero, n_samples=72)
                              for zero in (0.0, -0.0))
        records = [simulate_scan(cfg, s, NoiseModel(KAPPA), regime="lowgain")
                   for s in (positive, negative)]
        assert positive._layout is not negative._layout
        assert not np.signbit(records[0].delta_phase[1:]).any()
        assert np.signbit(records[1].delta_phase[1:]).all()
        # each kept verdict and design is the one of a fresh record
        for record in records:
            assert (hex_fields(estimate_rotated(record, record))
                    == hex_fields(estimate_rotated(hand_built(record), hand_built(record))))

    @pytest.mark.parametrize("kind", ["hand_built", "replaced", "deep_copy", "reversed_view",
                                      "reassigned"])
    def test_records_off_the_layout_are_checked_afresh(self, kind, builds):
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        s1, s2 = (simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, setting), sched,
                                NoiseModel(KAPPA), regime="lowgain") for setting in (1, 2))
        estimate_rotated(s1, s2)
        kept = dict(sched._layout.kept)
        if kind == "hand_built":
            # copies of the layout's columns: checked and passed
            record, flag = hand_built(s1), None
        elif kind == "replaced":
            record, flag = dataclasses.replace(s1, phi0=s1.phi0 * (1.0 + 1e-3 * s1.step / 72)), \
                "nonuniform_scan"
        elif kind == "deep_copy":
            record, flag = copy.deepcopy(s1), "nonuniform_scan"
            record.phi0[40] += 1e-3
        elif kind == "reversed_view":
            record, flag = dataclasses.replace(s1, delta_phase=s1.phi0[::-1]), "mixed_scan"
        else:
            # a simulated record given a new column
            record = simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1), sched,
                                   NoiseModel(KAPPA), regime="lowgain")
            record.delta_phase, flag = record.phi0[::-1], "mixed_scan"
        assert scan._layout_of(record) is None
        for _ in range(2):
            verdicts = builds["_phase_verdict"]
            if flag is None:
                estimate_rotated(record, s2)
            else:
                with pytest.raises(EstimationError) as err:
                    estimate_rotated(record, s2)
                assert err.value.flag == flag
            assert builds["_phase_verdict"] == verdicts + 1
        assert sched._layout.kept == kept

    @pytest.mark.parametrize("kind", ["copy", "replaced_counts", "hand_built_shared"])
    def test_records_holding_the_layout_columns_share_its_results(self, kind, builds):
        # column identity is the one rule: a copy, a replace of other columns
        # and a hand-built record on the same column objects build nothing
        make = {
            "copy": copy.copy,
            "replaced_counts": lambda r: dataclasses.replace(r, counts=r.counts.copy()),
            "hand_built_shared": lambda r: TimeSeries(r.step, r.phi0, r.delta_phase,
                                                      r.expected_n.copy(), r.counts.copy()),
        }[kind]
        schedules = round_trip_schedules()
        records = round_trip_records("lowgain", 0.5, schedules=schedules)
        want = {name: hex_fields(stage()) for name, stage in round_trip_stages(records).items()}
        shared = map_records(records, make)
        for clone, record in zip(flat_records(shared), flat_records(records)):
            assert clone is not record
            assert scan._layout_of(clone) is scan._layout_of(record) is not None
        built = collections.Counter(builds)
        got = {name: hex_fields(stage()) for name, stage in round_trip_stages(shared).items()}
        assert builds == built
        fresh = {name: hex_fields(stage())
                 for name, stage in round_trip_stages(map_records(records, hand_built)).items()}
        assert builds != built
        assert got == want == fresh

    @pytest.mark.parametrize("kind", ["deep_copy", "pickle", "replaced_column",
                                      "reversed_column", "schedule_collected"])
    def test_records_off_the_layout_columns_are_checked_again(self, kind, builds):
        # equal values in other objects share nothing: each call checks the
        # record and builds its design, with the bits of the shared record
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 73, n_samples=73)
        record = simulate_scan(analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1), sched,
                               poisson(1), regime="lowgain")
        want = hex_fields(estimate_rotated(record, record))
        layout = weakref.ref(sched._layout)
        if kind == "deep_copy":
            record = copy.deepcopy(record)
        elif kind == "pickle":
            record = pickle.loads(pickle.dumps(record))
        elif kind == "replaced_column":
            record = dataclasses.replace(record, phi0=record.phi0.copy())
        elif kind == "reversed_column":
            # the zero delta_phase column, reversed: equal values, a new view
            record = dataclasses.replace(record, delta_phase=record.delta_phase[::-1])
        else:
            del sched
            gc.collect()
            assert layout() is None
        assert scan._layout_of(record) is None
        for calls in (1, 2):
            assert hex_fields(estimate_rotated(record, record)) == want
            assert builds == {"_phase_verdict": 1 + 2 * calls, "_design": 1 + 2 * calls}

    @settings(max_examples=60, deadline=None)
    @given(signal_rate=RATES, diff_rate=RATES, n=st.integers(8, 80),
           regime=st.sampled_from(["exact", "lowgain"]),
           mode=st.sampled_from(["noiseless", "poisson"]))
    def test_simulated_records_pass_the_record_check(self, signal_rate, diff_rate, n, regime,
                                                     mode):
        sched = ScanSchedule(0.23, -0.61, signal_rate, diff_rate, n)
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1)
        try:
            record = simulate_scan(cfg, sched, NoiseModel(KAPPA, 3, mode), regime=regime)
        except OverflowError as exc:
            # only a ramp past the largest double overflows here
            assert str(exc) == "scan phases overflow a double"
            layout = sched._layout
            assert not (np.isfinite(layout.phi0).all() and np.isfinite(layout.delta_phase).all())
            return
        assert np.isfinite(record.phi0).all() and np.isfinite(record.delta_phase).all()
        assert scan._layout_of(record) is sched._layout
        # the record skipped the check that TimeSeries runs, and passes it
        scan._name_series_fault([getattr(record, name) for name in scan._SERIES_FIELDS])

    @pytest.mark.parametrize("clone", ["copy", "deepcopy", "pickle"])
    def test_schedules_copy_and_pickle_hold_the_live_layout(self, clone):
        shallow = clone == "copy"
        clone = {"copy": copy.copy, "deepcopy": copy.deepcopy,
                 "pickle": lambda x: pickle.loads(pickle.dumps(x))}[clone]
        sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1)
        record = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="lowgain")
        sched_copy, record_copy = clone(sched), clone(record)
        # the layout copies as the live layout of its ramp shape
        assert sched_copy == sched and vars(sched_copy)["_layout"] is sched._layout
        # a record is plain data: a shallow copy holds the very columns, and
        # so the layout; a deep copy or a pickle holds new arrays
        assert vars(record_copy).keys() == set(scan._SERIES_FIELDS)
        assert scan._layout_of(record_copy) is (sched._layout if shallow else None)
        for name in scan._SERIES_FIELDS:
            np.testing.assert_array_equal(getattr(record_copy, name), getattr(record, name))
        assert (hex_fields(estimate_rotated(record_copy, record_copy))
                == hex_fields(estimate_rotated(record, record)))
        # the copied schedule's records hold the layout's columns, with the bits
        again = simulate_scan(cfg, sched_copy, NoiseModel(KAPPA), regime="lowgain")
        assert sched_copy._layout is sched._layout and again.phi0 is record.phi0
        assert (again.expected_n.tobytes(), again.counts.tobytes()) == (
            record.expected_n.tobytes(), record.counts.tobytes())

    def test_a_schedule_unpickled_after_its_layout_died_builds_it_anew(self):
        rate = 2.0 * math.pi / 74  # a ramp shape no other live schedule has
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 1)
        sched = ScanSchedule(signal_rate=rate, n_samples=74)
        record = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="lowgain")
        data, layout = pickle.dumps(sched), weakref.ref(sched._layout)
        del sched
        gc.collect()
        assert layout() is None and (rate.hex(), 0.0.hex(), 74) not in scan._LAYOUTS
        again = pickle.loads(data)
        assert vars(again)["_layout"] is scan._LAYOUTS[(rate.hex(), 0.0.hex(), 74)]
        fresh = simulate_scan(cfg, again, NoiseModel(KAPPA), regime="lowgain")
        assert scan._layout_of(fresh) is again._layout
        for name in scan._SERIES_FIELDS:
            assert getattr(fresh, name).tobytes() == getattr(record, name).tobytes()


class TestSequenceColumns:
    @pytest.mark.parametrize("container", [list, tuple])
    def test_records_built_from_sequences_give_the_bits_of_arrays(self, container, tmp_path):
        # a record's columns are stored as arrays, so every route and the
        # CSV writer take a record built from lists or tuples
        schedules = round_trip_schedules()
        records = round_trip_records("lowgain", 0.5, schedules=schedules)
        rebuilt = map_records(records, lambda r: TimeSeries(
            *(container(getattr(r, name).tolist()) for name in scan._SERIES_FIELDS)))

        def results(records):
            sig, idl, (series, sched), s1, s2 = records
            return (hex_fields(harmonic_regress(series, sched.signal_rate)),
                    hex_fields(calibrate(sig, idl)),
                    hex_fields(estimate_rotated(s1, s2)),
                    hex_fields(estimate_ellipse(s1, s2)))
        assert results(rebuilt) == results(records)
        for arrays, sequences in zip(flat_records(records), flat_records(rebuilt)):
            arrays.to_csv(tmp_path / "arrays.csv")
            sequences.to_csv(tmp_path / "sequences.csv")
            assert ((tmp_path / "sequences.csv").read_bytes()
                    == (tmp_path / "arrays.csv").read_bytes())
            for name in scan._SERIES_FIELDS:
                column = getattr(sequences, name)
                assert type(column) is np.ndarray and column.dtype == getattr(arrays, name).dtype


class TestConfigurationMemo:
    @staticmethod
    def warm_and_cold(regime, v, kept):
        """The records and estimates of a round trip on configurations that
        kept ``kept`` from an earlier round trip, and of one on fresh ones."""
        configs = round_trip_configs(v)
        round_trip_records(regime, v, seed=3, configs=configs)
        assert all(kept in cfg.__dict__ for cfg in configs)
        results = []
        for records in (round_trip_records(regime, v, configs=configs),
                        round_trip_records(regime, v)):
            sig, idl, (series, sched), s1, s2 = records
            results.append((
                [r.expected_n.tobytes() + r.counts.tobytes() for r in (sig, idl, series, s1, s2)],
                hex_fields(calibrate(sig, idl)),
                hex_fields(fourier_route(series, sched)),
                hex_fields(estimate_rotated(s1, s2)),
                hex_fields(estimate_ellipse(s1, s2)),
            ))
        return results

    @pytest.mark.parametrize("v", GAIN_SWEEP)
    def test_reused_configurations_give_fresh_bits(self, v):
        # exact round trips on configurations that kept their photon
        # number's fringes and on fresh ones: every record and every
        # estimate keeps its bits
        warm, cold = self.warm_and_cold("exact", v, "_fringes")
        assert warm == cold

    @pytest.mark.parametrize("v", GAIN_SWEEP)
    def test_reused_lowgain_configurations_give_fresh_bits(self, v):
        # low-gain round trips on configurations that kept their beating
        # parameters and on fresh ones
        warm, cold = self.warm_and_cold("lowgain", v, "_beating")
        assert warm == cold


class TestHugeCounts:
    """Records scaled by 2**996: the fits rescale by a power of two before
    they square, so the estimates and flags equal the unscaled ones, the
    residuals in counts scale by 2**996 and nothing warns."""

    @pytest.mark.parametrize("route", ["fourier", "rotated", "ellipse"])
    def test_estimates_scale_out(self, route):
        if route == "fourier":
            series, sched = fourier_scan(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j),
                                         xi_bar=0.23, delta_xi=-0.61, noise=poisson(3))
            records = (series,)
            estimate = partial(fourier_route, sched=sched)
        else:
            records = tuple(setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting, noise=poisson(setting))
                            for setting in (1, 2))
            estimate = estimate_rotated if route == "rotated" else estimate_ellipse
        small = estimate(*records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = estimate(*(scaled_counts(r, HUGE) for r in records))
        for name in ("t_perp", "t_par", "tbar", "dt", "phibar", "dphi", "psi"):
            want = getattr(small, name)
            assert getattr(big, name) == (None if want is None else pytest.approx(want, abs=1e-12))
        assert big.flags == small.flags
        assert big.residuals.keys() == small.residuals.keys()
        for key, value in small.residuals.items():
            want = HUGE * value if key in COUNT_RESIDUALS else value
            assert big.residuals[key] == pytest.approx(want, rel=1e-12, abs=1e-12), key


def ellipse_points(tbar, dt, dphi, psi, phibar=0.4, n=73, v=0.5, phase_start=0.0):
    phi0 = phase_start + np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return two_setting_points(tbar, dt, phibar, dphi, psi, phi0, v=v)


def ellipse_estimate(tbar, dt, dphi, psi, assume="isotropic_phase"):
    """``estimate_ellipse`` of the records ``ellipse_points`` samples."""
    s1, s2 = (setting_scan(tbar, dt, 0.4, dphi, psi, setting, n=73) for setting in (1, 2))
    return estimate_ellipse(s1, s2, assume=assume)


class TestFitEllipse:
    def test_invariants_of_a_diattenuator(self):
        # dphi = 0: the settings' fringes are tbar and dt/2 of their common
        # dc level (one photon at V = 0.5, here KAPPA counts), and the second
        # lags the first by -2 psi
        fit = fit_ellipse(KAPPA * ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert fit.residual < 1e-10
        assert fit.amp_x == pytest.approx(0.6 * KAPPA, rel=1e-9)
        assert fit.amp_y == pytest.approx(0.3 * KAPPA, rel=1e-9)
        angles_close(fit.rel_phase, -2.0 * 1.8, atol=1e-9)
        assert fit.center == pytest.approx((KAPPA, KAPPA), rel=1e-9)

    def test_power_of_two_scaling_is_exact_up_to_the_float_maximum(self):
        # counts near 2**1022: a plain sum of the points for their centroid
        # would overflow, the rescaled one scales every count by 2**1008
        points = KAPPA * ellipse_points(0.6, 0.6, 0.0, 1.8)
        small = fit_ellipse(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = fit_ellipse(2.0**1008 * points)
        assert (big.amp_x, big.amp_y) == (2.0**1008 * small.amp_x, 2.0**1008 * small.amp_y)
        assert big.center == (2.0**1008 * small.center[0], 2.0**1008 * small.center[1])
        assert (big.rel_phase, big.residual) == (small.rel_phase, small.residual)

    def test_invariants_of_a_retarder(self):
        # dt = 0: both fringes are tbar/sqrt(2) at dphi = pi/2, and the
        # second lags the first by pi/2 - 2 psi
        fit = fit_ellipse(ellipse_points(0.6, 0.0, 0.5 * math.pi, 1.8))
        assert fit.amp_x == pytest.approx(0.6 / math.sqrt(2.0), abs=1e-9)
        assert fit.amp_y == pytest.approx(0.6 / math.sqrt(2.0), abs=1e-9)
        angles_close(fit.rel_phase, 0.5 * math.pi - 2.0 * 1.8, atol=1e-9)

    def test_recovers_rotation_isotropic_phase(self):
        est = ellipse_estimate(0.6, 0.6, 0.0, 1.8)
        assert axis_distance(est.psi, 1.8) < 1e-9
        assert est.tbar == pytest.approx(0.6, abs=1e-9)
        assert est.dt == pytest.approx(0.6, abs=1e-9)

    def test_recovers_rotation_isotropic_attenuation(self):
        est = ellipse_estimate(0.6, 0.0, 0.5 * math.pi, 1.8, assume="isotropic_attenuation")
        assert axis_distance(est.psi, 1.8) < 1e-9
        assert est.dphi == pytest.approx(0.5 * math.pi, abs=1e-9)
        assert est.tbar == pytest.approx(0.6, abs=1e-9)

    def test_distinguishes_rotations(self):
        est_a = ellipse_estimate(0.6, 0.6, 0.0, 1.8)
        est_b = ellipse_estimate(0.6, 0.6, 0.0, 3.5)
        assert axis_distance(est_a.psi, est_b.psi) > 0.1

    def test_invariant_under_phase_offset_resampling(self):
        fit_a = fit_ellipse(ellipse_points(0.55, 0.4, 0.0, 1.1))
        fit_b = fit_ellipse(ellipse_points(0.55, 0.4, 0.0, 1.1, phase_start=1.234))
        assert fit_a.amp_x == pytest.approx(fit_b.amp_x, abs=1e-9)
        assert fit_a.amp_y == pytest.approx(fit_b.amp_y, abs=1e-9)
        assert fit_a.rel_phase == pytest.approx(fit_b.rel_phase, abs=1e-9)

    def test_circle_identifies_psi(self):
        # a polariser's two fringes are equal, and at psi = pi/4 or 3pi/4 in
        # quadrature: the Lissajous curve is a circle.  psi comes from the
        # phase lag and the traversal direction, not from the tilt, so both
        # are recovered unflagged, as the rotated route recovers them
        for psi in (0.25 * math.pi, 0.75 * math.pi):
            s1, s2 = (setting_scan(0.4, 0.8, 0.4, 0.0, psi, setting) for setting in (1, 2))
            est = estimate_ellipse(s1, s2)
            assert est.psi == pytest.approx(psi, abs=1e-9)
            assert est.psi == pytest.approx(estimate_rotated(s1, s2).psi, abs=1e-9)
            assert est.flags == []

    def test_collinear_points_rejected(self):
        # one refusal covers collinear points and points too close to
        # collinear for the conic fit
        phi0 = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)
        line = np.column_stack([1.0 + 0.3 * np.cos(phi0), np.full_like(phi0, 1.0)])
        with pytest.raises(UnidentifiableError,
                           match="^points are too close to collinear for a conic fit$") as err:
            fit_ellipse(line)
        assert err.value.flag == "degenerate_conic"

    @pytest.mark.parametrize("dt", [0.70098, -0.70098])
    def test_near_collinear_records_refused(self, dt):
        # one axis opaque and the sample turned by 1e-8: the two fringes lag
        # by about 1e-8, a minor axis the conic fit's fourth moments lose to
        # rounding.  The fit used to give t_perp 213.6 or 448.7 unflagged,
        # where the rotated route recovers 0.70098
        s1, s2 = (setting_scan(0.35049, dt, 0.18, 0.0, 1e-8, setting, n=179)
                  for setting in (1, 2))
        with pytest.raises(UnidentifiableError,
                           match="^points are too close to collinear for a conic fit$") as err:
            estimate_ellipse(s1, s2)
        assert err.value.flag == "degenerate_conic"
        est = estimate_rotated(s1, s2)
        assert max(est.t_perp, est.t_par) == pytest.approx(0.70098, abs=1e-12)

    def test_minor_axis_kept_above_the_rounding_floor(self):
        # a lag of 2e-3 (minor axis 1e-3 of the major, 4.5e3 eps to the
        # fourth power) is still fitted, and well
        s1, s2 = (setting_scan(0.35049, 0.70098, 0.18, 0.0, 1e-3, setting, n=179)
                  for setting in (1, 2))
        est = estimate_ellipse(s1, s2)
        assert est.t_perp == pytest.approx(0.70098, rel=1e-3)

    def test_relative_phase_within_rounding_refused(self, monkeypatch):
        # a conic with 4ac - b^2 = 1 (exactly, a = c = 2**25) whose cosine
        # is 1 - 2**-53, so 1 - cos^2 is 2**-52, within the cosine's
        # rounding of 0: the fit used to take that sine at face value and
        # return amplitudes about 1.2e4 times the points' spread
        def thin(x, y):
            return np.array([2.0**25, -(2.0**26 - 2.0**-27), 2.0**25, 0.0, 0.0, -1.0])
        monkeypatch.setattr(estimation, "_direct_ellipse_fit", thin)
        with pytest.raises(UnidentifiableError,
                           match="^relative phase is within rounding of 0 or pi$") as err:
            fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert err.value.flag == "degenerate_conic"

    @pytest.mark.parametrize("conic", [
        # a parabola (b^2 = 4ac): the centre divides by its zero discriminant
        (1.0, 2.0, 1.0, 1.0, 0.0, -1.0),
        # x^2 + y^2 = -1, an imaginary ellipse: F and a differ in sign
        # whichever sign the conic takes
        (1.0, 0.0, 1.0, 0.0, 0.0, 1.0),
    ])
    def test_a_fitted_conic_that_is_no_real_ellipse_is_refused(self, monkeypatch, conic):
        monkeypatch.setattr(estimation, "_direct_ellipse_fit", lambda d1, d2: np.array(conic))
        with pytest.raises(UnidentifiableError,
                           match="^fitted conic is not a real ellipse$") as err:
            fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert err.value.flag == "degenerate_conic"

    def test_complex_eigenvectors_are_no_solution(self, monkeypatch):
        # rounding can leave the constraint's eigenproblem a complex pair:
        # its vectors are skipped even where their real parts are ellipses
        # (4ac - b^2 = 4), and the one real vector left is a hyperbola (-4)
        def eig(matrix):
            vectors = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, -1.0]])
            return np.array([1.0 + 1.0j, 1.0 - 1.0j, 2.0 + 0.0j]), vectors.astype(complex)
        monkeypatch.setattr(np.linalg, "eig", eig)
        with pytest.raises(UnidentifiableError, match="^no ellipse solution found$") as err:
            fit_ellipse(ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert err.value.flag == "degenerate_conic"

    def test_a_negative_center_is_refused(self):
        with pytest.raises(EstimationError, match="^fringe center must be positive$") as err:
            fit_ellipse(-ellipse_points(0.6, 0.6, 0.0, 1.8))
        assert type(err.value) is EstimationError
        assert err.value.flag == "bad_center"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_nonfinite_points_rejected(self, value, column):
        points = ellipse_points(0.6, 0.6, 0.0, 1.8)
        points[7, column] = value
        with pytest.raises(EstimationError) as err:
            fit_ellipse(points)
        assert err.value.flag == "nonfinite_points"

    def test_direct_fit_scales_to_unit_ellipse_constraint(self, rng):
        # the conic comes back scaled to 4ac - b^2 = 1, so the centre's
        # denominator b^2 - 4ac is -1 and never marks a non-ellipse; checked
        # on noisy ellipses, random clouds and noisy hyperbolas, centred and
        # scaled to unit rms radius as _fit_ellipse does
        fitted = 0
        for k in range(3000):
            n = int(rng.integers(6, 80))
            if k % 3 == 0:
                t = rng.uniform(0.0, 2.0 * math.pi, n)
                ax, ay, lag = *rng.uniform(0.05, 3.0, 2), rng.uniform(0.0, 2.0 * math.pi)
                pts = np.column_stack([ax * np.cos(t), ay * np.cos(t + lag)])
                pts += rng.normal(scale=rng.uniform(0.0, 0.3), size=pts.shape)
            elif k % 3 == 1:
                pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2)
            else:
                s, branch = rng.uniform(-2.0, 2.0, n), rng.choice([-1.0, 1.0], n)
                pts = np.column_stack([branch * np.cosh(s), np.sinh(s)]) * rng.uniform(0.2, 5.0, 2)
                pts += rng.normal(scale=0.01, size=pts.shape)
            pts = pts - pts.mean(axis=0)
            pts /= math.sqrt(np.mean(np.sum(pts**2, axis=1)))
            try:
                x, y = pts[:, 0], pts[:, 1]
                a, b, c = estimation._direct_ellipse_fit(
                    np.column_stack([x * x, x * y, y * y]),
                    np.column_stack([x, y, np.ones_like(x)]))[:3]
            except UnidentifiableError:
                continue
            fitted += 1
            assert abs(4.0 * a * c - b * b - 1.0) <= 1e-12, k
        assert fitted >= 2900

    def test_direct_fit_refuses_a_singular_linear_scatter(self):
        # points on the line y = x make the linear block's scatter exactly
        # singular (_fit_ellipse refuses such points as collinear first)
        x = np.arange(8.0)
        with pytest.raises(UnidentifiableError,
                           match="^degenerate point configuration$") as err:
            estimation._direct_ellipse_fit(np.column_stack([x * x, x * x, x * x]),
                                           np.column_stack([x, x, np.ones_like(x)]))
        assert err.value.flag == "degenerate_conic"

    def test_estimate_ellipse_rejects_unknown_assumption(self):
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=k) for k in (1, 2))
        with pytest.raises(EstimationError) as err:
            estimate_ellipse(s1, s2, assume="general")
        assert err.value.flag == "bad_assumption"
        # the length check comes first
        with pytest.raises(EstimationError) as err:
            estimate_ellipse(s1, setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, 2, n=80),
                             assume="general")
        assert err.value.flag == "length_mismatch"

    def test_estimate_ellipse_rejects_mismatched_phases(self):
        # setting 2 scanned at twice setting 1's rate: pairing the counts by
        # index would trace a figure that is not the fringe ellipse
        s1 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=1)
        cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, 1.8, 2)
        sched = ScanSchedule(signal_rate=4.0 * math.pi / 72, n_samples=72)
        s2 = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="lowgain")
        with pytest.raises(EstimationError) as err:
            estimate_ellipse(s1, s2)
        assert err.value.flag == "phase_mismatch"
        # a differential-phase column that differs is refused as well
        s2 = setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting=2)
        s2 = dataclasses.replace(s2, delta_phase=s2.delta_phase + 0.1)
        with pytest.raises(EstimationError) as err:
            estimate_ellipse(s1, s2)
        assert err.value.flag == "phase_mismatch"


DRAWS = two_setting_draws()
# the flag each assumption raises with psi None, and the general mode's others
PSI_NONE = {
    "isotropic_phase": "psi_unidentified_no_diattenuation_fringe",
    "isotropic_attenuation": "psi_unidentified_no_retardance_fringe",
    "general": "psi_unidentified_no_setting2_fringe",
}
GENERAL_FLAGS = {"general_mode_root_choice", "c1_flipped_retardance_mod_2pi",
                 "dt_sign_unidentified_at_half_turn"}
# each two-setting mode with the flags it may refuse records with that pass
# the record rule
ELLIPSE_REFUSALS = {"degenerate_conic", "bad_center", "tbar_unidentifiable"}
TWO_SETTING_MODES = {
    "rotated-isotropic_phase": (estimate_rotated, "isotropic_phase", {"tbar_unidentifiable"}),
    "rotated-isotropic_attenuation": (estimate_rotated, "isotropic_attenuation",
                                      {"tbar_unidentifiable"}),
    "rotated-general": (estimate_rotated, "general",
                        {"inconsistent_amplitudes", "tbar_unidentifiable"}),
    "ellipse-isotropic_phase": (estimate_ellipse, "isotropic_phase", ELLIPSE_REFUSALS),
    "ellipse-isotropic_attenuation": (estimate_ellipse, "isotropic_attenuation",
                                      ELLIPSE_REFUSALS),
}
# the parameter that is zero on the samples each structural assumption fits
ZERO = {"isotropic_phase": "dphi", "isotropic_attenuation": "dt"}
# how closely a noiseless estimate reproduces its records, relative to their
# peak: 8e-16 on these draws for the rotated route, 1.8e-9 for the conic fit,
# whose fourth moments lose precision as the ellipse thins
REPRODUCED = {estimate_rotated: 1e-9, estimate_ellipse: 1e-8}


def draw_records(draw, noise=None):
    """The draw's two 72-step setting records (noiseless by default)."""
    return [setting_scan(draw.tbar, draw.dt, draw.phibar, draw.dphi, draw.psi, setting,
                         noise=noise, v=draw.v)
            for setting in (1, 2)]


def outcome(estimator, records, assume, phibar):
    """The mode's estimate of the records (the general mode's at ``phibar``),
    or the ``EstimationError`` it raises."""
    try:
        return estimator(*records, assume=assume,
                         **({"phibar": phibar} if assume == "general" else {}))
    except EstimationError as exc:
        return exc


def checked(result, assume, refusals):
    """The estimate ``result`` once its flags are checked against its mode's,
    or None for a refusal, whose flag must be one of ``refusals``."""
    if isinstance(result, EstimationError):
        assert result.flag in refusals, result
        return None
    allowed = {PSI_NONE[assume], *(GENERAL_FLAGS if assume == "general" else ())}
    assert set(result.flags) <= allowed, result.flags
    assert (result.psi is None) == (PSI_NONE[assume] in result.flags)
    return result


def in_range(est):
    """Both transmissions in [0, 1], to the forward model's 1e-12."""
    return all(-1e-12 <= t <= 1.0 + 1e-12 for t in (est.t_perp, est.t_par))


def reproduction_error(est, records, v):
    """Largest |difference| between the records and the noiseless records of
    the estimate's sample, relative to each record's peak.  A route that does
    not measure phibar is given the setting-1 fringe's phase, the gauge of
    its amplitudes; dphi gains 2*pi where a flag says it is known mod 2*pi."""
    phibar = cmath.phase(fit_fringe(records[0])[1]) if est.phibar is None else est.phibar
    dphi = est.dphi + 2.0 * math.pi * ("c1_flipped_retardance_mod_2pi" in est.flags)
    resimulated = (setting_scan(est.tbar, est.dt, phibar, dphi, est.psi, setting, v=v)
                   for setting in (1, 2))
    return max(float(np.max(np.abs(new.counts - old.counts)) / np.max(old.counts))
               for new, old in zip(resimulated, records))


TBAR = "tbar_unidentifiable"
NO_PSI = tuple(PSI_NONE[assume] for assume in ROTATED_ASSUMPTIONS)
# Fitted relative fringes of setting 1 (phase 0) and setting 2 (amplitude,
# phase) around the 1e-12 floor, and the outcome under each assumption of
# ROTATED_ASSUMPTIONS (general at phibar 0): the psi reported, the flag
# reported with psi None, or the refusal's flag.  No amplitude above 1e-12,
# or a setting-1 one at most 1e-12 of the largest, leaves tbar unidentifiable
# unless isotropic_attenuation's setting-2 sine amplitude carries it
FRINGE_OUTCOMES = [
    (0.0, 0.0, -1.1, (TBAR, TBAR, TBAR)),
    (3e-13, 3e-13, -1.1, (TBAR, TBAR, TBAR)),
    (1e-12, 0.0, -1.1, (TBAR, TBAR, TBAR)),
    (5e-12, 0.0, -1.1, NO_PSI),
    (0.4, 0.0, -1.1, NO_PSI),
    (0.4, 1e-12, -1.1, NO_PSI),
    (0.4, 5e-12, -1.1, (0.55, 0.25 * math.pi + 0.55, 0.55)),
    (3e-13, 0.4, -1.1, (TBAR, 0.25 * math.pi + 0.55, TBAR)),
    (1e-12, 0.4, -1.1, (0.55, 0.25 * math.pi + 0.55, 0.55)),
    (0.4, 0.2, 0.0, (0.0, 0.25 * math.pi, 0.0)),  # no phase lag
]


class TestTwoSettingForwardModel:
    """The two-setting modes against the forward model they invert, on the
    seeded samples of ``two_setting_draws``."""

    @pytest.mark.parametrize("mode", TWO_SETTING_MODES)
    def test_noiseless_estimates_reproduce_the_records(self, mode):
        # each sample's records under the assumption that fits it; the
        # general mode's transmissions outside [0, 1] are left to the range
        # test below, and the forward model refuses those above 1
        estimator, assume, refusals = TWO_SETTING_MODES[mode]
        seen = collections.Counter()
        for draw in DRAWS:
            if assume in ZERO and getattr(draw, ZERO[assume]) != 0.0:
                continue
            records = draw_records(draw)
            est = checked(outcome(estimator, records, assume, draw.phibar), assume, refusals)
            if est is None or est.psi is None or "dt_sign_unidentified_at_half_turn" in est.flags:
                continue  # a parameter left undetermined
            if assume != "general":
                assert in_range(est), draw
            elif max(abs(est.t_perp), abs(est.t_par)) > 1.0:
                continue
            assert (est.phibar is None) == (estimator is estimate_ellipse)
            assert reproduction_error(est, records, draw.v) <= REPRODUCED[estimator], draw
            seen["reproduced"] += 1
            seen["c1 flip"] += "c1_flipped_retardance_mod_2pi" in est.flags
        assert seen["reproduced"] >= 150 and (assume != "general" or seen["c1 flip"] > 0), seen

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "Known open defects: the general mode returns a root with a transmission "
        "outside [0, 1] where the other root is the truth (ROADMAP item 15)"))
    def test_general_mode_estimates_lie_in_range(self):
        for draw in DRAWS:
            est = estimate_rotated(*draw_records(draw), assume="general", phibar=draw.phibar)
            assert in_range(est), draw

    def test_estimates_are_finite_and_flagged_from_their_modes_lists(self):
        # every mode on every sample's records, noiseless and Poisson-drawn,
        # the general mode at the given phibar (perturbed on about half)
        seen = collections.Counter()
        for k, draw in enumerate(DRAWS):
            for noise in (NoiseModel(KAPPA), NoiseModel(draw.kappa, seed=k, mode="poisson")):
                records = draw_records(draw, noise)
                for estimator, assume, refusals in TWO_SETTING_MODES.values():
                    result = outcome(estimator, records, assume, draw.phibar_given)
                    est = checked(result, assume, refusals)
                    if est is None:
                        seen[result.flag] += 1
                        continue
                    values = (est.t_perp, est.t_par, est.tbar, est.dt, est.dphi, est.phibar,
                              est.psi, *est.residuals.values())
                    assert all(math.isfinite(x) for x in values if x is not None), (k, assume)
                    seen.update(est.flags)
        assert seen["inconsistent_amplitudes"] > 0 and seen["c1_flipped_retardance_mod_2pi"] > 0

    @pytest.mark.parametrize("amp1, amp2, phase2, outcomes", FRINGE_OUTCOMES)
    def test_vanishing_fringes(self, monkeypatch, amp1, amp2, phase2, outcomes):
        # fringes at rounding level are out of reach of simulated records, so
        # the fringe fits are given directly
        s1, s2 = (setting_scan(0.6, 0.6, 0.4, 0.0, 1.8, setting) for setting in (1, 2))
        fits = {id(s1): (1.0, complex(amp1), 0.0),
                id(s2): (1.0, amp2 * cmath.exp(1j * phase2), 0.0)}
        monkeypatch.setattr(estimation, "_fit_ramp", lambda series, *rule: fits[id(series)])
        for assume, want in zip(ROTATED_ASSUMPTIONS, outcomes):
            result = outcome(estimate_rotated, (s1, s2), assume, 0.0)
            if want == TBAR:
                assert isinstance(result, UnidentifiableError) and result.flag == TBAR, assume
            elif isinstance(want, str):
                assert result.psi is None and want in result.flags, assume
            else:
                assert result.psi == pytest.approx(want, abs=1e-12), assume
                assert PSI_NONE[assume] not in result.flags, assume
