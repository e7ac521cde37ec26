import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import angles_close, random_config
from nli_polarimetry import (
    BeatingParameters,
    CrystalGain,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    WaveplateCoeffs,
    amplitude_relations,
    beating_parameters,
    blocked_signal,
    fourier_model,
    half_wave,
    highgain_visibility,
    n_blocked,
    n_highgain,
    n_lowgain,
    n_rotated,
    photon_number_exact,
    quarter_wave,
    rotated_waveplate_coeffs,
    simulate_scan,
    waveplate_coeffs,
)


def params(**overrides):
    base = dict(
        mean_photons=0.5,
        signal_mag=1.0,
        control_phase=0.0,
        mean_trans=0.55,
        diff_trans=0.7,
        mean_sample_phase=0.0,
        retardance=0.0,
        setup_phase_offset=0.5 * math.pi,
        diff_setup_phase=-math.pi,
    )
    base.update(overrides)
    return BeatingParameters(**base)


def reference_beating_parameters(cfg):
    """Oracle: the reduction as two steps, a sample summary of the
    waveplate-sample-waveplate sandwich copied into the beating parameters,
    with the unrotated plates' coefficients taken directly."""
    if cfg.rotation == 0.0:
        tau1, rho1 = waveplate_coeffs(cfg.waveplate1)
        tau2, rho2 = waveplate_coeffs(cfg.waveplate2)
    else:
        tau1, rho1, tau2, rho2 = rotated_waveplate_coeffs(
            cfg.waveplate1, cfg.waveplate2, cfg.rotation
        )
    sample = cfg.sample
    perp_amp = abs(tau2) * abs(sample.t_perp) * abs(tau1)
    par_amp = abs(rho2) * abs(sample.t_par) * abs(rho1)
    tau_prod = tau2 * tau1
    rho_prod = rho2 * np.conj(rho1)
    phase_tau = 0.0 if tau_prod == 0.0 else cmath.phase(tau_prod)
    phase_rho = 0.0 if rho_prod == 0.0 else cmath.phase(rho_prod)
    summary = dict(
        mean_trans=perp_amp + par_amp,
        diff_trans=2.0 * (perp_amp - par_amp),
        mean_sample_phase=0.5 * (sample.phase_perp + sample.phase_par),
        retardance=sample.phase_perp - sample.phase_par,
        diff_setup_phase=phase_tau - phase_rho,
        setup_phase_offset=0.5 * (phase_tau + phase_rho),
    )
    ts = complex(cfg.signal.transmission)
    if abs(ts) > 0.0:
        control_phase = cfg.crystal1.pump_phase - cfg.crystal2.pump_phase + cmath.phase(ts)
    else:
        control_phase = 0.0
    return BeatingParameters(mean_photons=cfg.crystal1.mean_photons, signal_mag=abs(ts),
                             control_phase=control_phase, **summary)


def lowgain_scan(cfg, sched):
    return simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain").expected_n


def qwp_pair_config(t_perp, t_par, v=0.5, ts=1.0 + 0j, rotation=0.0):
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(ts),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4),
        sample=SampleAxes(t_perp, t_par),
        rotation=rotation,
    )


class TestBeatingParameters:
    def test_amplitude_and_visibility_bounds(self, rng):
        for _ in range(200):
            cfg = random_config(rng, equal_gains=True)
            p = beating_parameters(cfg)
            assert p.amplitude == pytest.approx(
                2.0 * p.mean_photons * (p.signal_mag**2 + 1.0)
            )
            assert 0.0 <= p.mean_visibility <= 1.0 + 1e-12
            assert abs(p.diff_visibility) <= 1.0 + 1e-12

    def test_rejects_unequal_gains(self, rng):
        cfg = dataclasses.replace(
            random_config(rng, equal_gains=True), crystal2=CrystalGain(3.33)
        )
        with pytest.raises(ValueError):
            beating_parameters(cfg)

    def test_qwp_pair_visibilities(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.2))
        assert p.mean_visibility == pytest.approx(0.55, abs=1e-12)
        assert p.diff_visibility == pytest.approx(0.35, abs=1e-12)

    def test_matches_two_step_reduction_bitwise(self, rng):
        # random plates, half of them at zero rotation, then identity,
        # quarter- and half-wave plates at zero rotation, paired every way
        # and sandwiching samples with an opaque or a lossless axis
        configs = [random_config(rng, equal_gains=True, rotation=k % 2 == 0)
                   for k in range(2000)]
        plates = [WaveplateCoeffs(1.0 + 0j, 0j)]
        plates += [make(k * math.pi / 8) for make in (quarter_wave, half_wave)
                   for k in range(16)]
        samples = [SampleAxes(0.9, 0.0), SampleAxes(0j, 0.5j), SampleAxes(1.0, 1.0),
                   SampleAxes(0.8 * cmath.exp(2.1j), 0.4 * cmath.exp(-0.3j))]
        base = random_config(rng, equal_gains=True, rotation=False)
        for k, (plate1, plate2) in enumerate(itertools.product(plates, plates)):
            configs.append(dataclasses.replace(
                base, waveplate1=plate1, waveplate2=plate2, sample=samples[k % 4]
            ))
        names = [f.name for f in dataclasses.fields(BeatingParameters)]
        for cfg in configs:
            got = beating_parameters(cfg)
            want = reference_beating_parameters(cfg)
            for name in names:
                assert float.hex(getattr(got, name)) == float.hex(getattr(want, name)), (
                    name, cfg)


class TestLowGain:
    def test_visibility_from_exact_composer_extrema(self):
        # scan the control phase at the differential null line; the fringe
        # visibility equals the mean visibility 0.9
        values = []
        for phi0 in np.linspace(0.0, 2.0 * math.pi, 201):
            cfg = qwp_pair_config(0.9, 0.9, v=1e-6, ts=cmath.exp(1j * phi0))
            values.append(photon_number_exact(cfg))
        vis = (max(values) - min(values)) / (max(values) + min(values))
        assert vis == pytest.approx(0.9, rel=1e-5)

    def test_flat_when_no_diattenuation_and_diff_null(self):
        p = params(diff_trans=0.0, retardance=0.0, diff_setup_phase=0.0)
        values = [
            n_lowgain(dataclasses.replace(p, control_phase=x))
            for x in np.linspace(0, 2 * math.pi, 50)
        ]
        assert np.ptp(values) < 1e-14 * np.mean(values)
        assert values[0] == pytest.approx(0.5 * p.amplitude, abs=1e-12)

    def test_zero_gain_zero_signal(self):
        assert n_lowgain(params(mean_photons=0.0)) == 0.0


class TestTimeScan:
    def test_zero_rates_constant(self):
        sched = ScanSchedule(signal_offset=0.3, diff_offset=0.4, n_samples=16)
        got = lowgain_scan(qwp_pair_config(0.9, 0.2), sched)
        assert np.ptp(got) == 0.0

    def test_matches_beating_formula_pointwise(self):
        # oracle: the static formula evaluated on the scanned phase grid
        cfg = qwp_pair_config(0.9, 0.2)
        p = beating_parameters(cfg)
        sched = ScanSchedule(
            signal_offset=0.2, diff_offset=-0.5, signal_rate=0.11,
            diff_rate=0.07, n_samples=40,
        )
        got = lowgain_scan(cfg, sched)
        for t in range(0, 40, 7):
            shifted = dataclasses.replace(
                p,
                control_phase=p.control_phase + sched.signal_offset + sched.signal_rate * t,
                retardance=p.retardance + sched.diff_offset + sched.diff_rate * t,
            )
            assert got[t] == pytest.approx(n_lowgain(shifted), abs=1e-12)


class TestFourierModel:
    def test_amplitude_ratio_is_transmission_ratio(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.2))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=512)
        model = fourier_model(p, sched)
        assert abs(model.amp_threehalf) / abs(model.amp_half) == pytest.approx(
            4.5, abs=1e-12
        )
        assert abs(model.epsilon_plus) == pytest.approx(1.0, abs=1e-12)
        assert abs(model.kappa_plus) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_axes_share_peak_phase(self):
        cfg = qwp_pair_config(0.7 * cmath.exp(0.4j), 0.7 * cmath.exp(0.4j))
        p = beating_parameters(cfg)
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=128)
        model = fourier_model(p, sched)
        angles_close(cmath.phase(model.kappa_plus), 0.4, atol=1e-12)
        angles_close(cmath.phase(model.epsilon_plus), 0.4, atol=1e-12)

    def test_opaque_parallel_axis_kills_half_peak(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.0))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=128)
        assert abs(fourier_model(p, sched).amp_half) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_unequal_rates(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.2))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.2, n_samples=128)
        with pytest.raises(ValueError):
            fourier_model(p, sched)

    def test_matches_harmonic_regression_of_timescan(self):
        # oracle: discrete projection of the scanned signal over whole beat
        # periods
        cfg = qwp_pair_config(
            0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j), v=0.5
        )
        p = beating_parameters(cfg)
        n = 400
        rate = 16.0 * math.pi / n
        sched = ScanSchedule(
            signal_offset=0.3, diff_offset=-0.8, signal_rate=rate,
            diff_rate=rate, n_samples=n,
        )
        t = np.arange(n, dtype=float)
        y = lowgain_scan(cfg, sched)
        model = fourier_model(p, sched)
        for freq, want in ((0.5 * rate, model.amp_half), (1.5 * rate, model.amp_threehalf)):
            a = 2.0 / n * np.sum(y * np.cos(freq * t))
            b = 2.0 / n * np.sum(y * np.sin(freq * t))
            assert complex(a, -b) == pytest.approx(want, abs=1e-12)
        assert np.mean(y) == pytest.approx(model.dc, abs=1e-12)


class TestHighGain:
    def test_visibility_reduces_to_lowgain_limit(self):
        p = params(mean_photons=0.0, mean_trans=0.85)
        assert highgain_visibility(p) == pytest.approx(p.mean_visibility, abs=1e-12)

    def test_visibility_bound_on_grid(self):
        for v in (0.0, 0.1, 1.0, 3.0, 10.0):
            for tbar in (0.2, 0.85):
                for s in (0.5, 1.0):
                    p = params(mean_photons=v, mean_trans=tbar, signal_mag=s)
                    assert highgain_visibility(p) >= p.mean_visibility - 1e-12

    def test_blocked_frozen_value(self):
        p = params(mean_photons=1.0, mean_trans=0.85, diff_trans=0.1,
                   retardance=0.0)
        # half diff phase at -pi/2: the mean-transmission term saturates
        assert n_blocked(p) == pytest.approx(1.7225, abs=1e-12)

    def test_blocked_matches_exact_composer(self, rng):
        for _ in range(100):
            cfg = dataclasses.replace(
                random_config(rng, equal_gains=True), signal=blocked_signal()
            )
            p = beating_parameters(cfg)
            assert n_blocked(p) == pytest.approx(
                photon_number_exact(cfg), rel=1e-11, abs=1e-12
            )

    def test_blocked_scales_linearly_at_low_gain(self):
        for v in (1e-3, 1e-5):
            p = params(mean_photons=v)
            assert n_blocked(p) / v == pytest.approx(1.0, abs=10 * v)

    def test_blocked_fringe_grows_with_gain_squared(self):
        def fringe(v):
            values = [
                n_blocked(params(mean_photons=v, retardance=x, mean_trans=0.85,
                                 diff_trans=0.1))
                for x in np.linspace(0.0, 2.0 * math.pi, 257)
            ]
            return np.ptp(values)

        assert fringe(2.0) / fringe(1.0) == pytest.approx(4.0, abs=1e-9)

    def test_decomposition_identity_random_parameters(self, rng):
        for _ in range(200):
            p = BeatingParameters(
                mean_photons=rng.uniform(0.0, 5.0),
                signal_mag=rng.uniform(0.0, 1.0),
                control_phase=rng.uniform(0.0, 2.0 * math.pi),
                mean_trans=rng.uniform(0.0, 1.0),
                diff_trans=rng.uniform(-1.0, 1.0),
                mean_sample_phase=rng.uniform(0.0, 2.0 * math.pi),
                retardance=rng.uniform(-math.pi, math.pi),
                setup_phase_offset=rng.uniform(0.0, 2.0 * math.pi),
                diff_setup_phase=rng.uniform(0.0, 2.0 * math.pi),
            )
            v = p.mean_photons
            assert n_highgain(p) == pytest.approx(
                n_lowgain(p) * (1.0 + v) + n_blocked(p) - v * (v + 1.0), abs=1e-10
            )


class TestRotatedSignals:
    def test_setting1_cancels_rotation(self):
        kwargs = dict(mean_photons=0.5, mean_trans=0.6, diff_trans=0.6,
                      retardance=0.0, mean_sample_phase=0.4)
        phi0 = np.linspace(0.0, 2.0 * math.pi, 64)
        a = n_rotated(1, phi0, rotation=1.8, **kwargs)
        b = n_rotated(2, phi0, rotation=1.8, **kwargs)
        c = n_rotated(1, phi0, rotation=3.5, **kwargs)
        np.testing.assert_allclose(a, c, atol=1e-14)
        assert np.max(np.abs(a - b)) > 0.01  # setting 2 does shift

    def test_setting1_matches_exact_composer_any_rotation(self):
        # the crossed quarter-wave pair makes the exact signal rotation-free
        phi0 = np.linspace(0.0, 2.0 * math.pi, 16)
        for psi in (1.8, 3.5):
            got = []
            for x in phi0:
                cfg = qwp_pair_config(
                    0.9 * cmath.exp(0.4j), 0.3 * cmath.exp(0.4j),
                    v=1e-7, ts=cmath.exp(1j * x), rotation=psi,
                )
                got.append(photon_number_exact(cfg))
            want = n_rotated(
                1, phi0, mean_photons=1e-7, mean_trans=0.6, diff_trans=0.6,
                retardance=0.0, mean_sample_phase=0.4, rotation=psi,
            )
            np.testing.assert_allclose(got, want, rtol=1e-6)

    def test_amplitude_relations_special_case(self):
        b1, c1, b2, c2 = amplitude_relations(0.6, 0.6, 0.0)
        assert (b1, b2) == (0.0, 0.0)
        assert c1 == pytest.approx(0.6)
        assert c2 == pytest.approx(0.3)

    def test_fringe_extrema_match_amplitudes(self):
        kwargs = dict(mean_photons=0.5, mean_trans=0.6, diff_trans=0.6,
                      retardance=0.0, mean_sample_phase=0.0)
        # fringe maxima sit where the cosine argument vanishes
        assert n_rotated(1, 0.0, rotation=1.8, **kwargs) == pytest.approx(1.6, abs=1e-12)
        assert n_rotated(2, 3.6, rotation=1.8, **kwargs) == pytest.approx(1.3, abs=1e-12)
        phi0 = np.linspace(0.0, 2.0 * math.pi, 721)
        n1 = n_rotated(1, phi0, rotation=1.8, **kwargs)
        n2 = n_rotated(2, phi0, rotation=1.8, **kwargs)
        assert np.max(n1) <= 1.6 + 1e-12
        assert np.max(n2) <= 1.3 + 1e-12

    def test_setting2_shift_symmetry(self, rng):
        kwargs = dict(mean_photons=0.5, mean_trans=0.5, diff_trans=0.3,
                      retardance=0.7, mean_sample_phase=0.2)
        for _ in range(20):
            phi0 = rng.uniform(0.0, 2.0 * math.pi)
            psi = rng.uniform(0.0, math.pi)
            shift = rng.uniform(0.0, math.pi)
            a = n_rotated(2, phi0, rotation=psi, **kwargs)
            b = n_rotated(2, phi0 + 2.0 * shift, rotation=psi + shift, **kwargs)
            assert b == pytest.approx(a, abs=1e-12)

    def test_rejects_bad_setting(self):
        with pytest.raises(ValueError):
            n_rotated(3, 0.0, mean_photons=0.5, mean_trans=0.5, diff_trans=0.0,
                      retardance=0.0, mean_sample_phase=0.0, rotation=0.0)

    def test_matches_general_beating_formula(self):
        # oracle: the rotated closed form equals the generic beating formula
        # evaluated on the rotated configuration
        phi0 = 0.9
        for setting, gamma2 in ((1, 3 * math.pi / 4), (2, math.pi / 4)):
            cfg = InterferometerConfig(
                crystal1=CrystalGain(0.5),
                crystal2=CrystalGain(0.5),
                signal=SignalControl(cmath.exp(1j * phi0)),
                waveplate1=quarter_wave(math.pi / 4),
                waveplate2=quarter_wave(gamma2),
                sample=SampleAxes(0.9 * cmath.exp(0.65j), 0.3 * cmath.exp(0.15j)),
                rotation=1.8,
            )
            want = n_lowgain(beating_parameters(cfg))
            got = n_rotated(
                setting, phi0, mean_photons=0.5, mean_trans=0.6, diff_trans=0.6,
                retardance=0.5, mean_sample_phase=0.4, rotation=1.8,
            )
            assert got == pytest.approx(want, abs=1e-12)
