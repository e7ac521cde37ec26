import cmath
import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest

from conftest import (
    analyzer_config,
    angles_close,
    blocked_arm,
    highgain_visibility,
    n_highgain,
    random_config,
    two_setting_points,
)
from nli_polarimetry import (
    BeatingParameters,
    CrystalGain,
    HarmonicDecomposition,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    WaveplateCoeffs,
    amplitude_relations,
    beating_parameters,
    extract_sample_fourier,
    fourier_model,
    n_lowgain,
    photon_number_exact,
    quarter_wave,
    rotated_waveplate_coeffs,
    simulate_scan,
    waveplate,
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
        tau1, rho1 = cfg.waveplate1.tau, cfg.waveplate1.rho
        tau2, rho2 = cfg.waveplate2.tau, cfg.waveplate2.rho
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


def reference_beating_intensity(amplitude, diff_vis, mean_vis, half_diff_phase, mean_phase):
    """Oracle: the low-gain kernel over raw amplitude, visibilities and total
    phases that ``n_lowgain`` replaced."""
    return 0.5 * amplitude * (
        1.0
        + diff_vis * np.cos(half_diff_phase) * np.cos(mean_phase)
        - mean_vis * np.sin(half_diff_phase) * np.sin(mean_phase)
    )


def lowgain_scan(cfg, sched):
    return simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain").expected_n


def qwp_pair_config(t_perp, t_par, v=0.5, ts=1.0 + 0j):
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(ts),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4),
        sample=SampleAxes(t_perp, t_par),
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(BeatingParameters)])
    def test_rejects_nonfinite_field(self, name, value):
        # a NaN passes every range test, so finiteness is checked first
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            params(**{name: value})

    @pytest.mark.parametrize("overrides, message", [
        ({"mean_photons": -0.1}, "mean_photons must be >= 0"),
        ({"signal_mag": 1.0 + 1e-9}, "signal_mag must lie in [0, 1]"),
        ({"signal_mag": -0.1}, "signal_mag must lie in [0, 1]"),
    ])
    def test_rejects_out_of_range_field(self, overrides, message):
        with pytest.raises(ValueError) as err:
            params(**overrides)
        assert (err.type, str(err.value)) == (ValueError, message)

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
        plates += [waveplate(k * math.pi / 8, retardance)
                   for retardance in (math.pi / 2, math.pi) for k in range(16)]
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


def hex_params(p):
    """``float.hex`` of every field of a ``BeatingParameters``."""
    return [float.hex(getattr(p, f.name)) for f in dataclasses.fields(BeatingParameters)]


class TestBeatingMemo:
    """Each configuration object reduces to beating parameters once and
    keeps them; a kept reduction has the bits of a fresh one."""

    def test_kept_reduction_gives_fresh_bits(self, rng):
        for k in range(300):
            cfg = random_config(rng, equal_gains=True, rotation=k % 2 == 0)
            first = beating_parameters(cfg)
            assert cfg.__dict__["_beating"] is first and beating_parameters(cfg) is first
            assert hex_params(first) == hex_params(reference_beating_parameters(cfg))
            assert hex_params(first) == hex_params(beating_parameters(dataclasses.replace(cfg)))

    def test_kept_configuration_reduces_once(self, rng, monkeypatch):
        calls = []
        effective = InterferometerConfig.effective_waveplates
        monkeypatch.setattr(InterferometerConfig, "effective_waveplates",
                            lambda cfg: calls.append(1) or effective(cfg))
        cfg = random_config(rng, equal_gains=True)
        for _ in range(3):
            beating_parameters(cfg)
        sched = ScanSchedule(signal_rate=0.1, n_samples=8)
        simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        assert len(calls) == 1

    def test_unequal_gains_raise_on_every_call_and_keep_nothing(self, rng):
        cfg = random_config(rng, v_low=0.1)
        assert not cfg.has_equal_gains
        for _ in range(3):
            with pytest.raises(ValueError, match="^closed-form signals require equal crystal "
                                                 "gains$"):
                beating_parameters(cfg)
            assert "_beating" not in cfg.__dict__

    def test_signed_zero_rotations_keep_their_own(self):
        # equal configurations whose plate coefficients differ in a zero's
        # sign reduce to setup phases of +-pi/2 and +-pi; the memo is per
        # instance, so each keeps its own
        plate1 = WaveplateCoeffs(1.0 + 0.0j, 0.0j)
        plate2 = WaveplateCoeffs(complex(-1.0, -0.0), complex(-0.0, -0.0))
        pos = InterferometerConfig(CrystalGain(0.5), CrystalGain(0.5), SignalControl(1.0),
                                   plate1, plate2, SampleAxes(0.9 + 0.0j, 0.2 + 0.0j), 0.0)
        neg = dataclasses.replace(pos, rotation=-0.0)
        assert pos == neg
        for cfg, sign in ((pos, 1.0), (neg, -1.0), (pos, 1.0), (neg, -1.0)):
            assert beating_parameters(cfg).diff_setup_phase == sign * math.pi


class TestForwardModels:
    def test_match_raw_kernels_bitwise(self, rng):
        # array calls over random scan phases, each element against its own
        # scalar call, and the zero-phase scalar call against a one-element
        # array; every draw also runs with the signal arm blocked
        for _ in range(200):
            open_arm = beating_parameters(random_config(rng, equal_gains=True))
            signal_phase, diff_phase = rng.uniform(-10.0, 10.0, (2, 32))
            for p in (open_arm, blocked_arm(open_arm)):
                half = p.half_diff_phase + 0.5 * diff_phase
                mean = p.mean_total_phase + signal_phase
                want = reference_beating_intensity(p.amplitude, p.diff_visibility,
                                                   p.mean_visibility, half, mean)
                got = n_lowgain(p, signal_phase, diff_phase)
                assert got.tobytes() == want.tobytes(), p
                for k in range(len(got)):
                    one = n_lowgain(p, signal_phase[k], diff_phase[k])
                    assert float.hex(one) == float.hex(got[k]), (p, k)
                want = reference_beating_intensity(
                    p.amplitude, p.diff_visibility, p.mean_visibility,
                    np.array([p.half_diff_phase]), np.array([p.mean_total_phase]))
                assert float.hex(n_lowgain(p)) == float.hex(want[0]), p


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


class TestHarmonicDecomposition:
    @pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan),
                                       complex(-math.inf, 0.0)])
    @pytest.mark.parametrize("name", ["dc", "amp_half", "amp_threehalf", "residual_rms"])
    def test_rejects_nonfinite_field(self, name, value):
        fields = {"dc": 1.0, "amp_half": 0.1 + 0.2j, "amp_threehalf": 0.2 + 0j,
                  "residual_rms": 0.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            HarmonicDecomposition(**fields)


class TestFourierModel:
    def test_amplitude_ratio_is_transmission_ratio(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.2))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=512)
        model = fourier_model(p, sched)
        assert abs(model.amp_threehalf) / abs(model.amp_half) == pytest.approx(
            4.5, abs=1e-12
        )
        # real transmissions at zero offsets put both peaks at zero phase
        angles_close(cmath.phase(model.amp_half), 0.0, atol=1e-12)
        angles_close(cmath.phase(model.amp_threehalf), 0.0, atol=1e-12)
        assert model.residual_rms == 0.0

    def test_symmetric_axes_share_peak_phase(self):
        cfg = qwp_pair_config(0.7 * cmath.exp(0.4j), 0.7 * cmath.exp(0.4j))
        p = beating_parameters(cfg)
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=128)
        model = fourier_model(p, sched)
        angles_close(cmath.phase(model.amp_threehalf), 0.4, atol=1e-12)
        angles_close(cmath.phase(model.amp_half), 0.4, atol=1e-12)

    def test_opaque_parallel_axis_kills_half_peak(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.0))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.1, n_samples=128)
        assert abs(fourier_model(p, sched).amp_half) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_unequal_rates(self):
        p = beating_parameters(qwp_pair_config(0.9, 0.2))
        sched = ScanSchedule(signal_rate=0.1, diff_rate=0.2, n_samples=128)
        with pytest.raises(ValueError):
            fourier_model(p, sched)

    def test_matches_harmonic_regression_of_timescan(self, rng):
        # oracle: discrete projection of the scanned signal over whole beat
        # periods, for the crossed pair and for random equal-gain
        # configurations (rotated samples, any waveplates, control and pump
        # phases)
        n = 400
        rate = 16.0 * math.pi / n
        t = np.arange(n, dtype=float)
        cases = [(qwp_pair_config(0.9 * cmath.exp(0.85j), 0.2 * cmath.exp(-0.05j), v=0.5),
                  0.3, -0.8)]
        cases += [(random_config(rng, equal_gains=True), rng.uniform(-math.pi, math.pi),
                   rng.uniform(-2.0 * math.pi, 2.0 * math.pi)) for _ in range(200)]
        for cfg, signal_offset, diff_offset in cases:
            sched = ScanSchedule(
                signal_offset=signal_offset, diff_offset=diff_offset, signal_rate=rate,
                diff_rate=rate, n_samples=n,
            )
            y = lowgain_scan(cfg, sched)
            model = fourier_model(beating_parameters(cfg), sched)
            tol = 1e-12 * max(model.dc, 1.0)
            for freq, want in ((0.5 * rate, model.amp_half),
                               (1.5 * rate, model.amp_threehalf)):
                a = 2.0 / n * np.sum(y * np.cos(freq * t))
                b = 2.0 / n * np.sum(y * np.sin(freq * t))
                assert complex(a, -b) == pytest.approx(want, abs=tol)
            assert np.mean(y) == pytest.approx(model.dc, abs=tol)

    def test_extract_sample_fourier_inverts_model(self, rng):
        # crossed pair, lossless signal arm: the Fourier estimator reads the
        # sample back from the predicted spectrum, dphi mod 2 pi and phibar
        # mod pi
        for _ in range(500):
            mags = rng.uniform(0.05, 1.0, size=2)
            phases = rng.uniform(-math.pi, math.pi, size=2)
            cfg = qwp_pair_config(*(mags * np.exp(1j * phases)),
                                  v=10.0 ** rng.uniform(-3.0, math.log10(3.0)))
            p = beating_parameters(cfg)
            rate = rng.uniform(0.01, 1.0)
            sched = ScanSchedule(
                signal_offset=rng.uniform(-math.pi, math.pi),
                diff_offset=rng.uniform(-2.0 * math.pi, 2.0 * math.pi),
                signal_rate=rate, diff_rate=rate,
            )
            est = extract_sample_fourier(fourier_model(p, sched), p.amplitude,
                                         sched.signal_offset, sched.diff_offset)
            assert est.t_perp == pytest.approx(mags[0], abs=1e-12)
            assert est.t_par == pytest.approx(mags[1], abs=1e-12)
            angles_close(est.dphi, phases[0] - phases[1], atol=1e-12)
            angles_close(2.0 * est.phibar, phases[0] + phases[1], atol=2e-12)
            assert est.flags == []


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
        p = params(mean_photons=1.0, signal_mag=0.0, mean_trans=0.85, diff_trans=0.1,
                   retardance=0.0)
        # half diff phase at -pi/2: the mean-transmission term saturates
        assert n_highgain(p) == pytest.approx(1.7225, abs=1e-12)

    def test_blocked_matches_exact_composer(self, rng):
        for _ in range(100):
            cfg = dataclasses.replace(
                random_config(rng, equal_gains=True), signal=SignalControl(0.0)
            )
            p = beating_parameters(cfg)
            assert p.signal_mag == 0.0
            assert n_highgain(p) == pytest.approx(
                photon_number_exact(cfg), rel=1e-11, abs=1e-12
            )

    def test_blocked_scales_linearly_at_low_gain(self):
        for v in (1e-3, 1e-5):
            p = params(mean_photons=v, signal_mag=0.0)
            assert n_highgain(p) / v == pytest.approx(1.0, abs=10 * v)

    def test_blocked_fringe_grows_with_gain_squared(self):
        def fringe(v):
            values = [
                n_highgain(params(mean_photons=v, signal_mag=0.0, retardance=x,
                                  mean_trans=0.85, diff_trans=0.1))
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
                n_lowgain(p) * (1.0 + v) + n_highgain(blocked_arm(p)) - v * (v + 1.0),
                abs=1e-10
            )


class TestRotatedSignals:
    """The two analyzer settings as interferometer configurations
    (``analyzer_config``), evaluated by the shared closed forms."""

    def test_setting1_cancels_rotation(self):
        phi0 = np.linspace(0.0, 2.0 * math.pi, 64)
        a = two_setting_points(0.6, 0.6, 0.4, 0.0, 1.8, phi0)
        c = two_setting_points(0.6, 0.6, 0.4, 0.0, 3.5, phi0)
        np.testing.assert_allclose(a[:, 0], c[:, 0], atol=1e-14)
        assert np.max(np.abs(a[:, 0] - a[:, 1])) > 0.01  # setting 2 does shift

    def test_setting1_matches_exact_composer_any_rotation(self):
        # the crossed quarter-wave pair makes the exact signal rotation-free
        phi0 = np.linspace(0.0, 2.0 * math.pi, 16)
        want = two_setting_points(0.6, 0.6, 0.4, 0.0, 0.0, phi0, v=1e-7)[:, 0]
        for psi in (1.8, 3.5):
            cfg = analyzer_config(0.6, 0.6, 0.4, 0.0, psi, 1, v=1e-7)
            np.testing.assert_allclose(photon_number_exact(cfg, phi0), want, rtol=1e-6)

    def test_amplitude_relations_special_case(self):
        b1, c1, b2, c2 = amplitude_relations(0.6, 0.6, 0.0)
        assert (b1, b2) == (0.0, 0.0)
        assert c1 == pytest.approx(0.6)
        assert c2 == pytest.approx(0.3)

    def test_fringe_extrema_match_amplitudes(self):
        # fringe maxima sit where the cosine argument vanishes
        at_max = two_setting_points(0.6, 0.6, 0.0, 0.0, 1.8, np.array([0.0, 3.6]))
        assert at_max[0, 0] == pytest.approx(1.6, abs=1e-12)
        assert at_max[1, 1] == pytest.approx(1.3, abs=1e-12)
        n = two_setting_points(0.6, 0.6, 0.0, 0.0, 1.8, np.linspace(0.0, 2.0 * math.pi, 721))
        assert np.max(n[:, 0]) <= 1.6 + 1e-12
        assert np.max(n[:, 1]) <= 1.3 + 1e-12

    def test_setting2_shift_symmetry(self, rng):
        def setting2(phi0, psi):
            cfg = analyzer_config(0.5, 0.3, 0.2, 0.7, psi, 2)
            return n_lowgain(beating_parameters(cfg), phi0)

        for _ in range(20):
            phi0 = rng.uniform(0.0, 2.0 * math.pi)
            psi = rng.uniform(0.0, math.pi)
            shift = rng.uniform(0.0, math.pi)
            a = setting2(phi0, psi)
            assert setting2(phi0 + 2.0 * shift, psi + shift) == pytest.approx(a, abs=1e-12)

    def test_matches_general_beating_formula(self):
        # each setting's all-orders closed form is its exact photon number,
        # and its low-gain record is the estimators' amplitude-relation
        # model 2V(1 + b sin(x) + c cos(x))
        tbar, dt, phibar, dphi = 0.6, 0.6, 0.4, 0.5
        b1, c1, b2, c2 = amplitude_relations(tbar, dt, dphi)
        phi0 = np.linspace(0.0, 2.0 * math.pi, 37)
        for setting, psi, v in itertools.product((1, 2), (0.0, 1.8, 3.5),
                                                 (0.01, 0.1, 0.5, 1.0, 2.0)):
            cfg = analyzer_config(tbar, dt, phibar, dphi, psi, setting, v)
            p = beating_parameters(cfg)
            np.testing.assert_allclose(n_highgain(p, phi0), photon_number_exact(cfg, phi0),
                                       rtol=1e-12, atol=0.0)
            if setting == 1:
                x, b, c = phibar + phi0, b1, c1
            else:
                x, b, c = phibar + phi0 - 2.0 * psi, b2, c2
            model = 2.0 * v * (1.0 + b * np.sin(x) + c * np.cos(x))
            np.testing.assert_allclose(n_lowgain(p, phi0), model, rtol=1e-12, atol=0.0)