import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import random_config
from nli_polarimetry import (
    CrystalGain,
    InterferometerConfig,
    Mode,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    WaveplateCoeffs,
    WaveplateSetting,
    beating_parameters,
    blocked_signal,
    detected_mode,
    lossless_sample,
    n_blocked,
    n_highgain,
    n_lowgain,
    photon_number_exact,
    quarter_wave,
    simulate_scan,
    three_path_decomposition,
    with_scan_phases,
)
from nli_polarimetry.mode_algebra import commutator_defect, vacuum_photon_number


def identity_plate():
    return WaveplateSetting(axis_angle=0.0, retardance=0.0)


def simple_config(**overrides):
    base = dict(
        crystal1=CrystalGain(1.0),
        crystal2=CrystalGain(1.0),
        signal=SignalControl(1.0),
        waveplate1=identity_plate(),
        waveplate2=identity_plate(),
        sample=lossless_sample(),
    )
    base.update(overrides)
    return InterferometerConfig(**base)


def caption_coefficients(cfg):
    """Oracle: the closed-form output coefficients spelled out term by term."""
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    ts = complex(cfg.signal.transmission)
    rs = cfg.signal.reflection
    t1, r1, t2, r2 = cfg.effective_waveplates()
    tp, tq = cfg.sample.t_perp, cfg.sample.t_par
    rp, rq = cfg.sample.r_perp, cfg.sample.r_par
    return {
        "ann_signal": u2 * ts * u1
        + v2 * np.conj(t2) * np.conj(tp) * np.conj(t1) * np.conj(v1)
        - v2 * np.conj(r2) * np.conj(tq) * r1 * np.conj(v1),
        "cre_idler": u2 * ts * v1
        + v2 * np.conj(t2 * tp * t1) * u1
        - v2 * np.conj(r2 * tq) * r1 * u1,
        "ann_signal_tap": u2 * rs,
        "cre_idler_pol": v2 * np.conj(t2 * tp * r1) + v2 * np.conj(r2 * tq) * t1,
        "cre_sample_perp": v2 * np.conj(t2) * rp,
        "cre_sample_par": v2 * np.conj(r2) * rq,
    }


def amplitude(d, name):
    """Amplitude of ``d`` named as in ``caption_coefficients``: the part
    (``ann``/``cre``) then the input mode, e.g. ``cre_idler_pol``."""
    part, mode = name.split("_", 1)
    return getattr(d, part)[Mode[mode.upper()]]


class TestOutputCoefficients:
    def test_signal_tap_coefficient(self, rng):
        for _ in range(20):
            cfg = random_config(rng)
            d = detected_mode(cfg)
            assert d.ann[Mode.SIGNAL_TAP] == pytest.approx(
                cfg.crystal2.u * cfg.signal.reflection, abs=1e-14
            )

    def test_matches_closed_form_coefficients(self, rng):
        for _ in range(200):
            cfg = random_config(rng)
            d = detected_mode(cfg)
            want = caption_coefficients(cfg)
            for name, value in want.items():
                assert amplitude(d, name) == pytest.approx(value, abs=1e-12)

    def test_no_other_amplitudes(self, rng):
        d = detected_mode(random_config(rng))
        assert d.cre[Mode.SIGNAL] == 0.0
        assert d.ann[Mode.IDLER] == 0.0
        assert d.cre[Mode.SIGNAL_TAP] == 0.0
        assert d.ann[Mode.IDLER_POL] == 0.0
        assert d.ann[Mode.SAMPLE_PERP] == 0.0
        assert d.ann[Mode.SAMPLE_PAR] == 0.0

    def test_constructive_lossless_interference(self):
        v = 0.8
        cfg = simple_config(crystal1=CrystalGain(v), crystal2=CrystalGain(v))
        d = detected_mode(cfg)
        assert d.cre[Mode.IDLER] == pytest.approx(2.0 * math.sqrt(v * (1.0 + v)), abs=1e-12)
        for mode in (Mode.IDLER_POL, Mode.SAMPLE_PERP, Mode.SAMPLE_PAR):
            assert d.cre[mode] == pytest.approx(0.0, abs=1e-14)

    def test_blocked_arm_tap_is_full(self):
        cfg = simple_config(signal=blocked_signal())
        d = detected_mode(cfg)
        assert d.ann[Mode.SIGNAL_TAP] == pytest.approx(cfg.crystal2.u, abs=1e-14)
        # the interfering amplitude keeps only the idler-loop terms
        assert d.cre[Mode.IDLER] == pytest.approx(
            cfg.crystal2.v.conjugate() * 0 + caption_coefficients(cfg)["cre_idler"],
            abs=1e-14,
        )

    def test_commutator_invariant_random_configs(self, rng):
        worst = 0.0
        for _ in range(1000):
            cfg = random_config(rng)
            worst = max(worst, abs(commutator_defect(detected_mode(cfg))))
        assert worst < 1e-12


class TestPhotonNumber:
    def test_equals_exact_scan_at_zero_phase_bitwise(self, rng):
        # the scalar photon number and the exact scan are one reduction of
        # one composer: equal to the last bit, not merely close
        schedule, noise = ScanSchedule(0.0, 0.0, 0.0, 0.0, 8), NoiseModel(1.0)
        for _ in range(2000):
            cfg = random_config(rng)
            expected_n = simulate_scan(cfg, schedule, noise, regime="exact").expected_n
            assert np.all(expected_n == photon_number_exact(cfg))

    def test_no_pump_no_photons(self):
        cfg = simple_config(crystal1=CrystalGain(0.0), crystal2=CrystalGain(0.0))
        assert photon_number_exact(cfg) == 0.0

    def test_blocked_quarter_wave_pair_frozen_value(self):
        # mean transmission 0.85 through the crossed pair; differential phase
        # placed at the odd half turn -> 1 + 0.85^2
        cfg = InterferometerConfig(
            crystal1=CrystalGain(1.0),
            crystal2=CrystalGain(1.0),
            signal=blocked_signal(),
            waveplate1=quarter_wave(math.pi / 4),
            waveplate2=quarter_wave(3 * math.pi / 4),
            sample=SampleAxes(0.9, 0.8),
        )
        assert photon_number_exact(cfg) == pytest.approx(1.7225, abs=1e-12)

    def test_lowgain_constructive_value(self):
        v = 0.01
        cfg = simple_config(crystal1=CrystalGain(v), crystal2=CrystalGain(v))
        assert photon_number_exact(cfg) == pytest.approx(4 * v * (1 + v), abs=1e-14)

    def test_lowgain_limit_matches_beating_formula(self):
        # tiny gain: quadratic terms below 1e-12 absolute
        v = 1e-7
        cfg = InterferometerConfig(
            crystal1=CrystalGain(v),
            crystal2=CrystalGain(v),
            signal=SignalControl(cmath.exp(1j * math.pi)),
            waveplate1=quarter_wave(math.pi / 4),
            waveplate2=quarter_wave(3 * math.pi / 4),
            sample=SampleAxes(0.9, 0.9),
        )
        assert photon_number_exact(cfg) == pytest.approx(
            n_lowgain(beating_parameters(cfg)), abs=1e-12
        )

    def test_lowgain_linear_convergence(self):
        # (exact - lowgain)/V shrinks linearly with V
        ratios = []
        for v in (1e-3, 1e-4, 1e-5):
            cfg = InterferometerConfig(
                crystal1=CrystalGain(v),
                crystal2=CrystalGain(v),
                signal=SignalControl(0.9 * cmath.exp(0.7j)),
                waveplate1=WaveplateSetting(0.5, 1.3),
                waveplate2=WaveplateSetting(2.0, 0.8),
                sample=SampleAxes(0.8 * cmath.exp(0.3j), 0.6 * cmath.exp(-0.2j)),
            )
            gap = abs(photon_number_exact(cfg) - n_lowgain(beating_parameters(cfg)))
            ratios.append(gap / v)
        assert ratios[0] / ratios[1] == pytest.approx(10.0, rel=0.05)
        assert ratios[1] / ratios[2] == pytest.approx(10.0, rel=0.05)

    def test_equal_gain_exact_matches_highgain_formula(self, rng):
        for _ in range(300):
            cfg = random_config(rng, equal_gains=True, v_low=1e-6, rotation=False)
            n_exact = photon_number_exact(cfg)
            n_formula = n_highgain(beating_parameters(cfg))
            assert abs(n_exact - n_formula) / max(n_exact, 1e-9) < 1e-10

    def test_exact_matches_highgain_formula_with_rotation(self, rng):
        # the closed form extends to rotated samples through the combined
        # waveplate coefficients
        for _ in range(100):
            cfg = random_config(rng, equal_gains=True, v_low=1e-6, rotation=True)
            n_exact = photon_number_exact(cfg)
            n_formula = n_highgain(beating_parameters(cfg))
            assert abs(n_exact - n_formula) / max(n_exact, 1e-9) < 1e-10

    def test_gain_decomposition_identity(self, rng):
        # exact = lowgain*(1+V) + blocked - V(V+1)
        for _ in range(300):
            cfg = random_config(rng, equal_gains=True, rotation=False)
            p = beating_parameters(cfg)
            v = p.mean_photons
            combined = n_lowgain(p) * (1.0 + v) + n_blocked(p) - v * (v + 1.0)
            n_exact = photon_number_exact(cfg)
            assert abs(n_exact - combined) < 1e-10 * max(n_exact, 1.0)

    def test_erasure_setting_is_flat(self):
        # sample out, both quarter-wave plates diagonal: idler arrives in the
        # orthogonal polarization and cannot induce coherence
        values = []
        for phi0 in np.linspace(0.0, 2.0 * math.pi, 32):
            cfg = InterferometerConfig(
                crystal1=CrystalGain(1.0),
                crystal2=CrystalGain(1.0),
                signal=SignalControl(cmath.exp(1j * phi0)),
                waveplate1=quarter_wave(math.pi / 4),
                waveplate2=quarter_wave(math.pi / 4),
                sample=lossless_sample(),
            )
            values.append(photon_number_exact(cfg))
        assert np.ptp(values) < 1e-12 * np.mean(values)

    def test_axis_swap_invariance(self, rng):
        # exchanging the sample axes together with the matching relabeling of
        # both waveplates leaves the photon number unchanged
        for _ in range(50):
            cfg = random_config(rng, rotation=False)
            t1, r1 = cfg.effective_waveplates()[:2]
            t2, r2 = cfg.effective_waveplates()[2:]
            swapped = dataclasses.replace(
                cfg,
                waveplate1=WaveplateCoeffs(-np.conj(r1), np.conj(t1)),
                waveplate2=WaveplateCoeffs(r2, -t2),
                sample=SampleAxes(cfg.sample.t_par, cfg.sample.t_perp),
            )
            assert photon_number_exact(swapped) == pytest.approx(
                photon_number_exact(cfg), rel=1e-12, abs=1e-12
            )


class TestThreePathDecomposition:
    def test_blocked_arm_kills_signal_path(self, rng):
        cfg = dataclasses.replace(random_config(rng), signal=blocked_signal())
        signal_path, _, _ = three_path_decomposition(cfg)
        assert signal_path == 0.0

    def test_unconverted_plate_kills_parallel_path(self, rng):
        cfg = dataclasses.replace(
            random_config(rng, rotation=False), waveplate1=identity_plate()
        )
        _, _, par_path = three_path_decomposition(cfg)
        assert par_path == pytest.approx(0.0, abs=1e-15)

    def test_paths_sum_to_interfering_amplitude(self, rng):
        for _ in range(200):
            cfg = random_config(rng)
            total = sum(three_path_decomposition(cfg))
            assert total == pytest.approx(detected_mode(cfg).cre[Mode.IDLER], abs=1e-14)


class TestScanPhases:
    def test_signal_phase_adds_to_control(self):
        cfg = simple_config(signal=SignalControl(0.7))
        shifted = with_scan_phases(cfg, 0.9, 0.0)
        assert cmath.phase(shifted.signal.transmission) == pytest.approx(0.9)
        assert abs(shifted.signal.transmission) == pytest.approx(0.7)

    def test_diff_phase_is_antisymmetric(self):
        cfg = simple_config(sample=SampleAxes(0.9 * cmath.exp(0.2j), 0.8))
        shifted = with_scan_phases(cfg, 0.0, 0.6)
        assert cmath.phase(shifted.sample.t_perp) == pytest.approx(0.5)
        assert cmath.phase(shifted.sample.t_par) == pytest.approx(-0.3)

    def test_unequal_gains_rejected_only_by_closed_forms(self):
        # unequal gains are a valid configuration for the exact composer;
        # the closed forms, and so the low-gain scan, refuse it
        cfg = simple_config(crystal2=CrystalGain(2.0))
        schedule, noise = ScanSchedule(signal_rate=0.3, n_samples=8), NoiseModel(1.0)
        assert len(simulate_scan(cfg, schedule, noise, regime="exact")) == 8
        with pytest.raises(ValueError, match="equal crystal gains"):
            beating_parameters(cfg)
        with pytest.raises(ValueError, match="equal crystal gains"):
            simulate_scan(cfg, schedule, noise, regime="lowgain")


class TestBatchedComposer:
    def phase_grid(self, rng):
        # 2-D batch: signal phase along rows, differential phase along columns
        sp = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(4, 1))
        dp = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, size=(1, 4))
        return sp, dp

    def configs(self, rng, n):
        for k in range(n):
            cfg = random_config(rng)
            yield dataclasses.replace(cfg, signal=blocked_signal()) if k % 4 == 0 else cfg

    def test_matches_per_step_composition(self, rng):
        for cfg in self.configs(rng, 200):
            sp, dp = self.phase_grid(rng)
            batched = detected_mode(cfg, sp, dp)
            assert batched.batch_shape == (4, 4)
            steps = [detected_mode(with_scan_phases(cfg, s, d)) for s in sp[:, 0] for d in dp[0]]
            ref_ann = np.stack([x.ann for x in steps], axis=-1).reshape(6, 4, 4)
            ref_cre = np.stack([x.cre for x in steps], axis=-1).reshape(6, 4, 4)
            # relative to each step's largest amplitude
            scale = np.maximum(np.abs(ref_ann).max(axis=0), np.abs(ref_cre).max(axis=0))
            assert np.all(np.abs(batched.ann - ref_ann) <= 1e-13 * scale)
            assert np.all(np.abs(batched.cre - ref_cre) <= 1e-13 * scale)

    def test_commutator_defect_per_column(self, rng):
        for cfg in self.configs(rng, 200):
            d = detected_mode(cfg, *self.phase_grid(rng))
            n = vacuum_photon_number(d)
            assert np.all(np.abs(commutator_defect(d)) <= 1e-12 * (1.0 + n))

    def test_scalar_phases_match_unbatched_call(self, rng):
        cfg = random_config(rng)
        d = detected_mode(cfg)
        assert d.batch_shape == ()
        assert vacuum_photon_number(d) == pytest.approx(photon_number_exact(cfg), rel=1e-14)

    def test_nonfinite_phase_rejected(self, rng):
        with pytest.raises(ValueError):
            detected_mode(random_config(rng), np.array([0.0, np.nan]), 0.0)
