import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (blocked_arm, n_highgain, oracle_tol, previous_fringes,
                      previous_three_path_decomposition, random_config, with_scan_phases)
from nli_polarimetry import (
    CrystalGain,
    InterferometerConfig,
    Mode,
    NoiseModel,
    OperatorExpansion,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    WaveplateCoeffs,
    beating_parameters,
    detected_mode,
    n_lowgain,
    path_amplitudes,
    photon_number_exact,
    quarter_wave,
    simulate_scan,
    waveplate,
)
from nli_polarimetry import interferometer
from nli_polarimetry.mode_algebra import commutator_defect, vacuum_photon_number


def identity_plate():
    return waveplate(axis_angle=0.0, retardance=0.0)


def simple_config(**overrides):
    base = dict(
        crystal1=CrystalGain(1.0),
        crystal2=CrystalGain(1.0),
        signal=SignalControl(1.0),
        waveplate1=identity_plate(),
        waveplate2=identity_plate(),
        sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
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


class TestInterferometerConfig:
    @pytest.mark.parametrize("rotation", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_rotation(self, rng, rotation):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(random_config(rng), rotation=rotation)
        assert (err.type, str(err.value)) == (ValueError, "rotation must be finite")


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
        cfg = simple_config(signal=SignalControl(0.0))
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

    def test_array_phases_equal_scalar_calls_bitwise(self, rng):
        # one function of the phases: a batched call gives the bits of its
        # elementwise scalar calls
        for _ in range(100):
            cfg = random_config(rng)
            sp, dp = rng.uniform(0.0, 2.0 * math.pi, size=(2, 32))
            batched = photon_number_exact(cfg, sp, dp)
            scalar = [photon_number_exact(cfg, float(s), float(d)) for s, d in zip(sp, dp)]
            assert batched.tobytes() == np.array(scalar).tobytes()

    def test_overflow_raises_without_warning(self):
        # crossed quarter-wave pair, sample removed: at 1e200 the photon
        # number overflows, at 1.7e308 an amplitude already does
        for v in (1e200, 1.7e308):
            cfg = InterferometerConfig(
                crystal1=CrystalGain(v),
                crystal2=CrystalGain(v),
                signal=SignalControl(1.0),
                waveplate1=quarter_wave(math.pi / 4),
                waveplate2=quarter_wave(3 * math.pi / 4),
                sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError, match="^detected photon number overflows"):
                    photon_number_exact(cfg)

    def test_subnormal_photon_number_is_no_overflow(self):
        # at 1e-320 the photon number (4e-320) is a subnormal: under a
        # caller's np.errstate(under="raise") it keeps its bits, and an
        # overflow at 1e200 still raises
        phases = (np.linspace(0.0, 2.0 * math.pi, 16), 0.3)
        for call_phases in ((), phases):
            plain = photon_number_exact(crossed_pair_config(1e-320), *call_phases)
            assert 0.0 < np.min(plain) < 1e-300
            with np.errstate(under="raise"):
                strict = photon_number_exact(crossed_pair_config(1e-320), *call_phases)
                with pytest.raises(OverflowError, match="^detected photon number overflows"):
                    photon_number_exact(crossed_pair_config(1e200), *call_phases)
            assert np.asarray(strict).tobytes() == np.asarray(plain).tobytes()

    def test_composer_checks_each_combination(self):
        # crossed quarter-wave pair, sample removed, with floating-point
        # errors ignored: each combination of the chain checks the
        # amplitudes it composed, so one that overflowed on the way is
        # refused, and a large finite one goes through
        for v, overflows in ((1.7e308, True), (1e200, False)):
            cfg = InterferometerConfig(
                crystal1=CrystalGain(v),
                crystal2=CrystalGain(v),
                signal=SignalControl(1.0),
                waveplate1=quarter_wave(math.pi / 4),
                waveplate2=quarter_wave(3 * math.pi / 4),
                sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
            )
            with np.errstate(all="ignore"):
                if overflows:
                    with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                        detected_mode(cfg)
                else:
                    d = detected_mode(cfg)
                    assert np.isfinite(d.ann).all() and np.isfinite(d.cre).all()

    def test_no_pump_no_photons(self):
        cfg = simple_config(crystal1=CrystalGain(0.0), crystal2=CrystalGain(0.0))
        assert photon_number_exact(cfg) == 0.0

    def test_blocked_quarter_wave_pair_frozen_value(self):
        # mean transmission 0.85 through the crossed pair; differential phase
        # placed at the odd half turn -> 1 + 0.85^2
        cfg = InterferometerConfig(
            crystal1=CrystalGain(1.0),
            crystal2=CrystalGain(1.0),
            signal=SignalControl(0.0),
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
                waveplate1=waveplate(0.5, 1.3),
                waveplate2=waveplate(2.0, 0.8),
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
            combined = n_lowgain(p) * (1.0 + v) + n_highgain(blocked_arm(p)) - v * (v + 1.0)
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
                sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
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
        cfg = dataclasses.replace(random_config(rng), signal=SignalControl(0.0))
        signal_path = path_amplitudes(cfg)[0]
        assert signal_path == 0.0

    def test_unconverted_plate_kills_parallel_path(self, rng):
        cfg = dataclasses.replace(
            random_config(rng, rotation=False), waveplate1=identity_plate()
        )
        par_path = path_amplitudes(cfg)[2]
        assert par_path == pytest.approx(0.0, abs=1e-15)

    def test_paths_sum_to_interfering_amplitude(self, rng):
        for _ in range(200):
            cfg = random_config(rng)
            total = sum(path_amplitudes(cfg)[:3])
            assert total == pytest.approx(detected_mode(cfg).cre[Mode.IDLER], abs=1e-14)


def real_typed_configs():
    """Configurations built of Python floats where a plate, the sample or
    the control splitter is real, some with signed zeros: there a real
    factor of a path has no imaginary part to conjugate."""
    plates = [WaveplateCoeffs(a, b) for a, b in ((1.0, 0.0), (-0.0, -1.0), (0.6, -0.8),
                                                 (0.8, 0.6j))]
    samples = [SampleAxes(a, b) for a, b in ((0.9, -0.8), (-0.0, 0.3), (0.9j, -0.2))]
    for plate1, plate2, sample, rotation, ts in itertools.product(
            plates, plates, samples, (0.0, -0.0, math.pi / 2), (0.0, -0.7)):
        yield InterferometerConfig(CrystalGain(2.0), CrystalGain(2.0, math.pi),
                                   SignalControl(ts), plate1, plate2, sample, rotation)


def complex_bits(values):
    """``float.hex`` of the real and imaginary part of each value."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


class TestPathBits:
    """The paths and the photon number's real form are reduced in Python
    arithmetic, with the bits of their numpy-scalar forms."""

    def test_paths_and_fringes_keep_the_numpy_scalar_bits(self, rng):
        configs = [random_config(rng, rotation=k % 2 == 0) for k in range(2000)]
        configs += [crossed_pair_config(1e200), crossed_pair_config(1.7e308),
                    loss_port_overflow_config(), *signed_zero_pair(), *real_typed_configs()]
        for cfg in configs:
            want_fringes = [x.hex() for x in previous_fringes(cfg)]
            # an overflow, an infinite c0, raises without a warning and keeps nothing
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                paths = path_amplitudes(cfg)[:3]
                if want_fringes[0] == "inf":
                    with pytest.raises(OverflowError, match="^detected photon number overflows"):
                        fringe_bits(cfg)
                    assert "_fringes" not in cfg.__dict__
                else:
                    assert fringe_bits(cfg) == want_fringes
            with np.errstate(all="ignore"):
                want = previous_three_path_decomposition(cfg)
            assert complex_bits(paths) == complex_bits(want)


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
            yield dataclasses.replace(cfg, signal=SignalControl(0.0)) if k % 4 == 0 else cfg

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

    def test_photon_number_matches_detected_modes(self, rng):
        # photon_number_exact evaluates the composer's photon number in its
        # real form: the same type and shape at every phase shape, and the
        # same value to within the oracle tolerance
        for cfg in self.configs(rng, 2000):
            sp, dp = self.phase_grid(rng)
            for phases in ((float(sp[0, 0]), float(dp[0, 0])), (sp[:, 0], dp[0]), (sp, dp)):
                got = photon_number_exact(cfg, *phases)
                want = vacuum_photon_number(detected_mode(cfg, *phases))
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.all(np.abs(got - want) <= oracle_tol(cfg))

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
        cfg, refused = random_config(rng), "^scan phases must be finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=refused):
                photon_number_exact(cfg, np.array([0.0, np.nan]), 0.0)
            # the cosine of an infinity is numpy's invalid value
            with np.errstate(invalid="ignore"):
                for phases in ((0.3, math.inf), (-math.inf, 0.1)):
                    with pytest.raises(ValueError, match=refused):
                        photon_number_exact(cfg, *phases)
            with np.errstate(invalid="raise"), pytest.raises(
                    OverflowError, match="^detected photon number overflows at this gain$"):
                photon_number_exact(cfg, 0.3, math.inf)


def crossed_pair_config(v):
    """Crossed quarter-wave pair, sample removed, at gain ``v``."""
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4),
        sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
    )


def loss_port_overflow_config():
    """The largest gain, a second plate whose |tau| is 1 + 4e-10 (within
    validation) and an opaque sample: only the squared modulus of the
    perpendicular loss port overflows."""
    return InterferometerConfig(
        CrystalGain(0.0), CrystalGain(sys.float_info.max), SignalControl(0.0),
        WaveplateCoeffs(1.0, 0.0), WaveplateCoeffs(1.0 + 4e-10, 0.0), SampleAxes(0.0, 0.0))


def signed_zero_pair():
    """Equal configurations whose fringes differ in a zero's sign: at
    rotation 0.0 the perpendicular path's coefficient is -0.636-0j, at -0.0
    it is -0.636+0j, so the signal-perpendicular fringe's phase is +pi or
    -pi."""
    plate1 = WaveplateCoeffs(1.0 + 0.0j, 0.0j)
    plate2 = WaveplateCoeffs(complex(-1.0, -0.0), complex(-0.0, -0.0))
    pos = InterferometerConfig(CrystalGain(0.5), CrystalGain(0.5), SignalControl(1.0),
                               plate1, plate2, SampleAxes(0.9 + 0.0j, 0.2 + 0.0j), 0.0)
    return [pos, dataclasses.replace(pos, rotation=-0.0)]


def outcome(call, *args):
    """What ``call(*args)`` did: its result's bits or its exception's type
    and message, and every warning it gave, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(*args)
            done = ("bits", np.asarray(getattr(result, "_amps", result)).tobytes())
        except Exception as exc:
            done = (type(exc), str(exc))
    return done, [(w.category, str(w.message)) for w in caught]


def fringe_bits(cfg):
    """float.hex of each value of ``cfg``'s photon-number real form."""
    return [x.hex() for x in cfg._fringes]


class TestFringeMemo:
    """Each configuration object reduces its photon number's real form once
    and keeps it; a reused configuration gives the bits of a fresh one.  The
    composer keeps nothing."""

    def test_reused_configuration_gives_fresh_bits(self, rng):
        composer = TestBatchedComposer()
        for cfg in composer.configs(rng, 200):
            sp, dp = composer.phase_grid(rng)
            photon_number_exact(cfg, 1.0, 2.0)
            assert "_fringes" in cfg.__dict__
            for phases in ((), (float(sp[0, 0]), float(dp[0, 0])), (sp[:, 0], dp[0]), (sp, dp)):
                # dataclasses.replace builds an equal configuration that reduces afresh
                for call in (detected_mode, photon_number_exact):
                    assert outcome(call, cfg, *phases) == outcome(
                        call, dataclasses.replace(cfg), *phases)

    def test_reused_configuration_reduces_nothing(self, rng, monkeypatch):
        # the photon number reduces the paths once and composes no
        # expansion; the composer builds its chain on every call and
        # reduces no paths
        reductions, built = [], []
        paths, post_init = interferometer.path_amplitudes, OperatorExpansion.__post_init__
        monkeypatch.setattr(interferometer, "path_amplitudes",
                            lambda cfg: reductions.append(1) or paths(cfg))
        monkeypatch.setattr(OperatorExpansion, "__post_init__",
                            lambda self: built.append(1) or post_init(self))
        cfg = random_config(rng)
        for _ in range(3):
            photon_number_exact(cfg, np.linspace(0.0, 1.0, 5), 0.3)
        assert reductions == [1] and built == []
        detected_mode(cfg, 0.2, 0.1)
        per_call = len(built)
        detected_mode(cfg, 0.2, 0.1)
        assert reductions == [1] and per_call > 0 and len(built) == 2 * per_call

    def test_copies_and_signed_zero_rotations_reduce_their_own(self):
        pos, neg = signed_zero_pair()
        assert pos == neg and hash(pos) == hash(neg)
        a1_pos, a1_neg = (c._fringes[2] for c in (pos, neg))
        assert (a1_pos, a1_neg) == (math.pi, -math.pi)
        for cfg in (pos, neg):
            again = dataclasses.replace(cfg)
            assert "_fringes" not in again.__dict__
            assert fringe_bits(again) == fringe_bits(cfg)
            assert outcome(photon_number_exact, again, 0.4, 1.1) == outcome(
                photon_number_exact, cfg, 0.4, 1.1)

    @pytest.mark.parametrize("errors", ["default", "ignore"])
    @pytest.mark.parametrize("first", [detected_mode, photon_number_exact],
                             ids=["detected_mode_first", "photon_number_first"])
    @pytest.mark.parametrize("v", [1e200, 1.7e308])
    def test_overflow_repeats_as_on_a_fresh_configuration(self, v, first, errors):
        second = photon_number_exact if first is detected_mode else detected_mode
        with np.errstate(**({"all": "ignore"} if errors == "ignore" else {})):
            fresh = [outcome(call, crossed_pair_config(v)) for call in (first, second)]
            cfg = crossed_pair_config(v)
            reused = [outcome(call, cfg) for call in (first, second, first, second)]
        assert reused == fresh + fresh
        # the photon number overflows at both gains; the amplitudes only at
        # 1.7e308, where numpy's overflow warning shows unless ignored
        for call, (done, caught) in zip((first, second), fresh):
            if call is photon_number_exact:
                assert done == (OverflowError, "detected photon number overflows at this gain")
            elif v == 1e200:
                assert done[0] == "bits"
            else:
                assert done == (ValueError, "amplitudes must be finite")
            warns = call is detected_mode and v == 1.7e308 and errors == "default"
            assert caught == ([(RuntimeWarning, "overflow encountered in add")] if warns else [])

    def test_composer_keeps_nothing(self, rng):
        # validated elements keep every phase-free amplitude below 3e154; an
        # infinite gain forced past validation composes non-finite paths,
        # which refuse on every call
        cfg = random_config(rng)
        fields = dict(cfg.__dict__)
        detected_mode(cfg, np.linspace(0.0, 1.0, 5), 0.3)
        assert cfg.__dict__ == fields
        cfg = crossed_pair_config(0.5)
        object.__setattr__(cfg.crystal1, "mean_photons", math.inf)
        with np.errstate(all="ignore"):
            for _ in range(2):
                with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                    detected_mode(cfg)
                assert not [k for k in cfg.__dict__ if k.startswith("_")]

    def test_copies_give_the_source_bits(self, rng):
        # the memos, a tuple of floats and a frozen BeatingParameters, depend
        # only on the bits of the fields, which a copy and a pickle keep: a
        # configuration copied before or after its reductions, or rebuilt by
        # dataclasses.replace, gives the source's bits
        clones = (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
                  dataclasses.replace)
        sp, dp = rng.uniform(-20.0, 20.0, size=(2, 7))

        def bits(cfg):
            p = beating_parameters(cfg)
            return (fringe_bits(cfg), [getattr(p, f.name).hex() for f in dataclasses.fields(p)],
                    photon_number_exact(cfg, sp, dp).tobytes())

        for cfg in [random_config(rng, equal_gains=True) for _ in range(20)] + signed_zero_pair():
            before = [clone(cfg) for clone in clones]
            want = bits(cfg)
            assert type(cfg._fringes) is tuple and {type(x) for x in cfg._fringes} == {float}
            for other in before + [clone(cfg) for clone in clones]:
                assert other == cfg and bits(other) == want


def photon_number_bits(call, cfg, *phases):
    """The type, shape and bytes of ``call(cfg, *phases)``, or its
    exception's type and message, and every warning it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call(cfg, *phases)
            done = (type(result), np.shape(result), np.asarray(result).tobytes())
        except Exception as exc:
            done = (type(exc), str(exc))
    return done, [(w.category, str(w.message)) for w in caught]


def phase_shapes(rng):
    """Scan phases of every shape a caller passes: none, floats, 0-d, 1-D
    (both, and against a float) and a 2-D broadcast."""
    sp, dp = rng.uniform(-20.0, 20.0, size=(2, 7))
    return [(), (float(sp[0]), float(dp[0])), (np.array(sp[1]), np.float64(dp[1])),
            (sp, dp), (sp[:1], float(dp[2])), (float(sp[3]), dp),
            (sp[:, None], dp[None, :4])]


angles = st.floats(-2.0 * math.pi, 2.0 * math.pi)
gains = st.one_of(st.sampled_from([0.0, 1e-320]), st.floats(0.0, 5.0))
# blocked, lossless and partly open arms and sample axes
magnitudes = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def configurations(draw, equal_gains=False):
    def transmission():
        return draw(magnitudes) * cmath.exp(1j * draw(angles))

    v1 = draw(gains)
    return InterferometerConfig(
        crystal1=CrystalGain(v1, draw(st.one_of(st.just(0.0), angles))),
        crystal2=CrystalGain(v1 if equal_gains else draw(gains),
                             draw(st.one_of(st.just(0.0), angles))),
        signal=SignalControl(transmission()),
        waveplate1=waveplate(draw(angles), draw(angles)),
        waveplate2=waveplate(draw(angles), draw(angles)),
        sample=SampleAxes(transmission(), transmission()),
        rotation=draw(st.one_of(st.sampled_from([0.0, -0.0]), angles)),
    )


class TestPhotonNumberOracle:
    """``photon_number_exact`` evaluates the five-path form, which is the
    composer's photon number to within ``oracle_tol``."""

    @settings(max_examples=400, deadline=None)
    @given(cfg=configurations(), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_composer(self, cfg, seed):
        tol = oracle_tol(cfg)
        for phases in phase_shapes(np.random.default_rng(seed)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = photon_number_exact(cfg, *phases)
            want = vacuum_photon_number(detected_mode(cfg, *phases))
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.all(np.abs(got - want) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(cfg=configurations(), seed=st.integers(0, 2**32 - 1))
    def test_five_paths_are_the_composers_creation_rows(self, cfg, seed):
        # the idler's row is the three paths, its orthogonal polarization's
        # the two paths P' and Q', the loss ports' rows carry the constant
        # L, and no path reaches the signal or the tap
        s, p, q, p_pol, q_pol, loss = path_amplitudes(cfg)
        sp, dp = np.random.default_rng(seed).uniform(-20.0, 20.0, size=(2, 7))
        cre = detected_mode(cfg, sp, dp).cre
        half = np.exp(0.5j * dp)
        tol = 1e-14 * (1.0 + cfg.crystal1.mean_photons + cfg.crystal2.mean_photons)
        assert np.all(np.abs(cre[Mode.IDLER] - (s * np.exp(1j * sp) + p / half + q * half))
                      <= tol)
        assert np.all(np.abs(cre[Mode.IDLER_POL] - (p_pol / half + q_pol * half)) <= tol)
        losses = np.abs(cre[Mode.SAMPLE_PERP]) ** 2 + np.abs(cre[Mode.SAMPLE_PAR]) ** 2
        assert np.all(np.abs(losses - loss) <= tol * (1.0 + loss))
        assert not cre[[Mode.SIGNAL, Mode.SIGNAL_TAP]].any()

    @settings(max_examples=200, deadline=None)
    @given(cfg=configurations(equal_gains=True), seed=st.integers(0, 2**32 - 1))
    def test_equal_gains_match_n_highgain(self, cfg, seed):
        # the all-orders beating formula is the five-path form at equal gains
        p = beating_parameters(cfg)
        tol = oracle_tol(cfg)
        for phases in phase_shapes(np.random.default_rng(seed)):
            got, want = photon_number_exact(cfg, *phases), n_highgain(p, *phases)
            assert np.all(np.abs(got - want) <= tol)

    @settings(max_examples=200, deadline=None)
    @given(v=gains, pump=angles, perp_phase=angles, diff=angles, t_par=magnitudes)
    def test_dark_fringes_are_nonnegative(self, v, pump, perp_phase, diff, t_par):
        # plates that leave the idler's polarization alone and a lossless
        # perpendicular axis: the signal and perpendicular paths carry equal
        # amplitudes at equal gains, so the fringe between them goes dark,
        # where rounding can take the real form below zero, and the record
        # is clipped there
        cfg = InterferometerConfig(
            CrystalGain(v, pump), CrystalGain(v), SignalControl(1.0),
            WaveplateCoeffs(1.0, 0.0), WaveplateCoeffs(1.0, 0.0),
            SampleAxes(cmath.exp(1j * perp_phase), t_par))
        s, p = path_amplitudes(cfg)[:2]
        dark = math.pi - cmath.phase(s * p.conjugate()) - 0.5 * diff
        schedule = ScanSchedule(dark, diff, 1e-9, 0.0, 8)
        expected_n = simulate_scan(cfg, schedule, NoiseModel(1.0)).expected_n
        assert np.all(expected_n >= 0.0)
        assert np.all(expected_n <= oracle_tol(cfg))

    @pytest.mark.parametrize("make", [lambda: crossed_pair_config(1e200),
                                      lambda: crossed_pair_config(1.7e308),
                                      lambda: loss_port_overflow_config()],
                             ids=["1e200", "1.7e308", "loss_port"])
    def test_overflow_raises_on_fresh_and_reused_configurations(self, make, rng):
        overflow = ((OverflowError, "detected photon number overflows at this gain"), [])
        reused = make()
        for phases in phase_shapes(rng):
            assert photon_number_bits(photon_number_exact, make(), *phases) == overflow
            assert photon_number_bits(photon_number_exact, reused, *phases) == overflow
        # the overflowing reduction raises on every call and keeps nothing
        assert "_fringes" not in reused.__dict__
