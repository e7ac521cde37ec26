import cmath
import csv
import dataclasses
import math
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import HUGE, MALFORMED_SERIES, random_config, scaled_counts, with_scan_phases
from nli_polarimetry import (
    CalibrationError,
    CrystalGain,
    EstimationError,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    TimeSeries,
    beating_parameters,
    calibrate,
    fourier_protocol_schedule,
    harmonic_regress,
    photon_number_exact,
    quarter_wave,
    simulate_scan,
)
from nli_polarimetry import scan
from nli_polarimetry.scan import CSV_COLUMNS, _design, _fit_design, write_csv

KAPPA = 1.0e4


def calibration_config(v=0.5, sample=None):
    """Sample removed, crossed quarter-wave pair, lossless signal arm."""
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4),
        sample=sample if sample is not None else SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
    )


def signal_arm_scan(xi_bar, delta_xi, n=256, noise=None, v=0.5):
    sched = ScanSchedule(
        signal_offset=xi_bar, diff_offset=delta_xi,
        signal_rate=2.0 * math.pi / (n // 4), diff_rate=0.0, n_samples=n,
    )
    noise = noise or NoiseModel(KAPPA)
    return simulate_scan(calibration_config(v), sched, noise, regime="lowgain")


def idler_arm_scan(xi_bar, delta_xi, n=256, noise=None, v=0.5):
    sched = ScanSchedule(
        signal_offset=xi_bar, diff_offset=delta_xi,
        signal_rate=0.0, diff_rate=4.0 * math.pi / (n // 2), n_samples=n,
    )
    noise = noise or NoiseModel(KAPPA)
    return simulate_scan(calibration_config(v), sched, noise, regime="lowgain")


class TestSchedule:
    def test_validates_sample_count(self):
        with pytest.raises(ValueError):
            ScanSchedule(n_samples=4)

    def test_rejects_fractional_sample_count(self):
        # np.arange(8.5) would make a 9-step scan
        with pytest.raises(ValueError, match="^n_samples must be an integer$"):
            ScanSchedule(n_samples=8.5)
        assert len(simulate_scan(calibration_config(), ScanSchedule(n_samples=np.int64(8)),
                                 NoiseModel(KAPPA), regime="lowgain")) == 8

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_boolean_sample_count(self, flag):
        # as the CLI refuses a JSON boolean for schedule.n_samples
        with pytest.raises(ValueError, match="^n_samples must be an integer$"):
            ScanSchedule(n_samples=flag)

    def test_fourier_protocol_spans_whole_periods(self):
        sched = fourier_protocol_schedule(4, 100)
        assert sched.n_samples == 400
        assert sched.signal_rate == sched.diff_rate
        # rate * n is a whole number of beat periods (4*pi each)
        assert (sched.signal_rate * sched.n_samples) / (4.0 * math.pi) == pytest.approx(4.0)

    @pytest.mark.parametrize("counts, name", [
        ((True, 100), "n_periods"), ((1.5, 100), "n_periods"), ((2.0, 100), "n_periods"),
        ((2, 8.5), "samples_per_period"), ((2, False), "samples_per_period"),
    ])
    def test_fourier_protocol_counts_are_integers_named_as_passed(self, counts, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            fourier_protocol_schedule(*counts)
        # numpy integers are integers
        assert (fourier_protocol_schedule(np.int64(2), np.int32(50))
                == fourier_protocol_schedule(2, 50))


class TestNoiseModel:
    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            NoiseModel(counts_per_unit=0.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            NoiseModel(counts_per_unit=1.0, mode="gaussian")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            NoiseModel(counts_per_unit=1.0, seed=-1)

    def test_rejects_fractional_seed(self):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            NoiseModel(counts_per_unit=1.0, seed=1.5)
        assert NoiseModel(counts_per_unit=1.0, seed=np.uint32(3)).seed == 3

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_boolean_seed(self, flag):
        # as the CLI refuses a JSON boolean for noise.seed
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            NoiseModel(counts_per_unit=1.0, seed=flag)


class TestSimulateScan:
    def test_zero_rates_constant_counts(self):
        cfg = calibration_config()
        sched = ScanSchedule(n_samples=16)
        series = simulate_scan(cfg, sched, NoiseModel(KAPPA), regime="exact")
        expected = photon_number_exact(cfg) * KAPPA
        np.testing.assert_allclose(series.counts, expected, rtol=1e-12)
        np.testing.assert_allclose(series.expected_n * KAPPA, series.counts)

    def test_lowgain_matches_empty_interferometer_form(self):
        v = 0.5
        sched = ScanSchedule(
            signal_offset=0.7, diff_offset=1.1, signal_rate=0.1, diff_rate=0.1,
            n_samples=100,
        )
        series = simulate_scan(calibration_config(v), sched, NoiseModel(1.0),
                               regime="lowgain")
        t = np.arange(100, dtype=float)
        want = 2.0 * v * (1.0 + np.cos(0.5 * (1.1 + 0.1 * t)) * np.cos(0.7 + 0.1 * t))
        np.testing.assert_allclose(series.counts, want, atol=1e-12)

    def test_lowgain_matches_inline_oracle(self, rng):
        # oracle: the formula simulate_scan wrote out before it called
        # beating_intensity, in the same operation order
        for _ in range(100):
            cfg = random_config(rng, equal_gains=True)
            sched = ScanSchedule(*rng.uniform(-3.0, 3.0, 4), n_samples=64)
            series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
            p = beating_parameters(cfg)
            t = np.arange(sched.n_samples, dtype=float)
            mean = p.mean_total_phase + (sched.signal_offset + sched.signal_rate * t)
            half_diff = p.half_diff_phase + 0.5 * (sched.diff_offset + sched.diff_rate * t)
            want = 0.5 * p.amplitude * (
                1.0
                + p.diff_visibility * np.cos(half_diff) * np.cos(mean)
                - p.mean_visibility * np.sin(half_diff) * np.sin(mean)
            )
            want = np.maximum(want, 0.0)
            assert series.expected_n.tobytes() == want.tobytes()

    def test_exact_and_lowgain_agree_at_tiny_gain(self):
        cfg = dataclasses.replace(
            calibration_config(1e-7), sample=SampleAxes(0.9, 0.2)
        )
        sched = ScanSchedule(
            signal_offset=0.2, diff_offset=0.4, signal_rate=0.3, diff_rate=0.3,
            n_samples=24,
        )
        exact = simulate_scan(cfg, sched, NoiseModel(1.0), regime="exact")
        low = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        np.testing.assert_allclose(exact.expected_n, low.expected_n, rtol=1e-6)

    def test_phase_columns_exclude_offsets(self):
        sched = ScanSchedule(
            signal_offset=0.7, diff_offset=1.1, signal_rate=0.1, diff_rate=0.2,
            n_samples=12,
        )
        series = simulate_scan(calibration_config(), sched, NoiseModel(1.0),
                               regime="lowgain")
        np.testing.assert_allclose(series.phi0, 0.1 * np.arange(12))
        np.testing.assert_allclose(series.delta_phase, 0.2 * np.arange(12))

    def test_poisson_reproducible_and_mean(self):
        cfg = calibration_config()
        sched = ScanSchedule(n_samples=400)
        noise = NoiseModel(KAPPA, seed=11, mode="poisson")
        a = simulate_scan(cfg, sched, noise, regime="lowgain")
        b = simulate_scan(cfg, sched, noise, regime="lowgain")
        np.testing.assert_array_equal(a.counts, b.counts)
        mean_counts = a.expected_n[0] * KAPPA
        sigma = math.sqrt(mean_counts / len(a))
        assert abs(np.mean(a.counts) - mean_counts) < 3.0 * sigma

    def test_poisson_variance_over_mean_near_one(self):
        cfg = calibration_config()
        sched = ScanSchedule(n_samples=10_000)
        series = simulate_scan(cfg, sched, NoiseModel(100.0, seed=3, mode="poisson"),
                               regime="lowgain")
        ratio = np.var(series.counts) / np.mean(series.counts)
        assert 0.9 < ratio < 1.1

    def test_known_harmonics_only(self):
        # equal-rate scan over whole beat periods projects fully onto
        # {0, rate/2, 3 rate/2}
        cfg = dataclasses.replace(calibration_config(), sample=SampleAxes(0.9, 0.2))
        sched = fourier_protocol_schedule(3, 64, signal_offset=0.4, diff_offset=0.9)
        series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="lowgain")
        t = series.step.astype(float)
        rate = sched.signal_rate
        design = np.column_stack(
            [np.ones_like(t), np.cos(0.5 * rate * t), np.sin(0.5 * rate * t),
             np.cos(1.5 * rate * t), np.sin(1.5 * rate * t)]
        )
        coef, _, _, _ = np.linalg.lstsq(design, series.counts, rcond=None)
        resid = series.counts - design @ coef
        scale = np.sqrt(np.mean(series.counts**2))
        assert np.sqrt(np.mean(resid**2)) / scale < 1e-10

    def test_exact_matches_per_step_composition(self, rng):
        # reference: the scan phases imprinted on the config one step at a time
        sched = ScanSchedule(signal_offset=0.4, diff_offset=-1.1, signal_rate=0.37,
                             diff_rate=-0.23, n_samples=64)
        for _ in range(10):
            cfg = random_config(rng)
            series = simulate_scan(cfg, sched, NoiseModel(1.0), regime="exact")
            t = np.arange(sched.n_samples, dtype=float)
            want = [
                photon_number_exact(with_scan_phases(cfg, 0.4 + 0.37 * k, -1.1 - 0.23 * k))
                for k in t
            ]
            np.testing.assert_allclose(series.expected_n, want, rtol=1e-13, atol=1e-13)

    def test_exact_overflow_raises(self):
        # exact at 1e200: the path amplitudes stay finite but their squares
        # do not; at 1.7e308 a path amplitude itself overflows; low-gain at
        # 1e308: the beating amplitude overflows; a
        # finite photon number at 1e308 counts per unit: the counts overflow;
        # finite counts of 1e300 per unit: too large for the Poisson draw
        for regime, v, kappa, mode in (
            ("exact", 1e200, 1.0, "noiseless"), ("exact", 1.7e308, 1.0, "noiseless"),
            ("lowgain", 1e308, 1.0, "noiseless"), ("exact", 0.5, 1e308, "noiseless"),
            ("exact", 0.5, 1e300, "poisson"),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(OverflowError):
                    simulate_scan(calibration_config(v=v), ScanSchedule(n_samples=8),
                                  NoiseModel(kappa, mode=mode), regime=regime)

    @pytest.mark.parametrize("regime", ["exact", "lowgain"])
    @pytest.mark.parametrize("offsets, rates", [
        ((0.23, -0.61), (0.0, 2.6e307)),  # the differential ramp overflows
        ((1.7e308, 0.0), (1.5e307, 0.0)),  # finite ramp, offset plus ramp overflows
        ((-1.7e308, 0.0), (-1.5e307, 0.0)),
    ], ids=["ramp", "offset_plus_ramp", "negative"])
    def test_overflowing_scan_phases_raise_without_warning(self, regime, offsets, rates):
        # the phases are checked before either forward model runs, so the
        # error names them, not the photon number or the counts
        sched = ScanSchedule(*offsets, *rates, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^scan phases overflow a double$"):
                simulate_scan(calibration_config(), sched, NoiseModel(1.0), regime=regime)

    def test_largest_finite_scan_phases_pass(self):
        # offset plus ramp near the largest double, finite at every step
        sched = ScanSchedule(1e308, 0.0, 1e307, 0.0, 8)
        series = simulate_scan(calibration_config(), sched, NoiseModel(1.0), regime="lowgain")
        assert np.isfinite(sched.signal_offset + series.phi0).all()

    @pytest.mark.parametrize("mode", ["noiseless", "poisson"])
    @pytest.mark.parametrize("regime", ["exact", "lowgain"])
    def test_subnormal_photon_number_is_kept_under_raising_underflow(self, regime, mode):
        # at 1e-320 the photon number (about 4e-320) is a subnormal: an
        # underflow on the way to it is no overflow, whatever the caller's
        # np.errstate; an overflow still raises (the exact photon number at
        # 1e200, the low-gain amplitude at 1e308)
        huge = 1e200 if regime == "exact" else 1e308
        sched = ScanSchedule(0.2, 0.1, 2.0 * math.pi / 64, 0.0, 64)
        noise = NoiseModel(KAPPA, seed=3, mode=mode)
        plain = simulate_scan(calibration_config(v=1e-320), sched, noise, regime=regime)
        assert 0.0 < plain.expected_n.min() and plain.expected_n.max() < 1e-300
        with np.errstate(under="raise"):
            strict = simulate_scan(calibration_config(v=1e-320), sched, noise, regime=regime)
            with pytest.raises(OverflowError):
                simulate_scan(calibration_config(v=huge), sched, noise, regime=regime)
        for name in ("step", "phi0", "delta_phase", "expected_n", "counts"):
            assert getattr(strict, name).tobytes() == getattr(plain, name).tobytes()

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            simulate_scan(calibration_config(), ScanSchedule(n_samples=8),
                          NoiseModel(1.0), regime="midgain")


def reference_to_csv(columns, path):
    """The per-row ``csv.writer`` loop that ``TimeSeries.to_csv`` replaced,
    over the columns (step, phi0, delta_phase, expected_n, counts)."""
    step, *values = columns
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for k in range(len(step)):
            writer.writerow([int(step[k]), *(repr(float(c[k])) for c in values)])


def assert_writer_matches_reference(tmp_path, columns):
    """``write_csv`` writes the reference's bytes for any values, NaN and inf
    included, given int64 steps and float values; a series of finite values
    writes them through ``to_csv`` from the columns as they are, and a
    non-finite value cannot make a series."""
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    reference_to_csv(columns, ref)
    step, *values = columns
    write_csv(new, CSV_COLUMNS,
              [step.astype(np.int64), *(np.asarray(c, dtype=float) for c in values)])
    assert new.read_bytes() == ref.read_bytes()
    new.unlink()
    if all(np.isfinite(c).all() for c in columns):
        TimeSeries(*columns).to_csv(new)
        assert new.read_bytes() == ref.read_bytes()
    else:
        with pytest.raises(ValueError, match="^non-finite value "):
            TimeSeries(*columns)
    return ref.read_bytes()


EDGE_FLOATS = [
    -0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22,
]
any_double = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(), st.integers(-2**53, 2**53).map(float)
)
finite_double = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(math.isfinite)
csv_file_settings = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def value_column(draw, n):
    """A length-n column of float64, float32 or int64 values."""
    dtype = draw(st.sampled_from(["float64", "float32", "int64"]))
    if dtype == "float64":
        values = st.lists(any_double, min_size=n, max_size=n)
    elif dtype == "float32":
        values = st.lists(st.floats(width=32), min_size=n, max_size=n)
    else:
        values = st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n)
    return np.array(draw(values), dtype=dtype)


@st.composite
def step_column(draw, n):
    """Strictly increasing integer-valued steps as int64, int32 or float64."""
    start = draw(st.integers(0, 10**6))
    gaps = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))
    dtype = draw(st.sampled_from(["int64", "int32", "float64"]))
    return np.cumsum([start, *gaps])[:n].astype(dtype)


def write_lines(path, lines, newline="\n"):
    path.write_text(newline.join(lines) + newline, newline="")


class TestTimeSeries:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("column", CSV_COLUMNS)
    def test_rejects_nonfinite_value(self, column, value):
        # the wording of from_csv, with the field's name
        name = column.replace("expected_N", "expected_n")
        fields = {"step": np.arange(6.0), **{c: np.ones(6) for c in
                                              ("phi0", "delta_phase", "expected_n", "counts")}}
        fields[name][3] = value
        with pytest.raises(ValueError, match=f"^non-finite value '{value}' in column "
                                             f"'{name}' of data row 4$"):
            TimeSeries(**fields)


    @pytest.mark.parametrize("steps, shown", [
        ([0, 1, 2, 2, 3, 4], "step '2' of data row 4 follows step '2'"),
        ([0.0, 1.0, 2.0, 1.5, 3.0, 4.0], "step '1.5' of data row 4 follows step '2.0'"),
        ([5, 1, 2, 3, 4, 6], "step '1' of data row 2 follows step '5'"),
    ])
    def test_rejects_non_increasing_step(self, steps, shown):
        ones = np.ones(6)
        with pytest.raises(ValueError, match=f"^step index must be strictly increasing: "
                                             f"{re.escape(shown)}$"):
            TimeSeries(np.array(steps), ones, ones, ones, ones)

    def test_rejects_negative_expected_n(self):
        ones = np.ones(6)
        expected = np.array([0.0, 1.0, 0.0, -2.5e-17, -3.0, 1.0])
        with pytest.raises(ValueError, match="^expected_n must be nonnegative: value "
                                             "'-2.5e-17' in data row 4$"):
            TimeSeries(np.arange(6), ones, ones, expected, ones)


def reference_series_check(step, phi0, delta_phase, expected_n, counts):
    """The per-column checks ``TimeSeries`` ran on every record before its
    one-pass check, verbatim, after a first rule that every column is
    one-dimensional: the reference for every refusal message."""
    columns = {"step": step, "phi0": phi0, "delta_phase": delta_phase,
               "expected_n": expected_n, "counts": counts}
    for name, column in columns.items():
        if np.ndim(column) != 1:
            raise ValueError(f"column '{name}' must be one-dimensional, not of "
                             f"shape {np.shape(column)}")
    n = len(step)
    for name, column in columns.items():
        if len(column) != n:
            raise ValueError("all columns must have equal length")
        finite = np.isfinite(column)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"non-finite value '{column[row]}' in column "
                             f"'{name}' of data row {row + 1}")
    stalled = np.flatnonzero(np.diff(step) <= 0)
    if stalled.size:
        row = int(stalled[0]) + 1
        raise ValueError(f"step index must be strictly increasing: step "
                         f"'{step[row]}' of data row {row + 1} follows "
                         f"step '{step[row - 1]}'")
    negative = np.flatnonzero(np.asarray(expected_n) < 0)
    if negative.size:
        row = int(negative[0])
        raise ValueError(f"expected_n must be nonnegative: value "
                         f"'{expected_n[row]}' in data row {row + 1}")


def check_outcome(check, columns):
    """``None`` when ``check(*columns)`` passes, else its exception's type
    and message."""
    try:
        check(*columns)
    except Exception as exc:
        return type(exc), str(exc)
    return None


FAULTS = ("nonfinite", "stalled_step", "decreasing_step", "negative_expected_n",
          "short_column")


def faulty_columns(rng, n, faults):
    """A record of ``n`` rows with each named fault put in at a random
    column and row (the first, the last or any): integer steps, as
    ``simulate_scan`` makes them, or float ones, as a CSV record reads back
    before its cast, which can hold a non-finite value too."""
    float_steps = bool(rng.integers(2))
    step = np.arange(n) + int(rng.integers(0, 100))
    columns = [step.astype(float) if float_steps else step,
               *rng.uniform(-10.0, 10.0, (2, n)), *rng.uniform(0.0, 1e4, (2, n))]
    for fault in sorted(faults, key=lambda f: f == "short_column"):  # rows first
        row = int(rng.choice([0, n - 1, rng.integers(0, n)]))
        if fault == "nonfinite":
            col = int(rng.integers(0 if float_steps else 1, 5))
            columns[col][row] = rng.choice([math.nan, math.inf, -math.inf])
        elif fault == "stalled_step":
            row = max(row, 1)
            columns[0][row] = columns[0][row - 1]
        elif fault == "decreasing_step":
            row = max(row, 1)
            columns[0][row] = columns[0][row - 1] - int(rng.integers(1, 5))
        elif fault == "negative_expected_n":
            columns[3][row] = -rng.uniform(1e-17, 1.0)
        else:
            col = int(rng.integers(0, 5))
            columns[col] = columns[col][:-int(rng.integers(1, 3))]
    return columns


class TestSeriesCheck:
    """``TimeSeries`` checks a record column by column and names its first
    fault, with the message and the precedence of ``reference_series_check``."""

    @pytest.mark.parametrize("container", ["array", "list"])
    @pytest.mark.parametrize("n", [8, 400, 40_000])
    def test_matches_reference_checks(self, n, container):
        rng = np.random.default_rng([n, container == "list"])
        cases = [()] + [(fault,) for fault in FAULTS for _ in range(4)]
        cases += [tuple(rng.choice(FAULTS, size=int(rng.integers(2, 5))))
                  for _ in range(12)]
        for faults in cases:
            columns = faulty_columns(rng, n, faults)
            if container == "list":
                columns = [c.tolist() for c in columns]
            want = check_outcome(reference_series_check, columns)
            assert check_outcome(TimeSeries, columns) == want, faults
            assert (want is None) == (faults == ())

    def test_faults_show_their_precedence(self):
        # an earlier column's length or finiteness fault comes first, then
        # the steps, then expected_n; within a column the first row
        nan, ones = math.nan, np.ones(8)
        steps = np.array([0, 1, 2, 2, 1, 5, 6, 7])
        expected = np.array([1.0, -1.0, 1.0, 1.0, -2.0, 1.0, 1.0, 1.0])
        with_nan = np.array([1.0, 1.0, 1.0, 1.0, nan, nan, 1.0, 1.0])
        cases = [
            ([steps, ones, with_nan, expected, ones[:7]], "non-finite value 'nan' in column "
             "'delta_phase' of data row 5"),
            ([steps, ones[:7], with_nan, expected, ones], "all columns must have equal length"),
            ([steps, ones, ones, expected, ones], "step index must be strictly increasing: "
             "step '2' of data row 4 follows step '2'"),
            ([np.arange(8), ones, ones, expected, ones], "expected_n must be nonnegative: "
             "value '-1.0' in data row 2"),
            # an infinite last step still exceeds the one before it
            ([np.array([0.0, 1, 2, 3, 4, 5, 6, math.inf]), ones, ones, ones, ones],
             "non-finite value 'inf' in column 'step' of data row 8"),
        ]
        for columns, message in cases:
            assert check_outcome(reference_series_check, columns) == (ValueError, message)
            assert check_outcome(TimeSeries, columns) == (ValueError, message)

    def test_odd_records_are_decided_by_the_reference(self):
        # odd records: empty, 2-D, boolean steps, wrapping int64 steps and
        # non-numeric cells
        big = np.array([-2**62 - 2**61, 2**62 + 2**61])
        grid = np.ones((4, 2))
        for columns in (
            [np.arange(0), *np.ones((4, 0))],
            [grid, grid, grid, grid, grid],
            [np.arange(4)[:, None] * np.ones((4, 2)), grid, grid, grid, grid],
            [np.array([False, True]), *np.ones((4, 2))],
            [big, *np.ones((4, 2))],
            [[0, 1], [1.0, "x"], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
            [[0, 1], [1.0, None], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
        ):
            want = check_outcome(reference_series_check, columns)
            assert check_outcome(TimeSeries, columns) == want

    def test_columns_that_are_not_one_dimensional_are_refused(self):
        # a (72, 2) record whose steps increase along the last axis passed
        # every other rule, and each fit then raised a bare TypeError
        grid = np.ones((72, 2))
        with pytest.raises(ValueError, match=r"^column 'step' must be one-dimensional, "
                                             r"not of shape \(72, 2\)$"):
            TimeSeries(step=np.arange(144).reshape(72, 2), phi0=grid,
                       delta_phase=grid, expected_n=grid, counts=grid)
        # the first column that is not one-dimensional is named, before any
        # length or value fault of an earlier column
        ones = np.ones(8)
        with pytest.raises(ValueError, match=r"^column 'counts' must be one-dimensional, "
                                             r"not of shape \(\)$"):
            TimeSeries(np.arange(8), ones[:4], [math.nan] * 8, ones, 1.0)

    def test_check_holds_no_copy_of_the_record(self):
        # the 40 000-row record of the CLI benchmark: five float64 columns
        # hold 1.6 MB; the check's largest temporary is the steps' difference
        n = 40_000
        columns = [np.arange(n), *np.ones((4, n))]
        tracemalloc.start()
        try:
            TimeSeries(*columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + 400_000


class TestTimeSeriesCsv:
    def test_round_trip_lossless(self, tmp_path):
        series = signal_arm_scan(0.31, 0.77, n=64)
        path = tmp_path / "scan.csv"
        series.to_csv(path)
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.step, series.step)
        np.testing.assert_array_equal(back.phi0, series.phi0)
        np.testing.assert_array_equal(back.delta_phase, series.delta_phase)
        np.testing.assert_array_equal(back.expected_n, series.expected_n)
        np.testing.assert_array_equal(back.counts, series.counts)

    @pytest.mark.parametrize(
        "column, cell", [(1, "nan"), (2, "inf"), (3, "-inf"), (4, "nan")]
    )
    def test_rejects_nonfinite_value(self, tmp_path, column, cell):
        path = tmp_path / "scan.csv"
        signal_arm_scan(0.31, 0.77, n=16).to_csv(path)
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[column] = cell
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        name = ("step", "phi0", "delta_phase", "expected_N", "counts")[column]
        with pytest.raises(ValueError, match=f"'{name}' of data row 3"):
            TimeSeries.from_csv(path)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            TimeSeries.from_csv(path)


    def test_rejects_empty_body_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        for body in ("", "\r\n", "\n\n"):
            path.write_text(",".join(CSV_COLUMNS) + "\r\n" + body, newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^empty time series$"):
                    TimeSeries.from_csv(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_SERIES))
    def test_rejects_malformed_file(self, tmp_path, case):
        mutate, message = MALFORMED_SERIES[case]
        path = tmp_path / "scan.csv"
        signal_arm_scan(0.31, 0.77, n=16).to_csv(path)
        write_lines(path, mutate(path.read_text().splitlines()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                TimeSeries.from_csv(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0,1,2,3,4\n1,1,2,3,x\n",
             "non-numeric value 'x' in column 'counts' of data row 2"),
            ("0,1,2,3,4\n\n1,1,x,3,4\n",
             "non-numeric value 'x' in column 'delta_phase' of data row 2"),
            ("0,1,2,3,4\n1,1,2,,4\n",
             "non-numeric value '' in column 'expected_N' of data row 2"),
            ("0,1,2,3,4\n1\n", "expected 5 columns per row, found 1 in data row 2"),
            ("0,1,2,3,4\n1,1,2,3,4,5\n2,1,2,3,4\n",
             "expected 5 columns per row, found 6 in data row 2"),
            # only empty lines are skipped: a line of spaces is a data row
            ("   \n", "expected 5 columns per row, found 1 in data row 1"),
            ("0,1,2,3,4\n   \n1,1,2,3,4\n",
             "expected 5 columns per row, found 1 in data row 2"),
        ],
    )
    def test_parse_error_names_data_row(self, tmp_path, body, message):
        # numpy numbers rows its own way; the reader names the data row
        path = tmp_path / "scan.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + body)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            TimeSeries.from_csv(path)

    @pytest.mark.parametrize("cut", [0, 4, 15])
    def test_writer_rejects_ragged_columns(self, tmp_path, cut):
        # a column cut after the record was made: no row is dropped in
        # silence, and nothing is written
        series = signal_arm_scan(0.31, 0.77, n=16)
        series.counts = series.counts[:cut]
        columns = [getattr(series, name) for name in scan._SERIES_FIELDS]
        message = "^" + re.escape(f"expected 5 columns of equal length, found lengths "
                                  f"{[16, 16, 16, 16, cut]}") + "$"
        for write in (lambda path: series.to_csv(path),
                      lambda path: write_csv(path, CSV_COLUMNS, columns)):
            path = tmp_path / "ragged.csv"
            with pytest.raises(ValueError, match=message):
                write(path)
            assert not path.exists()

    @pytest.mark.parametrize("n_columns", [0, 4, 6])
    def test_writer_rejects_a_column_count_other_than_the_header(self, tmp_path, n_columns):
        path = tmp_path / "wide.csv"
        message = "^" + re.escape(f"expected 5 columns of equal length, found lengths "
                                  f"{[3] * n_columns}") + "$"
        with pytest.raises(ValueError, match=message):
            write_csv(path, CSV_COLUMNS, [np.arange(3.0)] * n_columns)
        assert not path.exists()

    @pytest.mark.parametrize("step, shown", [(1.5, "1.5"), (math.nan, "nan"),
                                             (math.inf, "inf")])
    def test_writer_rejects_non_integer_step(self, tmp_path, step, shown):
        # in-process construction checks only that steps are finite; the %d
        # cell would truncate 1.5 to 1, so the writer refuses and writes
        # nothing, and a NaN or infinite step cannot make a series at all
        zeros = np.zeros(3)
        steps = np.array([0.0, 1.0, step])
        path = tmp_path / "scan.csv"
        if math.isfinite(step):
            with pytest.raises(ValueError, match=rf"^step {shown} of data row 3 is not "
                                                 r"an integer in \[0, 2\*\*53\]$"):
                TimeSeries(steps, zeros, zeros, zeros, zeros).to_csv(path)
        else:
            with pytest.raises(ValueError, match=f"^non-finite value '{shown}' in column "
                                                 "'step' of data row 3$"):
                TimeSeries(steps, zeros, zeros, zeros, zeros)
        assert not path.exists()

    def test_last_step_of_2_to_the_53_round_trips(self, tmp_path):
        # the bound is closed: a last step of 2**53 reads back, and writes
        # back, bit for bit, and reads the same in another spelling
        series = signal_arm_scan(0.31, 0.77, n=16)
        series.step = series.step + (2**53 - 15)
        path, again = tmp_path / "scan.csv", tmp_path / "again.csv"
        series.to_csv(path)
        back = TimeSeries.from_csv(path)
        assert back.step[-1] == 2**53 and back.step.tobytes() == series.step.tobytes()
        back.to_csv(again)
        assert again.read_bytes() == path.read_bytes()
        lines = path.read_text().splitlines()
        write_lines(again, lines[:-1] + ["9.007199254740992e15" + lines[-1][16:]])
        assert TimeSeries.from_csv(again).step.tobytes() == series.step.tobytes()

    def test_steps_read_back_as_int64(self, tmp_path):
        # a platform-width int would wrap 2**31 where it is 32 bits wide
        path = tmp_path / "scan.csv"
        write_lines(path, [",".join(CSV_COLUMNS)]
                    + [f"{step},0.0,0.0,1.0,1.0" for step in (0, 2**31, 2**53)])
        back = TimeSeries.from_csv(path)
        assert back.step.dtype == np.int64
        assert back.step.tolist() == [0, 2**31, 2**53]

    @pytest.mark.parametrize("position", range(3))
    def test_writer_takes_integer_columns_from_their_dtype(self, tmp_path, position):
        # an integer column is written as integers wherever it stands, and a
        # float column of integral values as floats
        columns = [np.array([1.0, 3.0]), np.array([-0.0, 2.5]), np.array([7.0, 1e16])]
        columns[position] = np.array([-2, 2**62], dtype=np.int64)
        path = tmp_path / "grid.csv"
        write_csv(path, ("a", "b", "c"), columns)
        cells = [["1.0", "3.0"], ["-0.0", "2.5"], ["7.0", "1e+16"]]
        cells[position] = ["-2", str(2**62)]
        assert path.read_bytes() == ("a,b,c\r\n" + "".join(
            ",".join(row) + "\r\n" for row in zip(*cells))).encode()

    @pytest.mark.parametrize("dtype", ["float64", "int32", "uint64"])
    def test_step_dtype_does_not_change_the_file(self, tmp_path, dtype):
        # to_csv writes every step column through the int64 steps _check_steps returns
        series = signal_arm_scan(0.31, 0.77, n=16)
        path, other = tmp_path / "scan.csv", tmp_path / "other.csv"
        series.to_csv(path)
        TimeSeries(series.step.astype(dtype), series.phi0, series.delta_phase,
                   series.expected_n, series.counts).to_csv(other)
        assert other.read_bytes() == path.read_bytes()

    def test_integer_step_spellings_read_as_their_integers(self, tmp_path):
        # a cell whose text is an integer reads, whatever its spelling; only
        # such cells are read exactly, and each gives the step to_csv wrote
        series = signal_arm_scan(0.31, 0.77, n=16)
        path = tmp_path / "scan.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        spelled = ["0.0", "1.", "2e0", "3.0000000000000000000", " 4 ", "+5", "0.6e1", "7E0"]
        lines[1:9] = [cell + "," + line.split(",", 1)[1]
                      for cell, line in zip(spelled, lines[1:9])]
        write_lines(path, lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = TimeSeries.from_csv(path)
        assert back.step.tobytes() == series.step.tobytes()
        np.testing.assert_array_equal(back.counts, series.counts)

    @pytest.mark.parametrize("dtype", ["int64", "uint64"])
    def test_writer_refuses_an_integer_step_past_2_to_the_53(self, tmp_path, dtype):
        # compared as an integer: a cast to float would make it 2**53
        zeros = np.zeros(3)
        steps = np.array([2**53 - 1, 2**53, 2**53 + 1], dtype=dtype)
        path = tmp_path / "scan.csv"
        with pytest.raises(ValueError, match=r"^step 9007199254740993 of data row 3 is not "
                                             r"an integer in \[0, 2\*\*53\]$"):
            TimeSeries(steps, zeros, zeros, zeros, zeros).to_csv(path)
        assert not path.exists()

    @pytest.mark.parametrize("cell, shown", [("18014398509481985", "1.8014398509481984e+16"),
                                             ("9007199254740993", "9007199254740993"),
                                             ("9.007199254740993e15", "9.007199254740993e15")])
    def test_reader_refuses_a_step_past_2_to_the_53(self, tmp_path, cell, shown):
        # each parses to a double at or above 2**53; 2**53 + 1 parses to
        # 2**53 itself and is told apart by its text
        path = tmp_path / "scan.csv"
        signal_arm_scan(0.31, 0.77, n=16).to_csv(path)
        lines = path.read_text().splitlines()
        write_lines(path, lines[:-1] + [cell + "," + lines[-1].split(",", 1)[1]])
        with pytest.raises(ValueError, match="^" + re.escape(
                f"step {shown} of data row 16 is not an integer in [0, 2**53]") + "$"):
            TimeSeries.from_csv(path)

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        series = signal_arm_scan(0.31, 0.77, n=16)
        path = tmp_path / "scan.csv"
        series.to_csv(path)
        lines = path.read_text().splitlines()
        spaced = [lines[0], lines[1], "", lines[2], "", "", *lines[3:], ""]
        write_lines(path, spaced, newline="\r\n")
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.step, series.step)
        np.testing.assert_array_equal(back.counts, series.counts)
        spaced[6] = lines[3].rsplit(",", 1)[0] + ",nan"
        write_lines(path, spaced)
        with pytest.raises(ValueError, match="'counts' of data row 3"):
            TimeSeries.from_csv(path)

    @csv_file_settings
    @given(data=st.data())
    def test_writer_bytes_match_reference(self, tmp_path, data):
        n = data.draw(st.integers(0, 40))
        columns = [
            data.draw(step_column(n)),
            data.draw(value_column(n)),
            data.draw(value_column(n)),
            np.abs(data.draw(value_column(n))),
            data.draw(value_column(n)),
        ]
        assert_writer_matches_reference(tmp_path, columns)

    @pytest.mark.parametrize("block", [1, 3, 7])
    @csv_file_settings
    @given(data=st.data())
    def test_writer_blocks_match_reference(self, tmp_path, monkeypatch, block, data):
        # empty files, whole blocks and remainders write the reference's bytes
        monkeypatch.setattr(scan, "_CSV_BLOCK", block)
        n = data.draw(st.integers(0, 4 * block + 2))
        columns = [
            data.draw(step_column(n)),
            data.draw(value_column(n)),
            data.draw(value_column(n)),
            np.abs(data.draw(value_column(n))),
            data.draw(value_column(n)),
        ]
        assert_writer_matches_reference(tmp_path, columns)

    def test_writer_holds_one_block(self, tmp_path):
        # the 40 000-row record of the CLI benchmark: the whole file's text
        # peaked at about 15 MB, a 4096-row block at about 1.5 MB
        sched = fourier_protocol_schedule(400, 100, 0.23, -0.61)
        series = simulate_scan(calibration_config(), sched,
                               NoiseModel(KAPPA, seed=5, mode="poisson"), regime="lowgain")
        path = tmp_path / "scan.csv"
        tracemalloc.start()
        try:
            series.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert path.stat().st_size > 1.5e6
        ref = tmp_path / "ref.csv"
        reference_to_csv([series.step, series.phi0, series.delta_phase, series.expected_n,
                          series.counts], ref)
        assert path.read_bytes() == ref.read_bytes()

    def test_writer_edge_values_match_reference(self, tmp_path):
        n = len(EDGE_FLOATS)
        with np.errstate(over="ignore"):  # 1.8e308 becomes a float32 inf
            counts = np.array(EDGE_FLOATS, dtype=np.float32)
        columns = [np.arange(n), np.array(EDGE_FLOATS), -np.array(EDGE_FLOATS),
                   np.arange(n, dtype=np.int64), counts]
        written = assert_writer_matches_reference(tmp_path, columns)
        assert written.split(b"\r\n")[1] == b"0,-0.0,0.0,0.0,-0.0"
        assert written.split(b"\r\n")[6].endswith(b",inf")
        with pytest.raises(ValueError, match="^non-finite value 'inf' in column 'counts' "
                                             "of data row 6$"):
            TimeSeries(*columns)

    @csv_file_settings
    @given(data=st.data())
    def test_round_trip_is_bitwise(self, tmp_path, data):
        n = data.draw(st.integers(1, 40))
        cols = [np.array(data.draw(st.lists(finite_double, min_size=n, max_size=n)))
                for _ in range(4)]
        series = TimeSeries(
            step=np.arange(n) * 7,
            phi0=cols[0],
            delta_phase=cols[1],
            expected_n=np.abs(cols[2]),
            counts=cols[3],
        )
        path = tmp_path / "scan.csv"
        series.to_csv(path)
        back = TimeSeries.from_csv(path)
        np.testing.assert_array_equal(back.step, series.step)
        for name in ("phi0", "delta_phase", "expected_n", "counts"):
            got, want = getattr(back, name), getattr(series, name)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @csv_file_settings
    @given(data=st.data())
    def test_non_shortest_digits_parse_like_float(self, tmp_path, data):
        n = data.draw(st.integers(1, 20))
        fmts = data.draw(st.lists(st.sampled_from(["%.25e", "%.17g", "%.3e", "%r"]),
                                  min_size=4, max_size=4))
        rows = [[abs(v) if j == 2 else v
                 for j, v in enumerate(data.draw(st.lists(finite_double, min_size=4,
                                                          max_size=4)))]
                for _ in range(n)]
        cells = [[f % v for f, v in zip(fmts, row)] for row in rows]
        path = tmp_path / "scan.csv"
        write_lines(path, [",".join(CSV_COLUMNS)]
                    + [",".join([str(k), *row]) for k, row in enumerate(cells)])
        back = TimeSeries.from_csv(path)
        got = np.column_stack([back.phi0, back.delta_phase, back.expected_n, back.counts])
        want = np.array([[float(c) for c in row] for row in cells])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCalibrate:
    def test_noiseless_round_trip(self):
        result = calibrate(signal_arm_scan(0.7, 1.1), idler_arm_scan(0.7, 1.1))
        assert result.signal_offset == pytest.approx(0.7, abs=1e-9)
        assert result.diff_offset == pytest.approx(1.1, abs=1e-9)
        assert result.flux_scale == pytest.approx(2.0 * 0.5 * KAPPA, rel=1e-9)

    def test_zero_offsets(self):
        result = calibrate(signal_arm_scan(0.0, 0.0), idler_arm_scan(0.0, 0.0))
        assert result.signal_offset == pytest.approx(0.0, abs=1e-9)
        assert result.diff_offset == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("xi_bar,delta_xi", [
        (-0.9, 0.6), (1.2, -2.2), (-2.8, 0.3), (3.0, 1.9), (0.4, 5.0),
        (0.7, 3.3), (0.7, -3.3), (0.7, 4.0), (0.7, -4.0), (0.7, 5.5),
    ])
    def test_round_trip_across_quadrants(self, xi_bar, delta_xi):
        result = calibrate(
            signal_arm_scan(xi_bar, delta_xi), idler_arm_scan(xi_bar, delta_xi)
        )
        # the empty-interferometer signal is invariant under the joint flip
        # (signal + pi, diff -+ 2 pi); compare within that equivalence
        ds = (result.signal_offset - xi_bar) % (2.0 * math.pi)
        flipped = min(ds, 2.0 * math.pi - ds) > 1.0
        if flipped:
            ds = abs(abs(result.signal_offset - xi_bar) - math.pi) % (2.0 * math.pi)
            dd = (result.diff_offset - delta_xi) % (4.0 * math.pi)
            dd = min(dd, 4.0 * math.pi - dd)
            assert dd == pytest.approx(2.0 * math.pi, abs=1e-12)
        else:
            dd = (result.diff_offset - delta_xi) % (4.0 * math.pi)
            dd = min(dd, 4.0 * math.pi - dd)
            assert dd == pytest.approx(0.0, abs=1e-12)
        assert min(ds, abs(2.0 * math.pi - ds)) == pytest.approx(0.0, abs=1e-12)
        # a differential offset beyond a half turn comes back on the flipped
        # branch, which puts it in [-pi, pi]
        if abs(delta_xi) > math.pi:
            assert flipped
            assert -math.pi <= result.diff_offset <= math.pi

    def test_noisy_fringe_phase_takes_the_joint_flip(self):
        # a signal offset near pi/2 and a differential offset near a half
        # turn: the noise leaves the half-angle phase read from the idler
        # scan on the far side of pi/2, and the joint flip turns the signal
        # offset half a turn from the signal fringe's phase
        xi_bar, delta_xi = 0.5 * math.pi - 0.02, math.pi - 0.3
        signal = signal_arm_scan(xi_bar, delta_xi,
                                 noise=NoiseModel(1.0e3, seed=10, mode="poisson"))
        idler = idler_arm_scan(xi_bar, delta_xi,
                               noise=NoiseModel(1.0e3, seed=1010, mode="poisson"))
        result = calibrate(signal, idler)
        _, z1, _ = scan._fit_ramp(signal, "phi0", 1.0)
        assert result.signal_offset == pytest.approx(cmath.phase(z1) - math.pi, abs=1e-12)
        assert -math.pi <= result.diff_offset <= math.pi

    def test_rejects_a_signal_scan_that_does_not_ramp(self):
        flat = simulate_scan(calibration_config(), ScanSchedule(0.7, 1.1, 0.0, 0.0, 256),
                             NoiseModel(KAPPA), regime="lowgain")
        with pytest.raises(CalibrationError) as info:
            calibrate(flat, idler_arm_scan(0.7, 1.1))
        assert info.value.flag == "bad_scan_rate"
        assert str(info.value) == "first scan does not ramp the signal arm"

    def test_poisson_accuracy(self):
        errors = []
        for seed in range(100):
            noise = NoiseModel(KAPPA, seed=seed, mode="poisson")
            result = calibrate(
                signal_arm_scan(0.7, 1.1, n=200, noise=noise),
                idler_arm_scan(0.7, 1.1, n=200, noise=dataclasses.replace(noise, seed=seed + 1000)),
            )
            errors.append(
                max(abs(result.signal_offset - 0.7), abs(result.diff_offset - 1.1))
            )
        assert np.quantile(errors, 0.95) < 0.02

    def test_huge_counts_scale_out(self):
        # the fits rescale before they square, so counts scaled by 2**996
        # keep the offsets and scale every count-valued diagnostic, unwarned
        scans = [signal_arm_scan(0.7, 1.1, noise=NoiseModel(KAPPA, seed=5, mode="poisson")),
                 idler_arm_scan(0.7, 1.1, noise=NoiseModel(KAPPA, seed=6, mode="poisson"))]
        small = calibrate(*scans)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = calibrate(*(scaled_counts(scan, HUGE) for scan in scans))
        assert big.signal_offset == pytest.approx(small.signal_offset, abs=1e-12)
        assert big.diff_offset == pytest.approx(small.diff_offset, abs=1e-12)
        assert big.flux_scale == pytest.approx(HUGE * small.flux_scale, rel=1e-12)
        assert big.diagnostics.keys() == small.diagnostics.keys()
        for key, value in small.diagnostics.items():
            assert big.diagnostics[key] == pytest.approx(HUGE * value, rel=1e-12), key

    def test_rejects_flat_fringe(self):
        # differential offset at half turn kills the signal-arm fringe
        with pytest.raises(CalibrationError):
            calibrate(
                signal_arm_scan(0.7, math.pi), idler_arm_scan(0.7, math.pi)
            )

    def test_rejects_swapped_scans(self):
        with pytest.raises(CalibrationError):
            calibrate(idler_arm_scan(0.0, 0.0), signal_arm_scan(0.0, 0.0))

    @pytest.mark.parametrize("n", [64, 400])
    def test_scans_of_exactly_one_period_calibrate(self, n):
        # n*|rate| is one fringe period (2*pi, and 4*pi for the half-angle
        # fringe of the idler scan), the span the rotated route's fit takes
        scans = [
            simulate_scan(calibration_config(), ScanSchedule(0.7, 1.1, rates[0], rates[1], n),
                          NoiseModel(KAPPA), regime="lowgain")
            for rates in ((2.0 * math.pi / n, 0.0), (0.0, 4.0 * math.pi / n))
        ]
        result = calibrate(*scans)
        assert result.signal_offset == pytest.approx(0.7, abs=1e-9)
        assert result.diff_offset == pytest.approx(1.1, abs=1e-9)

    def test_rejects_short_span(self):
        # 15 of the 16 steps of one fringe period
        short = signal_arm_scan(0.5, 0.5, n=64)
        trimmed = TimeSeries(
            step=short.step[:15], phi0=short.phi0[:15],
            delta_phase=short.delta_phase[:15], expected_n=short.expected_n[:15],
            counts=short.counts[:15],
        )
        with pytest.raises(CalibrationError):
            calibrate(trimmed, idler_arm_scan(0.5, 0.5))


def single_rate_oracle(x, counts):
    """``scan._single_harmonic``'s fit before the shared kernel replaced it."""
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coef, _, _, _ = np.linalg.lstsq(design, counts, rcond=None)
    resid = counts - design @ coef
    dc, a, b = coef
    return float(dc), [complex(a - 1j * b)], float(np.sqrt(np.mean(resid**2)))


def sinusoid_oracle(x, counts):
    """The rotated route's fringe fit before the shared kernel replaced it."""
    design = np.column_stack([np.ones_like(x), np.cos(x), np.sin(x)])
    coef, _, _, _ = np.linalg.lstsq(design, counts, rcond=None)
    resid = counts - design @ coef
    dc, a, b = (float(c) for c in coef)
    return dc, [complex(a - 1j * b)], float(np.sqrt(np.mean(resid**2)))


def dual_rate_oracle(t, counts, omega_scan):
    """``harmonic_regress``'s fit before the shared kernel replaced it."""
    design = np.column_stack(
        [
            np.ones_like(t),
            np.cos(0.5 * omega_scan * t),
            np.sin(0.5 * omega_scan * t),
            np.cos(1.5 * omega_scan * t),
            np.sin(1.5 * omega_scan * t),
        ]
    )
    coef, _, _, _ = np.linalg.lstsq(design, counts, rcond=None)
    resid = counts - design @ coef
    return (
        float(coef[0]),
        [complex(coef[1] - 1j * coef[2]), complex(coef[3] - 1j * coef[4])],
        float(np.sqrt(np.mean(resid**2))),
    )


def fit_bits(fit):
    """Bit patterns of a (dc, [Z_k], rms) fit, signed zeros included."""
    dc, amps, rms = fit
    return [dc.hex(), rms.hex()] + [v.hex() for z in amps for v in (z.real, z.imag)]


class TestFitHarmonics:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(8, 400),
        rate=st.floats(0.05, 2.0),
        offset=st.floats(-10.0, 10.0),
        scale=st.floats(1e-3, 1e6),
        poisson=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_previous_designs_bitwise(self, n, rate, offset, scale, poisson, seed):
        rng = np.random.default_rng(seed)
        counts = rng.poisson(scale, n).astype(float) if poisson else rng.uniform(0, scale, n)
        x = offset + rate * np.arange(n)
        single = fit_bits(_fit_design(_design(x, (1.0,)), counts))
        assert single == fit_bits(single_rate_oracle(x, counts))
        assert single == fit_bits(sinusoid_oracle(x, counts))
        half = fit_bits(_fit_design(_design(x, (0.5,)), counts))
        assert half == fit_bits(single_rate_oracle(0.5 * x, counts))
        t = np.arange(n, dtype=float)
        dual = _fit_design(_design(t, (0.5 * rate, 1.5 * rate)), counts)
        assert fit_bits(dual) == fit_bits(dual_rate_oracle(t, counts, rate))

    def test_rank_rule_raises_estimation_error_and_calibrate_relabels_it(self, monkeypatch):
        # fewer rows than columns: the kernel raises EstimationError, and
        # calibrate raises it again as a CalibrationError with its flag and
        # its message after the scan's order
        design = _design(np.arange(2.0), (1.0,))
        with pytest.raises(EstimationError, match="rank deficient") as info:
            _fit_design(design, np.ones(2))
        assert type(info.value) is EstimationError and info.value.flag == "rank_deficient"
        # copies hold no layout, so the rank-one design is built per fit, not kept
        scans = [TimeSeries(*(getattr(s, name).copy() for name in scan._SERIES_FIELDS))
                 for s in (signal_arm_scan(0.5, 0.5), idler_arm_scan(0.5, 0.5))]
        monkeypatch.setattr(scan, "_design", lambda t, rates: np.ones((len(t), 3)))
        with pytest.raises(CalibrationError) as info:
            calibrate(*scans)
        assert str(info.value) == "first scan design matrix is rank deficient"
        assert info.value.flag == "rank_deficient"
        monkeypatch.undo()
        # a half-turn per step: the record rule refuses it before the kernel
        # would find the half-rate sine column at rounding level
        steps = np.arange(16)
        ramp = 2.0 * math.pi * steps
        series = TimeSeries(steps, ramp, ramp, np.ones(16), np.ones(16))
        with pytest.raises(EstimationError) as info:
            harmonic_regress(series, 2.0 * math.pi)
        assert info.value.flag == "undersampled"
        # calibration's record rule refuses one point per period first
        flat = TimeSeries(steps, ramp, np.zeros(16), np.ones(16), np.ones(16))
        with pytest.raises(CalibrationError, match="fewer than 8 points per period"):
            calibrate(flat, idler_arm_scan(0.5, 0.5))
