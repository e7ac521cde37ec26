"""Phase-scan scheduling, photon-count simulation, and offset calibration.

Time is a dimensionless step index; scan rates are radians per step.  The
recorded phase columns hold only the commanded ramps -- the schedule's
offsets model the unknown interferometer phases and reach the estimator
only through calibration.
"""

from __future__ import annotations

import cmath
import io
import math
import numbers
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angles import wrap_pi
from .interferometer import InterferometerConfig, photon_number_exact
from .signals import beating_parameters, n_lowgain

__all__ = [
    "ScanSchedule",
    "NoiseModel",
    "TimeSeries",
    "Calibration",
    "CalibrationError",
    "fourier_protocol_schedule",
    "simulate_scan",
    "calibrate",
]

CSV_COLUMNS = ("step", "phi0", "delta_phase", "expected_N", "counts")
# the forward models ``simulate_scan`` can run
REGIMES = ("exact", "lowgain")
# rows ``write_csv`` formats per write call, so it holds one block's text,
# not the record's
_CSV_BLOCK = 4096


class CalibrationError(RuntimeError):
    """Raised when the calibration scans cannot pin the phase offsets;
    ``flag`` names the failure mode, as ``EstimationError``'s does."""

    def __init__(self, message: str, flag: str = "calibration_failed"):
        super().__init__(message)
        self.flag = flag


@dataclass(frozen=True)
class ScanSchedule:
    """Dual phase-scan schedule.

    ``signal_offset``/``diff_offset`` are the unknown phase offsets of the
    signal arm and of the idler differential phase at step zero;
    ``signal_rate``/``diff_rate`` are the commanded ramps in rad/step.
    """

    signal_offset: float = 0.0
    diff_offset: float = 0.0
    signal_rate: float = 0.0
    diff_rate: float = 0.0
    n_samples: int = 64
    # the ``_Layout`` of the ramp shape, held from the first ``simulate_scan``
    _layout = None

    def __post_init__(self):
        for name in ("signal_offset", "diff_offset", "signal_rate", "diff_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if isinstance(self.n_samples, bool) or not isinstance(self.n_samples, numbers.Integral):
            raise ValueError("n_samples must be an integer")
        if self.n_samples < 8:
            raise ValueError("n_samples must be >= 8")

    def __getstate__(self):
        return _without_layout(self)


def fourier_protocol_schedule(
    n_periods: int,
    samples_per_period: int,
    signal_offset: float = 0.0,
    diff_offset: float = 0.0,
) -> ScanSchedule:
    """Equal-rate schedule spanning an integer number of beat periods.

    One beat period is ``4*pi/rate`` steps, so the rate is chosen as
    ``4*pi*n_periods/n_samples``; this makes the harmonic set {0, rate/2,
    3*rate/2} exactly orthogonal on the sampled grid.
    """
    if n_periods < 1 or samples_per_period < 8:
        raise ValueError("need n_periods >= 1 and samples_per_period >= 8")
    n = n_periods * samples_per_period
    rate = 4.0 * math.pi * n_periods / n
    return ScanSchedule(
        signal_offset=signal_offset,
        diff_offset=diff_offset,
        signal_rate=rate,
        diff_rate=rate,
        n_samples=n,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Detector model: counts per unit photon number plus optional shot noise."""

    counts_per_unit: float
    seed: int = 0
    mode: str = "noiseless"

    def __post_init__(self):
        if not (math.isfinite(self.counts_per_unit) and self.counts_per_unit > 0.0):
            raise ValueError("counts_per_unit must be positive")
        if self.mode not in ("noiseless", "poisson"):
            raise ValueError("mode must be 'noiseless' or 'poisson'")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TimeSeries:
    """Per-step record of a phase scan.

    ``phi0`` and ``delta_phase`` hold the commanded ramps (offsets excluded);
    ``expected_n`` is the model photon number and ``counts`` the detector
    record in count units.  A NaN or infinite value, a step that does not
    exceed the one before it, or a negative ``expected_n`` raises
    ``ValueError`` naming the value and its data row, as ``read_csv`` does,
    at construction only (``_name_series_fault``; the fits flag one edited in).

    A record from ``simulate_scan`` shares its ``step``, ``phi0`` and
    ``delta_phase`` columns, read-only, with every record simulated on the
    same ramp shape; its ``expected_n`` and ``counts`` are its own.
    """

    step: np.ndarray
    phi0: np.ndarray
    delta_phase: np.ndarray
    expected_n: np.ndarray
    counts: np.ndarray
    # a weak reference to the ``_Layout`` whose columns ``simulate_scan`` put in
    _layout = None

    def __getstate__(self):
        return _without_layout(self)

    def __post_init__(self):
        _name_series_fault([getattr(self, name) for name in _SERIES_FIELDS])

    def __len__(self) -> int:
        return len(self.step)

    def to_csv(self, path: str | Path) -> None:
        """Write the series with ``write_csv``, ``step`` as the integer column.

        Raises ``ValueError``, and writes nothing, for a ``step`` that is not
        an integer in [0, 2**63) (named by value and data row).
        """
        _check_steps(self.step)
        write_csv(
            path,
            CSV_COLUMNS,
            [self.step, self.phi0, self.delta_phase, self.expected_n, self.counts],
            n_int=1,
        )

    @classmethod
    def from_csv(cls, path: str | Path) -> "TimeSeries":
        """Read a series written by ``to_csv``.

        Raises ``ValueError`` for a wrong header, an empty body, a row without
        exactly five columns, a non-numeric or non-finite cell (named by column
        and data row), or a ``step`` that is not an integer in [0, 2**63).
        Empty lines are skipped and do not count as data rows; a line of
        spaces is a malformed data row.
        """
        data = read_csv(path, CSV_COLUMNS)
        if not len(data):
            raise ValueError("empty time series")
        step = data[:, 0]
        _check_steps(step)
        return cls(
            step=step.astype(int),
            phi0=data[:, 1],
            delta_phase=data[:, 2],
            expected_n=data[:, 3],
            counts=data[:, 4],
        )


# ``TimeSeries``'s columns, in the order its checks name a fault
_SERIES_FIELDS = ("step", "phi0", "delta_phase", "expected_n", "counts")


def _without_layout(obj) -> dict:
    """The pickled and copied state of a schedule or a record: its fields.
    A copy holds no layout (a weak reference cannot be pickled), so a copied
    record is checked afresh by every fit and a copied schedule interns its
    layout on its own first ``simulate_scan``."""
    return {k: v for k, v in obj.__dict__.items() if k != "_layout"}


def _name_series_fault(columns) -> None:
    """``TimeSeries``'s check, column by column: raise ``ValueError`` naming
    the first fault (unequal lengths or a non-finite value, in column order,
    then a step that does not increase, then a negative ``expected_n``), by
    its value and data row.  Its largest temporary is one column's size."""
    step, expected_n = columns[0], columns[3]
    n = len(step)
    for name, column in zip(_SERIES_FIELDS, columns):
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


def _check_steps(step) -> None:
    step = np.asarray(step, dtype=float)
    bad = np.flatnonzero(~((step >= 0) & (step < 2.0**63) & (step == np.floor(step))))
    if bad.size:
        raise ValueError(
            f"step {float(step[bad[0]])!r} of data row {bad[0] + 1} "
            "is not an integer in [0, 2**63)"
        )


def write_csv(path: str | Path, header, columns, n_int: int = 0) -> None:
    """Write equal-length columns as CSV, ``_CSV_BLOCK`` rows per ``write`` call.

    The header row and every data row end in ``\\r\\n``.  The first ``n_int``
    columns are written as integers; every other cell is ``repr`` of the
    value cast to a Python float, the shortest string that reads back to the
    same double.  Only one block's text is held at a time.  A non-finite
    value in an integer column raises after the blocks before its own are
    written.
    """
    columns = ([np.asarray(c) for c in columns[:n_int]]
               + [np.asarray(c, dtype=float) for c in columns[n_int:]])
    n_rows = min(map(len, columns), default=0)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CSV_BLOCK):
            block = [c[start:start + _CSV_BLOCK].tolist() for c in columns]
            # per-column formatters (%d writes a float step as "3"), consumed row by row
            cells = [map("%d".__mod__, c) for c in block[:n_int]]
            cells += [map(repr, c) for c in block[n_int:]]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def read_csv(path: str | Path, header) -> np.ndarray:
    """Read a CSV written by ``write_csv`` into a float array, one row per data row.

    Raises ``ValueError`` when the first line is not ``header``, when a cell
    is not a number (naming its column and data row), when a row does not
    have one cell per header column (naming the data row where the rows
    differ in width), or when a value is NaN or infinite (naming its column
    and data row).  Empty lines are skipped; a body of only empty lines gives
    zero rows.  A line of spaces is a data row, like any other non-empty line.
    """
    with open(path) as fh:
        found = tuple(fh.readline().rstrip("\n").split(","))
        body = fh.read()
    if found != tuple(header):
        raise ValueError(f"unexpected CSV header {found!r}; expected {tuple(header)!r}")
    if not body.lstrip("\n"):
        return np.empty((0, len(header)))
    try:
        data = _loadtxt(io.StringIO(body))
    except ValueError:
        _locate_bad_row(body, header)
        raise
    if data.shape[1] != len(header):
        raise ValueError(f"expected {len(header)} columns per row, found {data.shape[1]}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(
            f"non-finite value '{data[row, col]}' in column "
            f"'{header[col]}' of data row {row + 1}"
        )
    return data


def _loadtxt(lines, **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, **kwargs)


def _locate_bad_row(body: str, header) -> None:
    """Raise ``ValueError`` naming the first data row ``_loadtxt`` rejects.

    Parses each line it does not skip (each non-empty one) alone with that
    call, and a failing line cell by cell.  Returns if no line fails.
    """
    rows = (line for line in body.split("\n") if line)
    for n, line in enumerate(rows, 1):
        width = line.count(",") + 1
        if width != len(header):
            raise ValueError(
                f"expected {len(header)} columns per row, found {width} in data row {n}"
            )
        try:
            _loadtxt([line])
        except ValueError:
            for col, cell in enumerate(line.split(",")):
                try:
                    _loadtxt([line], usecols=col)
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {cell!r} in column '{header[col]}' "
                        f"of data row {n}"
                    ) from None


def simulate_scan(
    cfg: InterferometerConfig,
    schedule: ScanSchedule,
    noise: NoiseModel,
    regime: str = "exact",
) -> TimeSeries:
    """Run a scheduled phase scan and return the simulated count record.

    ``regime`` selects the forward model, one of ``REGIMES``: ``"exact"`` is
    ``photon_number_exact`` over all steps in one vectorised pass (any
    gain), ``"lowgain"`` is ``n_lowgain`` clipped at zero (requires equal
    gains).  Counts are ``expected_n * counts_per_unit``, Poisson-sampled in
    ``"poisson"`` mode with a per-scan generator seeded from the noise model.
    A photon number or a count rate that overflows a double, in either
    regime, raises ``OverflowError``, as does a Poisson mean too large for
    numpy's draw; one that underflows is kept, whatever the caller's
    ``np.errstate``.
    """
    if regime not in REGIMES:
        raise ValueError("regime must be 'exact' or 'lowgain'")
    layout = _schedule_layout(schedule)
    signal_phase = schedule.signal_offset + layout.phi0
    diff_phase = schedule.diff_offset + layout.delta_phase

    # the low-gain amplitude is a Python float, which overflows to inf
    # without raising, hence the finiteness test next to numpy's flags; an
    # underflow (a subnormal photon number) is no error
    with np.errstate(over="raise", invalid="raise", under="ignore"):
        try:
            if regime == "exact":
                expected = photon_number_exact(cfg, signal_phase, diff_phase)
            else:
                p = beating_parameters(cfg)
                expected = np.maximum(n_lowgain(p, signal_phase, diff_phase), 0.0)
            mean_counts = expected * noise.counts_per_unit
            finite = np.isfinite(mean_counts).all()
        except FloatingPointError:
            finite = False
    if not finite:
        raise OverflowError("expected photon number or counts overflow a double")

    if noise.mode == "poisson":
        rng = np.random.default_rng(noise.seed)
        try:
            counts = rng.poisson(mean_counts).astype(float)
        except ValueError:
            # the means are finite: numpy refuses one above about 9.2e18
            raise OverflowError("Poisson mean counts overflow the draw") from None
    else:
        counts = mean_counts

    # every check of ``TimeSeries`` holds by construction: the steps are
    # ``arange(n >= 8)``, the ramps are finite (or the model raised), the
    # finite mean counts make ``expected_n`` finite (``counts_per_unit`` is
    # positive and finite) and so the counts, and ``expected_n`` is clipped
    # at zero (low gain) or a sum of squared moduli (exact)
    series = object.__new__(TimeSeries)
    series.__dict__.update(step=layout.step, phi0=layout.phi0, delta_phase=layout.delta_phase,
                           expected_n=expected, counts=counts, _layout=weakref.ref(layout))
    return series


@dataclass(frozen=True)
class Calibration:
    """Recovered interferometer phase offsets and flux scale."""

    signal_offset: float
    diff_offset: float
    flux_scale: float
    diagnostics: dict = field(default_factory=dict)


def _pow2_scale(values) -> float:
    """Power of two near the largest |value|, to divide by before summing or squaring.

    The quotients stay below 2 in magnitude, so their sums and squares do not
    overflow, and dividing by a power of two is exact: a mean or root mean
    square taken of them and multiplied back by the scale keeps every bit.
    """
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values))))[1] - 1)


class _Refusal(Exception):
    """A record rule refusal, ``(message, flag)``, before the caller's label
    and error type are put in."""


def _ramp_rate(values, name: str) -> float:
    """Mean step of a ramp, each step within 1e-9*max(1, |rate|) of it; else
    a ``_Refusal``.  A NaN fails this and every comparison of the rule."""
    if len(values) < 2:
        raise _Refusal(f"{name} column too short", "series_too_short")
    half = 0.5 * values  # exact, and a span past the largest double fits
    half_rate = float(half[-1] - half[0]) / (len(values) - 1)
    if not np.max(np.abs(np.diff(half) - half_rate)) <= 0.5e-9 * max(1.0, 2.0 * abs(half_rate)):
        raise _Refusal(f"{name} column is not a uniform ramp", "nonuniform_scan")
    return 2.0 * half_rate


def _phase_verdict(phi0, delta_phase, column: str, harmonic: float):
    """The record rule's verdict on a record's phase columns: None for a
    pass, else ``(message, flag)`` with ``{label}`` in the message where the
    caller's label goes.  ``_scan_phase`` states the rule."""
    phi0, delta_phase = np.asarray(phi0), np.asarray(delta_phase)
    try:
        if column == "both":
            values, arm = phi0, "its phases"
            rate = _ramp_rate(values, "{label} phi0")
            diff_rate = _ramp_rate(delta_phase, "{label} delta_phase")
            if abs(rate - diff_rate) > 1e-9 * max(1.0, abs(rate)):
                raise _Refusal("harmonic regression requires equal signal and "
                               "differential scan rates", "unequal_scan_rates")
        else:
            other, arm = ((delta_phase, "the signal arm") if column == "phi0"
                          else (phi0, "the differential phase"))
            if not np.ptp(0.5 * other) <= 0.5e-12:  # halved, as in _ramp_rate: cannot overflow
                raise _Refusal(f"{{label}} must ramp only {arm}", "mixed_scan")
            values = phi0 if column == "phi0" else delta_phase
            rate = _ramp_rate(values, f"{{label}} {column}")
        rate = abs(rate)
        if rate == 0.0:
            raise _Refusal(f"{{label}} does not ramp {arm}", "bad_scan_rate")
        period = 2.0 * math.pi / harmonic
        if period / rate < 8.0 - 1e-9:
            raise _Refusal("{label} has fewer than 8 points per period", "undersampled")
        if len(values) * rate < period * 0.999:
            raise _Refusal("{label} must span at least one period", "series_too_short")
    except _Refusal as refusal:
        return refusal.args
    return None


def _scan_phase(series, column: str, harmonic: float, error, label="scan") -> np.ndarray:
    """The record rule of every fit; returns ``column`` (``phi0`` for "both").

    A scan of ``column`` alone must hold the other phase column within 1e-12
    (``mixed_scan``); the dual scan ("both") must ramp both at one rate
    (``unequal_scan_rates``).  The ramp must be uniform (``_ramp_rate``) and
    nonzero (``bad_scan_rate``), with 8 points per period of ``harmonic``
    (``undersampled``) and n*|rate| >= 0.999 period (``series_too_short``).
    A refusal raises ``error(message, flag)``, the message opening with
    ``label``.  The verdict is kept per layout (``_per_layout``).
    """
    verdict = _per_layout(series, ("verdict", column, harmonic),
                          lambda c: _phase_verdict(c.phi0, c.delta_phase, column, harmonic))
    if verdict is not None:
        message, flag = verdict
        raise error(message.format(label=label), flag)
    return series.phi0 if column == "both" else getattr(series, column)


def _check_step_ramp(series, omega_scan: float, error) -> None:
    """Raise flag ``phase_step_mismatch`` if ``_off_ramp`` (kept per layout)."""
    if _per_layout(series, ("off_ramp", omega_scan), lambda c: _off_ramp(c, omega_scan)):
        raise error("phase columns are not omega_scan * step", "phase_step_mismatch")


def _off_ramp(columns, omega_scan: float) -> bool:
    """Whether a phase column of ``columns`` strays from ``omega_scan * step``
    by more than 1e-9 of the ramp's largest |value| (at least 1), or is NaN,
    or the ramp is not finite."""
    ramp = omega_scan * columns.step.astype(float)
    tol = 1e-9 * max(1.0, np.max(np.abs(ramp)))
    return not np.max(np.abs([columns.phi0 - ramp, columns.delta_phase - ramp])) <= tol < math.inf


def _design(t, rates) -> np.ndarray:
    """Design matrix ``[1, cos(r t), sin(r t) for r in rates]``."""
    t = np.asarray(t)
    return np.column_stack(
        [np.ones_like(t)] + [f(r * t) for r in rates for f in (np.cos, np.sin)]
    )


def _fit_design(design, counts, error):
    """One-``lstsq`` fit ``counts ~ dc + sum_k Re[Z_k exp(i rates[k] t)]`` on
    ``design = _design(t, rates)``.

    Returns ``(dc, [Z_k], resid_rms)`` in the cosine-phase convention; the
    residual is rescaled by ``_pow2_scale`` before it is squared.  Rank
    rule: raises ``error(message, "rank_deficient")`` unless the design has
    at least as many rows as columns and the smallest singular value
    ``lstsq`` returns is at least 1e-10 of the largest.  A residual RMS that
    is not finite (NaN or infinite counts) raises flag ``nonfinite_counts``.
    """
    coef, _, _, singular = np.linalg.lstsq(design, counts, rcond=None)
    if len(singular) < design.shape[1] or singular[-1] < 1e-10 * singular[0]:
        raise error("harmonic design matrix is rank deficient", "rank_deficient")
    resid = counts - design @ coef
    scale = _pow2_scale(resid)
    rms = scale * float(np.sqrt(np.mean((resid / scale) ** 2)))
    if not math.isfinite(rms):
        raise error("counts or their fit residual are not finite", "nonfinite_counts")
    amps = [complex(coef[k] - 1j * coef[k + 1]) for k in range(1, len(coef), 2)]
    return float(coef[0]), amps, rms


def _fit_record(series, column: str, rates, error):
    """``_fit_design`` of ``series.counts`` over ``column`` (``step`` as floats,
    ``phi0`` or ``delta_phase``) on a design kept per layout (``_per_layout``);
    ``lstsq``, the rank rule and the residual check run for every record."""
    def build(columns):
        values = getattr(columns, column)
        return _design(values.astype(float) if column == "step" else values, rates)

    design = _per_layout(series, ("design", column, tuple(rates)), build)
    return _fit_design(design, series.counts, error)


def _fit_ramp(series, column: str, harmonic: float, error, label="scan"):
    """``(dc, z, residual_rms)`` in counts of ``counts ~ dc + Re[z exp(i harmonic x)]``
    over the ``column`` x that ``_scan_phase`` passes; dc <= 0 is ``bad_amplitude``."""
    _scan_phase(series, column, harmonic, error, label)
    dc, (z,), rms = _fit_record(series, column, (harmonic,), error)
    if dc <= 0.0:
        raise error("nonpositive mean count level", "bad_amplitude")
    return dc, z, rms


class _Layout:
    """What one ramp shape (the bits of ``signal_rate`` and ``diff_rate``,
    and ``n_samples``) fixes for every record simulated on it.

    ``step``, ``phi0`` and ``delta_phase`` are the record columns, each a
    read-only view of a private read-only array; ``simulate_scan`` hands
    every record these very objects.  ``kept`` holds what ``_per_layout``
    built of them (verdicts, designs, step checks).  Only ``scan`` reads it.
    """

    def __init__(self, schedule: ScanSchedule):
        step = np.arange(schedule.n_samples)
        t = step.astype(float)
        # a ramp past the largest double is no error here: its record
        # overflows in the forward model, which raises ``OverflowError``
        with np.errstate(over="ignore"):
            ramps = schedule.signal_rate * t, schedule.diff_rate * t
        self.step, self.phi0, self.delta_phase = map(_read_only, (step, *ramps))
        self.kept: dict = {}


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values``, itself made read-only."""
    values.flags.writeable = False
    return values[...]


# the live layouts by ramp shape; a layout lives while a schedule holds it
_LAYOUTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _schedule_layout(schedule: ScanSchedule) -> _Layout:
    """The schedule's layout: interned by ramp shape on first use, so ±0.0
    rates get different layouts, then held by the schedule."""
    layout = schedule._layout
    if layout is None:
        key = (float(schedule.signal_rate).hex(), float(schedule.diff_rate).hex(),
               schedule.n_samples)
        layout = _LAYOUTS.get(key)
        if layout is None:
            layout = _LAYOUTS[key] = _Layout(schedule)
        object.__setattr__(schedule, "_layout", layout)
    return layout


def _layout_of(series) -> _Layout | None:
    """The live layout whose very ``step``, ``phi0`` and ``delta_phase``
    objects ``series`` holds, else None."""
    ref = series._layout
    layout = ref() if ref is not None else None
    if (layout is not None and series.phi0 is layout.phi0
            and series.delta_phase is layout.delta_phase and series.step is layout.step):
        return layout
    return None


def _per_layout(series, key: tuple, build):
    """``build`` of the record's columns (any object with ``step``, ``phi0``
    and ``delta_phase``), built once per layout.

    A record that holds the very column objects of a live ``_Layout`` gets
    the result kept on the layout under ``key`` (built on first use of the
    key, of those same columns, and made read-only if an array); any other
    record gets ``build(series)`` afresh, and nothing is kept.  ``key``
    must tell apart every argument that changes the result.
    """
    layout = _layout_of(series)
    if layout is None:
        return build(series)
    if key not in layout.kept:
        value = build(layout)
        layout.kept[key] = _read_only(value) if isinstance(value, np.ndarray) else value
    return layout.kept[key]


def calibrate(signal_scan: TimeSeries, idler_scan: TimeSeries) -> Calibration:
    """Recover the signal-arm and differential phase offsets.

    Expects two scans taken with the sample removed and the crossed
    quarter-wave analyzer pair, one ramping only the signal arm and one only
    the idler differential phase, each fitted by ``_fit_ramp`` at harmonic 1
    and 1/2 (a record rule or dc <= 0 refusal raises ``CalibrationError``
    with the flag the rotated route raises, a fringe below 5x its noise
    floor ``fringe_below_noise_floor``).  The empty-interferometer signal is
    ``2V[1 + cos((diff_offset + d)/2) cos(signal_offset + s)]`` where ``s``
    and ``d`` are the commanded ramps, so each scan exposes one offset as a
    fringe phase and the other through its amplitude.

    The signal therefore fixes the pair only up to the joint flip
    ``(signal_offset + pi, diff_offset -+ 2*pi)``; the branch with a
    nonnegative half-angle cosine is returned, which places the differential
    offset in [-pi, pi] and the signal offset in (-pi, pi].
    """
    dc1, z1, resid1 = _fit_ramp(signal_scan, "phi0", 1.0, CalibrationError, "first scan")
    dc2, z2, resid2 = _fit_ramp(idler_scan, "delta_phase", 0.5, CalibrationError,
                                "second scan")
    flux = 0.5 * (dc1 + dc2)

    for amp, resid, n, label in (
        (abs(z1), resid1, len(signal_scan), "signal"),
        (abs(z2), resid2, len(idler_scan), "idler"),
    ):
        floor = max(resid * math.sqrt(2.0 / n), 1e-12 * flux)
        if amp < 5.0 * floor:
            raise CalibrationError(
                f"{label} scan fringe amplitude {amp:.3g} is below 5x the noise "
                f"floor {floor:.3g}; offsets are uncalibratable",
                "fringe_below_noise_floor",
            )

    # Z1 = flux*cos(diff/2)*exp(i*signal), Z2 = flux*cos(signal)*exp(i*diff/2).
    # Read the fringe phases, resolving each sign-of-cosine coupling, then
    # canonicalize the joint-flip equivalence to cos(diff/2) >= 0.
    signal_offset = float(wrap_pi(cmath.phase(z1)))
    half_diff = cmath.phase(z2)
    if math.cos(signal_offset) < 0.0:
        half_diff += math.pi
    half_diff = float(wrap_pi(half_diff))
    if math.cos(half_diff) < 0.0:
        signal_offset = float(wrap_pi(signal_offset + math.pi))
        half_diff = float(wrap_pi(half_diff + math.pi))

    return Calibration(
        signal_offset=signal_offset,
        diff_offset=2.0 * half_diff,
        flux_scale=flux,
        diagnostics={
            "dc_signal_scan": dc1,
            "dc_idler_scan": dc2,
            "residual_rms_signal_scan": resid1,
            "residual_rms_idler_scan": resid2,
            "amplitude_consistency": abs(flux * math.cos(half_diff) - abs(z1))
            + abs(flux * abs(math.cos(signal_offset)) - abs(z2)),
        },
    )
