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
import re
import weakref
from dataclasses import dataclass, field, fields
from functools import cached_property
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
# the largest step of a series CSV: every integer up to it is a double
_MAX_STEP = 2**53
# a step cell spelled with '.', 'e' or 'E' (``to_csv`` writes none), from its row's '\n'
_SPELLED_STEP = re.compile(r"\n[^,\n.eE]*[.eE]")


class EstimationError(RuntimeError):
    """Estimator failure; ``flag`` names the failure mode.  The record rule
    and the fit kernel raise it where they find the fault."""

    def __init__(self, message: str, flag: str = "estimation_failed"):
        super().__init__(message)
        self.flag = flag


class CalibrationError(EstimationError):
    """Raised when the calibration scans cannot pin the phase offsets."""


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

    def __post_init__(self):
        for name in ("signal_offset", "diff_offset", "signal_rate", "diff_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if isinstance(self.n_samples, bool) or not isinstance(self.n_samples, numbers.Integral):
            raise ValueError("n_samples must be an integer")
        if self.n_samples < 8:
            raise ValueError("n_samples must be >= 8")

    @cached_property
    def _layout(self) -> _Layout:
        """The ramp shape's ``_Layout``, interned on first use, then held."""
        return _intern((float(self.signal_rate).hex(), float(self.diff_rate).hex(),
                        self.n_samples))


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
    for name, count in (("n_periods", n_periods), ("samples_per_period", samples_per_period)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise ValueError(f"{name} must be an integer")
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
    record in count units; each is stored as an array (``np.asarray``: an
    array is not copied).  A column that is not one-dimensional raises
    ``ValueError`` naming it; a NaN or infinite value, a step that does not
    exceed the one before it, or a negative ``expected_n`` raises
    ``ValueError`` naming the value and its data row, as ``from_csv`` does,
    at construction only (``_name_series_fault``; the fits flag one edited in).

    A record that holds a ramp shape's read-only ``step``, ``phi0`` and
    ``delta_phase`` objects, as ``simulate_scan``'s do, however it was made,
    shares that shape's kept least-squares solves, each built after the
    record rule passed (``_kept_design``).
    """

    step: np.ndarray
    phi0: np.ndarray
    delta_phase: np.ndarray
    expected_n: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.step, self.phi0, self.delta_phase, self.expected_n, self.counts = columns = [
            np.asarray(getattr(self, name)) for name in _SERIES_FIELDS]
        _name_series_fault(columns)

    def __len__(self) -> int:
        return len(self.step)

    def to_csv(self, path: str | Path) -> None:
        """Write the series with ``write_csv``: ``step`` as the int64 steps
        ``_check_steps`` returns, every other column as floats.

        Raises ``ValueError``, and writes nothing, for a ``step`` that is not
        an integer in [0, 2**53].
        """
        write_csv(path, CSV_COLUMNS, [_check_steps(self.step), *(
            np.asarray(getattr(self, name), dtype=float) for name in _SERIES_FIELDS[1:])])

    @classmethod
    def from_csv(cls, path: str | Path) -> "TimeSeries":
        """Read a series written by ``to_csv``: the one reader of the format.

        The steps read back as the int64 array ``_check_steps`` returns, the
        other columns as float64.  Raises ``ValueError`` for a header line
        other than ``CSV_COLUMNS``, an empty body, a row without exactly five
        cells (naming the data row where the rows differ in width), a
        non-numeric or non-finite cell (named by column and data row), or a
        ``step`` cell that is not an integer in [0, 2**53] ("2.0" and "1e3"
        are): first one whose double is not (named by the double), then one
        whose text is not, such as "2.0000000000000001" or 2**53 + 1, though
        its double is (named by the text).  Empty lines are skipped and do
        not count as data rows; a line of spaces is a malformed data row.
        """
        with open(path) as fh:
            found = tuple(fh.readline().rstrip("\n").split(","))
            body = fh.read()
        if found != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header {found!r}; expected {CSV_COLUMNS!r}")
        if not body.lstrip("\n"):
            raise ValueError("empty time series")
        try:
            data = _loadtxt(io.StringIO(body))
        except ValueError:
            _locate_bad_row(body)
            raise
        if data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} columns per row, "
                             f"found {data.shape[1]}")
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            row, col = bad[0]
            raise ValueError(f"non-finite value '{data[row, col]}' in column "
                             f"'{CSV_COLUMNS[col]}' of data row {row + 1}")
        step = _check_steps(data[:, 0])
        if step[-1] == _MAX_STEP or _SPELLED_STEP.search("\n" + body):
            # only these cells can hide a fraction or 2**53 + 1 in their double
            # (the steps increase); as the doubles passed, a text is an integer
            # in range iff it equals its integer exactly (decimal imported here only)
            from decimal import Decimal
            rows = zip(filter(None, body.split("\n")), step.tolist())
            for n, (line, value) in enumerate(rows, 1):
                cell = line.split(",", 1)[0]
                if Decimal(cell) != value:
                    raise ValueError(f"step {cell.strip()} of data row {n} is not an integer "
                                     "in [0, 2**53]")
        return cls(step, *data[:, 1:].T)


# ``TimeSeries``'s columns, in the order its checks name a fault
_SERIES_FIELDS = tuple(f.name for f in fields(TimeSeries))


def _name_series_fault(columns) -> None:
    """``TimeSeries``'s check, column by column: raise ``ValueError`` naming
    the first fault (a column that is not one-dimensional, by its name and
    shape; then unequal lengths or a non-finite value, in column order, then
    a step that does not increase, then a negative ``expected_n``, by its
    value and data row).  Its largest temporary is one column's size."""
    for name, column in zip(_SERIES_FIELDS, columns):
        if column.ndim != 1:
            raise ValueError(f"column '{name}' must be one-dimensional, not of "
                             f"shape {column.shape}")
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
    negative = np.flatnonzero(expected_n < 0)
    if negative.size:
        row = int(negative[0])
        raise ValueError(f"expected_n must be nonnegative: value "
                         f"'{expected_n[row]}' in data row {row + 1}")


def _check_steps(step) -> np.ndarray:
    """The steps as an int64 array, once each is an integer in [0, 2**53];
    else ``ValueError`` naming the first that is not (value and data row).
    An integer column is compared as integers."""
    step = np.asarray(step)
    ok = (step >= 0) & (step <= _MAX_STEP)
    if step.dtype.kind not in "iu":
        ok &= step == np.floor(step)
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"step {step[bad[0]].item()!r} of data row {bad[0] + 1} "
                         "is not an integer in [0, 2**53]")
    return step.astype(np.int64, copy=False)


def write_csv(path: str | Path, header, columns) -> None:
    """Write equal-length columns as CSV, ``_CSV_BLOCK`` rows per ``write`` call.

    The header row and every data row end in ``\\r\\n``.  A column of an
    integer dtype is written as integers (``%d``); every other cell is
    ``repr`` of the value cast to a Python float, the shortest string that
    reads back to the same double (``3.0`` for an integral float).  Only one
    block's text is held at a time.  Columns of unequal length, or a column
    count other than the header's, raise ``ValueError`` and write nothing.
    """
    columns = [np.asarray(c) for c in columns]
    columns = [c if c.dtype.kind in "iu" else c.astype(float, copy=False) for c in columns]
    lengths = [len(c) for c in columns]
    if len(lengths) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"expected {len(header)} columns of equal length, found "
                         f"lengths {lengths}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _CSV_BLOCK):
            # ``tolist`` gives Python ints and floats, whose ``repr`` is the cell
            # (an int's is its ``%d``), consumed row by row
            cells = [map(repr, c[start:start + _CSV_BLOCK].tolist()) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _loadtxt(lines, **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, dtype=float, ndmin=2, **kwargs)


def _locate_bad_row(body: str) -> None:
    """Raise ``ValueError`` naming the first data row of a series body that
    ``_loadtxt`` rejects.

    Parses each line it does not skip (each non-empty one) alone with that
    call, and a failing line cell by cell, naming the cell's column from
    ``CSV_COLUMNS``.  Returns if no line fails.
    """
    rows = (line for line in body.split("\n") if line)
    for n, line in enumerate(rows, 1):
        width = line.count(",") + 1
        if width != len(CSV_COLUMNS):
            raise ValueError(
                f"expected {len(CSV_COLUMNS)} columns per row, found {width} in data row {n}"
            )
        try:
            _loadtxt([line])
        except ValueError:
            for col, cell in enumerate(line.split(",")):
                try:
                    _loadtxt([line], usecols=col)
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {cell!r} in column '{CSV_COLUMNS[col]}' "
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
    gain; its rounding on a dark fringe is clipped at zero), ``"lowgain"``
    is ``n_lowgain`` clipped at zero (requires equal gains).  Counts are
    ``expected_n * counts_per_unit``, Poisson-sampled in ``"poisson"`` mode
    with a per-scan generator seeded from the noise model.
    Scan phases (offset plus ramp) that overflow a double raise
    ``OverflowError("scan phases overflow a double")`` before either model
    runs.  A photon number or a count rate that overflows a double, in
    either regime, raises ``OverflowError``, as does a Poisson mean too
    large for numpy's draw; one that underflows is kept, whatever the
    caller's ``np.errstate``.
    """
    if regime not in REGIMES:
        raise ValueError("regime must be 'exact' or 'lowgain'")
    layout = schedule._layout
    # offset + rate * step is monotone in the step, so finite at every step
    # if at the last; a Python float overflows to inf without a warning
    if not (math.isfinite(schedule.signal_offset + float(layout.phi0[-1]))
            and math.isfinite(schedule.diff_offset + float(layout.delta_phase[-1]))):
        raise OverflowError("scan phases overflow a double")
    signal_phase = schedule.signal_offset + layout.phi0
    diff_phase = schedule.diff_offset + layout.delta_phase

    # an overflow, of numpy's or of the low-gain amplitude's Python float,
    # leaves an inf or a NaN in the mean counts, which one test finds; an
    # underflow (a subnormal photon number) is no error
    with np.errstate(all="ignore"):
        if regime == "exact":
            expected = photon_number_exact(cfg, signal_phase, diff_phase)
        else:
            p = beating_parameters(cfg)
            expected = np.maximum(n_lowgain(p, signal_phase, diff_phase), 0.0)
        mean_counts = expected * noise.counts_per_unit
    if not np.isfinite(mean_counts).all():
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
    # at zero in either regime
    series = object.__new__(TimeSeries)
    series.__dict__.update(step=layout.step, phi0=layout.phi0, delta_phase=layout.delta_phase,
                           expected_n=expected, counts=counts)
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
    return math.ldexp(1.0, math.frexp(np.abs(values).max())[1] - 1)


def _ramp_rate(values, name: str) -> float:
    """Mean step of a ramp, each step within 1e-9*max(1, |rate|) of it; else
    ``EstimationError``.  A NaN fails this and every comparison of the rule."""
    if len(values) < 2:
        raise EstimationError(f"{name} column too short", "series_too_short")
    half = 0.5 * values  # exact, and a span past the largest double fits
    half_rate = float(half[-1] - half[0]) / (len(values) - 1)
    if not np.max(np.abs(np.diff(half) - half_rate)) <= 0.5e-9 * max(1.0, 2.0 * abs(half_rate)):
        raise EstimationError(f"{name} column is not a uniform ramp", "nonuniform_scan")
    return 2.0 * half_rate


def _phase_verdict(series, column: str, harmonic: float, omega_scan: float | None) -> None:
    """The record rule on a record: returns None for a pass, raises
    ``EstimationError`` for a refusal.  ``_kept_design`` states the rule."""
    phi0, delta_phase = series.phi0, series.delta_phase
    if column == "both":
        values, arm = phi0, "its phases"
        rate = _ramp_rate(values, "scan phi0")
        diff_rate = _ramp_rate(delta_phase, "scan delta_phase")
        if abs(rate - diff_rate) > 1e-9 * max(1.0, abs(rate)):
            raise EstimationError("harmonic regression requires equal signal and "
                                  "differential scan rates", "unequal_scan_rates")
    else:
        other, arm = ((delta_phase, "the signal arm") if column == "phi0"
                      else (phi0, "the differential phase"))
        if not np.ptp(0.5 * other) <= 0.5e-12:  # halved, as in _ramp_rate: cannot overflow
            raise EstimationError(f"scan must ramp only {arm}", "mixed_scan")
        values = phi0 if column == "phi0" else delta_phase
        rate = _ramp_rate(values, f"scan {column}")
    rate = abs(rate)
    if rate == 0.0:
        raise EstimationError(f"scan does not ramp {arm}", "bad_scan_rate")
    period = 2.0 * math.pi / harmonic
    if period / rate < 8.0 - 1e-9:
        raise EstimationError("scan has fewer than 8 points per period", "undersampled")
    if len(values) * rate < period * 0.999:
        raise EstimationError("scan must span at least one period", "series_too_short")
    if column == "both":
        if not (math.isfinite(omega_scan) and omega_scan != 0.0):
            raise EstimationError("omega_scan must be nonzero and finite", "bad_scan_rate")
        with np.errstate(over="ignore"):  # an infinite ramp is refused below
            ramp = omega_scan * series.step.astype(float)
        tol = 1e-9 * max(1.0, np.max(np.abs(ramp)))
        if not np.max(np.abs([phi0 - ramp, delta_phase - ramp])) <= tol < math.inf:
            raise EstimationError("phase columns are not omega_scan * step",
                                  "phase_step_mismatch")


def _design(t, rates) -> np.ndarray:
    """Design matrix ``[1, cos(r t), sin(r t) for r in rates]``."""
    return np.column_stack(
        [np.ones_like(t)] + [f(r * t) for r in rates for f in (np.cos, np.sin)]
    )


def _solve(design):
    """The least-squares solve of ``design`` that ``_fit_design`` applies, or
    None, the rank verdict: fewer rows than columns, or a smallest singular
    value below 1e-10 of the largest, is rank deficient.

    A solve is the thin SVD ``design = u diag(s) vt`` as the read-only pair
    ``(u, back)``, ``back = vt.T / s``: the counts' coefficients are
    ``back @ (counts @ u)`` and their residual is ``counts - u @ (counts @ u)``.
    """
    if design.shape[0] < design.shape[1]:
        return None
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[-1] < 1e-10 * s[0]:
        return None
    return _read_only(u), _read_only(vt.T / s)


def _fit_design(solve, counts):
    """Fit ``counts ~ dc + sum_k Re[Z_k exp(i rates[k] t)]`` with the ``solve``
    (``_solve``) of ``design = _design(t, rates)``: two matrix-vector
    products on the counts.

    Returns ``(dc, [Z_k], resid_rms)`` in the cosine-phase convention; the
    residual is rescaled by ``_pow2_scale`` before it is squared.  A rank
    deficient design (a None ``solve``) raises ``EstimationError`` (flag
    ``rank_deficient``); a residual RMS or a coefficient that is not finite
    (NaN or infinite counts, or an overflow) raises flag
    ``nonfinite_counts``, without a floating-point warning.

    The counts are read as one contiguous float64 array, so a strided
    column (``from_csv``'s) sums in the order of the contiguous record it
    was written from, and fits to its bits.  The mean of the squares is
    ``np.add.reduce`` divided by the row count, which is what ``np.mean``
    runs on a float array (the same pairwise sum, then one IEEE division),
    and the square root of that one double is ``math.sqrt``, correctly
    rounded as ``np.sqrt`` is: the RMS keeps the bits of
    ``np.sqrt(np.mean(...))`` of the kernel's residual.  The coefficients
    are unpacked as Python floats, whose arithmetic is the same IEEE
    arithmetic as numpy's scalars'; ``complex(a - 1j * b)`` keeps that
    form, as ``complex(a, -b)`` would flip the sign of a zero part.
    """
    if solve is None:
        raise EstimationError("scan design matrix is rank deficient", "rank_deficient")
    u, back = solve
    counts = np.ascontiguousarray(counts, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # flagged below
        w = counts @ u
        resid = counts - u @ w
        c = (back @ w).tolist()
    scale = _pow2_scale(resid)
    rms = scale * math.sqrt(float(np.add.reduce((resid / scale) ** 2)) / resid.size)
    if not (math.isfinite(rms) and all(map(math.isfinite, c))):
        raise EstimationError("scan counts or their fit residual are not finite",
                              "nonfinite_counts")
    amps = [complex(c[k] - 1j * c[k + 1]) for k in range(1, len(c), 2)]
    return c[0], amps, rms


def _kept_design(series, column: str, harmonic: float, rates, omega_scan=None,
                 rule_only: bool = False):
    """The record rule of every fit, then the solve (``_solve``) of the
    design it fits on.

    A scan of ``column`` alone must hold the other phase column within 1e-12
    (``mixed_scan``); the dual scan ("both") must ramp both at one rate
    (``unequal_scan_rates``).  The ramp must be uniform (``_ramp_rate``) and
    nonzero (``bad_scan_rate``), with 8 points per period of ``harmonic``
    (``undersampled``) and n*|rate| >= 0.999 period (``series_too_short``).
    The dual scan's ``omega_scan`` must then be nonzero and finite
    (``bad_scan_rate``), its ramp ``omega_scan * step`` finite and within
    1e-9 of its largest |value| (at least 1) of both columns
    (``phase_step_mismatch``).  A refusal raises ``EstimationError(message,
    flag)``; a pass returns ``_solve`` of ``_design`` at ``rates`` over
    ``column`` (``step`` as floats for "both"), with its rank verdict.  A
    record holding a live ``_Layout``'s very columns (``_layout_of``) gets
    the solve its layout keeps per argument set, built once, after the
    first pass; any other record, and a refused one, is judged again and
    gets a new solve on every fit, and nothing is kept.  A ``rule_only``
    call (a route that fits no ramp) builds no solve for a record on no
    layout, which would be thrown away, and returns None.
    """
    layout = _layout_of(series)
    key = (column, harmonic, tuple(rates), omega_scan)
    if layout is not None and key in layout.kept:
        return layout.kept[key]
    _phase_verdict(series, column, harmonic, omega_scan)
    if rule_only and layout is None:
        return None
    x = series.step.astype(float) if column == "both" else getattr(series, column)
    solve = _solve(_design(x, rates))
    if layout is not None:
        layout.kept[key] = solve
    return solve


def _fit_ramp(series, column: str, harmonic: float):
    """``(dc, z, residual_rms)`` in counts of ``counts ~ dc + Re[z exp(i harmonic x)]``
    over the ``column`` x that ``_kept_design`` passes; dc <= 0 is ``bad_amplitude``."""
    dc, (z,), rms = _fit_design(_kept_design(series, column, harmonic, (harmonic,)),
                                series.counts)
    if dc <= 0.0:
        raise EstimationError("scan has a nonpositive mean count level", "bad_amplitude")
    return dc, z, rms


class _Layout:
    """What one ramp shape, ``key`` = (signal_rate.hex(), diff_rate.hex(),
    n_samples), fixes for every record that holds its columns.

    ``step``, ``phi0`` and ``delta_phase`` are the record columns, each a
    read-only view of a private read-only array, a ramp past the largest
    double infinite; ``simulate_scan`` refuses such a ramp and hands every
    record it makes these very objects.  ``kept`` holds, per fit, the solve
    of its design over them with its rank verdict (``_solve``), built once,
    after the record rule passed; only ``_kept_design`` reads or writes it.
    A copy or a pickle is the live layout of its key (``_intern``).
    """

    def __init__(self, key: tuple[str, str, int]):
        self.key = key
        step = np.arange(key[2])
        t = step.astype(float)
        # a ramp past the largest double is no error here: ``simulate_scan``
        # refuses its phases before the forward model runs
        with np.errstate(over="ignore"):
            ramps = float.fromhex(key[0]) * t, float.fromhex(key[1]) * t
        self.step, self.phi0, self.delta_phase = map(_read_only, (step, *ramps))
        self.kept: dict = {}

    def __reduce__(self):
        return _intern, (self.key,)


def _read_only(values: np.ndarray) -> np.ndarray:
    """A read-only view of ``values``, itself made read-only."""
    values.flags.writeable = False
    return values[...]


# the live layouts by ramp shape and by ``id`` of their ``phi0`` (unique while
# the entry lives, as the layout holds it); a layout lives while a schedule holds it
_LAYOUTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_BY_PHI0: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _intern(key: tuple[str, str, int]) -> _Layout:
    """The live layout of the ramp shape ``key``, built if there is none."""
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _LAYOUTS[key] = _Layout(key)
        _BY_PHI0[id(layout.phi0)] = layout
    return layout


def _layout_of(series) -> _Layout | None:
    """The live layout whose very ``step``, ``phi0`` and ``delta_phase``
    objects ``series`` holds, else None: the one rule for sharing."""
    layout = _BY_PHI0.get(id(series.phi0))
    if (layout is not None and series.phi0 is layout.phi0
            and series.delta_phase is layout.delta_phase and series.step is layout.step):
        return layout
    return None


def calibrate(signal_scan: TimeSeries, idler_scan: TimeSeries) -> Calibration:
    """Recover the signal-arm and differential phase offsets.

    Expects two scans taken with the sample removed and the crossed
    quarter-wave analyzer pair, one ramping only the signal arm and one only
    the idler differential phase, each fitted by ``_fit_ramp`` at harmonic 1
    and 1/2 (a refusal raises ``CalibrationError``: the rotated route's flag
    and message, after "first" or "second", or for a fringe below 5x its
    noise floor ``fringe_below_noise_floor``).  The empty-interferometer signal is
    ``2V[1 + cos((diff_offset + d)/2) cos(signal_offset + s)]`` where ``s``
    and ``d`` are the commanded ramps, so each scan exposes one offset as a
    fringe phase and the other through its amplitude.

    The signal therefore fixes the pair only up to the joint flip
    ``(signal_offset + pi, diff_offset -+ 2*pi)``; the branch with a
    nonnegative half-angle cosine is returned, which places the differential
    offset in [-pi, pi] and the signal offset in (-pi, pi].
    """
    order = "first"  # the scan a refusal names
    try:
        dc1, z1, resid1 = _fit_ramp(signal_scan, "phi0", 1.0)
        order = "second"
        dc2, z2, resid2 = _fit_ramp(idler_scan, "delta_phase", 0.5)
    except EstimationError as exc:
        raise CalibrationError(f"{order} {exc}", exc.flag) from None
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
