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


class CalibrationError(RuntimeError):
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

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.n_samples)


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
    record in count units.  A NaN or infinite value raises ``ValueError``
    naming its column and row, as ``read_csv`` does.
    """

    step: np.ndarray
    phi0: np.ndarray
    delta_phase: np.ndarray
    expected_n: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        n = len(self.step)
        for name in ("step", "phi0", "delta_phase", "expected_n", "counts"):
            column = getattr(self, name)
            if len(column) != n:
                raise ValueError("all columns must have equal length")
            finite = np.isfinite(column)
            if not finite.all():
                row = int(np.argmin(finite))
                raise ValueError(f"non-finite value '{column[row]}' in column "
                                 f"'{name}' of data row {row + 1}")
        if np.any(np.diff(self.step) <= 0):
            raise ValueError("step index must be strictly increasing")
        if np.any(np.asarray(self.expected_n) < 0):
            raise ValueError("expected_n must be nonnegative")

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


def _check_steps(step) -> None:
    step = np.asarray(step, dtype=float)
    bad = np.flatnonzero(~((step >= 0) & (step < 2.0**63) & (step == np.floor(step))))
    if bad.size:
        raise ValueError(
            f"step {float(step[bad[0]])!r} of data row {bad[0] + 1} "
            "is not an integer in [0, 2**63)"
        )


def write_csv(path: str | Path, header, columns, n_int: int = 0) -> None:
    """Write equal-length columns as CSV with one ``write`` call.

    The header row and every data row end in ``\\r\\n``.  The first ``n_int``
    columns are written as integers; every other cell is ``repr`` of the
    value cast to a Python float, the shortest string that reads back to the
    same double.
    """
    # per-column formatters (%d writes a float step as "3"), consumed row by row
    cells = [map("%d".__mod__, np.asarray(c).tolist()) for c in columns[:n_int]]
    cells += [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns[n_int:]]
    lines = [",".join(header), *map(",".join, zip(*cells)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


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
    numpy's draw.
    """
    if regime not in REGIMES:
        raise ValueError("regime must be 'exact' or 'lowgain'")
    t = schedule.steps.astype(float)
    signal_phase = schedule.signal_offset + schedule.signal_rate * t
    diff_phase = schedule.diff_offset + schedule.diff_rate * t

    # the low-gain amplitude is a Python float, which overflows to inf
    # without raising, hence the finiteness test next to numpy's flags
    with np.errstate(over="raise", invalid="raise"):
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

    return TimeSeries(
        step=schedule.steps,
        phi0=schedule.signal_rate * t,
        delta_phase=schedule.diff_rate * t,
        expected_n=expected,
        counts=counts,
    )


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


def _ramp_rate(values, name: str, error) -> float:
    """Mean step of a ramp, each step within 1e-9*max(1, |rate|) of it; else
    ``error(message, flag)``."""
    if len(values) < 2:
        raise error(f"{name} column too short", "series_too_short")
    half = 0.5 * np.asarray(values)  # exact, and a span past the largest double fits
    half_rate = float(half[-1] - half[0]) / (len(values) - 1)
    if np.max(np.abs(np.diff(half) - half_rate)) > 0.5e-9 * max(1.0, 2.0 * abs(half_rate)):
        raise error(f"{name} column is not a uniform ramp", "nonuniform_scan")
    return 2.0 * half_rate


def _scan_phase(series, column: str, harmonic: float, error, label="scan") -> np.ndarray:
    """The record rule of every fit; returns ``column`` (``phi0`` for "both").

    A scan of ``column`` alone must hold the other phase column within 1e-12
    (``mixed_scan``); the dual scan ("both") must ramp both at one rate
    (``unequal_scan_rates``).  The ramp must be uniform (``_ramp_rate``) and
    nonzero (``bad_scan_rate``), with 8 points per period of ``harmonic``
    (``undersampled``) and n*|rate| >= 0.999 period (``series_too_short``).
    """
    if column == "both":
        values, arm = series.phi0, "its phases"
        rate = _ramp_rate(values, f"{label} phi0", error)
        diff_rate = _ramp_rate(series.delta_phase, f"{label} delta_phase", error)
        if abs(rate - diff_rate) > 1e-9 * max(1.0, abs(rate)):
            raise error("harmonic regression requires equal signal and differential "
                        "scan rates", "unequal_scan_rates")
    else:
        other, arm = ((series.delta_phase, "the signal arm") if column == "phi0"
                      else (series.phi0, "the differential phase"))
        if np.ptp(0.5 * other) > 0.5e-12:  # halved, as in _ramp_rate: cannot overflow
            raise error(f"{label} must ramp only {arm}", "mixed_scan")
        values = getattr(series, column)
        rate = _ramp_rate(values, f"{label} {column}", error)
    rate = abs(rate)
    if rate == 0.0:
        raise error(f"{label} does not ramp {arm}", "bad_scan_rate")
    period = 2.0 * math.pi / harmonic
    if period / rate < 8.0 - 1e-9:
        raise error(f"{label} has fewer than 8 points per period", "undersampled")
    if len(values) * rate < period * 0.999:
        raise error(f"{label} must span at least one period", "series_too_short")
    return values


def _fit_harmonics(t, counts, rates, error):
    """Least-squares fit ``counts ~ dc + sum_k Re[Z_k exp(i rates[k] t)]``.

    Returns ``(dc, [Z_k], resid_rms)`` in the cosine-phase convention; the
    residual is rescaled by ``_pow2_scale`` before it is squared.  Rank
    rule: raises ``error(message, "rank_deficient")`` unless the design has
    at least as many rows as columns and the smallest singular value
    ``lstsq`` returns is at least 1e-10 of the largest.
    """
    t = np.asarray(t)
    design = np.column_stack(
        [np.ones_like(t)] + [f(r * t) for r in rates for f in (np.cos, np.sin)]
    )
    coef, _, _, singular = np.linalg.lstsq(design, counts, rcond=None)
    if len(singular) < design.shape[1] or singular[-1] < 1e-10 * singular[0]:
        raise error("harmonic design matrix is rank deficient", "rank_deficient")
    resid = counts - design @ coef
    scale = _pow2_scale(resid)
    rms = scale * float(np.sqrt(np.mean((resid / scale) ** 2)))
    amps = [complex(coef[k] - 1j * coef[k + 1]) for k in range(1, len(coef), 2)]
    return float(coef[0]), amps, rms


def _fit_ramp(series, column: str, harmonic: float, error, label="scan"):
    """``(dc, z, residual_rms)`` in counts of ``counts ~ dc + Re[z exp(i harmonic x)]``
    over the ``column`` x that ``_scan_phase`` passes; dc <= 0 is ``bad_amplitude``."""
    values = _scan_phase(series, column, harmonic, error, label)
    dc, (z,), rms = _fit_harmonics(values, series.counts, (harmonic,), error)
    if dc <= 0.0:
        raise error("nonpositive mean count level", "bad_amplitude")
    return dc, z, rms


def calibrate(signal_scan: TimeSeries, idler_scan: TimeSeries) -> Calibration:
    """Recover the signal-arm and differential phase offsets.

    Expects two scans taken with the sample removed and the crossed
    quarter-wave analyzer pair, one ramping only the signal arm and one only
    the idler differential phase, each fitted by ``_fit_ramp`` at harmonic 1
    and 1/2 (a record rule or dc <= 0 refusal raises ``CalibrationError``,
    without a flag).  The empty-interferometer signal is
    ``2V[1 + cos((diff_offset + d)/2) cos(signal_offset + s)]`` where ``s``
    and ``d`` are the commanded ramps, so each scan exposes one offset as a
    fringe phase and the other through its amplitude.

    The signal therefore fixes the pair only up to the joint flip
    ``(signal_offset + pi, diff_offset -+ 2*pi)``; the branch with a
    nonnegative half-angle cosine is returned, which places the differential
    offset in [-pi, pi] and the signal offset in (-pi, pi].
    """
    def refuse(message, flag):  # a CalibrationError carries no flag
        return CalibrationError(message)
    dc1, z1, resid1 = _fit_ramp(signal_scan, "phi0", 1.0, refuse, "first scan")
    dc2, z2, resid2 = _fit_ramp(idler_scan, "delta_phase", 0.5, refuse, "second scan")
    flux = 0.5 * (dc1 + dc2)

    for amp, resid, n, label in (
        (abs(z1), resid1, len(signal_scan), "signal"),
        (abs(z2), resid2, len(idler_scan), "idler"),
    ):
        floor = max(resid * math.sqrt(2.0 / n), 1e-12 * flux)
        if amp < 5.0 * floor:
            raise CalibrationError(
                f"{label} scan fringe amplitude {amp:.3g} is below 5x the noise "
                f"floor {floor:.3g}; offsets are uncalibratable"
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
