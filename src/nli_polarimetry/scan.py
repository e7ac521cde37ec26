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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angles import wrap_pi
from .interferometer import InterferometerConfig, detected_mode
from .mode_algebra import vacuum_photon_number
from .signals import beating_intensity, beating_parameters

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TimeSeries:
    """Per-step record of a phase scan.

    ``phi0`` and ``delta_phase`` hold the commanded ramps (offsets excluded);
    ``expected_n`` is the model photon number and ``counts`` the detector
    record in count units.
    """

    step: np.ndarray
    phi0: np.ndarray
    delta_phase: np.ndarray
    expected_n: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        n = len(self.step)
        for name in ("phi0", "delta_phase", "expected_n", "counts"):
            if len(getattr(self, name)) != n:
                raise ValueError("all columns must have equal length")
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
    cells = [np.asarray(c).tolist() for c in columns[:n_int]]
    cells += [np.asarray(c, dtype=float).tolist() for c in columns[n_int:]]
    row = ",".join(["%d"] * n_int + ["%r"] * (len(cells) - n_int)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(map(row.__mod__, zip(*cells))))


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

    ``regime`` selects the forward model: ``"exact"`` composes the full
    transformation for all steps in one vectorised pass (any gain),
    ``"lowgain"`` evaluates the first-order beating formula (requires equal
    gains).  An exact photon number, or any amplitude composed on the way to
    it, that overflows a double raises ``OverflowError``.  Counts are ``expected_n * counts_per_unit``, Poisson-sampled in
    ``"poisson"`` mode with a per-scan generator seeded from the noise model.
    """
    t = schedule.steps.astype(float)
    signal_phase = schedule.signal_offset + schedule.signal_rate * t
    diff_phase = schedule.diff_offset + schedule.diff_rate * t

    if regime == "lowgain":
        p = beating_parameters(cfg)
        mean = p.mean_total_phase + signal_phase
        half_diff = p.half_diff_phase + 0.5 * diff_phase
        expected = beating_intensity(
            p.amplitude, p.diff_visibility, p.mean_visibility, half_diff, mean
        )
        expected = np.maximum(expected, 0.0)
    elif regime == "exact":
        try:
            with np.errstate(over="raise"):
                expected = vacuum_photon_number(detected_mode(cfg, signal_phase, diff_phase))
        except FloatingPointError:
            raise OverflowError("detected photon number overflows at this gain") from None
    else:
        raise ValueError("regime must be 'exact' or 'lowgain'")

    mean_counts = expected * noise.counts_per_unit
    if noise.mode == "poisson":
        rng = np.random.default_rng(noise.seed)
        counts = rng.poisson(mean_counts).astype(float)
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


def _fit_harmonics(t, counts, rates, rank_error: Exception):
    """Least-squares fit ``counts ~ dc + sum_k Re[Z_k exp(i rates[k] t)]``.

    Returns ``(dc, [Z_k], resid_rms)`` in the cosine-phase convention.  Rank
    rule: raises ``rank_error`` unless the design has at least as many rows
    as columns and the smallest singular value ``lstsq`` returns is at least
    1e-10 of the largest.
    """
    t = np.asarray(t)
    design = np.column_stack(
        [np.ones_like(t)] + [f(r * t) for r in rates for f in (np.cos, np.sin)]
    )
    coef, _, _, singular = np.linalg.lstsq(design, counts, rcond=None)
    if len(singular) < design.shape[1] or singular[-1] < 1e-10 * singular[0]:
        raise rank_error
    resid = counts - design @ coef
    amps = [complex(coef[k] - 1j * coef[k + 1]) for k in range(1, len(coef), 2)]
    return float(coef[0]), amps, float(np.sqrt(np.mean(resid**2)))


def calibrate(signal_scan: TimeSeries, idler_scan: TimeSeries) -> Calibration:
    """Recover the signal-arm and differential phase offsets.

    Expects two scans taken with the sample removed and the crossed
    quarter-wave analyzer pair: one ramping only the signal arm, one ramping
    only the idler differential phase.  The empty-interferometer signal is
    ``2V[1 + cos((diff_offset + d)/2) cos(signal_offset + s)]`` where ``s``
    and ``d`` are the commanded ramps, so each scan exposes one offset as a
    fringe phase and the other through its amplitude.

    The signal therefore fixes the pair only up to the joint flip
    ``(signal_offset + pi, diff_offset -+ 2*pi)``; the branch with a
    nonnegative half-angle cosine is returned, which places the differential
    offset in [-pi, pi] and the signal offset in (-pi, pi].
    """
    if np.ptp(signal_scan.delta_phase) > 1e-12 or np.ptp(signal_scan.phi0) < 1e-12:
        raise CalibrationError("first scan must ramp only the signal arm")
    if np.ptp(idler_scan.phi0) > 1e-12 or np.ptp(idler_scan.delta_phase) < 1e-12:
        raise CalibrationError("second scan must ramp only the differential phase")
    if np.ptp(signal_scan.phi0) < 2.0 * math.pi * 0.999:
        raise CalibrationError("signal scan must span at least one fringe period")
    if np.ptp(idler_scan.delta_phase) < 4.0 * math.pi * 0.999:
        raise CalibrationError("idler scan must span at least one half-angle period")

    error = CalibrationError("harmonic fit is rank deficient; scan span too small")
    dc1, (z1,), resid1 = _fit_harmonics(signal_scan.phi0, signal_scan.counts, (1.0,), error)
    dc2, (z2,), resid2 = _fit_harmonics(idler_scan.delta_phase, idler_scan.counts, (0.5,),
                                        error)
    flux = 0.5 * (dc1 + dc2)
    if flux <= 0.0:
        raise CalibrationError("nonpositive mean count level")

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
