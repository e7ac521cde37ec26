"""Command-line front end: simulate scans, calibrate, estimate, regenerate figures.

Configs are JSON with all angles in radians; series are CSV; estimates are
JSON.  Exit codes: 0 ok, 2 config/schema error, 3 numeric failure, 4
unidentifiable parameters.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .elements import (
    CrystalGain,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    quarter_wave,
    waveplate,
)
from .estimation import (
    ROTATED_ASSUMPTIONS,
    EstimationError,
    UnidentifiableError,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    harmonic_regress,
)
from .interferometer import InterferometerConfig, photon_number_exact
from .scan import (
    NOISE_MODES,
    REGIMES,
    CalibrationError,
    NoiseModel,
    ScanSchedule,
    TimeSeries,
    calibrate,
    simulate_scan,
    write_csv,
)
from .signals import beating_parameters, n_lowgain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_UNIDENTIFIABLE = 4

# the largest schedule a config may ask for, refused before any array is built
MAX_SAMPLES = 10**7


class ConfigError(ValueError):
    """Config validation failure; the message names the offending key."""


def _require_mapping(doc, path: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    return doc


def _check_keys(doc, path: str, required: tuple, optional: tuple = ()) -> dict:
    """``doc``, refused unless it is an object with every required key and no other."""
    allowed = set(required) | set(optional)
    for key in _require_mapping(doc, path):
        if key not in allowed:
            raise ConfigError(f"{path}: unknown key '{key}'")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}: missing required key '{key}'")
    return doc


def _number(doc: dict, path: str, key: str, default=None, low=None, high=None):
    if key not in doc:
        if default is None:
            raise ConfigError(f"{path}: missing required key '{key}'")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a double
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: must be finite")
    if low is not None and value < low:
        raise ConfigError(f"{path}.{key}: must be >= {low}")
    if high is not None and value > high:
        raise ConfigError(f"{path}.{key}: must be <= {high}")
    return value


def _gain(doc, path: str) -> CrystalGain:
    doc = _check_keys(doc, path, ("V",), ("pump_phase",))
    return CrystalGain(
        mean_photons=_number(doc, path, "V", low=0.0),
        pump_phase=_number(doc, path, "pump_phase", default=0.0),
    )


def _waveplate(doc, path: str) -> WaveplateCoeffs:
    doc = _check_keys(doc, path, ("axis_angle", "retardance"))
    return waveplate(
        axis_angle=_number(doc, path, "axis_angle"),
        retardance=_number(doc, path, "retardance"),
    )


def parse_interferometer(doc, path: str = "interferometer") -> InterferometerConfig:
    doc = _check_keys(doc, path, ("gain1", "gain2", "signal", "wp1", "wp2", "sample"), ("psi",))
    signal_doc = _check_keys(doc["signal"], f"{path}.signal", ("ts_mag",), ("ts_phase",))
    ts_mag = _number(signal_doc, f"{path}.signal", "ts_mag", low=0.0, high=1.0)
    ts_phase = _number(signal_doc, f"{path}.signal", "ts_phase", default=0.0)
    sp = f"{path}.sample"
    sample_doc = _check_keys(doc["sample"], sp, ("t_perp_mag", "t_par_mag"),
                             ("t_perp_phase", "t_par_phase"))
    sample = SampleAxes(
        t_perp=_number(sample_doc, sp, "t_perp_mag", low=0.0, high=1.0)
        * cmath.exp(1j * _number(sample_doc, sp, "t_perp_phase", default=0.0)),
        t_par=_number(sample_doc, sp, "t_par_mag", low=0.0, high=1.0)
        * cmath.exp(1j * _number(sample_doc, sp, "t_par_phase", default=0.0)),
    )
    return InterferometerConfig(
        crystal1=_gain(doc["gain1"], f"{path}.gain1"),
        crystal2=_gain(doc["gain2"], f"{path}.gain2"),
        signal=SignalControl(ts_mag * cmath.exp(1j * ts_phase)),
        waveplate1=_waveplate(doc["wp1"], f"{path}.wp1"),
        waveplate2=_waveplate(doc["wp2"], f"{path}.wp2"),
        sample=sample,
        rotation=_number(doc, path, "psi", default=0.0),
    )


def parse_schedule(doc, path: str = "schedule") -> ScanSchedule:
    doc = _check_keys(
        doc, path, ("n_samples",), ("xi_bar", "delta_xi", "rate_phi0", "rate_delta")
    )
    n = doc["n_samples"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigError(f"{path}.n_samples: expected an integer")
    if n < 8:
        raise ConfigError(f"{path}.n_samples: must be >= 8")
    if n > MAX_SAMPLES:
        raise ConfigError(f"{path}.n_samples: must be <= {MAX_SAMPLES}")
    return ScanSchedule(
        signal_offset=_number(doc, path, "xi_bar", default=0.0),
        diff_offset=_number(doc, path, "delta_xi", default=0.0),
        signal_rate=_number(doc, path, "rate_phi0", default=0.0),
        diff_rate=_number(doc, path, "rate_delta", default=0.0),
        n_samples=n,
    )


def parse_noise(doc, path: str = "noise") -> NoiseModel:
    doc = _check_keys(doc, path, ("counts_per_unit_N",), ("seed", "mode"))
    kappa = _number(doc, path, "counts_per_unit_N")
    if kappa <= 0.0:
        raise ConfigError(f"{path}.counts_per_unit_N: must be > 0")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"{path}.seed: expected an integer")
    if seed < 0:
        raise ConfigError(f"{path}.seed: must be >= 0")
    mode = doc.get("mode", "noiseless")
    if mode not in NOISE_MODES:
        raise ConfigError(f"{path}.mode: must be 'noiseless' or 'poisson'")
    return NoiseModel(counts_per_unit=kappa, seed=seed, mode=mode)


def load_experiment(path: str | Path, seed_override: int | None = None):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno}: {exc.msg}") from exc
    doc = _check_keys(doc, "config", ("interferometer", "schedule", "noise"), ("regime",))
    regime = doc.get("regime", "exact")
    if regime not in REGIMES:
        raise ConfigError("config.regime: must be 'exact' or 'lowgain'")
    noise = parse_noise(doc["noise"])
    if seed_override is not None:
        if seed_override < 0:
            raise ConfigError("--seed: must be >= 0")
        noise = NoiseModel(noise.counts_per_unit, seed_override, noise.mode)
    return (
        parse_interferometer(doc["interferometer"]),
        parse_schedule(doc["schedule"]),
        noise,
        regime,
    )


def _write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_simulate(args) -> int:
    cfg, schedule, noise, regime = load_experiment(args.config, args.seed)
    series = simulate_scan(cfg, schedule, noise, regime=regime)
    series.to_csv(args.out)
    summary = {
        "n_samples": len(series),
        "mean_expected_n": float(np.mean(series.expected_n)),
        "fringe_peak_to_peak": float(np.ptp(series.expected_n)),
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_calibrate(args) -> int:
    signal_scan = TimeSeries.from_csv(args.signal_scan)
    idler_scan = TimeSeries.from_csv(args.idler_scan)
    result = calibrate(signal_scan, idler_scan)
    _write_json(
        args.out,
        {
            "xi_bar": result.signal_offset,
            "delta_xi": result.diff_offset,
            "flux_scale": result.flux_scale,
            "diagnostics": result.diagnostics,
        },
    )
    return EXIT_OK


def _load_calibration(path: str | Path) -> tuple[float, float]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read calibration: {exc}") from exc
    doc = _require_mapping(doc, "calibration")
    return _number(doc, "calibration", "xi_bar"), _number(doc, "calibration", "delta_xi")


def _median(values: np.ndarray) -> float:
    """``np.median`` of a nonempty NaN-free 1-D float array, bit for bit: the
    ``np.mean`` of the middle element, or of the two middle ones, of a
    partition.  It leaves out the NaN check, and so the ``numpy.ma`` import
    that ``np.median``'s first call costs a fresh process."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(np.mean(np.partition(values, mid)[mid:mid + 1]))
    return float(np.mean(np.partition(values, (mid - 1, mid))[mid - 1:mid + 1]))


def cmd_estimate(args) -> int:
    if args.calibration is not None and args.pipeline != "fourier":
        raise ConfigError("--calibration is used only by --pipeline fourier")
    if args.assume is not None and args.pipeline == "fourier":
        raise ConfigError("--assume is used only by --pipeline rotated or ellipse")
    if args.phibar is not None:
        if (args.pipeline, args.assume) != ("rotated", "general"):
            raise ConfigError("--phibar is used only by --pipeline rotated --assume general")
        if not math.isfinite(args.phibar):
            raise ConfigError("--phibar: must be finite")
    series = [TimeSeries.from_csv(p) for p in args.data]
    if args.pipeline == "fourier":
        if len(series) != 1:
            raise ConfigError("fourier pipeline takes exactly one --data series")
        if not args.calibration:
            raise ConfigError("fourier pipeline requires --calibration")
        xi_bar, delta_xi = _load_calibration(args.calibration)
        # per unit step, so a decimated record keeps its rate; halved (exact),
        # so a step past the largest double does not overflow; none for one row
        half = np.diff(0.5 * series[0].phi0) / np.diff(series[0].step)
        decomp = harmonic_regress(series[0], 2.0 * _median(half) if half.size else 0.0)
        estimate = extract_sample_fourier(decomp, 2.0 * decomp.dc, xi_bar, delta_xi)
    else:
        if len(series) != 2:
            raise ConfigError(
                f"{args.pipeline} pipeline takes two --data series (settings 1, 2)"
            )
        assume = args.assume or "isotropic_phase"
        if args.pipeline == "rotated":
            estimate = estimate_rotated(
                series[0], series[1], assume=assume, phibar=args.phibar
            )
        elif assume == "general":
            raise ConfigError("ellipse pipeline supports only the structural assumptions")
        else:
            estimate = estimate_ellipse(series[0], series[1], assume=assume)
    _write_json(args.out, estimate.to_json_dict())
    return EXIT_OK


def _figure_fig3(out_dir: Path, t_par_mag: float, name: str) -> list[Path]:
    # unit gain, lossless signal arm, axis moduli 0.9 / t_par_mag through the
    # aligned quarter-wave pair: its setup phases round to at most 3.2e-16 rad
    # (the crossed pair's are -pi/2 and pi), so the grid's phases are total
    phase = np.linspace(0.0, 2.0 * math.pi, 201)
    cfg = _analyzer_config(2, 0.5 * (0.9 + t_par_mag), 0.9 - t_par_mag, 0.0, 0.0)
    mm, dd = np.meshgrid(phase, phase, indexing="ij")
    n = n_lowgain(beating_parameters(cfg), mm, dd)
    path = out_dir / f"{name}.csv"
    write_csv(
        path,
        ["mean_phase", "diff_phase", "n"],
        [mm.ravel(), dd.ravel(), n.ravel()],
    )
    return [path]


def _figure_fig4(out_dir: Path, name: str) -> list[Path]:
    # mean transmission 0.85, diattenuation 0.1 (axis moduli 0.9 / 0.8
    # through the aligned quarter-wave pair, as in fig3), lossless signal arm
    gains = (1e-6, 0.5, 1.0, 2.0)
    phase = np.linspace(0.0, 2.0 * math.pi, 401)
    # fig4a scans the mean phase at differential phase pi, fig4b the reverse
    scan = (phase, math.pi) if name == "fig4a" else (math.pi, phase)
    cfg = _analyzer_config(2, 0.85, 0.1, 0.0, 0.0)
    rows_v, rows_phase, rows_n = [], [], []
    for v in gains:
        gain = CrystalGain(v)
        n = photon_number_exact(replace(cfg, crystal1=gain, crystal2=gain), *scan)
        rows_v.append(np.full_like(phase, v))
        rows_phase.append(phase)
        rows_n.append(n)
    path = out_dir / f"{name}.csv"
    column = "mean_phase" if name == "fig4a" else "diff_phase"
    write_csv(
        path,
        ["v", column, "n"],
        [np.concatenate(rows_v), np.concatenate(rows_phase), np.concatenate(rows_n)],
    )
    return [path]


def _figure_fig5b(out_dir: Path) -> list[Path]:
    # fig4's configuration with the signal arm blocked; the oscillation
    # amplitude grows with the gain squared
    diff_phase = np.linspace(0.0, 2.0 * math.pi, 201)
    blocked = replace(_analyzer_config(2, 0.85, 0.1, 0.0, 0.0), signal=SignalControl(0.0))
    paths = []
    for v, tag in ((0.5, "v0p5"), (1.0, "v1"), (2.0, "v2")):
        gain = CrystalGain(v)
        n = photon_number_exact(replace(blocked, crystal1=gain, crystal2=gain),
                                0.0, diff_phase - math.pi)
        path = out_dir / f"fig5b_{tag}.csv"
        write_csv(path, ["diff_phase", "n"], [diff_phase, n])
        paths.append(path)
    return paths


def _analyzer_config(setting: int, tbar: float, dt: float, dphi: float,
                     psi: float) -> InterferometerConfig:
    """Analyzer setting 1 (crossed quarter-wave pair) or 2 (aligned pair) at
    unit gain with a lossless signal arm, for a sample of zero mean phase
    rotated by ``psi``."""
    return InterferometerConfig(
        crystal1=CrystalGain(1.0),
        crystal2=CrystalGain(1.0),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(0.25 * math.pi),
        waveplate2=quarter_wave((0.75 if setting == 1 else 0.25) * math.pi),
        sample=SampleAxes((tbar + 0.5 * dt) * cmath.exp(0.5j * dphi),
                          (tbar - 0.5 * dt) * cmath.exp(-0.5j * dphi)),
        rotation=psi,
    )


def _figure_fig6(out_dir: Path) -> list[Path]:
    # rows (tbar, dt, dphi): a pure diattenuator and a pure retarder
    rows = {"a": (0.6, 0.6, 0.0), "b": (0.6, 0.0, 0.5 * math.pi)}
    phase = np.linspace(0.0, 2.0 * math.pi, 181)
    curves = {
        (row, psi, setting): n_lowgain(
            beating_parameters(_analyzer_config(setting, *rows[row], psi)), phase
        )
        for row in rows for psi in (1.8, 3.5) for setting in (1, 2)
    }
    paths = []
    for row in rows:
        path = out_dir / f"fig6{row}_signals.csv"
        write_csv(path, ["phase", "n_setting1", "n_setting2"],
                  [phase, curves[row, 1.8, 1], curves[row, 1.8, 2]])
        paths.append(path)
    for psi, tag in ((1.8, "psi1p8"), (3.5, "psi3p5")):
        header = ["phi0"] + [f"n{setting}_{row}" for row in rows for setting in (1, 2)]
        cols = [phase] + [curves[row, psi, setting] for row in rows for setting in (1, 2)]
        path = out_dir / f"fig6_ellipse_{tag}.csv"
        write_csv(path, header, cols)
        paths.append(path)
    return paths


FIGURES = {
    "fig3a": partial(_figure_fig3, t_par_mag=0.9, name="fig3a"),
    "fig3b": partial(_figure_fig3, t_par_mag=0.2, name="fig3b"),
    "fig4a": partial(_figure_fig4, name="fig4a"),
    "fig4b": partial(_figure_fig4, name="fig4b"),
    "fig5b": _figure_fig5b,
    "fig6": _figure_fig6,
}
FIGURE_IDS = tuple(FIGURES)


def cmd_figures(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = FIGURES[args.id](out_dir)
    print(json.dumps({"written": [str(p) for p in paths]}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlipol",
        description="Simulate a polarization-sensitive nonlinear interferometer "
        "and recover sample parameters from count records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scheduled scan from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cal = sub.add_parser("calibrate", help="recover phase offsets from two scans")
    p_cal.add_argument("--signal-scan", required=True)
    p_cal.add_argument("--idler-scan", required=True)
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    p_est = sub.add_parser("estimate", help="recover sample parameters from series")
    p_est.add_argument("--pipeline", required=True,
                       choices=("fourier", "rotated", "ellipse"))
    p_est.add_argument("--data", action="append", required=True)
    p_est.add_argument("--calibration", default=None)
    p_est.add_argument("--assume", default=None, choices=ROTATED_ASSUMPTIONS)
    p_est.add_argument("--phibar", type=float, default=None)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_fig = sub.add_parser("figures", help="emit the data grids behind the figures")
    p_fig.add_argument("--id", required=True, choices=FIGURE_IDS)
    p_fig.add_argument("--out-dir", required=True)
    p_fig.set_defaults(func=cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UnidentifiableError as exc:
        print(f"error: unidentifiable: {exc.flag}: {exc}", file=sys.stderr)
        return EXIT_UNIDENTIFIABLE
    except CalibrationError as exc:
        print(f"error: calibration: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except EstimationError as exc:
        print(f"error: {exc.flag}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":
    console_main()
