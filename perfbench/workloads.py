"""The benchmark's workloads: seeded inputs, one timed trial, output checks.

Every workload is a closed loop driven by one client: the next trial starts
only after the previous one returned.  Trials call the package through its
module attributes (``scan.simulate_scan``, ``estimation.harmonic_regress``,
``cli.main``), so a traced run can swap in timing wrappers from outside.

Trial inputs are drawn from the run's seed and cycle through a fixed pool, so
a repeated trial must reproduce the pool entry's result exactly; the accuracy
metric is taken over the pool alone and is therefore deterministic per seed.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nli_polarimetry import cli, elements, estimation, scan
from nli_polarimetry.interferometer import InterferometerConfig
from speed import SpeedProbe, child_kernel

DIAG = math.pi / 4
# README sample: axis moduli 0.9 / 0.2, mean phase 0.4, retardance 0.9
FOURIER_TRUTH = {"t_perp": 0.9, "t_par": 0.2, "phibar": 0.4, "dphi": 0.9}
# rotated sample of acceptance criterion 8: moduli 0.9 / 0.3, common phase 0.4
ROTATED_TRUTH = {"tbar": 0.6, "dt": 0.6}
ROTATION = 1.8
ROTATED_SCHEDULE = scan.ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
GAIN_SWEEP = (0.01, 0.1, 0.5, 1.0, 2.0)
CLI_SAMPLES = 40_000
CLI_BOOT = "import sys; from nli_polarimetry.cli import main; sys.exit(main(sys.argv[1:]))"


class TrialFailure(RuntimeError):
    """A CLI call exited nonzero."""


class CheckFailure(RuntimeError):
    """A program output failed one of the benchmark's checks."""


def _qwp_pair(v: float, sample: elements.SampleAxes, rotation: float = 0.0,
              gamma2: float = 3 * DIAG) -> InterferometerConfig:
    return InterferometerConfig(
        crystal1=elements.CrystalGain(v),
        crystal2=elements.CrystalGain(v),
        signal=elements.SignalControl(1.0 + 0j),
        waveplate1=elements.quarter_wave(DIAG),
        waveplate2=elements.quarter_wave(gamma2),
        sample=sample,
        rotation=rotation,
    )


def strict_json(text: str):
    """Parse standard JSON only: NaN and the infinities are rejected."""
    def reject(token):
        raise CheckFailure(f"estimate JSON holds the non-standard constant {token}")
    return json.loads(text, parse_constant=reject)


@dataclasses.dataclass(frozen=True)
class RoundTrip:
    """Inputs of one Poisson round trip at one gain."""

    regime: str
    empty: InterferometerConfig
    loaded: InterferometerConfig
    settings: tuple
    signal_scan: scan.ScanSchedule
    idler_scan: scan.ScanSchedule
    measurement: scan.ScanSchedule
    noises: tuple


def round_trip_configs(v: float) -> tuple:
    f = FOURIER_TRUTH
    sample = elements.SampleAxes(
        f["t_perp"] * cmath.exp(1j * (f["phibar"] + 0.5 * f["dphi"])),
        f["t_par"] * cmath.exp(1j * (f["phibar"] - 0.5 * f["dphi"])),
    )
    empty = _qwp_pair(v, elements.SampleAxes(1.0, 1.0))
    rotated = elements.SampleAxes(0.9 * cmath.exp(0.4j), 0.3 * cmath.exp(0.4j))
    settings = tuple(
        _qwp_pair(v, rotated, rotation=ROTATION, gamma2=gamma2) for gamma2 in (3 * DIAG, DIAG)
    )
    return empty, dataclasses.replace(empty, sample=sample), settings


def make_round_trip(configs, regime, xi_bar, delta_xi, kappa, seed, mode="poisson"):
    empty, loaded, settings = configs
    return RoundTrip(
        regime=regime,
        empty=empty,
        loaded=loaded,
        settings=settings,
        signal_scan=scan.ScanSchedule(xi_bar, delta_xi, 2.0 * math.pi / 100, 0.0, 400),
        idler_scan=scan.ScanSchedule(xi_bar, delta_xi, 0.0, 4.0 * math.pi / 160, 400),
        measurement=scan.fourier_protocol_schedule(4, 100, xi_bar, delta_xi),
        noises=tuple(scan.NoiseModel(kappa, seed + i, mode) for i in range(5)),
    )


def run_round_trip(x: RoundTrip):
    """Calibrate, Fourier-estimate, then rotated- and ellipse-estimate."""
    sig = scan.simulate_scan(x.empty, x.signal_scan, x.noises[0], regime=x.regime)
    idl = scan.simulate_scan(x.empty, x.idler_scan, x.noises[1], regime=x.regime)
    calib = scan.calibrate(sig, idl)
    series = scan.simulate_scan(x.loaded, x.measurement, x.noises[2], regime=x.regime)
    decomp = estimation.harmonic_regress(series, x.measurement.signal_rate)
    fourier = estimation.extract_sample_fourier(
        decomp, 2.0 * decomp.dc, calib.signal_offset, calib.diff_offset
    )
    s1 = scan.simulate_scan(x.settings[0], ROTATED_SCHEDULE, x.noises[3], regime=x.regime)
    s2 = scan.simulate_scan(x.settings[1], ROTATED_SCHEDULE, x.noises[4], regime=x.regime)
    rotated = estimation.estimate_rotated(s1, s2, assume="isotropic_phase")
    ellipse = estimation.estimate_ellipse(s1, s2, assume="isotropic_phase")
    return fourier, rotated, ellipse


def fourier_errors(est) -> tuple:
    f = FOURIER_TRUTH
    return (est.t_perp - f["t_perp"], est.t_par - f["t_par"],
            math.remainder(est.dphi - f["dphi"], 2.0 * math.pi))


def check_noiseless_round_trip(seed: int) -> None:
    """Acceptance criterion 7: a noiseless low-gain round trip is exact to 1e-9."""
    rng = np.random.default_rng([seed, 7])
    xi_bar, delta_xi = float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-2.4, 2.4))
    x = make_round_trip(round_trip_configs(0.5), "lowgain", xi_bar, delta_xi, 1.0e4, 0,
                        mode="noiseless")
    fourier, _, _ = run_round_trip(x)
    errs = fourier_errors(fourier) + (
        math.remainder(fourier.phibar - FOURIER_TRUTH["phibar"], math.pi),
    )
    if max(abs(e) for e in errs) > 1e-9:
        raise CheckFailure(f"noiseless Fourier round trip misses the truth by {errs}")


class RoundTripWorkload:
    """In-process Poisson round trips; ``gains`` cycle with the trial index."""

    def __init__(self, name, regime, gains, pool, tail_pct, min_trials):
        self.name = name
        self.regime = regime
        self.gains = gains
        self.pool_size = pool
        self.tail_pct = tail_pct
        self.min_trials = min_trials

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        configs = {v: round_trip_configs(v) for v in self.gains}
        self.pool = []
        for j in range(self.pool_size):
            v = self.gains[j % len(self.gains)]
            xi_bar, delta_xi = float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-2.4, 2.4))
            noise_seed = int(rng.integers(2**31))
            # counts per unit photon number scale as 1/V, as a longer
            # integration would, so every gain sees ~1e4 counts per step
            self.pool.append(make_round_trip(configs[v], self.regime, xi_bar, delta_xi,
                                             5.0e3 / v, noise_seed))
        self.errors: dict[int, tuple] = {}

    def before_trial(self, k: int) -> None:
        pass

    @staticmethod
    def speed_probe(in_process: bool) -> SpeedProbe:
        return SpeedProbe()

    def trial(self, k: int, in_process: bool):
        return run_round_trip(self.pool[k % self.pool_size])

    def after_trial(self, k: int, result) -> None:
        fourier, rotated, ellipse = result
        for est in result:
            try:
                json.dumps(est.to_json_dict(), allow_nan=False)
            except ValueError as exc:
                raise CheckFailure(f"trial {k}: estimate is not standard JSON: {exc}") from exc
        errs = fourier_errors(fourier) + tuple(
            getattr(est, key) - ROTATED_TRUTH[key]
            for est in (rotated, ellipse) for key in ("tbar", "dt")
        )
        j = k % self.pool_size
        if j not in self.errors:
            self.errors[j] = errs
        elif errs != self.errors[j]:
            raise CheckFailure(f"trial {k} repeats pool entry {j} but its estimates differ")

    def est_rms_err(self) -> float:
        errs = np.array(list(self.errors.values()))
        return float(np.sqrt(np.mean(errs**2)))

    def finish(self, traced: bool) -> None:
        if not traced and len(self.errors) < self.pool_size:
            raise CheckFailure(f"only {len(self.errors)} of {self.pool_size} pool trials succeeded")


class CliWorkload:
    """``nlipol simulate`` x3 -> ``calibrate`` -> ``estimate --pipeline fourier``.

    Untraced, each call runs in a fresh interpreter with ``PYTHONPATH=src``,
    one child at a time.  The package is not installed, and ``python -m
    nli_polarimetry.cli`` exits 0 without running because ``cli.py`` has no
    ``__main__`` guard, so the child calls ``cli.main`` itself.  Traced, the
    same argument lists go through ``cli.main`` in this process.

    Every trial repeats the same argument lists, so all outputs must be
    byte-identical.  The trial's estimate must also equal the in-process
    pipeline run on the same configs; ``est_rms_err`` is taken over that
    pipeline on ``accuracy_pool`` seeded noise realizations of the trial's
    configs, the first being the trial's own.
    """

    name = "cli_pipeline"
    tail_pct = 50
    min_trials = 2
    accuracy_pool = 256

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    @staticmethod
    def _docs(xi_bar: float, delta_xi: float, seeds) -> list[dict]:
        n = CLI_SAMPLES
        f = FOURIER_TRUTH
        lossless = {"t_perp_mag": 1.0, "t_par_mag": 1.0}
        sample = {
            "t_perp_mag": f["t_perp"], "t_perp_phase": f["phibar"] + 0.5 * f["dphi"],
            "t_par_mag": f["t_par"], "t_par_phase": f["phibar"] - 0.5 * f["dphi"],
        }
        beat = 4.0 * math.pi * 100 / n  # 100 beat periods
        schedules = [
            {"rate_phi0": 2.0 * math.pi * 100 / n},
            {"rate_delta": beat},
            {"rate_phi0": beat, "rate_delta": beat},
        ]
        docs = []
        for sched, samp, seed in zip(schedules, (lossless, lossless, sample), seeds):
            docs.append({
                "interferometer": {
                    "gain1": {"V": 0.5},
                    "gain2": {"V": 0.5},
                    "signal": {"ts_mag": 1.0},
                    "wp1": {"axis_angle": DIAG, "retardance": 0.5 * math.pi},
                    "wp2": {"axis_angle": 3 * DIAG, "retardance": 0.5 * math.pi},
                    "sample": samp,
                },
                "schedule": {"xi_bar": xi_bar, "delta_xi": delta_xi, "n_samples": n, **sched},
                "noise": {"counts_per_unit_N": 1.0e4, "seed": int(seed), "mode": "poisson"},
                "regime": "lowgain",
            })
        return docs

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.realizations = [
            self._docs(float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-2.4, 2.4)),
                       rng.integers(2**31, size=3))
            for _ in range(self.accuracy_pool)
        ]
        w = {name: str(workdir / name) for name in
             ("sig.json", "idl.json", "meas.json", "sig.csv", "idl.csv", "meas.csv",
              "calib.json", "estimate.json")}
        for name, doc in zip(("sig.json", "idl.json", "meas.json"), self.realizations[0]):
            Path(w[name]).write_text(json.dumps(doc))
        self.argvs = [
            ["simulate", "--config", w["sig.json"], "--out", w["sig.csv"]],
            ["simulate", "--config", w["idl.json"], "--out", w["idl.csv"]],
            ["simulate", "--config", w["meas.json"], "--out", w["meas.csv"]],
            ["calibrate", "--signal-scan", w["sig.csv"], "--idler-scan", w["idl.csv"],
             "--out", w["calib.json"]],
            ["estimate", "--pipeline", "fourier", "--data", w["meas.csv"],
             "--calibration", w["calib.json"], "--out", w["estimate.json"]],
        ]
        self.outputs = [Path(w[name]) for name in
                        ("sig.csv", "idl.csv", "meas.csv", "calib.json", "estimate.json")]
        self.digest = None
        self.errors = None

    @staticmethod
    def speed_probe(in_process: bool) -> SpeedProbe:
        if in_process:
            return SpeedProbe()
        # the CLI children run on whichever core is free; a kernel timed in
        # this process does not follow their speed, a child process does
        return SpeedProbe(child_kernel, nominal_s=0.15, every_s=2.0, warmup=3)

    def before_trial(self, k: int) -> None:
        # a call that silently writes nothing must not pass on stale files
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def _child(self, argv) -> bytes:
        proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], cwd=self.root,
                              env=self.env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise TrialFailure(f"nlipol {argv[0]} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-400:]}")
        return proc.stdout

    @staticmethod
    def _in_process(argv) -> bytes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            raise TrialFailure(f"nlipol {argv[0]} returned {code}")
        return out.getvalue().encode()

    def trial(self, k: int, in_process: bool):
        run = self._in_process if in_process else self._child
        return [run(argv) for argv in self.argvs]

    def after_trial(self, k: int, stdouts) -> None:
        h = hashlib.sha256()
        for blob in stdouts + [path.read_bytes() for path in self.outputs]:
            h.update(hashlib.sha256(blob).digest())
        if self.digest is None:
            estimate = strict_json(self.outputs[-1].read_text())
            strict_json(self.outputs[-2].read_text())
            reference = json.loads(json.dumps(self.pipeline(self.realizations[0]).to_json_dict()))
            if estimate != reference:
                raise CheckFailure("CLI estimate differs from the in-process pipeline")
            self.digest = h.digest()
        elif h.digest() != self.digest:
            raise CheckFailure(f"trial {k} outputs differ from trial 0 on the same inputs")

    @staticmethod
    def pipeline(docs):
        """The CLI's Fourier pipeline on the same configs, without the CSV files."""
        series = []
        for doc in docs:
            cfg = cli.parse_interferometer(doc["interferometer"])
            schedule = cli.parse_schedule(doc["schedule"])
            noise = cli.parse_noise(doc["noise"])
            series.append(scan.simulate_scan(cfg, schedule, noise, regime=doc["regime"]))
        calib = scan.calibrate(series[0], series[1])
        rate = float(np.median(np.diff(series[2].phi0)))
        decomp = estimation.harmonic_regress(series[2], rate)
        return estimation.extract_sample_fourier(
            decomp, 2.0 * decomp.dc, calib.signal_offset, calib.diff_offset
        )

    def est_rms_err(self) -> float:
        errs = np.array([fourier_errors(self.pipeline(docs)) for docs in self.realizations])
        return float(np.sqrt(np.mean(errs**2)))

    def finish(self, traced: bool) -> None:
        if self.digest is None:
            raise CheckFailure("no CLI trial completed")


def make(name: str, root: Path):
    if name == "mc_lowgain":
        return RoundTripWorkload(name, "lowgain", (0.5,), pool=1000, tail_pct=99,
                                 min_trials=1000)
    if name == "exact_gain_sweep":
        return RoundTripWorkload(name, "exact", GAIN_SWEEP, pool=20, tail_pct=75,
                                 min_trials=40)
    if name == "cli_pipeline":
        return CliWorkload(root)
    raise ValueError(f"unknown workload {name!r}")
