import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nli_polarimetry
from conftest import (HUGE, MALFORMED_SERIES, analyzer_config, axis_distance, n_highgain,
                      oracle_tol, scaled_counts)
from nli_polarimetry import (BeatingParameters, SignalControl, TimeSeries, amplitude_relations,
                             cli)
from nli_polarimetry.cli import main
from nli_polarimetry.scan import write_csv

# a JSON integer too large for a double, and a key to leave out of a config
HUGE_INT = 10**400
DROP = object()
QWP = math.pi / 2
DIAG = math.pi / 4


def base_config(**overrides):
    doc = {
        "interferometer": {
            "gain1": {"V": 0.5},
            "gain2": {"V": 0.5},
            "signal": {"ts_mag": 1.0},
            "wp1": {"axis_angle": DIAG, "retardance": QWP},
            "wp2": {"axis_angle": 3 * DIAG, "retardance": QWP},
            "sample": {
                "t_perp_mag": 0.9,
                "t_par_mag": 0.2,
                "t_perp_phase": 0.85,
                "t_par_phase": -0.05,
            },
        },
        "schedule": {
            "xi_bar": 0.23,
            "delta_xi": -0.61,
            "rate_phi0": 16 * math.pi / 400,
            "rate_delta": 16 * math.pi / 400,
            "n_samples": 400,
        },
        "noise": {"counts_per_unit_N": 1.0e4, "seed": 5, "mode": "noiseless"},
        "regime": "lowgain",
    }
    for dotted, value in overrides.items():
        node = doc
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def scaled_csv(path, factor):
    """A copy of a series CSV with its counts and expected photon numbers
    times ``factor``."""
    out = path.with_name(f"scaled_{path.name}")
    scaled_counts(TimeSeries.from_csv(path), factor).to_csv(out)
    return out


def strict_json(path):
    """Parse a JSON file, refusing the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def assert_same_estimate(got, want):
    for key in ("t_perp", "t_par", "tbar", "dt", "phibar", "dphi", "psi"):
        assert got[key] == (None if want[key] is None else pytest.approx(want[key], abs=1e-12))
    assert got["flags"] == want["flags"]


def reference_grid_csv(path, header, columns):
    """The per-row ``csv.writer`` loop that wrote the figure grids before."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def figure_parameters(v, signal_mag):
    """The beating parameters of fig4 (``signal_mag`` 1) and fig5b (0):
    gain ``v``, mean transmission 0.85, diattenuation 0.1 and every phase
    zero, so a grid's phases are the total phases."""
    return BeatingParameters(
        mean_photons=v, signal_mag=signal_mag, control_phase=0.0, mean_trans=0.85,
        diff_trans=0.1, mean_sample_phase=0.0, retardance=0.0, setup_phase_offset=0.0,
        diff_setup_phase=0.0,
    )


def figure_config(v, signal_mag):
    """The configuration behind ``figure_parameters``: axis moduli 0.9 / 0.8
    through the aligned quarter-wave pair."""
    cfg = analyzer_config(0.85, 0.1, 0.0, 0.0, 0.0, 2, v)
    return dataclasses.replace(cfg, signal=SignalControl(signal_mag))


def edit_after_reading(monkeypatch, column, value, row=40):
    """Make ``TimeSeries.from_csv`` write ``value`` into ``column`` at ``row``
    of every record it returns, after the record's check has passed."""
    read = TimeSeries.from_csv.__func__

    def edited(cls, path):
        series = read(cls, path)
        getattr(series, column)[row] = value
        return series
    monkeypatch.setattr(TimeSeries, "from_csv", classmethod(edited))


class TestSimulate:
    def test_writes_series_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "series.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_samples"] == 400
        assert summary["fringe_peak_to_peak"] > 0.0
        series = TimeSeries.from_csv(out)
        assert len(series) == 400

    def test_expected_matches_lowgain_model(self, tmp_path):
        # oracle: the beating formula evaluated on the scanned phases
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "series.csv"
        assert run("simulate", "--config", cfg, "--out", out) == 0
        series = TimeSeries.from_csv(out)
        t = series.step.astype(float)
        amp = 4.0 * 0.5
        vbar, vdelta = 0.55, 0.35
        mean = 0.4 + 0.23 + (16 * math.pi / 400) * t
        half = 0.5 * (0.9 - 0.61 + (16 * math.pi / 400) * t)
        want = 0.5 * amp * (1 - vdelta * np.sin(half) * np.sin(mean)
                            + vbar * np.cos(half) * np.cos(mean))
        np.testing.assert_allclose(series.expected_n, want, atol=1e-12)

    def test_rejects_out_of_range_transmission(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, base_config(**{"interferometer.sample.t_perp_mag": 1.2})
        )
        code = run("simulate", "--config", cfg, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "t_perp_mag" in capsys.readouterr().err

    def test_rejects_unknown_key(self, tmp_path, capsys):
        doc = base_config()
        doc["interferometer"]["sample"]["t_diag_mag"] = 0.5
        cfg = write_config(tmp_path, doc)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "x.csv") == 2
        assert "t_diag_mag" in capsys.readouterr().err

    def test_exact_overflow_exits_3(self, tmp_path, capsys):
        # the last case's counts are finite but too large for the Poisson draw
        for regime, v, kappa, mode in (
            ("exact", 1e200, 1.0e4, "noiseless"), ("exact", 1.7e308, 1.0e4, "noiseless"),
            ("lowgain", 1e308, 1.0e4, "noiseless"), ("exact", 0.5, 1e308, "noiseless"),
            ("exact", 0.5, 1e300, "poisson"),
        ):
            doc = base_config(**{"regime": regime, "interferometer.gain1.V": v,
                                 "interferometer.gain2.V": v,
                                 "noise.counts_per_unit_N": kappa, "noise.mode": mode})
            cfg = write_config(tmp_path, doc)
            out = tmp_path / "out.csv"
            assert run("simulate", "--config", cfg, "--out", out) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: numeric failure: ")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("regime", ["exact", "lowgain"])
    def test_overflowing_scan_phases_exit_3(self, tmp_path, capsys, regime):
        doc = base_config(**{"regime": regime, "schedule.xi_bar": 1.7e308,
                             "schedule.rate_phi0": 1.5e307, "schedule.n_samples": 8})
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("simulate", "--config", write_config(tmp_path, doc), "--out", out)
        assert code == 3
        assert capsys.readouterr().err == "error: numeric failure: scan phases overflow a double\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["noiseless", "poisson"])
    @pytest.mark.parametrize("options, overrides, message", [
        ((), {"noise.seed": -3}, "noise.seed: must be >= 0"),
        (("--seed", "-2"), {}, "--seed: must be >= 0"),
    ], ids=["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, mode, options, overrides,
                                   message):
        cfg = write_config(tmp_path, base_config(**{"noise.mode": mode, **overrides}))
        out = tmp_path / "out.csv"
        assert run("simulate", "--config", cfg, "--out", out, *options) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value, message", [
        (None, [], "config: expected an object"),
        ("interferometer", 1.5, "interferometer: expected an object"),
        ("interferometer.gain2", None, "interferometer.gain2: expected an object"),
        ("interferometer.wp1", "qwp", "interferometer.wp1: expected an object"),
        ("interferometer.signal", 1.0, "interferometer.signal: expected an object"),
        ("interferometer.sample", [0.9, 0.2], "interferometer.sample: expected an object"),
        ("schedule", 400, "schedule: expected an object"),
        ("noise", [], "noise: expected an object"),
        ("interferometer.extra", 1, "interferometer: unknown key 'extra'"),
        ("interferometer.gain1.extra", 1, "interferometer.gain1: unknown key 'extra'"),
        ("interferometer.wp2.extra", 1, "interferometer.wp2: unknown key 'extra'"),
        ("interferometer.signal.extra", 1, "interferometer.signal: unknown key 'extra'"),
        ("interferometer.sample.extra", 1, "interferometer.sample: unknown key 'extra'"),
        ("schedule.extra", 1, "schedule: unknown key 'extra'"),
        ("noise.extra", 1, "noise: unknown key 'extra'"),
        ("interferometer.wp2", DROP, "interferometer: missing required key 'wp2'"),
        ("interferometer.gain1.V", -0.1, "interferometer.gain1.V: must be >= 0.0"),
        ("interferometer.gain1.V", HUGE_INT, "interferometer.gain1.V: must be finite"),
        ("schedule.n_samples", 400.0, "schedule.n_samples: expected an integer"),
        ("schedule.n_samples", 4, "schedule.n_samples: must be >= 8"),
        ("schedule.n_samples", 10**7 + 1, "schedule.n_samples: must be <= 10000000"),
        ("schedule.n_samples", HUGE_INT, "schedule.n_samples: must be <= 10000000"),
        ("noise.counts_per_unit_N", 0.0, "noise.counts_per_unit_N: must be > 0"),
        ("noise.seed", 1.5, "noise.seed: expected an integer"),
        ("noise.mode", "gaussian", "noise.mode: must be 'noiseless' or 'poisson'"),
        ("regime", "highgain", "config.regime: must be 'exact' or 'lowgain'"),
    ], ids=["config_not_object", "interferometer_not_object", "gain_not_object",
            "wp_not_object", "signal_not_object", "sample_not_object",
            "schedule_not_object", "noise_not_object", "interferometer_unknown_key",
            "gain_unknown_key", "wp_unknown_key", "signal_unknown_key",
            "sample_unknown_key", "schedule_unknown_key", "noise_unknown_key",
            "missing_wp2", "negative_v", "huge_integer_v",
            "float_n_samples", "few_samples", "many_samples", "huge_integer_n_samples",
            "zero_kappa", "float_seed", "unknown_mode", "unknown_regime"])
    def test_config_refusal_exits_2(self, tmp_path, capsys, dotted, value, message):
        if dotted is None:  # ``value`` in place of the whole document
            doc = value
        else:
            doc = base_config()
            *parents, key = dotted.split(".")
            node = doc
            for parent in parents:
                node = node[parent]
            if value is DROP:
                del node[key]
            else:
                node[key] = value
        out = tmp_path / "out.csv"
        assert run("simulate", "--config", write_config(tmp_path, doc), "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert run("simulate", "--config", path, "--out", tmp_path / "x.csv") == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config: [Errno 2] No such file or directory: '{path}'\n")

    def test_rejects_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"interferometer": \n  oops\n}')
        assert run("simulate", "--config", path, "--out", tmp_path / "x.csv") == 2
        assert "line" in capsys.readouterr().err

    def test_blocked_gain_sweep_matches_blocked_formula(self, tmp_path):
        # three blocked configs reproduce the gain-squared fringe growth
        amplitudes = {}
        for v in (0.5, 1.0, 2.0):
            doc = base_config(**{
                "interferometer.gain1.V": v,
                "interferometer.gain2.V": v,
                "interferometer.signal.ts_mag": 0.0,
                "interferometer.sample.t_par_mag": 0.8,
                "interferometer.sample.t_perp_phase": 0.0,
                "interferometer.sample.t_par_phase": 0.0,
                "schedule.xi_bar": 0.0,
                "schedule.delta_xi": 0.0,
                "schedule.rate_phi0": 0.0,
                "schedule.rate_delta": 2 * math.pi / 100,
                "schedule.n_samples": 400,
                "regime": "exact",
            })
            cfg = write_config(tmp_path, doc, name=f"blocked_{v}.json")
            out = tmp_path / f"blocked_{v}.csv"
            assert run("simulate", "--config", cfg, "--out", out) == 0
            series = TimeSeries.from_csv(out)
            half = 0.5 * (series.delta_phase - math.pi)
            want = v + v * v * (
                0.25 * 0.1**2 * np.cos(half) ** 2 + 0.85**2 * np.sin(half) ** 2
            )
            np.testing.assert_allclose(series.expected_n, want, atol=1e-12)
            amplitudes[v] = np.ptp(series.expected_n)
        assert amplitudes[2.0] / amplitudes[1.0] == pytest.approx(4.0, abs=1e-9)


class TestCalibrateAndEstimate:
    def make_scans(self, tmp_path, seed_mode="noiseless"):
        sig = base_config(**{
            "interferometer.sample.t_perp_mag": 1.0,
            "interferometer.sample.t_par_mag": 1.0,
            "interferometer.sample.t_perp_phase": 0.0,
            "interferometer.sample.t_par_phase": 0.0,
            "schedule.rate_delta": 0.0,
            "schedule.rate_phi0": 2 * math.pi / 100,
            "noise.mode": seed_mode,
        })
        idl = base_config(**{
            "interferometer.sample.t_perp_mag": 1.0,
            "interferometer.sample.t_par_mag": 1.0,
            "interferometer.sample.t_perp_phase": 0.0,
            "interferometer.sample.t_par_phase": 0.0,
            "schedule.rate_phi0": 0.0,
            "schedule.rate_delta": 4 * math.pi / 160,
            "noise.mode": seed_mode,
            "noise.seed": 6,
        })
        paths = {}
        for name, doc in (("sig", sig), ("idl", idl)):
            cfg = write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / f"{name}.csv"
            assert run("simulate", "--config", cfg, "--out", out) == 0
            paths[name] = out
        return paths

    def test_full_fourier_pipeline(self, tmp_path):
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        calib_doc = json.loads(calib.read_text())
        assert calib_doc["xi_bar"] == pytest.approx(0.23, abs=1e-9)
        assert calib_doc["delta_xi"] == pytest.approx(-0.61, abs=1e-9)

        cfg = write_config(tmp_path, base_config(), name="main.json")
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        est_path = tmp_path / "est.json"
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 0
        est = json.loads(est_path.read_text())
        assert est["t_perp"] == pytest.approx(0.9, abs=1e-9)
        assert est["t_par"] == pytest.approx(0.2, abs=1e-9)
        assert est["phibar"] == pytest.approx(0.4, abs=1e-9)
        assert est["dphi"] == pytest.approx(0.9, abs=1e-9)

    def test_downward_fourier_pipeline_matches_the_upward_one(self, tmp_path):
        # the estimate reads a negative scan rate off a downward record
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        estimates = []
        for sign in (1, -1):
            rate = sign * 16 * math.pi / 400
            doc = base_config(**{"schedule.rate_phi0": rate, "schedule.rate_delta": rate})
            cfg = write_config(tmp_path, doc, name=f"main{sign}.json")
            data = tmp_path / f"main{sign}.csv"
            assert run("simulate", "--config", cfg, "--out", data) == 0
            est_path = tmp_path / f"est{sign}.json"
            assert run("estimate", "--pipeline", "fourier", "--data", data,
                       "--calibration", calib, "--out", est_path) == 0
            estimates.append(json.loads(est_path.read_text()))
        up, down = estimates
        for key in ("t_perp", "t_par", "phibar", "dphi"):
            assert down[key] == pytest.approx(up[key], abs=1e-9), key
        assert up["t_perp"] == pytest.approx(0.9, abs=1e-9)
        assert down["flags"] == up["flags"]

    def test_fourier_estimate_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on its first call, about 24 ms of a
        # fresh process; the estimate takes its median without it
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", write_config(tmp_path, base_config()),
                   "--out", data) == 0
        code = ("import sys; from nli_polarimetry.cli import main; "
                "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
        src = Path(nli_polarimetry.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code, "estimate", "--pipeline", "fourier", "--data",
             str(data), "--calibration", str(calib), "--out", str(tmp_path / "est.json")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.stdout.split() == ["0", "False"], proc.stderr

    def test_fourier_requires_calibration(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--out", tmp_path / "e.json") == 2

    @pytest.mark.parametrize("text, message", [
        ('{"xi_bar": null, "delta_xi": 0.1}', "calibration.xi_bar: expected a number"),
        ('{"xi_bar": NaN, "delta_xi": 0.1}', "calibration.xi_bar: must be finite"),
        ('{"xi_bar": true, "delta_xi": 0.1}', "calibration.xi_bar: expected a number"),
        ('{"xi_bar": "0.2", "delta_xi": 0.1}', "calibration.xi_bar: expected a number"),
        ('{"delta_xi": 0.1}', "calibration: missing required key 'xi_bar'"),
        (f'{{"xi_bar": {HUGE_INT}, "delta_xi": 0.1}}', "calibration.xi_bar: must be finite"),
        ("[0.2, 0.1]", "calibration: expected an object"),
        ("oops", "cannot read calibration: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["null", "nan", "true", "string", "missing", "huge_integer", "not_object",
            "malformed"])
    def test_bad_calibration_value_exits_2(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, base_config())
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        calib = tmp_path / "calib.json"
        calib.write_text(text)
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not est_path.exists()

    def test_unreadable_calibration_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        calib = tmp_path / "missing.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", tmp_path / "e.json") == 2
        assert capsys.readouterr().err == (
            f"error: cannot read calibration: [Errno 2] No such file or directory: '{calib}'\n")

    def test_one_row_series_exits_3_without_warning(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        write_csv(data, ("step", "phi0", "delta_phase", "expected_N", "counts"),
                  [[0], [0.0], [0.0], [1.0], [1.0]])
        calib = tmp_path / "calib.json"
        calib.write_text('{"xi_bar": 0.23, "delta_xi": -0.61}')
        est_path = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("estimate", "--pipeline", "fourier", "--data", data,
                       "--calibration", calib, "--out", est_path)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: series_too_short: ") and err.count("\n") == 1
        assert not est_path.exists()

    @pytest.mark.parametrize("counts", ["zero", "negated"])
    def test_nonpositive_dc_exits_3(self, tmp_path, capsys, counts):
        # the fit refuses the record's dc level with its own message
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", write_config(tmp_path, base_config()),
                   "--out", data) == 0
        series = TimeSeries.from_csv(data)
        series.counts = np.zeros(len(series)) if counts == "zero" else -series.counts
        series.to_csv(data)
        calib = tmp_path / "calib.json"
        calib.write_text('{"xi_bar": 0.23, "delta_xi": -0.61}')
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 3
        assert capsys.readouterr().err == (
            "error: bad_amplitude: scan has a nonpositive mean count level\n")
        assert not est_path.exists()

    def test_phase_columns_off_the_step_base_exit_3(self, tmp_path, capsys):
        # a 1-based step column under unchanged phase columns
        cfg = write_config(tmp_path, base_config(**{"interferometer.gain1.V": 0.01,
                                                    "interferometer.gain2.V": 0.01}))
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        series = TimeSeries.from_csv(data)
        series.step += 1
        series.to_csv(data)
        calib = tmp_path / "calib.json"
        calib.write_text('{"xi_bar": 0.23, "delta_xi": -0.61}')
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 3
        assert capsys.readouterr().err.startswith("error: phase_step_mismatch: ")
        assert not est_path.exists()

    def test_record_sampled_every_other_step(self, tmp_path):
        # the rate is read per step, so a decimated record keeps its rate
        cfg = write_config(tmp_path, base_config(**{"interferometer.gain1.V": 0.01,
                                                    "interferometer.gain2.V": 0.01}))
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        series = TimeSeries.from_csv(data)
        kept = slice(None, None, 2)
        TimeSeries(series.step[kept], series.phi0[kept], series.delta_phase[kept],
                   series.expected_n[kept], series.counts[kept]).to_csv(data)
        calib = tmp_path / "calib.json"
        calib.write_text('{"xi_bar": 0.23, "delta_xi": -0.61}')
        est_path = tmp_path / "e.json"
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 0
        est = json.loads(est_path.read_text())
        for key, truth in (("t_perp", 0.9), ("t_par", 0.2), ("phibar", 0.4), ("dphi", 0.9)):
            assert est[key] == pytest.approx(truth, abs=1e-12), key

    @pytest.mark.parametrize("command", ["fourier", "fourier_two_rows", "calibrate"])
    def test_ramp_beyond_the_largest_double_exits_3(self, tmp_path, capsys, command):
        # 16 finite rows whose phi0 span (15 steps of 1.3e307) overflows a
        # double, or two rows whose one step does: one error line, no
        # overflow warning
        n = 2 if command == "fourier_two_rows" else 16
        step = np.arange(n)
        ramp = np.array([-1e308, 1e308]) if n == 2 else (step - 7.5) * 1.3e307
        data = tmp_path / "huge.csv"
        TimeSeries(step, ramp, ramp if command.startswith("fourier") else np.zeros(n),
                   np.ones(n), np.full(n, 5.0)).to_csv(data)
        calib = tmp_path / "calib.json"
        calib.write_text('{"xi_bar": 0.23, "delta_xi": -0.61}')
        if command == "calibrate":
            argv = ("calibrate", "--signal-scan", data, "--idler-scan", data)
        else:
            argv = ("estimate", "--pipeline", "fourier", "--data", data,
                    "--calibration", calib)
        out = tmp_path / "out.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv, "--out", out) == 3
        err = capsys.readouterr().err
        flag = "calibration: first scan" if command == "calibrate" else "undersampled: scan"
        assert err == f"error: {flag} has fewer than 8 points per period\n"
        assert not out.exists()

    def test_swapped_calibration_scans_exit_3(self, tmp_path, capsys):
        scans = self.make_scans(tmp_path)
        capsys.readouterr()
        assert run("calibrate", "--signal-scan", scans["idl"],
                   "--idler-scan", scans["sig"], "--out", tmp_path / "c.json") == 3
        err = capsys.readouterr().err
        assert err == "error: calibration: first scan must ramp only the signal arm\n"

    @pytest.mark.parametrize("column, message", [
        ("phi0", "first scan phi0 column is not a uniform ramp"),
        ("counts", "first scan counts or their fit residual are not finite"),
    ])
    def test_scan_edited_after_its_check_exits_3(self, tmp_path, capfd, monkeypatch, column,
                                                 message):
        scans = self.make_scans(tmp_path)
        edit_after_reading(monkeypatch, column, math.nan)
        capfd.readouterr()
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", tmp_path / "c.json") == 3
        assert capfd.readouterr().err == f"error: calibration: {message}\n"

    def test_schema_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert run("estimate", "--pipeline", "fourier", "--data", bad,
                   "--calibration", bad, "--out", tmp_path / "e.json") == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_nonfinite_count_exits_2(self, tmp_path, capsys, cell):
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        cfg = write_config(tmp_path, base_config(), name="main.json")
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        lines = data.read_text().splitlines()
        fields = lines[7].split(",")
        fields[-1] = cell
        lines[7] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        est_path = tmp_path / "est.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 2
        err = capsys.readouterr().err
        assert "'counts'" in err and "data row 7" in err
        assert not est_path.exists()

    def test_huge_counts_write_standard_json(self, tmp_path):
        # counts scaled by 2**996 are finite cells whose squares overflow
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        cfg = write_config(tmp_path, base_config(**{"noise.mode": "poisson"}), name="main.json")
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        estimates = []
        for series in (data, scaled_csv(data, HUGE)):
            est_path = tmp_path / f"est_{series.stem}.json"
            assert run("estimate", "--pipeline", "fourier", "--data", series,
                       "--calibration", calib, "--out", est_path) == 0
            estimates.append(strict_json(est_path))
        assert_same_estimate(estimates[1], estimates[0])

    @pytest.mark.parametrize("case", sorted(MALFORMED_SERIES))
    def test_malformed_series_exits_2(self, tmp_path, capsys, case):
        mutate, message = MALFORMED_SERIES[case]
        scans = self.make_scans(tmp_path)
        calib = tmp_path / "calib.json"
        assert run("calibrate", "--signal-scan", scans["sig"],
                   "--idler-scan", scans["idl"], "--out", calib) == 0
        cfg = write_config(tmp_path, base_config(), name="main.json")
        data = tmp_path / "main.csv"
        assert run("simulate", "--config", cfg, "--out", data) == 0
        data.write_text("\n".join(mutate(data.read_text().splitlines())) + "\n")
        est_path = tmp_path / "est.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "fourier", "--data", data,
                   "--calibration", calib, "--out", est_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert re.search(message, err)
        assert not est_path.exists()


def rotated_setting_config(setting, psi, **overrides):
    gamma2 = 3 * DIAG if setting == 1 else DIAG
    doc = base_config(**{
        "interferometer.wp2.axis_angle": gamma2,
        "interferometer.sample.t_perp_mag": 0.9,
        "interferometer.sample.t_par_mag": 0.3,
        "interferometer.sample.t_perp_phase": 0.4,
        "interferometer.sample.t_par_phase": 0.4,
        "schedule.xi_bar": 0.0,
        "schedule.delta_xi": 0.0,
        "schedule.rate_phi0": 2 * math.pi / 72,
        "schedule.rate_delta": 0.0,
        "schedule.n_samples": 72,
    })
    doc["interferometer"]["psi"] = psi
    for dotted, value in overrides.items():
        node = doc
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return doc


class TestRotatedPipelines:
    def simulate_settings(self, tmp_path, psi=1.8, **overrides):
        paths = []
        for setting in (1, 2):
            doc = rotated_setting_config(setting, psi, **overrides)
            cfg = write_config(tmp_path, doc, name=f"s{setting}_{psi}.json")
            out = tmp_path / f"s{setting}_{psi}.csv"
            assert run("simulate", "--config", cfg, "--out", out) == 0
            paths.append(out)
        return paths

    def test_rotated_pipeline_isotropic_phase(self, tmp_path):
        s1, s2 = self.simulate_settings(tmp_path)
        est_path = tmp_path / "rot.json"
        assert run("estimate", "--pipeline", "rotated", "--data", s1,
                   "--data", s2, "--assume", "isotropic_phase",
                   "--out", est_path) == 0
        est = json.loads(est_path.read_text())
        assert est["tbar"] == pytest.approx(0.6, abs=1e-6)
        assert est["dt"] == pytest.approx(0.6, abs=1e-6)
        assert est["dphi"] == pytest.approx(0.0, abs=1e-6)
        assert axis_distance(est["psi"], 1.8) < 1e-6

    def test_ellipse_pipeline(self, tmp_path):
        s1, s2 = self.simulate_settings(tmp_path)
        est_path = tmp_path / "ell.json"
        assert run("estimate", "--pipeline", "ellipse", "--data", s1,
                   "--data", s2, "--assume", "isotropic_phase",
                   "--out", est_path) == 0
        est = json.loads(est_path.read_text())
        assert axis_distance(est["psi"], 1.8) < 1e-6
        assert est["residuals"]["conic_rms"] < 1e-10

    @pytest.mark.parametrize("pipeline", ["rotated", "ellipse"])
    def test_downward_settings_give_the_upward_estimate(self, tmp_path, pipeline):
        # both settings scanned at -2 pi / 72 at V = 0.01: the ellipse is
        # traversed the other way round, and psi stays 1.8, not pi - 1.8
        estimates = []
        for sign in (1, -1):
            folder = tmp_path / f"rate{sign}"
            folder.mkdir()
            s1, s2 = self.simulate_settings(folder, **{
                "interferometer.gain1.V": 0.01, "interferometer.gain2.V": 0.01,
                "schedule.rate_phi0": sign * 2 * math.pi / 72})
            est_path = folder / "est.json"
            assert run("estimate", "--pipeline", pipeline, "--data", s1, "--data", s2,
                       "--out", est_path) == 0
            estimates.append(json.loads(est_path.read_text()))
        up, down = estimates
        assert axis_distance(up["psi"], 1.8) < 1e-6
        assert axis_distance(down["psi"], up["psi"]) < 1e-9
        for key in ("t_perp", "t_par", "tbar", "dt", "dphi"):
            assert down[key] == pytest.approx(up[key], abs=1e-9), key
        assert down["flags"] == up["flags"]

    @pytest.mark.parametrize("pipeline", ["rotated", "ellipse"])
    def test_huge_counts_write_standard_json(self, tmp_path, pipeline):
        # counts scaled by 2**996 are finite cells whose squares overflow
        paths = self.simulate_settings(tmp_path, **{"noise.mode": "poisson"})
        estimates = []
        for s1, s2 in (paths, [scaled_csv(path, HUGE) for path in paths]):
            est_path = tmp_path / f"est_{s1.stem}.json"
            assert run("estimate", "--pipeline", pipeline, "--data", s1, "--data", s2,
                       "--out", est_path) == 0
            estimates.append(strict_json(est_path))
        assert_same_estimate(estimates[1], estimates[0])

    def test_ellipse_pipeline_degenerate_line(self, tmp_path, capsys):
        # no fringe in setting 1: the joint record collapses onto a line
        s1, s2 = self.simulate_settings(
            tmp_path, psi=0.9,
            **{"interferometer.sample.t_perp_mag": 0.0,
               "interferometer.sample.t_par_mag": 0.0},
        )
        code = run("estimate", "--pipeline", "ellipse", "--data", s1,
                   "--data", s2, "--out", tmp_path / "e.json")
        assert code == 4
        assert "degenerate_conic" in capsys.readouterr().err

    def test_ellipse_pipeline_mismatched_phases_exits_3(self, tmp_path, capsys):
        # setting 2 scanned at twice setting 1's rate: its counts cannot be
        # paired with setting 1's by index
        paths = []
        for setting, rate in ((1, 2 * math.pi / 72), (2, 4 * math.pi / 72)):
            doc = rotated_setting_config(setting, 1.8, **{"schedule.rate_phi0": rate})
            cfg = write_config(tmp_path, doc, name=f"s{setting}.json")
            paths.append(tmp_path / f"s{setting}.csv")
            assert run("simulate", "--config", cfg, "--out", paths[-1]) == 0
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "ellipse", "--data", paths[0],
                   "--data", paths[1], "--out", est_path) == 3
        assert capsys.readouterr().err.startswith("error: phase_mismatch: ")
        assert not est_path.exists()

    def test_ellipse_pipeline_mixed_scan_exits_3(self, tmp_path, capsys):
        # both settings also ramp the differential phase, which the rotated
        # route's record rule refuses for the ellipse route as well
        s1, s2 = self.simulate_settings(
            tmp_path,
            **{"interferometer.gain1.V": 0.01, "interferometer.gain2.V": 0.01,
               "schedule.rate_delta": 0.7 * 2 * math.pi / 72},
        )
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", "ellipse", "--data", s1,
                   "--data", s2, "--out", est_path) == 3
        assert capsys.readouterr().err.startswith("error: mixed_scan: ")
        assert not est_path.exists()

    @pytest.mark.parametrize("pipeline", ["rotated", "ellipse"])
    @pytest.mark.parametrize("column, value", [("phi0", math.nan), ("delta_phase", math.nan),
                                               ("counts", math.nan), ("counts", math.inf)])
    def test_record_edited_after_its_check_exits_3(self, tmp_path, capfd, monkeypatch,
                                                   pipeline, column, value):
        s1, s2 = self.simulate_settings(tmp_path)
        edit_after_reading(monkeypatch, column, value)
        flag = {"phi0": "nonuniform_scan", "delta_phase": "mixed_scan",
                "counts": "nonfinite_counts"}[column]
        if pipeline == "ellipse":
            flag = "nonfinite_points" if column == "counts" else "phase_mismatch"
        est_path = tmp_path / "e.json"
        capfd.readouterr()
        assert run("estimate", "--pipeline", pipeline, "--data", s1, "--data", s2,
                   "--out", est_path) == 3
        assert capfd.readouterr().err.startswith(f"error: {flag}: ")
        assert not est_path.exists()

    @pytest.mark.parametrize("options, message", [
        (("--pipeline", "rotated", "--phibar", "2.5"),
         "--phibar is used only by --pipeline rotated --assume general"),
        (("--pipeline", "rotated", "--assume", "isotropic_attenuation", "--phibar", "2.5"),
         "--phibar is used only by --pipeline rotated --assume general"),
        (("--pipeline", "ellipse", "--phibar", "2.5"),
         "--phibar is used only by --pipeline rotated --assume general"),
        (("--pipeline", "fourier", "--calibration", "missing.json", "--phibar", "0.4"),
         "--phibar is used only by --pipeline rotated --assume general"),
        (("--pipeline", "rotated", "--assume", "general", "--phibar", "nan"),
         "--phibar: must be finite"),
        (("--pipeline", "rotated", "--assume", "general", "--phibar", "inf"),
         "--phibar: must be finite"),
        (("--pipeline", "rotated", "--calibration", "missing.json"),
         "--calibration is used only by --pipeline fourier"),
        (("--pipeline", "ellipse", "--calibration", "missing.json"),
         "--calibration is used only by --pipeline fourier"),
        *((("--pipeline", "fourier", "--calibration", "missing.json", "--assume", assume),
           "--assume is used only by --pipeline rotated or ellipse")
          for assume in ("isotropic_phase", "isotropic_attenuation", "general")),
        (("--pipeline", "fourier", "--calibration", "missing.json"),
         "fourier pipeline takes exactly one --data series"),
        (("--pipeline", "ellipse", "--assume", "general"),
         "ellipse pipeline supports only the structural assumptions"),
    ], ids=["phibar_rotated_phase", "phibar_rotated_attenuation", "phibar_ellipse",
            "phibar_fourier", "phibar_nan", "phibar_inf",
            "calibration_rotated", "calibration_ellipse",
            "assume_fourier_phase", "assume_fourier_attenuation", "assume_fourier_general",
            "fourier_two_series", "ellipse_general"])
    def test_unused_or_bad_option_exits_2(self, tmp_path, capsys, options, message):
        s1, s2 = self.simulate_settings(tmp_path)
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        code = run("estimate", "--data", s1, "--data", s2, *options, "--out", est_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not est_path.exists()

    @pytest.mark.parametrize("pipeline", ["rotated", "ellipse"])
    def test_one_series_exits_2(self, tmp_path, capsys, pipeline):
        s1, _ = self.simulate_settings(tmp_path)
        est_path = tmp_path / "e.json"
        capsys.readouterr()
        assert run("estimate", "--pipeline", pipeline, "--data", s1, "--out", est_path) == 2
        assert capsys.readouterr().err == (
            f"error: {pipeline} pipeline takes two --data series (settings 1, 2)\n")
        assert not est_path.exists()

    def test_general_mode_without_phibar_exits_3(self, tmp_path, capsys):
        s1, s2 = self.simulate_settings(tmp_path)
        capsys.readouterr()
        assert run("estimate", "--pipeline", "rotated", "--data", s1, "--data", s2,
                   "--assume", "general", "--out", tmp_path / "e.json") == 3
        assert capsys.readouterr().err.startswith("error: phibar_required: ")

    def test_opaque_sample_exits_4(self, tmp_path, capsys):
        # every fringe amplitude is rounding noise: no mean transmission
        s1, s2 = self.simulate_settings(
            tmp_path,
            **{"interferometer.gain1.V": 0.01, "interferometer.gain2.V": 0.01,
               "interferometer.sample.t_perp_mag": 0.0,
               "interferometer.sample.t_par_mag": 0.0},
        )
        capsys.readouterr()
        assert run("estimate", "--pipeline", "rotated", "--data", s1, "--data", s2,
                   "--out", tmp_path / "e.json") == 4
        assert capsys.readouterr().err.startswith(
            "error: unidentifiable: tbar_unidentifiable: ")


class TestCsvRecordsFitLikeTheirSource:
    """``nlipol calibrate`` and ``estimate`` on the CSVs ``simulate`` writes
    give, value for value, what the same pipeline gives in process on the
    simulated records: ``from_csv``'s strided column views fit to the bits
    of the contiguous columns they were written from."""

    N_PERIODS = 12  # 400 steps per period: 4800-row records, two CSV write blocks

    def simulated(self, tmp_path, name, doc):
        """Write ``doc``, run ``nlipol simulate`` on it and simulate it in process."""
        config = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / f"{name}.csv"
        assert run("simulate", "--config", config, "--out", out) == 0
        cfg, schedule, noise, regime = cli.load_experiment(config)
        series = nli_polarimetry.simulate_scan(cfg, schedule, noise, regime=regime)
        assert len(series) > nli_polarimetry.scan._CSV_BLOCK
        return out, series

    def test_fourier_pipeline(self, tmp_path):
        n = 400 * self.N_PERIODS
        beat = 4.0 * math.pi * self.N_PERIODS / n
        lossless = {f"interferometer.sample.{key}": value for key, value in (
            ("t_perp_mag", 1.0), ("t_par_mag", 1.0), ("t_perp_phase", 0.0),
            ("t_par_phase", 0.0))}
        common = {"schedule.n_samples": n, "noise.mode": "poisson"}
        docs = {
            "sig": base_config(**lossless, **common, **{
                "schedule.rate_phi0": 0.5 * beat, "schedule.rate_delta": 0.0}),
            "idl": base_config(**lossless, **common, **{
                "schedule.rate_phi0": 0.0, "schedule.rate_delta": beat, "noise.seed": 6}),
            "meas": base_config(**common, **{
                "schedule.rate_phi0": beat, "schedule.rate_delta": beat, "noise.seed": 7}),
        }
        (sig, sig_series), (idl, idl_series), (meas, meas_series) = (
            self.simulated(tmp_path, name, doc) for name, doc in docs.items())
        calib_path, est_path = tmp_path / "calib.json", tmp_path / "est.json"
        assert run("calibrate", "--signal-scan", sig, "--idler-scan", idl,
                   "--out", calib_path) == 0
        assert run("estimate", "--pipeline", "fourier", "--data", meas,
                   "--calibration", calib_path, "--out", est_path) == 0

        calib = nli_polarimetry.calibrate(sig_series, idl_series)
        assert json.loads(calib_path.read_text()) == {
            "xi_bar": calib.signal_offset, "delta_xi": calib.diff_offset,
            "flux_scale": calib.flux_scale, "diagnostics": calib.diagnostics}
        decomp = nli_polarimetry.harmonic_regress(
            meas_series, float(np.median(np.diff(meas_series.phi0))))
        est = nli_polarimetry.extract_sample_fourier(
            decomp, 2.0 * decomp.dc, calib.signal_offset, calib.diff_offset)
        assert json.loads(est_path.read_text()) == json.loads(json.dumps(est.to_json_dict()))

    @pytest.mark.parametrize("pipeline", ["rotated", "ellipse"])
    def test_two_setting_pipelines(self, tmp_path, pipeline):
        n = 72 * 5 * self.N_PERIODS
        (s1, series1), (s2, series2) = (
            self.simulated(tmp_path, f"s{setting}", rotated_setting_config(setting, 1.8, **{
                "schedule.n_samples": n, "noise.mode": "poisson", "noise.seed": setting}))
            for setting in (1, 2))
        est_path = tmp_path / "est.json"
        assert run("estimate", "--pipeline", pipeline, "--data", s1, "--data", s2,
                   "--out", est_path) == 0
        estimator = {"rotated": nli_polarimetry.estimate_rotated,
                     "ellipse": nli_polarimetry.estimate_ellipse}[pipeline]
        est = estimator(series1, series2)
        assert json.loads(est_path.read_text()) == json.loads(json.dumps(est.to_json_dict()))


class TestFigures:
    def test_fig3b_grid(self, tmp_path):
        assert run("figures", "--id", "fig3b", "--out-dir", tmp_path) == 0
        rows = (tmp_path / "fig3b.csv").read_text().strip().splitlines()
        assert rows[0] == "mean_phase,diff_phase,n"
        assert len(rows) == 1 + 201 * 201
        data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        # every grid point obeys the beating formula with the 0.9/0.2 axes
        m, d, n = data[:, 0], data[:, 1], data[:, 2]
        want = 2.0 * (1 + 0.35 * np.cos(0.5 * d) * np.cos(m)
                      - 0.55 * np.sin(0.5 * d) * np.sin(m))
        np.testing.assert_allclose(n, want, atol=1e-12)

    def test_fig4a_lowgain_row_matches_fringe(self, tmp_path):
        assert run("figures", "--id", "fig4a", "--out-dir", tmp_path) == 0
        rows = (tmp_path / "fig4a.csv").read_text().strip().splitlines()
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        tiny = data[data[:, 0] == 1e-6]
        assert len(tiny) == 401
        # at vanishing gain the fringe reduces to the low-gain pattern
        phases = tiny[:, 1]
        np.testing.assert_allclose(
            tiny[:, 2], 2e-6 * (1.0 - 0.85 * np.sin(phases)), rtol=1e-4
        )

    def test_fig5b_files(self, tmp_path):
        assert run("figures", "--id", "fig5b", "--out-dir", tmp_path) == 0
        for tag in ("v0p5", "v1", "v2"):
            assert (tmp_path / f"fig5b_{tag}.csv").exists()

    @pytest.mark.parametrize("fig_id", ["fig4a", "fig4b"])
    def test_fig4_rows_match_the_all_orders_formula(self, tmp_path, fig_id):
        # every gain's row, to the exact model's oracle bound
        assert run("figures", "--id", fig_id, "--out-dir", tmp_path) == 0
        data = np.loadtxt(tmp_path / f"{fig_id}.csv", delimiter=",", skiprows=1)
        gains = (1e-6, 0.5, 1.0, 2.0)
        phase = np.linspace(0.0, 2.0 * math.pi, 401)
        scan = (phase, math.pi) if fig_id == "fig4a" else (math.pi, phase)
        assert data[:, 0].tobytes() == np.repeat(gains, len(phase)).tobytes()
        for v, rows in zip(gains, np.split(data, len(gains))):
            assert rows[:, 1].tobytes() == phase.tobytes()
            want = n_highgain(figure_parameters(v, 1.0), *scan)
            assert np.all(np.abs(rows[:, 2] - want) <= oracle_tol(figure_config(v, 1.0)))

    def test_fig5b_matches_inline_oracle_and_n_highgain(self, tmp_path):
        assert run("figures", "--id", "fig5b", "--out-dir", tmp_path) == 0
        diff_phase = np.linspace(0.0, 2.0 * math.pi, 201)
        for v, tag in ((0.5, "v0p5"), (1.0, "v1"), (2.0, "v2")):
            grid = np.loadtxt(tmp_path / f"fig5b_{tag}.csv", delimiter=",", skiprows=1)
            assert grid[:, 0].tobytes() == diff_phase.tobytes()
            # oracles: the paper's blocked-arm formula, and the all-orders
            # one at signal_mag 0, each to the exact model's oracle bound
            half = 0.5 * (diff_phase - math.pi)
            inline = v + v**2 * (0.25 * 0.1**2 * np.cos(half) ** 2
                                 + 0.85**2 * np.sin(half) ** 2)
            formula = n_highgain(figure_parameters(v, 0.0), 0.0, diff_phase - math.pi)
            tol = oracle_tol(figure_config(v, 0.0))
            assert np.all(np.abs(grid[:, 1] - inline) <= tol)
            assert np.all(np.abs(grid[:, 1] - formula) <= tol)

    def test_fig6_files(self, tmp_path):
        assert run("figures", "--id", "fig6", "--out-dir", tmp_path) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "fig6_ellipse_psi1p8.csv",
            "fig6_ellipse_psi3p5.csv",
            "fig6a_signals.csv",
            "fig6b_signals.csv",
        ]
        # every curve is the amplitude-relation model 2V(1 + b sin x + c cos x)
        # at unit gain and zero mean sample phase
        def model(setting, row, psi, phi0):
            tbar, dt, dphi = (0.6, 0.6, 0.0) if row == "a" else (0.6, 0.0, 0.5 * math.pi)
            b1, c1, b2, c2 = amplitude_relations(tbar, dt, dphi)
            if setting == 1:
                return 2.0 * (1.0 + b1 * np.sin(phi0) + c1 * np.cos(phi0))
            x = phi0 - 2.0 * psi
            return 2.0 * (1.0 + b2 * np.sin(x) + c2 * np.cos(x))

        def load(name):
            return np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)

        for row in ("a", "b"):
            grid = load(f"fig6{row}_signals.csv")
            for setting in (1, 2):
                np.testing.assert_allclose(grid[:, setting],
                                           model(setting, row, 1.8, grid[:, 0]), atol=1e-12)
        for psi, tag in ((1.8, "psi1p8"), (3.5, "psi3p5")):
            grid = load(f"fig6_ellipse_{tag}.csv")
            columns = [(row, setting) for row in "ab" for setting in (1, 2)]
            for col, (row, setting) in enumerate(columns, start=1):
                np.testing.assert_allclose(grid[:, col],
                                           model(setting, row, psi, grid[:, 0]), atol=1e-12)

    def test_unknown_id_rejected(self, tmp_path):
        assert run("figures", "--id", "fig9", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize("fig_id", cli.FIGURE_IDS)
    def test_files_match_reference_writer(self, tmp_path, monkeypatch, fig_id):
        calls = []

        def spy(path, header, columns):
            calls.append((Path(path), header, columns))
            write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", spy)
        assert run("figures", "--id", fig_id, "--out-dir", tmp_path / "new") == 0
        assert calls
        for path, header, columns in calls:
            ref = tmp_path / f"ref_{path.name}"
            reference_grid_csv(ref, header, columns)
            assert path.read_bytes() == ref.read_bytes()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_grid_writer_matches_reference(self, tmp_path, data):
        n_cols = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 30))
        cells = st.one_of(
            st.floats(), st.sampled_from([-0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308])
        )
        columns = [np.array(data.draw(st.lists(cells, min_size=n, max_size=n)))
                   for _ in range(n_cols)]
        header = [f"c{j}" for j in range(n_cols)]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_csv(new, header, columns)
        reference_grid_csv(ref, header, columns)
        assert new.read_bytes() == ref.read_bytes()


class TestMedian:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=1, max_size=40))
    def test_matches_numpy_median_bitwise(self, values):
        values = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # both overflow alike
            assert cli._median(values).hex() == float(np.median(values)).hex()

    @pytest.mark.parametrize("n", [1, 2, 29, 30, 399, 400])
    def test_matches_numpy_median_on_random_arrays(self, n):
        # phase steps of a noisy ramp, and draws with both signed zeros,
        # whose middle -0.0 np.median returns as +0.0
        rng = np.random.default_rng(n)
        for _ in range(200):
            for values in (rng.normal(0.1, rng.uniform(0.0, 1e-6), n),
                           rng.choice([-0.0, 0.0, -1.0, 1.0], n)):
                assert cli._median(values).hex() == float(np.median(values)).hex()


class TestModuleEntryPoint:
    def run_module(self, *argv, cwd):
        src = Path(nli_polarimetry.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "nli_polarimetry.cli", *map(str, argv)],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_simulate_writes_series(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "series.csv"
        proc = self.run_module("simulate", "--config", cfg, "--out", out, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n_samples"] == 400
        assert len(TimeSeries.from_csv(out)) == 400

    def test_bad_argument_exits_2(self, tmp_path):
        proc = self.run_module("simulate", "--no-such-flag", cwd=tmp_path)
        assert proc.returncode == 2


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        doc = base_config(**{"noise.mode": "poisson"})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_draw(self, tmp_path):
        doc = base_config(**{"noise.mode": "poisson"})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2, "--seed", 99) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_figures_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "f1", tmp_path / "f2"
        assert run("figures", "--id", "fig6", "--out-dir", d1) == 0
        assert run("figures", "--id", "fig6", "--out-dir", d2) == 0
        for p1 in sorted(d1.iterdir()):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()
