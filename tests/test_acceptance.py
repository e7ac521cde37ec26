"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import cmath
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    analyzer_config,
    axis_distance,
    blocked_arm,
    highgain_visibility,
    n_highgain,
    random_config,
    two_setting_points,
)
from nli_polarimetry import (
    CrystalGain,
    InterferometerConfig,
    NoiseModel,
    SampleAxes,
    ScanSchedule,
    SignalControl,
    beating_parameters,
    calibrate,
    commutator_defect,
    detected_mode,
    TimeSeries,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    fourier_protocol_schedule,
    harmonic_regress,
    n_lowgain,
    photon_number_exact,
    quarter_wave,
    simulate_scan,
)
from nli_polarimetry.angles import wrap_half_pi, wrap_pi
from nli_polarimetry.cli import main as cli_main

DIAG = math.pi / 4


def qwp_pair(t_perp, t_par, v, ts=1.0 + 0j):
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(ts),
        waveplate1=quarter_wave(DIAG),
        waveplate2=quarter_wave(3 * DIAG),
        sample=SampleAxes(t_perp, t_par),
    )


def test_acceptance_01_commutator_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng, v_low=0.0, v_high=5.0, rotation=True)
        worst = max(worst, abs(commutator_defect(detected_mode(cfg))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - commutator defect < 1e-12 over 1000 random "
          f"configs (worst {worst:.2e}, {elapsed:.2f} s)")


def test_acceptance_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_rel = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        cfg = random_config(rng, equal_gains=True, v_low=1e-6, v_high=5.0,
                            rotation=False)
        p = beating_parameters(cfg)
        n_exact = photon_number_exact(cfg)
        worst_rel = max(
            worst_rel, abs(n_exact - n_highgain(p)) / max(n_exact, 1e-9)
        )
        v = p.mean_photons
        combined = n_lowgain(p) * (1.0 + v) + n_highgain(blocked_arm(p)) - v * (v + 1.0)
        worst_identity = max(
            worst_identity, abs(n_exact - combined) / max(n_exact, 1.0)
        )
    elapsed = time.perf_counter() - start
    assert worst_rel < 1e-10
    assert worst_identity < 1e-10
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2: PASS - exact composer vs closed form rel dev "
          f"{worst_rel:.2e}, gain-decomposition identity {worst_identity:.2e} "
          f"({elapsed:.2f} s)")


def test_acceptance_03_fringe_visibilities():
    def visibility(t_par_mag, diff_total):
        p = beating_parameters(qwp_pair(0.9, t_par_mag, v=0.5))
        # scan the total mean phase along the fixed differential-phase line
        grid = np.linspace(0.0, 2.0 * math.pi, 4 * 64 + 1)
        shifted = [
            dataclasses.replace(
                p,
                mean_sample_phase=x - p.control_phase - p.setup_phase_offset,
                retardance=diff_total - p.diff_setup_phase,
            )
            for x in grid
        ]
        values = np.array([n_lowgain(q) for q in shifted])
        return (values.max() - values.min()) / (values.max() + values.min())

    vis_equal = visibility(0.9, math.pi)
    assert vis_equal == pytest.approx(0.9, abs=1e-9)
    vis_mean = visibility(0.2, math.pi)
    assert vis_mean == pytest.approx(0.55, abs=1e-9)
    vis_diff = visibility(0.2, 0.0)
    assert vis_diff == pytest.approx(0.35, abs=1e-9)
    print(f"\nACCEPTANCE 3: PASS - fringe visibilities {vis_equal:.10f} / "
          f"{vis_mean:.10f} / {vis_diff:.10f} match 0.9 / 0.55 / 0.35")


def test_acceptance_04_quantum_erasure_null():
    values = []
    for phi0 in np.linspace(0.0, 2.0 * math.pi, 128):
        cfg = InterferometerConfig(
            crystal1=CrystalGain(1.0),
            crystal2=CrystalGain(1.0),
            signal=SignalControl(cmath.exp(1j * phi0)),
            waveplate1=quarter_wave(DIAG),
            waveplate2=quarter_wave(DIAG),
            sample=SampleAxes(1.0 + 0.0j, 1.0 + 0.0j),
        )
        values.append(photon_number_exact(cfg))
    values = np.array(values)
    ripple = np.ptp(values) / np.mean(values)
    assert ripple < 1e-12
    print(f"\nACCEPTANCE 4: PASS - erasure setting flat in the control phase "
          f"(relative ripple {ripple:.2e})")


def test_acceptance_05_highgain_visibility_bound():
    def simulated_visibility(cfg, p):
        # the exact record over the total mean phase at total differential
        # phase pi, on a grid that holds both extrema (pi/2 and 3pi/2)
        grid = np.linspace(0.0, 2.0 * math.pi, 4 * 64 + 1)
        values = photon_number_exact(cfg, grid - p.mean_total_phase,
                                     math.pi - 2.0 * p.half_diff_phase)
        return (values.max() - values.min()) / (values.max() + values.min())

    worst_gap = 0.0
    for v in (0.0, 0.1, 1.0, 3.0, 10.0):
        for tbar in (0.2, 0.85):
            for ts in (0.5, 1.0):
                p = beating_parameters(qwp_pair(tbar, tbar, v=v, ts=ts))
                assert p.mean_trans == pytest.approx(tbar, abs=1e-12)
                hg = highgain_visibility(p)
                # the exact record holds no photons at V = 0, so the
                # simulator's zero-gain visibility is its limit, at V = 1e-14
                sim = simulated_visibility(qwp_pair(tbar, tbar, v=v or 1e-14, ts=ts), p)
                assert hg >= p.mean_visibility - 1e-12
                assert sim >= p.mean_visibility - 1e-12
                assert abs(sim - hg) < 1e-12
                if v == 0.0:
                    assert abs(hg - p.mean_visibility) < 1e-12
                    assert abs(sim - p.mean_visibility) < 1e-12
                worst_gap = min(worst_gap, hg - p.mean_visibility, sim - p.mean_visibility)
    assert worst_gap > -1e-12
    print("\nACCEPTANCE 5: PASS - high-gain visibility >= low-gain visibility "
          "on the full grid, equality at zero gain, for the closed form and "
          "the simulated exact record")


def test_acceptance_06_blocked_arm_signal():
    worst = 0.0
    for v in (1.0, 2.0):
        for dphi in np.linspace(0.0, 2.0 * math.pi, 65):
            cfg = qwp_pair(
                0.9 * cmath.exp(0.5j * dphi), 0.8 * cmath.exp(-0.5j * dphi),
                v=v, ts=0.0,
            )
            exact = photon_number_exact(cfg)
            formula = n_highgain(beating_parameters(cfg))
            worst = max(worst, abs(exact - formula))
    assert worst < 1e-12

    def fringe_ptp(v):
        values = [
            photon_number_exact(
                qwp_pair(0.9 * cmath.exp(0.5j * x), 0.8 * cmath.exp(-0.5j * x),
                         v=v, ts=0.0)
            )
            for x in np.linspace(0.0, 2.0 * math.pi, 257)
        ]
        return np.ptp(values)

    ratio = fringe_ptp(2.0) / fringe_ptp(1.0)
    assert ratio == pytest.approx(4.0, abs=1e-9)
    print(f"\nACCEPTANCE 6: PASS - blocked signal matches the closed form "
          f"(worst {worst:.2e}); fringe ratio V=2 vs V=1 = {ratio:.12f}")


def _fourier_pipeline(t_perp_mag, t_par_mag, phibar, dphi, xi_bar, delta_xi,
                      mode, seed, kappa=1.0e4):
    v = 0.5
    sample = SampleAxes(
        t_perp_mag * cmath.exp(1j * (phibar + 0.5 * dphi)),
        t_par_mag * cmath.exp(1j * (phibar - 0.5 * dphi)),
    )
    empty = qwp_pair(1.0, 1.0, v=v)
    loaded = dataclasses.replace(empty, sample=sample)

    sig_scan = simulate_scan(
        empty,
        ScanSchedule(xi_bar, delta_xi, 2.0 * math.pi / 100, 0.0, 400),
        NoiseModel(kappa, seed, mode),
        regime="lowgain",
    )
    idl_scan = simulate_scan(
        empty,
        ScanSchedule(xi_bar, delta_xi, 0.0, 4.0 * math.pi / 160, 400),
        NoiseModel(kappa, seed + 1000, mode),
        regime="lowgain",
    )
    calib = calibrate(sig_scan, idl_scan)

    sched = fourier_protocol_schedule(4, 100, xi_bar, delta_xi)
    series = simulate_scan(loaded, sched, NoiseModel(kappa, seed + 2000, mode),
                           regime="lowgain")
    decomp = harmonic_regress(series, sched.signal_rate)
    return extract_sample_fourier(
        decomp, 2.0 * decomp.dc, calib.signal_offset, calib.diff_offset
    )


def test_acceptance_07_fourier_protocol_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    xi_bar = float(rng.uniform(-1.2, 1.2))
    delta_xi = float(rng.uniform(-2.4, 2.4))
    est = _fourier_pipeline(0.9, 0.2, 0.4, 0.9, xi_bar, delta_xi,
                            "noiseless", seed=0)
    assert est.t_perp == pytest.approx(0.9, abs=1e-9)
    assert est.t_par == pytest.approx(0.2, abs=1e-9)
    assert est.phibar == pytest.approx(0.4, abs=1e-9)
    assert est.dphi == pytest.approx(0.9, abs=1e-9)

    good = 0
    for seed in range(100):
        seed_rng = np.random.default_rng(9000 + seed)
        xb = float(seed_rng.uniform(-1.2, 1.2))
        dx = float(seed_rng.uniform(-2.4, 2.4))
        est = _fourier_pipeline(0.9, 0.2, 0.4, 0.9, xb, dx, "poisson", seed=seed)
        errs = (
            abs(est.t_perp - 0.9),
            abs(est.t_par - 0.2),
            abs(float(wrap_half_pi(est.phibar - 0.4))),
            abs(float(wrap_pi(est.dphi - 0.9))),
        )
        if max(errs[:2]) < 0.02 and max(errs[2:]) < 0.02:
            good += 1
    elapsed = time.perf_counter() - start
    assert good >= 95
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 7: PASS - noiseless round trip within 1e-9; "
          f"{good}/100 noisy seeds within 0.02 ({elapsed:.1f} s)")


def _setting_series(tbar, dt, phibar, dphi, psi, setting):
    cfg = analyzer_config(tbar, dt, phibar, dphi, psi, setting)
    sched = ScanSchedule(signal_rate=2.0 * math.pi / 72, n_samples=72)
    return simulate_scan(cfg, sched, NoiseModel(1.0e4), regime="lowgain")


def test_acceptance_08_rotated_sample_protocol():
    # isotropically phase-retarding sample: tbar 0.6, dt 0.6, dphi 0
    sample = (0.6, 0.6, 0.4, 0.0)
    est_a = estimate_rotated(
        _setting_series(*sample, 1.8, 1), _setting_series(*sample, 1.8, 2),
        assume="isotropic_phase",
    )
    assert est_a.tbar == pytest.approx(0.6, abs=1e-6)
    assert est_a.dt == pytest.approx(0.6, abs=1e-6)
    assert est_a.dphi == pytest.approx(0.0, abs=1e-6)
    assert est_a.phibar == pytest.approx(0.4, abs=1e-6)
    assert axis_distance(est_a.psi, 1.8) < 1e-6

    # purely birefringent sample: dt 0, dphi pi/2
    sample = (0.6, 0.0, 0.4, 0.5 * math.pi)
    est_b = estimate_rotated(
        _setting_series(*sample, 1.8, 1), _setting_series(*sample, 1.8, 2),
        assume="isotropic_attenuation",
    )
    assert est_b.tbar == pytest.approx(0.6, abs=1e-6)
    assert est_b.dt == pytest.approx(0.0, abs=1e-6)
    assert est_b.dphi == pytest.approx(0.5 * math.pi, abs=1e-6)
    assert axis_distance(est_b.psi, 1.8) < 1e-6

    # the crossed analyzer pair cancels the rotation exactly, at any gain
    worst = 0.0
    for phi0 in np.linspace(0.0, 2.0 * math.pi, 64):
        pair = [
            photon_number_exact(analyzer_config(0.6, 0.6, 0.4, 0.0, psi, 1, v=1.0), phi0)
            for psi in (1.8, 3.5)
        ]
        worst = max(worst, abs(pair[0] - pair[1]))
    assert worst < 1e-12
    print(f"\nACCEPTANCE 8: PASS - both sample classes recovered within 1e-6; "
          f"setting-1 rotation cancellation {worst:.2e}")


def test_acceptance_09_ellipse_pipeline():
    phi0 = np.linspace(0.0, 2.0 * math.pi, 73, endpoint=False)

    def estimate(psi, row, assume):
        # (tbar, dt, phibar, dphi) of a pure diattenuator and a pure retarder
        sample = (0.6, 0.6, 0.4, 0.0) if row == "a" else (0.6, 0.0, 0.4, 0.5 * math.pi)
        points = two_setting_points(*sample, psi, phi0)
        s1, s2 = (
            TimeSeries(step=np.arange(len(phi0)), phi0=phi0, delta_phase=np.zeros_like(phi0),
                       expected_n=counts, counts=counts)
            for counts in points.T
        )
        return estimate_ellipse(s1, s2, assume=assume)

    ests = {}
    for psi in (1.8, 3.5):
        est = estimate(psi, "a", "isotropic_phase")
        assert axis_distance(est.psi, psi) < 1e-3
        assert est.residuals["conic_rms"] < 1e-10
        ests[psi] = est
        est_b = estimate(psi, "b", "isotropic_attenuation")
        assert axis_distance(est_b.psi, psi) < 1e-3
        assert est_b.residuals["conic_rms"] < 1e-10
    separation = axis_distance(ests[1.8].psi, ests[3.5].psi)
    assert separation > 0.1
    print(f"\nACCEPTANCE 9: PASS - ellipse fits recover the rotation within "
          f"1e-3 (fits for 1.8 vs 3.5 rad separated by {separation:.3f})")


def test_acceptance_10_determinism(tmp_path):
    config = {
        "interferometer": {
            "gain1": {"V": 0.5},
            "gain2": {"V": 0.5},
            "signal": {"ts_mag": 1.0},
            "wp1": {"axis_angle": DIAG, "retardance": math.pi / 2},
            "wp2": {"axis_angle": 3 * DIAG, "retardance": math.pi / 2},
            "sample": {"t_perp_mag": 0.9, "t_par_mag": 0.2,
                       "t_perp_phase": 0.85, "t_par_phase": -0.05},
        },
        "schedule": {"xi_bar": 0.1, "delta_xi": 0.2,
                     "rate_phi0": 16 * math.pi / 400,
                     "rate_delta": 16 * math.pi / 400, "n_samples": 400},
        "noise": {"counts_per_unit_N": 1.0e4, "seed": 7, "mode": "poisson"},
        "regime": "lowgain",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for run_id in ("r1", "r2"):
        series = tmp_path / f"{run_id}.csv"
        est = tmp_path / f"{run_id}.json"
        figdir = tmp_path / f"{run_id}_figs"
        assert cli_main(["simulate", "--config", str(cfg_path), "--out",
                         str(series)]) == 0
        calib = tmp_path / f"{run_id}_calib.json"
        calib.write_text(json.dumps({"xi_bar": 0.1, "delta_xi": 0.2}))
        assert cli_main(["estimate", "--pipeline", "fourier", "--data",
                         str(series), "--calibration", str(calib), "--out",
                         str(est)]) == 0
        assert cli_main(["figures", "--id", "fig3b", "--out-dir",
                         str(figdir)]) == 0
        outputs.append(
            series.read_bytes() + est.read_bytes()
            + (figdir / "fig3b.csv").read_bytes()
        )
    assert outputs[0] == outputs[1]
    print("\nACCEPTANCE 10: PASS - identical config and seed give "
          "byte-identical CSV/JSON outputs")
