import cmath
import dataclasses
import math
import sys

import numpy as np
import pytest

from nli_polarimetry import (
    BeatingParameters,
    CrystalGain,
    InterferometerConfig,
    SampleAxes,
    SignalControl,
    TimeSeries,
    beating_parameters,
    detected_mode,
    n_lowgain,
    quarter_wave,
    vacuum_photon_number,
    waveplate,
)


def random_config(rng: np.random.Generator, *, equal_gains: bool = False,
                  v_low: float = 0.0, v_high: float = 5.0,
                  rotation: bool = True) -> InterferometerConfig:
    """Draw a random but valid interferometer configuration."""
    v1 = rng.uniform(v_low, v_high)
    v2 = v1 if equal_gains else rng.uniform(v_low, v_high)
    two_pi = 2.0 * math.pi
    sample = SampleAxes(
        t_perp=rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, two_pi)),
        t_par=rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, two_pi)),
    )
    return InterferometerConfig(
        crystal1=CrystalGain(v1, rng.uniform(0.0, two_pi)),
        crystal2=CrystalGain(v2, rng.uniform(0.0, two_pi)),
        signal=SignalControl(
            rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, two_pi))
        ),
        waveplate1=waveplate(rng.uniform(0.0, two_pi), rng.uniform(0.0, two_pi)),
        waveplate2=waveplate(rng.uniform(0.0, two_pi), rng.uniform(0.0, two_pi)),
        sample=sample,
        rotation=rng.uniform(0.0, two_pi) if rotation else 0.0,
    )


def blocked_arm(p: BeatingParameters) -> BeatingParameters:
    """Beating parameters of the same configuration with the signal arm
    blocked, as ``beating_parameters`` reduces it: ``signal_mag`` 0 and no
    control phase."""
    return dataclasses.replace(p, signal_mag=0.0, control_phase=0.0)


def n_highgain(p: BeatingParameters, signal_phase=0.0, diff_phase=0.0):
    """The paper's detected photon number to all orders in the gain (equal
    pumping), with ``n_lowgain``'s scan phases: the low-gain record times
    1 + V, less V^2, plus V^2 times the interference of the idler's two
    polarization paths.  With the signal arm blocked (``signal_mag`` 0)
    that cross term is the only fringe.  At equal gains it is
    ``photon_number_exact`` to within ``oracle_tol``."""
    v = p.mean_photons
    half = p.half_diff_phase + 0.5 * diff_phase
    cross_pol = (0.25 * p.diff_trans**2 * np.cos(half) ** 2
                 + p.mean_trans**2 * np.sin(half) ** 2)
    return n_lowgain(p, signal_phase, diff_phase) * (1.0 + v) - v**2 + v**2 * cross_pol


def highgain_visibility(p: BeatingParameters) -> float:
    """The paper's fringe visibility of a mean-phase scan at differential
    phase pi, to all orders in the gain: the low-gain mean visibility at
    zero gain, and never below it."""
    v = p.mean_photons
    s = p.signal_mag
    return 2.0 * s * (1.0 + v) * p.mean_trans / (
        1.0 + s**2 * (1.0 + v) + p.mean_trans**2 * v
    )


def oracle_tol(cfg):
    """How far ``photon_number_exact`` may lie from the composer's photon
    number: 64 eps times its phase average c0.  Below the smallest normal
    double rounding is absolute, one subnormal step, so a subnormal c0
    counts as the smallest normal (64 subnormal steps).

    c0 is the composer's mean over four signal phases a quarter turn apart
    and two differential phases half a turn apart: the grid cancels each
    fringe, whose phases turn at the (signal, differential) rates (1, 1/2),
    (1, -1/2) and (0, 1)."""
    sp = np.arange(4.0)[:, None] * (0.5 * math.pi)
    dp = np.array([[0.0, math.pi]])
    c0 = float(np.mean(vacuum_photon_number(detected_mode(cfg, sp, dp))))
    return 64 * sys.float_info.epsilon * max(c0, sys.float_info.min)


# counts this large are finite and fit in a CSV, but their squares overflow
HUGE = 2.0**996


def previous_pow2_scale(values):
    """``scan._pow2_scale`` before its reduction became ``np.abs(v).max()``:
    the reference of the fits' bit tests."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values))))[1] - 1)


def previous_three_path_decomposition(cfg: InterferometerConfig):
    """The paper's three paths, ``path_amplitudes(cfg)[:3]``, in the form
    they had before the Python ``complex`` reduction: numpy-scalar products.
    The reference of the paths' bit tests; it warns where a product
    overflows."""
    u1, v1 = cfg.crystal1.u, cfg.crystal1.v
    u2, v2 = cfg.crystal2.u, cfg.crystal2.v
    ts = complex(cfg.signal.transmission)
    tau1, rho1, tau2, rho2 = cfg.effective_waveplates()
    signal_path = u2 * ts * v1
    perp_path = v2 * np.conj(tau2 * cfg.sample.t_perp * tau1) * u1
    par_path = -v2 * np.conj(rho2 * cfg.sample.t_par) * rho1 * u1
    return complex(signal_path), complex(perp_path), complex(par_path)


def previous_fringes(cfg: InterferometerConfig) -> tuple[float, ...]:
    """``InterferometerConfig._fringes`` before it reduced
    ``path_amplitudes``: the three paths of
    ``previous_three_path_decomposition`` (under ``np.errstate``, so an
    overflow shows as an infinite c0 only), the two orthogonal polarization
    paths and the loss constant recomputed, and nothing kept."""
    def square(z):
        return z.real * z.real + z.imag * z.imag

    def fringe(z):
        return 2.0 * math.hypot(z.real, z.imag), cmath.phase(z)

    with np.errstate(all="ignore"):
        s, p, q = previous_three_path_decomposition(cfg)
        tau1, rho1, tau2, rho2 = (complex(c) for c in cfg.effective_waveplates())
    v2, sample = complex(cfg.crystal2.v), cfg.sample
    p_pol = v2 * (tau2 * complex(sample.t_perp)).conjugate() * rho1.conjugate()
    q_pol = v2 * (rho2 * complex(sample.t_par)).conjugate() * tau1
    loss = square(v2) * (square(tau2) * sample.r_perp * sample.r_perp
                         + square(rho2) * sample.r_par * sample.r_par)
    c0 = square(s) + square(p) + square(q) + square(p_pol) + square(q_pol) + loss
    return (c0, *fringe(s * p.conjugate()), *fringe(s * q.conjugate()),
            *fringe(p * q.conjugate() + p_pol * q_pol.conjugate()))


def scaled_counts(series: TimeSeries, factor: float) -> TimeSeries:
    """The record with its counts and expected photon numbers times ``factor``."""
    return dataclasses.replace(series, expected_n=factor * series.expected_n,
                               counts=factor * series.counts)


def with_scan_phases(cfg: InterferometerConfig, signal_phase: float,
                     diff_phase: float) -> InterferometerConfig:
    """Reference for ``detected_mode``'s scan phases, one configuration per
    step: ``signal_phase`` on the control beam splitter and an antisymmetric
    ``diff_phase`` between the sample's axes (mean idler phase unchanged)."""
    new_signal = SignalControl(cfg.signal.transmission * cmath.exp(1j * signal_phase))
    new_sample = SampleAxes(
        t_perp=cfg.sample.t_perp * cmath.exp(0.5j * diff_phase),
        t_par=cfg.sample.t_par * cmath.exp(-0.5j * diff_phase),
    )
    return dataclasses.replace(cfg, signal=new_signal, sample=new_sample)


def analyzer_config(tbar, dt, phibar, dphi, psi, setting, v=0.5) -> InterferometerConfig:
    """Analyzer setting 1 (crossed quarter-wave pair) or 2 (aligned pair) at
    gain ``v`` with a lossless signal arm, for the sample
    (tbar +- dt/2) exp(i(phibar +- dphi/2)) rotated by ``psi``."""
    return InterferometerConfig(
        crystal1=CrystalGain(v),
        crystal2=CrystalGain(v),
        signal=SignalControl(1.0),
        waveplate1=quarter_wave(math.pi / 4),
        waveplate2=quarter_wave(3 * math.pi / 4 if setting == 1 else math.pi / 4),
        sample=SampleAxes(
            t_perp=(tbar + 0.5 * dt) * cmath.exp(1j * (phibar + 0.5 * dphi)),
            t_par=(tbar - 0.5 * dt) * cmath.exp(1j * (phibar - 0.5 * dphi)),
        ),
        rotation=psi,
    )


def two_setting_points(tbar, dt, phibar, dphi, psi, phi0, v=0.5) -> np.ndarray:
    """Low-gain records (N1, N2) of the two analyzer settings over the
    control-phase scan ``phi0``, shape (len(phi0), 2)."""
    return np.column_stack([
        n_lowgain(beating_parameters(analyzer_config(tbar, dt, phibar, dphi, psi, s, v)),
                  phi0)
        for s in (1, 2)
    ])


def angles_close(a, b, atol=1e-12):
    """Assert two angles are equal modulo 2*pi."""
    diff = np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b))))
    np.testing.assert_allclose(diff, 0.0, atol=atol)


def axis_distance(a, b) -> float:
    """Smallest distance between two axis orientations (angles mod pi)."""
    d = (float(a) - float(b)) % np.pi
    return float(min(d, np.pi - d))


@pytest.fixture
def rng():
    return np.random.default_rng(20240831)


def _with_field(row: str, index: int, cell: str) -> str:
    fields = row.split(",")
    fields[index] = cell
    return ",".join(fields)


def _drop_last_field(row: str) -> str:
    return row.rsplit(",", 1)[0]


# Corruptions of a series CSV given as its lines (header first), each with the
# message ``TimeSeries.from_csv`` must raise (a regular expression searched
# for in it).  The fractional and negative step cases keep the steps strictly
# increasing, so only the file-boundary step check can catch them; the
# fractional texts whose double is an integer (1.0000000000000001 is 1.0,
# 1e-400 is 0.0 and 4503599627370496.3 is 2**52) are named by their text.
MALFORMED_SERIES = {
    "four_columns": (
        lambda lines: lines[:1] + [_drop_last_field(r) for r in lines[1:]],
        "expected 5 columns per row, found 4",
    ),
    "ragged": (
        lambda lines: lines[:3] + [_drop_last_field(lines[3])] + lines[4:],
        "expected 5 columns per row, found 4 in data row 3$",
    ),
    "non_numeric": (
        lambda lines: lines[:3] + [_with_field(lines[3], 2, "abc")] + lines[4:],
        "non-numeric value 'abc' in column 'delta_phase' of data row 3$",
    ),
    "fractional_step": (
        lambda lines: lines[:2] + [_with_field(lines[2], 0, "1.5")] + lines[3:],
        r"step 1\.5 of data row 2 is not an integer in \[0, 2\*\*53\]",
    ),
    "fractional_step_text": (
        lambda lines: lines[:2] + [_with_field(lines[2], 0, "1.0000000000000001")] + lines[3:],
        r"step 1\.0000000000000001 of data row 2 is not an integer in \[0, 2\*\*53\]$",
    ),
    "tiny_fractional_step_text": (
        lambda lines: [lines[0], _with_field(lines[1], 0, "1e-400")] + lines[2:],
        r"step 1e-400 of data row 1 is not an integer in \[0, 2\*\*53\]$",
    ),
    "fractional_step_text_past_2_to_the_52": (
        lambda lines: lines[:-1] + [_with_field(lines[-1], 0, "4503599627370496.3")],
        r"step 4503599627370496\.3 of data row \d+ is not an integer in \[0, 2\*\*53\]$",
    ),
    "negative_step": (
        lambda lines: [lines[0], _with_field(lines[1], 0, "-1")] + lines[2:],
        r"step -1\.0 of data row 1 is not an integer in \[0, 2\*\*53\]",
    ),
    "step_beyond_int64": (
        lambda lines: lines[:-1] + [_with_field(lines[-1], 0, "1e19")],
        r"step 1e\+19 of data row \d+ is not an integer in \[0, 2\*\*53\]",
    ),
    "header_only": (lambda lines: lines[:1], "empty time series"),
    "repeated_step": (
        lambda lines: lines[:4] + [_with_field(lines[4], 0, "2")] + lines[5:],
        "step index must be strictly increasing: step '2' of data row 4 follows "
        "step '2'$",
    ),
    "negative_expected_n": (
        lambda lines: lines[:5] + [_with_field(lines[5], 3, "-0.5")] + lines[6:],
        "expected_n must be nonnegative: value '-0.5' in data row 5$",
    ),
}
