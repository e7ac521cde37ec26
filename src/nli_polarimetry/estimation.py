"""Sample-parameter recovery from simulated count records.

Three estimation routes are provided: harmonic regression of the dual-rate
scan (transmissions from peak magnitudes, phases from peak arguments),
fringe fits of the two analyzer settings for a rotated sample with the
algebraic amplitude relations, and a conic-constrained Lissajous-ellipse fit
that needs no absolute phase reference.

Fits report their content in counts; each estimator normalises by the
record's dc level itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .angles import wrap_axis, wrap_half_pi, wrap_pi
from .scan import (TimeSeries, _check_step_ramp, _fit_ramp, _fit_record, _pow2_scale,
                   _scan_phase)
from .signals import HarmonicDecomposition, amplitude_relations

__all__ = [
    "EstimationError",
    "UnidentifiableError",
    "SampleEstimate",
    "harmonic_regress",
    "extract_sample_fourier",
    "estimate_rotated",
    "estimate_ellipse",
]

# the structural assumptions of the two-setting routes, each with the flag
# raised when the setting-2 fringe vanishes and leaves psi undetermined
_PSI_UNIDENTIFIED = {
    "isotropic_phase": "psi_unidentified_no_diattenuation_fringe",
    "isotropic_attenuation": "psi_unidentified_no_retardance_fringe",
}
ROTATED_ASSUMPTIONS = (*_PSI_UNIDENTIFIED, "general")
# a relative fringe amplitude (a fraction of the dc level) at or below this
# is rounding noise and counts as no fringe
_FRINGE_FLOOR = 1e-12


class EstimationError(RuntimeError):
    """Estimator failure; ``flag`` names the failure mode."""

    def __init__(self, message: str, flag: str = "estimation_failed"):
        super().__init__(message)
        self.flag = flag


class UnidentifiableError(EstimationError):
    """The requested parameter is not determined by the data."""


@dataclass
class SampleEstimate:
    """Recovered sample parameters with diagnostics.

    ``dphi`` is reported in (-pi, pi] and ``psi`` is an axis orientation in
    [0, pi) (None when the pipeline does not measure it).  The Fourier route
    reports ``phibar`` modulo pi in (-pi/2, pi/2] -- the mean of two phases
    defined mod 2*pi carries an intrinsic half-turn ambiguity -- while the
    rotated-sample route reports it in (-pi, pi] under its positive-cosine
    fringe gauge.
    """

    t_perp: float
    t_par: float
    tbar: float
    dt: float
    phibar: float | None
    dphi: float
    psi: float | None = None
    residuals: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)


def harmonic_regress(series: TimeSeries, omega_scan: float) -> HarmonicDecomposition:
    """Fit dc plus the half- and three-half-rate harmonics to a scan record.

    Parameters
    ----------
    series : TimeSeries
        Record of an equal-rate dual scan; both phase columns must be
        ``omega_scan * step``.
    omega_scan : float
        Common scan rate in rad per unit of ``step``.

    Returns
    -------
    HarmonicDecomposition
        Complex cosine-phase amplitudes at ``omega_scan/2`` and
        ``3*omega_scan/2`` plus the dc level and residual RMS.

    Raises
    ------
    EstimationError
        If the record fails the dual-scan record rule ``scan._scan_phase``
        (checked first, per row, so a decimated record passes), ``omega_scan``
        is not positive and finite (``bad_scan_rate``), a phase column is not
        ``omega_scan * step`` (``phase_step_mismatch``), the design is rank
        deficient, or the counts are not finite (``nonfinite_counts``).
    """
    _scan_phase(series, "both", 0.5, EstimationError)
    if not (math.isfinite(omega_scan) and omega_scan > 0.0):
        raise EstimationError("omega_scan must be positive and finite",
                              flag="bad_scan_rate")
    _check_step_ramp(series, omega_scan, EstimationError)
    rates = (0.5 * omega_scan, 1.5 * omega_scan)
    dc, (amp_half, amp_threehalf), rms = _fit_record(series, "step", rates, EstimationError)
    return HarmonicDecomposition(dc=dc, amp_half=amp_half, amp_threehalf=amp_threehalf,
                                 residual_rms=rms)


def extract_sample_fourier(
    decomp: HarmonicDecomposition,
    amplitude: float,
    signal_offset: float,
    diff_offset: float,
) -> SampleEstimate:
    """Turn harmonic amplitudes into sample parameters.

    Parameters
    ----------
    decomp : HarmonicDecomposition
        Fit of the dual-rate scan (crossed quarter-wave analyzer pair and a
        lossless signal arm assumed, so the peak magnitudes are
        ``amplitude/4`` times the axis transmissions).
    amplitude : float
        Beating amplitude in count units, normally ``2 * decomp.dc``.
    signal_offset, diff_offset : float
        Calibrated phase offsets to subtract from the peak phases.

    Returns
    -------
    SampleEstimate
        Axis transmissions from the peak magnitudes; retardance and mean
        phase from the peak phases (mod 2*pi and mod pi respectively).
        A non-finite or nonpositive amplitude raises ``EstimationError``
        (flag ``bad_amplitude``), a non-finite offset flag ``bad_offset``.
    """
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise EstimationError("beating amplitude must be positive and finite",
                              flag="bad_amplitude")
    if not (math.isfinite(signal_offset) and math.isfinite(diff_offset)):
        raise EstimationError("phase offsets must be finite", flag="bad_offset")
    flags: list[str] = []

    t_par = 4.0 * abs(decomp.amp_half) / amplitude
    t_perp = 4.0 * abs(decomp.amp_threehalf) / amplitude
    for name, value in (("t_par", t_par), ("t_perp", t_perp)):
        if value > 1.05:
            flags.append(f"{name}_exceeds_unity")
    t_par_c = float(np.clip(t_par, 0.0, 1.0))
    t_perp_c = float(np.clip(t_perp, 0.0, 1.0))

    weak = 1e-12 * amplitude
    if abs(decomp.amp_half) < weak or abs(decomp.amp_threehalf) < weak:
        flags.append("phase_unreliable_weak_harmonic")
    arg_eps = cmath.phase(decomp.amp_half)
    arg_kap = cmath.phase(decomp.amp_threehalf)
    dphi = float(wrap_pi(arg_kap - arg_eps - diff_offset))
    phibar = float(wrap_half_pi(0.5 * (arg_kap + arg_eps) - signal_offset))

    return SampleEstimate(
        t_perp=t_perp_c,
        t_par=t_par_c,
        tbar=0.5 * (t_perp_c + t_par_c),
        dt=t_perp_c - t_par_c,
        phibar=phibar,
        dphi=dphi,
        psi=None,
        residuals={"harmonic_rms": decomp.residual_rms},
        flags=flags,
    )


def _recover_rotated_params(b1: float, c1: float, b2: float, c2: float):
    """Invert the two-setting amplitude relations.

    Returns ``(tbar, dt, dphi, residual, flags)``.  The amplitudes are
    relative to the flux; when none exceeds 1e-12 (``_FRINGE_FLOOR``) the
    mean transmission is unidentifiable.  Applies the flip
    ``(c1, c2) -> (-c1, -c2)`` when ``c1 < 0`` (the mean transmission must be
    positive; the retardance is then only known up to a full turn).  The
    residual compares the inputs against the amplitudes regenerated from the
    recovered parameters.
    """
    flags: list[str] = []
    scale = max(abs(b1), abs(c1), abs(b2), abs(c2))
    if scale <= _FRINGE_FLOOR:
        raise UnidentifiableError("all fringe amplitudes vanish",
                                  flag="tbar_unidentifiable")
    tol = 1e-12 * scale
    if c1 < 0.0:
        c1, c2 = -c1, -c2
        flags.append("c1_flipped_retardance_mod_2pi")
    if abs(c1) <= tol and abs(b2) <= tol:
        raise UnidentifiableError("mean-transmission amplitudes vanish",
                                  flag="tbar_unidentifiable")

    dphi = -2.0 * math.atan2(b2, c1)
    tbar = math.hypot(b2, c1)
    if abs(c2) <= tol:
        if abs(b1) <= tol:
            dt = 0.0
        else:
            dt = 2.0 * abs(b1)
            flags.append("dt_sign_unidentified_at_half_turn")
    else:
        dt = 2.0 * math.copysign(math.hypot(b1, c2), c2)

    pred = amplitude_relations(tbar, dt, dphi)
    residual = max(abs(p - q) for p, q in zip(pred, (b1, c1, b2, c2)))
    return tbar, dt, dphi, residual, flags


def estimate_rotated(
    series_setting1: TimeSeries,
    series_setting2: TimeSeries,
    assume: str = "isotropic_phase",
    phibar: float | None = None,
) -> SampleEstimate:
    """Two-setting estimation of a rotated sample.

    Each control-phase scan pins one complex fringe amplitude, i.e. four
    real numbers for the five unknowns (tbar, dt, dphi, phibar, psi), so a
    structural assumption closes the system:

    - ``"isotropic_phase"``: no birefringence (dphi = 0); nonnegative
      diattenuation fixes the axis labelling.
    - ``"isotropic_attenuation"``: no diattenuation (dt = 0); nonnegative
      retardance fixes the labelling.
    - ``"general"``: both effects present; requires the sample's mean phase
      ``phibar`` from an independent measurement.  Even then two parameter
      sets reproduce the data exactly (the setting-2 quadratures can be
      assigned either way round); the larger cosine-amplitude root is
      returned and the ambiguity flagged.

    A ``phibar`` passed with a structural assumption raises
    ``EstimationError`` (flag ``phibar_unused``).

    The swap of the two sample axes maps (psi, dt, dphi) to
    (psi + pi/2, -dt, -dphi) and produces identical data; estimates are
    reported in the canonical branch with ``psi`` in [0, pi).
    """
    if assume not in ROTATED_ASSUMPTIONS:
        raise EstimationError(f"unknown assumption {assume!r}", flag="bad_assumption")
    if phibar is not None and assume != "general":
        raise EstimationError(f"phibar is used only by the general mode, not {assume!r}",
                              flag="phibar_unused")
    dc1, fringe1, rms1 = _fit_ramp(series_setting1, "phi0", 1.0, EstimationError)
    dc2, fringe2, rms2 = _fit_ramp(series_setting2, "phi0", 1.0, EstimationError)
    w1, w2 = fringe1 / dc1, fringe2 / dc2

    if assume == "general":
        if phibar is None:
            raise EstimationError(
                "general mode needs the mean sample phase from an independent "
                "measurement",
                flag="phibar_required",
            )
        if not math.isfinite(phibar):
            raise EstimationError("phibar must be finite", flag="bad_phibar")
        z1 = w1 * cmath.exp(-1j * phibar)
        b1, c1 = -z1.imag, z1.real
        z2 = w2 * cmath.exp(-1j * phibar)
        s = abs(z2) ** 2
        m = b1 * c1
        disc = s * s - 4.0 * m * m
        if disc < -1e-9 * max(s * s, 1.0):
            raise EstimationError(
                "fringe amplitudes are inconsistent with the two-setting model",
                flag="inconsistent_amplitudes",
            )
        disc = max(disc, 0.0)
        c2sq = 0.5 * (s + math.sqrt(disc))
        c2 = math.sqrt(c2sq)
        if c2 > 1e-12:
            b2 = m / c2
        else:
            b2 = -math.sqrt(max(s, 0.0))
        amps = (b1, c1, b2, c2)
        flags = ["general_mode_root_choice"]
        psi = float(wrap_axis(0.5 * (cmath.phase(complex(c2, -b2)) - cmath.phase(z2))))
        phib = float(phibar)
    else:
        phib = cmath.phase(w1) if abs(w1) > 0 else 0.0
        amps, psi, flags = _structural_amplitudes(
            assume, abs(w1), abs(w2), cmath.phase(w2) - phib
        )
    residuals = {"fit_rms_setting1": rms1, "fit_rms_setting2": rms2}
    return _two_setting_estimate(amps, psi, phib, residuals, flags)


def _structural_amplitudes(assume: str, mag1: float, mag2: float, lag: float):
    """Map a structural assumption onto ``((b1, c1, b2, c2), psi, flags)``.

    ``mag1``/``mag2`` are the relative fringe magnitudes of the two settings
    and ``lag`` the phase lag of setting 2 behind setting 1.  A setting-2
    fringe at or below ``_FRINGE_FLOOR`` (1e-12) leaves psi None and flagged.
    """
    if assume == "isotropic_phase":
        amps = (0.0, mag1, 0.0, mag2)
        half_angle = -0.5 * lag
    else:
        amps = (0.0, mag1, -mag2, 0.0)
        half_angle = 0.5 * (0.5 * math.pi - lag)
    if mag2 <= _FRINGE_FLOOR:
        return amps, None, [_PSI_UNIDENTIFIED[assume]]
    return amps, float(wrap_axis(half_angle)), []


def _two_setting_estimate(amps, psi, phibar, residuals: dict, flags: list) -> SampleEstimate:
    """Invert the amplitudes ``(b1, c1, b2, c2)`` and assemble the estimate.

    ``phibar`` is None when the route does not measure it; ``residuals`` and
    ``flags`` are extended by those of the inversion.
    """
    tbar, dt, dphi, residual, rec_flags = _recover_rotated_params(*amps)
    if "c1_flipped_retardance_mod_2pi" in rec_flags and psi is not None:
        # the flip re-gauges the fringe reference by a half turn, which the
        # setting-2 phase absorbs as a quarter-turn of the sample orientation
        psi = float(wrap_axis(psi + 0.5 * math.pi))
    return SampleEstimate(
        t_perp=tbar + 0.5 * dt,
        t_par=tbar - 0.5 * dt,
        tbar=tbar,
        dt=dt,
        phibar=None if phibar is None else float(wrap_pi(phibar)),
        dphi=float(wrap_pi(dphi)),
        psi=psi,
        residuals={**residuals, "amplitude_consistency": residual},
        flags=flags + rec_flags,
    )


def _direct_ellipse_fit(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ellipse-constrained direct least-squares conic fit.

    Solves the quadratic-constraint eigenproblem on the scatter matrices
    (numerically stable block formulation); returns (a, b, c, d, e, f),
    scaled to 4ac - b^2 = 1.
    """
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise UnidentifiableError("degenerate point configuration",
                                  flag="degenerate_conic") from exc
    m = s1 + s2 @ t
    c1inv = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
    vals, vecs = np.linalg.eig(c1inv @ m)
    best = None
    for k in range(3):
        if abs(vals[k].imag) > 1e-8 * (1.0 + abs(vals[k].real)):
            continue
        v = np.real(vecs[:, k])
        constraint = 4.0 * v[0] * v[2] - v[1] ** 2
        if constraint > 0.0:
            best = v / math.sqrt(constraint)
    if best is None:
        raise UnidentifiableError("no ellipse solution found", flag="degenerate_conic")
    return np.concatenate([best, t @ best])


def _fit_ellipse(points: np.ndarray) -> tuple[float, float, float, tuple[float, float], float]:
    """Direct conic fit of the Lissajous curve traced by the two settings.

    Parameters
    ----------
    points : array, shape (n, 2)
        Joint samples (N1, N2) of the two analyzer-setting signals, ordered
        along the control-phase scan and covering at least one period.  The
        ordering only sets the traversal direction (the sign of the relative
        phase); the fit itself is invariant under phase shifts of the scan.

    Returns
    -------
    (amp_x, amp_y, rel_phase, center, residual)
        The harmonic magnitudes of the two coordinates in counts, the signed
        phase lag of the second coordinate, the ellipse's centre (the two dc
        levels, in counts) and the scale-free conic residual.

    Raises
    ------
    EstimationError
        For fewer than 6 points (flag ``too_few_points``) or a NaN or
        infinite one (``nonfinite_points``); as ``UnidentifiableError`` with
        flag ``degenerate_conic`` for collinear points or a non-elliptical
        conic.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 6:
        raise EstimationError("need at least 6 (N1, N2) points",
                              flag="too_few_points")
    if not np.isfinite(pts).all():
        raise EstimationError("points must be finite", flag="nonfinite_points")

    # normalize: isotropic scaling keeps the conic fit well conditioned and
    # makes the residual scale-free; the exact power-of-two scale keeps the
    # centroid's sum and the spread's squares from overflowing
    scale = _pow2_scale(pts)
    centroid = scale * (pts / scale).mean(axis=0)
    offsets = pts - centroid
    spread = scale * np.sqrt(np.mean(np.sum((offsets / scale) ** 2, axis=1)))
    if spread <= 0.0:
        raise UnidentifiableError("all points coincide", flag="degenerate_conic")
    norm = offsets / spread
    sv = np.linalg.svd(norm - norm.mean(axis=0), compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise UnidentifiableError("points are collinear", flag="degenerate_conic")

    conic = _direct_ellipse_fit(norm[:, 0], norm[:, 1])
    a, b, c, d, e, f = conic
    disc = b * b - 4.0 * a * c  # -1 by the fit's scaling
    design = np.column_stack(
        [norm[:, 0] ** 2, norm[:, 0] * norm[:, 1], norm[:, 1] ** 2,
         norm[:, 0], norm[:, 1], np.ones(len(norm))]
    )
    theta = conic / np.linalg.norm(conic)
    residual = float(np.sqrt(np.mean((design @ theta) ** 2)))

    # center in normalized then original coordinates
    cx = (2.0 * c * d - b * e) / disc
    cy = (2.0 * a * e - b * d) / disc
    center = (centroid[0] + spread * cx, centroid[1] + spread * cy)
    if center[0] <= 0.0 or center[1] <= 0.0:
        raise EstimationError("fringe center must be positive", flag="bad_center")

    # central form A X^2 + B XY + C Y^2 = F
    big_f = -(a * cx * cx + b * cx * cy + c * cy * cy + d * cx + e * cy + f)
    if big_f <= 0.0 or a <= 0.0 or c <= 0.0:
        a, b, c, big_f = -a, -b, -c, -big_f
    if big_f <= 0.0 or a <= 0.0 or c <= 0.0:
        raise UnidentifiableError("fitted conic is not a real ellipse",
                                  flag="degenerate_conic")

    # harmonic invariants of the Lissajous parametrization
    cos_rel = -b / (2.0 * math.sqrt(a * c))
    cos_rel = float(np.clip(cos_rel, -1.0, 1.0))
    sin_rel_mag = math.sqrt(max(0.0, 1.0 - cos_rel * cos_rel))
    # traversal direction from the polygon's signed area, each vertex against
    # the next (the last against the first)
    x0, y0 = norm[:, 0] - cx, norm[:, 1] - cy
    x1, y1 = (np.concatenate((v[1:], v[:1])) for v in (x0, y0))
    area = 0.5 * float(np.sum(x0 * y1 - x1 * y0))
    rel_phase = math.atan2(-math.copysign(sin_rel_mag, area), cos_rel)
    sin_sq = max(sin_rel_mag**2, 1e-300)
    amp_x = spread * math.sqrt(big_f / (a * sin_sq))
    amp_y = spread * math.sqrt(big_f / (c * sin_sq))

    return (float(amp_x), float(amp_y), float(rel_phase),
            (float(center[0]), float(center[1])), residual)


def estimate_ellipse(
    series_setting1: TimeSeries,
    series_setting2: TimeSeries,
    assume: str = "isotropic_phase",
) -> SampleEstimate:
    """Ellipse-route estimation from the paired analyzer-setting records.

    The conic fit's invariants are mapped to sample parameters under the
    structural assumption ``"isotropic_phase"`` (no birefringence) or
    ``"isotropic_attenuation"`` (no diattenuation), as in ``estimate_rotated``.
    The counts are paired by index, so the two records must share their
    ``phi0`` and ``delta_phase`` columns (flag ``phase_mismatch``), which
    must pass the rotated route's record rule.  A column both records hold
    as one object (as records simulated on one schedule do) is not compared.
    """
    if len(series_setting1) != len(series_setting2):
        raise EstimationError("the two series must have matching samples",
                              flag="length_mismatch")
    if not all(a is b or np.array_equal(a, b)
               for a, b in ((series_setting1.phi0, series_setting2.phi0),
                            (series_setting1.delta_phase, series_setting2.delta_phase))):
        raise EstimationError("the two series must share their phase columns",
                              flag="phase_mismatch")
    if assume not in _PSI_UNIDENTIFIED:
        raise EstimationError(f"unsupported ellipse assumption {assume!r}",
                              flag="bad_assumption")
    _scan_phase(series_setting1, "phi0", 1.0, EstimationError)
    points = np.column_stack([series_setting1.counts, series_setting2.counts])
    amp_x, amp_y, rel_phase, center, residual = _fit_ellipse(points)
    amps, psi, flags = _structural_amplitudes(
        assume, amp_x / center[0], amp_y / center[1], rel_phase)
    return _two_setting_estimate(amps, psi, None, {"conic_rms": residual}, flags)
