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
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .angles import wrap_axis, wrap_half_pi, wrap_pi
from .scan import EstimationError, TimeSeries, _fit_design, _fit_ramp, _kept_design, _pow2_scale
from .signals import HarmonicDecomposition

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
        If the record fails the dual-scan record rule ``scan._kept_design``:
        its ramps, per row, so a decimated record passes, then
        ``omega_scan`` nonzero and finite (``bad_scan_rate``; a downward
        scan fits as an upward one does) and each phase column
        ``omega_scan * step`` (``phase_step_mismatch``).  Also if the
        design is rank deficient or the counts are not finite
        (``nonfinite_counts``).
    """
    omega_scan = float(1.0 * omega_scan)  # as a float; unlike float(), 1.0 * refuses a str
    rates = (0.5 * omega_scan, 1.5 * omega_scan)
    dc, (amp_half, amp_threehalf), rms = _fit_design(
        _kept_design(series, "both", 0.5, rates, omega_scan), series.counts)
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
    # ``np.clip``'s bits: both are +0.0 or more (``abs`` over a positive
    # amplitude), the range where ``min(max(...))`` agrees with the clip
    t_par_c = float(min(max(t_par, 0.0), 1.0))
    t_perp_c = float(min(max(t_perp, 0.0), 1.0))

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
      returned and the ambiguity flagged.  This mode flips a negative
      setting-1 cosine amplitude c1 itself, as a half turn of the fringe
      reference: b1 and c1 change sign and psi turns a quarter turn
      (``c1_flipped_retardance_mod_2pi``).  A setting-2 fringe at or below
      ``_FRINGE_FLOOR`` leaves psi None
      (``psi_unidentified_no_setting2_fringe``), as in the structural modes.

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
    dc1, fringe1, rms1 = _fit_ramp(series_setting1, "phi0", 1.0)
    dc2, fringe2, rms2 = _fit_ramp(series_setting2, "phi0", 1.0)
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
        flags = ["general_mode_root_choice"]
        if abs(w2) <= _FRINGE_FLOOR:
            psi = None
            flags.append("psi_unidentified_no_setting2_fringe")
        else:
            psi = float(wrap_axis(0.5 * (cmath.phase(complex(c2, -b2)) - cmath.phase(z2))))
        if c1 < 0.0:
            # tbar must be positive: a half turn of the fringe reference negates
            # (b1, c1) and turns psi a quarter turn; dphi is known mod 2*pi
            b1, c1 = -b1, -c1
            if psi is not None:
                psi = float(wrap_axis(psi + 0.5 * math.pi))
            flags.append("c1_flipped_retardance_mod_2pi")
        amps = (b1, c1, b2, c2)
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
    """Invert the amplitudes ``(b1, c1, b2, c2)``, c1 >= 0, and assemble the estimate.

    The amplitudes are relative to the flux (the general mode flips a
    negative c1 itself).  The mean transmission is unidentifiable
    (``UnidentifiableError``, flag ``tbar_unidentifiable``) when no amplitude
    exceeds ``_FRINGE_FLOOR`` (1e-12), or when c1 and b2 are both at most
    1e-12 of the largest.  ``phibar`` is None when the route does not
    measure it; the inversion appends its flags to ``flags``.
    """
    b1, c1, b2, c2 = amps
    scale = max(abs(b1), abs(c1), abs(b2), abs(c2))
    if scale <= _FRINGE_FLOOR:
        raise UnidentifiableError("all fringe amplitudes vanish",
                                  flag="tbar_unidentifiable")
    tol = 1e-12 * scale
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
    return SampleEstimate(
        t_perp=tbar + 0.5 * dt,
        t_par=tbar - 0.5 * dt,
        tbar=tbar,
        dt=dt,
        phibar=None if phibar is None else float(wrap_pi(phibar)),
        dphi=float(wrap_pi(dphi)),
        psi=psi,
        residuals=residuals,
        flags=flags,
    )


# the spacing of doubles at 1
_EPS = sys.float_info.epsilon

# the inverse of the ellipse constraint matrix (4ac - b^2 as a quadratic form)
_C1_INV = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])


def _direct_ellipse_fit(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Ellipse-constrained direct least-squares conic fit.

    Solves the quadratic-constraint eigenproblem on the scatter matrices of
    the design's blocks ``d1`` (x^2, xy, y^2) and ``d2`` (x, y, 1), in the
    stable block form; returns (a, b, c, d, e, f), scaled to 4ac - b^2 = 1.
    """
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError as exc:
        raise UnidentifiableError("degenerate point configuration",
                                  flag="degenerate_conic") from exc
    m = s1 + s2 @ t
    vals, vecs = np.linalg.eig(_C1_INV @ m)
    vecs = vecs.real
    best = None
    for k, val in enumerate(vals.tolist()):
        if abs(val.imag) > 1e-8 * (1.0 + abs(val.real)):
            continue
        v = vecs[:, k]
        v0, v1, v2 = v.tolist()
        constraint = 4.0 * v0 * v2 - v1 ** 2
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
        along the control-phase scan and covering at least one period, n >= 8
        (unchecked: ``estimate_ellipse``'s records pass the record rule).
        The ordering only sets the traversal direction (the sign of the
        relative phase); the fit is invariant under phase shifts of the scan.

    Returns
    -------
    (amp_x, amp_y, rel_phase, center, residual)
        The harmonic magnitudes of the two coordinates in counts, the signed
        phase lag of the second coordinate, the ellipse's centre (the two dc
        levels, in counts) and the scale-free conic residual.

    Raises
    ------
    EstimationError
        For a NaN or infinite point (flag ``nonfinite_points``); as
        ``UnidentifiableError`` with flag ``degenerate_conic`` for points
        too close to collinear for the fit to resolve their minor axis
        (collinear points, a relative phase within its rounding of 0 or pi,
        or one setting's fringe that much smaller than the other's), a
        fitted relative phase within rounding of 0 or pi, or a
        non-elliptical conic (among them one whose invariants divide by
        zero).

    The means are ``np.add.reduce`` divided by the point count and the
    scalar roots ``math.sqrt``, as in ``scan._fit_design``, and the conic's
    invariants are taken in Python float arithmetic, the IEEE arithmetic of
    numpy's scalars: the result has the bits of the ``np.mean``,
    ``np.sqrt`` and numpy-scalar forms.
    """
    pts = np.asarray(points, dtype=float)
    if not np.isfinite(pts).all():
        raise EstimationError("points must be finite", flag="nonfinite_points")

    # normalize: isotropic scaling keeps the conic fit well conditioned and
    # makes the residual scale-free; the exact power-of-two scale keeps the
    # centroid's sum and the spread's squares from overflowing
    n = len(pts)
    scale = _pow2_scale(pts)
    centroid = scale * (np.add.reduce(pts / scale, axis=0) / n)
    offsets = pts - centroid
    spread = scale * math.sqrt(
        float(np.add.reduce(np.add.reduce((offsets / scale) ** 2, axis=1))) / n)
    if spread <= 0.0:
        raise UnidentifiableError("all points coincide", flag="degenerate_conic")
    norm = offsets / spread
    sv = np.linalg.svd(norm - np.add.reduce(norm, axis=0) / n, compute_uv=False)
    # the conic fit works on the scatter of the quadratic terms, fourth
    # moments of the points, in which a minor axis r times the major one
    # weighs r**4 against 1: at r**4 <= eps rounding has lost it, and with
    # it the relative phase's distance from 0 or pi (collinear points have
    # r = 0, or r at rounding level)
    if (sv[-1] / sv[0]) ** 4 <= _EPS:
        raise UnidentifiableError("points are too close to collinear for a conic fit",
                                  flag="degenerate_conic")

    x, y = norm[:, 0], norm[:, 1]
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    conic = _direct_ellipse_fit(d1, d2)
    design = np.column_stack([d1, d2])
    theta = conic / math.sqrt(conic.dot(conic))  # np.linalg.norm's formula
    residual = math.sqrt(float(np.add.reduce((design @ theta) ** 2)) / n)
    a, b, c, d, e, f = conic.tolist()
    x_mean, y_mean = centroid.tolist()
    # a Python float division by zero raises: the conic is no ellipse
    try:
        disc = b * b - 4.0 * a * c  # -1 by the fit's scaling

        # center in normalized then original coordinates
        cx = (2.0 * c * d - b * e) / disc
        cy = (2.0 * a * e - b * d) / disc
        center = (x_mean + spread * cx, y_mean + spread * cy)
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
        cos_rel = min(max(cos_rel, -1.0), 1.0)  # np.clip's bits, a NaN kept
        sin_rel_mag = math.sqrt(max(0.0, 1.0 - cos_rel * cos_rel))
        # traversal direction from the polygon's signed area, each vertex
        # against the next (the last against the first)
        x0, y0 = x - cx, y - cy
        x1, y1 = (np.concatenate((v[1:], v[:1])) for v in (x0, y0))
        area = 0.5 * float(np.add.reduce(x0 * y1 - x1 * y0))
        rel_phase = math.atan2(-math.copysign(sin_rel_mag, area), cos_rel)
        # rounding the cosine (2.5 units of roundoff) and its square leaves
        # up to 3 eps in 1 - cos**2, so a square this small measures nothing
        sin_sq = sin_rel_mag**2
        if sin_sq <= 4.0 * _EPS:
            raise UnidentifiableError("relative phase is within rounding of 0 or pi",
                                      flag="degenerate_conic")
        amp_x = spread * math.sqrt(big_f / (a * sin_sq))
        amp_y = spread * math.sqrt(big_f / (c * sin_sq))
    except ZeroDivisionError:
        raise UnidentifiableError("fitted conic is not a real ellipse",
                                  flag="degenerate_conic") from None

    return amp_x, amp_y, rel_phase, center, residual


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
    # the rotated route's rule; a layout keeps the solve for that route's fits
    _kept_design(series_setting1, "phi0", 1.0, (1.0,), rule_only=True)
    points = np.column_stack([series_setting1.counts, series_setting2.counts])
    amp_x, amp_y, rel_phase, center, residual = _fit_ellipse(points)
    if series_setting1.phi0[-1] < series_setting1.phi0[0]:
        rel_phase = -rel_phase  # a downward scan traverses the ellipse backwards
    amps, psi, flags = _structural_amplitudes(
        assume, amp_x / center[0], amp_y / center[1], rel_phase)
    return _two_setting_estimate(amps, psi, None, {"conic_rms": residual}, flags)
