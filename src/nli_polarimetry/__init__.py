"""Polarization-sensitive nonlinear-interferometer simulation and estimation."""

from .elements import (
    CrystalGain,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    WaveplateSetting,
    blocked_signal,
    half_wave,
    lossless_sample,
    quarter_wave,
    rotated_waveplate_coeffs,
    waveplate_coeffs,
    waveplate_matrix,
)
from .estimation import (
    EllipseFit,
    EstimationError,
    HarmonicDecomposition,
    RotatedRecovery,
    SampleEstimate,
    SinusoidFit,
    UnidentifiableError,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    fit_ellipse,
    fit_sinusoid,
    harmonic_regress,
    recover_rotated_params,
)
from .interferometer import (
    InterferometerConfig,
    detected_mode,
    photon_number_exact,
    three_path_decomposition,
    with_scan_phases,
)
from .mode_algebra import (
    Mode,
    OperatorExpansion,
    adjoint,
    commutator_defect,
    linear_combine,
    pure_mode,
    vacuum_photon_number,
)
from .scan import (
    Calibration,
    CalibrationError,
    NoiseModel,
    ScanSchedule,
    TimeSeries,
    calibrate,
    fourier_protocol_schedule,
    simulate_scan,
)
from .signals import (
    BeatingParameters,
    FourierModel,
    amplitude_relations,
    beating_parameters,
    fourier_model,
    highgain_visibility,
    n_blocked,
    n_highgain,
    n_lowgain,
    n_rotated,
)

__version__ = "0.1.0"
