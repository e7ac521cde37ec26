"""Polarization-sensitive nonlinear-interferometer simulation and estimation."""

from .elements import (
    CrystalGain,
    SampleAxes,
    SignalControl,
    WaveplateCoeffs,
    quarter_wave,
    rotated_waveplate_coeffs,
    waveplate,
)
from .estimation import (
    EstimationError,
    SampleEstimate,
    UnidentifiableError,
    estimate_ellipse,
    estimate_rotated,
    extract_sample_fourier,
    harmonic_regress,
)
from .interferometer import (
    InterferometerConfig,
    detected_mode,
    path_amplitudes,
    photon_number_exact,
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
    HarmonicDecomposition,
    amplitude_relations,
    beating_parameters,
    fourier_model,
    n_lowgain,
)

__version__ = "0.1.0"
