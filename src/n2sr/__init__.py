"""Seeded superradiance of strong-field-ionized molecular nitrogen.

A small research toolkit covering the life of one 391-nm burst: the seed
pulse tips the collective Bloch vector of a freshly prepared two-level
medium, the tipped vector relaxes along the pendulum equation and radiates
a hyperbolic-secant burst, and the burst's width, delay, peak intensity and
energy scale with gas pressure through the emitter density.
"""

from .bloch import (
    BlochState,
    BlochTrajectory,
    analytic_seed_solution,
    bloch_angle,
    coherence_amplitudes,
    integrate_bloch_rwa,
)
from .constants import CONSTANTS, PhysicalConstants
from .csvio import write_columns
from .errors import NumericalError
from .pressure import (
    BelowThresholdError,
    DensityCalibration,
    DephasingParameters,
    ScanRow,
    ScanTable,
    calibrate_density_scale,
    dephasing_time,
    density_from_pressure,
    medium_at_pressure,
    pressure_scan,
    superradiance_valid,
    total_emitted_energy,
)
from .profiles import (
    NotAPulseError,
    SechFit,
    TemporalTrace,
    compare_profile,
    extract_fwhm,
    extract_peak_delay,
    fit_sech2,
    summarize_by_pressure,
    tau_w_from_fwhm,
)
from .superradiance import (
    NoSuperradianceError,
    Regime,
    SuperradianceSolution,
    characteristic_duration,
    classify_regime,
    emitted_field_envelope,
    emitted_intensity,
    emitted_power_density,
    energy_density,
    integrate_pendulum,
    peak_intensity,
    solve_after_seed,
    solve_from_seed,
    spontaneous_decay_time,
    superradiant_bloch_angle,
    time_delay,
)
from .system import (
    EnvelopeShape,
    SeedPulse,
    TwoLevelMedium,
    peak_field_from_intensity,
    seed_field_envelope,
)

__version__ = "0.1.0"
