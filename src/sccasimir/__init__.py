"""Casimir pressures between superconducting parallel plates, membrane
force sensing, and the differential calibration pipeline."""

from .physcore import (
    CONSTANTS,
    Basis,
    Constants,
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    big_gap_membrane,
    matsubara_frequency,
    small_gap_membrane,
)
from .permittivity import (
    DielectricModel,
    ModelKind,
    bcs,
    bcs_g,
    bcs_gap,
    condensate_fraction,
    drude,
    effective_plasma_frequency,
    permittivity_iw,
    plasma,
)
from .lifshitz import (
    LifshitzSpec,
    PlatePlate,
    QuadratureConfig,
    SpherePlate,
    ZeroFreqApproach,
    casimir_pressure,
    casimir_pressure_gradient,
    classical_terms,
    ideal_casimir_force,
    local_exponent,
    tc_jump,
)
from .membrane import (
    SweepRecord,
    cte_alpha,
    dw2_from_gradient,
    frequency_noise,
    fundamental_frequency,
    gradient_from_dw2,
    lcpd_fit,
    predicted_frequency_jump,
    static_deflection,
)
from .analysis import (
    DynesParams,
    SweepTruth,
    calibrate_thermal,
    convert_fem,
    differential_subtract,
    dynes_conductance,
    dynes_fit,
    generate_sweep,
    sweep_pipeline,
)
from .errors import ConvergenceError, FitError, ParseError

__version__ = "0.1.0"
