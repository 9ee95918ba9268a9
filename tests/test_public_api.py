"""The public API, pinned: adding or removing a name is an edit of this file."""

import types

import sccasimir
from sccasimir import lifshitz

PACKAGE = {
    "Basis", "CONSTANTS", "Constants", "ConvergenceError", "ConversionFactors",
    "DielectricModel", "DynesParams", "FitError", "LifshitzSpec", "MembraneSpec",
    "ModelKind", "ParseError", "PlatePlate", "QuadratureConfig", "SpherePlate",
    "SuperconductorParams", "SweepRecord", "SweepTruth", "ZeroFreqApproach", "bcs",
    "bcs_g", "bcs_gap", "big_gap_membrane", "calibrate_thermal", "casimir_pressure",
    "casimir_pressure_gradient", "classical_terms", "condensate_fraction",
    "convert_fem", "cte_alpha", "differential_subtract", "drude", "dw2_from_gradient",
    "dynes_conductance", "dynes_fit", "effective_plasma_frequency", "electrostatic_dw2",
    "frequency_noise", "fundamental_frequency", "generate_sweep", "gradient_from_dw2",
    "ideal_casimir_force", "lcpd_fit", "local_exponent", "matsubara_frequency",
    "patch_pressure", "permittivity_iw", "plasma", "predicted_frequency_jump",
    "small_gap_membrane", "static_deflection", "superfluid_weight", "sweep_pipeline",
    "tc_jump",
}

LIFSHITZ = [
    "ZeroFreqApproach", "QuadratureConfig", "LifshitzSpec", "LifshitzDetail",
    "casimir_pressure", "casimir_pressure_detail", "casimir_pressure_gradient",
    "casimir_pressure_gradient_detail", "classical_terms", "local_exponent",
    "PlatePlate", "SpherePlate", "ideal_casimir_force", "tc_jump",
]


def test_package_exports():
    # submodules become attributes once imported, so they are not names
    exported = {name for name, value in vars(sccasimir).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PACKAGE


def test_lifshitz_all():
    assert lifshitz.__all__ == LIFSHITZ
    assert all(hasattr(lifshitz, name) for name in LIFSHITZ)
