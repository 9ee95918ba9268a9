"""The public API, pinned: adding or removing a name is an edit of this file."""

import types

import pytest

import sccasimir
from sccasimir import analysis, experiments, lifshitz, membrane, permittivity, physcore
from sccasimir.cli import main

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


MODULE_ALL = {
    physcore: [
        "Constants", "CONSTANTS", "SuperconductorParams", "MembraneSpec",
        "ConversionFactors", "Basis", "matsubara_frequency", "small_gap_membrane",
        "big_gap_membrane", "config_items", "from_config", "read_config", "read_csv",
        "write_config",
    ],
    permittivity: [
        "ModelKind", "DielectricModel", "drude", "plasma", "bcs", "bcs_gap",
        "condensate_fraction", "superfluid_weight", "effective_plasma_frequency", "bcs_g",
        "permittivity_iw",
    ],
    membrane: [
        "SweepRecord", "load_sweep_csv", "fundamental_frequency", "dw2_from_gradient",
        "gradient_from_dw2", "predicted_frequency_jump", "electrostatic_dw2", "LcpdResult",
        "lcpd_fit", "static_deflection", "patch_pressure", "cte_alpha", "thermal_stress",
        "frequency_noise",
    ],
    analysis: [
        "CalibratedResiduals", "calibrate_thermal", "differential_subtract", "convert_fem",
        "DynesParams", "dynes_density", "dynes_conductance", "dynes_fit", "load_dynes_csv",
        "SweepTruth", "generate_sweep", "SweepReport", "sweep_pipeline",
    ],
    experiments: ["CatalogRow", "PLATE_PLATE_ROWS", "SPHERE_PLATE_ROWS"],
}


@pytest.mark.parametrize("module", list(MODULE_ALL), ids=lambda m: m.__name__.split(".")[-1])
def test_module_all(module):
    assert module.__all__ == MODULE_ALL[module]
    assert all(hasattr(module, name) for name in module.__all__)


# every command's options, each as its flags and its default: adding or
# removing an option, or changing a default, is an edit of this table
REQUIRED = "required"
_FILM = {"--config": None, "--omega": None, "--gamma0": None, "--rrr": None, "--tc": None}
_QUAD = {"--term-stop": 1e-10, "--max-matsubara": 100_000}
_MEMBRANE = {"--membrane": "small", "--membrane-config": None}
_SPEC = {"--d": REQUIRED, "--t --T": REQUIRED, "--model": "bcs",
         "--approach": "plasma-bcs", **_FILM, **_QUAD, "--format": "table"}
CLI = {
    "pressure": {**_SPEC, "--t --T": None, "--ideal": False, "--area": None,
                 "--radius": None, "--ideal-zero-t": False, "--skip-exponent": False},
    "gradient": _SPEC,
    "exponent": _SPEC,
    "jump": {"--d": 190e-9, "--dt --dT": 0.1, "--approach": "plasma-bcs", "--all": False,
             **_MEMBRANE, "--f0": None, **_FILM, **_QUAD, "--format": "table"},
    "sweep": {"--small": REQUIRED, "--big": REQUIRED, "--window": REQUIRED, **_MEMBRANE,
              "--factors-config": None, "--combine": "add", "--out": None,
              "--format": "table"},
    "generate-sweep": {"--out": REQUIRED, "--slope": -2.2e7, "--intercept": 5.226e12,
                       "--jump-dw2": None, "--jump-gradient": None, "--tc-step": 14.2,
                       "--noise-f": 0.0, "--t-min": 13.175, "--t-max": 14.675,
                       "--n-points": 31, "--seed": 0, **_MEMBRANE},
    "lcpd-fit": {"--csv": REQUIRED, **_MEMBRANE, "--format": "table"},
    "dynes-fit": {"--csv": REQUIRED, "--t --T": REQUIRED, "--format": "table"},
    "tables": {"--flag-above": 0.005, "--format": "table"},
    "noise": {"--f0": REQUIRED, "--q": REQUIRED, "--noise-to-signal": REQUIRED,
              "--tau": REQUIRED, "--format": "table"},
}


def test_cli_options():
    surface = {name: {" ".join(p.opts): REQUIRED if p.required else p.default
                      for p in command.params}
               for name, command in main.commands.items()}
    assert surface == CLI
