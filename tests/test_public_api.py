"""The public API, pinned: adding or removing a name is an edit of this file."""

import ast
import types
from pathlib import Path

import pytest

import sccasimir
from sccasimir import analysis, experiments, lifshitz, membrane, permittivity, physcore
from sccasimir.cli import main

PACKAGE = {
    "Basis", "CONSTANTS", "Constants", "ConvergenceError", "ConversionFactors",
    "DielectricModel", "DynesParams", "FitError", "LifshitzSpec", "MembraneSpec",
    "ModelKind", "ParseError", "PlatePlate", "QuadratureConfig", "SpherePlate",
    "SuperconductorParams", "Sweep", "SweepTruth", "ZeroFreqApproach", "bcs",
    "bcs_g", "bcs_gap", "big_gap_membrane", "calibrate_thermal", "casimir_pressure",
    "casimir_pressure_gradient", "classical_terms", "condensate_fraction",
    "convert_fem", "cte_alpha", "differential_subtract", "drude", "dw2_from_gradient",
    "dynes_conductance", "dynes_fit", "effective_plasma_frequency", "frequency_noise",
    "fundamental_frequency", "generate_sweep", "gradient_from_dw2",
    "ideal_casimir_force", "lcpd_fit", "local_exponent", "matsubara_frequency",
    "permittivity_iw", "plasma", "predicted_frequency_jump",
    "small_gap_membrane", "static_deflection", "sweep_pipeline", "tc_jump",
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
    ],
    permittivity: [
        "ModelKind", "DielectricModel", "drude", "plasma", "bcs", "bcs_gap",
        "condensate_fraction", "effective_plasma_frequency", "bcs_g", "permittivity_iw",
    ],
    membrane: [
        "Sweep", "load_sweep_csv", "fundamental_frequency", "dw2_from_gradient",
        "gradient_from_dw2", "predicted_frequency_jump", "LcpdResult", "lcpd_fit",
        "static_deflection", "cte_alpha", "frequency_noise",
    ],
    analysis: [
        "CalibratedResiduals", "calibrate_thermal", "differential_subtract", "convert_fem",
        "DynesParams", "dynes_density", "dynes_conductance", "dynes_fit", "SweepTruth",
        "generate_sweep", "SweepReport", "sweep_pipeline",
    ],
    experiments: ["CatalogRow", "PLATE_PLATE_ROWS", "SPHERE_PLATE_ROWS"],
}


@pytest.mark.parametrize("module", list(MODULE_ALL), ids=lambda m: m.__name__.split(".")[-1])
def test_module_all(module):
    assert module.__all__ == MODULE_ALL[module]
    assert all(hasattr(module, name) for name in module.__all__)


def test_every_public_name_has_a_reader():
    # a public name must be read by the package itself or by an acceptance
    # criterion, not only by its own unit tests
    package = Path(sccasimir.__file__).parent
    sources = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    sources.append(Path(__file__).parent / "test_acceptance.py")
    read = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [name for module in [lifshitz, *MODULE_ALL] for name in module.__all__
              if name not in read]
    assert unread == []


def test_matsubara_reuse_has_one_owner():
    # the permittivity keeps its per-decade pairing-kernel table and the engine
    # the l >= 1 series of its most recent sums; the kernel bcs_g is a pure function
    # that nothing caches, and no cache outlives a call without a bound on its size
    package = Path(sccasimir.__file__).parent
    owners = [path.name for path in sorted(package.glob("*.py"))
              if "lru_cache" in path.read_text(encoding="utf-8")]
    assert owners == ["lifshitz.py", "permittivity.py"]
    assert not hasattr(permittivity.bcs_g, "cache_info")
    memos = {f"{module.__name__}.{name}": memo.cache_parameters()["maxsize"]
             for module in (lifshitz, permittivity)
             for name, memo in vars(module).items() if hasattr(memo, "cache_parameters")}
    assert memos == {"sccasimir.lifshitz._series": 16, "sccasimir.permittivity._g_decade": 256}
    # every decorated function is one of those module-level memos
    assert sum((package / name).read_text(encoding="utf-8").count("@lru_cache")
               for name in owners) == 2
    assert all(isinstance(size, int) and size > 0 for size in memos.values())
    # neither memo holds an array, which a caller could write into another's result
    film = physcore.SuperconductorParams()
    kept = [*lifshitz._series(permittivity.bcs(film), 4.0, 190e-9, 3,
                              lifshitz.QuadratureConfig(term_stop_rel=1e-6)),
            *permittivity._g_decade(4.0, film, 0)]
    assert all(type(value) in (bool, int, float) for value in kept)


# the package's size: code that grows past this is an edit of this line,
# with its reason
# 2,209: one 16-node panel rule and no 136-node edge rule (-5); dynes_fit refuses an
# overflowing G / 2^k and a bias span no temperature resolves, at every call too (+7)
# 2,551: dynes_fit's solver, a NumPy port of scipy's bounded trust-region reflective
# least_squares, so that no command needs scipy (+320); sweep refuses a membrane or a factor
# that takes a finite differential past the float range (+22)
# 2,550: the condensate fraction as one positive Matsubara series, with no closed form,
# relaxation refusal or rounding guard (-10); the pairing kernel refuses products past
# the float range (+5), and the jump a frequency shift that overflows (+4)
# 2,550 again: one memoised l >= 1 series shared by every prescription, with no block
# memo (-4); a gap law that is not > 0 below Tc refused, and the condensate fraction and
# the pairing kernel quiet for a gap that vanishes against kB T (+4)
# 2,550 again: a sweep as three read-only columns validated as arrays, the Dynes residual
# rescaling a kept amplitude-free conductance, and exit 141 for a closed stdout (+22);
# docstrings of the functions this touched, and of the cli and both modules, rewrapped
# to the code's width, and the sweep headers as prefixes of one row (-22)
# 2,550 again: one energy array per block, running totals in place and the factored Bose
# factor (+8), and a cap that is not an integer refused (+3); lifshitz's module docstring
# and four of its docstrings and messages rewrapped to the code's width (-11)
# 2,549: the engine commands' option tail as one list and the fit solver's quadratic form
# as its 1-D coefficients at t = 1 (-14); nan and inf refused by the kernel functions and,
# as points, by both fits, through one shared reader of (x, y) pairs (+13)
SRC_LINE_BUDGET = 2549


def test_src_line_budget():
    package = Path(sccasimir.__file__).parent
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in package.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET


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
