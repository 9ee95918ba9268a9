"""Physical constants, unit conventions, and shared parameter records.

Unit conventions used everywhere in this package:

* spectral quantities (Matsubara energies, plasma/relaxation frequencies,
  superconducting gaps) are energies in eV,
* lengths are m, wavevectors 1/m, pressures Pa, forces N, temperatures K,
* the photon dispersion is evaluated as ``q = sqrt((xi/hbar_c)**2 + k**2)``
  with ``hbar_c`` in eV m, which keeps spectral magnitudes O(1) instead of
  rad/s.

Constants are stored in both eV-based and SI units so that pressure
formulas (emitted in Pa) never need repeated conversions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ParseError

__all__ = [
    "Constants",
    "CONSTANTS",
    "SuperconductorParams",
    "MembraneSpec",
    "ConversionFactors",
    "Basis",
    "matsubara_frequency",
    "small_gap_membrane",
    "big_gap_membrane",
    "config_items",
    "from_config",
    "read_config",
    "read_csv",
]


@dataclass(frozen=True)
class Constants:
    """CODATA-pinned physical constants in the package unit conventions."""

    kB_eV: float = 8.617333262e-5        # Boltzmann constant, eV/K
    kB_J: float = 1.380649e-23           # Boltzmann constant, J/K
    hbar_eVs: float = 6.582119569e-16    # reduced Planck constant, eV s
    hbar_Js: float = 1.054571817e-34     # reduced Planck constant, J s
    c: float = 299792458.0               # speed of light, m/s
    eps0: float = 8.8541878128e-12       # vacuum permittivity, F/m
    zeta3: float = 1.2020569031595943    # Riemann zeta(3)
    hbar_c_eVm: float = 6.582119569e-16 * 299792458.0  # hbar*c, eV m


CONSTANTS = Constants()


def matsubara_frequency(l, T: float) -> float | np.ndarray:
    """Thermal (Matsubara) energy ``2 pi l kB T`` in eV of the mode index ``l`` >= 0,
    a finite int or an array of them (``l = 0`` gives exactly 0), at finite ``T`` > 0 K."""
    ls = np.asarray(l)
    ok = (ls >= 0) & (ls < math.inf)  # nan fails both
    if not ok.all():
        raise ValueError(f"Matsubara index must be finite and >= 0, got {ls[~ok].flat[0]}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"temperature must be finite and > 0, got {T} K")
    xi = 2.0 * math.pi * ls * CONSTANTS.kB_eV * T
    return float(xi) if ls.ndim == 0 else xi


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# points as an (n, 2) float array, refusing the first that is not finite by index and values
def _finite_pairs(points, names: tuple[str, str]) -> np.ndarray:
    pairs = np.asarray(points, dtype=float).reshape(len(points), 2)  # refuses non-pairs
    for i in np.flatnonzero(~np.isfinite(pairs).all(axis=1))[:1].tolist():
        raise ValueError(f"point {i} is not finite: {dict(zip(names, pairs[i].tolist()))}")
    return pairs


def _require_finite(record) -> None:
    """Reject a record any of whose float fields is nan or inf."""
    for name, value in vars(record).items():  # the message is built only on failure
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class SuperconductorParams:
    """Optical and gap parameters of the superconducting film.

    ``Omega`` and ``gamma0`` are energies in eV; the effective relaxation
    used at cryogenic temperature is ``gamma0 / RRR`` (no further
    temperature dependence). ``c1, c2, c3`` parameterize the closed-form
    gap law, which ``c1, c2 > 0`` and ``c2 + c3 >= 0`` keep > 0 below Tc.

    The default relaxation is the dirty-film transport value 0.465 eV.
    (A film this dirty has a sub-nm mean free path, which is what makes
    the local pairing response applicable in the first place; the meV
    scale belongs to the quasiparticle tunneling broadening, a different
    quantity.)
    """

    Omega: float = 5.33
    gamma0: float = 0.465
    RRR: float = 1.0
    Tc: float = 14.2
    c1: float = 1.764
    c2: float = 0.9963
    c3: float = 0.7735

    def __post_init__(self):
        _require_finite(self)
        _require(self.Omega > 0 and self.Omega * self.Omega < math.inf,
                 f"Omega must be > 0 with a finite square, got {self.Omega}")
        for name in ("gamma0", "Tc", "c1", "c2"):
            _require(getattr(self, name) > 0, f"{name} must be > 0, got {getattr(self, name)}")
        _require(self.c2 + self.c3 >= 0, f"c3 must be >= -c2, got {self.c3} (c2 = {self.c2})")
        _require(self.RRR >= 1.0, f"RRR must be >= 1, got {self.RRR}")
        # bcs_g multiplies gamma**2 by energies up to its cut-off; 1e150 eV
        # keeps that product finite for cut-offs up to 1e8 eV
        _require(0 < self.gamma <= 1e150,
                 f"gamma0 / RRR must be > 0 and <= 1e150 eV, got {self.gamma0} / {self.RRR}")

    @property
    def gamma(self) -> float:
        """Effective low-temperature relaxation energy in eV."""
        return self.gamma0 / self.RRR


@dataclass(frozen=True)
class MembraneSpec:
    """Geometry, mechanics, and correction constants of one membrane.

    ``Y_ratio`` is the frequency-squared ratio between the perforated and
    unperforated membrane, ``C1``/``C_hole`` the deflection constants, and
    ``cte_A``/``cte_B`` the coefficients of the cryogenic thermal-expansion
    law ``alpha(T) = A*T + B*T**3``.
    """

    L: float            # side length, m
    h: float            # membrane thickness, m
    d: float            # plate separation, m
    sigma: float        # tensile stress, Pa
    rho: float          # density, kg/m^3
    C1: float = 3.45
    C_hole: float = 1.086
    Y_ratio: float = 0.923
    cte_A: float = 0.0  # 1/K^2
    cte_B: float = 0.0  # 1/K^4

    def __post_init__(self):
        _require_finite(self)
        for name in ("L", "h", "d", "sigma", "rho"):
            _require(getattr(self, name) > 0, f"{name} must be > 0")
        _require(0.0 < self.Y_ratio <= 1.0, "Y_ratio must be in (0, 1]")

    @property
    def areal_density(self) -> float:
        """Mass per unit area ``rho * h`` in kg/m^2."""
        return self.rho * self.h


def small_gap_membrane() -> MembraneSpec:
    """Canonical 190 nm gap device."""
    return MembraneSpec(
        L=709e-6, h=155e-9, d=190e-9, sigma=677e6, rho=4992.0,
        cte_A=2.001e-10, cte_B=9.159e-13,
    )


def big_gap_membrane() -> MembraneSpec:
    """Canonical 1213 nm gap reference device."""
    return MembraneSpec(
        L=709e-6, h=155e-9, d=1213e-9, sigma=683e6, rho=5332.0,
        cte_A=4.289e-10, cte_B=3.181e-13,
    )


class Basis(enum.Enum):
    """Frequency-squared basis the FEM conversion factors apply to."""

    ANGULAR_SQUARED = "angular-squared"   # factors multiply d(omega^2), (rad/s)^2
    LINEAR_SQUARED = "linear-squared"     # factors multiply d(f^2), Hz^2


@dataclass(frozen=True)
class ConversionFactors:
    """Externally supplied FEM-derived linear maps from a frequency-squared
    shift to force / pressure / center-deflection changes.

    All three factors share one basis, which must be declared explicitly:
    there is no physically safe default because the two readings differ by
    ``(2 pi)**2``.
    """

    force_per_w2: float       # N per (basis unit)
    pressure_per_w2: float    # Pa per (basis unit)
    deflection_per_w2: float  # m per (basis unit)
    basis: Basis

    def __post_init__(self):
        _require_finite(self)
        if not isinstance(self.basis, Basis):
            raise ValueError("basis must be declared as a Basis member")


# --- flat key=value configuration files -------------------------------------
#
# The one map from record fields to file keys (units in the key name where
# ambiguous); ``from_config`` reads a record through it and
# ``config_items`` writes one.

_FILE_KEYS = {
    SuperconductorParams: {
        "Omega": "Omega_eV", "gamma0": "gamma0_eV", "RRR": "RRR", "Tc": "Tc_K",
        "c1": "c1", "c2": "c2", "c3": "c3",
    },
    MembraneSpec: {
        "L": "L_m", "h": "h_m", "d": "d_m", "sigma": "sigma_Pa", "rho": "rho_kgm3",
        "C1": "C1", "C_hole": "C_hole", "Y_ratio": "Y_ratio",
        "cte_A": "cte_A_perK2", "cte_B": "cte_B_perK4",
    },
    ConversionFactors: {
        "force_per_w2": "force_per_w2_N", "pressure_per_w2": "pressure_per_w2_Pa",
        "deflection_per_w2": "deflection_per_w2_m",
        "basis": "basis",   # "angular-squared" | "linear-squared"
    },
}


def read_config(path) -> dict:
    """Parse a flat ``key = value`` file; ``#`` starts a comment."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"empty key or value in {raw!r}", line=lineno)
        out[key] = value
    return out


def read_csv(path, *headers: tuple[str, ...]) -> list[tuple[int, tuple[float, ...]]]:
    """Read a numeric CSV file whose first line is exactly one of ``headers``.

    Blank lines are skipped; every other row must hold one number per
    header column.  Returns ``(line, values)`` pairs so callers can report
    a rejected record against the line it came from.  Every
    :class:`ParseError` names the offending line.
    """
    path = Path(path)
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(h.strip() for h in next(reader, ()))
        if header not in headers:
            expected = " or ".join(",".join(h) for h in headers)
            raise ParseError(f"expected header {expected}, got {','.join(header)!r}",
                             line=1)
        for lineno, row in enumerate(reader, start=2):
            if all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 line=lineno)
            try:
                values = tuple(float(cell) for cell in row)
                if not all(map(math.isfinite, values)):
                    raise ValueError
            except ValueError:
                raise ParseError(f"non-numeric or non-finite field in {row!r}",
                                 line=lineno) from None
            rows.append((lineno, values))
    if not rows:
        raise ParseError(f"{path.name} contains no data rows", line=2)
    return rows


def from_config(cls, config: dict):
    """Build a ``cls`` record from the file keys in ``config``.

    Keys of other records are ignored and a missing key takes the field's
    default.  A missing key without a default, a value that does not
    parse, and a value the record rejects are each a :class:`ParseError`.
    """
    keys, picked = _FILE_KEYS[cls], {}
    for f in fields(cls):
        key = keys[f.name]
        if key not in config:
            if f.default is MISSING:
                raise ParseError(f"configuration is missing key {key!r}")
            continue
        parse, expected = ((Basis, f"one of {[b.value for b in Basis]}")
                           if f.type == "Basis" else (float, "a number"))
        try:
            picked[f.name] = parse(config[key])
        except ValueError:
            raise ParseError(f"key {key!r} is not {expected}: {config[key]!r}") from None
    try:
        return cls(**picked)
    except ValueError as exc:  # a message "<field> must ..." names its file key
        key = keys.get(str(exc).split(" must ", 1)[0])
        raise ParseError(f"key {key!r}: {exc}" if key else str(exc)) from None


def config_items(obj) -> list[tuple[str, str]]:
    """``(file key, text)`` pairs of a record, in table order.

    Floats are written with ``repr`` so a read-back reproduces the record
    bit-exactly.
    """
    if type(obj) not in _FILE_KEYS:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    items = []
    for name, key in _FILE_KEYS[type(obj)].items():
        value = getattr(obj, name)
        items.append((key, value.value if isinstance(value, Basis) else repr(value)))
    return items
