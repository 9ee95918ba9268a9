"""Casimir pressure and pressure gradient between identical parallel slabs.

The pressure is evaluated as a primed Matsubara sum (the ``l = 0`` term
carries weight one half) of a transverse-momentum integral over both field
polarizations.  With the substitution ``y = 2 d q`` the pressure and its
separation derivative take the dimensionless forms

    P  = -(kB T / 8 pi d^3) Sum'_l  Int y^2 [t_a/(1 - t_a) + ...] dy
    P' = +(kB T / 8 pi d^4) Sum'_l  Int y^3 [t_a/(1 - t_a)^2 + ...] dy

where ``t_a = r_a^2 exp(-y)`` and ``r_a`` are the Fresnel reflection
coefficients at imaginary frequency.  The ``l = 0`` transverse-electric
coefficient is prescription dependent (the Drude, plasma, and
superconducting-plasma pairings differ only there); all ``l >= 1`` terms
use the dynamic permittivity of the configured dielectric model.

Negative pressure means attraction; the gradient of an attractive
power-law pressure is positive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from scipy.integrate import quad

from .errors import ConvergenceError
from .physcore import CONSTANTS, SuperconductorParams, matsubara_frequency
from .permittivity import (
    DielectricModel,
    bcs,
    drude,
    effective_plasma_frequency,
    permittivity_iw,
)

__all__ = [
    "ZeroFreqApproach",
    "QuadratureConfig",
    "LifshitzSpec",
    "LifshitzDetail",
    "fresnel_iw",
    "static_te_reflection",
    "casimir_pressure",
    "casimir_pressure_detail",
    "casimir_pressure_gradient",
    "casimir_pressure_gradient_detail",
    "classical_terms",
    "local_exponent",
    "PlatePlate",
    "SpherePlate",
    "ideal_casimir_force",
    "tc_jump",
]

_HBAR_C = CONSTANTS.hbar_c_eVm
# integration span above the lower photon edge; exp(-y) < 2e-22 beyond it
_Y_SPAN = 50.0


class ZeroFreqApproach(enum.Enum):
    """Prescription for the static transverse-electric reflection.

    The choice pairs the normal-state and superconducting-state static
    coefficients; the static transverse-magnetic coefficient is 1 in every
    prescription and all ``l >= 1`` terms are prescription independent.
    """

    DRUDE_BCS = "drude-bcs"
    PLASMA_BCS = "plasma-bcs"
    PLASMA_PLASMA = "plasma-plasma"


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and caps for the Matsubara sum and momentum integrals."""

    rel_tol: float = 1e-8            # per-term integral tolerance
    abs_tol_pressure: float = 1e-9   # Pa; absolute floor, pressure mode only
    max_matsubara: int = 100_000     # hard cap on the mode index
    term_stop_rel: float = 1e-10     # per-term stopping ratio

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol_pressure <= 0 or self.term_stop_rel <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_matsubara < 1:
            raise ValueError("max_matsubara must be >= 1")


@dataclass(frozen=True)
class LifshitzSpec:
    """One pressure evaluation: separation, temperature, optical model,
    zero-frequency prescription, and quadrature controls."""

    d: float
    T: float
    model: DielectricModel
    approach: ZeroFreqApproach = ZeroFreqApproach.PLASMA_BCS
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError(f"separation must be > 0, got {self.d} m")
        if self.T <= 0.0:
            raise ValueError(f"temperature must be > 0, got {self.T} K")


@dataclass(frozen=True)
class LifshitzDetail:
    """Converged value plus summation diagnostics."""

    value: float            # Pa (pressure) or Pa/m (gradient)
    n_terms: int            # number of l >= 1 terms summed
    zero_term: float        # dimensionless l = 0 contribution (half weight)
    dynamic_sum: float      # dimensionless sum of the l >= 1 terms
    last_term: float        # magnitude of the final l >= 1 term
    truncation_bound: float  # relative truncation estimate (10x last term)


def fresnel_iw(epsilon: float, xi: float, k_perp: float) -> tuple[float, float]:
    """Fresnel reflection coefficients ``(r_te, r_tm)`` of a thick slab at
    imaginary frequency.

    ``q = sqrt((xi/hbar_c)^2 + k^2)`` and ``s = sqrt(eps (xi/hbar_c)^2 + k^2)``
    with ``xi`` in eV and ``k_perp`` in 1/m; both coefficients lie in [-1, 1].
    """
    if epsilon < 1.0:
        raise ValueError(f"epsilon must be >= 1, got {epsilon}")
    if xi < 0.0 or k_perp < 0.0:
        raise ValueError("xi and k_perp must be >= 0")
    if xi == 0.0 and k_perp == 0.0:
        raise ValueError("xi and k_perp cannot both vanish")
    x = xi / _HBAR_C
    # same arithmetic form for q and s so vacuum gives exact zeros
    q = math.sqrt(x * x + k_perp * k_perp)
    s = math.sqrt(epsilon * (x * x) + k_perp * k_perp)
    r_te = (q - s) / (q + s)
    r_tm = (epsilon * q - s) / (epsilon * q + s)
    return r_te, r_tm


def static_te_reflection(k_perp: float, omega_eff: float) -> float:
    """Static transverse-electric reflection coefficient, in [-1, 0].

    ``omega_eff`` is the effective plasma energy in eV: the full plasma
    energy for a plasma-prescription normal state, the weighted
    ``w(T)*Omega`` for the superconducting state, and 0 for a Drude normal
    state (which makes the coefficient vanish identically).
    """
    if k_perp < 0.0 or omega_eff < 0.0:
        raise ValueError("k_perp and omega_eff must be >= 0")
    if omega_eff == 0.0:
        return 0.0
    kp = omega_eff / _HBAR_C
    root = math.hypot(k_perp, kp)
    return (k_perp - root) / (k_perp + root)


def _ratio(t: float, power: int) -> float:
    if power == 2:
        return t / (1.0 - t)
    return t / ((1.0 - t) * (1.0 - t))


# static TM integrals with unit reflection, t = exp(-y): Int y^2 t/(1-t) dy
# = 2 zeta(3) and Int y^3 t/(1-t)^2 dy = 6 zeta(3).  Every prescription
# shares them, so the universality of the static TM term is exact.
_STATIC_TM = {2: 2.0 * CONSTANTS.zeta3, 3: 6.0 * CONSTANTS.zeta3}


def _static_te_integral(d: float, omega_eff: float, power: int,
                        cfg: QuadratureConfig) -> float:
    if omega_eff == 0.0:
        return 0.0
    inv_2d = 0.5 / d

    def f(y: float) -> float:
        r = static_te_reflection(y * inv_2d, omega_eff)
        return y ** power * _ratio(r * r * math.exp(-y), power)

    val, _ = quad(f, 0.0, _Y_SPAN, epsabs=0.0, epsrel=cfg.rel_tol, limit=200)
    return val


def _dynamic_integral(d: float, T: float, model: DielectricModel, xi: float,
                      power: int, cfg: QuadratureConfig) -> float:
    eps = permittivity_iw(model, xi, T)
    x = xi / _HBAR_C
    y0 = 2.0 * d * x
    em1_x2 = (eps - 1.0) * x * x
    inv_2d = 0.5 / d

    def f(y: float) -> float:
        q = y * inv_2d
        s = math.sqrt(q * q + em1_x2)
        e = math.exp(-y)
        r_te = (q - s) / (q + s)
        r_tm = (eps * q - s) / (eps * q + s)
        return y ** power * (_ratio(r_te * r_te * e, power)
                             + _ratio(r_tm * r_tm * e, power))

    val, _ = quad(f, y0, y0 + _Y_SPAN, epsabs=0.0, epsrel=cfg.rel_tol, limit=200)
    return val


def _static_te_omega(spec: LifshitzSpec) -> float:
    """Effective plasma energy feeding the static TE coefficient.

    Superconducting side (T < Tc): the weighted plasma energy for the
    Drude- and plasma-paired prescriptions, the bare plasma energy for the
    plasma-plasma prescription.  Normal side (T >= Tc): zero (no static TE
    reflection) for the Drude pairing, the bare plasma energy otherwise.
    """
    p = spec.model.params
    if spec.T < p.Tc:
        if spec.approach is ZeroFreqApproach.PLASMA_PLASMA:
            return p.Omega
        return effective_plasma_frequency(spec.T, p)
    if spec.approach is ZeroFreqApproach.DRUDE_BCS:
        return 0.0
    return p.Omega


def _matsubara_sum(spec: LifshitzSpec, power: int, prefactor: float) -> LifshitzDetail:
    cfg = spec.quad
    te0 = _static_te_integral(spec.d, _static_te_omega(spec), power, cfg)
    zero = 0.5 * (_STATIC_TM[power] + te0)

    terms = [zero]
    running = zero
    consec = 0
    last = 0.0
    l = 0
    converged = False
    while l < cfg.max_matsubara:
        l += 1
        xi = matsubara_frequency(l, spec.T)
        term = _dynamic_integral(spec.d, spec.T, spec.model, xi, power, cfg)
        terms.append(term)
        running += term
        last = abs(term)
        small = last <= cfg.term_stop_rel * abs(running)
        if power == 2 and abs(prefactor) * last <= cfg.abs_tol_pressure:
            small = True
        consec = consec + 1 if small else 0
        if consec >= 3:
            converged = True
            break

    total = math.fsum(terms)  # fixed ascending order, compensated
    achieved = last / abs(total) if total != 0.0 else math.inf
    if not converged:
        raise ConvergenceError(
            f"Matsubara sum not converged after {l} terms "
            f"(last relative term {achieved:.3e})",
            partial=prefactor * total, achieved_rel=achieved, n_terms=l)
    return LifshitzDetail(
        value=prefactor * total,
        n_terms=l,
        zero_term=zero,
        dynamic_sum=total - zero,
        last_term=last,
        truncation_bound=10.0 * achieved,
    )


def casimir_pressure_detail(spec: LifshitzSpec) -> LifshitzDetail:
    """Casimir pressure in Pa (negative = attraction) with diagnostics."""
    pref = CONSTANTS.kB_J * spec.T / (8.0 * math.pi * spec.d ** 3)
    return _matsubara_sum(spec, power=2, prefactor=-pref)


def casimir_pressure(spec: LifshitzSpec) -> float:
    """Casimir pressure in Pa; negative values indicate attraction."""
    return casimir_pressure_detail(spec).value


def casimir_pressure_gradient_detail(spec: LifshitzSpec) -> LifshitzDetail:
    """Separation derivative of the pressure in Pa/m, with diagnostics.

    Evaluated from the closed-form derivative of the Matsubara sum, not by
    numerical differencing; positive for attractive power-law pressures.
    """
    pref = CONSTANTS.kB_J * spec.T / (8.0 * math.pi * spec.d ** 4)
    return _matsubara_sum(spec, power=3, prefactor=pref)


def casimir_pressure_gradient(spec: LifshitzSpec) -> float:
    """Separation derivative of the Casimir pressure, Pa/m."""
    return casimir_pressure_gradient_detail(spec).value


def classical_terms(d: float, T: float) -> tuple[float, float]:
    """Closed-form classical (static transverse-magnetic) contributions.

    Returns ``(P_tm0, Pprime_cl)``: the universal static pressure term
    ``-kB T zeta(3) / (8 pi d^3)`` and its separation derivative
    ``3 kB T zeta(3) / (8 pi d^4)``.
    """
    if d <= 0.0 or T <= 0.0:
        raise ValueError("d and T must be positive")
    amp = CONSTANTS.kB_J * T * CONSTANTS.zeta3 / (8.0 * math.pi)
    return -amp / d ** 3, 3.0 * amp / d ** 4


def local_exponent(spec: LifshitzSpec, step_ratio: float = 1.01) -> float:
    """Local power-law exponent ``n = -d dln|P|/dd`` by symmetric
    log-spaced differencing."""
    if step_ratio <= 1.0:
        raise ValueError("step_ratio must exceed 1")
    p_up = casimir_pressure(replace(spec, d=spec.d * step_ratio))
    p_dn = casimir_pressure(replace(spec, d=spec.d / step_ratio))
    return -(math.log(abs(p_up)) - math.log(abs(p_dn))) / (2.0 * math.log(step_ratio))


@dataclass(frozen=True)
class PlatePlate:
    """Parallel-plate geometry: plate area in m^2 and separation in m."""

    area: float
    d: float

    def __post_init__(self):
        if self.area <= 0.0 or self.d <= 0.0:
            raise ValueError("area and d must be positive")


@dataclass(frozen=True)
class SpherePlate:
    """Sphere-plate geometry: sphere radius in m and separation in m."""

    radius: float
    d: float

    def __post_init__(self):
        if self.radius <= 0.0 or self.d <= 0.0:
            raise ValueError("radius and d must be positive")


def ideal_casimir_force(geometry) -> float:
    """Zero-temperature force magnitude in N between perfect conductors.

    Plate-plate: ``pi^2 hbar c A / (240 d^4)``; sphere-plate (proximity
    force approximation): ``pi^3 hbar c R / (360 d^3)``.
    """
    hbar_c = CONSTANTS.hbar_Js * CONSTANTS.c
    if isinstance(geometry, PlatePlate):
        return math.pi ** 2 * hbar_c * geometry.area / (240.0 * geometry.d ** 4)
    if isinstance(geometry, SpherePlate):
        return math.pi ** 3 * hbar_c * geometry.radius / (360.0 * geometry.d ** 3)
    raise TypeError(f"unsupported geometry {type(geometry).__name__}")


def tc_jump(d: float, Tc: float, dT: float, approach: ZeroFreqApproach,
            p: SuperconductorParams,
            quad_cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Pressure-gradient change across the superconducting transition.

    Evaluates ``P'(d, Tc + dT)`` with the normal-state prescription minus
    ``P'(d, Tc - dT)`` with the superconducting-state prescription of the
    chosen approach.  Every approach uses the Drude response for the
    dynamic terms above the transition and the pairing-corrected response
    below it; only the static transverse-electric coefficient differs.

    ``dT = 0`` is allowed and degenerates to an exact zero for every
    prescription (both sides then sit in the normal state).
    """
    if not (0.0 <= dT < Tc):
        raise ValueError(f"need 0 <= dT < Tc, got dT={dT}, Tc={Tc}")
    params = replace(p, Tc=Tc)
    above = LifshitzSpec(d=d, T=Tc + dT, model=drude(params),
                         approach=approach, quad=quad_cfg)
    below = LifshitzSpec(d=d, T=Tc - dT, model=bcs(params),
                         approach=approach, quad=quad_cfg)
    return casimir_pressure_gradient(above) - casimir_pressure_gradient(below)
