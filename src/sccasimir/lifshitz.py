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

import numpy as np

from .errors import ConvergenceError
from .physcore import CONSTANTS, SuperconductorParams, matsubara_frequency
from .permittivity import (
    DielectricModel,
    _doubling_panels,
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
# Pa; a pressure term this small counts as small whatever the sum
_ABS_TOL_PRESSURE = 1e-9
# Matsubara indices per array evaluation; up to _BLOCK - 1 terms past the
# stop are dropped, and larger blocks' temporaries no longer fit in cache
_BLOCK = 32


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
    """Stopping rule and cap of the Matsubara sum: no index above the cap
    is evaluated, and a sum that stops with ``truncation_bound >= 1`` is
    not converged.  Its momentum integrals take no tolerance: each is one
    fixed Gauss-Legendre rule, the same 136 nodes for every ``l >= 1`` term
    and, unless its condensate layer is thin, the static TE term
    (``_dynamic_integrals``, ``_static_te_integral``); both are checked to
    1e-9 against adaptive quadrature."""

    term_stop_rel: float = 1e-10     # per-term stopping ratio
    max_matsubara: int = 100_000     # hard cap on the mode index

    def __post_init__(self):
        if not 0.0 < self.term_stop_rel < math.inf:
            raise ValueError(f"term_stop_rel must be finite and > 0, "
                             f"got {self.term_stop_rel}")
        if self.max_matsubara < 1:
            raise ValueError("max_matsubara must be >= 1")


# the separation and temperature checks of LifshitzSpec and classical_terms
def _check_d_t(d: float, T: float) -> None:
    # d**4 divides the gradient; the product overflows to inf where ** raises
    if not (d > 0.0 and 0.0 < d * d * d * d < math.inf):
        raise ValueError(f"separation must have 0 < d**4 < inf, got {d} m")
    # at 1.4e-301 K and below, bcs_g and the condensate fraction overflow
    # with warnings or tracebacks (a log grid found 1.6e-301 K clean)
    if not 1e-300 <= T < math.inf:
        raise ValueError(f"temperature must be finite and >= 1e-300 K, got {T} K")


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
        _check_d_t(self.d, self.T)


@dataclass(frozen=True)
class LifshitzDetail:
    """Value and diagnostics of a Matsubara sum, also carried by a ConvergenceError."""

    value: float            # Pa (pressure) or Pa/m (gradient)
    n_terms: int            # number of l >= 1 terms summed
    zero_term: float        # dimensionless l = 0 contribution (half weight)
    dynamic_sum: float      # dimensionless sum of the l >= 1 terms
    last_term: float        # magnitude of the final l >= 1 term
    truncation_bound: float  # relative truncation estimate (10x last term)


# (r_te, r_tm) from q and x = xi/hbar_c; vacuum gives 0 as sqrt(q*q) == q
def _fresnel(epsilon, q, x):
    s = np.sqrt(q * q + (epsilon - 1.0) * x * x)
    eq = epsilon * q
    return (q - s) / (q + s), (eq - s) / (eq + s)


# static TE coefficient (k - hypot(k, kp)) / (k + hypot(k, kp)) without the
# cancellation that loses the small coefficient at k >> kp; scalars or arrays
def _static_te(k, kp):
    return -kp * kp / (k + np.hypot(k, kp)) ** 2


# static TM integrals with unit reflection, t = exp(-y): Int y^2 t/(1-t) dy
# = 2 zeta(3) and Int y^3 t/(1-t)^2 dy = 6 zeta(3).  Every prescription
# shares them, so the universality of the static TM term is exact.
_STATIC_TM = {2: 2.0 * CONSTANTS.zeta3, 3: 6.0 * CONSTANTS.zeta3}


# the first panel sits at the photon edge, next to the branch point of s
_U_NODES, _U_WEIGHTS = _doubling_panels(1e-3, _Y_SPAN, 8)


# y^power Sum_r t/(1 - t)^(power - 1), t = r^2 exp(-y): every term's
# integrand, computed in place in the reflection arrays, which it overwrites
def _integrand(y, power: int, *reflections):
    e = np.exp(-y)
    for t in reflections:
        t *= t
        t *= e
        den = 1.0 - t
        if power == 3:
            den *= den
        t /= den
    return y ** power * sum(reflections[1:], reflections[0])


def _static_te_integral(d: float, omega_eff: float, power: int) -> float:
    """Momentum integral of the static TE term over ``[0, 50]`` on one
    fixed rule in ``y``: 8 Gauss-Legendre nodes per panel, a first panel
    ``[0, min(1e-3, y_p / 4)]`` with ``y_p = 2 d omega_eff / hbar_c`` the
    condensate layer where the reflection switches on, then panels doubling
    in width.  That is the ``l >= 1`` rule for ``y_p >= 4e-3``, and finer
    only near Tc (312 nodes at ``y_p = 1e-9``).  Against adaptive quadrature
    at ``epsrel`` 1e-13 it agrees to 1e-9 relative for d in [50 nm, 5 um],
    both powers, and ``omega_eff`` from 0.1 K to 1e-13 K below Tc up to
    ``Omega = 1e4`` eV."""
    if omega_eff == 0.0:
        return 0.0
    y_p = 2.0 * d * omega_eff / _HBAR_C
    # below y_p = 1e-300 the rule's panel count overflows, and once the
    # squares of y_p underflow, 0/0 and t = 1 give a non-finite term
    if y_p > 1e-300:
        y, weights = _doubling_panels(min(1e-3, 0.25 * y_p), _Y_SPAN, 8)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = float(np.dot(weights, _integrand(y, power, _static_te(y, y_p))))
        if math.isfinite(term):
            return term
    raise ValueError(f"static TE term is not finite at d = {d} m, "
                     f"omega_eff = {omega_eff} eV")


def _dynamic_integrals(d: float, T: float, model: DielectricModel, ls,
                       power: int) -> np.ndarray:
    """Momentum integrals of the ``l >= 1`` terms with Matsubara indices
    ``ls``, each over ``[y0, y0 + 50]`` on one fixed rule in ``u = y - y0``:
    8 Gauss-Legendre nodes per panel, a first panel [0, 1e-3], then panels
    doubling in width (136 nodes).  The energies and the permittivity are
    one array over ``ls``, the Fresnel and momentum arithmetic one
    ``(len(ls) x 136)`` array.  Against adaptive quadrature at ``epsrel``
    1e-13 it agrees to 1e-9 relative (worst seen 1.5e-11) for d in [50 nm,
    5 um], T in [0.1, 20] K, Drude, plasma and BCS responses of dirty and
    clean films, both powers and every ``l`` up to ``y0 = 50``.  Raises ``ValueError``
    when a term overflows: the permittivity or ``eps * q`` at tiny T, or
    ``y**power`` at huge T."""
    xi = matsubara_frequency(ls, T)
    eps = permittivity_iw(model, xi, T)[:, None]
    # an overflow gives a non-finite term, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        x = xi[:, None] / _HBAR_C
        y = 2.0 * d * x + _U_NODES
        terms = _integrand(y, power, *_fresnel(eps, y * (0.5 / d), x)) @ _U_WEIGHTS
    if not np.isfinite(terms).all():
        raise ValueError(f"Matsubara terms overflow at T = {T} K, d = {d} m")
    return terms


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


# the sum times -kB T / (8 pi d^3) (power 2, P) or +kB T / (8 pi d^4) (power 3,
# P'); it stops after 3 terms in a row that are small against the running total
def _matsubara_sum(spec: LifshitzSpec, power: int) -> LifshitzDetail:
    cfg = spec.quad
    pref = CONSTANTS.kB_J * spec.T / (8.0 * math.pi * spec.d ** (power + 1))
    prefactor = -pref if power == 2 else pref
    te0 = _static_te_integral(spec.d, _static_te_omega(spec), power)
    zero = 0.5 * (_STATIC_TM[power] + te0)

    # the absolute tolerance applies to the pressure only
    rel, tol = cfg.term_stop_rel, _ABS_TOL_PRESSURE if power == 2 else -math.inf
    blocks = [np.array([zero])]
    running, consec, last, l = zero, 0, 0.0, 0
    while consec < 3 and l < cfg.max_matsubara:
        block = _dynamic_integrals(spec.d, spec.T, spec.model, np.arange(
            l + 1, min(l + _BLOCK, cfg.max_matsubara) + 1), power)
        for n, term in enumerate(block.tolist(), 1):
            running += term
            last = abs(term)
            small = last <= rel * abs(running) or pref * last <= tol
            consec = consec + 1 if small else 0
            if consec == 3:
                break
        blocks.append(block[:n])
        l += n

    total = math.fsum(np.concatenate(blocks))  # fixed ascending order, compensated
    achieved = last / abs(total) if total != 0.0 else math.inf
    detail = LifshitzDetail(prefactor * total, l, zero, total - zero, last, 10.0 * achieved)
    # _ABS_TOL_PRESSURE can stop a sum whose last term is still >= 10% of it
    if consec < 3 or detail.truncation_bound >= 1.0:
        raise ConvergenceError(f"Matsubara sum not converged after {l} terms "
                               f"(last relative term {achieved:.3e})", detail)
    return detail


def casimir_pressure_detail(spec: LifshitzSpec) -> LifshitzDetail:
    """Casimir pressure in Pa (negative = attraction) with diagnostics."""
    return _matsubara_sum(spec, power=2)


def casimir_pressure(spec: LifshitzSpec) -> float:
    """Casimir pressure in Pa; negative values indicate attraction."""
    return casimir_pressure_detail(spec).value


def casimir_pressure_gradient_detail(spec: LifshitzSpec) -> LifshitzDetail:
    """Separation derivative of the pressure in Pa/m, with diagnostics.

    Evaluated from the closed-form derivative of the Matsubara sum, not by
    numerical differencing; positive for attractive power-law pressures.
    """
    return _matsubara_sum(spec, power=3)


def casimir_pressure_gradient(spec: LifshitzSpec) -> float:
    """Separation derivative of the Casimir pressure, Pa/m."""
    return casimir_pressure_gradient_detail(spec).value


def classical_terms(d: float, T: float) -> tuple[float, float]:
    """Closed-form classical (static transverse-magnetic) contributions.

    Returns ``(P_tm0, Pprime_cl)``: the universal static pressure term
    ``-kB T zeta(3) / (8 pi d^3)`` and its separation derivative
    ``3 kB T zeta(3) / (8 pi d^4)``.
    """
    _check_d_t(d, T)
    amp = CONSTANTS.kB_J * T * CONSTANTS.zeta3 / (8.0 * math.pi)
    return -amp / d ** 3, 3.0 * amp / d ** 4


def local_exponent(spec: LifshitzSpec) -> float:
    """Local power-law exponent ``n = -d dln|P|/dd`` by symmetric
    log-spaced differencing at ``d * 1.01**(+-1)``."""
    step = 1.01
    p_up = casimir_pressure(replace(spec, d=spec.d * step))
    p_dn = casimir_pressure(replace(spec, d=spec.d / step))
    return -(math.log(abs(p_up)) - math.log(abs(p_dn))) / (2.0 * math.log(step))


@dataclass(frozen=True)
class PlatePlate:
    """Parallel-plate geometry: plate area in m^2 and separation in m."""

    area: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.area < math.inf and self.d > 0.0
                and 0.0 < self.d * self.d * self.d * self.d < math.inf):
            raise ValueError(f"need a finite area > 0 and 0 < d**4 < inf, "
                             f"got area={self.area} m^2, d={self.d} m")


@dataclass(frozen=True)
class SpherePlate:
    """Sphere-plate geometry: sphere radius in m and separation in m."""

    radius: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf and self.d > 0.0
                and 0.0 < self.d * self.d * self.d < math.inf):
            raise ValueError(f"need a finite radius > 0 and 0 < d**3 < inf, "
                             f"got radius={self.radius} m, d={self.d} m")


def ideal_casimir_force(geometry) -> float:
    """Zero-temperature force magnitude in N between perfect conductors.

    Plate-plate: ``pi^2 hbar c A / (240 d^4)``; sphere-plate (proximity
    force approximation): ``pi^3 hbar c R / (360 d^3)``.  A force outside
    the normal float range is a ``ValueError``.
    """
    hbar_c = CONSTANTS.hbar_Js * CONSTANTS.c
    if isinstance(geometry, PlatePlate):
        force = math.pi ** 2 * hbar_c * geometry.area / (240.0 * geometry.d ** 4)
    elif isinstance(geometry, SpherePlate):
        force = math.pi ** 3 * hbar_c * geometry.radius / (360.0 * geometry.d ** 3)
    else:
        raise TypeError(f"unsupported geometry {type(geometry).__name__}")
    if not np.finfo(float).tiny <= force < math.inf:
        flow = "underflows" if force < 1.0 else "overflows"
        raise ValueError(f"the ideal force {flow} to {force} N for {geometry}")
    return force


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
