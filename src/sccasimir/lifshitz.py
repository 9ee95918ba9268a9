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
form one series, for every prescription, with the model's dynamic permittivity.

Negative pressure means attraction; the gradient of an attractive
power-law pressure is positive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .physcore import CONSTANTS, SuperconductorParams, matsubara_frequency
from .permittivity import (
    DielectricModel,
    bcs,
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
# (term, node) pairs per block of l >= 1 terms, so 128 terms on the finest rule (48
# nodes) and 768 on 8; up to a block less one past the stop are dropped.  8192 or 12288
# overran into pairing-kernel decades no sum reads (16 or 32 bcs_g calls more)
_PAIRS = 6144


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
    """Stopping rule and cap of the Matsubara sum: 3 terms in a row below ``term_stop_rel`` of
    the running total of the ``l >= 1`` series from the static TM term, shared by every
    prescription, stop it.  No index above the cap is evaluated, and a sum that stops with
    ``truncation_bound >= 1`` is not converged.  Its momentum integrals take no tolerance:
    each is a fixed rule (``_RULES``), checked to 1e-9 against adaptive quadrature."""

    term_stop_rel: float = 1e-10     # per-term stopping ratio
    max_matsubara: int = 100_000     # hard cap on the mode index

    def __post_init__(self):
        # a ratio of 1 or more marks every term small
        if not 0.0 < self.term_stop_rel < 1.0:
            raise ValueError(f"term_stop_rel must be in (0, 1), got {self.term_stop_rel}")
        if self.max_matsubara < 1:
            raise ValueError("max_matsubara must be >= 1")


def _check_d_t(d: float, T: float) -> None:
    # d**4 divides the gradient; the product overflows to inf where ** raises
    if not (d > 0.0 and 0.0 < d * d * d * d < math.inf):
        raise ValueError(f"separation must have 0 < d**4 < inf, got {d} m")
    # far below it the Matsubara energies are subnormal
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


# (r_te, r_tm) from q and x = xi/hbar_c, overwriting an array q to keep a
# block's temporaries few; vacuum gives 0 as sqrt(q*q) == q
def _fresnel(epsilon, q, x):
    s = np.sqrt(q * q + (epsilon - 1.0) * x * x)
    r_te = (q - s) / (q + s)
    q *= epsilon
    r_tm = q - s
    q += s
    r_tm /= q
    return r_te, r_tm


# static TE coefficient (k - hypot(k, kp)) / (k + hypot(k, kp)) without the cancellation
# that loses it at k >> kp, and squaring a ratio <= 1, so nothing overflows; scalars or arrays
def _static_te(k, kp):
    return -(kp / (k + np.hypot(k, kp))) ** 2


# static TM integrals with unit reflection, t = exp(-y): Int y^2 t/(1-t) dy
# = 2 zeta(3) and Int y^3 t/(1-t)^2 dy = 6 zeta(3).  Half of one starts the
# l >= 1 series that every prescription shares, so its universality is exact.
_STATIC_TM = {2: 2.0 * CONSTANTS.zeta3, 3: 6.0 * CONSTANTS.zeta3}


# n Gauss-Legendre nodes x and P_n'(x): Newton's method on the Legendre recurrence from
# Tricomi's estimate, good to 2e-5.  Against 40 digits, numpy's leggauss weights are off by
# 7e-13 (40 nodes) and 1.3e-12 (48), these by 2e-14 and 1.3e-13; its eigensolve costs RSS too
def _gauss_legendre(n: int):
    x = -(1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(4):  # quadratic convergence: the last step leaves dp at the roots
        p0, p1 = 1.0, x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (p0 - x * p1) / (1.0 - x * x)
        x = x - p1 / dp
    return x, dp


# the rule (x, dp) in s = log(1 + u/y_lo) on [0, log(1 + 50/y_lo)], as (nodes, weights) in u
def _graded(y_lo: float, rule):
    (x, dp), span = rule, np.log1p(_Y_SPAN / y_lo)
    s = 0.5 * span * (x + 1.0)
    return y_lo * np.expm1(s), y_lo * np.exp(s) * span / ((1.0 - x * x) * dp * dp)


# (nodes, weights) in u = y - y0 for a first y0 in [_RULE_STARTS[i-1], _RULE_STARTS[i]).
# Below 0.032, 0.256, 1.024 and 3, 48, 40, 32 and 24 nodes graded in s from y_lo = 2e-3,
# 0.032, 0.256 and 1.024.  At u = -y0, r**2 = 1, so y**power cancels the Bose pole, and the
# Fresnel branch points lie near Im s = pi/2: the rule converges at a rate set by log(1 +
# 50/y_lo), not by y0 (Trefethen, ATAP ch. 19), so the first serves y0 below 2e-3 too
# (checked from 1e-9).  From 3 on the integrand is smooth times exp(-u): 24, 16, 12 and 8
# Gauss-Laguerre nodes from 3, 4, 6 and 16, weights times exp(u) (DLMF 3.5(v)).  Worst seen
# against adaptive quadrature: 1.1e-11 graded (48 nodes), 1.3e-11 Laguerre (12 at 6)
_RULE_STARTS = np.array([0.032, 0.256, 1.024, 3.0, 4.0, 6.0, 16.0])
_RULES = [_graded(y_lo, _gauss_legendre(n)) for y_lo, n in (
    (2e-3, 48), (0.032, 40), (0.256, 32), (1.024, 24))] + [
    (u, w * np.exp(u)) for u, w in map(np.polynomial.laguerre.laggauss, (24, 16, 12, 8))]
_STATIC_RULE = _gauss_legendre(80)  # graded at each call by _static_te_integral


def _momentum_rule(d: float, xi_first: float):
    """The rule of a block of ``l >= 1`` terms, chosen by its first energy."""
    return _RULES[np.searchsorted(_RULE_STARTS, 2.0 * d * (float(xi_first) / _HBAR_C), "right")]


# y^power Sum_r t/(1 - t)^(power - 1), t = r^2 exp(-y): every term's
# integrand, computed in place in the reflection arrays, which it overwrites
def _integrand(y, power: int, *reflections):
    e = np.exp(-y)
    for t in reflections:
        t *= t
        t *= e
        t /= (1.0 - t) ** (power - 1)
    return np.multiply(y ** power, sum(reflections[1:], reflections[0]), out=e)


def _static_te_integral(d: float, omega_eff: float, power: int) -> float:
    """Momentum integral of the static TE term over ``[0, 50]`` on one fixed rule in ``y``:
    ``_STATIC_RULE``, 80 Gauss-Legendre nodes graded in ``s = log(1 + y/y_lo)`` from ``y_lo =
    min(1e-3, y_p / 4)``, with ``y_p = 2 d omega_eff / hbar_c`` the condensate layer where the
    reflection switches on.  Against adaptive quadrature at ``epsrel`` 1e-13 it agrees to 1e-9
    relative for d in [50 nm, 5 um], both powers, and ``omega_eff`` from 0.1 K to 1e-13 K below
    Tc up to 1e4 eV."""
    if omega_eff == 0.0:
        return 0.0
    y_p = 2.0 * d * omega_eff / _HBAR_C
    # below y_p = 1e-300, 50 / y_lo nears overflow; an infinite y_p gives nan
    if y_p > 1e-300:
        y, weights = _graded(min(1e-3, 0.25 * y_p), _STATIC_RULE)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = float(np.dot(weights, _integrand(y, power, _static_te(y, y_p))))
        if math.isfinite(term):
            return term
    raise ValueError(f"static TE term is not finite at d = {d} m, "
                     f"omega_eff = {omega_eff} eV")


def _dynamic_integrals(d: float, xi, eps, power: int, nodes, weights) -> np.ndarray:
    """Momentum integrals of the ``l >= 1`` terms at energies ``xi`` with permittivities
    ``eps``, in ``u = y - y0`` on the rule ``(nodes, weights)`` that the photon edge ``y0``
    of ``xi[0]`` picks (``_momentum_rule``).  Against adaptive quadrature at ``epsrel`` 1e-13
    it agrees to 1e-9 relative (worst seen 1.5e-11) for d in [50 nm, 5 um], T in [0.1, 20] K,
    Drude, plasma and BCS responses of dirty and clean films, both powers, ``y0`` up to 50
    (200 on the Laguerre rules) and the last term of a full block.  A term that overflows (the
    permittivity or ``eps * q`` at tiny T, or ``y**power`` at huge T) is non-finite, quietly."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = xi[:, None] / _HBAR_C
        y = 2.0 * d * x + nodes
        terms = _integrand(y, power, *_fresnel(eps[:, None], y * (0.5 / d), x))
        # each row in one order, unlike a BLAS matvec: no bit depends on where a block starts
        return np.einsum("ij,j->i", terms, weights)


def _static_te_omega(spec: LifshitzSpec) -> float:
    """Effective plasma energy feeding the static TE coefficient: the bare one for
    plasma-plasma, and for plasma-bcs at and above Tc; otherwise the weighted one,
    which is zero (no static TE reflection) at and above Tc."""
    p, approach = spec.model.params, spec.approach
    if approach is ZeroFreqApproach.PLASMA_PLASMA or (
            approach is ZeroFreqApproach.PLASMA_BCS and spec.T >= p.Tc):
        return p.Omega
    return effective_plasma_frequency(spec.T, p)


# the l >= 1 series of the sum times kB T / (8 pi d^(power + 1)) from the static TM term, as
# (running total, terms, last term, stopped): one series and one stop for every prescription
@lru_cache(maxsize=16)
def _series(model: DielectricModel, T: float, d: float, power: int, quad: QuadratureConfig):
    pref = CONSTANTS.kB_J * T / (8.0 * math.pi * d ** (power + 1))
    rel, tol = quad.term_stop_rel, _ABS_TOL_PRESSURE if power == 2 else -math.inf  # P only
    total, window, stops, l = 0.5 * _STATIC_TM[power], np.zeros(2, bool), [], 0
    while not len(stops) and l < quad.max_matsubara:
        nodes, weights = _momentum_rule(d, matsubara_frequency(l + 1, T))
        xi = matsubara_frequency(np.arange(l + 1, min(l + _PAIRS // len(nodes),
                                                      quad.max_matsubara) + 1), T)
        block = _dynamic_integrals(d, xi, permittivity_iw(model, xi, T), power, nodes, weights)
        if not np.isfinite(block).all():
            raise ValueError(f"Matsubara terms overflow at T = {T} K, d = {d} m")
        # sequential running totals, as term by term, so no value depends on the blocks; a
        # stop ends a run of 3 small terms among this block's terms and the two before them
        totals, size = np.cumsum(np.append(total, block))[1:], np.abs(block)
        window = np.append(window[-2:], (size <= rel * np.abs(totals)) | (pref * size <= tol))
        stops = np.flatnonzero(window[:-2] & window[1:-1] & window[2:])
        n = int(stops[0]) + 1 if len(stops) else len(size)
        total, last = float(totals[n - 1]), float(size[n - 1])
        l += n
    return total, l, last, bool(len(stops))


# the sum times -kB T / (8 pi d^3) (power 2, P) or +kB T / (8 pi d^4) (power 3, P'): the
# shared l >= 1 series plus the prescription's static TE term
def _matsubara_sum(spec: LifshitzSpec, power: int) -> LifshitzDetail:
    pref = CONSTANTS.kB_J * spec.T / (8.0 * math.pi * spec.d ** (power + 1))
    te = 0.5 * _static_te_integral(spec.d, _static_te_omega(spec), power)
    series, l, last, stopped = _series(spec.model, spec.T, spec.d, power, spec.quad)
    total, tm = series + te, 0.5 * _STATIC_TM[power]
    achieved = last / abs(total) if total != 0.0 else math.inf
    detail = LifshitzDetail((-pref if power == 2 else pref) * total, l, tm + te, series - tm,
                            last, 10.0 * achieved)
    # _ABS_TOL_PRESSURE can stop a sum whose last term is still >= 10% of it
    if not stopped or detail.truncation_bound >= 1.0:
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

    Evaluates ``P'(d, Tc + dT)`` minus ``P'(d, Tc - dT)`` in the chosen approach, both
    sides with the BCS response, which is Drude at and above the transition; only the
    static TE coefficient differs between approaches.

    ``dT = 0`` is allowed and degenerates to an exact zero for every
    prescription (both sides then sit in the normal state).
    """
    if not (0.0 <= dT < Tc):
        raise ValueError(f"need 0 <= dT < Tc, got dT={dT}, Tc={Tc}")
    params = replace(p, Tc=Tc)
    above, below = (LifshitzSpec(d=d, T=T, model=bcs(params), approach=approach,
                                 quad=quad_cfg) for T in (Tc + dT, Tc - dT))
    return casimir_pressure_gradient(above) - casimir_pressure_gradient(below)
