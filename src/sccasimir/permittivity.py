"""Dielectric functions at imaginary frequency for normal and
superconducting films.

Three responses are supported, all evaluated at the imaginary frequency
``i*xi`` with ``xi`` an energy in eV:

* Drude:  ``eps = 1 + Omega**2 / (xi*(xi + gamma))``
* plasma: ``eps = 1 + Omega**2 / xi**2``
* BCS:    ``eps = 1 + (Omega**2/xi) * (1/(xi + gamma) + g(xi; T)/xi)``

``g(xi; T)`` is the dimensionless pairing correction to the Drude
response.  Its ``xi -> 0`` limit is the condensate spectral fraction
``w**2 = condensate_fraction(T)``, so the permittivity develops the
plasma-like singularity ``1 + (w*Omega)**2 / xi**2`` below the
transition.  At ``T >= Tc`` the correction is gated off and BCS coincides
with Drude exactly.  Above ``10 Delta(T)`` g is read from Chebyshev tables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import chebinterpolate, chebval

from .physcore import CONSTANTS, SuperconductorParams

__all__ = [
    "ModelKind",
    "DielectricModel",
    "drude",
    "plasma",
    "bcs",
    "bcs_gap",
    "condensate_fraction",
    "effective_plasma_frequency",
    "bcs_g",
    "permittivity_iw",
]

_KB = CONSTANTS.kB_eV


class ModelKind(enum.Enum):
    DRUDE = "drude"
    PLASMA = "plasma"
    BCS = "bcs"


@dataclass(frozen=True)
class DielectricModel:
    """Tagged choice of optical response with its film parameters."""

    kind: ModelKind
    params: SuperconductorParams


def drude(params: SuperconductorParams = SuperconductorParams()) -> DielectricModel:
    return DielectricModel(ModelKind.DRUDE, params)


def plasma(params: SuperconductorParams = SuperconductorParams()) -> DielectricModel:
    return DielectricModel(ModelKind.PLASMA, params)


def bcs(params: SuperconductorParams = SuperconductorParams()) -> DielectricModel:
    return DielectricModel(ModelKind.BCS, params)


def bcs_gap(T: float, p: SuperconductorParams) -> float:
    """Closed-form temperature-dependent pairing gap in eV.

    ``Delta(T) = c1 kB Tc sqrt(1 - T/Tc) (c2 + c3 T/Tc)``, zero at and
    above the transition.
    """
    if T < 0.0:
        raise ValueError(f"temperature must be >= 0, got {T} K")
    if T >= p.Tc:
        return 0.0
    t = T / p.Tc
    return p.c1 * _KB * p.Tc * math.sqrt(1.0 - t) * (p.c2 + p.c3 * t)


def condensate_fraction(T: float, p: SuperconductorParams) -> float:
    """Fraction of the free-carrier spectral weight sitting in the zero-frequency
    condensate response, in [0, 1]: the fermionic Matsubara series of positive terms
    ``2 pi kB T Sum_{n>=0} Delta**2 / (E_n**2 (E_n + gamma/2))``, ``E_n = hypot(omega_n,
    Delta)``, ``omega_n = pi kB T (2n + 1)`` (Abrikosov & Gor'kov, JETP 8, 1090 (1959);
    Nam, Phys. Rev. 156, 470 (1967)).

    In ``x = omega / Delta``, so that no square overflows, it is the step
    ``h = 2 pi kB T / Delta`` times the sum of ``f(x) = 1 / (e**2 (e + g))``,
    ``e = hypot(x, 1)``, ``g = gamma / (2 Delta)``.  The first 1024 terms are summed; the
    rest is their midpoint Euler-Maclaurin tail (DLMF 2.10(i)), the integral of f from
    ``x_N = 1024 h``, on ``_TAIL_RULE`` in ``asinh(x)``, plus ``h**2 f'(x_N) / 24``.  That
    holds 5.1e-15 relative against 40-digit sums (gamma0 5e-324 to 1e150 eV, T 1e-300 K to
    Tc).  As T -> 0 rounding can lift a clean film's sum two ulps past 1 (gamma0 < 1e-18
    eV), so the value is capped at 1.  ``bcs_g`` misses this xi -> 0 limit of g by 8e-4
    (0.1 K) to 1e-2 (near Tc) relative on the default film: its window is too short.
    """
    if not (0.0 < T < p.Tc):
        raise ValueError(f"superconducting state requires 0 < T < Tc, got {T} K")
    delta = bcs_gap(T, p)
    if not delta > 1e-150 * 2.0 * math.pi * _KB * T:  # h > 1e150: w**2 < 7 zeta(3) / h**2
        return 0.0
    h, g = 2.0 * math.pi * _KB * T / delta, 0.5 * p.gamma / delta
    e2 = (h * _HALF_INTEGERS) ** 2 + 1.0
    head = h * np.sum(1.0 / e2 / (np.sqrt(e2) + g))
    x = h * len(_HALF_INTEGERS)
    c = np.cosh(math.asinh(x) + _TAIL_RULE[0])  # e, and dx = c dtheta
    tail = np.dot(_TAIL_RULE[1], 1.0 / c / (c + g))
    e = math.hypot(x, 1.0)
    slope = -x / e / e / e / (e + g) * (2.0 / e + 1.0 / (e + g))  # f'(x_N)
    return min(float(head + tail + h * h / 24.0 * slope), 1.0)


def effective_plasma_frequency(T: float, p: SuperconductorParams) -> float:
    """Static effective plasma energy in eV: ``w(T)*Omega`` below the
    transition, with ``w**2 = condensate_fraction(T)``, and 0 at and above
    it (closed gap carries no condensate)."""
    if T >= p.Tc:
        return 0.0
    return math.sqrt(condensate_fraction(T, p)) * p.Omega


# every composite rule's 16 Gauss-Legendre nodes, shifted onto [0, 2], and weights
_SHIFTED, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_SHIFTED += 1.0
# a / b, raising FloatingPointError where it would warn of a zero divisor, inf or nan
_raising_divide = np.errstate(divide="raise", over="raise", invalid="raise")(np.divide)


# nodes and weights of every composite Gauss-Legendre rule: 16 nodes on each [left, right]
def _composite_rule(left, right) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * (right - left)[:, None]
    return (left[:, None] + half * _SHIFTED).ravel(), (half * _WEIGHTS).ravel()


def _doubling_panels(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0, b]: a first panel
    [0, a], then panels as wide as their distance from 0, the last ending at b."""
    n = math.ceil(math.log2(b / a))
    edges = np.concatenate(([0.0], np.ldexp(a, np.arange(max(n, 0))), [b]))
    return _composite_rule(edges[:-1], edges[1:])


# the condensate series' summed terms as n + 1/2, and its tail's nodes theta - theta_N and
# weights: past 20 panels of width 2 its integrand 1 / (cosh (cosh + g)) falls by e**40
_HALF_INTEGERS = np.arange(1024) + 0.5
_TAIL_RULE = _composite_rule(np.arange(0.0, 40.0, 2.0), np.arange(2.0, 42.0, 2.0))


def bcs_g(xi: float, T: float, p: SuperconductorParams) -> float:
    """Dimensionless pairing correction ``g(xi; T)`` to the Drude response.

    The epsilon integral is folded onto [0, inf) and doubled using the even symmetry of
    the integrand, then truncated at ``max(200 Delta, 200 xi, 50 kB T)``.  The window is
    covered by a fixed composite Gauss-Legendre rule with 16 nodes per panel: a first
    panel [0, a] with ``a = min(Delta, sqrt(Delta xi)) / 4``, then panels that double in
    width, the last one ending at the cut-off.  The integrand is evaluated once, as one
    array over all nodes.  Returns 0 at and above the transition.  ``xi`` > 0 is in eV
    (the static term is the Lifshitz module's) and ``T`` >= 0 in K.  Pure and uncached:
    ``permittivity_iw`` calls it under ``10 Delta`` and at the nodes of its tables above.
    """
    if xi <= 0.0:
        raise ValueError(f"bcs_g requires xi > 0, got {xi}")
    delta = bcs_gap(T, p)
    if delta == 0.0:
        return 0.0
    kT = _KB * T
    emax = max(200.0 * delta, 200.0 * xi, 50.0 * kT)
    # the largest products below, qp (eps2 - w*w) and w ap, are under 4 emax r**2
    r = 2.0 * emax + p.gamma
    if 4.0 * emax * r * r == math.inf:
        raise ValueError(f"pairing kernel's products overflow at xi = {xi:.3g} eV: window "
                         f"{emax:.3g} eV, relaxation energy {p.gamma:.3g} eV")
    # the first panel resolves the narrow sqrt(delta*xi) layer that carries the condensate
    # weight at small xi; it is refused where delta*xi underflows or emax / first overflows
    first = 0.25 * min(delta, math.sqrt(delta * xi))
    if first == 0.0 or emax / first == math.inf:
        raise ValueError(f"pairing kernel's first panel underflows to {first:.3g} eV at "
                         f"xi = {xi:.3g} eV, gap {delta:.3g} eV")
    eps, weights = _doubling_panels(first, emax)

    e_qp, eps2 = np.hypot(eps, delta), eps * eps
    z = e_qp + 1j * xi
    # qp**2 = z**2 - delta**2, whose real part e_qp**2 - xi**2 - delta**2 is eps**2 - xi**2
    # without the cancellation that loses the xi -> 0 plateau; the principal-branch sqrt
    # keeps Re >= 0, which makes Re[G+] decay at large eps and the integral converge
    qp = z * z
    qp.real = eps2 - xi * xi
    qp = np.sqrt(qp)
    ap = e_qp * z + delta * delta
    w = qp + 1j * p.gamma
    try:  # with xi and gamma both tiny, qp (eps2 - w*w) underflows
        g_plus = _raising_divide(eps2 * qp + w * ap, qp * (eps2 - w * w))
    except FloatingPointError:
        raise ValueError(f"pairing kernel denominator underflows at xi = {xi:.3g} eV, "
                         f"T = {T:.3g} K, relaxation energy {p.gamma:.3g} eV") from None
    # tanh(u) rounds to 1.0 above 19.1: clipping u at 20 keeps it finite at subnormal kT
    th = 1.0 if kT == 0.0 else np.tanh(np.minimum(e_qp, 40.0 * kT) / (2.0 * kT))
    return 2.0 * float(np.dot(weights, th / e_qp * g_plus.real))


@lru_cache(maxsize=256)
def _g_decade(T: float, p: SuperconductorParams, k: int) -> tuple[float, ...]:
    """16-node Chebyshev coefficients of ``g xi**2`` on [1, 10] 10**k xi_c, xi_c = 10 Delta."""
    def h(s):  # looks bcs_g up in the module, so a spy that replaces it sees each call
        with np.errstate(over="ignore"):  # a node past the float range is inf: bcs_g refuses it
            xi = 10.0 * bcs_gap(T, p) * 10.0 ** (k + 0.5 * (s + 1.0))
        return np.array([bcs_g(v, T, p) * v * v for v in xi.tolist()])
    return tuple(chebinterpolate(h, 15).tolist())  # a cosine sum: no least squares


def permittivity_iw(model: DielectricModel, xi, T: float) -> float | np.ndarray:
    """Dielectric function at imaginary frequency ``i*xi``; real and >= 1.

    An array ``xi`` gives one value per energy, as scalar calls do, bit for bit.
    ``T`` only matters for BCS: below Tc, g is ``bcs_g`` under ``10 Delta(T)`` and
    read from ``_g_decade`` above; at and above Tc BCS is Drude, bit for bit.
    """
    x = np.asarray(xi, dtype=float)
    if (x <= 0.0).any():
        raise ValueError(f"permittivity requires xi > 0, got {x.min()}")
    p = model.params
    paired = model.kind is ModelKind.BCS and bcs_gap(T, p) != 0.0
    if paired:
        u = np.log10(x) - math.log10(10.0 * bcs_gap(T, p))  # log10(xi / xi_c)
        k, g = np.floor(u), np.zeros_like(u)
        g[u < 0.0] = [bcs_g(v, T, p) for v in x[u < 0.0].tolist()]
        for j in set(k[u >= 0.0].tolist()):  # one Chebyshev table per decade
            on = k == j
            g[on] = chebval(2.0 * (u[on] - j) - 1.0, _g_decade(T, p, int(j))) / x[on] ** 2
    with np.errstate(all="ignore"):  # tiny energies overflow to inf, silently
        if model.kind is ModelKind.PLASMA:
            r = p.Omega / x  # r * r overflows to inf where ** would raise
            eps = 1.0 + r * r
        elif paired:
            eps = 1.0 + (p.Omega ** 2 / x) * (1.0 / (x + p.gamma) + g / x)
        else:
            eps = 1.0 + p.Omega ** 2 / (x * (x + p.gamma))
    return float(eps) if x.ndim == 0 else eps
