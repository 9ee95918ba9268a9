"""Tensioned-membrane mechanics: the measured temperature sweep, resonance frequency,
frequency-shift / pressure-gradient conversion, the backgate-voltage (LCPD) parabola
fit, static deflection, thermal expansion, and the frequency-noise floor.

The effective stiffness produced by a separation-dependent external pressure carries
pressure-gradient units (Pa/m); it is never stored as a N/m spring constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.exceptions import RankWarning

from .errors import FitError, ParseError
from .physcore import CONSTANTS, MembraneSpec, _finite_pairs, read_csv

__all__ = [
    "Sweep",
    "load_sweep_csv",
    "fundamental_frequency",
    "dw2_from_gradient",
    "gradient_from_dw2",
    "predicted_frequency_jump",
    "LcpdResult",
    "lcpd_fit",
    "static_deflection",
    "cte_alpha",
    "frequency_noise",
]


@dataclass(frozen=True, eq=False)  # array fields: equal only to itself
class Sweep:
    """A temperature sweep as three read-only float columns, an element per point in the
    order measured; a scalar sigma_f is every point's.  The first point that is not finite
    with T, f > 0 and sigma_f >= 0 is refused by the first of those rules it breaks, and
    the error's ``point`` is its index."""

    T: np.ndarray              # K
    f: np.ndarray              # Hz
    sigma_f: np.ndarray = 0.0  # Hz; 0 for a point without an uncertainty

    def __post_init__(self):
        T = np.array(self.T, dtype=float)
        columns = np.array([T, self.f, np.full_like(T, self.sigma_f)])  # refuses two lengths
        columns.setflags(write=False)  # and so each row
        vars(self).update(zip(("T", "f", "sigma_f"), columns))  # frozen: no __setattr__
        T, f, sigma_f = columns
        broken = np.vstack([~np.isfinite(columns), T <= 0.0, f <= 0.0, sigma_f < 0.0])
        for i in np.flatnonzero(broken.any(axis=0))[:1].tolist():  # the first bad point
            k = int(np.argmax(broken[:, i]))  # the first of the rules, in order, it breaks
            rule = ("finite", "finite", "finite", "> 0", "> 0", ">= 0")[k]
            error = ValueError(f"{('T', 'f', 'sigma_f')[k % 3]} must be {rule}, "
                               f"got {columns[k % 3, i].item()}")
            error.point = i
            raise error


_SWEEP_HEADERS = [("T_K", "f_Hz", "sigma_f_Hz", "Q")[:n] for n in (2, 3, 4)]


def load_sweep_csv(path) -> Sweep:
    """Read a sweep from CSV with header ``T_K,f_Hz[,sigma_f_Hz][,Q]``, where ``Q`` is
    ignored; a point :class:`Sweep` refuses is a :class:`ParseError` at its line."""
    rows = read_csv(path, *_SWEEP_HEADERS)
    try:
        return Sweep(*zip(*(values[:3] for _, values in rows)))
    except ValueError as exc:
        raise ParseError(str(exc), line=rows[exc.point][0]) from None


def fundamental_frequency(m: MembraneSpec) -> float:
    """Fundamental-mode frequency in Hz of the perforated membrane:
    ``(1/(sqrt(2) L)) sqrt(sigma/rho) sqrt(Y_ratio)``."""
    return math.sqrt(m.sigma / m.rho) / (math.sqrt(2.0) * m.L) * math.sqrt(m.Y_ratio)


def dw2_from_gradient(Pprime: float, m: MembraneSpec) -> float:
    """Angular-frequency-squared shift from an external pressure gradient:
    ``d(omega^2) = -P' / (rho h)``; a zero gradient gives +0.0."""
    return 0.0 - Pprime / m.areal_density


def gradient_from_dw2(dw2: float, m: MembraneSpec) -> float:
    """Exact inverse of :func:`dw2_from_gradient`."""
    return 0.0 - dw2 * m.areal_density


def predicted_frequency_jump(Pprime_jump: float, m: MembraneSpec, f0: float) -> float:
    """Linear-frequency shift in Hz from a pressure-gradient change.

    ``df = d(omega^2) / (8 pi^2 f0)`` with the sign of the input preserved; a finite
    gradient whose shift overflows is refused.
    """
    if not 0.0 < f0 < math.inf:
        raise ValueError(f"f0 must be finite and > 0, got {f0}")
    value = dw2_from_gradient(Pprime_jump, m) / (8.0 * math.pi ** 2 * f0)
    if math.isfinite(Pprime_jump) and not math.isfinite(value):
        raise ValueError(f"the frequency shift overflows to {value} Hz at f0 = {f0} Hz")
    return value


@dataclass(frozen=True)
class LcpdResult:
    """Parabola-fit output: compensation voltage, stress, and density, with
    linearized one-sigma uncertainties."""

    V0: float
    sigma: float
    rho: float
    V0_err: float
    sigma_err: float
    rho_err: float


def lcpd_fit(points, m: MembraneSpec) -> LcpdResult:
    """Recover (V0, stress, density) from a backgate-voltage sweep.

    Fits ``f^2`` against ``V_bg`` with a concave parabola (linear in the
    model, so no iteration bias): the apex abscissa gives the compensation
    voltage, the apex frequency the stress, and the curvature
    ``-eps0 / (4 pi^2 rho h d^3)`` the density.  The geometry fields
    (L, h, d, Y_ratio) of ``m`` are used; its sigma/rho are ignored.  A point that is
    not finite is refused first, as a ValueError naming its index.
    """
    v, f = _finite_pairs(points, ("V_volt", "f_Hz")).T
    if len(v) < 5:
        raise FitError(f"need at least 5 points, got {len(v)}")
    if len(np.unique(v)) < 3:
        raise FitError(f"need at least 3 distinct voltages, got {len(np.unique(v))}")
    with np.errstate(over="ignore"):  # libm pow, as Python's ** is; inf is refused below
        f2 = np.float_power(f, 2)
    # a square outside the normal float range is refused: one that read 0 fitted no parabola
    for flow, bad in (("overflows", ~np.isfinite(f2)),
                      ("underflows", (f2 < np.finfo(float).tiny) & (f != 0.0))):
        if bad.any():
            raise ValueError(f"f_Hz squared {flow} at V_volt = {v[bad][0].item()!r}")
    # fit f2 / 2**e against v / 2**s, so that V**2 and the covariance, O(f**4), stay
    # finite; exact powers of two take the results back: v0 ~ 2**s, rho ~ 4**s / 2**e
    e, s = np.frexp(f2.max())[1], np.frexp(np.abs(v).max())[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RankWarning)
        try:
            coeffs, cov = np.polyfit(np.ldexp(v, -s), np.ldexp(f2, -e), 2, cov=True)
        except RankWarning:
            raise FitError("rank-deficient fit: the voltages do not fix a parabola") from None
    a, b, c = coeffs
    if a >= 0.0:
        raise FitError("convex fit: data do not show an electrostatic parabola")
    with np.errstate(all="ignore"):  # an overflow gives inf or nan, refused below
        v0 = np.ldexp(-b / (2.0 * a), s)
        f2_apex = c - b * b / (4.0 * a)
        rho = -CONSTANTS.eps0 / (4.0 * math.pi ** 2 * a * m.h * m.d ** 3)
        sigma = np.ldexp(2.0 * m.L ** 2 * rho * f2_apex / m.Y_ratio, 2 * s)

        # linearized propagation through v0 = -b/2a, rho ~ 1/a, sigma ~ f2_apex/a
        da, db, dc = (math.sqrt(max(cov[i, i], 0.0)) for i in range(3))
        v0_err = np.ldexp(math.hypot(b / (2 * a) * da / a, db / (2 * a)), s)
        rho, rho_err = np.ldexp(rho, 2 * s - e), np.ldexp(rho * da / abs(a), 2 * s - e)
        grad_f2 = math.hypot(dc, (b / (2 * a)) * db) + (b * b / (4 * a * a)) * da
        sigma_err = abs(sigma) * math.hypot(grad_f2 / f2_apex, da / abs(a))
    if not (v.min() < v0 < v.max()):
        raise FitError(f"apex {v0:.4g} V outside the sampled voltage range")
    result = LcpdResult(V0=v0, sigma=sigma, rho=rho,
                        V0_err=v0_err, sigma_err=sigma_err, rho_err=rho_err)
    for name, value in vars(result).items():
        if not math.isfinite(value):
            raise ValueError(f"lcpd fit {name} is not finite: {value}")
    return result


def static_deflection(pressure_law: tuple[float, float], m: MembraneSpec) -> float:
    """Center deflection in m under an attractive power-law pressure.

    ``pressure_law = (C, n)`` describes ``P(d) = C / d^n`` with C <= 0
    (attraction toward the backgate).  High-tension limit:
    ``z0 = C_hole P(d) L^2 / (4 C1 h sigma)``; negative toward the gate.
    """
    amplitude, exponent = pressure_law
    if amplitude > 0.0:
        raise ValueError("repulsive pressure law: amplitude must be <= 0")
    pressure = amplitude / m.d ** exponent
    return m.C_hole * pressure * m.L ** 2 / (4.0 * m.C1 * m.h * m.sigma)


def cte_alpha(T: float, A: float, B: float) -> float:
    """Cryogenic thermal-expansion coefficient ``A T + B T^3`` in 1/K."""
    if T < 0.0:
        raise ValueError(f"T must be >= 0, got {T}")
    return A * T + B * T ** 3


def frequency_noise(f0: float, Q: float, noise_to_signal: float, tau: float) -> float:
    """RMS frequency-noise floor in Hz of a phase-locked resonance readout:
    ``(f0 / 2Q) (N/S) sqrt(1 / (2 pi tau))``."""
    if not (all(0.0 < x < math.inf for x in (f0, Q, tau))
            and 0.0 <= noise_to_signal < math.inf):
        raise ValueError("need finite f0, Q, tau > 0 and a finite noise_to_signal >= 0")
    value = f0 / (2.0 * Q) * noise_to_signal * math.sqrt(1.0 / (2.0 * math.pi * tau))
    if not math.isfinite(value):
        raise ValueError(f"the frequency noise overflows to {value} Hz")
    return value
