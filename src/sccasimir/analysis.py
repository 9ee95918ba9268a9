"""Data-reduction pipeline: thermal-baseline calibration, differential
small/big-gap subtraction, conversion to physical force and pressure via
externally supplied FEM factors, tunneling-conductance fitting, and
synthetic-sweep generation for end-to-end testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .membrane import SweepRecord, gradient_from_dw2
from .permittivity import _composite_rule
from .physcore import (
    CONSTANTS,
    Basis,
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    _require_finite,
)

__all__ = [
    "CalibratedResiduals",
    "calibrate_thermal",
    "differential_subtract",
    "convert_fem",
    "DynesParams",
    "dynes_density",
    "dynes_conductance",
    "dynes_fit",
    "SweepTruth",
    "generate_sweep",
    "SweepReport",
    "sweep_pipeline",
]

_KB = CONSTANTS.kB_eV
_TC = SuperconductorParams().Tc


@dataclass(frozen=True, eq=False)  # array fields: equal only to itself
class CalibratedResiduals:
    """Frequency-squared residuals from the thermal baseline, one array
    element per input point, in ascending T; the line was fitted over the
    window only, so in-window residuals average to zero by construction."""

    T: np.ndarray          # K
    dw2: np.ndarray        # (rad/s)^2
    sigma: np.ndarray      # (rad/s)^2, one sigma of dw2
    fit_slope: float       # (rad/s)^2 / K
    fit_intercept: float   # (rad/s)^2


def calibrate_thermal(records, window) -> CalibratedResiduals:
    """Remove the elastic (thermal-expansion) trend from a sweep.

    Ordinary least squares of ``omega^2 = (2 pi f)^2`` against T over the
    window; every record is then reported as its residual from that line.
    Per-point uncertainties propagate as ``sigma_w2 = 8 pi^2 f sigma_f``.
    Whether the window sits below a transition is the caller's to check
    (``sweep_pipeline`` does).
    """
    lo, hi = window
    if lo >= hi:
        raise ValueError(f"empty window {window}")
    recs = sorted(records, key=lambda r: r.T)
    if not recs:
        raise ValueError("no records supplied")
    t, f, sigma_f = np.array([(r.T, r.f, r.sigma_f) for r in recs]).T
    fit = (lo <= t) & (t <= hi)
    if fit.sum() < 3:
        raise ValueError(f"need >= 3 points inside the fit window, found {fit.sum()}")
    t_fit = t[fit]
    if t_fit[0] == t_fit[-1]:
        raise ValueError(f"need >= 2 distinct temperatures inside the fit window, "
                         f"all {len(t_fit)} points are at {t_fit[0]} K")
    with np.errstate(over="ignore", invalid="ignore"):  # sigma may be inf; w2, dw2 are checked
        w2 = np.float_power(2.0 * math.pi * f, 2)  # libm pow: Python's ** bit for bit
        sig = 8.0 * math.pi ** 2 * f * sigma_f + 0.0  # + 0.0: a -0.0 sigma_f gives +0.0
        if not np.isfinite(w2).all():
            raise ValueError(f"omega^2 overflows at {t[~np.isfinite(w2)][0]} K")
        slope, intercept = np.polyfit(t_fit, w2[fit], 1)
        dw2 = w2 - (slope * t + intercept)
    if not np.isfinite(dw2).all():
        raise ValueError(f"the baseline residual is not finite at {t[~np.isfinite(dw2)][0]} K")
    return CalibratedResiduals(T=t, dw2=dw2, sigma=sig,
                               fit_slope=float(slope), fit_intercept=float(intercept))


def differential_subtract(small: CalibratedResiduals, big: CalibratedResiduals,
                          combine: str = "add") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-subtract the big-gap residual from the small-gap one.

    The result is ``(T, dw2, sigma)`` arrays at the small-gap points, where
    the big-gap residual is interpolated linearly in T (no extrapolation).
    Uncertainties combine as the small-gap error plus the two bracketing
    big-gap errors summed (``combine="add"``); ``combine="quadrature"`` is
    available for sensitivity studies.
    """
    if combine not in ("add", "quadrature"):
        raise ValueError(f"combine must be 'add' or 'quadrature', got {combine!r}")
    tb, vb, sb = big.T, big.dw2, big.sigma
    if len(tb) < 2:
        raise ValueError("big-gap residual needs >= 2 points to interpolate")
    repeated = tb[1:][np.diff(tb) == 0.0]
    if repeated.size:
        raise ValueError(f"big-gap residual repeats the temperature {repeated[0]} K")
    t, dw2, sig = small.T, small.dw2, small.sigma
    outside = (t < tb[0]) | (t > tb[-1])
    if outside.any():
        raise ValueError(f"small-gap point at {t[outside][0]} K lies outside the big-gap "
                         f"support [{tb[0]}, {tb[-1]}] K")
    hi = np.clip(np.searchsorted(tb, t, side="left"), 1, len(tb) - 1)
    lo = hi - 1
    frac = (t - tb[lo]) / (tb[hi] - tb[lo])
    big_val = vb[lo] + frac * (vb[hi] - vb[lo])
    if combine == "add":
        sig = sig + sb[lo] + sb[hi]
    else:
        with np.errstate(over="ignore"):  # as calibrate_thermal, too large a sigma is inf
            sig = np.sqrt(sum(np.float_power(s, 2) for s in (sig, sb[lo], sb[hi])))
    return t, dw2 - big_val, sig


@dataclass(frozen=True, eq=False)  # array fields: equal only to itself
class FemConversion:
    """Force, pressure, and deflection changes mapped from a
    frequency-squared shift, or one array each from an array of shifts."""

    dF: float  # N
    dP: float  # Pa
    dz: float  # m


def convert_fem(dw2: float, factors: ConversionFactors) -> FemConversion:
    """Apply the FEM-derived linear maps.

    ``dw2`` must already be expressed in the basis the factors were
    computed for (``(rad/s)^2`` or Hz^2); callers convert with
    ``d(omega^2) = 4 pi^2 d(f^2)`` when needed.
    """
    return FemConversion(dF=factors.force_per_w2 * dw2,
                         dP=factors.pressure_per_w2 * dw2,
                         dz=factors.deflection_per_w2 * dw2)


# --- tunneling conductance ----------------------------------------------------


@dataclass(frozen=True)
class DynesParams:
    """Broadened quasiparticle density-of-states parameters (energies in eV)."""

    Delta: float
    gamma: float
    T: float
    A: float = 1.0  # normal-state conductance scale, arbitrary units

    def __post_init__(self):
        for name in ("Delta", "gamma", "T", "A"):  # fits pass NumPy scalars
            object.__setattr__(self, name, float(getattr(self, name)))
        _require_finite(self)
        if self.Delta <= 0.0 or self.gamma <= 0.0:
            raise ValueError("Delta and gamma must be > 0")
        if self.T <= 0.0:
            raise ValueError("T must be > 0")


def dynes_density(E, Delta: float, gamma: float):
    """Broadened quasiparticle density of states, normalized to 1 far from
    the gap; ``E`` may be a scalar or an array.  The magnitude of the real
    part keeps the principal branch continuous across E = 0."""
    z = E - 1j * gamma
    return np.abs((z / np.sqrt(z * z - Delta * Delta)).real)


def dynes_conductance(V, p: DynesParams) -> float | np.ndarray:
    """Thermally broadened tunneling conductance at bias ``V`` (volts).

    ``V`` is a scalar, which gives a ``float``, or an array, which gives one
    value per bias: ``A`` times the broadened density of states convolved
    with the derivative of the Fermi occupation, tending to ``A`` as
    ``|V| -> infinity``.  A call builds one energy rule for all its biases
    (``_energy_rule``), evaluates the density on it once and gets every bias
    from one product of the Fermi-kernel matrix ``K(E + V)`` with the
    weighted density.  Against adaptive quadrature at ``epsrel`` 1e-13 it
    agrees to 1e-12 relative over 33 biases in +-4 Delta, gamma / Delta in
    [1e-6, 0.5], T in [0.05, 8] K.  Through the rule, a value depends on
    the other biases of the call: alone and among 40 others it differs by
    up to 8e-14 relative.  ``kB T`` below 1e-7 of ``max(Delta, |V|)`` is
    refused, as the float spacing of ``E`` would blur the kernel; so is
    ``kB T`` that takes the rule's largest ``|E|``, ``max(Delta, |V|) + 36
    kB T``, to 1e154, as ``E * E`` would overflow near 1.3e154.
    """
    v = np.asarray(V, dtype=float)
    flat = v.ravel()
    kT = _KB * p.T
    scale = float(np.max(np.abs(flat), initial=p.Delta))
    ceiling = min(1e300 * p.gamma, (1e154 - scale) / 36.0)  # 1e300 gamma bounds the panels
    if not 1e-7 * scale <= kT < ceiling:
        raise ValueError(f"T={p.T} K: kB T = {kT:.3g} eV is outside [{1e-7 * scale:.3g}, "
                         f"{ceiling:.3g}] eV, the range the conductance rule resolves")
    E, w = _energy_rule(flat, p, kT)
    f = w * dynes_density(E, p.Delta, p.gamma)
    out = np.empty(flat.size)
    rows = max(1, (1 << 19) // max(E.size, 1))  # each kernel matrix under 4 MB
    for i in range(0, flat.size, rows):
        # the Fermi kernel 1 / (4 kB T cosh(x)**2) in place; the clip keeps x * x finite
        x = np.add.outer(flat[i:i + rows], E) / (2.0 * kT)
        np.cosh(np.clip(x, -300.0, 300.0, out=x), out=x)
        np.multiply(x, x, out=x)
        out[i:i + rows] = p.A * (np.divide(1.0, np.multiply(x, 4.0 * kT, out=x), out=x) @ f)
    return float(out[0]) if v.ndim == 0 else out.reshape(v.shape)


def _energy_rule(v: np.ndarray, p: DynesParams, kT: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-node Gauss-Legendre nodes and weights in E shared by the
    biases ``v``.  The rule covers the union of the kernel supports
    ``|E + V| <= 36 kB T`` (the kernel's weight beyond is 5e-16) and is
    broken at -Delta, 0 and Delta.  Away from the gap edge on its side of
    0, the panels are first, 2 first, 4 first, ... wide up to a cap of
    4 kB T, ``first = min(gamma, 4 kB T) / 4``.
    """
    cap, first = 4.0 * kT, 0.25 * min(p.gamma, 4.0 * kT)
    graded = [first * (2.0 ** k - 1)  # offsets of the panels narrower than the cap
              for k in range(1, math.ceil(math.log2(cap / first)) + 1)]
    top = graded[-1]
    centres = np.unique(-v)
    lo = centres[np.diff(centres, prepend=-np.inf) > 72.0 * kT] - 36.0 * kT
    hi = centres[np.diff(centres, append=np.inf) > 72.0 * kT] + 36.0 * kT
    sides = ((-p.Delta, -1.0, -math.inf, -p.Delta), (-p.Delta, 1.0, -p.Delta, 0.0),
             (p.Delta, -1.0, 0.0, p.Delta), (p.Delta, 1.0, p.Delta, math.inf))
    panel_edges = [np.zeros(0)]  # sorted edges per merged support; none without biases
    for a, b in zip(lo.tolist(), hi.tolist()):
        edges = [a, b]
        for c, s, s_lo, s_hi in sides:  # gap edge, direction, segment
            x0, x1 = max(a, s_lo), min(b, s_hi)
            if x0 < x1:
                d0, d1 = sorted((s * (x0 - c), s * (x1 - c)))
                n = range(max(math.floor((d0 - top) / cap), 0) + 1,
                          math.ceil((d1 - top) / cap))
                offsets = [*graded, *(top + cap * k for k in n)]
                edges += [x0, x1] + [c + s * o for o in offsets if d0 < o < d1]
        panel_edges.append(np.unique(edges))
    return _composite_rule(np.concatenate([e[:-1] for e in panel_edges]),
                           np.concatenate([e[1:] for e in panel_edges]))


def dynes_fit(points, T: float) -> DynesParams:
    """Nonlinear least squares for (Delta, gamma, A) at fixed temperature.

    Deterministic initialization: Delta from half the voltage spacing of
    the two conductance maxima, gamma at a tenth of that, A from the outer
    twenty percent of the bias range.
    """
    vg = np.asarray(points, dtype=float).reshape(len(points), 2)  # refuses non-pairs
    if len(vg) < 20:
        raise FitError(f"need >= 20 points, got {len(vg)}")
    v, g = vg[np.argsort(vg[:, 0], kind="stable")].T  # in bias order

    pos = (v > 0) & (g > 0)
    neg = (v < 0) & (g > 0)
    if not (pos.any() and neg.any()):
        raise FitError("bias range must span both polarities")
    # Python floats, which overflow to inf without a warning; > 0: v_plus > 0 > v_minus
    delta0 = 0.5 * float(v[pos][np.argmax(g[pos])]) - 0.5 * float(v[neg][np.argmax(g[neg])])
    span = float(max(abs(v[0]), abs(v[-1])))
    outer = g[np.abs(v) >= 0.8 * span]  # holds the endpoint at |v| = span
    e = np.frexp(np.abs(outer).max())[1]  # the mean of outer / 2^e cannot overflow
    a0 = float(np.ldexp(np.mean(np.ldexp(outer, -e)), e))
    if not 0.0 < a0 < math.inf:
        raise FitError(f"the mean outer conductance {a0:.3g} is not positive and finite")
    k = round(math.log2(a0))  # the tolerances are absolute: fit G / 2^k, with A near 1
    if np.frexp(np.abs(g).max())[1] - k > 1024:  # the largest |G| / 2^k overflows
        raise FitError(f"|G_arb| = {np.abs(g).max():.3g} overflows against the mean outer "
                       f"conductance {a0:.3g}")
    g, x0 = np.ldexp(g, -k), np.array([delta0, 0.1 * delta0, math.ldexp(a0, -k)])

    # no T resolves max(Delta, |V|) near 1e154 eV in dynes_conductance; Delta may reach 10 delta0
    scale = max(span, 10.0 * delta0)
    if not 1e-7 * scale < (1e154 - scale) / 36.0:
        raise FitError(f"bias range +-{span:.3g} V (estimated Delta = {delta0:.3g} eV) "
                       f"reaches past the ~1e154 eV the conductance rule resolves")
    # nominal requirement is a +-3 Delta span; the 2.5x guard tolerates the
    # peak-position noise in the Delta estimate itself
    if span < 2.5 * delta0:
        raise FitError(f"bias range +-{span:.3g} V spans less than ~3 Delta "
                       f"(estimated Delta = {delta0:.3g} eV)")

    # refused before scipy warns on them: a start here, and at every call (scipy moves x0 inside
    # the bounds first) residuals whose squares overflow, summed in Python as r @ r would warn
    if delta0 * delta0 < np.finfo(float).tiny:
        raise FitError(f"the starting gap {delta0:.3g} eV squares below the float range")

    def resid(theta):
        delta, gamma, a = theta
        r = dynes_conductance(v, DynesParams(Delta=delta, gamma=gamma, T=T, A=a)) - g
        if not math.isfinite(sum(x * x for x in r.tolist())):
            raise FitError(f"the squared residuals are not finite at Delta = {delta:.3g} eV")
        return r

    from scipy.optimize import least_squares  # only this command needs scipy

    lower = [1e-6 * delta0, 1e-8 * delta0, 0.0]
    upper = [10.0 * delta0, 10.0 * delta0, np.inf]
    sol = least_squares(resid, x0, bounds=(lower, upper), max_nfev=400,
                        xtol=1e-12, ftol=1e-12, gtol=1e-12)
    if not sol.success:
        raise FitError(f"no convergence after {sol.nfev} evaluations: {sol.message}")
    return DynesParams(Delta=float(sol.x[0]), gamma=float(sol.x[1]),
                       T=T, A=math.ldexp(float(sol.x[2]), k))


# --- synthetic sweeps and the end-to-end pipeline -----------------------------


@dataclass(frozen=True)
class SweepTruth:
    """Generator parameters for a synthetic temperature sweep.

    ``omega^2(T) = intercept + slope T + jump * step(T - Tc)`` plus
    Gaussian frequency noise of width ``noise_f`` on each frequency.
    """

    slope: float        # (rad/s)^2 / K
    intercept: float    # (rad/s)^2
    jump: float         # (rad/s)^2, added above Tc
    Tc: float           # K
    noise_f: float      # Hz, per-point one sigma; 0 for noiseless
    grid: tuple         # ascending temperatures, K

    def __post_init__(self):
        _require_finite(self)
        grid = tuple(self.grid)
        if not (all(map(math.isfinite, grid))
                and all(a < b for a, b in zip(grid, grid[1:]))):
            raise ValueError("grid must be finite and strictly ascending")
        object.__setattr__(self, "grid", grid)


def generate_sweep(truth: SweepTruth, seed: int = 0) -> list[SweepRecord]:
    """Emit deterministic synthetic sweep records for pipeline tests."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    t = np.array(truth.grid)
    with np.errstate(all="ignore"):  # inf, nan and omega^2 <= 0 are all refused below
        w2 = truth.intercept + truth.slope * t + np.where(t > truth.Tc, truth.jump, 0.0)
        noise = truth.noise_f * np.random.default_rng(seed).standard_normal(len(t))
        f = np.sqrt(w2) / (2.0 * math.pi) + noise
    stop = int(np.argmax(np.append(w2 <= 0.0, True)))  # the first omega^2 <= 0, or the end
    records = [SweepRecord(T=T, f=v, sigma_f=truth.noise_f)  # their errors come first
               for T, v in zip(truth.grid[:stop], f[:stop].tolist())]
    if stop < len(t):
        raise ValueError(f"baseline gives non-positive omega^2 at {truth.grid[stop]} K")
    return records


@dataclass(frozen=True, eq=False)  # array fields: equal only to itself
class SweepReport:
    """End-to-end pipeline output for one small/big sweep pair."""

    small: CalibratedResiduals
    big: CalibratedResiduals
    differential: tuple           # the (T, dw2, sigma) arrays of differential_subtract
    dw2_jump: float               # mean differential above the window, (rad/s)^2
    dw2_sigma: float
    gradient_jump: float          # Pa/m
    gradient_sigma: float
    conversion: FemConversion | None
    point_conversions: FemConversion | None  # one array per field, a value per point


def sweep_pipeline(small_records, big_records, window, m: MembraneSpec,
                   factors: ConversionFactors | None = None,
                   combine: str = "add") -> SweepReport:
    """calibrate -> subtract -> average above the window -> convert.

    The fit window must sit entirely below the film's transition (14.2 K);
    an empty window is reported first.  The headline jump is the plain
    mean of the differential residual over temperatures above the fit
    window; its uncertainty is the mean of the combined per-point
    uncertainties.  With ``factors``, the headline jump and every
    differential point are converted to force, pressure, and deflection.
    """
    if window[0] < window[1] >= _TC:
        raise ValueError(f"fit window {window} reaches the transition at {_TC} K")
    small = calibrate_thermal(small_records, window)
    big = calibrate_thermal(big_records, window)
    t, dw2_points, sig_points = diff = differential_subtract(small, big, combine=combine)
    above = t > window[1]
    if not above.any():
        raise ValueError("no differential points above the fit window")
    dw2 = float(np.mean(dw2_points[above]))
    sig = float(np.mean(sig_points[above]))
    conversion = points = None
    if factors is not None:  # the differential is in (rad/s)^2; d(omega^2) = 4 pi^2 d(f^2)
        scale = 1.0 if factors.basis is Basis.ANGULAR_SQUARED else 4.0 * math.pi ** 2
        conversion, points = (convert_fem(v / scale, factors) for v in (dw2, dw2_points))
    return SweepReport(small=small, big=big, differential=diff,
                       dw2_jump=dw2, dw2_sigma=sig,
                       gradient_jump=gradient_from_dw2(dw2, m),
                       gradient_sigma=abs(gradient_from_dw2(sig, m)),
                       conversion=conversion, point_conversions=points)
