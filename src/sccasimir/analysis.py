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
from .permittivity import _GAUSS_LEGENDRE, _doubling_panels
from .physcore import (
    CONSTANTS,
    Basis,
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    _require_finite,
    read_csv,
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
    "load_dynes_csv",
    "SweepTruth",
    "generate_sweep",
    "SweepReport",
    "sweep_pipeline",
]

_KB = CONSTANTS.kB_eV
_TC = SuperconductorParams().Tc
# biases per array evaluation in dynes_conductance; keeps the temporaries of
# a typical fit under about 1 MB
_BLOCK = 8


@dataclass(frozen=True)
class CalibratedResiduals:
    """Frequency-squared residuals after removing the thermal baseline.

    ``records`` holds ``(T, dw2, sigma_dw2)`` triples for every input
    point; the line was fitted over ``fit_window`` only, so in-window
    residuals average to zero by construction.
    """

    records: tuple
    fit_slope: float       # (rad/s)^2 / K
    fit_intercept: float   # (rad/s)^2
    fit_window: tuple


def calibrate_thermal(records, window, Tc: float | None = None) -> CalibratedResiduals:
    """Remove the elastic (thermal-expansion) trend from a sweep.

    Ordinary least squares of ``omega^2 = (2 pi f)^2`` against T over the
    window; every record is then reported as its residual from that line.
    Per-point uncertainties propagate as ``sigma_w2 = 8 pi^2 f sigma_f``
    where frequencies carry uncertainties.  When ``Tc`` is given the
    window must sit entirely below it (the fit would otherwise absorb the
    transition signal).
    """
    lo, hi = window
    if lo >= hi:
        raise ValueError(f"empty window {window}")
    if Tc is not None and hi >= Tc:
        raise ValueError(f"fit window {window} reaches the transition at {Tc} K")
    recs = sorted(records, key=lambda r: r.T)
    if not recs:
        raise ValueError("no records supplied")
    in_window = [r for r in recs if lo <= r.T <= hi]
    if len(in_window) < 3:
        raise ValueError(
            f"need >= 3 points inside the fit window, found {len(in_window)}")
    t_fit = np.array([r.T for r in in_window])
    if t_fit[0] == t_fit[-1]:
        raise ValueError(f"need >= 2 distinct temperatures inside the fit window, "
                         f"all {len(t_fit)} points are at {t_fit[0]} K")
    w2_fit = np.array([(2.0 * math.pi * r.f) ** 2 for r in in_window])
    slope, intercept = np.polyfit(t_fit, w2_fit, 1)
    out = []
    for r in recs:
        w2 = (2.0 * math.pi * r.f) ** 2
        dw2 = w2 - (slope * r.T + intercept)
        sig = (8.0 * math.pi ** 2 * r.f * r.sigma_f) if r.sigma_f is not None else 0.0
        out.append((r.T, dw2, sig))
    return CalibratedResiduals(records=tuple(out), fit_slope=float(slope),
                               fit_intercept=float(intercept),
                               fit_window=(float(lo), float(hi)))


def differential_subtract(small: CalibratedResiduals, big: CalibratedResiduals,
                          combine: str = "add") -> list[tuple[float, float, float]]:
    """Reference-subtract the big-gap residual from the small-gap one.

    The big-gap residual is linearly interpolated in temperature at every
    small-gap point (no extrapolation).  Uncertainties combine as the
    small-gap error plus the two bracketing big-gap errors summed
    (``combine="add"``); ``combine="quadrature"`` is available for
    sensitivity studies.
    """
    if combine not in ("add", "quadrature"):
        raise ValueError(f"combine must be 'add' or 'quadrature', got {combine!r}")
    tb = np.array([r[0] for r in big.records])
    vb = np.array([r[1] for r in big.records])
    sb = np.array([r[2] for r in big.records])
    if len(tb) < 2:
        raise ValueError("big-gap residual needs >= 2 points to interpolate")
    repeated = tb[1:][np.diff(tb) == 0.0]
    if repeated.size:
        raise ValueError(f"big-gap residual repeats the temperature {repeated[0]} K")
    out = []
    for t, dw2, sig in small.records:
        if t < tb[0] or t > tb[-1]:
            raise ValueError(
                f"small-gap point at {t} K lies outside the big-gap support "
                f"[{tb[0]}, {tb[-1]}] K")
        hi = int(np.searchsorted(tb, t, side="left"))
        hi = min(max(hi, 1), len(tb) - 1)
        lo = hi - 1
        frac = (t - tb[lo]) / (tb[hi] - tb[lo])
        big_val = vb[lo] + frac * (vb[hi] - vb[lo])
        if combine == "add":
            sig_out = sig + sb[lo] + sb[hi]
        else:
            sig_out = math.sqrt(sig ** 2 + sb[lo] ** 2 + sb[hi] ** 2)
        out.append((t, dw2 - big_val, sig_out))
    return out


@dataclass(frozen=True)
class FemConversion:
    """Force, pressure, and deflection changes mapped from one
    frequency-squared shift."""

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
        for name in ("Delta", "gamma", "T", "A"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)  # fits pass NumPy scalars
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
    value per bias.  Convolution of the broadened density of states with the
    derivative of the Fermi occupation over ``|E| <= |V| + 30 kB T + 10
    Delta``; tends to ``A`` as ``|V| -> infinity``.  Each bias has its own
    fixed rule: the window is broken at its edges and at ``-Delta, -V,
    Delta``, each gap between breaks is halved, and each half is covered by
    16-node Gauss-Legendre panels doubling in width away from its own break,
    the first ``min(gamma, kB T) / 4`` wide.  Against adaptive quadrature at
    ``epsrel`` 1e-13 it agrees to 1e-12 relative (worst seen 1.9e-13) over
    33 biases in +-4 Delta, gamma / Delta in [1e-6, 0.5], T in [0.05, 8] K.
    Biases are evaluated in blocks of ``_BLOCK``, and each is summed on
    its own, so a value does not depend on the other biases in the call.
    """
    v = np.asarray(V, dtype=float)
    flat = v.ravel()
    out = np.empty(flat.size)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = _conductance_block(flat[i:i + _BLOCK], p)
    return float(out[0]) if v.ndim == 0 else out.reshape(v.shape)


def _conductance_block(v: np.ndarray, p: DynesParams) -> np.ndarray:
    """``dynes_conductance`` of the 1-D biases ``v``: the density and the
    Fermi kernel are evaluated once over the nodes of every bias, laid out
    bias after bias, gap after gap, lower half before upper half."""
    kT = _KB * p.T
    first = 0.25 * min(p.gamma, kT)
    gaps = []  # (bias index, lo, hi, half width, doubling panels) per gap
    for i, bias in enumerate(v.tolist()):
        width = abs(bias) + 30.0 * kT + 10.0 * p.Delta  # > |V| and > Delta
        breaks = sorted({-width, -p.Delta, -bias, p.Delta, width})
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            half = 0.5 * (hi - lo)  # each half is [0, half] from its own break
            ratio = half / first if first > 0.0 else math.inf
            if not math.isfinite(ratio):
                raise ValueError(f"T={p.T} K, V={bias} V: the conductance window is "
                                 f"not a finite multiple of its first panel "
                                 f"min(gamma, kB T) / 4")
            # the panel count of _doubling_panels(first, half, 16)
            gaps.append((i, lo, hi, half, max(math.ceil(math.log2(ratio)), 0)))
    owner, lo, hi, half, k = map(np.array, zip(*gaps))
    # a half with k doubling panels takes the first 16 k nodes of the shared
    # prefix [0, first], [first, 2 first], ... and then a last panel of its own
    x_pre, w_pre = _doubling_panels(first, math.ldexp(first, int(k.max()) - 1), 16)
    start = np.where(k > 0, np.ldexp(first, k - 1), 0.0)
    last = 0.5 * (half - start)[:, None]
    shifted, weights = _GAUSS_LEGENDRE[16]
    x_last, w_last = start[:, None] + last * shifted, last * weights
    # lo + x on the lower half, hi + (-x) = hi - x on the upper
    x_pre_neg, x_last_neg = -x_pre, -x_last
    xs, ws = [], []
    for g, n in enumerate((16 * k).tolist()):
        xs += [x_pre[:n], x_last[g], x_pre_neg[:n], x_last_neg[g]]
        ws += [w_pre[:n], w_last[g], w_pre[:n], w_last[g]]
    E = np.repeat(np.column_stack([lo, hi]).ravel(), np.repeat(16 * (k + 1), 2))
    E += np.concatenate(xs)
    per_gap = 32 * (k + 1)
    x = np.clip((E + np.repeat(v[owner], per_gap)) / (2.0 * kT), -300.0, 300.0)
    kern = 1.0 / (4.0 * kT * np.cosh(x) ** 2)  # the clip keeps cosh(x)**2 finite
    del x  # before the density's complex temporaries
    f = dynes_density(E, p.Delta, p.gamma) * kern
    w = np.concatenate(ws)
    # each bias is its own dot product over its own nodes, in the order above
    end = np.cumsum(np.bincount(owner, per_gap)).astype(int).tolist()
    return p.A * np.array([np.dot(w[s:e], f[s:e]) for s, e in zip([0] + end[:-1], end)])


def load_dynes_csv(path) -> list[tuple[float, float]]:
    """Read ``V_volt,G_arb`` conductance data."""
    return [values for _, values in read_csv(path, ("V_volt", "G_arb"))]


def dynes_fit(points, T: float) -> DynesParams:
    """Nonlinear least squares for (Delta, gamma, A) at fixed temperature.

    Deterministic initialization: Delta from half the voltage spacing of
    the two conductance maxima, gamma at a tenth of that, A from the outer
    twenty percent of the bias range.
    """
    pts = sorted(((float(v), float(g)) for v, g in points), key=lambda p: p[0])
    if len(pts) < 20:
        raise FitError(f"need >= 20 points, got {len(pts)}")
    v = np.array([p[0] for p in pts])
    g = np.array([p[1] for p in pts])

    pos = (v > 0) & (g > 0)
    neg = (v < 0) & (g > 0)
    if not (pos.any() and neg.any()):
        raise FitError("bias range must span both polarities")
    v_plus = v[pos][np.argmax(g[pos])]
    v_minus = v[neg][np.argmax(g[neg])]
    delta0 = 0.5 * (v_plus - v_minus)
    if delta0 <= 0.0:
        raise FitError("could not locate coherence peaks for initialization")
    span = max(abs(v[0]), abs(v[-1]))
    outer = np.abs(v) >= 0.8 * span
    a0 = float(np.mean(g[outer])) if outer.any() else float(np.mean(g))
    x0 = np.array([delta0, 0.1 * delta0, a0])

    # nominal requirement is a +-3 Delta span; the 2.5x guard tolerates the
    # peak-position noise in the Delta estimate itself
    if span < 2.5 * delta0:
        raise FitError(f"bias range +-{span:.3g} V spans less than ~3 Delta "
                       f"(estimated Delta = {delta0:.3g} eV)")

    def resid(theta):
        delta, gamma, a = theta
        return dynes_conductance(v, DynesParams(Delta=delta, gamma=gamma, T=T, A=a)) - g

    from scipy.optimize import least_squares  # only this command needs scipy

    lower = [1e-6 * delta0, 1e-8 * delta0, 0.0]
    upper = [10.0 * delta0, 10.0 * delta0, np.inf]
    sol = least_squares(resid, x0, bounds=(lower, upper), max_nfev=400,
                        xtol=1e-12, ftol=1e-12, gtol=1e-12)
    if not sol.success:
        raise FitError(f"no convergence after {sol.nfev} evaluations: {sol.message}")
    return DynesParams(Delta=float(sol.x[0]), gamma=float(sol.x[1]),
                       T=T, A=float(sol.x[2]))


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
    rng = np.random.default_rng(seed)
    out = []
    for T in truth.grid:
        w2 = truth.intercept + truth.slope * T + (truth.jump if T > truth.Tc else 0.0)
        if w2 <= 0.0:
            raise ValueError(f"baseline gives non-positive omega^2 at {T} K")
        f = math.sqrt(w2) / (2.0 * math.pi)
        if truth.noise_f > 0.0:
            f += truth.noise_f * rng.standard_normal()
        out.append(SweepRecord(T=T, f=f, sigma_f=truth.noise_f or None))
    return out


@dataclass(frozen=True)
class SweepReport:
    """End-to-end pipeline output for one small/big sweep pair."""

    small: CalibratedResiduals
    big: CalibratedResiduals
    differential: tuple           # (T, dw2, sigma) rows
    dw2_jump: float               # mean differential above the window, (rad/s)^2
    dw2_sigma: float
    gradient_jump: float          # Pa/m
    gradient_sigma: float
    conversion: FemConversion | None
    point_conversions: tuple      # FemConversion per differential row; () without factors


def sweep_pipeline(small_records, big_records, window, m: MembraneSpec,
                   factors: ConversionFactors | None = None,
                   combine: str = "add") -> SweepReport:
    """calibrate -> subtract -> average above the window -> convert.

    The fit window must sit entirely below the film's transition (14.2 K).
    The headline jump is the plain mean of the differential residual over
    temperatures above the fit window; its uncertainty is the mean of the
    combined per-point uncertainties.  With ``factors``, the headline jump
    and every differential row are converted to force, pressure, and
    deflection.
    """
    small = calibrate_thermal(small_records, window, _TC)
    big = calibrate_thermal(big_records, window, _TC)
    diff = differential_subtract(small, big, combine=combine)
    above = [(t, v, s) for t, v, s in diff if t > window[1]]
    if not above:
        raise ValueError("no differential points above the fit window")
    dw2 = float(np.mean([v for _, v, _ in above]))
    sig = float(np.mean([s for _, _, s in above]))
    gradient = gradient_from_dw2(dw2, m)
    gradient_sigma = abs(gradient_from_dw2(sig, m))

    def convert(shift: float) -> FemConversion:
        # the differential is in (rad/s)^2; d(omega^2) = 4 pi^2 d(f^2)
        if factors.basis is not Basis.ANGULAR_SQUARED:
            shift = shift / (4.0 * math.pi ** 2)
        return convert_fem(shift, factors)

    return SweepReport(small=small, big=big, differential=tuple(diff),
                       dw2_jump=dw2, dw2_sigma=sig,
                       gradient_jump=gradient, gradient_sigma=gradient_sigma,
                       conversion=None if factors is None else convert(dw2),
                       point_conversions=() if factors is None
                       else tuple(convert(v) for _, v, _ in diff))
