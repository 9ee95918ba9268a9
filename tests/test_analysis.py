import bisect
import cmath
import math
from collections import namedtuple
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import sccasimir
from sccasimir import _trf, analysis
from sccasimir.errors import FitError, ParseError
from sccasimir.membrane import Sweep, dw2_from_gradient
from test_membrane import columns
from sccasimir.physcore import CONSTANTS, Basis, ConversionFactors, read_csv
from sccasimir.analysis import (
    CalibratedResiduals,
    DynesParams,
    SweepTruth,
    calibrate_thermal,
    convert_fem,
    differential_subtract,
    dynes_conductance,
    dynes_density,
    dynes_fit,
    generate_sweep,
    sweep_pipeline,
)

# dense-grid oracle values frozen before the build
# (Delta = 2.6 meV, gamma = 0.465 meV, T = 4.6 K, A = 1)
DYNES_REF = DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=4.6, A=1.0)
G_AT_ZERO = 0.20757022454462115
G_AT_PEAK = 1.329766733882591      # V = 3.475 mV
G_NORMAL = 1.0002000707087038      # V = 50 Delta

FACTORS = ConversionFactors(force_per_w2=7.83e-16, pressure_per_w2=1.55e-9,
                            deflection_per_w2=6.28e-19,
                            basis=Basis.LINEAR_SQUARED)


def line_sweep(slope, intercept, grid, jump=0.0, tc=14.2, sigma_f=0.0):
    return Sweep(grid, [math.sqrt(intercept + slope * t + (jump if t > tc else 0.0))
                        / (2 * math.pi) for t in grid], sigma_f)


Point = namedtuple("Point", "T f sigma_f")


# no grid point sits exactly at the 14.2 K transition: points at the step
# itself belong to neither the baseline nor the jumped plateau
GRID = tuple(np.round(np.arange(13.175, 14.68, 0.05), 4))
WINDOW = (13.0, 14.19)
SLOPE, INTERCEPT = -2.2843e7, (2 * math.pi * 352800.0) ** 2 + 2.2843e7 * 14.2


def per_point_reduction(small_sweep, big_sweep, window, combine):
    """Calibrate and subtract point by point with Python's ``**`` squares: the
    reference the array reduction must equal bit for bit."""
    def calibrate(sweep):
        points = map(Point, sweep.T.tolist(), sweep.f.tolist(), sweep.sigma_f.tolist())
        recs = sorted(points, key=lambda r: r.T)
        fit = [r for r in recs if window[0] <= r.T <= window[1]]
        slope, intercept = np.polyfit([r.T for r in fit],
                                      [(2.0 * math.pi * r.f) ** 2 for r in fit], 1)
        return [(r.T, (2.0 * math.pi * r.f) ** 2 - (slope * r.T + intercept),
                 8.0 * math.pi ** 2 * r.f * r.sigma_f) for r in recs]

    small, big = calibrate(small_sweep), calibrate(big_sweep)
    rows = []
    for t, dw2, sig in small:
        hi = min(max(bisect.bisect_left([tb for tb, _, _ in big], t), 1), len(big) - 1)
        (t0, v0, s0), (t1, v1, s1) = big[hi - 1], big[hi]
        big_val = v0 + (t - t0) / (t1 - t0) * (v1 - v0)
        rows.append((t, dw2 - big_val, sig + s0 + s1 if combine == "add"
                     else math.sqrt(sig ** 2 + s0 ** 2 + s1 ** 2)))
    return small, rows


class TestCalibrate:
    def test_exact_line_gives_zero_residuals(self):
        sweep = line_sweep(SLOPE, INTERCEPT, GRID)
        result = calibrate_thermal(sweep, WINDOW)
        assert (np.abs(result.dw2) < 1e-9 * (INTERCEPT + SLOPE * result.T)).all()

    def test_recovers_fit_parameters(self):
        result = calibrate_thermal(line_sweep(SLOPE, INTERCEPT, GRID), WINDOW)
        assert result.fit_slope == pytest.approx(SLOPE, rel=1e-9)
        assert result.fit_intercept == pytest.approx(INTERCEPT, rel=1e-9)

    def test_in_window_residuals_average_to_zero(self):
        rng = np.random.default_rng(5)
        sweep = Sweep(GRID, [math.sqrt(INTERCEPT + SLOPE * t + rng.normal(0, 1e5)) / (2 * math.pi)
                             for t in GRID], 0.0)
        result = calibrate_thermal(sweep, WINDOW)
        in_window = result.dw2[(WINDOW[0] <= result.T) & (result.T <= WINDOW[1])]
        assert abs(np.mean(in_window)) < 1e-6 * abs(INTERCEPT) * 1e-9 + 1.0

    def test_injected_step_recovered(self):
        sweep = line_sweep(SLOPE, INTERCEPT, GRID, jump=-1.5e7)
        result = calibrate_thermal(sweep, WINDOW)
        above = result.dw2[result.T > 14.2].tolist()
        assert above == pytest.approx([-1.5e7] * len(above), rel=1e-3)

    def test_sigma_propagation(self):
        sweep = line_sweep(SLOPE, INTERCEPT, GRID, sigma_f=4.7e-3)
        result = calibrate_thermal(sweep, WINDOW)
        t0, sig = result.T[0], result.sigma[0]
        f0 = math.sqrt(INTERCEPT + SLOPE * t0) / (2 * math.pi)
        assert sig == pytest.approx(8 * math.pi**2 * f0 * 4.7e-3, rel=1e-12)

    def test_insufficient_points(self):
        sweep = line_sweep(SLOPE, INTERCEPT, (13.0, 13.5, 14.0, 14.5))
        with pytest.raises(ValueError):
            calibrate_thermal(sweep, (13.0, 13.1))

    def test_window_needs_two_distinct_temperatures(self):
        line = line_sweep(SLOPE, INTERCEPT, (14.3, 14.4))
        sweep = Sweep([13.2] * 3 + line.T.tolist(),
                      [352800.0 + i for i in range(3)] + line.f.tolist(), 0.0)
        with pytest.raises(ValueError, match="distinct temperatures"):
            calibrate_thermal(sweep, (13.0, 13.5))

    def test_omega_squared_past_the_float_range_refused(self):
        f = line_sweep(SLOPE, INTERCEPT, GRID).f.copy()
        f[2] = 1e200
        with pytest.raises(ValueError, match=f"omega\\^2 overflows at {GRID[2]} K"):
            calibrate_thermal(Sweep(GRID, f, 0.0), WINDOW)

    @pytest.mark.parametrize("sweep, window, message", [
        (line_sweep(SLOPE, INTERCEPT, GRID), (14.0, 14.0), r"^empty window \(14.0, 14.0\)$"),
        (Sweep([], [], 0.0), WINDOW, "^no records supplied$"),
    ], ids=["empty-window", "no-records"])
    def test_refused_inputs(self, sweep, window, message):
        with pytest.raises(ValueError, match=message):
            calibrate_thermal(sweep, window)

    def test_points_sort_by_temperature_as_pythons_stable_sort(self):
        # every point twice, with its own noise, and the rows out of order: points at one
        # temperature keep their order, as the per-point reference's sorted() keeps it
        rng = np.random.default_rng(3)
        order = rng.permutation(np.repeat(np.arange(len(GRID)), 2))
        line = line_sweep(SLOPE, INTERCEPT, GRID, jump=-1.5e7)
        sweep = Sweep(line.T[order], line.f[order] + 4.7e-3 * rng.standard_normal(len(order)),
                      4.7e-3)
        small, _ = per_point_reduction(sweep, line_sweep(SLOPE, INTERCEPT, GRID), WINDOW, "add")
        result = calibrate_thermal(sweep, WINDOW)
        assert [result.T.tolist(), result.dw2.tolist(), result.sigma.tolist()] \
            == [list(c) for c in zip(*small)]

    def test_negative_zero_sigma_f_gives_positive_zero_sigma(self):
        result = calibrate_thermal(line_sweep(SLOPE, INTERCEPT, GRID, sigma_f=-0.0), WINDOW)
        assert result.sigma.tolist() == [0.0] * len(GRID)
        assert not np.signbit(result.sigma).any()


class TestDifferential:
    def _residuals(self, jump=0.0):
        return calibrate_thermal(line_sweep(SLOPE, INTERCEPT, GRID, jump=jump),
                                 WINDOW)

    def test_identical_inputs_cancel(self):
        small = self._residuals(jump=-1.5e7)
        _, dw2, _ = differential_subtract(small, small)
        assert (np.abs(dw2) < 1e-6).all()

    def test_zero_reference_passes_through(self):
        small = self._residuals(jump=-1.5e7)
        big = self._residuals(jump=0.0)
        t, dw2, _ = differential_subtract(small, big)
        assert t.tolist() == small.T.tolist()
        assert dw2 == pytest.approx(small.dw2, abs=2e-2)

    def test_antisymmetry_on_common_grid(self):
        a = self._residuals(jump=-1.5e7)
        b = self._residuals(jump=-0.7e7)
        _, x, sx = differential_subtract(a, b)
        _, y, sy = differential_subtract(b, a)
        assert x == pytest.approx(-y, abs=1e-9)
        assert sx.tolist() == sy.tolist()

    def test_injected_step_recovered_within_sigma(self):
        rng = np.random.default_rng(17)
        noise = 4.7e-3
        small = calibrate_thermal(
            Sweep(GRID, [math.sqrt(INTERCEPT + SLOPE * t + (-1.5e7 if t > 14.2 else 0.0))
                         / (2 * math.pi) + noise * rng.standard_normal() for t in GRID],
                  noise), WINDOW)
        big = calibrate_thermal(
            Sweep(GRID, [math.sqrt(INTERCEPT + SLOPE * t) / (2 * math.pi)
                         + noise * rng.standard_normal() for t in GRID], noise), WINDOW)
        t, v, s = differential_subtract(small, big)
        above = t > 14.2
        mean = np.mean(v[above])
        sigma = np.mean(s[above]) / math.sqrt(above.sum())
        assert mean == pytest.approx(-1.5e7, abs=5 * sigma * math.sqrt(above.sum()))

    def test_no_overlap_rejected(self):
        small = self._residuals()
        big = calibrate_thermal(line_sweep(SLOPE, INTERCEPT,
                                             (16.0, 16.5, 17.0, 17.5)),
                                (16.0, 17.5))
        with pytest.raises(ValueError):
            differential_subtract(small, big)

    def test_repeated_big_gap_temperature_rejected(self):
        small = self._residuals()
        grid = (13.2, 13.3, 13.3, 13.4, 14.3)
        big = calibrate_thermal(line_sweep(SLOPE, INTERCEPT, grid), (13.0, 13.5))
        with pytest.raises(ValueError, match="repeats the temperature 13.3 K"):
            differential_subtract(small, big)

    def test_quadrature_combination_smaller_than_additive(self):
        sweep = line_sweep(SLOPE, INTERCEPT, GRID, sigma_f=4.7e-3)
        resid = calibrate_thermal(sweep, WINDOW)
        add = differential_subtract(resid, resid, combine="add")
        quadr = differential_subtract(resid, resid, combine="quadrature")
        assert (quadr[2] < add[2]).all()

    def test_sigma_past_the_float_range_is_inf(self):
        # 8 pi^2 f sigma_f overflows at sigma_f = 1e305, its square at 1e160
        for sigma_f, add_is_inf in ((1e160, False), (1e305, True)):
            resid = calibrate_thermal(line_sweep(SLOPE, INTERCEPT, GRID, sigma_f=sigma_f),
                                      WINDOW)
            add = differential_subtract(resid, resid, combine="add")
            quadr = differential_subtract(resid, resid, combine="quadrature")
            assert (np.isinf(add[2]) == add_is_inf).all()
            assert np.isinf(quadr[2]).all()

    @pytest.mark.parametrize("combine", ["add", "quadrature"])
    def test_equals_the_per_point_loop(self, combine):
        for seed in range(8):
            sweeps = [generate_sweep(SweepTruth(slope=slope, intercept=INTERCEPT,
                                                jump=jump, Tc=14.2, noise_f=4.7e-3,
                                                grid=GRID), seed=seed + k)
                      for k, (slope, jump) in enumerate(((SLOPE, -1.5e7), (-2.6e7, 0.0)))]
            small, rows = per_point_reduction(*sweeps, WINDOW, combine)
            resid = [calibrate_thermal(sweep, WINDOW) for sweep in sweeps]
            # the reference rows, unzipped into columns
            assert [resid[0].T.tolist(), resid[0].dw2.tolist(),
                    resid[0].sigma.tolist()] == [list(c) for c in zip(*small)]
            assert [c.tolist() for c in differential_subtract(*resid, combine=combine)] \
                == [list(c) for c in zip(*rows)]

    def test_first_outside_point_is_named(self):
        small = self._residuals()
        for big_grid, first in ((GRID[6:-7], GRID[0]), (GRID[:-7], GRID[-7])):
            big = calibrate_thermal(line_sweep(SLOPE, INTERCEPT, big_grid), WINDOW)
            with pytest.raises(ValueError, match=f"small-gap point at {first} K lies"):
                differential_subtract(small, big)

    @pytest.mark.parametrize("big_grid, combine, message", [
        (GRID, "median", "^combine must be 'add' or 'quadrature', got 'median'$"),
        (GRID[:1], "add", "^big-gap residual needs >= 2 points to interpolate$"),
    ], ids=["unknown-combine", "one-big-gap-point"])
    def test_refused_inputs(self, big_grid, combine, message):
        t = np.array(big_grid)
        big = CalibratedResiduals(T=t, dw2=0.0 * t, sigma=0.0 * t, fit_slope=0.0,
                                  fit_intercept=0.0)
        with pytest.raises(ValueError, match=message):
            differential_subtract(self._residuals(), big, combine=combine)

    def test_empty_small_gap_table(self):
        none = np.zeros(0)
        empty = CalibratedResiduals(T=none, dw2=none, sigma=none, fit_slope=0.0,
                                    fit_intercept=0.0)
        assert [c.size for c in differential_subtract(empty, self._residuals())] == [0] * 3


class TestConvertFem:
    def test_zero(self):
        conv = convert_fem(0.0, FACTORS)
        assert (conv.dF, conv.dP, conv.dz) == (0.0, 0.0, 0.0)

    def test_linearity(self):
        one = convert_fem(1e5, FACTORS)
        two = convert_fem(2e5, FACTORS)
        assert two.dF == pytest.approx(2 * one.dF, rel=1e-14)
        assert two.dP == pytest.approx(2 * one.dP, rel=1e-14)
        assert two.dz == pytest.approx(2 * one.dz, rel=1e-14)

    def test_measured_jump_headline(self, small_gap):
        # the 12.10 kPa/m gradient jump maps onto the quoted force and
        # pressure changes once expressed on the linear-frequency basis
        dw2 = dw2_from_gradient(12.10e3, small_gap)
        conv = convert_fem(dw2 / (4 * math.pi**2), FACTORS)
        assert conv.dF == pytest.approx(-0.33e-9, abs=0.04e-9)
        assert conv.dP == pytest.approx(-0.65e-3, abs=0.07e-3)


ORACLE_SETS = [
    (2.6e-3, 0.465e-3, 4.6),
    (2.6e-3, 2.6e-5, 1.0),
    (2.6e-3, 1e-4, 0.3),
    (1e-3, 5e-4, 8.0),
    (2.6e-3, 2.6e-9, 0.05),
]


# cold films: the kernel is 1e-4 to 1e-8 of the energies it is evaluated at
COLD_SETS = [(1e-3, 2.6e-9), (1e-3, 0.465e-3), (1e-4, 2.6e-9), (1e-4, 0.465e-3)]


def shared_rule(bias, p):
    """The conductance rule, restated: one composite 16-node Gauss-Legendre
    rule in E for every bias of the call, each bias then summed exactly.

    The rule covers the union of the supports |E + V| <= 36 kB T and is
    broken at -Delta, 0 and Delta.  Away from the gap edge on each side of
    0 its panels are first, 2 first, 4 first, ... wide, capped at 4 kB T,
    ``first = min(gamma, 4 kB T) / 4``.  Edges and nodes take the
    arithmetic of ``dynes_conductance``: at 0.05 K and V = 50 Delta one ulp
    in the nodes moves a value by 1e-13, more than the tests resolve."""
    kT = CONSTANTS.kB_eV * p.T
    cap, first = 4.0 * kT, 0.25 * min(p.gamma, 4.0 * kT)
    graded, k = [], 1
    while first * 2.0 ** (k - 1) < cap:  # offsets of the panels narrower than the cap
        graded.append(first * 2.0 ** k - first)
        k += 1
    supports = []
    for c in sorted({-float(v) for v in bias}):
        if supports and c - 36.0 * kT <= supports[-1][1]:
            supports[-1][1] = c + 36.0 * kT
        else:
            supports.append([c - 36.0 * kT, c + 36.0 * kT])
    shifted, w16 = np.polynomial.legendre.leggauss(16)
    nodes, weights = [], []
    for lo, hi in supports:
        breaks = sorted({lo, hi} | {b for b in (-p.Delta, 0.0, p.Delta) if lo < b < hi})
        for a, b in zip(breaks[:-1], breaks[1:]):
            gap_edge = -p.Delta if a + b < 0.0 else p.Delta
            far = max(abs(a - gap_edge), abs(b - gap_edge))
            offsets = graded + [graded[-1] + cap * n
                                for n in range(1, math.ceil((far - graded[-1]) / cap) + 1)]
            edges = sorted({a, b} | {e for o in offsets
                                     for e in (gap_edge - o, gap_edge + o) if a < e < b})
            for left, right in zip(edges[:-1], edges[1:]):
                half = 0.5 * (right - left)
                nodes.append(left + half * (shifted + 1.0))
                weights.append(half * w16)
    E, w = np.concatenate(nodes), np.concatenate(weights)
    f = w * dynes_density(E, p.Delta, p.gamma)
    return np.array([p.A * math.fsum(f / (4.0 * kT * np.cosh(
        np.clip((E + v) / (2.0 * kT), -300.0, 300.0)) ** 2)) for v in bias])


def mpmath_conductance(V, p):
    """30-digit tanh-sinh quadrature of the conductance in u = (E + V) / 2 kB T
    over |u| <= 20, split at 0, +-2, +-8 and, where they fall inside, at
    the gap edges and at distances gamma / 2 kB T * 4**k from them."""
    with mpmath.workdps(30):
        kT = mpmath.mpf(CONSTANTS.kB_eV) * p.T
        V, delta, gamma = mpmath.mpf(float(V)), mpmath.mpf(p.Delta), mpmath.mpf(p.gamma)

        def integrand(u):
            z = 2 * kT * u - V - 1j * gamma
            return abs(mpmath.re(z / mpmath.sqrt(z * z - delta * delta))) / (
                2 * mpmath.cosh(u) ** 2)

        points = {mpmath.mpf(u) for u in (-20, -8, -2, 0, 2, 8, 20)}
        width = gamma / (2 * kT)
        for c in ((V + delta) / (2 * kT), (V - delta) / (2 * kT)):
            if -20 < c < 20:
                points.add(c)
                k = 0
                while width * 4 ** k < 20:
                    points |= {c - width * 4 ** k, c + width * 4 ** k}
                    k += 1
        return p.A * mpmath.quad(integrand, sorted(u for u in points if -20 <= u <= 20))


class TestDynesConductance:
    @pytest.mark.parametrize("field, value, message", [
        ("Delta", 0.0, "^Delta and gamma must be > 0$"),
        ("gamma", -1e-3, "^Delta and gamma must be > 0$"),
        ("T", 0.0, "^T must be > 0$"),
    ], ids=["Delta", "gamma", "T"])
    def test_params_refused(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            DynesParams(**{"Delta": 2.6e-3, "gamma": 0.465e-3, "T": 4.6, field: value})

    def test_normal_state_asymptote(self):
        assert dynes_conductance(50 * DYNES_REF.Delta, DYNES_REF) == pytest.approx(
            1.0, rel=1e-2)
        assert dynes_conductance(50 * DYNES_REF.Delta, DYNES_REF) == pytest.approx(
            G_NORMAL, rel=1e-6)

    def test_in_gap_suppression(self):
        cold = DynesParams(Delta=2.6e-3, gamma=2.6e-9, T=0.05, A=1.0)
        assert dynes_conductance(0.0, cold) < 0.01

    def test_frozen_oracle_values(self):
        assert dynes_conductance(0.0, DYNES_REF) == pytest.approx(G_AT_ZERO, rel=1e-6)
        assert dynes_conductance(3.475e-3, DYNES_REF) == pytest.approx(
            G_AT_PEAK, rel=1e-6)

    def test_peak_location(self):
        grid = np.linspace(1.5e-3, 6e-3, 91)
        values = dynes_conductance(grid, DYNES_REF)
        v_peak = grid[int(np.argmax(values))]
        assert DYNES_REF.Delta <= v_peak <= 1.35 * DYNES_REF.Delta

    def test_scale_factor(self):
        scaled = DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=4.6, A=3.5)
        assert dynes_conductance(0.0, scaled) == pytest.approx(
            3.5 * G_AT_ZERO, rel=1e-9)

    def test_sum_rule(self):
        d = DYNES_REF.Delta

        def windowed(wmult, n_out):
            w = wmult * d
            v = np.concatenate([np.linspace(-w, -6 * d, n_out)[:-1],
                                np.linspace(-6 * d, 6 * d, 481)[:-1],
                                np.linspace(6 * d, w, n_out)])
            return np.trapezoid(dynes_conductance(v, DYNES_REF) - 1.0, v)

        at_100 = windowed(100, 120)
        assert abs(at_100) <= 0.01 * d
        # the residual is the truncated 1/E^2 tail and dies off with the window
        at_300 = np.trapezoid(
            np.array([dynes_density(e, d, DYNES_REF.gamma) - 1.0
                      for e in np.linspace(-300 * d, 300 * d, 20001)]),
            np.linspace(-300 * d, 300 * d, 20001))
        assert abs(at_300) < abs(at_100)

    @pytest.mark.parametrize("delta, gamma, T", ORACLE_SETS)
    def test_against_adaptive_oracle(self, delta, gamma, T):
        p = DynesParams(Delta=delta, gamma=gamma, T=T, A=1.0)
        kT = CONSTANTS.kB_eV * T

        def oracle(V):
            width = abs(V) + 30.0 * kT + 10.0 * delta

            def integrand(E):
                x = (E + V) / (2.0 * kT)
                if abs(x) > 300.0:
                    return 0.0
                z = complex(E, -gamma)
                # cmath.sqrt, not ** 0.5: complex pow loses ~1e-11 of the
                # in-gap real part at gamma / Delta ~ 1e-6
                return (abs((z / cmath.sqrt(z * z - delta * delta)).real)
                        / (4.0 * kT * math.cosh(x) ** 2))

            pts = [x for x in (-delta, -V, delta) if -width < x < width]
            val, _ = quad(integrand, -width, width, points=sorted(set(pts)),
                          limit=300, epsabs=0.0, epsrel=1e-13)
            return val

        bias = np.linspace(-4 * delta, 4 * delta, 33)
        for v, g in zip(bias, dynes_conductance(bias, p)):
            assert g == pytest.approx(oracle(v), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("delta, gamma, T", ORACLE_SETS)
    def test_array_matches_shared_rule(self, delta, gamma, T):
        # the rule, not only its accuracy: a 30 kB T support or panels not
        # graded at +-Delta miss this by 2e-13 or more
        p = DynesParams(Delta=delta, gamma=gamma, T=T, A=1.3)
        special = [delta, -delta, 0.0, 1e-12, -1e-12, 50 * delta, -50 * delta]
        bias = np.concatenate([special, np.linspace(-4 * delta, 4 * delta, 33)])
        for n in (1, 7, 8, 9, bias.size):
            assert dynes_conductance(bias[:n], p) == pytest.approx(
                shared_rule(bias[:n], p), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("delta, gamma, T", ORACLE_SETS)
    def test_value_depends_on_other_biases_only_through_the_rule(self, delta, gamma, T):
        # one rule serves every bias of a call, so a value alone and among
        # 40 others differ; measured up to 8e-14 relative
        p = DynesParams(Delta=delta, gamma=gamma, T=T, A=1.3)
        special = [delta, -delta, 0.0, 1e-12, -1e-12, 50 * delta, -50 * delta]
        bias = np.concatenate([special, np.linspace(-4 * delta, 4 * delta, 33)])
        alone = np.array([dynes_conductance(v, p) for v in bias])
        assert dynes_conductance(bias, p) == pytest.approx(alone, rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("T, gamma", COLD_SETS)
    def test_cold_against_mpmath(self, T, gamma):
        p = DynesParams(Delta=2.6e-3, gamma=gamma, T=T, A=1.0)
        bias = np.linspace(-4 * p.Delta, 4 * p.Delta, 41)
        tracemalloc.start()
        try:
            values = dynes_conductance(bias, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        for v, g in list(zip(bias, values))[::5]:  # -4, -3, ..., 4 Delta
            assert g == pytest.approx(float(mpmath_conductance(v, p)), rel=1e-10, abs=0.0)

    def test_temperature_below_the_floor_refused(self):
        # kB T >= 1e-7 max(Delta, |V|) holds the rule to 3.3e-11 of the mpmath
        # oracle; at 1e-8 it is 3e-10 off
        p = DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=1e-6, A=1.0)
        bias = np.linspace(-4 * p.Delta, 4 * p.Delta, 41)
        with pytest.raises(ValueError, match="outside"):
            dynes_conductance(bias, p)
        floor = DynesParams(Delta=2.6e-3, gamma=0.465e-3, A=1.0,
                            T=1.0001e-7 * 4 * p.Delta / CONSTANTS.kB_eV)
        values = dynes_conductance(bias, floor)
        for i in (0, 15, 20, 25, 40):  # -4, -1, 0, 1, 4 Delta
            assert values[i] == pytest.approx(
                float(mpmath_conductance(bias[i], floor)), rel=1e-10, abs=0.0)
        with pytest.raises(ValueError, match="outside"):
            dynes_conductance(0.0, DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=1e-300))

    def test_energy_that_squares_past_the_float_range_refused(self):
        # the rule reaches max(Delta, |V|) + 36 kB T in E, and the density
        # squares E; at 1e156 K that is 3.1e153 eV, at 1e157 K 3.1e154 eV
        bias = np.linspace(-4 * DYNES_REF.Delta, 4 * DYNES_REF.Delta, 33)
        hot = DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=1e156)
        assert np.isfinite(dynes_conductance(bias, hot)).all()
        with pytest.raises(ValueError, match="outside"):
            dynes_conductance(bias, DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=1e157))
        with pytest.raises(ValueError, match="outside"):
            dynes_conductance(1e154, DYNES_REF)

    def test_scalar_call_returns_float(self):
        assert type(dynes_conductance(0.0, DYNES_REF)) is float
        assert type(dynes_conductance(np.float64(1e-3), DYNES_REF)) is float
        assert dynes_conductance(np.zeros(0), DYNES_REF).shape == (0,)

    def test_density_even_and_positive(self):
        for e in np.linspace(-10e-3, 10e-3, 41):
            n = dynes_density(e, 2.6e-3, 0.465e-3)
            assert n >= 0.0
            assert n == pytest.approx(dynes_density(-e, 2.6e-3, 0.465e-3), rel=1e-12)


def synthetic_conductance(params, n=33, span=4.0, noise=0.0, seed=None):
    v = np.linspace(-span * params.Delta, span * params.Delta, n)
    g = dynes_conductance(v, params)
    if noise:
        rng = np.random.default_rng(seed)
        g = g * (1.0 + noise * rng.standard_normal(n))
    return list(zip(v, g))


class TestDynesFit:
    def test_noiseless_round_trip(self):
        points = synthetic_conductance(DYNES_REF)
        fit = dynes_fit(points, T=4.6)
        assert fit.Delta == pytest.approx(DYNES_REF.Delta, rel=1e-4)
        assert fit.gamma == pytest.approx(DYNES_REF.gamma, rel=1e-4)
        assert fit.A == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("scale", [2.0 ** -40, 1e-9, 1e-6, 1e30, 1e-200, 1e200, 1e308])
    def test_fit_does_not_depend_on_the_conductance_unit(self, scale):
        # the solver's tolerances are absolute, so it fits G in its own binary scale
        points = synthetic_conductance(DYNES_REF)
        unscaled = dynes_fit(points, T=4.6)
        fit = dynes_fit([(v, g * scale) for v, g in points], T=4.6)
        assert fit.Delta == pytest.approx(unscaled.Delta, rel=1e-9)
        assert fit.gamma == pytest.approx(unscaled.gamma, rel=1e-9)
        assert fit.A / scale == pytest.approx(unscaled.A, rel=1e-9)

    def test_gap_recovery_under_noise(self):
        for seed in (0, 1, 2):
            points = synthetic_conductance(DYNES_REF, noise=0.01, seed=seed)
            fit = dynes_fit(points, T=4.6)
            assert fit.Delta == pytest.approx(DYNES_REF.Delta, rel=0.02)

    def test_one_conductance_call_per_new_gap_and_broadening(self, monkeypatch):
        # G = A N(V; Delta, gamma) is linear in A: a residual at a (Delta, gamma) the fit
        # has evaluated, as the A column of each Jacobian is, scales that N again
        points = synthetic_conductance(DYNES_REF, noise=0.01, seed=0)
        biases, residuals = [], []
        conductance, least_squares = analysis.dynes_conductance, _trf.least_squares

        def counted_conductance(V, p):
            biases.append(np.array(V, copy=True))
            assert p.A == 1.0  # the amplitude-free conductance
            return conductance(V, p)

        def counted_least_squares(fun, *args, **kwargs):
            def counted_fun(theta):
                residuals.append((len(biases), theta[:2].tobytes()))
                return fun(theta)
            return least_squares(counted_fun, *args, **kwargs)

        monkeypatch.setattr(analysis, "dynes_conductance", counted_conductance)
        monkeypatch.setattr(_trf, "least_squares", counted_least_squares)
        dynes_fit(points, T=4.6)
        assert len(residuals) > 3
        # the n-th residual evaluation starts after one call per new (Delta, gamma) before it
        keys = [key for _, key in residuals]
        new = [key not in keys[:n] for n, key in enumerate(keys)]
        assert [calls for calls, _ in residuals] == [sum(new[:n]) for n in range(len(new))]
        assert len(biases) == sum(new) == len(set(keys)) < len(residuals)
        for v in biases:
            assert v.tobytes() == np.array([p[0] for p in points]).tobytes()
        # nothing outlives the fit: the same fit again calls as often again
        dynes_fit(points, T=4.6)
        assert len(biases) == 2 * sum(new)

    def test_start_whose_gap_squares_to_zero_is_refused(self, monkeypatch):
        # every bias times 1e-200: the starting gap, about 3e-203 eV, squares to 0,
        # and the density divided by zero; scipy's solver then warned and raised its own error
        monkeypatch.setattr(_trf, "least_squares", None)  # must not be reached
        points = [(v * 1e-200, g) for v, g in synthetic_conductance(DYNES_REF)]
        with pytest.raises(FitError, match="squares below the float range"):
            dynes_fit(points, T=4.6)

    @pytest.mark.parametrize("points, match", [
        ([(v * 1e200, g) for v, g in synthetic_conductance(DYNES_REF)],
         "bias range .* reaches past the ~1e154 eV"),
        ([(1.7e308 if i == 21 else v, g)
          for i, (v, g) in enumerate(synthetic_conductance(DYNES_REF))],
         "bias range .* reaches past the ~1e154 eV"),
        ([(v, 1e300 if i == 24 else g * 1e-100)
          for i, (v, g) in enumerate(synthetic_conductance(DYNES_REF))],
         r"\|G_arb\| = 1e\+300 overflows against the mean outer conductance"),
    ], ids=["bias-times-1e200", "bias-1.7e308", "g-1e300-among-1e-100"])
    def test_input_out_of_range_is_refused_before_scipy(self, monkeypatch, points, match):
        # each once warned of an overflow; the biases then exited 2, blaming T
        monkeypatch.setattr(_trf, "least_squares", None)  # must not be reached
        with pytest.raises(FitError, match=match):
            dynes_fit(points, T=4.6)

    def test_start_with_non_finite_residuals_is_refused(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "dynes_conductance", lambda V, p:
                            calls.append(p) or np.full(len(V), math.nan))
        with pytest.raises(FitError, match="squared residuals are not finite"):
            dynes_fit(synthetic_conductance(DYNES_REF), T=4.6)
        assert len(calls) == 1  # the solver's first evaluation, before any step

    def test_too_few_points(self):
        with pytest.raises(FitError):
            dynes_fit(synthetic_conductance(DYNES_REF, n=10), T=4.6)

    def test_narrow_bias_range_rejected(self):
        with pytest.raises(FitError):
            dynes_fit(synthetic_conductance(DYNES_REF, n=25, span=1.2), T=4.6)

    def test_one_polarity_bias_range_rejected(self):
        bias = np.linspace(0.1, 4.0, 25) * DYNES_REF.Delta
        points = list(zip(bias, dynes_conductance(bias, DYNES_REF)))
        with pytest.raises(FitError, match="^bias range must span both polarities$"):
            dynes_fit(points, T=4.6)

    def test_points_must_be_pairs(self):
        triples = [(v, g, 0.0) for v, g in synthetic_conductance(DYNES_REF, n=20)]
        with pytest.raises(ValueError, match="cannot reshape"):
            dynes_fit(triples, T=4.6)

    def test_cli_import_loads_no_scipy(self):
        # nor the fit's solver, which dynes_fit imports when it runs
        src = Path(sccasimir.__file__).resolve().parent.parent
        code = ("import sys, sccasimir.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
                " or m == 'sccasimir._trf'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_fit_loads_no_scipy(self):
        src = Path(sccasimir.__file__).resolve().parent.parent
        code = ("import sys, numpy as np\n"
                "from sccasimir.analysis import DynesParams, dynes_conductance, dynes_fit\n"
                "p = DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=4.6)\n"
                "v = np.linspace(-4 * p.Delta, 4 * p.Delta, 33)\n"
                "print(dynes_fit(list(zip(v, dynes_conductance(v, p))), T=4.6).Delta)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout.split("\n")
        assert float(out[0]) == pytest.approx(2.6e-3, rel=1e-9)
        assert out[1] == "[]"

    def test_csv_loader(self, tmp_path):
        # dynes-fit reads its conductance file through the shared reader
        path = tmp_path / "dynes.csv"
        path.write_text("V_volt,G_arb\n-0.01,1.0\n0.0,0.2\n0.01,1.0\n")
        assert read_csv(path, ("V_volt", "G_arb")) == [
            (2, (-0.01, 1.0)), (3, (0.0, 0.2)), (4, (0.01, 1.0))]
        bad = tmp_path / "bad.csv"
        bad.write_text("volts,cond\n1,2\n")
        with pytest.raises(ParseError):
            read_csv(bad, ("V_volt", "G_arb"))


def pool_curve(seed):
    """The benchmark's frozen fit input for one noise seed: 33 biases in +-4 Delta, each
    conductance computed alone, with 1% multiplicative noise."""
    v = np.linspace(-4.0 * DYNES_REF.Delta, 4.0 * DYNES_REF.Delta, 33)
    g = np.array([dynes_conductance(x, DYNES_REF) for x in v])
    return list(zip(v, g * (1.0 + 0.01 * np.random.default_rng(seed).standard_normal(33))))


# the unpatched solver and its reflection step, which each run wraps afresh
SOLVE, REFLECT = _trf.least_squares, _trf._intersect_trust_region


class TestTrustRegionSolver:
    """dynes_fit's solver against the scipy routine it ports, least_squares with
    method 'trf': each fit runs both on the same residuals, which must give the same
    bits of x, the same nfev and the same status."""

    @staticmethod
    def run_both(monkeypatch, curves, cap=None):
        from scipy.optimize import least_squares

        runs, reflections = [], []  # the trust region is intersected only along a reflected step
        monkeypatch.setattr(_trf, "_intersect_trust_region",
                            lambda *args: reflections.append(1) or REFLECT(*args))

        def both(fun, x0, lb, ub, tol, max_nfev):
            n = max_nfev if cap is None else cap
            before = len(reflections)
            ours = SOLVE(fun, x0, lb, ub, tol, n)
            theirs = least_squares(fun, x0, bounds=(lb, ub), max_nfev=n,
                                   xtol=tol, ftol=tol, gtol=tol)
            runs.append(([(r.x.tobytes(), r.nfev, r.status, r.success,
                           "" if r.success else r.message)  # scipy's words on a failure
                          for r in (ours, theirs)], len(reflections) > before))
            return ours

        monkeypatch.setattr(_trf, "least_squares", both)
        for points, T in curves:
            try:
                dynes_fit(points, T=T)
            except FitError:  # refused before the solver ran, or stopped by the cap
                pass
        assert all(ours == theirs for (ours, theirs), _ in runs)
        return runs

    def test_every_frozen_pool_fit_is_scipys(self, monkeypatch):
        runs = self.run_both(monkeypatch, [(pool_curve(seed), 4.6) for seed in range(32)])
        assert len(runs) == 32
        assert all(ours[3] for (ours, _), _ in runs)

    def test_every_frozen_pool_fit_is_scipys_on_the_plain_residual(self, monkeypatch):
        # dynes_fit's residual scales a kept amplitude-free conductance; scipy's solver runs
        # on the residual with no reuse, from the same start, bounds and scaled data
        from scipy.optimize import least_squares

        runs = []

        def both(fun, x0, lb, ub, tol, max_nfev):
            ours = SOLVE(fun, x0, lb, ub, tol, max_nfev)
            g = -fun(np.array([x0[0], x0[1], 0.0]))  # the residual at A = 0 is -G

            def plain(theta):
                delta, gamma, a = theta
                return dynes_conductance(bias, DynesParams(delta, gamma, 4.6, A=a)) - g

            theirs = least_squares(plain, x0, bounds=(lb, ub), max_nfev=max_nfev,
                                   xtol=tol, ftol=tol, gtol=tol)
            runs.append([(r.x.tobytes(), r.nfev) for r in (ours, theirs)])
            return ours

        monkeypatch.setattr(_trf, "least_squares", both)
        for seed in range(32):
            points = pool_curve(seed)
            bias = np.array([v for v, _ in points])  # ascending: the fit's own order
            dynes_fit(points, T=4.6)
        assert len(runs) == 32
        assert all(ours == theirs for ours, theirs in runs)

    def test_frozen_pool_fits_count_their_conductance_calls(self, monkeypatch):
        # 996 residual evaluations, one conductance call each before the A column of a
        # Jacobian reused its base point's conductance; 244 Jacobians reuse it now
        calls, residuals = [], []
        conductance, least_squares = analysis.dynes_conductance, _trf.least_squares
        monkeypatch.setattr(analysis, "dynes_conductance",
                            lambda V, p: calls.append(1) or conductance(V, p))
        monkeypatch.setattr(_trf, "least_squares", lambda fun, *args, **kwargs: least_squares(
            lambda theta: residuals.append(1) or fun(theta), *args, **kwargs))
        for seed in range(32):
            dynes_fit(pool_curve(seed), T=4.6)
        assert (len(residuals), len(calls)) == (996, 752)

    def test_fits_that_reflect_at_a_bound_are_scipys(self, monkeypatch):
        # a small gamma under a few percent of noise is driven to its lower bound
        rng, runs = np.random.default_rng(4), []
        for _ in range(40):  # 2 draws with this seed, 1 to 29 with seeds 0 to 11
            if any(reflected for _, reflected in runs):
                break
            delta = DYNES_REF.Delta * rng.uniform(0.3, 2.0)
            p = DynesParams(Delta=delta, gamma=delta * 10 ** rng.uniform(-3.0, -2.0),
                            T=rng.uniform(0.5, 10.0))
            v = np.linspace(-4.0 * delta, 4.0 * delta, int(rng.integers(21, 81)))
            g = dynes_conductance(v, p) * (1.0 + rng.uniform(0.01, 0.05)
                                           * rng.standard_normal(len(v)))
            runs += self.run_both(monkeypatch, [(list(zip(v, g)), p.T)])
        assert any(reflected for _, reflected in runs)

    # each case tells apart a port that scales a step differently at a bound: the
    # reflected step, the step along the antigradient, or a Jacobian step that is not
    # flipped back inside from an upper bound
    @pytest.mark.parametrize("x0, lb, ub", [
        ([-2.0, 2.0], [-np.inf, 1.5], [np.inf, np.inf]),
        ([-0.37, 0.5], [-1.75, 0.5], [-0.17, 0.98]),
        ([-0.48, 0.08], [-1.27, 0.02], [0.63, 0.1]),
        ([0.91, -0.43], [-0.29, -1.03], [0.91, -0.35]),
    ], ids=["half-open", "reflected", "antigradient", "start-on-upper-bound"])
    def test_bounded_rosenbrock_is_scipys(self, x0, lb, ub):
        # steps the Dynes fits rarely take, on a problem whose minimum is on a bound
        from scipy.optimize import least_squares

        def rosenbrock(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        ours = _trf.least_squares(rosenbrock, x0, lb, ub, tol=1e-12, max_nfev=400)
        theirs = least_squares(rosenbrock, x0, bounds=(lb, ub), max_nfev=400,
                               xtol=1e-12, ftol=1e-12, gtol=1e-12)
        assert ((ours.x.tobytes(), ours.nfev, ours.status)
                == (theirs.x.tobytes(), theirs.nfev, theirs.status))

    @pytest.mark.parametrize("max_nfev", [3, 5, 10])
    def test_capped_fits_are_scipys(self, monkeypatch, max_nfev):
        # seed 5 converges after 11 evaluations, the others after 7 to 10
        runs = self.run_both(monkeypatch, [(pool_curve(seed), 4.6) for seed in range(6)],
                             cap=max_nfev)
        assert len(runs) == 6
        assert all(ours[1] <= max_nfev for (ours, _), _ in runs)
        assert any(ours[1] == max_nfev and not ours[3] for (ours, _), _ in runs)


class TestGenerateSweep:
    def test_deterministic(self):
        truth = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=-1.5e7,
                           Tc=14.2, noise_f=4.7e-3, grid=GRID)
        assert columns(generate_sweep(truth, seed=42)) == columns(generate_sweep(truth, seed=42))
        assert columns(generate_sweep(truth, seed=42)) != columns(generate_sweep(truth, seed=43))

    def test_noiseless_zero_jump_calibrates_flat(self):
        truth = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=0.0,
                           Tc=14.2, noise_f=0.0, grid=GRID)
        result = calibrate_thermal(generate_sweep(truth), WINDOW)
        assert (np.abs(result.dw2) < 0.01).all()  # sqrt/square round trip at 1e-16 relative

    def test_noiseless_jump_recovered_exactly(self):
        truth = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=-1.5e7,
                           Tc=14.2, noise_f=0.0, grid=GRID)
        result = calibrate_thermal(generate_sweep(truth), WINDOW)
        above = result.dw2[result.T > 14.2].tolist()
        assert above == pytest.approx([-1.5e7] * len(above), rel=1e-9)

    def test_noise_matches_one_draw_per_point(self):
        truth = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=-1.5e7,
                           Tc=14.2, noise_f=4.7e-3, grid=GRID)
        rng = np.random.default_rng(42)
        expected = [math.sqrt(INTERCEPT + SLOPE * t + (-1.5e7 if t > 14.2 else 0.0))
                    / (2.0 * math.pi) + 4.7e-3 * rng.standard_normal() for t in GRID]
        assert generate_sweep(truth, seed=42).f.tolist() == expected

    def test_first_non_positive_omega_squared_is_named(self):
        truth = SweepTruth(slope=-INTERCEPT / 13.9, intercept=INTERCEPT, jump=0.0,
                           Tc=14.2, noise_f=0.0, grid=GRID)
        with pytest.raises(ValueError, match="non-positive omega\\^2 at 13.925 K"):
            generate_sweep(truth)
        # a record before that point still raises its own error first
        truth = SweepTruth(slope=-INTERCEPT / 13.9, intercept=INTERCEPT, jump=0.0,
                           Tc=14.2, noise_f=0.0, grid=(-1.0, *GRID))
        with pytest.raises(ValueError, match="T must be > 0, got -1.0"):
            generate_sweep(truth)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            SweepTruth(slope=0.0, intercept=INTERCEPT, jump=0.0, Tc=14.2,
                       noise_f=0.0, grid=(14.0, 13.5))

    def test_negative_seed_is_named(self):
        truth = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=0.0,
                           Tc=14.2, noise_f=4.7e-3, grid=GRID)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            generate_sweep(truth, seed=-1)


class TestSweepPipeline:
    def _pair(self, jump_small, noise=0.0, seed=0):
        small = SweepTruth(slope=SLOPE, intercept=INTERCEPT, jump=jump_small,
                           Tc=14.2, noise_f=noise, grid=GRID)
        big = SweepTruth(slope=-2.6e7, intercept=(2 * math.pi * 343008.0) ** 2
                         + 2.6e7 * 14.2, jump=0.0, Tc=14.2, noise_f=noise,
                         grid=GRID)
        return generate_sweep(small, seed=seed), generate_sweep(big, seed=seed + 1)

    def test_noiseless_recovery_exact(self, small_gap):
        jump = dw2_from_gradient(12.1e3, small_gap)
        small, big = self._pair(jump)
        report = sweep_pipeline(small, big, WINDOW, small_gap, factors=FACTORS)
        assert report.gradient_jump == pytest.approx(12.1e3, rel=1e-6)
        assert report.dw2_jump == pytest.approx(jump, rel=1e-6)

    def test_end_to_end_linearity(self, small_gap):
        jump = dw2_from_gradient(12.1e3, small_gap)
        one = sweep_pipeline(*self._pair(jump), WINDOW, small_gap)
        half = sweep_pipeline(*self._pair(0.5 * jump), WINDOW, small_gap)
        assert one.gradient_jump == pytest.approx(
            2.0 * half.gradient_jump, rel=1e-6)

    def test_window_must_sit_below_transition(self, small_gap):
        small, big = self._pair(dw2_from_gradient(12.1e3, small_gap))
        with pytest.raises(ValueError, match="transition"):
            sweep_pipeline(small, big, (14.3, 14.6), small_gap)

    def test_window_reaching_the_transition_refused(self, small_gap):
        pair = self._pair(dw2_from_gradient(12.1e3, small_gap))
        with pytest.raises(ValueError, match=r"^fit window \(13.0, 14.2\) reaches the "
                                             r"transition at 14.2 K$"):
            sweep_pipeline(*pair, (13.0, 14.2), small_gap)
        # an empty window is reported before one that reaches the transition
        with pytest.raises(ValueError, match=r"^empty window \(14.3, 14.2\)$"):
            sweep_pipeline(*pair, (14.3, 14.2), small_gap)

    def test_no_point_above_the_window_refused(self, small_gap):
        sweep = line_sweep(SLOPE, INTERCEPT, GRID[:21])  # 13.175 to 14.175 K
        with pytest.raises(ValueError, match="^no differential points above the fit window$"):
            sweep_pipeline(sweep, sweep, WINDOW, small_gap)

    def test_conversion_attached(self, small_gap):
        jump = dw2_from_gradient(12.1e3, small_gap)
        report = sweep_pipeline(*self._pair(jump), WINDOW, small_gap,
                                factors=FACTORS)
        assert report.conversion is not None
        assert report.conversion.dP == pytest.approx(-0.65e-3, abs=0.07e-3)

    def test_point_conversions_are_row_arrays(self, small_gap):
        pair = self._pair(dw2_from_gradient(12.1e3, small_gap), noise=4.7e-3)
        assert sweep_pipeline(*pair, WINDOW, small_gap).point_conversions is None
        report = sweep_pipeline(*pair, WINDOW, small_gap, factors=FACTORS)
        rows = [convert_fem(dw2 / (4.0 * math.pi ** 2), FACTORS)
                for dw2 in report.differential[1].tolist()]
        assert report.point_conversions.dF.tolist() == [row.dF for row in rows]
        assert report.point_conversions.dP.tolist() == [row.dP for row in rows]
        assert report.point_conversions.dz.tolist() == [row.dz for row in rows]

    def test_array_records_compare_by_identity(self, small_gap):
        # two runs give equal arrays; a field-wise == would ask an array for
        # its truth value, and a field-wise hash cannot hash an array
        pair = self._pair(dw2_from_gradient(12.1e3, small_gap), noise=4.7e-3)
        one, two = (sweep_pipeline(*pair, WINDOW, small_gap, factors=FACTORS)
                    for _ in range(2))
        assert one.small.dw2.tolist() == two.small.dw2.tolist()
        for a, b in ((one, two), (one.small, two.small),
                     (one.point_conversions, two.point_conversions)):
            assert a == a and a != b
            assert len({a, b}) == 2
