import math
import pickle
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from itertools import combinations, takewhile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sccasimir.errors import ConvergenceError, ParseError
from sccasimir.physcore import CONSTANTS, SuperconductorParams, matsubara_frequency
from sccasimir.permittivity import (
    bcs,
    drude,
    effective_plasma_frequency,
    permittivity_iw,
    plasma,
)
from sccasimir import lifshitz, permittivity
from sccasimir.lifshitz import (
    LifshitzSpec,
    PlatePlate,
    QuadratureConfig,
    SpherePlate,
    ZeroFreqApproach,
    _ABS_TOL_PRESSURE,
    _PAIRS,
    _STATIC_TM,
    _dynamic_integrals,
    _fresnel,
    _momentum_rule,
    _static_te,
    _static_te_integral,
    _static_te_omega,
    casimir_pressure,
    casimir_pressure_detail,
    casimir_pressure_gradient,
    casimir_pressure_gradient_detail,
    classical_terms,
    ideal_casimir_force,
    local_exponent,
    tc_jump,
)

FAST = QuadratureConfig(term_stop_rel=1e-8)
LOOSE = QuadratureConfig(term_stop_rel=1e-6)


def dynamic_terms(d, T, model, ls, power):
    """The engine's momentum integrals of the indices ``ls``, with energies
    and permittivities built here rather than read from its term series."""
    xi = matsubara_frequency(np.asarray(ls), T)
    return _dynamic_integrals(d, xi, permittivity_iw(model, xi, T), power,
                              *_momentum_rule(d, xi[0]))


def partition(d, T, cap):
    """The engine's blocks of l >= 1 terms up to the cap, laid out here one at a time:
    the scalar first energy of each picks its rule, and ``_PAIRS // nodes`` of the rule
    sizes it.  Yields each block's offset and energies, lazily."""
    offset = 0
    while offset < cap:
        n = _PAIRS // len(_momentum_rule(d, matsubara_frequency(offset + 1, T))[0])
        xi = matsubara_frequency(np.arange(offset + 1, min(offset + n, cap) + 1), T)
        yield offset, xi
        offset += len(xi)


def block_holding(d, T, cap, n):
    """Offset and energies of the block that holds term ``n``."""
    for offset, xi in partition(d, T, cap):
        if n <= offset + len(xi):
            return offset, xi


@pytest.fixture
def cold_memo():
    """Empty the pairing-kernel table and the engine's memo of l >= 1 series, so
    a test counts every evaluation; returns the function that empties them again."""
    def clear():
        permittivity._g_decade.cache_clear()
        lifshitz._series.cache_clear()
    clear()
    return clear


class TestFresnel:
    # the engine's arguments: x = xi/hbar_c and q = sqrt(x^2 + k^2) >= x
    def test_vacuum_reflects_nothing(self):
        x = 0.3 / CONSTANTS.hbar_c_eVm
        assert _fresnel(1.0, math.hypot(x, 1e7), x) == (0.0, 0.0)
        assert _fresnel(1.0, 1e5, 0.0) == (0.0, 0.0)

    def test_near_perfect_conductor(self):
        x = 1.0 / CONSTANTS.hbar_c_eVm
        r_te, r_tm = _fresnel(1e12, math.hypot(x, 1e6), x)
        assert r_tm == pytest.approx(1.0, abs=1e-5)
        assert r_te == pytest.approx(-1.0, abs=1e-5)

    def test_drude_te_vanishes_at_zero_frequency(self, sc_params):
        # eps*xi^2 -> 0 for the Drude response, so r_te -> 0 at fixed k
        k = 5e6
        model = drude(sc_params)
        previous = 1.0
        for xi in (1e-2, 1e-4, 1e-6, 1e-8):
            x = xi / CONSTANTS.hbar_c_eVm
            r_te, _ = _fresnel(permittivity_iw(model, xi, 20.0), math.hypot(x, k), x)
            assert abs(r_te) < previous
            previous = abs(r_te)
        assert previous < 1e-6

    def test_bounds_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            eps = 10.0 ** rng.uniform(0.0, 8.0)
            x = 10.0 ** rng.uniform(-6.0, 1.0) / CONSTANTS.hbar_c_eVm
            k = 10.0 ** rng.uniform(0.0, 9.0)
            r_te, r_tm = _fresnel(eps, math.hypot(x, k), x)
            assert -1.0 <= r_te <= 0.0
            assert 0.0 <= r_tm <= 1.0


def quad_static_te(d, omega_eff, power):
    """The static TE momentum integral by adaptive quadrature of a scalar
    integrand written out independently of the engine, with the condensate
    layer ``y_p`` and its doublings as breakpoints."""
    kp = omega_eff / CONSTANTS.hbar_c_eVm

    def integrand(y):
        q = y / (2.0 * d)
        r = -(kp / (q + math.sqrt(q * q + kp * kp))) ** 2
        t = r * r * math.exp(-y)
        return y ** power * t / (1.0 - t) ** (power - 1)

    y_p = 2.0 * d * kp
    points = [y_p * 2.0 ** k for k in range(64) if y_p * 2.0 ** k < 50.0]
    value, _ = quad(integrand, 0.0, 50.0, epsabs=0.0, epsrel=1e-13, limit=500,
                    points=points or None)
    return value


class TestStaticTE:
    # the engine's arguments: momentum k and kp = omega_eff/hbar_c, in 1/m
    KP = 5.33 / CONSTANTS.hbar_c_eVm

    def test_grazing_limit(self):
        assert _static_te(0.0, self.KP) == -1.0

    def test_large_momentum_limit(self):
        assert abs(_static_te(1e12, self.KP)) < 2e-5

    def test_at_plasma_momentum(self):
        expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        assert _static_te(self.KP, self.KP) == pytest.approx(expected, rel=1e-12)

    def test_zero_plasma_energy_means_no_reflection(self):
        assert _static_te(1e6, 0.0) == 0.0

    def test_range(self):
        for k in np.geomspace(1.0, 1e10, 30):
            assert -1.0 <= _static_te(k, self.KP) <= 0.0

    # values from a 30-digit evaluation of the same integral
    @pytest.mark.parametrize("d, expected", [
        (50e-9, 2.34668455642e-13),
        (100e-9, 1.87577447439e-12),
        (190e-9, 1.28481406297e-11),
    ])
    def test_integral_resolves_condensate_layer_near_tc(self, sc_params, d,
                                                        expected):
        # a microkelvin below Tc the reflection switches on in a layer at
        # y ~ 1e-4, far narrower than the integration span
        w = effective_plasma_frequency(sc_params.Tc - 1e-6, sc_params)
        assert _static_te_integral(d, w, 2) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("power", [2, 3])
    def test_integral_stays_resolved_up_to_tc(self, sc_params, power):
        # from 0.1 K to 1e-13 K below Tc the condensate layer y_p shrinks
        # by more than ten decades, for dirty, clean and ultra-clean films; bare
        # and huge plasma energies put it at or past the end of the span
        omegas = [sc_params.Omega, 1e4]
        for p in (sc_params, replace(sc_params, gamma0=0.465e-3),
                  replace(sc_params, gamma0=1e-17)):
            for below in np.geomspace(1e-13, p.Tc - 0.1, 15):
                omegas.append(effective_plasma_frequency(p.Tc - below, p))
        worst = 0.0
        for omega_eff in omegas:
            for d in np.geomspace(50e-9, 5e-6, 6):
                got = _static_te_integral(d, omega_eff, power)
                want = quad_static_te(d, omega_eff, power)
                worst = max(worst, abs(got / want - 1.0))
        assert worst <= 1e-9


class TestClassicalTerms:
    def test_gradient_headline(self):
        _, grad = classical_terms(190e-9, 14.2)
        assert grad == pytest.approx(21.6e3, rel=1e-3)

    def test_static_pressure_value(self):
        p_tm0, _ = classical_terms(190e-9, 14.2)
        assert p_tm0 == pytest.approx(-1.367e-3, rel=1e-3)

    def test_exact_quartic_scaling(self):
        _, g1 = classical_terms(190e-9, 14.2)
        _, g2 = classical_terms(380e-9, 14.2)
        assert g2 == g1 / 16.0

    def test_closed_form(self):
        d, t = 3e-7, 10.0
        p_tm0, grad = classical_terms(d, t)
        amp = CONSTANTS.kB_J * t * CONSTANTS.zeta3 / (8.0 * math.pi)
        assert p_tm0 == pytest.approx(-amp / d**3, rel=1e-14)
        assert grad == pytest.approx(3.0 * amp / d**4, rel=1e-14)

    # the checks LifshitzSpec makes: 0 < d**4 < inf and 1e-300 <= T < inf
    @pytest.mark.parametrize("d, T", [
        (math.nan, 1.0), (1.0, math.inf), (1e-300, 1.0), (1e-90, 1.0), (1e80, 1.0),
        (1.0, math.nan), (0.0, 1.0), (1.0, 0.0), (1.0, 1e-301),
    ])
    def test_rejects_what_the_spec_rejects(self, sc_params, d, T):
        with pytest.raises(ValueError):
            classical_terms(d, T)
        with pytest.raises(ValueError):
            LifshitzSpec(d=d, T=T, model=drude(sc_params))


class TestIdealForce:
    def test_plate_plate_headline(self):
        force = ideal_casimir_force(PlatePlate(area=4.9e-7, d=190e-9))
        assert force == pytest.approx(4.89117e-7, rel=5e-3)

    def test_sphere_plate_headline(self):
        force = ideal_casimir_force(SpherePlate(radius=0.113, d=600e-9))
        assert force == pytest.approx(1.42528e-9, rel=5e-3)

    def test_doubling_separation(self):
        f1 = ideal_casimir_force(PlatePlate(area=1e-6, d=100e-9))
        f2 = ideal_casimir_force(PlatePlate(area=1e-6, d=200e-9))
        assert f2 == f1 / 16.0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            PlatePlate(area=0.0, d=1e-7)
        with pytest.raises(TypeError):
            ideal_casimir_force("plate")

    @pytest.mark.parametrize("geometry", [
        PlatePlate(area=1e-300, d=190e-9), SpherePlate(radius=1e-300, d=190e-9),
        PlatePlate(area=1.0, d=1e71),
    ], ids=["plate-area", "sphere-radius", "plate-separation"])
    def test_underflowing_force_is_refused(self, geometry):
        with pytest.raises(ValueError, match="underflows"):
            ideal_casimir_force(geometry)


def quad_term(d, T, model, xi, power):
    """One l >= 1 momentum integral by adaptive quadrature of a scalar
    integrand written out independently of the engine."""
    eps = permittivity_iw(model, xi, T)
    x = xi / CONSTANTS.hbar_c_eVm
    y0 = 2.0 * d * x

    def integrand(y):
        q = y / (2.0 * d)
        s = math.sqrt(q * q + (eps - 1.0) * x * x)
        total = 0.0
        for r in ((q - s) / (q + s), (eps * q - s) / (eps * q + s)):
            t = r * r * math.exp(-y)
            total += t / (1.0 - t) ** (power - 1)
        return y ** power * total

    value, _ = quad(integrand, y0, y0 + 50.0, epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def energy_at_edge(d, y0):
    """The least energy whose photon edge ``2 d xi / hbar_c``, computed as
    the engine computes it, is at least ``y0``."""
    def edge(xi):
        return 2.0 * d * (xi / CONSTANTS.hbar_c_eVm)

    xi = y0 * CONSTANTS.hbar_c_eVm / (2.0 * d)
    while edge(xi) < y0:
        xi = np.nextafter(xi, np.inf)
    while edge(np.nextafter(xi, 0.0)) >= y0:
        xi = np.nextafter(xi, 0.0)
    return xi


def per_term_sum(spec, power):
    """The Matsubara sum one scalar momentum integral at a time, with the
    engine's stopping rule and its momentum rule, chosen by the first index
    of the block that holds ``l``: the reference for its blocked head.  The
    rule judges each term against the running total from the static TM term;
    the static TE term is added last.  Returns ``(n_terms, value, converged)``,
    the value in Pa or Pa/m."""
    d, T, cfg = spec.d, spec.T, spec.quad
    pref = CONSTANTS.kB_J * T / (8.0 * math.pi * d ** (power + 1))
    te = 0.5 * _static_te_integral(d, _static_te_omega(spec), power)
    running, consec, l, end = 0.5 * _STATIC_TM[power], 0, 0, 0
    blocks = partition(d, T, cfg.max_matsubara)
    while consec < 3 and l < cfg.max_matsubara:
        l += 1
        if l > end:  # the first energy of the next block picks the rule
            offset, block = next(blocks)
            end = offset + len(block)
            nodes, weights = _momentum_rule(d, block[0])
        xi = matsubara_frequency(l, T)
        eps = permittivity_iw(spec.model, xi, T)
        x = xi / CONSTANTS.hbar_c_eVm
        y = 2.0 * d * x + nodes
        q = y * (0.5 / d)
        s = np.sqrt(q * q + (eps - 1.0) * x * x)
        f = 0.0
        for r in ((q - s) / (q + s), (eps * q - s) / (eps * q + s)):
            t = r * r * np.exp(-y)
            f = f + t / (1.0 - t) ** (power - 1)
        term = float(np.dot(weights, y ** power * f))
        running += term
        small = abs(term) <= cfg.term_stop_rel * abs(running)
        if power == 2 and pref * abs(term) <= _ABS_TOL_PRESSURE:
            small = True
        consec = consec + 1 if small else 0
    sign = -1.0 if power == 2 else 1.0
    return l, sign * pref * (running + te), consec >= 3


def scalar_stop_sum(spec, power):
    """The Matsubara sum with the stopping rule applied one term at a time
    over the engine's blocks, against the running total from the static TM
    term, with the static TE term added last: the reference for its per-block
    scan.  Returns ``((n_terms, value, last_term, truncation_bound), converged,
    by_abs_tol)``, the value in Pa or Pa/m; ``by_abs_tol`` says that the
    absolute pressure tolerance, not the relative one, made the last term
    small."""
    cfg = spec.quad
    pref = CONSTANTS.kB_J * spec.T / (8.0 * math.pi * spec.d ** (power + 1))
    prefactor = -pref if power == 2 else pref
    te = 0.5 * _static_te_integral(spec.d, _static_te_omega(spec), power)
    running, consec, last, l = 0.5 * _STATIC_TM[power], 0, 0.0, 0
    converged = by_abs_tol = False
    for offset, xi in partition(spec.d, spec.T, cfg.max_matsubara):
        block = dynamic_terms(spec.d, spec.T, spec.model,
                              range(offset + 1, offset + len(xi) + 1), power)
        for term in block.tolist():
            l += 1
            running += term
            last = abs(term)
            small = last <= cfg.term_stop_rel * abs(running)
            by_abs_tol = not small
            if power == 2 and abs(prefactor) * last <= _ABS_TOL_PRESSURE:
                small = True
            consec = consec + 1 if small else 0
            if consec >= 3:
                converged = True
                break
        if converged:
            break
    total = running + te
    result = (l, prefactor * total, last, 10.0 * (last / abs(total)))
    return result, converged, by_abs_tol


class TestStoppingRule:
    """The per-block scan stops where the term-by-term rule stops, with
    the same value, last term and bound, bit for bit."""

    DETAIL = {2: casimir_pressure_detail, 3: casimir_pressure_gradient_detail}

    # where the stopping run lies, the node count of the rule of the block that
    # holds the stop, and whether the absolute pressure tolerance made its last
    # term small
    @pytest.mark.parametrize("make, d, T, rel, power, where, nodes, abs_tol", [
        (drude, 5e-6, 20.0, 1e-4, 3, "first-block", 32, False),
        (drude, 5e-6, 20.0, 1e-4, 2, "first-block", 32, True),
        (drude, 420e-9, 30.0, 1e-5, 2, "across-blocks", 12, False),
        (plasma, 500e-9, 10.5, 1e-5, 3, "across-blocks", 12, False),
        (drude, 1213e-9, 4.0, 1e-10, 2, "later-block", 12, True),
        (bcs, 1213e-9, 14.058, 1e-6, 3, "later-block", 12, False),
        (plasma, 500e-9, 4.0, 1e-10, 3, "later-block", 8, False),
    ], ids=["first-block-P'", "first-block-abs-tol-P", "across-blocks-P",
            "across-blocks-P'", "abs-tol-P", "bcs-P'", "eight-node-block-P'"])
    def test_equals_term_by_term_rule(self, sc_params, make, d, T, rel, power,
                                      where, nodes, abs_tol):
        spec = LifshitzSpec(d=d, T=T, model=make(sc_params),
                            quad=QuadratureConfig(term_stop_rel=rel))
        want, converged, by_abs_tol = scalar_stop_sum(spec, power)
        n_terms = want[0]
        assert converged
        offset, xi = block_holding(d, T, spec.quad.max_matsubara, n_terms)
        assert (offset == 0) == (where == "first-block")
        # a stop 1 or 2 terms into a block continues a run from the last one
        assert (n_terms - offset in (1, 2)) == (where == "across-blocks")
        assert len(_momentum_rule(d, xi[0])[0]) == nodes
        assert by_abs_tol == abs_tol
        got = self.DETAIL[power](spec)
        assert (got.n_terms, got.value, got.last_term, got.truncation_bound) == want

    @pytest.mark.parametrize("power", [2, 3], ids=["P", "Pprime"])
    # a cap of 1 makes a one-term block, the edge case of the scan's window
    @pytest.mark.parametrize("cap", [1, 5, 33, 70])
    def test_capped_sum_error_equals_term_by_term_rule(self, sc_params, cap, power):
        spec = LifshitzSpec(d=190e-9, T=4.0, model=bcs(sc_params),
                            quad=QuadratureConfig(max_matsubara=cap))
        (n_terms, partial, last, bound), converged, _ = scalar_stop_sum(spec, power)
        assert not converged
        with pytest.raises(ConvergenceError) as err:
            self.DETAIL[power](spec)
        assert err.value.detail.n_terms == n_terms == cap
        assert err.value.detail.value == partial
        assert err.value.detail.last_term == last
        assert err.value.detail.truncation_bound == bound

    @pytest.mark.parametrize("make", [drude, bcs], ids=["drude", "bcs"])
    def test_one_permittivity_call_per_block(self, sc_params, monkeypatch, cold_memo,
                                             make):
        calls = []
        monkeypatch.setattr(lifshitz, "permittivity_iw", lambda model, xi, T:
                            calls.append(len(xi)) or permittivity_iw(model, xi, T))
        got = casimir_pressure_gradient_detail(LifshitzSpec(
            d=190e-9, T=14.0, model=make(sc_params), quad=LOOSE))
        blocks = partition(190e-9, 14.0, LOOSE.max_matsubara)
        assert calls == [len(xi) for _, xi in takewhile(
            lambda block: block[0] < got.n_terms, blocks)]


class TestMomentumRule:
    CLEAN = {"gamma0": 0.465e-3}  # gamma comparable to the gap
    MODELS = {
        "drude-dirty": (drude, {}),
        "drude-clean": (drude, CLEAN),
        "plasma": (plasma, {}),
        "plasma-ideal": (plasma, {"Omega": 1e4}),
        "bcs-dirty": (bcs, {}),
        "bcs-clean": (bcs, CLEAN),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_against_adaptive_oracle(self, sc_params, name):
        make, overrides = self.MODELS[name]
        model = make(replace(sc_params, **overrides))
        worst = 0.0
        for d in np.geomspace(50e-9, 5e-6, 5):
            for T in (0.1, 4.0, sc_params.Tc - 1e-6, 20.0):
                # l from 1 up to where the photon edge y0 reaches the span
                xi_1 = 2.0 * math.pi * CONSTANTS.kB_eV * T
                l_max = 50.0 * CONSTANTS.hbar_c_eVm / (2.0 * d * xi_1)
                ls = np.unique(np.geomspace(1.0, l_max, 13).astype(int))
                for power in (2, 3):
                    got = dynamic_terms(d, T, model, ls, power)
                    want = [quad_term(d, T, model, l * xi_1, power) for l in ls]
                    worst = max(worst, np.max(np.abs(got / want - 1.0)))
        assert worst <= 1e-9

    def oracle_blocks(self, sc_params, name, starts):
        """Blocks of film ``name`` at 4 K that start at each ``(d, first energy)`` of
        ``starts`` and are as long as the engine makes a block on the rule that energy
        picks: the node counts of the rules chosen, one per block and power, and the
        worst relative error of terms 0, 1 and the last against ``quad_term``."""
        make, overrides = self.MODELS[name]
        model = make(replace(sc_params, **overrides))
        rules, worst = [], 0.0
        for d, first in starts:
            nodes, weights = _momentum_rule(d, first)
            n_terms = _PAIRS // len(nodes)
            xi = first + matsubara_frequency(np.arange(n_terms), 4.0)
            eps = permittivity_iw(model, xi, 4.0)
            for power in (2, 3):
                rules.append(len(nodes))
                got = _dynamic_integrals(d, xi, eps, power, nodes, weights)
                for k in (0, 1, n_terms - 1):
                    want = quad_term(d, 4.0, model, xi[k], power)
                    worst = max(worst, abs(got[k] / want - 1.0))
        return rules, worst

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_far_blocks_against_adaptive_oracle(self, sc_params, name):
        # arrays from l = 1 always start at the edge; these blocks start at
        # y0 = 3 exactly, just above it, and far from it, where the engine
        # takes 24, 12 and 8 Gauss-Laguerre nodes, and at the largest y0 below
        # 3, where it takes the coarsest graded rule of the edge band, 24 nodes
        starts = []
        # no energy puts the edge at 3.0 exactly for d = 5 um, one does for 4.99 um
        for d in (50e-9, 190e-9, 500e-9, 1213e-9, 4.99e-6):
            at_3 = energy_at_edge(d, 3.0)
            assert 2.0 * d * (at_3 / CONSTANTS.hbar_c_eVm) == 3.0
            starts += [(d, first) for first in (np.nextafter(at_3, 0.0), at_3, *(
                energy_at_edge(d, y0) for y0 in (3.0 + 1e-9, 10.0, 40.0, 200.0)))]
        rules, worst = self.oracle_blocks(sc_params, name, starts)
        assert rules == ([24] * 6 + [12] * 2 + [8] * 4) * 5
        assert worst <= 1e-9

    # worst seen over the six films: 5.5e-12, 48 graded nodes from y0 below 2e-3
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_edge_band_against_adaptive_oracle(self, sc_params, name):
        # blocks that start at each start of a graded rule after the first, y0 = 0.032,
        # 0.256 and 1.024, and at 3, where the Laguerre rules start; just below each, where
        # the block is the longest the rule before it makes; inside each band, at the
        # geometric middle of its y_lo and the next start; and far below the first rule's
        # y_lo = 2e-3, at y0 = 1e-9, 1e-4 and 1e-3, which it serves too.  Each block runs to
        # its full length, so at 4.99 um its last term lies far above its first
        bands = [(2e-3, 48), (0.032, 40), (0.256, 32), (1.024, 24), (3.0, 24)]
        starts, want_rules = [], []
        for d in (50e-9, 500e-9, 4.99e-6):
            starts += [(d, energy_at_edge(d, y0)) for y0 in (1e-9, 1e-4, 1e-3)]
            want_rules += [48] * 6  # one call per power
            for (low, below), (start, at) in zip(bands, bands[1:]):
                at_edge = energy_at_edge(d, start)
                starts += [(d, np.nextafter(at_edge, 0.0)), (d, at_edge),
                           (d, energy_at_edge(d, math.sqrt(low * start)))]
                want_rules += [below] * 2 + [at] * 2 + [below] * 2
        rules, worst = self.oracle_blocks(sc_params, name, starts)
        assert rules == want_rules
        assert worst <= 1e-9

    # worst seen over the six films: 1.3e-11, 12 nodes at y0 = 6 and d = 50 nm
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_laguerre_band_against_adaptive_oracle(self, sc_params, name):
        # blocks that start at each start of the Laguerre band, y0 = 3, 4, 6 and 16,
        # where the rule is 24, 16, 12 and 8 nodes, and just below each, where the
        # block is the longest the rule before it makes (24 graded nodes below 3)
        starts = []
        for d in (50e-9, 190e-9, 500e-9, 1213e-9, 4.99e-6):
            for y0 in (3.0, 4.0, 6.0, 16.0):
                at_edge = energy_at_edge(d, y0)
                starts += [(d, np.nextafter(at_edge, 0.0)), (d, at_edge)]
        rules, worst = self.oracle_blocks(sc_params, name, starts)
        pairs = [(24, 24), (24, 16), (16, 12), (12, 8)]  # (below, at) each start
        assert rules == [n for below_at in pairs for n in below_at for _ in (2, 3)] * 5
        assert worst <= 1e-9

    GRADED = [(2e-3, 48), (0.032, 40), (0.256, 32), (1.024, 24)]  # (start, nodes)

    # and the static TE term's 80 nodes, graded from y_p = 4e-3 up and at y_p = 1e-12
    @pytest.mark.parametrize("y_lo, n", GRADED + [(1e-3, 80), (2.5e-13, 80)])
    def test_graded_rule_is_gauss_legendre_in_log_u(self, y_lo, n):
        # the rule the engine picks from y0 = y_lo, or grades for the static TE term,
        # integrates du and exp(-u) du over [0, 50] to rounding; up to 32 nodes its s nodes
        # and weights are numpy's, whose eigensolve the Newton iteration replaces
        rule = lifshitz._gauss_legendre(n)
        nodes, weights = lifshitz._graded(y_lo, rule)
        # the static TE term grades the one rule it keeps; the engine keeps each band's rule
        if n == 80:
            pairs = zip(rule, lifshitz._STATIC_RULE)
        else:
            pairs = zip((nodes, weights), _momentum_rule(1.0, energy_at_edge(1.0, y_lo)))
        assert all(np.array_equal(got, table) for got, table in pairs)
        assert weights.sum() == pytest.approx(50.0, rel=1e-14)
        assert weights @ np.exp(-nodes) == pytest.approx(-math.expm1(-50.0), rel=1e-14)
        if n <= 32:
            span = math.log1p(50.0 / y_lo)
            x, w = np.polynomial.legendre.leggauss(n)
            assert np.log1p(nodes / y_lo) == pytest.approx(0.5 * span * (x + 1.0), abs=1e-14)
            assert weights / (y_lo + nodes) == pytest.approx(0.5 * span * w, rel=1e-13)

    # blocks of the normal_state grid and of colder sums, on every edge-band rule
    @pytest.mark.parametrize("d, T", [(120e-9, 25.0), (190e-9, 4.0), (500e-9, 0.1)])
    def test_term_bits_do_not_depend_on_the_block_layout(self, sc_params, d, T):
        # the energies of each of the engine's blocks, evaluated as a block that starts
        # 1, 3, 5, 17 or half a block later, or ends that much earlier, give every term
        # the same bits, so the memoised series does not depend on how it is cut
        model = drude(sc_params)
        blocks = takewhile(lambda block: block[0] < 5000, partition(d, T, 100_000))
        for _, xi in blocks:
            nodes, weights = _momentum_rule(d, xi[0])
            eps = permittivity_iw(model, xi, T)
            for power in (2, 3):
                whole = _dynamic_integrals(d, xi, eps, power, nodes, weights)
                for cut in (1, 3, 5, 17, len(xi) // 2):
                    late = _dynamic_integrals(d, xi[cut:], eps[cut:], power, nodes, weights)
                    early = _dynamic_integrals(d, xi[:-cut], eps[:-cut], power, nodes, weights)
                    assert np.array_equal(late, whole[cut:])
                    assert np.array_equal(early, whole[:-cut])

    # y0 = 1.9e-310, inf (given, or overflowing from a finite energy) and nan:
    # no comparison, quotient or product warns
    @pytest.mark.parametrize("xi, n_nodes", [
        (1e-310, 48), (math.inf, 8), (1e308, 8), (math.nan, 8),
    ], ids=["subnormal", "inf", "overflow", "nan"])
    def test_rule_of_an_extreme_edge_is_chosen_quietly(self, xi, n_nodes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, weights = _momentum_rule(190e-9, np.float64(xi))
        assert len(nodes) == len(weights) == n_nodes


class TestMomentumArithmetic:
    """The Bose factor exp(-y) of every l >= 1 term is the outer product exp(-y0) exp(-u) of
    the photon edge and the rule's nodes, and the integrand raises y to its power by products."""

    D = 190e-9

    def bose_factor(self, monkeypatch, y0s, nodes, weights):
        """The Bose factor ``_dynamic_integrals`` hands the integrand on the rule ``(nodes,
        weights)`` for a block whose edges are ``y0s``, and the block's terms."""
        seen, integrand = [], lifshitz._integrand
        monkeypatch.setattr(lifshitz, "_integrand", lambda y, power, *rest, e:
                            seen.append(e.copy()) or integrand(y, power, *rest, e=e))
        xi = np.array([energy_at_edge(self.D, y0) for y0 in y0s])
        terms = _dynamic_integrals(self.D, xi, np.full(len(xi), 2.0), 3, nodes, weights)
        return (2.0 * self.D * (xi / CONSTANTS.hbar_c_eVm)).tolist(), seen[0], terms

    def test_bose_factor_is_within_2_ulps_of_40_digits(self, monkeypatch):
        worst = 0.0
        for nodes, weights in lifshitz._RULES:
            y0s, e, _ = self.bose_factor(monkeypatch, np.geomspace(1e-9, 700.0, 40), nodes,
                                         weights)
            with mpmath.workdps(40):
                for y0, row in zip(y0s, e.tolist()):
                    for u, got in zip(nodes.tolist(), row):
                        exact = mpmath.exp(-(mpmath.mpf(y0) + mpmath.mpf(u)))
                        ulps = abs(mpmath.mpf(got) - exact) / np.spacing(float(exact))
                        worst = max(worst, float(ulps))
        assert worst <= 2.0

    @pytest.mark.parametrize("nodes, weights", [lifshitz._RULES[0], lifshitz._RULES[-1]],
                             ids=["48-graded", "8-laguerre"])
    def test_bose_factor_past_the_float_range_is_zero_quietly(self, monkeypatch, nodes,
                                                              weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, e, terms = self.bose_factor(monkeypatch, [746.0, 800.0, 1e4], nodes, weights)
        assert not e.any()
        assert np.array_equal(terms, np.zeros(3))

    @pytest.mark.parametrize("detail", [casimir_pressure_detail,
                                        casimir_pressure_gradient_detail],
                             ids=["P", "Pprime"])
    def test_nan_edge_is_refused_as_an_overflow(self, sc_params, monkeypatch, cold_memo,
                                                detail):
        # permittivity_iw refuses a nan energy itself, so a stub lets the nan reach the sum
        monkeypatch.setattr(lifshitz, "matsubara_frequency",
                            lambda l, T: np.full(np.shape(l), math.nan))
        monkeypatch.setattr(lifshitz, "permittivity_iw",
                            lambda model, xi, T: np.full(np.shape(xi), 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Matsubara terms overflow"):
                detail(LifshitzSpec(d=self.D, T=4.0, model=drude(sc_params)))

    def test_integrand_is_the_power_form(self):
        # y on every rule's nodes from edges 1e-9 to 50, and reflections drawn as the
        # Fresnel coefficients lie: r_te in [-1, 0], r_tm in [0, 1]
        rng = np.random.default_rng(11)
        y = np.geomspace(1e-9, 50.0, 30)[:, None] + np.concatenate(
            [nodes for nodes, _ in lifshitz._RULES])
        e = np.exp(-y)
        r_te, r_tm = -rng.uniform(0.0, 1.0, y.shape), rng.uniform(0.0, 1.0, y.shape)
        t_te, t_tm = r_te ** 2 * e, r_tm ** 2 * e

        def integrand(power):
            return lifshitz._integrand(y, power, r_te.copy(), r_tm.copy(), e=e.copy())

        # P: bit for bit the y**2 t/(1 - t) form
        assert np.array_equal(integrand(2), y ** 2 * (t_te / (1.0 - t_te) + t_tm / (1.0 - t_tm)))
        # P': y * y * y, within 1 ulp of y**3, times the t/(1 - t)**2 form
        cube = y * y * y
        assert np.all(np.abs(cube - y ** 3) <= np.spacing(y ** 3))
        assert np.array_equal(integrand(3), cube * (t_te / (1.0 - t_te) ** 2
                                                    + t_tm / (1.0 - t_tm) ** 2))


class TestEngine:
    @pytest.mark.parametrize("detail, power", [
        (casimir_pressure_detail, 2), (casimir_pressure_gradient_detail, 3),
    ], ids=["P", "Pprime"])
    def test_zero_term_is_unit_reflection_integral(self, sc_params, detail, power):
        # above Tc the Drude pairing has no static TE reflection, so the
        # l = 0 term is half the static TM integral with unit reflection
        def integrand(y):
            return y ** power * math.exp(-y) / (-math.expm1(-y)) ** (power - 1)

        oracle, _ = quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
        spec = LifshitzSpec(d=2e-6, T=20.0, model=drude(sc_params),
                            approach=ZeroFreqApproach.DRUDE_BCS, quad=FAST)
        assert detail(spec).zero_term == pytest.approx(0.5 * oracle, rel=1e-11)

    def test_classical_limit_of_full_engine(self, sc_params):
        # the classical asymptote needs d >> hbar c / kB T = 161 um at
        # 14.2 K, so this sits at millimetre separation
        spec = LifshitzSpec(d=2e-3, T=14.2, model=drude(sc_params),
                            approach=ZeroFreqApproach.DRUDE_BCS, quad=FAST)
        p_tm0, grad_cl = classical_terms(2e-3, 14.2)
        assert casimir_pressure(spec) == pytest.approx(p_tm0, rel=1e-7)
        assert casimir_pressure_gradient(spec) == pytest.approx(grad_cl, rel=1e-7)

    def test_classical_exponent_at_large_separation(self, sc_params):
        spec = LifshitzSpec(d=2e-3, T=14.2, model=bcs(sc_params),
                            approach=ZeroFreqApproach.PLASMA_BCS, quad=FAST)
        assert local_exponent(spec) == pytest.approx(3.0, abs=0.05)

    def test_ideal_exponent(self):
        # dissipationless mirror limit: quartic power law
        ideal = SuperconductorParams(Omega=1e4)
        spec = LifshitzSpec(d=190e-9, T=2.0, model=plasma(ideal),
                            approach=ZeroFreqApproach.PLASMA_PLASMA, quad=FAST)
        assert local_exponent(spec) == pytest.approx(4.0, abs=0.01)

    def test_term_magnitudes_decay(self, sc_params):
        terms = list(dynamic_terms(190e-9, 14.2, drude(sc_params), range(1, 81), 2))
        # the transverse-electric share grows over the first ~16 modes
        # before the overall exponential decay takes over
        tail = terms[19:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert max(terms) == terms[15]

    @pytest.mark.parametrize("power", [2, 3], ids=["P", "Pprime"])
    @pytest.mark.parametrize("make", [drude, plasma, bcs], ids=["drude", "plasma", "bcs"])
    def test_blocked_head_matches_per_term_sum(self, sc_params, make, power):
        detail = {2: casimir_pressure_detail, 3: casimir_pressure_gradient_detail}[power]
        # sums at small d and low T run past 100,000 terms, so the grid
        # pairs the small separations with the high temperatures
        for d, T in ((50e-9, 20.0), (190e-9, sc_params.Tc - 1e-6), (5e-6, 0.1)):
            spec = LifshitzSpec(d=d, T=T, model=make(sc_params), quad=LOOSE)
            got = detail(spec)
            n_terms, value, converged = per_term_sum(spec, power)
            assert converged
            assert got.n_terms == n_terms
            assert got.value == pytest.approx(value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("cap", [1, 5, 33, 70])
    def test_cap_bounds_the_evaluated_indices(self, sc_params, monkeypatch, cold_memo,
                                              cap):
        spec = LifshitzSpec(d=190e-9, T=4.0, model=bcs(sc_params),
                            quad=QuadratureConfig(max_matsubara=cap))
        seen = []  # every energy of every call, flattened
        monkeypatch.setattr(lifshitz, "permittivity_iw", lambda model, xi, T:
                            seen.extend(np.ravel(xi).tolist())
                            or permittivity_iw(model, xi, T))
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure_gradient(spec)
        assert err.value.detail.n_terms == cap
        assert seen == [matsubara_frequency(l, 4.0) for l in range(1, cap + 1)]
        n_terms, value, converged = per_term_sum(spec, 3)
        assert not converged and n_terms == cap
        assert err.value.detail.value == pytest.approx(value, rel=1e-14, abs=0.0)

    def test_converged_sum_overruns_by_less_than_a_block(self, sc_params, monkeypatch,
                                                         cold_memo):
        calls = []  # every energy of every call, flattened
        monkeypatch.setattr(lifshitz, "permittivity_iw", lambda model, xi, T:
                            calls.extend(np.ravel(xi).tolist())
                            or permittivity_iw(model, xi, T))
        for d in (50e-9, 190e-9, 5e-6):
            for detail in (casimir_pressure_detail, casimir_pressure_gradient_detail):
                calls.clear()
                cold_memo()  # each sum evaluates its own blocks
                got = detail(LifshitzSpec(d=d, T=4.0, model=drude(sc_params)))
                # the block that holds the stop is the last one evaluated
                offset, xi = block_holding(d, 4.0, 100_000, got.n_terms)
                assert got.n_terms <= len(calls) == offset + len(xi)
                assert len(calls) <= got.n_terms + len(xi) - 1

    def test_prescription_equivalence_above_transition(self, sc_params):
        # the three prescriptions may only differ in the l = 0 term
        details = [
            casimir_pressure_detail(LifshitzSpec(
                d=250e-9, T=20.0, model=drude(sc_params), approach=ap, quad=FAST))
            for ap in ZeroFreqApproach]
        sums = [d.dynamic_sum for d in details]
        assert max(sums) - min(sums) <= 2 * np.spacing(max(map(abs, sums)))
        zero_terms = {d.zero_term for d in details}
        assert len(zero_terms) == 2  # drude pairing drops the TE piece

    def test_pressure_sign_and_gradient_sign(self, sc_params):
        spec = LifshitzSpec(d=250e-9, T=20.0, model=drude(sc_params),
                            approach=ZeroFreqApproach.PLASMA_BCS, quad=FAST)
        assert casimir_pressure(spec) < 0.0
        assert casimir_pressure_gradient(spec) > 0.0

    def test_gradient_matches_finite_difference(self, sc_params):
        d = 250e-9
        spec = LifshitzSpec(d=d, T=20.0, model=drude(sc_params),
                            approach=ZeroFreqApproach.PLASMA_BCS)
        grad = casimir_pressure_gradient(spec)
        delta = 1e-3 * d
        fd = (casimir_pressure(replace(spec, d=d + delta))
              - casimir_pressure(replace(spec, d=d - delta))) / (2.0 * delta)
        assert grad == pytest.approx(fd, rel=1e-4)

    def test_truncation_diagnostics(self, sc_params):
        detail = casimir_pressure_detail(LifshitzSpec(
            d=250e-9, T=20.0, model=drude(sc_params),
            approach=ZeroFreqApproach.PLASMA_BCS, quad=FAST))
        assert detail.truncation_bound <= 10.0 * FAST.term_stop_rel * 1e3
        assert detail.n_terms > 10
        assert detail.last_term >= 0.0

    def test_absolute_tolerance_stops_only_the_pressure(self, sc_params):
        # at 5 um and 20 K the gradient terms fall below 1e-9 Pa/m (at about
        # 51 terms) before they fall below term_stop_rel of the sum (55)
        detail = casimir_pressure_gradient_detail(LifshitzSpec(
            d=5e-6, T=20.0, model=drude(sc_params)))
        assert detail.n_terms == 55
        assert detail.truncation_bound <= 10.0 * QuadratureConfig().term_stop_rel

    def test_sum_stopped_at_unit_bound_is_not_converged(self, sc_params):
        # every pressure term is below _ABS_TOL_PRESSURE from the first,
        # so the rule stops after 3 terms that are each ~30% of the sum;
        # a truncation bound >= 1 is no result
        spec = LifshitzSpec(d=1213e-9, T=1e-4, model=plasma(sc_params),
                            approach=ZeroFreqApproach.PLASMA_PLASMA)
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure(spec)
        assert err.value.detail.n_terms == 3
        assert err.value.detail.truncation_bound == pytest.approx(2.857, rel=1e-3)
        assert abs(err.value.detail.value) <= 3 * _ABS_TOL_PRESSURE

    def test_convergence_error_carries_partial(self, sc_params):
        spec = LifshitzSpec(d=190e-9, T=14.2, model=drude(sc_params),
                            approach=ZeroFreqApproach.PLASMA_BCS,
                            quad=QuadratureConfig(max_matsubara=5))
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure(spec)
        assert err.value.detail.n_terms == 5
        assert err.value.detail.value < 0.0
        assert err.value.detail.truncation_bound > 0.0

    def test_errors_survive_pickling(self, sc_params):
        # a sum run in a process pool reaches its caller through pickle
        spec = LifshitzSpec(d=190e-9, T=14.2, model=drude(sc_params),
                            quad=QuadratureConfig(max_matsubara=5))
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure(spec)
        back = pickle.loads(pickle.dumps(err.value))
        assert type(back) is ConvergenceError
        assert str(back) == str(err.value)
        assert back.detail == err.value.detail
        parse = pickle.loads(pickle.dumps(ParseError("bad value", line=3)))
        assert (str(parse), parse.line) == ("line 3: bad value", 3)

    def test_spec_validation(self, sc_params):
        with pytest.raises(ValueError):
            LifshitzSpec(d=0.0, T=10.0, model=drude(sc_params))
        with pytest.raises(ValueError):
            LifshitzSpec(d=1e-7, T=-1.0, model=drude(sc_params))
        # d**4 must be finite and nonzero, so no prefactor divides by zero
        for d in (1e-90, 1e80, math.inf, math.nan):
            with pytest.raises(ValueError, match="separation"):
                LifshitzSpec(d=d, T=10.0, model=drude(sc_params))
        for T in (math.inf, math.nan, 9.9e-301, 5e-324):
            with pytest.raises(ValueError, match="temperature"):
                LifshitzSpec(d=1e-7, T=T, model=drude(sc_params))
        # the floor itself is a valid temperature
        assert LifshitzSpec(d=1e-7, T=1e-300, model=drude(sc_params)).T == 1e-300
        # a stopping ratio of 1 or more would mark every term small
        for rel in (0.0, 1.0, 2.0, 1.7e308, math.inf, math.nan):
            with pytest.raises(ValueError, match="term_stop_rel"):
                QuadratureConfig(term_stop_rel=rel)
        with pytest.raises(ValueError):
            QuadratureConfig(max_matsubara=0)

    # a cap is a count of terms: 2.5 summed 3 terms, nan failed inside the sum and True
    # was a cap of 1; each is refused by name, as is any other value that is no integer
    @pytest.mark.parametrize("cap", [2.5, math.nan, True, False, np.float64(5.0), "5", None],
                             ids=["2.5", "nan", "True", "False", "float64", "str", "None"])
    def test_cap_that_is_not_an_integer_is_refused(self, cap):
        with pytest.raises(ValueError, match="^max_matsubara must be an integer >= 1, got "
                                             + re.escape(repr(cap)) + "$"):
            QuadratureConfig(max_matsubara=cap)

    # criterion 6's ideal-conductor sum: capped at 5 and 40, or run to its 43,364 terms
    @pytest.mark.parametrize("cap, n_terms", [(5, 5), (40, 40), (500_000, 43_364)])
    def test_integer_caps_sum_as_before(self, cold_memo, cap, n_terms):
        def run(cap):
            cold_memo()
            spec = LifshitzSpec(d=500e-9, T=0.1, model=plasma(SuperconductorParams(Omega=1e4)),
                                approach=ZeroFreqApproach.PLASMA_PLASMA,
                                quad=QuadratureConfig(1e-8, cap))
            try:
                return casimir_pressure_detail(spec), True
            except ConvergenceError as err:
                return err.detail, False
        detail, converged = run(cap)
        assert (detail.n_terms, converged) == (n_terms, cap == 500_000)
        assert run(np.int64(cap)) == (detail, converged)
        if converged:
            ideal = -math.pi ** 2 * CONSTANTS.hbar_Js * CONSTANTS.c / (240.0 * 500e-9 ** 4)
            assert detail.value == pytest.approx(ideal, rel=0.01)


def assert_prescriptions_differ_by_static_te(d, T, model, power):
    """The sums of specs that differ only in ``approach`` take the same number of
    terms, and their values differ by the prefactor times the difference of their
    static TE terms, to 2 ulps of the largest value."""
    detail = {2: casimir_pressure_detail, 3: casimir_pressure_gradient_detail}[power]
    values, te, n_terms = {}, {}, set()
    for approach in ZeroFreqApproach:
        spec = LifshitzSpec(d=d, T=T, model=model, approach=approach)
        got = detail(spec)
        values[approach], n_terms = got.value, n_terms | {got.n_terms}
        te[approach] = 0.5 * _static_te_integral(d, _static_te_omega(spec), power)
    pref = CONSTANTS.kB_J * T / (8.0 * math.pi * d ** (power + 1))
    prefactor = -pref if power == 2 else pref
    assert len(n_terms) == 1
    ulps = 2 * np.spacing(max(map(abs, values.values())))
    for a, b in combinations(ZeroFreqApproach, 2):
        assert abs(values[a] - values[b] - prefactor * (te[a] - te[b])) <= ulps


class TestPrescriptionIdentity:
    """The prescriptions differ only in the static TE term: every one reads one
    l >= 1 series, summed and stopped without that term."""

    # points where a stop judged against a total with the TE term took one term more
    # for one prescription than for another, so that the values also differed there
    @pytest.mark.parametrize("d, T", [(300e-9, 10.0), (500e-9, 14.0), (5e-6, 14.1),
                                      (5e-6, 14.3)],
                             ids=["300nm-10K", "500nm-14K", "5um-14.1K", "5um-14.3K"])
    def test_plasma_gradient_differs_by_the_static_te_term(self, sc_params, d, T):
        assert_prescriptions_differ_by_static_te(d, T, plasma(sc_params), 3)

    # a fixed sequence of examples (derandomize) and no example database
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(log_d=st.floats(math.log10(100e-9), math.log10(5e-6)), T=st.floats(1.0, 20.0),
           make=st.sampled_from([drude, plasma, bcs]), gamma0=st.sampled_from([0.465, 4.65e-4]),
           tc=st.floats(5.0, 20.0), power=st.sampled_from([2, 3]))
    def test_every_sum_differs_by_the_static_te_term(self, log_d, T, make, gamma0, tc, power):
        film = SuperconductorParams(gamma0=gamma0, Tc=tc)
        assert_prescriptions_differ_by_static_te(10.0 ** log_d, T, make(film), power)


class TestScaleInvariance:
    """With d -> s d and T, Omega, gamma0 and Tc divided by s, every dimensionless
    quantity of the sum is unchanged, so P' d**5 is too.  P is left out: its absolute
    stop, 1e-9 Pa whatever d, is not scale free."""

    @settings(max_examples=250, derandomize=True, deadline=None, database=None)
    @given(log_d=st.floats(math.log10(100e-9), math.log10(2e-6)), T=st.floats(2.0, 20.0),
           s=st.floats(0.5, 4.0), make=st.sampled_from([drude, plasma, bcs]))
    def test_gradient_times_d5_is_scale_free(self, sc_params, log_d, T, s, make):
        d, p = 10.0 ** log_d, sc_params
        scaled = replace(p, Omega=p.Omega / s, gamma0=p.gamma0 / s, Tc=p.Tc / s)
        a, b = (casimir_pressure_gradient_detail(LifshitzSpec(d=d_, T=T_, model=make(film)))
                for d_, T_, film in ((d, T, p), (s * d, T / s, scaled)))
        tol = 1e-12 if a.n_terms == b.n_terms else max(a.truncation_bound,
                                                        b.truncation_bound)
        assert b.value * (s * d) ** 5 == pytest.approx(a.value * d ** 5, rel=tol, abs=0.0)


class TestTcJump:
    def test_zero_bracket_degenerates_to_zero(self, sc_params):
        # both sides sit in the normal state at dT = 0
        for approach in ZeroFreqApproach:
            assert tc_jump(190e-9, 14.2, 0.0, approach, sc_params, FAST) == 0.0

    def test_bracket_validation(self, sc_params):
        with pytest.raises(ValueError):
            tc_jump(190e-9, 14.2, -0.1, ZeroFreqApproach.PLASMA_BCS, sc_params)
        with pytest.raises(ValueError):
            tc_jump(190e-9, 14.2, 14.2, ZeroFreqApproach.PLASMA_BCS, sc_params)

    def test_static_te_energy_of_each_prescription(self, sc_params):
        # (below Tc, at Tc): the bare energy for plasma-plasma, and for plasma-bcs from
        # Tc on; otherwise the weighted one, which is 0 from Tc on
        weighted, bare = effective_plasma_frequency(10.0, sc_params), sc_params.Omega
        want = {"drude-bcs": (weighted, 0.0), "plasma-bcs": (weighted, bare),
                "plasma-plasma": (bare, bare)}
        for approach in ZeroFreqApproach:
            assert tuple(_static_te_omega(LifshitzSpec(
                d=190e-9, T=T, model=bcs(sc_params), approach=approach))
                for T in (10.0, sc_params.Tc)) == want[approach.value]

    @pytest.mark.parametrize("approach", list(ZeroFreqApproach), ids=lambda a: a.value)
    def test_normal_side_is_the_drude_sum(self, sc_params, approach):
        # tc_jump sums both sides with the BCS response, Drude bit for bit from Tc on
        for T in (sc_params.Tc, sc_params.Tc + 0.1):
            got, want = (casimir_pressure_gradient_detail(LifshitzSpec(
                d=190e-9, T=T, model=make(sc_params), approach=approach, quad=FAST))
                for make in (bcs, drude))
            assert got == want

    @pytest.mark.parametrize("approach, printed", [
        (ZeroFreqApproach.PLASMA_BCS, 5942.0),
        (ZeroFreqApproach.PLASMA_PLASMA, 66.40),
        (ZeroFreqApproach.DRUDE_BCS, -17.15),
    ])
    def test_headline_jumps_to_printed_digits(self, sc_params, approach, printed):
        value = tc_jump(190e-9, 14.2, 0.1, approach, sc_params)
        assert float(f"{value:.4g}") == printed

    @pytest.mark.slow
    def test_directional_continuity(self, sc_params):
        """The Drude and plasma pairings lose their discontinuity as the
        bracket shrinks; the superconducting-plasma pairing keeps a finite
        jump."""
        brackets = (0.1, 0.05, 0.02)
        jumps = {ap: [tc_jump(190e-9, 14.2, dt, ap, sc_params, FAST)
                      for dt in brackets]
                 for ap in ZeroFreqApproach}
        for ap in (ZeroFreqApproach.DRUDE_BCS, ZeroFreqApproach.PLASMA_PLASMA):
            magnitudes = [abs(j) for j in jumps[ap]]
            assert magnitudes[0] > magnitudes[1] > magnitudes[2]
        plasma_bcs = jumps[ZeroFreqApproach.PLASMA_BCS]
        assert all(4e3 < j < 8e3 for j in plasma_bcs)
        assert abs(plasma_bcs[2] - plasma_bcs[0]) < 0.1 * abs(plasma_bcs[0])


class TestBlockMemo:
    """The engine keeps the l >= 1 series of its most recent (model, T, d, power,
    quadrature) sums, a total and three scalars each, so the prescriptions of one
    sum share its terms and its stop; the BCS permittivity reads the pairing
    kernel from a table kept per (T, film, decade of xi)."""

    def test_jump_all_evaluates_each_energy_once(self, sc_params, monkeypatch, cold_memo):
        # the three tc_jump calls of `jump --all` share both sides' blocks, and
        # every energy of the superconducting side sits above 10 Delta: the
        # kernel runs at the 16 nodes of each of 4 decades of the table
        energies, blocks, after_each = [], [], []
        kernel, integrals = permittivity.bcs_g, lifshitz._dynamic_integrals
        monkeypatch.setattr(permittivity, "bcs_g", lambda xi, T, p:
                            energies.append((xi, T)) or kernel(xi, T, p))
        monkeypatch.setattr(lifshitz, "_dynamic_integrals", lambda d, xi, *rest:
                            blocks.append(len(xi)) or integrals(d, xi, *rest))
        for approach in ZeroFreqApproach:
            tc_jump(190e-9, sc_params.Tc, 0.1, approach, sc_params)
            after_each.append(len(blocks))
        assert len(energies) == len(set(energies)) == 4 * 16
        assert after_each == [10] * 3  # 5 blocks a side, 128 to 768 terms long
        # the first prescription sums both sides' series, the other two read them
        assert lifshitz._series.cache_info()[:2] == (4, 2)

    @pytest.mark.parametrize("make, d, T", [
        pytest.param(drude, 190e-9, 4.0, id="drude-190nm"),
        pytest.param(bcs, 1213e-9, 14.058, id="bcs-1213nm"),
        pytest.param(plasma, 50e-9, 20.0, id="plasma-50nm"),
    ])
    def test_each_block_picks_its_rule_once(self, sc_params, monkeypatch, cold_memo,
                                            make, d, T):
        # one rule per evaluated block, chosen by its first energy
        rules, blocks = [], []
        choose, integrals = lifshitz._momentum_rule, lifshitz._dynamic_integrals
        monkeypatch.setattr(lifshitz, "_momentum_rule", lambda d, xi_first:
                            rules.append(xi_first) or choose(d, xi_first))
        monkeypatch.setattr(lifshitz, "_dynamic_integrals", lambda d, xi, *rest:
                            blocks.append(xi[0]) or integrals(d, xi, *rest))
        got = casimir_pressure_gradient_detail(LifshitzSpec(d=d, T=T, model=make(sc_params)))
        assert len(rules) > 1
        assert rules == blocks == [xi[0] for _, xi in takewhile(
            lambda block: block[0] < got.n_terms, partition(d, T, 100_000))]

    def test_scan_evaluates_each_energy_once(self, sc_params, monkeypatch, cold_memo):
        # the 1213 nm scan's five BCS temperatures, each with its gradient and its
        # exponent, run the kernel 262 times at 258 energies: the first Matsubara
        # energy at 13.2 and 13.45 K sits under 10 Delta, so each of the three sums at
        # d and d 1.01^(+-1) runs it.  A block that overran into a decade of xi no sum
        # reads would add a table of 16
        energies = []
        kernel = permittivity.bcs_g
        monkeypatch.setattr(permittivity, "bcs_g", lambda xi, T, p:
                            energies.append((xi, T)) or kernel(xi, T, p))
        for T in (13.2, 13.45, 13.7, 13.95, 14.19):
            spec = LifshitzSpec(d=1213e-9, T=T, model=bcs(sc_params))
            casimir_pressure_gradient(spec)
            local_exponent(spec)
        assert (len(energies), len(set(energies))) == (262, 258)

    @pytest.mark.parametrize("detail", [casimir_pressure_detail,
                                        casimir_pressure_gradient_detail],
                             ids=["P", "Pprime"])
    def test_warm_detail_equals_cold(self, sc_params, cold_memo, detail):
        # at each d the capped sum comes first, then the default and the looser
        # stopping ratio: each is its own series, which the three prescriptions
        # read, and a series read warm equals one summed cold
        def run(spec):
            try:
                return detail(spec)
            except ConvergenceError as err:
                return err.detail
        capped = QuadratureConfig(max_matsubara=40)
        specs = [LifshitzSpec(d=d, T=14.058, model=bcs(sc_params), approach=ap, quad=quad)
                 for d in (190e-9, 1213e-9) for quad in (capped, QuadratureConfig(), LOOSE)
                 for ap in ZeroFreqApproach]
        cold = []
        for spec in specs:
            cold_memo()
            cold.append(run(spec))
        assert [c.n_terms for c in cold[:3] + cold[9:12]] == [40] * 6
        assert [run(spec) for spec in specs] == cold

    def test_concurrent_sums_read_one_series(self, sc_params, cold_memo):
        # threads that read and extend one series all get the cold result
        spec = LifshitzSpec(d=190e-9, T=14.3, model=drude(sc_params))
        want, got = casimir_pressure_gradient_detail(spec), []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cold_memo()
                threads = [threading.Thread(target=lambda: got.append(
                    casimir_pressure_gradient_detail(spec))) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 40

    def test_overflowing_block_is_not_kept(self, sc_params, cold_memo):
        spec = LifshitzSpec(d=1e-3, T=1e300, model=drude(sc_params))
        for _ in range(2):  # the second sum evaluates the block again
            with pytest.raises(ValueError, match="^Matsubara terms overflow"):
                casimir_pressure_gradient(spec)
        assert lifshitz._series.cache_info()[1:] == (2, 16, 0)  # misses, maxsize, currsize

    @pytest.mark.parametrize("make, T", [
        pytest.param(drude, 4.0, id="drude"),
        pytest.param(plasma, 4.0, id="plasma"),
        pytest.param(bcs, 15.0, id="bcs-above-tc"),
    ])
    def test_closed_form_blocks_are_not_kept(self, sc_params, cold_memo, make, T):
        # closed-form permittivities build no pairing-kernel table
        casimir_pressure_detail(LifshitzSpec(d=190e-9, T=T, model=make(sc_params)))
        assert permittivity._g_decade.cache_info().currsize == 0

    def test_block_memo_is_bounded_whatever_the_cap(self, sc_params, cold_memo):
        # a Drude sum at 10 mK runs to a cap of 150,000 through 751 edge-band blocks,
        # and the memo keeps its running total and three scalars, not the terms
        spec = LifshitzSpec(d=190e-9, T=0.01, model=drude(sc_params),
                            quad=QuadratureConfig(max_matsubara=150_000))
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError):
                casimir_pressure_gradient(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lifshitz._series.cache_info()[2:] == (16, 1)  # maxsize, currsize
        assert retained < 1e6
