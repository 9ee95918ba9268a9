import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from sccasimir.errors import ConvergenceError
from sccasimir.physcore import CONSTANTS, SuperconductorParams
from sccasimir.permittivity import bcs, drude, plasma, permittivity_iw
from sccasimir.lifshitz import (
    LifshitzSpec,
    PlatePlate,
    QuadratureConfig,
    SpherePlate,
    ZeroFreqApproach,
    _dynamic_integral,
    casimir_pressure,
    casimir_pressure_detail,
    casimir_pressure_gradient,
    casimir_pressure_gradient_detail,
    classical_terms,
    fresnel_iw,
    ideal_casimir_force,
    local_exponent,
    static_te_reflection,
    tc_jump,
)

FAST = QuadratureConfig(rel_tol=1e-7, term_stop_rel=1e-8)


class TestFresnel:
    def test_vacuum_reflects_nothing(self):
        assert fresnel_iw(1.0, 0.3, 1e7) == (0.0, 0.0)
        assert fresnel_iw(1.0, 0.0, 1e5) == (0.0, 0.0)

    def test_near_perfect_conductor(self):
        r_te, r_tm = fresnel_iw(1e12, 1.0, 1e6)
        assert r_tm == pytest.approx(1.0, abs=1e-5)
        assert r_te == pytest.approx(-1.0, abs=1e-5)

    def test_drude_te_vanishes_at_zero_frequency(self, sc_params):
        # eps*xi^2 -> 0 for the Drude response, so r_te -> 0 at fixed k
        k = 5e6
        model = drude(sc_params)
        previous = 1.0
        for xi in (1e-2, 1e-4, 1e-6, 1e-8):
            r_te, _ = fresnel_iw(permittivity_iw(model, xi, 20.0), xi, k)
            assert abs(r_te) < previous
            previous = abs(r_te)
        assert previous < 1e-6

    def test_bounds_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            eps = 10.0 ** rng.uniform(0.0, 8.0)
            xi = 10.0 ** rng.uniform(-6.0, 1.0)
            k = 10.0 ** rng.uniform(0.0, 9.0)
            r_te, r_tm = fresnel_iw(eps, xi, k)
            assert -1.0 <= r_te <= 0.0
            assert 0.0 <= r_tm <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fresnel_iw(0.99, 1.0, 1e6)
        with pytest.raises(ValueError):
            fresnel_iw(2.0, 0.0, 0.0)


class TestStaticTE:
    def test_grazing_limit(self):
        assert static_te_reflection(0.0, 5.33) == -1.0

    def test_large_momentum_limit(self):
        assert abs(static_te_reflection(1e12, 5.33)) < 2e-5

    def test_at_plasma_momentum(self):
        k = 5.33 / CONSTANTS.hbar_c_eVm
        expected = (1.0 - math.sqrt(2.0)) / (1.0 + math.sqrt(2.0))
        assert static_te_reflection(k, 5.33) == pytest.approx(expected, rel=1e-12)

    def test_zero_plasma_energy_means_no_reflection(self):
        assert static_te_reflection(1e6, 0.0) == 0.0

    def test_range(self):
        for k in np.geomspace(1.0, 1e10, 30):
            assert -1.0 <= static_te_reflection(k, 5.33) <= 0.0


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
        cfg = QuadratureConfig()
        terms = [_dynamic_integral(190e-9, 14.2, drude(sc_params),
                                   2.0 * math.pi * l * CONSTANTS.kB_eV * 14.2,
                                   2, cfg)
                 for l in range(1, 81)]
        # the transverse-electric share grows over the first ~16 modes
        # before the overall exponential decay takes over
        tail = terms[19:]
        assert all(a > b for a, b in zip(tail, tail[1:]))
        assert max(terms) == terms[15]

    def test_prescription_equivalence_above_transition(self, sc_params):
        # the three prescriptions may only differ in the l = 0 term
        details = [
            casimir_pressure_detail(LifshitzSpec(
                d=250e-9, T=20.0, model=drude(sc_params), approach=ap, quad=FAST))
            for ap in ZeroFreqApproach]
        sums = [d.dynamic_sum for d in details]
        assert sums[0] == pytest.approx(sums[1], rel=1e-9)
        assert sums[0] == pytest.approx(sums[2], rel=1e-9)
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

    def test_convergence_error_carries_partial(self, sc_params):
        spec = LifshitzSpec(d=190e-9, T=14.2, model=drude(sc_params),
                            approach=ZeroFreqApproach.PLASMA_BCS,
                            quad=QuadratureConfig(max_matsubara=5))
        with pytest.raises(ConvergenceError) as err:
            casimir_pressure(spec)
        assert err.value.n_terms == 5
        assert err.value.partial < 0.0
        assert err.value.achieved_rel > 0.0

    def test_spec_validation(self, sc_params):
        with pytest.raises(ValueError):
            LifshitzSpec(d=0.0, T=10.0, model=drude(sc_params))
        with pytest.raises(ValueError):
            LifshitzSpec(d=1e-7, T=-1.0, model=drude(sc_params))
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_matsubara=0)


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
