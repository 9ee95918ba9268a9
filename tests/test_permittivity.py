import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, simpson

from sccasimir import permittivity
from sccasimir.physcore import CONSTANTS, SuperconductorParams, matsubara_frequency
from sccasimir.permittivity import (
    bcs,
    bcs_g,
    bcs_gap,
    condensate_fraction,
    drude,
    effective_plasma_frequency,
    permittivity_iw,
    plasma,
)

# independently cross-checked reference values (adaptive quadrature vs
# 40-digit tanh-sinh for the fraction; 1e5-node Simpson for the pairing
# integral), frozen before the engine was built
GAP_HALF_TC = 0.002110973090898325
FRACTION_HALF_TC = 0.012943133441590206          # defaults (gamma = 0.465 eV)
FRACTION_HALF_TC_MEV = 0.78532029105617724       # gamma0 = 0.465e-3 eV
G_AT_GAP_HALF_TC = 0.009869080603076319          # defaults
G_AT_GAP_HALF_TC_MEV = 0.10314678206075656       # gamma0 = 0.465e-3 eV

P_MEV = SuperconductorParams(gamma0=0.465e-3)
TC = SuperconductorParams().Tc


def pairing_integrand(eps, xi, delta, gamma, kT):
    """``tanh(E/2kT) / E * Re G+(eps)`` of the pairing response, written
    straight from its definition; takes NumPy arrays or scalars."""
    e_qp = np.hypot(eps, delta)
    qp = np.sqrt((e_qp + 1j * xi) ** 2 - delta * delta)
    ap = e_qp * (e_qp + 1j * xi) + delta * delta
    w = qp + 1j * gamma
    g_plus = (eps * eps * qp + w * ap) / (qp * (eps * eps - w * w))
    return np.tanh(e_qp / (2.0 * kT)) / e_qp * g_plus.real


def brute_force_g(xi, T, p, n=100_000):
    """Simpson rule on a dense linear grid over the window [0, 200*max];
    independent of the fixed-node rule it checks."""
    delta = bcs_gap(T, p)
    if delta == 0.0:
        return 0.0
    eps = np.linspace(0.0, 200.0 * max(delta, xi), n + 1)
    kT = CONSTANTS.kB_eV * T
    return 2.0 * simpson(pairing_integrand(eps, xi, delta, p.gamma, kT), x=eps)


def fixed_rule_g_mp(xi, T, p):
    """``bcs_g``'s own fixed rule (its nodes and weights, as floats) with the
    integrand in 40-digit ``mpmath``: the kernel's arithmetic error alone."""
    delta = bcs_gap(T, p)
    kT = CONSTANTS.kB_eV * T
    emax = max(200.0 * delta, 200.0 * xi, 50.0 * kT)
    nodes, weights = permittivity._doubling_panels(
        0.25 * min(delta, math.sqrt(delta * xi)), emax)
    with mpmath.workdps(40):
        d, x, gamma = mpmath.mpf(delta), mpmath.mpf(xi), mpmath.mpf(p.gamma)
        total = mpmath.mpf(0)
        for eps, weight in zip(nodes.tolist(), weights.tolist()):
            eps = mpmath.mpf(eps)
            e_qp = mpmath.sqrt(eps * eps + d * d)
            z = mpmath.mpc(e_qp, x)
            qp = mpmath.sqrt(z * z - d * d)
            w = qp + mpmath.mpc(0, gamma)
            g_plus = (eps * eps * qp + w * (e_qp * z + d * d)) / (qp * (eps * eps - w * w))
            total += weight * mpmath.tanh(e_qp / (2 * kT)) / e_qp * mpmath.re(g_plus)
        return float(2 * total)


def condensate_series_mp(T, p, terms=64):
    """The condensate fraction's Matsubara series in 40-digit ``mpmath``, in
    ``x = omega / Delta``: ``terms`` terms summed, then the rest as its integral
    (Gauss-Legendre in ``s = asinh(x)`` to 60 past the split, where the integrand has
    fallen by e**60) and its midpoint Euler-Maclaurin corrections through ``h**6``.
    Every term is taken over the summand at the split, ``x = a``: mpmath's tolerances
    are absolute."""
    with mpmath.workdps(40):
        delta = mpmath.mpf(bcs_gap(T, p))
        h = 2 * mpmath.pi * mpmath.mpf(CONSTANTS.kB_eV) * mpmath.mpf(T) / delta
        g = mpmath.mpf(p.gamma) / (2 * delta)
        a = h * terms
        e_a = mpmath.hypot(a, 1)
        scale = e_a ** 2 * (e_a + g)

        def f(x):
            e = mpmath.hypot(x, 1)
            return scale / (e ** 2 * (e + g))

        head = h * mpmath.fsum(f(h * (n + mpmath.mpf(0.5))) for n in range(terms))
        s0 = mpmath.asinh(a)
        tail = mpmath.quad(lambda s: scale / (mpmath.cosh(s) * (mpmath.cosh(s) + g)),
                           [s0 + k for k in (0, 4, 12, 24, 40, 60)], method="gauss-legendre")
        d = list(mpmath.diffs(f, a, 5))
        rest = h ** 2 / 24 * d[1] - 7 * h ** 4 / 5760 * d[3] + 31 * h ** 6 / 967680 * d[5]
        return float((head + tail + rest) / scale)


def quad_g(xi, T, p):
    """Adaptive oracle: the pairing integrand under ``quad`` at epsrel
    1e-12 over the same truncation window, with the quasiparticle edge,
    the frequency, the relaxation energy and the condensate layer as
    breakpoints.

    Once xi is well above the gap, g is the small remainder of cancelling
    contributions and quadpack reports that roundoff keeps it from 1e-12;
    ``full_output`` returns that report instead of raising it.
    """
    delta = bcs_gap(T, p)
    kT = CONSTANTS.kB_eV * T
    emax = max(200.0 * delta, 200.0 * xi, 50.0 * kT)
    pts = sorted(x for x in {delta, xi, p.gamma, math.sqrt(delta * xi)} if x < emax)
    val = quad(pairing_integrand, 0.0, emax, args=(xi, delta, p.gamma, kT),
               points=pts, limit=500, epsabs=0.0, epsrel=1e-12,
               full_output=1)[0]
    return 2.0 * val


class TestGap:
    def test_zero_at_transition(self, sc_params):
        assert bcs_gap(sc_params.Tc, sc_params) == 0.0
        assert bcs_gap(2.0 * sc_params.Tc, sc_params) == 0.0

    def test_zero_temperature_value(self, sc_params):
        assert bcs_gap(0.0, sc_params) == pytest.approx(2.150e-3, rel=1e-3)

    def test_near_transition_value(self, sc_params):
        assert bcs_gap(0.99 * sc_params.Tc, sc_params) == pytest.approx(
            3.803e-4, rel=1e-3)

    def test_continuous_at_transition(self, sc_params):
        assert bcs_gap(sc_params.Tc * (1 - 1e-9), sc_params) < 1e-6

    def test_monotone_decreasing_above_low_t_maximum(self, sc_params):
        # the three-constant gap law peaks near t = 0.24 before falling to
        # zero; it is monotone only beyond that maximum
        ts = np.linspace(0.25 * sc_params.Tc, sc_params.Tc * 0.9999, 200)
        gaps = [bcs_gap(t, sc_params) for t in ts]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert bcs_gap(0.24 * sc_params.Tc, sc_params) > bcs_gap(0.0, sc_params)

    def test_negative_temperature_rejected(self, sc_params):
        with pytest.raises(ValueError):
            bcs_gap(-0.1, sc_params)


class TestCondensateWeight:
    def test_frozen_oracle_default_gamma(self, sc_params):
        assert condensate_fraction(0.5 * sc_params.Tc, sc_params) == pytest.approx(
            FRACTION_HALF_TC, rel=1e-8)

    def test_frozen_oracle_mev_gamma(self):
        assert condensate_fraction(0.5 * P_MEV.Tc, P_MEV) == pytest.approx(
            FRACTION_HALF_TC_MEV, rel=1e-8)

    def test_weight_is_sqrt_of_fraction(self, sc_params):
        w = effective_plasma_frequency(0.5 * sc_params.Tc, sc_params) / sc_params.Omega
        assert w == pytest.approx(math.sqrt(FRACTION_HALF_TC), rel=1e-8)

    def test_bounds(self, sc_params):
        for t_frac in (0.05, 0.3, 0.6, 0.9, 0.99):
            w2 = condensate_fraction(t_frac * sc_params.Tc, sc_params)
            assert 0.0 < w2 < 1.0

    # the series lies below 1 for every film; a clean one's is within an ulp of 1 as
    # T -> 0, where the rounding of its sum must not lift it past 1
    @pytest.mark.parametrize("gamma0", [5e-324, 1e-18, 1e-17, 1e-13, 0.465e-3])
    def test_never_exceeds_one(self, gamma0):
        p = SuperconductorParams(gamma0=gamma0)
        temps = [1e-300, *(np.geomspace(1e-6, 0.999, 200) * p.Tc).tolist(),
                 math.nextafter(p.Tc, 0.0)]
        fractions = [condensate_fraction(T, p) for T in temps]
        assert 0.0 < min(fractions) and max(fractions) <= 1.0

    # as T -> 0 the clean limit is 1 - pi gamma / (8 Delta) + O((gamma / Delta)**2 log)
    @pytest.mark.parametrize("gamma0", [1e-11, 1e-10, 1e-8])
    def test_clean_limit_falls_short_of_one_linearly_in_gamma(self, gamma0):
        p = SuperconductorParams(gamma0=gamma0)
        deficit = 1.0 - condensate_fraction(1e-300, p)
        assert deficit == pytest.approx(math.pi * p.gamma / (8.0 * bcs_gap(0.0, p)),
                                        rel=1e-5, abs=0.0)

    def test_vanishes_toward_transition(self, sc_params):
        w2 = condensate_fraction(0.999 * sc_params.Tc, sc_params)
        assert 0.0 < w2 < 0.01 ** 2

    def test_clean_limit_approaches_unity(self):
        clean = SuperconductorParams(gamma0=1e-6)
        assert condensate_fraction(0.1 * clean.Tc, clean) > 0.999 ** 2

    def test_normal_state_rejected(self, sc_params):
        with pytest.raises(ValueError):
            condensate_fraction(sc_params.Tc, sc_params)
        with pytest.raises(ValueError):
            condensate_fraction(1.5 * sc_params.Tc, sc_params)

    # relaxation energies that vanish against the gap, down to subnormal ones, give the
    # clean limit, that of gamma0 = 1e-17 eV (they were refused while the fraction was
    # the difference of two terms about pi Delta / gamma larger than it)
    @pytest.mark.parametrize("overrides", [{"RRR": 1e308}, {"gamma0": 1e-310},
                                           {"gamma0": 5e-324}])
    def test_vanishing_relaxation_gives_the_clean_limit(self, overrides):
        p, clean = SuperconductorParams(**overrides), SuperconductorParams(gamma0=1e-17)
        for T in (1e-300, 0.1 * p.Tc, 0.99 * p.Tc, math.nextafter(p.Tc, 0.0)):
            w2 = condensate_fraction(T, p)
            assert w2 == pytest.approx(condensate_fraction(T, clean), rel=1e-12, abs=0.0)
            assert w2 <= 1.0

    # a relaxation energy that is exactly 0 (gamma0 = 0, RRR = inf, or gamma0 / RRR
    # rounding to 0) is refused by the parameters before the fraction is reached; one
    # that is merely tiny gives the clean limit above
    @pytest.mark.parametrize("overrides", [{"gamma0": 0.0}, {"RRR": math.inf},
                                           {"gamma0": 5e-324, "RRR": 2.0}])
    def test_vanishing_relaxation_is_refused(self, overrides):
        with pytest.raises(ValueError, match=r"(gamma0|RRR) must be (> 0|finite)|"
                                             r"gamma0 / RRR must be > 0"):
            condensate_fraction(13.0, SuperconductorParams(**overrides))

    # once the Matsubara step 2 pi kB T underflows to 0 the series is its integral,
    # the T = 0 value, as it already is to double precision at 1e-300 K
    def test_underflowing_temperature_gives_the_cold_fraction(self):
        clean = SuperconductorParams(gamma0=1e-4)
        cold = condensate_fraction(1e-300, clean)
        assert 0.0 < cold < 1.0
        for T in (1e-320, 5e-324):
            assert condensate_fraction(T, clean) == cold

    # near Tc the fraction tends to c * Delta**2, for dirty and clean films alike
    @pytest.mark.parametrize("gamma0", [0.465, 0.465e-3, 1e-6, 1e-10, 1e-13, 1e-17])
    def test_continuous_up_to_tc(self, gamma0):
        p = SuperconductorParams(gamma0=gamma0)
        temps = [p.Tc - below for below in np.geomspace(1e-4, 1e-14, 21)]
        temps.append(math.nextafter(p.Tc, 0.0))
        ratios = [condensate_fraction(t, p) / bcs_gap(t, p) ** 2 for t in temps]
        assert min(ratios) > 0.0
        assert max(ratios) - min(ratios) <= 1e-5 * min(ratios)

    # relaxation energies from subnormal to 1 eV, temperatures from the 1e-300 K floor
    # to the last float below Tc
    @pytest.mark.parametrize("gamma0", [5e-324, 1e-17, 1e-13, 1e-8, 4.65e-4, 0.465, 1.0])
    def test_against_40_digit_series(self, gamma0):
        p = SuperconductorParams(gamma0=gamma0)
        temps = [1e-300, *(p.Tc * t for t in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999)),
                 math.nextafter(p.Tc, 0.0)]
        for T in temps:
            assert condensate_fraction(T, p) == pytest.approx(condensate_series_mp(T, p),
                                                              rel=1e-13, abs=0.0)

    # a gap law scaled by c1 = 1e-200: against 40 digits where kB T is within 1e10 of the
    # gap, and past that, where the reference's Euler-Maclaurin derivatives lose their
    # digits, quiet and under the bound 7 zeta(3) / h**2 (every summand is below x**-3),
    # which makes it 0 from h = 1e150 on; the parent overflowed to nan there
    def test_tiny_gap_against_40_digit_series(self):
        p = SuperconductorParams(c1=1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in (1e-300, 1e-205, 1e-200, 1e-199, 1e-198, 1e-190):
                assert condensate_fraction(T, p) == pytest.approx(
                    condensate_series_mp(T, p), rel=1e-13, abs=0.0)
            for T in (1e-160, 1e-100, 1e-50, 0.01 * p.Tc, 0.5 * p.Tc, math.nextafter(p.Tc, 0)):
                h = 2.0 * math.pi * CONSTANTS.kB_eV * T / bcs_gap(T, p)
                assert 0.0 <= condensate_fraction(T, p) <= 7.0 * CONSTANTS.zeta3 / h / h
            assert condensate_fraction(0.5 * p.Tc, p) == 0.0

    # a gap that rounds to 0 below Tc carries no condensate (the step 2 pi kB T / Delta
    # divided by 0)
    @pytest.mark.parametrize("overrides, T", [({"Tc": 1e-320}, 5e-324), ({"c1": 5e-324}, 7.0)],
                             ids=["tc-1e-320", "c1-5e-324"])
    def test_gap_rounded_to_0_leaves_no_condensate(self, overrides, T):
        p = SuperconductorParams(**overrides)
        assert bcs_gap(T, p) == 0.0
        assert condensate_fraction(T, p) == 0.0

    def test_effective_plasma_frequency_gates_off(self, sc_params):
        assert effective_plasma_frequency(sc_params.Tc, sc_params) == 0.0
        below = effective_plasma_frequency(0.5 * sc_params.Tc, sc_params)
        assert below == pytest.approx(
            math.sqrt(FRACTION_HALF_TC) * sc_params.Omega, rel=1e-8)


class TestPairingFunction:
    def test_gate_above_transition(self, sc_params):
        assert bcs_g(1e-3, 1.01 * sc_params.Tc, sc_params) == 0.0
        assert bcs_g(0.5, sc_params.Tc, sc_params) == 0.0

    def test_frozen_oracle_default_gamma(self, sc_params):
        t = 0.5 * sc_params.Tc
        assert bcs_g(GAP_HALF_TC, t, sc_params) == pytest.approx(
            G_AT_GAP_HALF_TC, rel=1e-6)

    def test_frozen_oracle_mev_gamma(self):
        t = 0.5 * P_MEV.Tc
        assert bcs_g(GAP_HALF_TC, t, P_MEV) == pytest.approx(
            G_AT_GAP_HALF_TC_MEV, rel=1e-6)

    def test_against_live_brute_force(self, sc_params):
        t = 0.5 * sc_params.Tc
        for xi in (0.3 * GAP_HALF_TC, GAP_HALF_TC, 5.0 * GAP_HALF_TC):
            assert bcs_g(xi, t, sc_params) == pytest.approx(
                brute_force_g(xi, t, sc_params), rel=2e-5)

    # Once xi >> Delta, Re G+ is a tiny remainder of a large imaginary part
    # and double precision limits the integrand itself: the fixed rule run
    # in 40-digit arithmetic matches a 40-digit reference to 1e-12 there,
    # while both rules in floats drift apart.  That sets in near 0.2 eV for
    # the dirty film and near 100 Delta for the clean one (gamma ~ Delta).
    @pytest.mark.parametrize("p, top_in_gaps", [
        (SuperconductorParams(), math.inf),
        (P_MEV, 100.0),
    ], ids=["dirty", "clean"])
    @pytest.mark.parametrize("t", [0.5 * TC, 0.99 * TC, TC - 0.01])
    def test_against_adaptive_oracle(self, p, top_in_gaps, t):
        delta = bcs_gap(t, p)
        for xi in np.geomspace(1e-3 * delta, min(0.2, top_in_gaps * delta), 25):
            assert bcs_g(xi, t, p) == pytest.approx(quad_g(xi, t, p), rel=1e-6)

    # the absolute error of the float kernel over every energy the
    # permittivity's table samples, 10 Delta to 100 eV (worst seen 2e-12)
    @pytest.mark.parametrize("p", [SuperconductorParams(), P_MEV], ids=["dirty", "clean"])
    @pytest.mark.parametrize("t", [4.0, 14.1, 14.19])
    def test_against_40_digit_fixed_rule(self, p, t):
        for xi in np.geomspace(10.0 * bcs_gap(t, p), 100.0, 5).tolist():
            assert bcs_g(xi, t, p) == pytest.approx(fixed_rule_g_mp(xi, t, p), rel=0.0,
                                                    abs=5e-12)

    def test_small_frequency_limit_is_condensate_fraction(self, sc_params):
        # numerical limit extrapolation: the xi*log(xi) correction dies out
        t = 0.5 * sc_params.Tc
        values = [bcs_g(f * GAP_HALF_TC, t, sc_params) for f in (1e-3, 1e-4)]
        for v in values:
            assert v == pytest.approx(FRACTION_HALF_TC, rel=1e-2)
        assert abs(values[-1] - FRACTION_HALF_TC) <= abs(values[0] - FRACTION_HALF_TC)

    # Re qp^2 is formed as eps^2 - xi^2: as e_qp^2 - xi^2 - delta^2 it cancels, and
    # g read 0.0639 at 1e-20 eV and 4 K against a plateau of 0.0145 (worst seen 3.8e-10)
    @pytest.mark.parametrize("p", [SuperconductorParams(), P_MEV], ids=["dirty", "clean"])
    @pytest.mark.parametrize("t", [0.3, 4.0, 13.2, TC - 0.01])
    def test_plateau_is_flat_as_xi_vanishes(self, p, t):
        plateau = bcs_g(1e-16, t, p)
        for xi in np.geomspace(1e-16, 1e-300, 36).tolist():
            assert bcs_g(xi, t, p) == pytest.approx(plateau, rel=1e-9, abs=0.0)

    def test_positive_below_transition(self, sc_params):
        t = 0.5 * sc_params.Tc
        for xi in (1e-4, 1e-3, 1e-2, 0.1):
            assert bcs_g(xi, t, sc_params) > 0.0

    # with xi and gamma both tiny the denominator qp (eps^2 - w^2) is 0 at
    # some nodes (1e-100 eV) or so small that the quotient overflows (1e-85)
    @pytest.mark.parametrize("gamma0", [1e-100, 1e-85])
    def test_underflowing_denominator_is_refused(self, gamma0):
        p = SuperconductorParams(gamma0=gamma0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pairing kernel denominator underflows"):
                bcs_g(matsubara_frequency(1, 1e-300), 1e-300, p)

    def test_underflowing_first_panel_is_refused(self):
        # at Tc = 1e-20 K the gap is 1.5e-24 eV, and its product with
        # xi = 5.4e-304 eV underflows, so the first panel would be [0, 0]
        p = SuperconductorParams(Tc=1e-20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pairing kernel's first panel underflows"):
                bcs_g(matsubara_frequency(1, 1e-300), 1e-300, p)

    def test_subnormal_temperature_is_quiet(self, sc_params):
        # e_qp / 2 kT would overflow; every tanh is 1, as at 1e-300 K
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bcs_g(1e-3, 1e-310, sc_params) == bcs_g(1e-3, 1e-300, sc_params)

    def test_domain_errors(self, sc_params):
        with pytest.raises(ValueError):
            bcs_g(0.0, 7.0, sc_params)
        with pytest.raises(ValueError):
            bcs_g(-1e-3, 7.0, sc_params)
        with pytest.raises(ValueError):
            bcs_g(1e-3, -1.0, sc_params)


class TestPermittivity:
    def test_plasma_at_plasma_frequency(self, sc_params):
        model = plasma(sc_params)
        assert permittivity_iw(model, sc_params.Omega, 10.0) == pytest.approx(2.0)

    def test_drude_closed_form_default_gamma(self, sc_params):
        gamma = sc_params.gamma
        value = permittivity_iw(drude(sc_params), gamma, 10.0)
        assert value == pytest.approx(
            1.0 + sc_params.Omega ** 2 / (2.0 * gamma ** 2), rel=1e-12)

    def test_drude_closed_form_mev_gamma(self):
        # with the meV relaxation the same closed form reaches 6.569e7
        value = permittivity_iw(drude(P_MEV), P_MEV.gamma, 10.0)
        assert value == pytest.approx(6.569e7, rel=1e-3)

    def test_bcs_equals_drude_above_transition(self, sc_params):
        for xi in (1e-3, 0.1, 2.0):
            assert permittivity_iw(bcs(sc_params), xi, 1.5 * sc_params.Tc) == \
                permittivity_iw(drude(sc_params), xi, 1.5 * sc_params.Tc)

    def test_continuity_at_transition(self, sc_params):
        def rel_gap(delta_frac, xi):
            t = sc_params.Tc * (1.0 - delta_frac)
            eps_bcs = permittivity_iw(bcs(sc_params), xi, t)
            eps_drude = permittivity_iw(drude(sc_params), xi, t)
            return abs(eps_bcs - eps_drude) / eps_drude

        # the pairing correction dies off linearly in Tc - T; at the first
        # thermal frequency the coincidence tightens from ~1e-3 accordingly
        assert rel_gap(1e-3, 7.7e-3) < 2e-3
        for xi in (0.077, 0.77, 2.0):
            assert rel_gap(1e-3, xi) < 1e-3
        for xi in (7.7e-3, 0.077, 0.77):
            assert rel_gap(1e-4, xi) < 0.15 * rel_gap(1e-3, xi)

    @pytest.mark.parametrize("factory", [drude, plasma, bcs])
    def test_greater_than_one(self, factory, sc_params):
        model = factory(sc_params)
        for xi in np.geomspace(1e-5, 50.0, 40):
            assert permittivity_iw(model, xi, 0.5 * sc_params.Tc) > 1.0

    @pytest.mark.parametrize("factory", [drude, plasma, bcs])
    def test_monotone_decreasing_in_xi(self, factory, sc_params):
        model = factory(sc_params)
        grid = np.geomspace(1e-4, 10.0, 60)
        values = [permittivity_iw(model, xi, 0.5 * sc_params.Tc) for xi in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_small_xi_plasma_singularity(self, sc_params):
        # xi^2 (eps - 1) approaches the squared effective plasma energy;
        # Richardson extrapolation on a geometric grid
        t = 0.5 * sc_params.Tc
        model = bcs(sc_params)
        grid = [GAP_HALF_TC * f for f in (1e-2, 1e-3, 1e-4)]
        seq = [xi * xi * (permittivity_iw(model, xi, t) - 1.0) for xi in grid]
        extrapolated = seq[-1] + (seq[-1] - seq[-2]) / 9.0
        target = FRACTION_HALF_TC * sc_params.Omega ** 2
        assert extrapolated > 0.0
        assert extrapolated == pytest.approx(target, rel=2e-2)

    def test_domain_error(self, sc_params):
        with pytest.raises(ValueError):
            permittivity_iw(drude(sc_params), 0.0, 10.0)
        with pytest.raises(ValueError, match="got 0.0"):
            permittivity_iw(drude(sc_params), np.array([0.1, 0.0]), 10.0)

    @pytest.mark.parametrize("factory, T", [
        (drude, 7.0), (plasma, 7.0), (bcs, 7.0), (bcs, TC), (bcs, 1.5 * TC),
    ], ids=["drude", "plasma", "bcs-below-tc", "bcs-at-tc", "bcs-above-tc"])
    def test_array_equals_scalar_calls(self, sc_params, factory, T, monkeypatch):
        # one array call gives the scalar calls' bits; at and above Tc the gap
        # is closed and BCS takes the Drude expression without calling bcs_g
        calls = []
        kernel = permittivity.bcs_g
        monkeypatch.setattr(permittivity, "bcs_g",
                            lambda *args: calls.append(args) or kernel(*args))
        permittivity._g_decade.cache_clear()
        model = factory(sc_params)
        xi = 2.0 * math.pi * CONSTANTS.kB_eV * T * np.arange(1, 41)
        got = permittivity_iw(model, xi, T)
        want = np.array([permittivity_iw(model, v, T) for v in xi.tolist()])
        assert got.shape == xi.shape
        assert got.tobytes() == want.tobytes()
        if T >= TC:
            assert got.tobytes() == permittivity_iw(drude(sc_params), xi, T).tobytes()
        assert type(permittivity_iw(model, xi[0], T)) is float
        # at 7 K the first 5 energies sit below 10 Delta and call the kernel:
        # in the array call, in the scalar calls and for xi[0] once more; the
        # other 35 share one decade of the table, 16 kernel calls built once
        assert len(calls) == (5 + 16 + 5 + 1 if factory is bcs and T < TC else 0)

    @pytest.mark.parametrize("p", [SuperconductorParams(), P_MEV], ids=["dirty", "clean"])
    @pytest.mark.parametrize("T", [0.3, 1.0, 4.0, 13.2, 14.1, 14.19])
    def test_table_matches_kernel(self, p, T):
        # above xi_c = 10 Delta the permittivity reads g from one Chebyshev
        # table per decade of xi / xi_c; on either side of each decade edge,
        # just below xi_c and across 10 Delta to 100 eV it stays within 1e-10
        # of the permittivity built on the kernel, and arrays keep scalar bits
        permittivity._g_decade.cache_clear()
        xi_c = 10.0 * bcs_gap(T, p)
        edges = xi_c * 10.0 ** np.arange(5)
        xi = np.concatenate([np.geomspace(xi_c, 100.0, 40), edges, np.nextafter(edges, 0.0),
                             [0.999 * xi_c]])
        g = np.array([bcs_g(v, T, p) for v in xi.tolist()])
        want = 1.0 + (p.Omega ** 2 / xi) * (1.0 / (xi + p.gamma) + g / xi)
        got = permittivity_iw(bcs(p), xi, T)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        scalar = [permittivity_iw(bcs(p), v, T) for v in xi.tolist()]
        assert got.tobytes() == np.array(scalar).tobytes()

    def test_tiny_energies_overflow_quietly(self, sc_params):
        # float arithmetic overflows to inf; so does the array form, silently
        assert permittivity_iw(plasma(sc_params), 1e-310, 10.0) == math.inf
        assert np.isinf(permittivity_iw(drude(sc_params), np.array([1e-320, 1.0]), 10.0)[0])
