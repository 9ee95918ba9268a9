"""Acceptance gate: every criterion runs at its stated tolerance.

Each test appends a (number, description, passed, detail) record that the
conftest terminal-summary hook prints as one pass/fail line per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sccasimir.physcore import CONSTANTS, SuperconductorParams, small_gap_membrane
from sccasimir.permittivity import bcs, drude, plasma
from sccasimir.lifshitz import (
    LifshitzSpec,
    PlatePlate,
    QuadratureConfig,
    SpherePlate,
    ZeroFreqApproach,
    casimir_pressure,
    casimir_pressure_gradient,
    classical_terms,
    ideal_casimir_force,
    local_exponent,
    tc_jump,
)
from sccasimir import analysis, experiments, membrane
from sccasimir.membrane import (
    cte_alpha,
    dw2_from_gradient,
    fundamental_frequency,
    predicted_frequency_jump,
    static_deflection,
)

RESULTS = []


def _record(number, description, passed, detail):
    RESULTS.append((number, description, bool(passed), detail))
    assert passed, f"criterion {number}: {description} -- {detail}"


_shared = {}


def _headline_spec():
    if "spec" not in _shared:
        _shared["spec"] = LifshitzSpec(
            d=190e-9, T=0.99 * 14.2, model=bcs(SuperconductorParams()),
            approach=ZeroFreqApproach.PLASMA_BCS, quad=QuadratureConfig())
    return _shared["spec"]


def test_criterion_01_headline_pressure():
    spec = _headline_spec()
    start = time.perf_counter()
    value = casimir_pressure(spec)
    elapsed = time.perf_counter() - start
    ok = abs(value - (-0.4021)) / 0.4021 <= 0.05 and elapsed < 60.0
    _record(1, "headline pressure at 190 nm, 0.99 Tc", ok,
            f"P = {value:.4f} Pa vs -0.4021 +-5%, {elapsed:.1f} s (< 60 s)")


def test_criterion_02_local_exponent():
    value = local_exponent(_headline_spec())
    ok = abs(value - 3.507) <= 0.03
    _record(2, "local power-law exponent at 190 nm", ok,
            f"n = {value:.4f} vs 3.507 +-0.03")


def test_criterion_03_classical_gradient():
    _, gradient = classical_terms(190e-9, 14.2)
    ok = abs(gradient - 21.6e3) / 21.6e3 <= 1e-3
    _record(3, "classical gradient at 190 nm, 14.2 K", ok,
            f"P' = {gradient:.1f} Pa/m vs 21.6 kPa/m +-0.1%")


def test_criterion_04_transition_jumps():
    params = SuperconductorParams()
    start = time.perf_counter()
    jumps = {ap: tc_jump(190e-9, 14.2, 0.1, ap, params)
             for ap in ZeroFreqApproach}
    elapsed = time.perf_counter() - start
    targets = {ZeroFreqApproach.PLASMA_BCS: (6.0e3, 0.20),
               ZeroFreqApproach.PLASMA_PLASMA: (65.0, 0.30),
               ZeroFreqApproach.DRUDE_BCS: (19.0, 0.30)}
    checks = []
    for ap, (target, tol) in targets.items():
        checks.append(abs(abs(jumps[ap]) - target) / target <= tol)
    # the jump prescription raises the gradient through the transition;
    # the smooth prescriptions barely move it
    checks.append(jumps[ZeroFreqApproach.PLASMA_BCS] > 0.0)
    checks.append(elapsed < 600.0)
    detail = ", ".join(f"{ap.value}: {jumps[ap]:+.4g} Pa/m" for ap in jumps)
    _record(4, "gradient jumps across the transition (+-0.1 K)",
            all(checks), detail + f"; {elapsed:.0f} s (< 600 s)")


def test_criterion_05_frequency_jump():
    df = predicted_frequency_jump(6.0e3, small_gap_membrane(), 352800.0)
    ok = abs(abs(df) - 0.29) / 0.29 <= 0.10
    _record(5, "predicted frequency shift for a 6 kPa/m jump", ok,
            f"|df| = {abs(df):.4f} Hz vs 0.29 +-10%")


def test_criterion_06_ideal_conductor_limit():
    params = SuperconductorParams(Omega=1e4)
    quad = QuadratureConfig(term_stop_rel=1e-8, max_matsubara=500_000)
    hbar_c = CONSTANTS.hbar_Js * CONSTANTS.c
    details = []
    ok = True
    for d in (100e-9, 190e-9, 500e-9):
        spec = LifshitzSpec(d=d, T=0.1, model=plasma(params),
                            approach=ZeroFreqApproach.PLASMA_PLASMA, quad=quad)
        value = casimir_pressure(spec)
        ideal = -math.pi ** 2 * hbar_c / (240.0 * d ** 4)
        rel = abs(value - ideal) / abs(ideal)
        details.append(f"{d*1e9:.0f} nm: {rel:.2e}")
        ok = ok and rel <= 0.01
    _record(6, "ideal-conductor limit (plasma, 1e4 eV, 0.1 K)", ok,
            "rel dev " + ", ".join(details) + " (<= 1%)")


def test_criterion_07_comparison_tables():
    worst = 0.0
    for row in experiments.PLATE_PLATE_ROWS + experiments.SPHERE_PLATE_ROWS:
        worst = max(worst, abs(ideal_casimir_force(row.geometry) - row.force)
                    / row.force)
    this_work = ideal_casimir_force(PlatePlate(area=4.9e-7, d=190e-9))
    lamoreaux = ideal_casimir_force(SpherePlate(radius=0.113, d=600e-9))
    ok = (worst <= 0.005
          and abs(this_work - 4.89117e-7) / 4.89117e-7 <= 0.005
          and abs(lamoreaux - 1.42528e-9) / 1.42528e-9 <= 0.005)
    _record(7, "comparison tables recomputed from geometry", ok,
            f"worst row deviation {worst:.2%} (<= 0.5%)")


def test_criterion_08_membrane_frequencies(small_gap, big_gap):
    f_small = fundamental_frequency(small_gap)
    f_big = fundamental_frequency(big_gap)
    ok = (abs(f_small - 352800.0) / 352800.0 <= 0.002
          and abs(f_big - 343008.0) / 343008.0 <= 0.002)
    _record(8, "with-hole fundamental frequencies", ok,
            f"{f_small:.0f} / {f_big:.0f} Hz vs 352800 / 343008 +-0.2%")


def test_criterion_09_static_deflection(small_gap, big_gap):
    z_small = static_deflection((-1.081e-24, 3.507), small_gap)
    z_big = static_deflection((-1.013e-26, 3.829), big_gap)
    ok = (abs(z_small - (-152e-12)) / 152e-12 <= 0.02
          and abs(abs(z_big) - 0.17e-12) / 0.17e-12 <= 0.02)
    _record(9, "static deflection under the fitted pressure laws", ok,
            f"{z_small*1e12:.1f} / {z_big*1e12:.3f} pm vs -152 / -0.17 +-2%")


def test_criterion_10_thermal_expansion(small_gap, big_gap):
    small = cte_alpha(14.2, small_gap.cte_A, small_gap.cte_B)
    big = cte_alpha(14.2, big_gap.cte_A, big_gap.cte_B)
    ok = f"{small:.2e}" == "5.46e-09" and f"{big:.2e}" == "7.00e-09"
    _record(10, "thermal-expansion coefficients at 14.2 K", ok,
            f"{small:.3e} / {big:.3e} 1/K vs 5.46e-9 / 7.00e-9")


def _sweep_pair(jump_dw2, noise, seed, small_gap):
    grid = tuple(np.round(np.arange(13.175, 14.68, 0.05), 4))
    small_truth = analysis.SweepTruth(
        slope=-2.2843e7, intercept=(2 * math.pi * 352800.0) ** 2 + 2.2843e7 * 14.2,
        jump=jump_dw2, Tc=14.2, noise_f=noise, grid=grid)
    big_truth = analysis.SweepTruth(
        slope=-2.6e7, intercept=(2 * math.pi * 343008.0) ** 2 + 2.6e7 * 14.2,
        jump=0.0, Tc=14.2, noise_f=noise, grid=grid)
    return (analysis.generate_sweep(small_truth, seed=seed),
            analysis.generate_sweep(big_truth, seed=seed + 50_000))


def test_criterion_11_pipeline_recovery(small_gap):
    window = (13.0, 14.19)
    target = 12.1e3
    jump_dw2 = dw2_from_gradient(target, small_gap)

    small, big = _sweep_pair(jump_dw2, 0.0, 0, small_gap)
    noiseless = analysis.sweep_pipeline(small, big, window, small_gap)
    exact = abs(noiseless.gradient_jump - target) / target <= 1e-6

    recovered = []
    for seed in range(100):
        small, big = _sweep_pair(jump_dw2, 4.7e-3, seed, small_gap)
        report = analysis.sweep_pipeline(small, big, window, small_gap)
        recovered.append(report.gradient_jump)
    recovered = np.asarray(recovered)
    bias = abs(np.mean(recovered) - target) / target
    spread = np.std(recovered) / target
    ok = exact and bias < 0.05 and spread < 0.15
    _record(11, "synthetic-sweep pipeline recovery (100 seeds)", ok,
            f"bias {bias:.2%} (< 5%), spread {spread:.2%} (< 15%), "
            f"noiseless {'exact' if exact else 'NOT exact'}")


def test_criterion_12_numerical_self_consistency(small_gap):
    # analytic gradient vs central finite difference on a 10-point grid
    params = SuperconductorParams()
    worst_fd = 0.0
    for d in (120e-9, 190e-9, 300e-9, 420e-9, 500e-9):
        for temperature in (25.0, 60.0):
            spec = LifshitzSpec(d=d, T=temperature, model=drude(params),
                                approach=ZeroFreqApproach.PLASMA_BCS)
            gradient = casimir_pressure_gradient(spec)
            delta = 1e-3 * d
            fd = (casimir_pressure(replace(spec, d=d + delta))
                  - casimir_pressure(replace(spec, d=d - delta))) / (2.0 * delta)
            worst_fd = max(worst_fd, abs(gradient - fd) / abs(gradient))
    fd_ok = worst_fd <= 1e-4

    # closed-form membrane operations vs the high-precision oracle
    from test_membrane import test_closed_forms_against_high_precision_oracle
    try:
        test_closed_forms_against_high_precision_oracle(small_gap)
        membrane_ok = True
    except AssertionError:
        membrane_ok = False

    # tunneling-conductance fit round-trips noiseless synthetic data
    from test_analysis import DYNES_REF, synthetic_conductance
    fit = analysis.dynes_fit(synthetic_conductance(DYNES_REF), T=4.6)
    dynes_rel = max(abs(fit.Delta - DYNES_REF.Delta) / DYNES_REF.Delta,
                    abs(fit.gamma - DYNES_REF.gamma) / DYNES_REF.gamma,
                    abs(fit.A - DYNES_REF.A) / DYNES_REF.A)
    dynes_ok = dynes_rel <= 1e-4

    _record(12, "numerical self-consistency", fd_ok and membrane_ok and dynes_ok,
            f"gradient vs FD worst {worst_fd:.2e} (<= 1e-4); membrane oracle "
            f"{'1e-10 ok' if membrane_ok else 'FAILED'}; "
            f"fit round-trip {dynes_rel:.2e} (<= 1e-4)")
