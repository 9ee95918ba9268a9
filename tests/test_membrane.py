import math

import mpmath as mp
import numpy as np
import pytest

from sccasimir.errors import FitError, ParseError
from sccasimir.physcore import CONSTANTS, MembraneSpec, read_csv
from sccasimir.membrane import (
    SweepRecord,
    cte_alpha,
    dw2_from_gradient,
    frequency_noise,
    fundamental_frequency,
    gradient_from_dw2,
    lcpd_fit,
    load_sweep_csv,
    predicted_frequency_jump,
    static_deflection,
)

mp.mp.dps = 50

# fitted Casimir pressure power laws used by the deflection estimates
SMALL_GAP_LAW = (-1.081e-24, 3.507)
BIG_GAP_LAW = (-1.013e-26, 3.829)


class TestFundamentalFrequency:
    def test_small_gap_with_holes(self, small_gap):
        assert fundamental_frequency(small_gap) == pytest.approx(352800.0, rel=1e-3)

    def test_big_gap_with_holes(self, big_gap):
        assert fundamental_frequency(big_gap) == pytest.approx(343008.0, rel=1e-3)

    def test_stress_scaling(self, small_gap):
        stiffer = MembraneSpec(L=small_gap.L, h=small_gap.h, d=small_gap.d,
                               sigma=4.0 * small_gap.sigma, rho=small_gap.rho)
        base = MembraneSpec(L=small_gap.L, h=small_gap.h, d=small_gap.d,
                            sigma=small_gap.sigma, rho=small_gap.rho)
        assert fundamental_frequency(stiffer) == pytest.approx(
            2.0 * fundamental_frequency(base), rel=1e-14)

    def test_length_scaling(self, small_gap):
        longer = MembraneSpec(L=2.0 * small_gap.L, h=small_gap.h, d=small_gap.d,
                              sigma=small_gap.sigma, rho=small_gap.rho)
        assert fundamental_frequency(longer) == pytest.approx(
            0.5 * fundamental_frequency(small_gap), rel=1e-14)


class TestGradientConversion:
    def test_zero(self, small_gap):
        assert dw2_from_gradient(0.0, small_gap) == 0.0

    def test_headline_value(self, small_gap):
        assert dw2_from_gradient(12.10e3, small_gap) == pytest.approx(
            -1.564e7, rel=1e-3)

    def test_round_trip(self, small_gap):
        rng = np.random.default_rng(3)
        for value in rng.uniform(-1e8, 1e8, 50):
            assert gradient_from_dw2(dw2_from_gradient(value, small_gap),
                                     small_gap) == pytest.approx(value, rel=1e-12)


class TestFrequencyJump:
    def test_headline(self, small_gap):
        df = predicted_frequency_jump(6.0e3, small_gap, 352800.0)
        assert abs(df) == pytest.approx(0.29, rel=0.10)

    def test_zero(self, small_gap):
        assert predicted_frequency_jump(0.0, small_gap, 352800.0) == 0.0

    def test_linearity(self, small_gap):
        one = predicted_frequency_jump(3.0e3, small_gap, 352800.0)
        two = predicted_frequency_jump(6.0e3, small_gap, 352800.0)
        assert two == pytest.approx(2.0 * one, rel=1e-14)

    def test_sign_preserved(self, small_gap):
        assert predicted_frequency_jump(6.0e3, small_gap, 352800.0) < 0.0
        assert predicted_frequency_jump(-6.0e3, small_gap, 352800.0) > 0.0


def synthetic_voltage_sweep(m, v0, n=201, span=(-0.75, 1.25), noise=0.0, seed=None):
    f_apex = fundamental_frequency(m)
    curvature = CONSTANTS.eps0 / (4.0 * math.pi**2 * m.rho * m.h * m.d**3)
    v = np.linspace(span[0], span[1], n)
    f = np.sqrt(f_apex**2 - curvature * (v - v0) ** 2)
    if noise:
        rng = np.random.default_rng(seed)
        f = f * (1.0 + noise * rng.standard_normal(n))
    return list(zip(v, f))


class TestLcpdFit:
    def test_noiseless_round_trip(self, small_gap):
        result = lcpd_fit(synthetic_voltage_sweep(small_gap, 0.2572), small_gap)
        assert result.V0 == pytest.approx(0.2572, rel=1e-6)
        assert result.sigma == pytest.approx(small_gap.sigma, rel=1e-6)
        assert result.rho == pytest.approx(small_gap.rho, rel=1e-6)

    def test_compensation_voltages(self, small_gap, big_gap):
        small = lcpd_fit(synthetic_voltage_sweep(small_gap, 0.2572), small_gap)
        big = lcpd_fit(synthetic_voltage_sweep(big_gap, 0.2236), big_gap)
        assert small.V0 == pytest.approx(0.2572, abs=1e-6)
        assert big.V0 == pytest.approx(0.2236, abs=1e-6)

    def test_monte_carlo_recovery(self, small_gap):
        # 1e-3 relative frequency noise: apex recovered within a millivolt
        errors = []
        for seed in range(100):
            points = synthetic_voltage_sweep(small_gap, 0.2572, noise=1e-3,
                                             seed=1000 + seed)
            errors.append(abs(lcpd_fit(points, small_gap).V0 - 0.2572))
        assert max(errors) < 1e-3

    @pytest.mark.parametrize("k", [-200, -1, 1, 7, 200, 400])
    def test_power_of_two_frequency_scale(self, small_gap, k):
        # the fit runs on f^2 / 2**e, e the exponent of its largest value: a
        # factor 2**k on every f changes only rho ~ 1/a and its error, by 2**-2k.
        # Whole-hertz frequencies have exact squares, which libm's pow keeps exact
        points = [(v, float(round(f))) for v, f in
                  synthetic_voltage_sweep(small_gap, 0.2572, noise=1e-3, seed=7)]
        base = lcpd_fit(points, small_gap)
        scaled = lcpd_fit([(v, math.ldexp(f, k)) for v, f in points], small_gap)
        for name in ("V0", "sigma", "V0_err", "sigma_err"):
            assert getattr(scaled, name) == getattr(base, name)
        assert scaled.rho == math.ldexp(base.rho, -2 * k)
        assert scaled.rho_err == math.ldexp(base.rho_err, -2 * k)

    @pytest.mark.parametrize("k", [-480, -300, -1, 1, 7, 300, 480])
    def test_power_of_two_voltage_scale(self, small_gap, k):
        # the fit runs on v / 2**s, s the exponent of the largest |v|, and its results
        # take 2**s back by ldexp: a factor 2**k on every V scales V0 and its error by
        # 2**k and the curvature by 2**-2k, so rho, sigma and their errors by 2**2k, exactly
        points = [(v, float(round(f))) for v, f in
                  synthetic_voltage_sweep(small_gap, 0.2572, noise=1e-3, seed=7)]
        base = lcpd_fit(points, small_gap)
        scaled = lcpd_fit([(math.ldexp(v, k), f) for v, f in points], small_gap)
        for name, power in (("V0", 1), ("V0_err", 1), ("sigma", 2), ("sigma_err", 2),
                            ("rho", 2), ("rho_err", 2)):
            assert getattr(scaled, name) == math.ldexp(getattr(base, name), power * k)

    def test_symmetric_sweep_fits_its_apex_at_zero(self, big_gap):
        # 11 voltages exactly symmetric about 0 fit a linear coefficient b of exactly 0,
        # so V0 is 0 and its error the b = 0 limit of |V0| hypot(da/a, db/b): db / 2|a|
        curvature = CONSTANTS.eps0 / (4 * math.pi ** 2 * big_gap.rho * big_gap.h
                                      * big_gap.d ** 3)
        v = 0.25 * np.arange(-5, 6)
        f = np.sqrt(fundamental_frequency(big_gap) ** 2 - curvature * v * v)
        e, s = np.frexp(np.max(f * f))[1], np.frexp(np.max(np.abs(v)))[1]
        (a, b, _), cov = np.polyfit(np.ldexp(v, -s), np.ldexp(f * f, -e), 2, cov=True)
        assert b == 0.0
        result = lcpd_fit(list(zip(v, f)), big_gap)
        assert result.V0 == 0.0
        assert result.V0_err == np.ldexp(math.sqrt(cov[1, 1]) / (2 * abs(a)), s) > 0.0

    @pytest.mark.parametrize("v_huge", [1e50, 1e155, 1e200])
    def test_voltages_decades_apart_are_a_fit_error(self, small_gap, v_huge):
        # one voltage of 51 far above the rest: V**2 overflowed in polyfit, which
        # warned and printed LAPACK messages on stdout; scaled, the fit is rank
        # deficient, which is refused without a warning
        points = synthetic_voltage_sweep(small_gap, 0.2572, n=51)
        points[10] = (v_huge, points[10][1])
        with pytest.raises(FitError, match="^rank-deficient fit"):
            lcpd_fit(points, small_gap)

    def test_too_few_points(self, small_gap):
        with pytest.raises(FitError):
            lcpd_fit(synthetic_voltage_sweep(small_gap, 0.2572, n=4), small_gap)

    @pytest.mark.parametrize("voltages", [(0.1,) * 6, (0.1, 0.3) * 3])
    def test_too_few_distinct_voltages(self, small_gap, voltages):
        # a parabola needs three abscissae; fewer used to warn and exit 2
        points = [(v, 352800.0 + i) for i, v in enumerate(voltages)]
        with pytest.raises(FitError, match="3 distinct voltages"):
            lcpd_fit(points, small_gap)

    def test_apex_outside_the_voltage_range_rejected(self, small_gap):
        # f^2 an exact concave parabola with its apex at 2 V, sampled on [-1, 1] V
        points = [(v, math.sqrt(1.2e11 - 1e9 * (v - 2.0) ** 2))
                  for v in np.linspace(-1.0, 1.0, 21).tolist()]
        with pytest.raises(FitError, match="^apex 2 V outside the sampled voltage range$"):
            lcpd_fit(points, small_gap)

    def test_points_must_be_pairs(self, small_gap):
        triples = [(v, f, 0.0) for v, f in synthetic_voltage_sweep(small_gap, 0.2572, n=10)]
        with pytest.raises(ValueError, match="cannot reshape"):
            lcpd_fit(triples, small_gap)

    def test_convex_data_rejected(self, small_gap):
        points = [(v, 1e5 + 1e4 * v * v) for v in np.linspace(-1, 1, 21)]
        with pytest.raises(FitError):
            lcpd_fit(points, small_gap)


class TestStaticDeflection:
    def test_small_gap_headline(self, small_gap):
        assert static_deflection(SMALL_GAP_LAW, small_gap) == pytest.approx(
            -152e-12, rel=2e-2)

    def test_big_gap_headline(self, big_gap):
        assert static_deflection(BIG_GAP_LAW, big_gap) == pytest.approx(
            -0.17e-12, rel=2e-2)

    def test_zero_pressure(self, small_gap):
        assert static_deflection((0.0, 3.5), small_gap) == 0.0

    def test_linear_in_amplitude(self, small_gap):
        one = static_deflection((-1e-24, 3.507), small_gap)
        three = static_deflection((-3e-24, 3.507), small_gap)
        assert three == pytest.approx(3.0 * one, rel=1e-14)

    def test_repulsive_rejected(self, small_gap):
        with pytest.raises(ValueError):
            static_deflection((1e-24, 3.5), small_gap)


class TestCte:
    def test_small_gap_at_transition(self, small_gap):
        alpha = cte_alpha(14.2, small_gap.cte_A, small_gap.cte_B)
        assert f"{alpha:.2e}" == "5.46e-09"

    def test_big_gap_at_transition(self, big_gap):
        alpha = cte_alpha(14.2, big_gap.cte_A, big_gap.cte_B)
        assert f"{alpha:.2e}" == "7.00e-09"

    def test_zero(self, small_gap):
        assert cte_alpha(0.0, small_gap.cte_A, small_gap.cte_B) == 0.0

    def test_negative_temperature_rejected(self, small_gap):
        with pytest.raises(ValueError, match="^T must be >= 0, got -1.0$"):
            cte_alpha(-1.0, small_gap.cte_A, small_gap.cte_B)


class TestFrequencyNoise:
    def test_zero_noise(self):
        assert frequency_noise(352800.0, 7.2e5, 0.0, 0.2) == 0.0

    def test_inverse_quality_factor(self):
        one = frequency_noise(352800.0, 7.2e5, 0.02, 0.2)
        ten = frequency_noise(352800.0, 7.2e6, 0.02, 0.2)
        assert ten == pytest.approx(one / 10.0, rel=1e-15)

    def test_pinned_floor(self):
        # noise-to-signal ratio that reproduces the demonstrated 4.7 mHz
        # floor at f0 = 352.8 kHz, Q = 7.2e5, tau = 200 ms
        assert frequency_noise(352800.0, 7.2e5, 0.02150486, 0.2) == pytest.approx(
            4.7e-3, rel=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            frequency_noise(0.0, 1e5, 0.01, 0.1)


# sweep, conductance and voltage-sweep files share one header-checked reader
READERS = [
    ("T_K,f_Hz", load_sweep_csv),
    ("V_volt,G_arb", lambda path: read_csv(path, ("V_volt", "G_arb"))),
    ("V_volt,f_Hz", lambda path: read_csv(path, ("V_volt", "f_Hz"))),
]


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("T_K,f_Hz,sigma_f_Hz\n4.5,352800.1,0.005\n5.0,352799.9,0.004\n")
        records = load_sweep_csv(path)
        assert records == [SweepRecord(4.5, 352800.1, 0.005),
                           SweepRecord(5.0, 352799.9, 0.004)]

    def test_q_column_is_ignored(self, tmp_path):
        path = tmp_path / "sweep.csv"
        rows = ["4.5,352800.1,0.005", "5.0,352799.9,0.004"]
        path.write_text("T_K,f_Hz,sigma_f_Hz\n" + "\n".join(rows) + "\n")
        three = load_sweep_csv(path)
        path.write_text("T_K,f_Hz,sigma_f_Hz,Q\n"
                        + "\n".join(f"{row},7.2e5" for row in rows) + "\n")
        assert load_sweep_csv(path) == three

    def test_minimal_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("T_K,f_Hz\n4.5,352800.0\n")
        assert load_sweep_csv(path)[0].sigma_f == 0.0

    def test_refused_record_reports_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("T_K,f_Hz\n13.2,352800.0\n13.3,-5.0\n")
        with pytest.raises(ParseError, match="^line 3: f must be > 0, got -5.0$") as err:
            load_sweep_csv(path)
        assert err.value.line == 3

    def test_header_without_data_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        for header, load in READERS:
            path.write_text(f"{header}\n\n")
            with pytest.raises(ParseError, match="^line 2: data.csv contains no data rows$"):
                load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("temp,freq\n4.5,352800.0\n")
        for _, load in READERS:
            with pytest.raises(ParseError) as err:
                load(path)
            assert err.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        # a non-numeric field, then one field too many
        for bad_row in ("5.0,oops", "5.0,352800.0,7.0"):
            for header, load in READERS:
                path.write_text(f"{header}\n4.5,352800.0\n{bad_row}\n")
                with pytest.raises(ParseError) as err:
                    load(path)
                assert err.value.line == 3

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_field_reports_line(self, tmp_path, field):
        path = tmp_path / "data.csv"
        for header, load in READERS:
            path.write_text(f"{header}\n4.5,352800.0\n5.0,{field}\n")
            with pytest.raises(ParseError, match="non-finite") as err:
                load(path)
            assert err.value.line == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        for header, load in READERS:
            path.write_text(f"{header}\n\n4.5,352800.0\n , \n5.0,352799.0\n\n")
            assert len(load(path)) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        for _, load in READERS:
            with pytest.raises(ParseError):
                load(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord(T=-1.0, f=1e5)
        with pytest.raises(ValueError):
            SweepRecord(T=4.0, f=1e5, sigma_f=-0.1)
        with pytest.raises(ValueError, match="^f must be > 0, got 0.0$"):
            SweepRecord(T=4.0, f=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["T", "f", "sigma_f"])
    def test_record_refuses_non_finite_fields(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SweepRecord(**{"T": 4.0, "f": 1e5, "sigma_f": 0.1, name: value})


def _mp_oracles(m, draw):
    """50-digit reference evaluation of every closed form, written directly
    from the formulas."""
    L, h, d = mp.mpf(m.L), mp.mpf(m.h), mp.mpf(m.d)
    sigma, rho = mp.mpf(m.sigma), mp.mpf(m.rho)
    f_nh = mp.sqrt(sigma / rho) / (mp.sqrt(2) * L)
    out = {
        "f_h": f_nh * mp.sqrt(mp.mpf(m.Y_ratio)),
        "dw2": -mp.mpf(draw["gradient"]) / (rho * h),
        "df": (-mp.mpf(draw["gradient"]) / (rho * h))
              / (8 * mp.pi**2 * mp.mpf(draw["f0"])),
        "defl": mp.mpf(m.C_hole) * (mp.mpf(draw["amp"]) / d**mp.mpf(draw["n"]))
                * L**2 / (4 * mp.mpf(m.C1) * h * sigma),
        "alpha": mp.mpf(m.cte_A) * mp.mpf(draw["T"])
                 + mp.mpf(m.cte_B) * mp.mpf(draw["T"]) ** 3,
        "noise": mp.mpf(draw["f0"]) / (2 * mp.mpf(draw["Q"])) * mp.mpf(draw["ns"])
                 * mp.sqrt(1 / (2 * mp.pi * mp.mpf(draw["tau"]))),
    }
    return {k: float(v) for k, v in out.items()}


def test_closed_forms_against_high_precision_oracle(small_gap):
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = MembraneSpec(
            L=rng.uniform(1e-4, 2e-3), h=rng.uniform(5e-8, 5e-7),
            d=rng.uniform(5e-8, 5e-6), sigma=rng.uniform(1e7, 2e9),
            rho=rng.uniform(1e3, 2e4), Y_ratio=rng.uniform(0.5, 1.0),
            C_hole=rng.uniform(1.0, 1.2), cte_A=rng.uniform(1e-10, 1e-9),
            cte_B=rng.uniform(1e-13, 1e-12))
        draw = {
            "gradient": rng.uniform(-1e5, 1e5), "f0": rng.uniform(1e4, 1e6),
            "dv": rng.uniform(-1.0, 1.0), "amp": -(10.0 ** rng.uniform(-27, -23)),
            "n": rng.uniform(3.0, 4.0), "vrms": rng.uniform(0.0, 0.1),
            "ell": rng.uniform(1e-9, 1e-7), "T": rng.uniform(0.1, 30.0),
            "Q": rng.uniform(1e4, 1e7), "ns": rng.uniform(1e-3, 1e-1),
            "tau": rng.uniform(1e-3, 10.0),
        }
        ref = _mp_oracles(m, draw)
        assert fundamental_frequency(m) == pytest.approx(ref["f_h"], rel=1e-10)
        assert dw2_from_gradient(draw["gradient"], m) == pytest.approx(
            ref["dw2"], rel=1e-10)
        assert predicted_frequency_jump(draw["gradient"], m, draw["f0"]) == \
            pytest.approx(ref["df"], rel=1e-10)
        assert static_deflection((draw["amp"], draw["n"]), m) == pytest.approx(
            ref["defl"], rel=1e-10)
        assert cte_alpha(draw["T"], m.cte_A, m.cte_B) == pytest.approx(
            ref["alpha"], rel=1e-10)
        assert frequency_noise(draw["f0"], draw["Q"], draw["ns"],
                               draw["tau"]) == pytest.approx(ref["noise"], rel=1e-10)
