import hashlib
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import sccasimir
from sccasimir import __version__
from sccasimir.cli import main
from sccasimir.lifshitz import classical_terms
from sccasimir.membrane import dw2_from_gradient, fundamental_frequency
from sccasimir.physcore import (
    CONSTANTS,
    SuperconductorParams,
    config_items,
    from_config,
    read_config,
    small_gap_membrane,
)


@pytest.fixture
def runner():
    return CliRunner()


def csv_values(output):
    """Parse quantity,value,unit rows, skipping # header lines."""
    out = {}
    for line in output.splitlines():
        if line.startswith("#") or line.startswith("quantity,"):
            continue
        if not line.strip():
            continue
        name, value, _unit = line.split(",", 2)
        out[name] = float(value)
    return out


FAST = ["--term-stop", "1e-8"]
LOOSE = ["--term-stop", "1e-4"]


class TestMain:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert __version__ in result.output

    @pytest.mark.parametrize("args, code", [
        (["pressure", "--d", "-1", "--t", "10"], 2),
        (["gradient", "--d", "190e-9", "--t", "0"], 2),
        (["jump", "--dt", "20"], 2),
        (["noise", "--f0", "1", "--q", "0", "--noise-to-signal", "0.1", "--tau", "1"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--term-stop", "0"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--max-matsubara", "0"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--tc", "-1"], 2),
        (["pressure", "--ideal", "--d", "-1", "--area", "1"], 2),
        (["pressure", "--ideal-zero-t", "--d", "0"], 2),
        (["jump", "--dt", "0", "--f0", "-5", *LOOSE], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--config", "{sc}"], 3),
        (["jump", "--dt", "0", "--membrane-config", "{membrane}", *LOOSE], 3),
        # a frequency shift that overflows at a subnormal f0
        (["jump", "--f0", "1e-320", *LOOSE], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-300", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-300", "--model", "plasma",
          "--approach", "plasma-plasma", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-149", "--model", "plasma",
          "--approach", "plasma-plasma", "--skip-exponent"], 2),
        (["pressure", "--d", "1e-300", "--t", "10", "--skip-exponent"], 2),
        (["gradient", "--d", "1e-90", "--t", "10"], 2),
        (["gradient", "--d", "1e80", "--t", "10"], 2),
        (["pressure", "--d", "inf", "--t", "10", "--skip-exponent"], 2),
        (["pressure", "--d", "nan", "--t", "10", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "nan", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "inf", "--skip-exponent"], 2),
        # every pressure term is below the absolute tolerance, yet each is
        # still ~30% of the sum
        (["exponent", "--d", "1213e-9", "--t", "1e-4", "--model", "plasma",
          "--approach", "plasma-plasma"], 4),
        (["dynes-fit", "--csv", "{dynes}", "--t", "inf"], 2),
        (["dynes-fit", "--csv", "{dynes}", "--t", "1e308"], 2),
        (["dynes-fit", "--csv", "{dynes}", "--t", "nan"], 2),
        # non-finite record fields, from flags (2) and from files (3)
        (["pressure", "--d", "190e-9", "--t", "10", "--tc", "inf"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--gamma0", "inf"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--rrr", "inf"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--omega", "inf"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--config", "{tc_inf}"], 3),
        (["pressure", "--d", "190e-9", "--t", "10", "--config", "{gamma0_inf}"], 3),
        (["jump", "--dt", "0", "--membrane-config", "{membrane_inf}", *LOOSE], 3),
        (["sweep", "--small", "{sweep}", "--big", "{sweep}", "--window", "13.2", "14.19",
          "--factors-config", "{factors_nan}"], 3),
        (["pressure", "--d", "190e-9", "--t", "10", "--term-stop", "nan"], 2),
        (["generate-sweep", "--out", "{out}", "--slope", "inf"], 3),
        (["generate-sweep", "--out", "{out}", "--tc-step", "nan"], 3),
        # closed-form paths and conflicting modes
        (["pressure", "--ideal", "--d", "nan", "--area", "1"], 2),
        (["pressure", "--ideal-zero-t", "--d", "inf"], 2),
        (["pressure", "--ideal-zero-t", "--d", "1e-90"], 2),
        (["pressure", "--ideal", "--d", "1e-200", "--radius", "1"], 2),
        (["jump", "--dt", "0", "--f0", "nan", *LOOSE], 2),
        (["noise", "--f0", "1", "--q", "1", "--noise-to-signal", "nan", "--tau", "1"], 2),
        (["noise", "--f0", "1", "--q", "inf", "--noise-to-signal", "0.1", "--tau", "1"], 2),
        (["tables", "--flag-above", "nan"], 2),
        (["pressure", "--ideal", "--ideal-zero-t", "--d", "190e-9", "--area", "1"], 2),
        # closed-form forces that underflow
        (["pressure", "--ideal", "--d", "190e-9", "--radius", "1e-300"], 2),
        (["pressure", "--ideal", "--d", "190e-9", "--area", "1e-300"], 2),
        # temperatures below the 1e-300 K floor, which ended in tracebacks
        # or RuntimeWarnings from bcs_g and the condensate fraction
        (["pressure", "--d", "190e-9", "--t", "1e-318", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "5e-324", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "5e-324", "--model", "drude",
          "--approach", "drude-bcs", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-310", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-305", "--skip-exponent"], 2),
        (["pressure", "--d", "190e-9", "--t", "1e-301", "--model", "drude",
          "--approach", "drude-bcs", "--skip-exponent"], 2),
        (["gradient", "--d", "190e-9", "--t", "1e-301"], 2),
        (["gradient", "--d", "190e-9", "--t", "1e-312", "--model", "plasma",
          "--approach", "plasma-plasma"], 2),
        # extreme film parameters
        (["gradient", "--d", "190e-9", "--t", "14.058", "--omega", "1e200"], 2),
        (["gradient", "--d", "190e-9", "--t", "4", "--tc", "1e200"], 2),
        (["gradient", "--d", "1e-3", "--t", "1e300", "--model", "drude"], 2),
        (["gradient", "--d", "190e-9", "--t", "1e306", "--model", "drude"], 2),
        # below the conductance rule's kB T floor, and frequency shifts of either sign
        # that overflow
        (["dynes-fit", "--csv", "{dynes}", "--t", "1e-300"], 2),
        (["jump", "--all", "--f0", "5e-324", *LOOSE], 2),
        (["jump", "--f0", "1e-310", "--approach", "drude-bcs", *LOOSE], 2),
        # a conductance rule whose largest energy squares past the float range
        (["dynes-fit", "--csv", "{dynes}", "--t", "1e157"], 2),
        # closed forms that overflow
        (["pressure", "--ideal", "--d", "1e-75", "--area", "1e300"], 2),
        (["pressure", "--ideal", "--d", "1e-100", "--radius", "1e300"], 2),
        (["noise", "--f0", "1e308", "--q", "1e-308", "--noise-to-signal", "1", "--tau", "1"], 2),
        (["noise", "--f0", "1", "--q", "1", "--noise-to-signal", "1", "--tau", "1e-320"], 2),
        # a baseline that overflows, and a sweep whose omega^2 does
        (["generate-sweep", "--out", "{out}", "--intercept", "1e308", "--slope", "1e308"], 3),
        (["sweep", "--small", "{sweep_huge_f}", "--big", "{sweep}", "--window", "13.2",
          "14.19"], 3),
        # a relaxation energy gamma0 / RRR that underflows to 0, from flags
        # and from a file
        (["pressure", "--d", "190e-9", "--t", "14.0", "--skip-exponent", "--gamma0",
          "1e-300", "--rrr", "1e300"], 2),
        (["pressure", "--d", "190e-9", "--t", "14.0", "--skip-exponent", "--config",
          "{gamma_zero}"], 3),
        # condensate layers so thin that the static TE rule cannot be built
        *[(["pressure", "--d", "190e-9", "--t", "14.0", "--skip-exponent", "--omega",
            omega], 2) for omega in ("1e-300", "1e-302", "1e-305", "1e-320")],
        # a voltage sweep whose f^2 overflows, and a report that cannot be
        # written after the pipeline has run
        (["lcpd-fit", "--csv", "{lcpd_huge_f}"], 3),
        (["sweep", "--small", "{sweep}", "--big", "{sweep}", "--window", "13.2", "14.19",
          "--out", "{out_missing_dir}"], 3),
        # a parabola fit of tiny frequencies whose density overflows to inf
        (["lcpd-fit", "--csv", "{lcpd_inf_rho}"], 3),
        # a negative threshold, which flags every row, and a negative seed
        (["tables", "--flag-above", "-1"], 2),
        (["generate-sweep", "--out", "{out}", "--seed", "-1"], 3),
        # a condensate tanh argument e / 2 t that overflows, or a t that
        # underflows to 0, at a plausible or a large relaxation energy
        *[(["gradient", "--d", "1e-9", "--t", "1e-300", "--gamma0", gamma0, "--model",
            "bcs"], 2) for gamma0 in ("10", "1e5", "1e150")],
        # relaxation energies whose square overflows the pairing kernel: an
        # unchecked number, then overflow warnings, then a ZeroDivisionError
        *[([*command, "--max-matsubara", "64", "--gamma0", gamma0], 2)
          for gamma0 in ("1e154", "1e300", "1e307", "1.7e308")
          for command in (["pressure", "--d", "190e-9", "--t", "4"], ["jump"])],
        # xi and the relaxation energy both so small that the pairing
        # kernel's denominator underflows
        (["gradient", "--d", "1e-9", "--t", "1e-300", "--gamma0", "1e-100", "--model",
          "bcs"], 2),
        # a condensate layer so large that the square in the static TE
        # coefficient overflowed, before the Matsubara terms overflow
        (["gradient", "--d", "1e20", "--t", "4", "--omega", "1e150"], 2),
        (["jump", "--d", "1e3", "--omega", "1e150"], 2),
        # a gap and xi whose product underflows: the pairing kernel's
        # first panel would be [0, 0]
        *[([command, "--d", "190e-9", "--t", "1e-300", "--tc", "1e-20"], 2)
          for command in ("gradient", "pressure", "exponent")],
        # a stopping ratio of 1 or more, which marks every term small; the
        # largest overflowed rel * |total| with a warning
        *[(["gradient", "--d", "190e-9", "--t", "4", "--term-stop", rel], 2)
          for rel in ("1", "2", "1.7e308")],
    ])
    def test_rejected_value_exits_without_traceback(self, runner, tmp_path, args, code):
        from test_analysis import DYNES_REF, synthetic_conductance
        membrane_keys = "h_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n"
        files = {
            "sc": "Omega_eV = -1\n",
            "membrane": "L_m = -1\n" + membrane_keys,
            "dynes": "V_volt,G_arb\n" + "".join(
                f"{float(v)!r},{float(g)!r}\n" for v, g in synthetic_conductance(DYNES_REF)),
            "tc_inf": "Tc_K = inf\n",
            "gamma0_inf": "gamma0_eV = inf\n",
            "membrane_inf": "L_m = inf\n" + membrane_keys,
            "factors_nan": "force_per_w2_N = nan\npressure_per_w2_Pa = 1.55e-9\n"
                           "deflection_per_w2_m = 6.28e-19\nbasis = linear-squared\n",
            "sweep": "T_K,f_Hz\n" + "".join(f"{13.0 + 0.1 * i!r},{352800.0 - 10.0 * i!r}\n"
                                             for i in range(20)),
            "sweep_huge_f": "T_K,f_Hz\n" + "".join(
                f"{13.0 + 0.1 * i!r},{1e200 if i == 5 else 352800.0 - 10.0 * i!r}\n"
                for i in range(20)),
            "gamma_zero": "gamma0_eV = 1e-300\nRRR = 1e300\n",
            "lcpd_huge_f": "V_volt,f_Hz\n" + "".join(
                f"{0.25 * i - 1.0!r},{1e200 if i == 3 else 352800.0 - 100.0 * i * i!r}\n"
                for i in range(9)),
            "lcpd_inf_rho": "V_volt,f_Hz\n" + "".join(
                f"{0.25 * i - 1.0!r},{1e-152 * (352800.0 - 100.0 * (i - 4) ** 2)!r}\n"
                for i in range(9)),
        }
        paths = {"out": tmp_path / "out.csv",
                 "out_missing_dir": tmp_path / "missing" / "report.csv"}
        for name, text in files.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text)
        args = [arg.format(**paths) for arg in args]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args)
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""

    # LAPACK's Fortran I/O writes to file descriptor 1, past CliRunner, so these
    # inputs, which once printed warnings or LAPACK messages, run in a process
    @pytest.mark.parametrize("args, code", [
        (["gradient", "--d", "190e-9", "--t", "4", "--term-stop", "1.7e308"], 2),
        # one voltage of 1e155 to 1e200 of 51, whose square overflowed in polyfit
        *[(["lcpd-fit", "--csv", f"{{lcpd_{v}}}"], 3) for v in ("1e155", "1e170", "1e200")],
        # every frequency times 1e-200, whose square reads 0: no parabola was found
        (["lcpd-fit", "--csv", "{lcpd_tiny_f}"], 3),
        # every bias times 1e-200, so that the starting gap squared underflows
        (["dynes-fit", "--csv", "{dynes_tiny_v}", "--t", "4.6"], 3),
        # one conductance of 2e199, whose squared residual overflowed in scipy's cost
        *[(["dynes-fit", "--csv", f"{{dynes_huge_g_{i}}}", "--t", "4.6"], 3)
          for i in (10, 16, 22)],
        # an outer conductance below 0, below the solver's bound on A
        (["dynes-fit", "--csv", "{dynes_negative_outer}", "--t", "4.6"], 3),
        # biases past the conductance rule's range: every bias times 1e200, whose starting
        # gap squared overflowed and whose refusal blamed T, and one bias of 1.7e308
        *[(["dynes-fit", "--csv", f"{{{name}}}", "--t", "4.6"], 3)
          for name in ("dynes_huge_v", "dynes_max_v_at_21")],
        # G times 1e-100 with one G of 1e300, whose G / 2^k overflowed in ldexp
        (["dynes-fit", "--csv", "{dynes_huge_g_scaled}", "--t", "4.6"], 3),
        # biases times 1e-100 but one of 0.0013 V, and one G of 1e300: scipy moves the
        # start inside the bounds, so its first call missed the start check, and the
        # command warned four times and printed a fit
        (["dynes-fit", "--csv", "{dynes_moved_start}", "--t", "4.6"], 3),
        # a small-gap sweep with a last T of 1e300 and one f times 1e-200, whose baseline
        # residual overflowed with a warning, against a clean big-gap sweep (which then
        # refused the point outside its support) and one that ends at 1e300 K too (which
        # printed an infinite jump and exited 0); and one with a T of 1.7e308, which
        # TestGeneratedInputs found warning the same way
        *[(["sweep", "--small", f"{{{small}}}", "--big", f"{{{big}}}", "--window", "13.2",
            "14.19"], 3) for small, big in (("sweep_small_1e300", "sweep_big"),
                                            ("sweep_small_1e300", "sweep_big_1e300"),
                                            ("sweep_small_max_t", "sweep_big"))],
        # a membrane and a factor near the float limit, whose gradient and converted
        # differential overflowed with a warning, and which printed inf and exited 0
        (["sweep", "--small", "{sweep_small}", "--big", "{sweep_big}", "--window", "13.2",
          "14.19", "--membrane-config", "{membrane_h_1e300}"], 3),
        (["sweep", "--small", "{sweep_small}", "--big", "{sweep_big}", "--window", "13.2",
          "14.19", "--factors-config", "{factors_force_max}"], 3),
        # a frequency shift past the float range at a subnormal f0, which printed -inf Hz
        (["jump", "--f0", "1e-320", *LOOSE], 2),
    ], ids=["term-stop", "lcpd-fit-1e155", "lcpd-fit-1e170", "lcpd-fit-1e200",
            "lcpd-fit-f-times-1e-200", "dynes-fit",
            "dynes-fit-2e199-at-10", "dynes-fit-2e199-at-16", "dynes-fit-2e199-at-22",
            "dynes-fit-negative-outer", "dynes-fit-v-times-1e200", "dynes-fit-1.7e308-at-21",
            "dynes-fit-g-1e300-among-1e-100", "dynes-fit-inf-squares-off-start",
            "sweep-t-1e300", "sweep-t-1e300-both", "sweep-t-1.7e308",
            "sweep-h-1e300", "sweep-force-1.7e308", "jump-f0-1e-320"])
    def test_rejected_input_in_a_process_prints_one_error(self, tmp_path, args, code):
        from test_analysis import DYNES_REF, synthetic_conductance
        m = small_gap_membrane()
        curvature = CONSTANTS.eps0 / (4 * math.pi ** 2 * m.rho * m.h * m.d ** 3)
        voltages = np.linspace(-0.75, 1.25, 51).tolist()
        f = [math.sqrt(fundamental_frequency(m) ** 2 - curvature * (v - 0.2572) ** 2)
             for v in voltages]
        curve = [(float(v), float(g)) for v, g in synthetic_conductance(DYNES_REF)]
        dynes = {"dynes_tiny_v": [(v * 1e-200, g) for v, g in curve],
                 "dynes_negative_outer": [(v, g - 1.1) for v, g in curve],
                 **{f"dynes_huge_g_{i}": [(v, 2e199 if j == i else g)
                                          for j, (v, g) in enumerate(curve)]
                    for i in (10, 16, 22)},
                 "dynes_huge_v": [(v * 1e200, g) for v, g in curve],
                 "dynes_max_v_at_21": [(1.7e308 if j == 21 else v, g)
                                       for j, (v, g) in enumerate(curve)],
                 "dynes_huge_g_scaled": [(v, 1e300 if j == 24 else g * 1e-100)
                                         for j, (v, g) in enumerate(curve)],
                 "dynes_moved_start": [(0.0013 if j == 18 else v * 1e-100,
                                        1e300 if j == 15 else g)
                                       for j, (v, g) in enumerate(curve)]}
        paths = {}
        for name, points in dynes.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("V_volt,G_arb\n" + "".join(f"{v!r},{g!r}\n"
                                                               for v, g in points))
        for v_huge in ("1e155", "1e170", "1e200"):
            paths[f"lcpd_{v_huge}"] = tmp_path / f"lcpd_{v_huge}.csv"
            paths[f"lcpd_{v_huge}"].write_text("V_volt,f_Hz\n" + "".join(
                f"{v_huge if i == 10 else repr(v)},{fv!r}\n"
                for i, (v, fv) in enumerate(zip(voltages, f))))
        paths["lcpd_tiny_f"] = tmp_path / "lcpd_tiny_f.csv"
        paths["lcpd_tiny_f"].write_text("V_volt,f_Hz\n" + "".join(
            f"{v!r},{fv * 1e-200!r}\n" for v, fv in zip(voltages, f)))
        for name, options in (("sweep_small", ["--jump-gradient", "12.1e3"]),
                              ("sweep_big", ["--membrane", "big", "--slope", "-2.6e7",
                                             "--seed", "5"])):
            paths[name] = tmp_path / f"{name}.csv"
            result = CliRunner().invoke(main, ["generate-sweep", "--out", str(paths[name]),
                                               "--noise-f", "0.0047", *options])
            assert result.exit_code == 0
        # copies of the sweeps with cells, by (row, column), set to a value or scaled
        for name, source, cells in (
                ("sweep_small_1e300", "sweep_small", {(-1, 0): "1e300", (4, 1): 1e-200}),
                ("sweep_big_1e300", "sweep_big", {(-1, 0): "1e300"}),
                ("sweep_small_max_t", "sweep_small", {(1, 0): "1.7e308"})):
            rows = [line.split(",") for line in paths[source].read_text().splitlines()]
            for (i, j), edit in cells.items():
                rows[i][j] = edited(rows[i][j], edit)
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("".join(",".join(row) + "\n" for row in rows))
        for name, text in (
                ("membrane_h_1e300", "".join(f"{key} = {'1e300' if key == 'h_m' else value}\n"
                                             for key, value in config_items(m))),
                ("factors_force_max", "force_per_w2_N = 1.7e308\npressure_per_w2_Pa = 1.55e-9\n"
                                      "deflection_per_w2_m = 6.28e-19\nbasis = linear-squared\n")):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text(text)
        src = Path(sccasimir.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-m", "sccasimir.cli",
                                 *[arg.format(**paths) for arg in args]],
                                cwd=src, capture_output=True, text=True, timeout=60)
        assert result.returncode == code
        assert result.stdout == ""
        assert "Warning" not in result.stderr
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1

    def test_conductance_near_the_float_limit_fits_in_a_process(self, tmp_path):
        # G times 1e308, up to 1.3e308: the mean outer conductance is taken in the binary
        # scale of the largest, so numpy's sum neither overflows nor warns
        from test_analysis import DYNES_REF, synthetic_conductance
        from sccasimir.analysis import dynes_fit
        curve = [(float(v), float(g)) for v, g in synthetic_conductance(DYNES_REF)]
        path = tmp_path / "dynes_1e308.csv"
        path.write_text("V_volt,G_arb\n" + "".join(f"{v!r},{g * 1e308!r}\n" for v, g in curve))
        src = Path(sccasimir.__file__).resolve().parent.parent
        result = subprocess.run([sys.executable, "-m", "sccasimir.cli", "dynes-fit", "--csv",
                                 str(path), "--t", "4.6", "--format", "csv"],
                                cwd=src, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        values, unscaled = csv_values(result.stdout), dynes_fit(curve, T=4.6)
        assert values["Delta"] == pytest.approx(unscaled.Delta, rel=1e-9)
        assert values["gamma"] == pytest.approx(unscaled.gamma, rel=1e-9)
        assert values["A"] / 1e308 == pytest.approx(unscaled.A, rel=1e-9)

    @pytest.mark.parametrize("command", [["pressure", "--d", "190e-9", "--t", "4"],
                                         ["jump"]], ids=["pressure", "jump"])
    def test_every_relaxation_energy_gives_a_value_or_one_error(self, runner, command):
        for gamma0 in ("1e-300", "1e-200", "1e-100", "1e-10", "0.465", "1e10", "1e100",
                       "1e150", "1e152", "1e154", "1e155", "1e200", "1e300", "1e307",
                       "1.7e308"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.invoke(main, [*command, "--max-matsubara", "64",
                                              "--gamma0", gamma0])
            assert [str(w.message) for w in caught] == [], gamma0
            assert result.exit_code in (0, 2, 4), gamma0
            assert result.exit_code == 0 or result.stdout == "", gamma0

    @pytest.mark.parametrize("args, message", [
        (["--t", "1e-301"], "temperature must be finite and >= 1e-300 K"),
        (["--t", "1e300", "--model", "drude"], "Matsubara terms overflow at T = 1e+300 K"),
        (["--t", "14.058", "--omega", "1e200"], "Omega must be > 0 with a finite square"),
        (["--t", "4", "--tc", "1e200"], "pairing kernel's products overflow at xi = "),
        # the default film's error, whatever the condensate's relaxation energy
        *[(["--t", "1e-300", "--model", "bcs", "--gamma0", gamma0],
           "Matsubara terms overflow at T = 1e-300 K") for gamma0 in ("10", "1e5", "1e150")],
        (["--t", "1e-300", "--model", "bcs", "--gamma0", "1e-100"],
         "pairing kernel denominator underflows at xi = 5.41e-304 eV, T = 1e-300 K"),
    ], ids=["t-floor", "huge-t", "omega", "huge-gap", "floor-gamma0-10", "floor-gamma0-1e5",
            "floor-gamma0-1e150", "floor-gamma0-1e-100"])
    def test_rejected_value_names_its_cause(self, runner, args, message):
        result = runner.invoke(main, ["gradient", "--d", "1e-3", *args])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {message}")

    # films so clean that the condensate fraction, once the difference of two terms
    # about pi Delta / gamma larger than it, was refused: each prints the values of the
    # clean film gamma0 = 1e-17 eV to the 9 digits of the csv format
    @pytest.mark.parametrize("args", [
        ["pressure", "--d", "190e-9", "--t", "14.0", "--gamma0", "1e-18", "--skip-exponent"],
        ["gradient", "--d", "190e-9", "--t", "14.058", "--rrr", "1e308"],
        ["gradient", "--d", "190e-9", "--t", "14.058", "--gamma0", "1e-150",
         "--term-stop", "1e-4"],
        ["pressure", "--d", "190e-9", "--t", "14.0", "--rrr", "1e140", "--skip-exponent"],
        ["gradient", "--d", "1e-3", "--t", "14.058", "--rrr", "1e308"],
    ], ids=["pressure-gamma0-1e-18", "gradient-rrr-1e308", "gradient-gamma0-1e-150",
            "pressure-rrr-1e140", "gradient-rrr-1e308-at-1mm"])
    def test_ultra_clean_film_prints_the_clean_limit(self, runner, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [*args, "--format", "csv"])
        assert [str(w.message) for w in caught] == []
        assert (result.exit_code, result.stderr) == (0, "")
        clean = runner.invoke(main, [*args, "--format", "csv", "--gamma0", "1e-17", "--rrr", "1"])
        values, expected = csv_values(result.stdout), csv_values(clean.stdout)
        assert values.keys() == expected.keys()
        assert values == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("args, code, message", [
        (["pressure", "--d", "190e-9"], 2,
         "Error: --t is required unless --ideal/--ideal-zero-t"),
        (["generate-sweep", "--out", "{out}", "--jump-dw2", "1", "--jump-gradient", "1"], 2,
         "Error: give at most one of --jump-dw2 / --jump-gradient"),
        (["generate-sweep", "--out", "{out}", "--n-points", "1"], 2,
         "Error: need n_points >= 2 and t_max > t_min"),
        (["sweep", "--small", "{f_negative}", "--big", "{below}", "--window", "13.0", "14.19"],
         3, "error: line 3: f must be > 0, got -5.0"),
        (["sweep", "--small", "{below}", "--big", "{below}", "--window", "13.0", "14.19"],
         3, "error: no differential points above the fit window"),
    ], ids=["pressure-without-t", "two-jumps", "one-point", "sweep-f-negative",
            "sweep-nothing-above-window"])
    def test_refusal_names_its_cause(self, runner, tmp_path, args, code, message):
        # usage errors end click's usage text with their message; the others
        # print one error line
        files = {"f_negative": "T_K,f_Hz\n13.2,352800.0\n13.3,-5.0\n",
                 "below": "T_K,f_Hz\n13.2,352800.0\n13.3,352799.0\n13.4,352798.0\n"}
        paths = {"out": tmp_path / "out.csv"}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        result = runner.invoke(main, [arg.format(**paths) for arg in args])
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == message
        assert not paths["out"].exists()

    @pytest.mark.parametrize("args", [
        ["jump", "--f0", "nan"],
        ["noise", "--f0", "1", "--q", "0", "--noise-to-signal", "0.1", "--tau", "1"],
        ["pressure", "--ideal", "--d", "190e-9", "--radius", "1e-300"],
        ["noise", "--f0", "1e308", "--q", "1e-308", "--noise-to-signal", "1", "--tau", "1"],
    ], ids=["jump-f0", "noise-q", "ideal-force", "noise-overflow"])
    def test_rejected_value_prints_no_header(self, runner, args):
        # the value is checked before the header, and before any sum
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")


class TestPressureCommand:
    def test_ideal_plate_plate(self, runner):
        result = runner.invoke(main, ["pressure", "--ideal", "--d", "190e-9",
                                      "--area", "4.9e-7", "--format", "csv"])
        assert result.exit_code == 0
        assert csv_values(result.output)["ideal_force"] == pytest.approx(
            4.89117e-7, rel=5e-3)

    def test_ideal_zero_t_scaling(self, runner):
        outputs = []
        for d in ("190e-9", "380e-9"):
            result = runner.invoke(main, ["pressure", "--ideal-zero-t", "--d", d,
                                          "--format", "csv"])
            assert result.exit_code == 0
            outputs.append(csv_values(result.output)["ideal_pressure"])
        # CSV renders 9 significant digits
        assert outputs[1] == pytest.approx(outputs[0] / 16.0, rel=1e-8)

    def test_headline_row(self, runner):
        result = runner.invoke(main, [
            "pressure", "--d", "190e-9", "--t", "14.058", "--model", "bcs",
            "--approach", "plasma-bcs", "--skip-exponent", "--format", "csv"])
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert values["pressure"] == pytest.approx(-0.402, rel=5e-2)
        assert values["pressure_gradient"] > 0.0

    def test_vanishing_plasma_energy_leaves_the_static_tm_term(self, runner):
        # the condensate layer's square is subnormal at --omega 1e-160, but the
        # static TE coefficient squares a ratio <= 1 and stays finite; with no
        # other reflection left, the pressure is the universal static TM term
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["pressure", "--d", "190e-9", "--t", "14.0",
                                          "--skip-exponent", "--omega", "1e-160",
                                          "--format", "csv"])
        assert result.exit_code == 0
        p_tm0, _ = classical_terms(190e-9, 14.0)
        assert csv_values(result.output)["pressure"] == pytest.approx(p_tm0, rel=1e-8)

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(main, ["pressure"])
        assert result.exit_code == 2

    def test_ideal_requires_one_geometry(self, runner):
        result = runner.invoke(main, ["pressure", "--ideal", "--d", "190e-9"])
        assert result.exit_code == 2

    def test_convergence_failure_exit_code(self, runner):
        result = runner.invoke(main, ["pressure", "--d", "190e-9", "--t", "14.2",
                                      "--model", "drude", "--max-matsubara", "3",
                                      "--skip-exponent"])
        assert result.exit_code == 4

    # a small gamma0 makes the condensate fraction a small difference of
    # two large terms
    @pytest.mark.parametrize("args", [
        ["--t", "14.19999999"],
        ["--t", "14.19999999", "--gamma0", "1e-10"],
        ["--t", "2.788363636363636", "--gamma0", "1e-6"],
    ], ids=["dirty", "clean-near-tc", "clean-low-t"])
    def test_just_below_transition_is_quiet(self, runner, args):
        # every warning recorded rather than raised, as a user would see it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["pressure", "--d", "190e-9", *args,
                                          "--skip-exponent"])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert [str(w.message) for w in caught] == []

    def test_config_file_and_flag_override(self, runner, tmp_path):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text("Omega_eV = 4.0\ngamma0_eV = 0.3\nTc_K = 10.0\n")
        result = runner.invoke(main, [
            "pressure", "--d", "250e-9", "--t", "60.0", "--model", "drude",
            "--config", str(cfg), "--omega", "5.0", "--skip-exponent",
            "--format", "csv", *FAST])
        assert result.exit_code == 0
        assert "# Omega_eV = 5.0" in result.output      # flag wins
        assert "# gamma0_eV = 0.3" in result.output     # file value kept

    def test_header_reads_back_as_the_film_record(self, runner, tmp_path):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text("c1 = 2.0\ngamma0_eV = 0.3\n")
        for command in (["pressure", "--d", "190e-9", "--t", "10.0", "--skip-exponent"],
                        ["jump", "--dt", "0"]):
            result = runner.invoke(main, [*command, "--config", str(cfg), "--tc", "12.5",
                                          "--format", "csv", *LOOSE])
            assert result.exit_code == 0
            header = tmp_path / "header.cfg"
            header.write_text("".join(line[2:] + "\n"
                                      for line in result.output.splitlines()
                                      if line.startswith("# ")))
            assert from_config(SuperconductorParams, read_config(header)) == \
                SuperconductorParams(gamma0=0.3, Tc=12.5, c1=2.0)

    @pytest.mark.parametrize("args", [
        ["pressure", "--d", "190e-9", "--t", "20.0", "--model", "drude"],
        ["gradient", "--d", "190e-9", "--t", "20.0", "--model", "drude"],
        ["exponent", "--d", "190e-9", "--t", "20.0", "--model", "drude"],
        ["jump", "--dt", "0", "--all"],
    ], ids=["pressure", "gradient", "exponent", "jump"])
    def test_header_keys_are_unique(self, runner, args):
        result = runner.invoke(main, [*args, "--format", "csv", *LOOSE])
        assert result.exit_code == 0
        keys = [line[2:].split(" = ")[0] for line in result.output.splitlines()
                if line.startswith("# ")]
        assert "Tc_K" in keys
        assert len(keys) == len(set(keys))

    def test_config_from_environment(self, runner, tmp_path):
        cfg = tmp_path / "sc.cfg"
        cfg.write_text("Omega_eV = 4.0\n")
        result = runner.invoke(main, [
            "pressure", "--d", "250e-9", "--t", "60.0", "--model", "drude",
            "--skip-exponent", "--format", "csv", *FAST],
            env={"SCCASIMIR_CONFIG": str(cfg)})
        assert result.exit_code == 0
        assert "# Omega_eV = 4.0" in result.output


class TestFormats:
    def test_csv_and_table_carry_identical_numbers(self, runner):
        args = ["noise", "--f0", "352800", "--q", "720000",
                "--noise-to-signal", "0.02150486", "--tau", "0.2"]
        csv_out = runner.invoke(main, args + ["--format", "csv"]).output
        table_out = runner.invoke(main, args + ["--format", "table"]).output
        value = csv_values(csv_out)["frequency_noise"]
        shown = float(table_out.splitlines()[-1].split()[1])
        assert shown == pytest.approx(value, rel=1e-3)
        assert value == pytest.approx(4.7e-3, rel=1e-4)

    def test_byte_determinism(self, runner):
        first = runner.invoke(main, ["tables", "--format", "csv"]).output
        second = runner.invoke(main, ["tables", "--format", "csv"]).output
        assert first == second


class TestTablesCommand:
    def test_reference_rows(self, runner):
        result = runner.invoke(main, ["tables", "--format", "csv"])
        assert result.exit_code == 0
        rows = {line.split(",")[0]: line.split(",")
                for line in result.output.splitlines()
                if line and not line.startswith(("#", "ref", "average", "median"))}
        this_work = float(rows["This work"][4])
        assert this_work == pytest.approx(4.89117e-7, rel=5e-3)
        lamoreaux = float(rows["lamoreaux1997demonstration"][4])
        assert lamoreaux == pytest.approx(1.42528e-9, rel=5e-3)

    def test_no_row_flagged(self, runner):
        result = runner.invoke(main, ["tables", "--format", "csv"])
        assert "SUSPECT" not in result.output
        assert "# rows deviating more than 0.5%: none" in result.output

    def test_table_format_bytes(self, runner):
        # the default rendering, pinned by its stdout SHA-256 and its shape
        result = runner.invoke(main, ["tables"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == \
            "d1b8fa4f1548a5e306f16c1ad642bdbdc83f912f5347962cb7f215260192436e"
        lines = result.stdout.splitlines()
        assert lines[:2] == ["# command = tables", "# flag_above = 0.005"]
        assert [line for line in lines if line.startswith("---")] == [
            "--- plate-plate (average/median exclude This work) ---",
            "--- sphere-plate ---"]
        catalog = [line for line in lines if line.endswith(("  ok", "  SUSPECT"))]
        assert len(catalog) == 35
        assert [line.split()[0] for line in lines
                if line.startswith(("average", "median"))] == ["average", "median"] * 2
        assert lines[-1] == "# rows deviating more than 0.5%: none"
        assert len(lines) == 2 + 2 + 35 + 4 + 1

    def test_plate_average_excluding_this_work(self, runner):
        result = runner.invoke(main, ["tables", "--format", "csv"])
        average = next(line for line in result.output.splitlines()
                       if line.startswith("average"))
        assert float(average.split(",")[4]) == pytest.approx(1.3873e-8, rel=5e-3)


class TestJumpCommand:
    def test_zero_bracket_is_smooth(self, runner):
        result = runner.invoke(main, ["jump", "--dt", "0", "--all",
                                      "--format", "csv", *FAST])
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert values["gradient_jump[plasma-plasma]"] == 0.0
        assert values["gradient_jump[drude-bcs]"] == 0.0
        # a zero jump shifts the frequency by +0, not -0
        shifts = [line for line in result.output.splitlines()
                  if line.startswith("frequency_shift[")]
        assert [line.split(",")[1] for line in shifts] == ["0.00000000e+00"] * 3

    def test_table_ordering_with_all(self, runner):
        result = runner.invoke(main, ["jump", "--dt", "0", "--all",
                                      "--format", "csv", *FAST])
        names = [line.split(",")[0] for line in result.output.splitlines()
                 if line.startswith("gradient_jump")]
        assert names == ["gradient_jump[plasma-bcs]",
                         "gradient_jump[plasma-plasma]",
                         "gradient_jump[drude-bcs]"]

    @pytest.mark.slow
    def test_plasma_bcs_headline(self, runner):
        result = runner.invoke(main, ["jump", "--approach", "plasma-bcs",
                                      "--format", "csv"])
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert values["gradient_jump[plasma-bcs]"] == pytest.approx(6.0e3, rel=0.2)
        assert abs(values["frequency_shift[plasma-bcs]"]) == pytest.approx(
            0.28, rel=0.1)


class TestSweepPipelineCommands:
    def test_generate_then_recover(self, runner, tmp_path):
        small_csv = tmp_path / "small.csv"
        big_csv = tmp_path / "big.csv"
        jump_dw2 = dw2_from_gradient(12.1e3, small_gap_membrane())
        for path, jump in ((small_csv, jump_dw2), (big_csv, 0.0)):
            result = runner.invoke(main, [
                "generate-sweep", "--out", str(path), "--jump-dw2", str(jump),
                "--noise-f", "0", "--seed", "7"])
            assert result.exit_code == 0
        factors = tmp_path / "factors.cfg"
        factors.write_text(
            "force_per_w2_N = 7.83e-16\npressure_per_w2_Pa = 1.55e-9\n"
            "deflection_per_w2_m = 6.28e-19\nbasis = linear-squared\n")
        result = runner.invoke(main, [
            "sweep", "--small", str(small_csv), "--big", str(big_csv),
            "--window", "13.2", "14.19", "--factors-config", str(factors),
            "--format", "csv", "--out", str(tmp_path / "report.csv")])
        assert result.exit_code == 0
        values = csv_values(result.output.split("# wrote")[0])
        assert values["gradient_jump"] == pytest.approx(12.1e3, rel=1e-6)
        assert values["pressure_change"] == pytest.approx(-0.61e-3, abs=0.1e-3)
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0].startswith("T_K,dw2_small,sigma_small,dw2_casimir")
        assert len(report) > 10

    # stdout SHA-256 of the per-row implementation this reduction replaced; the
    # benchmark pins only the report with factors and "add"
    @pytest.mark.parametrize("args, sha", [
        ([], "9a881f019e8e7cb9ba8e2acb631fc6353b8e9a7dcb4b8254ccbb175f7dd773c3"),
        (["--combine", "quadrature", "--factors-config", "factors.cfg"],
         "02125da9334a7faa1f946353a57da105a6a94a0a7fb203bb04324bb20fdb537b"),
    ], ids=["no-factors", "quadrature"])
    def test_report_bytes(self, runner, tmp_path, monkeypatch, args, sha):
        monkeypatch.chdir(tmp_path)  # the header echoes the relative paths
        (tmp_path / "factors.cfg").write_text(
            "force_per_w2_N = 7.83e-16\npressure_per_w2_Pa = 1.55e-9\n"
            "deflection_per_w2_m = 6.28e-19\nbasis = linear-squared\n")
        for name, seed, jump in (("small.csv", 1, ["--jump-gradient", "12.1e3"]),
                                 ("big.csv", 50_001, [])):
            result = runner.invoke(main, ["generate-sweep", "--out", name, "--noise-f",
                                          "0.0047", "--seed", str(seed), *jump])
            assert result.exit_code == 0
        result = runner.invoke(main, ["sweep", "--small", "small.csv", "--big", "big.csv",
                                      "--window", "13.0", "14.19", "--format", "csv", *args])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == sha

    def test_jump_gradient_flag(self, runner, tmp_path):
        path = tmp_path / "s.csv"
        result = runner.invoke(main, [
            "generate-sweep", "--out", str(path), "--jump-gradient", "12.1e3",
            "--noise-f", "0.0047", "--seed", "3"])
        assert result.exit_code == 0
        assert path.read_text().startswith("T_K,f_Hz,sigma_f_Hz")

    def test_empty_big_csv_is_input_error(self, runner, tmp_path):
        small_csv = tmp_path / "small.csv"
        runner.invoke(main, ["generate-sweep", "--out", str(small_csv),
                             "--jump-dw2", "0"])
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = runner.invoke(main, ["sweep", "--small", str(small_csv),
                                      "--big", str(empty),
                                      "--window", "13.2", "14.15"])
        assert result.exit_code == 3
        assert "error:" in result.output

    def test_window_above_transition_is_input_error(self, runner, tmp_path):
        paths = [tmp_path / "small.csv", tmp_path / "big.csv"]
        for path in paths:
            runner.invoke(main, ["generate-sweep", "--out", str(path),
                                 "--jump-dw2", "0"])
        result = runner.invoke(main, ["sweep", "--small", str(paths[0]),
                                      "--big", str(paths[1]),
                                      "--window", "14.3", "14.6"])
        assert result.exit_code == 3
        assert result.output.count("error:") == 1
        assert "transition" in result.output

    @pytest.mark.parametrize("small_rows, big_rows, message", [
        # every fit-window row at one temperature
        ("13.2,352800.0\n13.2,352801.0\n13.2,352799.0\n", None,
         "distinct temperatures"),
        # the big-gap sweep repeats its first temperature
        ("13.2,352800.0\n13.3,352801.0\n13.4,352799.0\n",
         "13.2,352800.0\n13.2,352801.0\n13.3,352799.0\n13.4,352798.0\n",
         "repeats the temperature 13.2 K"),
    ], ids=["one-window-temperature", "repeated-big-gap-temperature"])
    def test_degenerate_temperatures_are_input_errors(self, runner, tmp_path,
                                                      small_rows, big_rows, message):
        above = "14.3,352790.0\n14.4,352780.0\n"
        paths = []
        for name, rows in (("small.csv", small_rows), ("big.csv", big_rows or small_rows)):
            paths.append(tmp_path / name)
            paths[-1].write_text("T_K,f_Hz\n" + rows + above)
        result = runner.invoke(main, ["sweep", "--small", str(paths[0]),
                                      "--big", str(paths[1]),
                                      "--window", "13.0", "13.5"])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1
        assert message in result.stderr

    def test_malformed_row_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T_K,f_Hz\n13.2,352800.0\n13.3,not-a-number\n")
        result = runner.invoke(main, ["sweep", "--small", str(bad),
                                      "--big", str(bad),
                                      "--window", "13.2", "14.15"])
        assert result.exit_code == 3
        assert "line 3" in result.output

    def test_non_finite_field_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T_K,f_Hz\n13.2,352800.0\n13.3,nan\n")
        result = runner.invoke(main, ["sweep", "--small", str(bad),
                                      "--big", str(bad),
                                      "--window", "13.2", "14.15"])
        assert result.exit_code == 3
        assert "line 3" in result.output


class TestFitCommands:
    def test_lcpd_fit(self, runner, tmp_path):
        m = small_gap_membrane()
        f_apex = fundamental_frequency(m)
        curvature = CONSTANTS.eps0 / (4 * math.pi**2 * m.rho * m.h * m.d**3)
        lines = ["V_volt,f_Hz"]
        for v in np.linspace(-0.75, 1.25, 51):
            lines.append(f"{v},{math.sqrt(f_apex**2 - curvature*(v-0.2572)**2)!r}")
        path = tmp_path / "lcpd.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["lcpd-fit", "--csv", str(path),
                                      "--format", "csv"])
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert values["V0"] == pytest.approx(0.2572, abs=1e-6)
        assert values["sigma"] == pytest.approx(677e6, rel=1e-6)
        assert values["rho"] == pytest.approx(4992.0, rel=1e-6)

    @pytest.mark.parametrize("f_huge", [1e100, 1e150, 1e154])
    def test_lcpd_fit_huge_frequency(self, runner, tmp_path, f_huge):
        # one f_Hz whose square is finite but whose fit covariance, O(f^4),
        # would overflow: the fit runs on f^2 scaled by a power of two
        path = tmp_path / "lcpd.csv"
        path.write_text("V_volt,f_Hz\n" + "".join(
            f"{0.25 * i - 1.0!r},{f_huge if i == 3 else 352800.0 - 100.0 * i * i!r}\n"
            for i in range(9)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["lcpd-fit", "--csv", str(path), "--format", "csv"])
        assert [str(w.message) for w in caught] == []
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert all(math.isfinite(value) for value in values.values())
        assert values["rho"] > 0.0 and values["sigma"] > 0.0

    def test_lcpd_bad_header(self, runner, tmp_path):
        path = tmp_path / "lcpd.csv"
        path.write_text("volts,hertz\n0,1\n")
        result = runner.invoke(main, ["lcpd-fit", "--csv", str(path)])
        assert result.exit_code == 3

    def test_lcpd_two_voltages_is_fit_error(self, runner, tmp_path):
        path = tmp_path / "lcpd.csv"
        path.write_text("V_volt,f_Hz\n" + "".join(
            f"{v},{352800 + i}\n" for i, v in enumerate((0.1, 0.2) * 3)))
        result = runner.invoke(main, ["lcpd-fit", "--csv", str(path)])
        assert result.exit_code == 3
        assert result.stderr == ("error: fit failed: need at least 3 distinct "
                                 "voltages, got 2\n")

    def test_dynes_fit_without_convergence_is_fit_error(self, runner, tmp_path,
                                                        monkeypatch):
        # dynes_fit reads its solver from the module when it runs, so a stub that gives up is read
        from types import SimpleNamespace
        from sccasimir import _trf
        from test_analysis import DYNES_REF, synthetic_conductance
        monkeypatch.setattr(_trf, "least_squares", lambda *args, **kwargs:
                            SimpleNamespace(success=False, nfev=400, message="stub gave up"))
        path = tmp_path / "dynes.csv"
        path.write_text("V_volt,G_arb\n" + "".join(
            f"{float(v)!r},{float(g)!r}\n" for v, g in synthetic_conductance(DYNES_REF)))
        result = runner.invoke(main, ["dynes-fit", "--csv", str(path), "--t", "4.6"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == ("error: fit failed: no convergence after 400 "
                                 "evaluations: stub gave up\n")

    @pytest.mark.slow
    def test_dynes_fit(self, runner, tmp_path):
        from test_analysis import DYNES_REF, synthetic_conductance
        lines = ["V_volt,G_arb"]
        for v, g in synthetic_conductance(DYNES_REF):
            lines.append(f"{float(v)!r},{float(g)!r}")
        path = tmp_path / "dynes.csv"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["dynes-fit", "--csv", str(path),
                                      "--t", "4.6", "--format", "csv"])
        assert result.exit_code == 0
        values = csv_values(result.output)
        assert values["Delta"] == pytest.approx(2.6e-3, rel=1e-3)
        assert values["gamma"] == pytest.approx(0.465e-3, rel=1e-2)


# the float values a generated invocation draws: zeros, subnormals, finite extremes,
# non-finite values and a negative one
EDGE_FLOATS = ["0", "-0", "5e-324", "1e-310", "1e-300", "1e-200", "1e200", "1e300",
               "1.7e308", "inf", "-inf", "nan", "-1"]
_FILM_FLOATS = ["--omega", "--gamma0", "--rrr", "--tc"]
_SUM_FLAGS = ["--max-matsubara", "300"]  # every sum stops (or fails) within 300 terms
# each physics command: valid options, then the float options a draw may override
PHYSICS_COMMANDS = {
    "pressure": (["--d", "190e-9", "--t", "4", *_SUM_FLAGS],
                 ["--d", "--t", "--area", "--radius", *_FILM_FLOATS, "--term-stop"]),
    "gradient": (["--d", "190e-9", "--t", "4", *_SUM_FLAGS],
                 ["--d", "--t", *_FILM_FLOATS, "--term-stop"]),
    "exponent": (["--d", "190e-9", "--t", "4", *_SUM_FLAGS],
                 ["--d", "--t", *_FILM_FLOATS, "--term-stop"]),
    "jump": (_SUM_FLAGS, ["--d", "--dt", "--f0", *_FILM_FLOATS, "--term-stop"]),
    "noise": (["--f0", "352800", "--q", "1e5", "--noise-to-signal", "1e-3", "--tau", "1"],
              ["--f0", "--q", "--noise-to-signal", "--tau"]),
}


@st.composite
def physics_invocations(draw):
    """A physics command with 1-3 of its float options set to edge values; click
    keeps the last of a repeated option, so a drawn value overrides the valid one."""
    name = draw(st.sampled_from(sorted(PHYSICS_COMMANDS)))
    valid, floats = PHYSICS_COMMANDS[name]
    flags = draw(st.lists(st.sampled_from(floats), min_size=1, max_size=3, unique=True))
    return [name, *valid, *(arg for flag in flags
                             for arg in (flag, draw(st.sampled_from(EDGE_FLOATS))))]


# the cell edits a generated data file draws: values (zeros, a subnormal, finite extremes
# and a negative one) and factors that scale the cell
DATA_VALUES = ["0", "-0", "1e-310", "1e-300", "1e-200", "1e200", "1e300", "1.7e308", "-1"]
DATA_SCALES = [1e-200, 1e-100, 1e100, 1e200, -1.0]
# each data-file command: its arguments, with the files it reads named in braces
DATA_COMMANDS = {
    "sweep": ["--small", "{small}", "--big", "{big}", "--window", "13.2", "14.19",
              "--membrane-config", "{membrane}", "--factors-config", "{factors}"],
    "lcpd-fit": ["--csv", "{lcpd}"],
    "dynes-fit": ["--csv", "{dynes}", "--t", "4.6"],
}


@pytest.fixture(scope="module")
def clean_data(tmp_path_factory):
    """Clean inputs of the data-file commands, like the benchmark's, as rows of cells
    (header first) by file name, and the directory the generated test writes into."""
    from test_analysis import DYNES_REF, synthetic_conductance
    directory = tmp_path_factory.mktemp("generated")
    for name, options in (("small", ["--jump-gradient", "12.1e3", "--seed", "1"]),
                          ("big", ["--membrane", "big", "--slope", "-2.6e7",
                                   "--seed", "50001"])):
        result = CliRunner().invoke(main, ["generate-sweep", "--out", str(directory / name),
                                           "--noise-f", "0.0047", *options])
        assert result.exit_code == 0
    rows = {name: [line.split(",") for line in (directory / name).read_text().splitlines()]
            for name in ("small", "big")}
    m = small_gap_membrane()
    curvature = CONSTANTS.eps0 / (4 * math.pi ** 2 * m.rho * m.h * m.d ** 3)
    rows["lcpd"] = [["V_volt", "f_Hz"]] + [
        [repr(v), repr(math.sqrt(fundamental_frequency(m) ** 2 - curvature * (v - 0.2572) ** 2))]
        for v in np.linspace(-0.75, 1.25, 51).tolist()]
    rows["dynes"] = [["V_volt", "G_arb"]] + [
        [repr(float(v)), repr(float(g))]
        for v, g in synthetic_conductance(DYNES_REF, noise=0.01, seed=1)]
    # the configuration files as (key, value) rows, the benchmark's factors among them
    rows["membrane"] = [["key", "value"], *map(list, config_items(m))]
    rows["factors"] = [["key", "value"], ["force_per_w2_N", "7.83e-16"],
                       ["pressure_per_w2_Pa", "1.55e-9"], ["deflection_per_w2_m", "6.28e-19"]]
    return rows, directory


# the key = value files of the data commands, each with the lines it keeps undrawn
CONFIG_FILES = {"membrane": "", "factors": "basis = linear-squared\n"}


def edited(cell: str, edit) -> str:
    return edit if isinstance(edit, str) else repr(float(cell) * edit)


def file_text(name: str, rows) -> str:
    if name in CONFIG_FILES:
        return "".join(f"{key} = {value}\n" for key, value in rows[1:]) + CONFIG_FILES[name]
    return "".join(",".join(row) + "\n" for row in rows)


class TestGeneratedInputs:
    # a fixed sequence of examples (derandomize) and no example database, so every run
    # makes the same invocations
    @settings(max_examples=600, derandomize=True, deadline=None, database=None)
    @given(args=physics_invocations())
    def test_physics_command_exits_with_a_documented_code(self, args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert [str(w.message) for w in caught] == []
        assert result.exit_code in (0, 2, 3, 4)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code:
            assert result.stdout == ""

    # each input it finds also runs in a process, as an id of TestMain's subprocess test:
    # LAPACK's Fortran I/O writes past CliRunner
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_data_command_exits_with_a_documented_code(self, clean_data, data):
        # 1-3 cells of a command's clean files set to an edge value or scaled, and in
        # some draws one whole column scaled; of a configuration file, only values.  Or
        # one value of one configuration file set near the float limit, every other file
        # clean, so that the value alone reaches the gradient and the conversion
        clean, directory = clean_data
        name = data.draw(st.sampled_from(sorted(DATA_COMMANDS)), label="command")
        files = [key for key in clean if f"{{{key}}}" in DATA_COMMANDS[name]]
        rows = {key: [row[:] for row in clean[key]] for key in files}
        edit = st.sampled_from(DATA_VALUES) | st.sampled_from(DATA_SCALES)
        configs = [key for key in files if key in CONFIG_FILES]

        def column(key):
            return data.draw(st.integers(int(key in CONFIG_FILES), len(rows[key][0]) - 1),
                             label="column")

        one_value = bool(configs) and data.draw(st.booleans(), label="one configuration value")
        if one_value:
            key = data.draw(st.sampled_from(configs), label="file")
            i = data.draw(st.integers(1, len(rows[key]) - 1), label="row")
            rows[key][i][1] = data.draw(st.sampled_from(["1e300", "1.7e308"]), label="edit")
        else:
            for _ in range(data.draw(st.integers(1, 3), label="cells")):
                key = data.draw(st.sampled_from(files), label="file")
                i, j = data.draw(st.integers(1, len(rows[key]) - 1), label="row"), column(key)
                rows[key][i][j] = edited(rows[key][i][j], data.draw(edit, label="edit"))
            if data.draw(st.booleans(), label="scale a column"):
                key = data.draw(st.sampled_from(files), label="file")
                j = column(key)
                scale = data.draw(st.sampled_from(DATA_SCALES), label="scale")
                for row in rows[key][1:]:
                    row[j] = edited(row[j], scale)
        paths = {key: directory / f"{key}.csv" for key in files}
        for key, path in paths.items():
            path.write_text(file_text(key, rows[key]))
        args = [name, *(arg.format(**paths) for arg in DATA_COMMANDS[name])]
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = CliRunner().invoke(main, args)
        assert time.perf_counter() - start < 5.0
        assert [str(w.message) for w in caught] == []
        assert result.exit_code in (0, 2, 3, 4)
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code:
            assert result.stdout == ""
        elif one_value:  # clean sweeps keep every sigma finite, so nothing prints as inf
            assert not {"inf", "-inf", "nan"} & set(result.stdout.replace(",", " ").split())
