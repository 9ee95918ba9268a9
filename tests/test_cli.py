import math

import numpy as np
import pytest
from click.testing import CliRunner

from sccasimir import __version__
from sccasimir.cli import main
from sccasimir.membrane import dw2_from_gradient, fundamental_frequency
from sccasimir.physcore import CONSTANTS, small_gap_membrane


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


FAST = ["--rel-tol", "1e-7", "--term-stop", "1e-8"]
LOOSE = ["--rel-tol", "1e-4", "--term-stop", "1e-4"]


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
        (["pressure", "--d", "190e-9", "--t", "10", "--rel-tol", "0"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--max-matsubara", "0"], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--tc", "-1"], 2),
        (["pressure", "--ideal", "--d", "-1", "--area", "1"], 2),
        (["pressure", "--ideal-zero-t", "--d", "0"], 2),
        (["jump", "--dt", "0", "--f0", "-5", *LOOSE], 2),
        (["pressure", "--d", "190e-9", "--t", "10", "--config", "{sc}"], 3),
        (["jump", "--dt", "0", "--membrane-config", "{membrane}", *LOOSE], 3),
    ])
    def test_rejected_value_exits_without_traceback(self, runner, tmp_path, args, code):
        sc = tmp_path / "sc.cfg"
        sc.write_text("Omega_eV = -1\n")
        membrane_cfg = tmp_path / "membrane.cfg"
        membrane_cfg.write_text("L_m = -1\nh_m = 155e-9\nd_m = 190e-9\n"
                                "sigma_Pa = 677e6\nrho_kgm3 = 4992\n")
        args = [arg.format(sc=sc, membrane=membrane_cfg) for arg in args]
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ")
        assert len(result.stderr.splitlines()) == 1


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

    def test_malformed_row_reports_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("T_K,f_Hz\n13.2,352800.0\n13.3,not-a-number\n")
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

    def test_lcpd_bad_header(self, runner, tmp_path):
        path = tmp_path / "lcpd.csv"
        path.write_text("volts,hertz\n0,1\n")
        result = runner.invoke(main, ["lcpd-fit", "--csv", str(path)])
        assert result.exit_code == 3

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
