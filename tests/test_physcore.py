import math
import re
from pathlib import Path

import numpy as np
import pytest

from sccasimir.errors import ParseError
from sccasimir.physcore import (
    CONSTANTS,
    Basis,
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    big_gap_membrane,
    config_items,
    from_config,
    matsubara_frequency,
    read_config,
    small_gap_membrane,
)

README = Path(__file__).resolve().parents[1] / "README.md"


class TestConstants:
    def test_hbar_c_product(self):
        assert CONSTANTS.hbar_c_eVm == pytest.approx(
            CONSTANTS.hbar_eVs * CONSTANTS.c, rel=1e-12)

    def test_dual_unit_consistency(self):
        # kB and hbar pairs must describe the same physical constants
        ev_in_joule = CONSTANTS.kB_J / CONSTANTS.kB_eV
        assert CONSTANTS.hbar_Js / CONSTANTS.hbar_eVs == pytest.approx(
            ev_in_joule, rel=1e-8)

    def test_zeta3(self):
        brute = sum(1.0 / n**3 for n in range(1, 200000))
        assert CONSTANTS.zeta3 == pytest.approx(brute, rel=1e-9)

    def test_immutable(self):
        with pytest.raises(Exception):
            CONSTANTS.c = 1.0


class TestMatsubara:
    def test_zero_mode(self):
        assert matsubara_frequency(0, 14.2) == 0.0

    def test_first_mode_value(self):
        # direct evaluation of 2 pi kB T at 14.2 K
        assert matsubara_frequency(1, 14.2) == pytest.approx(7.688e-3, rel=1e-3)
        assert matsubara_frequency(1, 14.2) == pytest.approx(
            2.0 * math.pi * 8.617333262e-5 * 14.2, rel=1e-15)

    def test_linearity_in_index(self):
        base = matsubara_frequency(1, 14.2)
        assert matsubara_frequency(2, 14.2) == pytest.approx(2 * base, rel=1e-15)
        for l in (3, 7, 50, 1234):
            assert matsubara_frequency(l, 14.2) == pytest.approx(l * base, rel=1e-14)

    def test_linearity_in_temperature(self):
        assert matsubara_frequency(5, 28.4) == pytest.approx(
            2 * matsubara_frequency(5, 14.2), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            matsubara_frequency(1, 0.0)
        with pytest.raises(ValueError):
            matsubara_frequency(1, -3.0)
        with pytest.raises(ValueError):
            matsubara_frequency(-1, 10.0)
        with pytest.raises(ValueError, match="got -1"):
            matsubara_frequency(np.array([2, -1, 3]), 10.0)

    @pytest.mark.parametrize("T", [1e-3, 14.2, 60.0])
    def test_array_equals_scalar_calls(self, T):
        ls = np.concatenate([np.arange(0, 40), [1234, 99_999, 500_000]])
        got = matsubara_frequency(ls, T)
        want = np.array([matsubara_frequency(int(l), T) for l in ls])
        assert got.shape == ls.shape
        assert got.tobytes() == want.tobytes()
        assert type(matsubara_frequency(np.int64(3), T)) is float


class TestSuperconductorParams:
    def test_defaults(self):
        p = SuperconductorParams()
        assert p.Omega == 5.33
        # dirty-film transport relaxation; the meV scale is the tunneling
        # broadening, not the optical one
        assert p.gamma0 == 0.465
        assert p.RRR == 1.0
        assert p.Tc == 14.2
        assert (p.c1, p.c2, p.c3) == (1.764, 0.9963, 0.7735)

    def test_effective_gamma(self):
        assert SuperconductorParams(RRR=4.0).gamma == pytest.approx(0.465 / 4.0)

    @pytest.mark.parametrize("kwargs", [
        {"Omega": 0.0}, {"Omega": -1.0}, {"gamma0": 0.0}, {"RRR": 0.5},
        {"Tc": -1.0}, {"Omega": 1.4e154}, {"Omega": 1e200}, {"gamma0": 1.1e150},
        {"gamma0": 1.7e308},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SuperconductorParams(**kwargs)

    def test_omega_with_a_finite_square_is_accepted(self):
        # the permittivity squares Omega; 1.3e154 squared is still finite
        assert SuperconductorParams(Omega=1.3e154).Omega == 1.3e154

    def test_relaxation_energy_up_to_1e150_is_accepted(self):
        # the pairing kernel's gamma**2 times its cut-off energy stays finite
        assert SuperconductorParams(gamma0=1e150).gamma == 1e150


class TestMembraneSpec:
    def test_canonical_small(self, small_gap):
        assert small_gap.d == 190e-9
        assert small_gap.sigma == 677e6
        assert small_gap.rho == 4992.0
        assert small_gap.L == 709e-6
        assert small_gap.h == 155e-9

    def test_canonical_big(self, big_gap):
        assert big_gap.d == 1213e-9
        assert big_gap.sigma == 683e6
        assert big_gap.rho == 5332.0

    def test_areal_density(self, small_gap):
        assert small_gap.areal_density == pytest.approx(7.7376e-4, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"L": 0.0}, {"h": -1e-9}, {"d": 0.0}, {"sigma": -1.0}, {"rho": 0.0},
        {"Y_ratio": 0.0}, {"Y_ratio": 1.2},
    ])
    def test_validation(self, kwargs, small_gap):
        base = dict(L=small_gap.L, h=small_gap.h, d=small_gap.d,
                    sigma=small_gap.sigma, rho=small_gap.rho)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MembraneSpec(**base)


def _write_config(record, path):
    """Write a record as a flat file, one ``key = value`` line per item."""
    path.write_text("".join(f"{key} = {text}\n" for key, text in config_items(record)),
                    encoding="utf-8")


class TestConfigFiles:
    def test_membrane_round_trip_bit_exact(self, tmp_path):
        for spec in (small_gap_membrane(), big_gap_membrane()):
            path = tmp_path / "membrane.cfg"
            _write_config(spec, path)
            assert from_config(MembraneSpec, read_config(path)) == spec

    def test_membrane_area_ratio_line_is_ignored(self, tmp_path):
        # area_ratio is no longer a key; a file that still has it parses
        path = tmp_path / "membrane.cfg"
        _write_config(small_gap_membrane(), path)
        plain = from_config(MembraneSpec, read_config(path))
        path.write_text(path.read_text() + "area_ratio = 0.5\n")
        assert from_config(MembraneSpec, read_config(path)) == plain

    def test_membrane_elastic_constant_lines_are_ignored(self, tmp_path):
        # E_Pa and nu are no longer keys; a file that still has them parses
        path = tmp_path / "membrane.cfg"
        _write_config(small_gap_membrane(), path)
        plain = from_config(MembraneSpec, read_config(path))
        path.write_text(path.read_text() + "E_Pa = 1e9\nnu = 0.9\n")
        assert from_config(MembraneSpec, read_config(path)) == plain

    def test_superconductor_round_trip(self, tmp_path):
        p = SuperconductorParams(Omega=4.0, gamma0=1e-2, RRR=3.0, Tc=9.2)
        path = tmp_path / "sc.cfg"
        _write_config(p, path)
        assert from_config(SuperconductorParams, read_config(path)) == p

    def test_conversion_round_trip(self, tmp_path):
        f = ConversionFactors(force_per_w2=7.83e-16, pressure_per_w2=1.55e-9,
                              deflection_per_w2=6.28e-19, basis=Basis.LINEAR_SQUARED)
        path = tmp_path / "factors.cfg"
        _write_config(f, path)
        assert from_config(ConversionFactors, read_config(path)) == f

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nTc_K = 9.2  # inline\nOmega_eV = 4.0\n")
        p = from_config(SuperconductorParams, read_config(path))
        assert p.Tc == 9.2 and p.Omega == 4.0

    @pytest.mark.parametrize("text, cls, message", [
        ("Omega_eV = -1\n", SuperconductorParams, "must be > 0"),
        ("L_m = -1\nh_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n",
         MembraneSpec, "must be > 0"),
        ("Tc_K = inf\n", SuperconductorParams, "Tc must be finite"),
        ("gamma0_eV = inf\n", SuperconductorParams, "gamma0 must be finite"),
        ("c1 = nan\n", SuperconductorParams, "c1 must be finite"),
        ("L_m = inf\nh_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n",
         MembraneSpec, "L must be finite"),
        ("force_per_w2_N = nan\npressure_per_w2_Pa = 1e-9\n"
         "deflection_per_w2_m = 1e-19\nbasis = linear-squared\n",
         ConversionFactors, "force_per_w2 must be finite"),
        # the message names the file key of the field the record rejects
        ("Omega_eV = -1\n", SuperconductorParams, "^key 'Omega_eV': Omega must be > 0"),
        ("L_m = -1\nh_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n",
         MembraneSpec, "^key 'L_m': L must be > 0$"),
        # a rule on two keys names neither
        ("gamma0_eV = 1e-300\nRRR = 1e300\n", SuperconductorParams,
         "^gamma0 / RRR must be > 0"),
    ], ids=["superconductor", "membrane", "Tc-inf", "gamma0-inf", "c1-nan", "L-inf",
            "force-nan", "superconductor-key", "membrane-key", "two-key-rule"])
    def test_rejected_record_value_is_parse_error(self, tmp_path, text, cls, message):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            from_config(cls, read_config(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("Tc_K = 9.2\nnot a pair\n")
        with pytest.raises(ParseError) as err:
            read_config(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("line", ["= 4.0", "Tc_K ="], ids=["key", "value"])
    def test_empty_key_or_value_carries_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"Tc_K = 9.2\n{line}\n")
        with pytest.raises(ParseError, match=f"^line 2: empty key or value in '{line}'$"):
            read_config(path)

    def test_unknown_record_type_is_not_serialized(self):
        with pytest.raises(TypeError, match="^cannot serialize Constants$"):
            config_items(CONSTANTS)

    def test_basis_is_mandatory(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("force_per_w2_N = 1e-15\npressure_per_w2_Pa = 1e-9\n"
                        "deflection_per_w2_m = 1e-19\n")
        with pytest.raises(ParseError):
            from_config(ConversionFactors, read_config(path))

    def test_basis_must_be_enum(self):
        with pytest.raises(ValueError):
            ConversionFactors(1.0, 1.0, 1.0, basis="angular-squared")

    def test_readme_combined_file_builds_every_record(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "all.cfg"
        path.write_text(block)
        config = read_config(path)
        assert from_config(SuperconductorParams, config) == SuperconductorParams()
        assert from_config(MembraneSpec, config) == MembraneSpec(
            L=709e-6, h=155e-9, d=190e-9, sigma=677e6, rho=4992.0)
        assert from_config(ConversionFactors, config) == ConversionFactors(
            7.83e-16, 1.55e-9, 6.28e-19, Basis.LINEAR_SQUARED)

    @pytest.mark.parametrize("text, cls, key", [
        ("h_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n",
         MembraneSpec, "L_m"),
        ("force_per_w2_N = 1e-15\npressure_per_w2_Pa = 1e-9\n"
         "deflection_per_w2_m = 1e-19\n", ConversionFactors, "basis"),
    ], ids=["L_m", "basis"])
    def test_missing_required_key_names_file_key(self, tmp_path, text, cls, key):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match=f"missing key '{key}'"):
            from_config(cls, read_config(path))

    def test_file_without_film_keys_gives_defaults(self):
        assert from_config(SuperconductorParams, {"L_m": "1e-3"}) == SuperconductorParams()

    def test_unknown_basis_names_file_key(self):
        config = {"force_per_w2_N": "1", "pressure_per_w2_Pa": "1",
                  "deflection_per_w2_m": "1", "basis": "radians"}
        with pytest.raises(ParseError, match="key 'basis' is not one of"):
            from_config(ConversionFactors, config)
