import math

import pytest

from sccasimir.errors import ParseError
from sccasimir.physcore import (
    CONSTANTS,
    Basis,
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    big_gap_membrane,
    conversion_from_config,
    matsubara_frequency,
    membrane_from_config,
    read_config,
    small_gap_membrane,
    superconductor_from_config,
    write_config,
)


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
        {"Tc": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SuperconductorParams(**kwargs)


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
        {"Y_ratio": 0.0}, {"Y_ratio": 1.2}, {"area_ratio": 1.5},
    ])
    def test_validation(self, kwargs, small_gap):
        base = dict(L=small_gap.L, h=small_gap.h, d=small_gap.d,
                    sigma=small_gap.sigma, rho=small_gap.rho)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MembraneSpec(**base)


class TestConfigFiles:
    def test_membrane_round_trip_bit_exact(self, tmp_path):
        for spec in (small_gap_membrane(), big_gap_membrane()):
            path = tmp_path / "membrane.cfg"
            write_config(spec, path)
            assert membrane_from_config(read_config(path)) == spec

    def test_superconductor_round_trip(self, tmp_path):
        p = SuperconductorParams(Omega=4.0, gamma0=1e-2, RRR=3.0, Tc=9.2)
        path = tmp_path / "sc.cfg"
        write_config(p, path)
        assert superconductor_from_config(read_config(path)) == p

    def test_conversion_round_trip(self, tmp_path):
        f = ConversionFactors(force_per_w2=7.83e-16, pressure_per_w2=1.55e-9,
                              deflection_per_w2=6.28e-19, basis=Basis.LINEAR_SQUARED)
        path = tmp_path / "factors.cfg"
        write_config(f, path)
        assert conversion_from_config(read_config(path)) == f

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# header\n\nTc_K = 9.2  # inline\nOmega_eV = 4.0\n")
        p = superconductor_from_config(read_config(path))
        assert p.Tc == 9.2 and p.Omega == 4.0

    @pytest.mark.parametrize("text, from_config", [
        ("Omega_eV = -1\n", superconductor_from_config),
        ("L_m = -1\nh_m = 155e-9\nd_m = 190e-9\nsigma_Pa = 677e6\nrho_kgm3 = 4992\n",
         membrane_from_config),
    ], ids=["superconductor", "membrane"])
    def test_rejected_record_value_is_parse_error(self, tmp_path, text, from_config):
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ParseError, match="must be > 0"):
            from_config(read_config(path))

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("Tc_K = 9.2\nnot a pair\n")
        with pytest.raises(ParseError) as err:
            read_config(path)
        assert err.value.line == 2

    def test_basis_is_mandatory(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("force_per_w2_N = 1e-15\npressure_per_w2_Pa = 1e-9\n"
                        "deflection_per_w2_m = 1e-19\n")
        with pytest.raises(ParseError):
            conversion_from_config(read_config(path))

    def test_basis_must_be_enum(self):
        with pytest.raises(ValueError):
            ConversionFactors(1.0, 1.0, 1.0, basis="angular-squared")
