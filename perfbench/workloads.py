"""The four benchmark workloads, as lists of reference-checked operations.

Building a workload is its set-up: inputs are generated here, outside the
timed region.  Every operation calls the package through module attributes
looked up at call time, so the traced run's wrappers see the calls.  The
physics points are fixed; the seed only picks which noise realizations the
``pipeline`` workload uses, from pools whose outputs are all frozen in
``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

from sccasimir import analysis, cli, lifshitz, membrane, permittivity, physcore

WORKLOADS = ("jump_all", "temperature_scan", "normal_state", "pipeline")

SIG4 = "4sig"    # equal when printed to 4 significant digits
EXACT = "exact"  # equal


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` returns a record of named values; the fields
    in ``checked`` are compared with the reference entry under ``key``."""

    key: str
    run: Callable[[], dict]
    checked: tuple[str, ...] = ("value",)
    tol: float | str = 1e-6
    # closed-form reference entry, used instead of the frozen seed output
    expected: Callable[[], dict] | None = None


def check(op: Op, record: dict, reference: dict) -> list[str]:
    """Reasons the record misses its reference; empty when it passes."""
    entry = reference.get(op.key) if op.expected is None else op.expected()
    if entry is None:
        return [f"{op.key}: no reference entry"]
    failures = []
    for name in op.checked:
        got, want = record.get(name), entry.get(name)
        if op.tol == EXACT:
            ok = got == want
        elif got is None or want is None:
            ok = False
        elif op.tol == SIG4:
            ok = f"{got:.4g}" == f"{want:.4g}"
        else:
            ok = abs(got - want) <= op.tol * abs(want)
        if not ok:
            failures.append(f"{op.key}.{name}: got {got!r}, reference {want!r}")
    return failures


def _detail(d) -> dict:
    return {"value": d.value, "n_terms": d.n_terms,
            "truncation_bound": d.truncation_bound}


def _pressure(spec) -> dict:
    return _detail(lifshitz.casimir_pressure_detail(spec))


def _gradient(spec) -> dict:
    return _detail(lifshitz.casimir_pressure_gradient_detail(spec))


def _nm(d: float) -> str:
    return f"{d * 1e9:.6g}nm"


# --- jump_all: `sccasimir jump --all` ---------------------------------------

_APPROACHES = (lifshitz.ZeroFreqApproach.PLASMA_BCS,
               lifshitz.ZeroFreqApproach.PLASMA_PLASMA,
               lifshitz.ZeroFreqApproach.DRUDE_BCS)


def _jump_op(d: float, approach) -> Op:
    params = physcore.SuperconductorParams()
    spec_m = physcore.small_gap_membrane()
    f0 = membrane.fundamental_frequency(spec_m)

    def run():
        value = lifshitz.tc_jump(d, params.Tc, 0.1, approach, params)
        return {"value": value, "frequency_shift_hz":
                membrane.predicted_frequency_jump(value, spec_m, f0)}
    return Op(f"tc_jump[{approach.value},d={_nm(d)}]", run,
              ("value", "frequency_shift_hz"), SIG4)


def jump_all(seed: int, tiny: bool) -> list[Op]:
    if tiny:
        # 2 um needs few Matsubara terms, so the kernel stays cheap
        return [_jump_op(2e-6, lifshitz.ZeroFreqApproach.DRUDE_BCS)]
    return [_jump_op(190e-9, ap) for ap in _APPROACHES]


# --- temperature_scan: big-gap device approaching Tc ------------------------

_SCAN_D = 1213e-9
_SCAN_BCS_T = (13.2, 13.45, 13.7, 13.95, 14.19)
_SCAN_DRUDE_T = (14.3, 14.6)


def temperature_scan(seed: int, tiny: bool) -> list[Op]:
    params = physcore.SuperconductorParams()
    ops = []
    for T in _SCAN_BCS_T:
        spec = lifshitz.LifshitzSpec(d=_SCAN_D, T=T, model=permittivity.bcs(params))
        ops.append(Op(f"gradient[bcs,T={T},d={_nm(_SCAN_D)}]",
                      lambda spec=spec: _gradient(spec)))
        ops.append(Op(f"local_exponent[bcs,T={T},d={_nm(_SCAN_D)}]",
                      lambda spec=spec: {"value": lifshitz.local_exponent(spec)}))
    for T in _SCAN_DRUDE_T:
        spec = lifshitz.LifshitzSpec(d=_SCAN_D, T=T, model=permittivity.drude(params))
        ops.append(Op(f"gradient[drude,T={T},d={_nm(_SCAN_D)}]",
                      lambda spec=spec: _gradient(spec)))
    return ops[-1:] if tiny else ops


# --- normal_state: long sums without the pairing kernel ---------------------

_GRID_D = (120e-9, 190e-9, 300e-9, 420e-9, 500e-9)
_GRID_T = (25.0, 60.0)


def _ideal_pressure(d: float) -> float:
    hbar_c = physcore.CONSTANTS.hbar_Js * physcore.CONSTANTS.c
    return -math.pi ** 2 * hbar_c / (240.0 * d ** 4)


def normal_state(seed: int, tiny: bool) -> list[Op]:
    params = physcore.SuperconductorParams()
    pp = lifshitz.ZeroFreqApproach.PLASMA_PLASMA
    ops = []
    grid = []
    for d in _GRID_D:
        for T in _GRID_T:
            spec = lifshitz.LifshitzSpec(d=d, T=T, model=permittivity.drude(params))
            grid.append(Op(f"gradient[drude,T={T},d={_nm(d)}]",
                           lambda spec=spec: _gradient(spec)))
            for step in (1.001, 0.999):
                shifted = replace(spec, d=d * step)
                grid.append(Op(f"pressure[drude,T={T},d={_nm(d * step)}]",
                               lambda spec=shifted: _pressure(spec)))
    if tiny:
        return grid[-3:-2]
    # criterion 6: judged against the ideal conductor, not its seed value,
    # which is off by about 400x the truncation bound it reports
    ideal_spec = lifshitz.LifshitzSpec(
        d=500e-9, T=0.1, model=permittivity.plasma(replace(params, Omega=1e4)),
        approach=pp, quad=lifshitz.QuadratureConfig(term_stop_rel=1e-8,
                                                    max_matsubara=500_000))
    ops.append(Op("pressure[plasma,Omega=1e4,T=0.1,d=500nm]",
                  lambda: _pressure(ideal_spec), tol=0.01,
                  expected=lambda: {"value": _ideal_pressure(500e-9)}))
    cold = lifshitz.LifshitzSpec(d=190e-9, T=1.0, model=permittivity.plasma(params),
                                 approach=pp)
    ops.append(Op("pressure[plasma,T=1.0,d=190nm]", lambda: _pressure(cold)))
    drude4 = lifshitz.LifshitzSpec(d=190e-9, T=4.0, model=permittivity.drude(params))
    ops.append(Op("gradient[drude,T=4.0,d=190nm]", lambda: _gradient(drude4)))
    return ops + grid


# --- pipeline: sweeps, Dynes fits and a CLI round trip ----------------------

SWEEP_POOL = 256   # criterion-11 noise seeds with frozen outputs
DYNES_POOL = 32    # conductance-noise seeds with frozen fits
CLI_POOL = 16      # CLI round trips with frozen bytes
N_SWEEPS = 100
N_FITS = 4

_WINDOW = (13.0, 14.19)
_DYNES_TRUTH = analysis.DynesParams(Delta=2.6e-3, gamma=0.465e-3, T=4.6, A=1.0)
_FACTORS = ("force_per_w2_N = 7.83e-16\npressure_per_w2_Pa = 1.55e-9\n"
            "deflection_per_w2_m = 6.28e-19\nbasis = linear-squared\n")


def _sweep_op(noise_seed: int) -> Op:
    m = physcore.small_gap_membrane()
    grid = tuple(np.round(np.arange(13.175, 14.68, 0.05), 4))
    small = analysis.SweepTruth(
        slope=-2.2843e7, intercept=(2 * math.pi * 352800.0) ** 2 + 2.2843e7 * 14.2,
        jump=membrane.dw2_from_gradient(12.1e3, m), Tc=14.2, noise_f=4.7e-3,
        grid=grid)
    big = analysis.SweepTruth(
        slope=-2.6e7, intercept=(2 * math.pi * 343008.0) ** 2 + 2.6e7 * 14.2,
        jump=0.0, Tc=14.2, noise_f=4.7e-3, grid=grid)

    def run():
        report = analysis.sweep_pipeline(
            analysis.generate_sweep(small, seed=noise_seed),
            analysis.generate_sweep(big, seed=noise_seed + 50_000), _WINDOW, m)
        return {"value": report.gradient_jump, "sigma": report.gradient_sigma}
    return Op(f"sweep[seed={noise_seed}]", run, ("value", "sigma"))


def conductance_curve(noise_seed: int, clean: np.ndarray, bias: np.ndarray):
    """33-point conductance curve with 1% multiplicative noise."""
    rng = np.random.default_rng(noise_seed)
    return list(zip(bias, clean * (1.0 + 0.01 * rng.standard_normal(len(bias)))))


def clean_conductance() -> tuple[np.ndarray, np.ndarray]:
    bias = np.linspace(-4.0 * _DYNES_TRUTH.Delta, 4.0 * _DYNES_TRUTH.Delta, 33)
    return bias, np.array([analysis.dynes_conductance(v, _DYNES_TRUTH) for v in bias])


def _fit_op(noise_seed: int, curve) -> Op:
    def run():
        fit = analysis.dynes_fit(curve, T=_DYNES_TRUTH.T)
        return {"Delta": fit.Delta, "gamma": fit.gamma, "A": fit.A}
    return Op(f"dynes_fit[seed={noise_seed}]", run, ("Delta", "gamma", "A"), 1e-4)


def _write_cli_inputs(workdir: Path, curve) -> None:
    m = physcore.small_gap_membrane()
    f_apex = membrane.fundamental_frequency(m)
    curvature = physcore.CONSTANTS.eps0 / (4 * math.pi ** 2 * m.rho * m.h * m.d ** 3)
    lcpd = ["V_volt,f_Hz"] + [
        f"{v!r},{math.sqrt(f_apex ** 2 - curvature * (v - 0.2572) ** 2)!r}"
        for v in np.linspace(-0.75, 1.25, 51).tolist()]
    dynes = ["V_volt,G_arb"] + [f"{float(v)!r},{float(g)!r}" for v, g in curve]
    (workdir / "lcpd.csv").write_text("\n".join(lcpd) + "\n", encoding="utf-8")
    (workdir / "dynes.csv").write_text("\n".join(dynes) + "\n", encoding="utf-8")
    (workdir / "factors.cfg").write_text(_FACTORS, encoding="utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_ops(pool: int, workdir: Path, recorder) -> list[Op]:
    """The CLI round trip.  It must run with ``workdir`` as the current
    directory: relative paths keep the echoed provenance lines the same
    bytes in every checkout."""
    runner = CliRunner()
    commands = [
        ("cli.generate-sweep.small", ["generate-sweep", "--out", "small.csv",
                                      "--jump-gradient", "12.1e3", "--noise-f",
                                      "0.0047", "--seed", str(pool)], None),
        ("cli.generate-sweep.big", ["generate-sweep", "--out", "big.csv",
                                    "--membrane", "big", "--slope", "-2.6e7",
                                    "--noise-f", "0.0047", "--seed",
                                    str(pool + 50_000)], None),
        ("cli.sweep", ["sweep", "--small", "small.csv", "--big", "big.csv",
                       "--window", "13.2", "14.19", "--factors-config",
                       "factors.cfg", "--format", "csv", "--out", "report.csv"],
         "report.csv"),
        ("cli.dynes-fit", ["dynes-fit", "--csv", "dynes.csv", "--t", "4.6",
                           "--format", "csv"], None),
        ("cli.lcpd-fit", ["lcpd-fit", "--csv", "lcpd.csv", "--format", "csv"], None),
        ("cli.tables", ["tables", "--format", "csv"], None),
    ]

    def make(args, out_file):
        def run():
            span = (recorder.span("cli") if recorder is not None
                    else contextlib.nullcontext())
            with span as s:
                result = runner.invoke(cli.main, args)
                if s is not None and result.exit_code != 0:
                    s[4] = result.exit_code
            record = {"exit_code": result.exit_code,
                      "stdout_sha256": _sha256(result.stdout.encode()),
                      "stdout": result.stdout}
            if out_file is not None and result.exit_code == 0:
                data = (workdir / out_file).read_bytes()
                record["file_sha256"] = _sha256(data)
            return record
        return run

    ops = []
    for name, args, out_file in commands:
        checked = ("exit_code", "stdout_sha256") + (("file_sha256",) if out_file else ())
        key = name if name in ("cli.lcpd-fit", "cli.tables") else f"{name}[pool={pool}]"
        ops.append(Op(key, make(args, out_file), checked, EXACT))
    return ops


def pipeline(seed: int, tiny: bool, workdir: Path, recorder=None,
             pools: tuple | None = None) -> list[Op]:
    """``pools`` = (sweep seeds, fit seeds, CLI pool index) overrides the
    seed's draw; freezing the reference uses it to cover every pool entry."""
    if pools is None:
        rng = random.Random(seed)
        n_sweeps, n_fits = (1, 1) if tiny else (N_SWEEPS, N_FITS)
        pools = (rng.sample(range(SWEEP_POOL), n_sweeps),
                 rng.sample(range(DYNES_POOL), n_fits),
                 rng.randrange(CLI_POOL))
    sweep_seeds, fit_seeds, cli_pool = pools
    bias, clean = clean_conductance()
    ops = [_sweep_op(s) for s in sweep_seeds]
    ops += [_fit_op(s, conductance_curve(s, clean, bias)) for s in fit_seeds]
    if cli_pool is not None:
        _write_cli_inputs(workdir, conductance_curve(cli_pool, clean, bias))
        ops += _cli_ops(cli_pool, workdir, recorder)
    return ops


def build(workload: str, seed: int, tiny: bool, workdir: Path,
          recorder=None) -> list[Op]:
    if workload == "pipeline":
        return pipeline(seed, tiny, workdir, recorder)
    return {"jump_all": jump_all, "temperature_scan": temperature_scan,
            "normal_state": normal_state}[workload](seed, tiny)
