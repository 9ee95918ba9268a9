"""Command-line surface.

Every command accepts ``--format csv|table`` (same numbers, different rendering: 9
significant digits for CSV, 4 for tables), echoes its resolved parameters as ``#``
header lines for provenance, and is byte-deterministic for identical inputs.

Exit codes: 0 success, 2 usage error or invalid option value, 3 unreadable or malformed
input file or configuration value, 4 non-convergence of the Matsubara sum, 141 stdout
closed by its reader.  Every other failure prints one ``error:`` line on stderr, never a
traceback, and nothing on stdout: each command computes everything it prints first.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, replace
from pathlib import Path

import click
import numpy as np

from . import __version__, analysis, experiments, membrane
from .errors import ConvergenceError, FitError, ParseError
from .lifshitz import (
    LifshitzSpec,
    PlatePlate,
    QuadratureConfig,
    SpherePlate,
    ZeroFreqApproach,
    casimir_pressure,
    casimir_pressure_gradient,
    ideal_casimir_force,
    local_exponent,
    tc_jump,
)
from .permittivity import bcs, drude, plasma
from .physcore import (
    ConversionFactors,
    MembraneSpec,
    SuperconductorParams,
    big_gap_membrane,
    config_items,
    from_config,
    read_config,
    read_csv,
    small_gap_membrane,
)

_MODELS = {"drude": drude, "plasma": plasma, "bcs": bcs}
_CONFIG_ENV = "SCCASIMIR_CONFIG"

_format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "table"]), default="table",
    show_default=True, help="Output rendering.")


def _film(config_path, omega, gamma0, rrr, tc) -> SuperconductorParams:
    """The film record of the configuration file, overridden by the flags given."""
    path = config_path or os.environ.get(_CONFIG_ENV)
    params = from_config(SuperconductorParams, read_config(path) if path else {})
    overrides = {name: value for name, value in
                 (("Omega", omega), ("gamma0", gamma0), ("RRR", rrr), ("Tc", tc))
                 if value is not None}
    return replace(params, **overrides) if overrides else params


def _membrane_spec(preset: str, membrane_config: str | None):
    if membrane_config is not None:
        return from_config(MembraneSpec, read_config(membrane_config))
    return small_gap_membrane() if preset == "small" else big_gap_membrane()


def _emit(header, rows, fmt: str):
    """Print the ``# key = value`` header, then the (quantity, value, unit)
    rows, if any, as CSV or as a table aligned on the longest name."""
    lines = [f"# {key} = {value}" for key, value in header]
    if rows and fmt == "csv":
        lines += ["quantity,value,unit"] + [f"{n},{v:.8e},{u}" for n, v, u in rows]
    elif rows:
        width = max(len(name) for name, _, _ in rows)
        lines += [f"{n:<{width}}  {v:.4g} {u}" for n, v, u in rows]
    click.echo("\n".join(lines))


def _spec(command, d, temperature, model, approach, term_stop, max_matsubara, **film):
    """One Lifshitz evaluation and its ``#`` header."""
    params = _film(**film)
    spec = LifshitzSpec(d=d, T=temperature, model=_MODELS[model](params),
                        approach=ZeroFreqApproach(approach),
                        quad=QuadratureConfig(term_stop, max_matsubara))
    return spec, [("command", command), ("d_m", repr(d)), ("T_K", repr(temperature)),
                  ("model", model), ("approach", approach)] + config_items(params)


_approach_option = click.option(
    "--approach", type=click.Choice([a.value for a in ZeroFreqApproach]),
    default="plasma-bcs", show_default=True)

_model_options = [
    click.option("--model", type=click.Choice(sorted(_MODELS)), default="bcs",
                 show_default=True),
    _approach_option,
]

# the tail of every engine command: the film, the Matsubara sum and the rendering
_engine_options = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help=f"Flat key=value file; ${_CONFIG_ENV} is used when unset."),
    click.option("--omega", type=float, default=None, help="Plasma energy, eV."),
    click.option("--gamma0", type=float, default=None, help="Relaxation energy, eV."),
    click.option("--rrr", type=float, default=None, help="Residual resistance ratio."),
    click.option("--tc", type=float, default=None, help="Critical temperature, K."),
    click.option("--term-stop", type=float, default=QuadratureConfig.term_stop_rel,
                 show_default=True, help="Per-term stopping ratio of the Matsubara sum."),
    click.option("--max-matsubara", type=int, default=QuadratureConfig.max_matsubara,
                 show_default=True, help="Hard cap on the Matsubara index."),
    _format_option,
]

_membrane_options = [
    click.option("--membrane", "preset", type=click.Choice(["small", "big"]),
                 default="small", show_default=True),
    click.option("--membrane-config", type=click.Path(), default=None),
]


def _add_options(options):
    def wrap(func):
        for option in reversed(options):
            func = option(func)
        return func
    return wrap


# the values these commands reject come from the data files they read or
# write, so a rejected value is bad input (3) rather than a usage error (2)
_DATA_COMMANDS = ("sweep", "generate-sweep", "lcpd-fit")


class _Main(click.Group):
    """Maps the package's errors to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:  # the reader of stdout has gone: not a bad file
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)  # stdout's last flush, at exit, is quiet
            ctx.exit(141)  # 128 + SIGPIPE, as a shell reports a process that signal ended
        except ConvergenceError as exc:
            code, message = 4, str(exc)
        except FitError as exc:
            code, message = 3, f"fit failed: {exc}"
        except (OSError, ParseError) as exc:
            code, message = 3, str(exc)
        except ValueError as exc:
            code = 3 if ctx.invoked_subcommand in _DATA_COMMANDS else 2
            message = str(exc)
        click.echo(f"error: {message}", err=True)
        ctx.exit(code)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Casimir pressures between superconducting plates and the membrane
    calibration pipeline."""


@main.command()
@click.option("--d", type=float, required=True, help="Plate separation, m.")
@click.option("--t", "--T", "temperature", type=float, default=None, help="Temperature, K.")
@_add_options(_model_options)
@click.option("--ideal", is_flag=True,
              help="Perfect-conductor force from geometry (needs --area or --radius).")
@click.option("--area", type=float, default=None, help="Plate area for --ideal, m^2.")
@click.option("--radius", type=float, default=None, help="Sphere radius for --ideal, m.")
@click.option("--ideal-zero-t", is_flag=True,
              help="Closed-form zero-temperature perfect-conductor pressure.")
@click.option("--skip-exponent", is_flag=True, help="Do not evaluate the local exponent.")
@_add_options(_engine_options)
def pressure(d, temperature, ideal, area, radius, ideal_zero_t, skip_exponent, fmt,
             **spec_options):
    """Casimir pressure, gradient, and local power-law exponent."""
    if ideal and ideal_zero_t:
        raise ValueError("--ideal and --ideal-zero-t exclude each other")
    if ideal:
        if (area is None) == (radius is None):
            raise click.UsageError("--ideal needs exactly one of --area / --radius")
        geometry = PlatePlate(area, d) if area is not None else SpherePlate(radius, d)
        rows = [("ideal_force", ideal_casimir_force(geometry), "N")]
        _emit([("command", "pressure --ideal"), ("d_m", repr(d)),
               ("area_m2" if area is not None else "radius_m",
                repr(area if area is not None else radius))], rows, fmt)
        return
    if ideal_zero_t:
        rows = [("ideal_pressure", -ideal_casimir_force(PlatePlate(1.0, d)), "Pa")]
        _emit([("command", "pressure --ideal-zero-t"), ("d_m", repr(d))], rows, fmt)
        return
    if temperature is None:
        raise click.UsageError("--t is required unless --ideal/--ideal-zero-t")
    spec, header = _spec("pressure", d, temperature, **spec_options)
    rows = [("pressure", casimir_pressure(spec), "Pa"),
            ("pressure_gradient", casimir_pressure_gradient(spec), "Pa/m")]
    if not skip_exponent:
        rows.append(("local_exponent", local_exponent(spec), ""))
    _emit(header, rows, fmt)


def _single_value_command(name, evaluator, doc):
    @main.command(name=name, help=doc)
    @click.option("--d", type=float, required=True, help="Plate separation, m.")
    @click.option("--t", "--T", "temperature", type=float, required=True,
                  help="Temperature, K.")
    @_add_options(_model_options)
    @_add_options(_engine_options)
    def command(d, temperature, fmt, **spec_options):
        spec, header = _spec(name, d, temperature, **spec_options)
        _emit(header, evaluator(spec), fmt)
    return command


_single_value_command(
    "gradient",
    lambda spec: [("pressure_gradient", casimir_pressure_gradient(spec), "Pa/m")],
    "Separation derivative of the Casimir pressure.")
_single_value_command(
    "exponent",
    lambda spec: [("local_exponent", local_exponent(spec), "")],
    "Local power-law exponent of the pressure.")


@main.command()
@click.option("--d", type=float, default=190e-9, show_default=True,
              help="Plate separation, m.")
@click.option("--dt", "--dT", "dt", type=float, default=0.1, show_default=True,
              help="Half-width of the temperature bracket, K.")
@_approach_option
@click.option("--all", "all_approaches", is_flag=True,
              help="Evaluate all three prescriptions.")
@_add_options(_membrane_options)
@click.option("--f0", type=float, default=None,
              help="Resonance frequency for the predicted shift, Hz "
                   "(defaults to the membrane fundamental).")
@_add_options(_engine_options)
def jump(d, dt, approach, all_approaches, preset, membrane_config, f0, term_stop,
         max_matsubara, fmt, **film):
    """Pressure-gradient change across the transition and the predicted
    frequency shift.  The transition temperature is the resolved Tc."""
    params = _film(**film)
    spec_m = _membrane_spec(preset, membrane_config)
    if f0 is None:
        f0 = membrane.fundamental_frequency(spec_m)
    membrane.predicted_frequency_jump(0.0, spec_m, f0)  # rejects f0 before any sum
    quad_cfg = QuadratureConfig(term_stop, max_matsubara)
    approaches = ([ZeroFreqApproach.PLASMA_BCS, ZeroFreqApproach.PLASMA_PLASMA,
                   ZeroFreqApproach.DRUDE_BCS] if all_approaches
                  else [ZeroFreqApproach(approach)])
    rows = []
    for ap in approaches:
        value = tc_jump(d, params.Tc, dt, ap, params, quad_cfg)
        df = membrane.predicted_frequency_jump(value, spec_m, f0)
        rows.append((f"gradient_jump[{ap.value}]", value, "Pa/m"))
        rows.append((f"frequency_shift[{ap.value}]", df, "Hz"))
    _emit([("command", "jump"), ("d_m", repr(d)), ("dT_K", repr(dt)), ("f0_Hz", repr(f0)),
           ("membrane", preset if membrane_config is None else membrane_config)]
          + config_items(params), rows, fmt)


@main.command()
@click.option("--small", "small_path", type=click.Path(), required=True,
              help="Small-gap sweep CSV (T_K,f_Hz[,sigma_f_Hz][,Q]).")
@click.option("--big", "big_path", type=click.Path(), required=True,
              help="Big-gap reference sweep CSV.")
@click.option("--window", nargs=2, type=float, required=True,
              help="Fit window (lo hi), K; must sit below the transition.")
@_add_options(_membrane_options)
@click.option("--factors-config", type=click.Path(), default=None,
              help="FEM conversion factors (key=value file).")
@click.option("--combine", type=click.Choice(["add", "quadrature"]), default="add",
              show_default=True, help="Uncertainty combination rule.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the per-point CSV report here (default: stdout).")
@_format_option
def sweep(small_path, big_path, window, preset, membrane_config, factors_config,
          combine, out_path, fmt):
    """Run the calibrate/subtract/convert pipeline on two sweep files."""
    small_sweep, big_sweep = map(membrane.load_sweep_csv, (small_path, big_path))
    spec_m = _membrane_spec(preset, membrane_config)
    factors = (None if factors_config is None
               else from_config(ConversionFactors, read_config(factors_config)))
    report = analysis.sweep_pipeline(small_sweep, big_sweep, tuple(window),
                                     spec_m, factors=factors, combine=combine)
    rows = [("dw2_jump", report.dw2_jump, "(rad/s)^2"),
            ("dw2_sigma", report.dw2_sigma, "(rad/s)^2"),
            ("gradient_jump", report.gradient_jump, "Pa/m"),
            ("gradient_sigma", report.gradient_sigma, "Pa/m")]
    if report.conversion is not None:
        rows += [("force_change", report.conversion.dF, "N"),
                 ("pressure_change", report.conversion.dP, "Pa"),
                 ("deflection_change", report.conversion.dz, "m")]
    small, (_, dw2, sigma) = report.small, report.differential
    converted = (np.full((len(dw2), 3), math.nan) if report.point_conversions is None
                 else np.column_stack(astuple(report.point_conversions)))
    table = np.column_stack([small.T, small.dw2, small.sigma, dw2, sigma,
                             report.point_gradients, converted])
    lines = ["T_K,dw2_small,sigma_small,dw2_casimir,sigma_casimir,"
             "dPprime_Pa_per_m,dF_N,dP_Pa,dz_m"]
    lines += [",".join(f"{x:.8e}" for x in row) for row in table.tolist()]
    text = "\n".join(lines)
    if out_path is not None:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    _emit([("command", "sweep"), ("small", small_path), ("big", big_path),
           ("window_K", f"{window[0]!r} {window[1]!r}"), ("combine", combine),
           ("fit_slope_small", repr(report.small.fit_slope)),
           ("fit_slope_big", repr(report.big.fit_slope))], rows, fmt)
    click.echo(text if out_path is None else f"# wrote {len(table)} rows to {out_path}")


@main.command("generate-sweep")
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--slope", type=float, default=-2.2e7, show_default=True,
              help="Baseline slope, (rad/s)^2 per K.")
@click.option("--intercept", type=float, default=5.226e12, show_default=True,
              help="Baseline intercept, (rad/s)^2.")
@click.option("--jump-dw2", type=float, default=None,
              help="Injected step above the transition, (rad/s)^2.")
@click.option("--jump-gradient", type=float, default=None,
              help="Injected step as a pressure gradient, Pa/m.")
@click.option("--tc-step", type=float, default=14.2, show_default=True,
              help="Step temperature, K.")
@click.option("--noise-f", type=float, default=0.0, show_default=True,
              help="Per-point frequency noise, Hz.")
@click.option("--t-min", type=float, default=13.175, show_default=True)
@click.option("--t-max", type=float, default=14.675, show_default=True)
@click.option("--n-points", type=int, default=31, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_add_options(_membrane_options)
def generate_sweep_cmd(out_path, slope, intercept, jump_dw2, jump_gradient, tc_step,
                       noise_f, t_min, t_max, n_points, seed, preset, membrane_config):
    """Write a deterministic synthetic sweep CSV for pipeline tests."""
    if (jump_dw2 is not None) and (jump_gradient is not None):
        raise click.UsageError("give at most one of --jump-dw2 / --jump-gradient")
    spec_m = _membrane_spec(preset, membrane_config)
    if jump_gradient is not None:
        jump_dw2 = membrane.dw2_from_gradient(jump_gradient, spec_m)
    if n_points < 2 or t_max <= t_min:
        raise click.UsageError("need n_points >= 2 and t_max > t_min")
    grid = tuple(t_min + i * (t_max - t_min) / (n_points - 1) for i in range(n_points))
    truth = analysis.SweepTruth(slope=slope, intercept=intercept,
                                jump=0.0 if jump_dw2 is None else jump_dw2,
                                Tc=tc_step, noise_f=noise_f, grid=grid)
    sweep = analysis.generate_sweep(truth, seed=seed)
    # full float precision: these files round-trip through the pipeline
    n = 3 if noise_f > 0.0 else 2
    header = ",".join(("T_K", "f_Hz", "sigma_f_Hz")[:n])
    rows = [",".join(map(repr, row[:n])) for row in zip(*(c.tolist() for c in astuple(sweep)))]
    Path(out_path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    click.echo(f"# wrote {len(rows)} records to {out_path} (seed {seed})")


@main.command("lcpd-fit")
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Voltage sweep CSV with header V_volt,f_Hz.")
@_add_options(_membrane_options)
@_format_option
def lcpd_fit_cmd(csv_path, preset, membrane_config, fmt):
    """Fit the electrostatic parabola: compensation voltage, stress, density."""
    spec_m = _membrane_spec(preset, membrane_config)
    points = [values for _, values in read_csv(csv_path, ("V_volt", "f_Hz"))]
    result = membrane.lcpd_fit(points, spec_m)
    _emit([("command", "lcpd-fit"), ("csv", csv_path), ("n_points", str(len(points)))],
          [("V0", result.V0, "V"), ("V0_err", result.V0_err, "V"),
           ("sigma", result.sigma, "Pa"), ("sigma_err", result.sigma_err, "Pa"),
           ("rho", result.rho, "kg/m^3"), ("rho_err", result.rho_err, "kg/m^3")], fmt)


@main.command("dynes-fit")
@click.option("--csv", "csv_path", type=click.Path(), required=True,
              help="Conductance CSV with header V_volt,G_arb.")
@click.option("--t", "--T", "temperature", type=float, required=True,
              help="Measurement temperature, K.")
@_format_option
def dynes_fit_cmd(csv_path, temperature, fmt):
    """Fit gap, broadening, and scale to tunneling-conductance data."""
    points = [values for _, values in read_csv(csv_path, ("V_volt", "G_arb"))]
    result = analysis.dynes_fit(points, T=temperature)
    _emit([("command", "dynes-fit"), ("csv", csv_path), ("T_K", repr(temperature)),
           ("n_points", str(len(points)))],
          [("Delta", result.Delta, "eV"), ("gamma", result.gamma, "eV"),
           ("A", result.A, "arb")], fmt)


@main.command()
@click.option("--flag-above", type=float, default=0.005, show_default=True,
              help="Relative deviation that marks a row as suspect.")
@_format_option
def tables(flag_above, fmt):
    """Ideal-conductor force comparison across published geometries."""
    if not 0.0 <= flag_above < math.inf:
        raise ValueError(f"--flag-above must be finite and >= 0, got {flag_above}")
    lines, suspects = [], []
    for section, geom_name, rows, exclude in (
            ("plate-plate (average/median exclude This work)", "area_m2",
             experiments.PLATE_PLATE_ROWS, "This work"),
            ("sphere-plate", "radius_m", experiments.SPHERE_PLATE_ROWS, None)):
        data = []
        for row in rows:
            force = ideal_casimir_force(row.geometry)
            dev = abs(force - row.force) / row.force
            data.append((row.ref, *astuple(row.geometry), row.force, force, dev,
                         "SUSPECT" if dev > flag_above else "ok"))
        suspects += [r[0] for r in data if r[6] == "SUSPECT"]
        kept = [r for r in data if r[0] != exclude]
        table, ideal = [r[3] for r in kept], [r[4] for r in kept]
        stats = [("average", sum(table) / len(table), sum(ideal) / len(ideal)),
                 ("median", np.median(table), np.median(ideal))]
        if fmt == "csv":
            lines.append(f"# {section}")
            lines.append(f"ref,{geom_name},min_sep_m,force_table_N,force_ideal_N,"
                         "rel_deviation,status")
            lines += [f"{ref},{geom:.8e},{dsep:.8e},{ft:.8e},{fr:.8e},{dev:.8e},{status}"
                      for ref, geom, dsep, ft, fr, dev, status in data]
            lines += [f"{name},,,{ft:.8e},{fr:.8e},," for name, ft, fr in stats]
        else:
            width = max(len(r[0]) for r in data)
            lines.append(f"--- {section} ---")
            lines += [f"{ref:<{width}}  {geom:.4g}  {dsep:.4g}  {ft:.4g}  {fr:.4g}  "
                      f"{dev:.2e}  {status}"
                      for ref, geom, dsep, ft, fr, dev, status in data]
            lines += [f"{name:<{width}}  {'':>9}  {'':>9}  {ft:.4g}  {fr:.4g}"
                      for name, ft, fr in stats]
    lines.append(f"# rows deviating more than {flag_above:.1%}: "
                 + (", ".join(suspects) if suspects else "none"))
    _emit([("command", "tables"), ("flag_above", repr(flag_above))], [], fmt)
    click.echo("\n".join(lines))


@main.command()
@click.option("--f0", type=float, required=True, help="Resonance frequency, Hz.")
@click.option("--q", type=float, required=True, help="Quality factor.")
@click.option("--noise-to-signal", "ns", type=float, required=True,
              help="Lock-in noise-to-signal ratio.")
@click.option("--tau", type=float, required=True, help="Integration time, s.")
@_format_option
def noise(f0, q, ns, tau, fmt):
    """Noise-limited frequency resolution of the resonance readout."""
    value = membrane.frequency_noise(f0, q, ns, tau)
    _emit([("command", "noise"), ("f0_Hz", repr(f0)), ("Q", repr(q)),
           ("noise_to_signal", repr(ns)), ("tau_s", repr(tau))],
          [("frequency_noise", value, "Hz")], fmt)


if __name__ == "__main__":
    main()
