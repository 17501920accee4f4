"""Command-line interface: predict, simulate, sweep, synth, fit.

Configuration is a flat key = value text file ('#' comments allowed);
--set KEY=VALUE flags override file keys, and --paper-defaults loads the
built-in optimum operating point.  KEYS holds one row per key: its type,
default, scale from its lab unit (G/cm, G/cm^2, mG, cm^3, cm^3/s, uK) to
SI, paper value, the model input it feeds, its lower bound, whether it is
computed and its unit in a sweep's CSV.  It is the one place where config
lab units are converted, every layer below works in SI, and the map from
model inputs to keys is read off it.  COMMANDS and FITS name the
subcommands and fit kinds.  Exit codes: 0 success, 2 configuration or
input error (among them an unknown key, NaN, inf, a fractional count, a
blank value for a key neither computed nor blank by default, a volume
<= 0, a trap temperature < 0, a negative loss coefficient, an n_mot <= 0,
a value that takes a rate, the cloud or the data out of float range, a
file that cannot be read or written, and a stdout that cannot be
written, such as a closed pipe), 3 numerical failure.  `python -m
cliptrap.cli` and the `cliptrap` console script enter through run(),
which ends the process without the interpreter's teardown; main()
returns the exit code to an in-process caller.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dynamics, sweeps
from .dynamics import LoadingScenario, RateCoefficients
from .estimation import (DataSet, fit_column_profile, fit_decay, fit_kappa,
                         fit_loading_rate, fit_tof)
from .flatfile import key_values, number, read_csv, read_lines
from .species import MotBeamParams, chromium_52, load_species
from .trap import IpTrapConfig


class Key(NamedTuple):
    """One config key.  kind, default (None: required; "": unset; "inf":
    inf is accepted), SI scale and paper value; feeds: the model input it
    sets, by the field or parameter name a ModelInputError carries; bound:
    the lower bound its value must meet, which the model checks too but
    cannot name the key by; computed: unset, or at its default, means
    computed, and a value given must be > 0; unit: its unit in the header
    of a sweep over the input it feeds."""

    kind: type
    default: str | None
    scale: float = 1.0
    paper: str | None = None
    feeds: str | None = None
    bound: str = ""
    computed: bool = False
    unit: str = ""


# The paper's optimum operating point: B' = 12.5 G/cm, B'' = 10.5 G/cm^2,
# offset ~ 0, 5e6 MOT atoms at 140 uK, trap cloud at 100 uK, fitted loss
# coefficients; keys without a paper value keep their default there.  eta
# = 0, not n_mot = 0, switches loading off; a data set or a curve needs
# two points, a sweep one.
KEYS: dict[str, Key] = {
    "species": Key(str, "cr52", feeds="species"),  # built-in name or path
    "b_prime_g_per_cm": Key(float, None, 1e-2, "12.5", "radial_gradient",
                            unit="g_per_cm"),
    "b_dprime_g_per_cm2": Key(float, None, 1.0, "10.5", "axial_curvature",
                              unit="g_per_cm2"),
    "b0_mg": Key(float, "0.0", 1e-7, feeds="offset_field", unit="mg"),
    "gamma_d_per_s": Key(float, "0.0", feeds="gamma_d", bound=">= 0"),
    "eta": Key(float, str(dynamics.DEFAULT_ETA), feeds="eta"),
    "beta_ed_cm3_per_s": Key(float, "0.0", 1e-6, "6e-10", "beta_ed",
                             bound=">= 0"),
    "beta_dd_cm3_per_s": Key(float, "0.0", 1e-6, "1.3e-11", "beta_dd",
                             bound=">= 0"),
    "n_mot": Key(float, None, 1.0, "5e6", "n_mot", bound="> 0"),
    "mot_saturation": Key(float, "inf", feeds="total_saturation"),
    # times the species linewidth
    "mot_detuning_gamma": Key(float, "-2.0", feeds="detuning"),
    "t_mot_uk": Key(float, None, 1e-6, "140.0", "temperature"),
    # computed: the virial prediction from t_mot_uk
    "t_mt_uk": Key(float, "0.0", 1e-6, "100.0", "mt_temperature",
                   computed=True),
    "sigma_mot_radial_mm": Key(float, "0.1", 1e-3, feeds="sigma_radial"),
    "sigma_mot_axial_mm": Key(float, "0.1", 1e-3, feeds="sigma_axial"),
    # computed: from the cloud geometry, and v_eff_cm3 as v_mt
    "v_mt_cm3": Key(float, "", 1e-6, feeds="v_mt", computed=True),
    "v_eff_cm3": Key(float, "", 1e-6, feeds="v_eff", computed=True),
    "t_end_s": Key(float, "10.0", feeds="t_end"),
    "samples": Key(int, "200", bound=">= 2"),
    "n0_atoms": Key(float, "0.0", feeds="n0"),
    "sweep_parameter": Key(str, "radial_gradient"),
    "sweep_start": Key(float, None, 1.0, "8.0"),  # in the swept key's unit
    "sweep_stop": Key(float, None, 1.0, "20.0"),
    "sweep_points": Key(int, "10", bound=">= 1"),
    "sweep_values": Key(str, ""),
    "sweep_nmot_csv": Key(str, ""),
    "sweep_outputs": Key(str, ",".join(sweeps.DEFAULT_OUTPUTS)),
    "synth_kind": Key(str, "kappa_points"),
    "synth_noise": Key(float, "0.0", 1.0, "0.1", "noise"),
    "synth_points": Key(int, "30", bound=">= 2"),
    "seed": Key(int, "20021114"),
}
PAPER_DEFAULTS: dict[str, str] = {
    name: key.paper or key.default for name, key in KEYS.items()
    if key.paper or key.default}
# The config key of each model input; see Key.feeds.
_KEY_OF: dict[str, str] = {key.feeds: name for name, key in KEYS.items()
                           if key.feeds}
# A sweep table's first column, for each input a key with a unit feeds:
# the swept input, named with that unit.
_SWEEP_COLUMN: dict[str, str] = {key.feeds: f"{key.feeds}_{key.unit}"
                                 for key in KEYS.values() if key.unit}


class ConfigError(Exception):
    """Bad configuration or input data."""


def _get(cfg: dict[str, str], name: str):
    """A config key's value in SI units, or None if unset.

    Blank is unset only for a key whose default is blank and for a
    computed key; elsewhere it is rejected.  A computed key at its default
    is unset too, and any other value of it must be > 0.  NaN is
    rejected, inf too unless the key's default is inf (that of
    mot_saturation selects the fully saturated MOT), and so is a value
    under the key's bound.
    """
    key = KEYS[name]
    raw = cfg.get(name, key.default)
    if not raw:
        if key.default is None:
            raise ConfigError(f"missing required config key: {name}")
        if key.default and not key.computed:
            raise ConfigError(f"config key {name} cannot be blank")
        return None
    if key.kind is str:
        return raw
    value = number(raw, f"config key {name}", integer=key.kind is int,
                   allow_inf=key.default == "inf")
    if key.bound:
        op, low = key.bound.split()
        if not (value > float(low) or value == float(low) and op == ">="):
            raise ConfigError(f"config key {name} must be {key.bound}: "
                              f"{raw!r}")
    if key.kind is float:
        value *= key.scale
    if key.computed:
        if key.default and value == float(key.default) * key.scale:
            return None
        if not value > 0:
            raise ConfigError(f"config key {name} must be positive, or "
                              f"blank to compute it: {raw!r}")
    return value


def build_config(args) -> dict[str, str]:
    cfg = dict(PAPER_DEFAULTS) if args.paper_defaults else {}
    if args.config:
        cfg.update(key_values(read_lines(args.config), KEYS))
    if not cfg:
        raise ConfigError("no configuration: pass --config or --paper-defaults")
    cfg.update(key_values((("--set", item) for item in args.set or []), KEYS))
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    for name in cfg:  # whether or not this command reads the key
        _get(cfg, name)
    return cfg


def _species(cfg: dict[str, str]):
    name = _get(cfg, "species")
    if name in ("cr52", "52Cr", "chromium_52"):
        return chromium_52()
    return load_species(name)


def _model(cls, cfg: dict[str, str], **values):
    """cls from the keys that feed its fields, but for the values given."""
    return cls(**values, **{f.name: _get(cfg, _KEY_OF[f.name])
                            for f in fields(cls) if f.name not in values})


def scenario_from_config(cfg: dict[str, str]) -> LoadingScenario:
    species = _species(cfg)
    detuning = _get(cfg, _KEY_OF["detuning"]) * species.gamma_eg
    return _model(LoadingScenario, cfg, species=species,
                  trap=_model(IpTrapConfig, cfg),
                  coefficients=_model(RateCoefficients, cfg),
                  mot=_model(MotBeamParams, cfg, detuning=detuning))


def _write_atomic(path: str | None, text: str) -> None:
    if path is None:  # flushed here, so a closed pipe is main's OSError
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."),
                               prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows: list[list], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, float):
                cells.append(f"{v:.12g}")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _report(rows: list[tuple]) -> str:
    """`key = value` lines: floats to 6 significant digits, bools by str,
    correlation to 4 decimals, and a note row as a `note: ...` line."""
    lines = []
    for key, value in rows:
        if key == "note":
            lines.append(f"note: {value}\n")
        elif key == "correlation":
            lines.append(f"{key} = {value:.4f}\n")
        elif isinstance(value, float):
            lines.append(f"{key} = {value:.6g}\n")
        else:
            lines.append(f"{key} = {value}\n")
    return "".join(lines)


# --- subcommands ------------------------------------------------------------
# Each returns its text, built from the checked config and the parsed args.

def cmd_predict(cfg: dict[str, str], args: argparse.Namespace) -> str:
    scen = scenario_from_config(cfg)
    return _report([
        ("loading_rate_atoms_per_s", scen.loading_rate),
        ("gamma_ed_per_s", scen.gamma_ed),
        ("v_mt_cm3", scen.v_mt * 1e6),
        ("v_mt_cm3_no_gravity", scen.v_mt_no_gravity * 1e6),
        ("v_eff_cm3", scen.v_eff * 1e6),
        ("n_steady_atoms", scen.n_mt_steady),
        ("kappa", scen.kappa),
        ("tau_eff_s", scen.tau_eff),
        ("t_mt_virial_prediction_uk", scen.t_mt_prediction * 1e6),
        ("majorana_safe", scen.majorana_safe),
    ])


def cmd_simulate(cfg: dict[str, str], args: argparse.Namespace) -> str:
    scen = scenario_from_config(cfg)
    t, n = dynamics.evolve(scen, _get(cfg, "n0_atoms"), _get(cfg, "t_end_s"),
                           _get(cfg, "samples"))
    return _csv([[ti, ni] for ti, ni in zip(t, n)],
                [sweeps.TIME_COLUMN, "n_atoms"])


def cmd_sweep(cfg: dict[str, str], args: argparse.Namespace) -> str:
    for name in ("v_mt_cm3", "v_eff_cm3"):
        if _get(cfg, name) is not None:
            raise ConfigError(f"config key {name} cannot be given to a sweep, "
                              "which computes it at every point")
    scen = scenario_from_config(cfg)
    parameter = _get(cfg, "sweep_parameter")
    # the key that feeds it gives the scale; SweepSpec rejects a name
    # outside sweeps.SWEEPABLE, the inputs that the keys with a unit feed
    key = KEYS.get(_KEY_OF.get(parameter), Key(float, ""))
    if listed := _get(cfg, "sweep_values"):
        values_b = [number(v, "config key sweep_values")
                    for v in listed.split(",")]
    else:
        # Python floats, which overflow to inf without numpy's warnings
        values_b = np.linspace(_get(cfg, "sweep_start"),
                               _get(cfg, "sweep_stop"),
                               _get(cfg, "sweep_points")).tolist()
        if len(set(values_b)) < len(values_b):
            raise ConfigError("config keys sweep_start and sweep_stop are "
                              "too close for sweep_points distinct values")
    outputs = tuple(s.strip() for s in _get(cfg, "sweep_outputs").split(","))
    n_mot_pp = None
    if nmot_csv := _get(cfg, "sweep_nmot_csv"):
        # matched to 9 decimals, which linspace values need
        table = DataSet.from_csv(nmot_csv)
        rounded = np.round(table.x, 9).tolist()
        lookup = dict(zip(rounded, table.y.tolist()))
        if len(lookup) < len(rounded):
            raise ConfigError(f"{nmot_csv}: two rows of sweep_nmot_csv "
                              "round to the same value at 9 decimals")
        try:
            n_mot_pp = [lookup[float(np.round(v, 9))] for v in values_b]
        except KeyError as exc:
            raise ConfigError(f"sweep_nmot_csv has no row for value {exc}")
    try:
        spec = sweeps.SweepSpec(
            swept_parameter=parameter,
            values=[v * key.scale for v in values_b], base_scenario=scen,
            outputs=outputs, n_mot_per_point=n_mot_pp)
    except ValueError as exc:
        # SweepSpec's message names the field it rejects; this names the
        # config key that set it.  A message on the values names no field.
        source = {"sweep parameter": "key sweep_parameter",
                  "n_mot_per_point": f"key sweep_nmot_csv ({nmot_csv})",
                  "outputs": "key sweep_outputs"}
        name = next((k for field, k in source.items() if field in str(exc)),
                    "key sweep_values" if listed
                    else "keys sweep_start and sweep_stop")
        raise ConfigError(f"config {name}: {exc}") from None
    rows = sweeps.run_sweep(spec)
    return _csv([[vb]
                 + [row[n] * 1e6 if n == "v_mt" else row[n] for n in outputs]
                 + [row["error"]] for vb, row in zip(values_b, rows)],
                [_SWEEP_COLUMN[parameter], *outputs, "error"])


def cmd_synth(cfg: dict[str, str], args: argparse.Namespace) -> str:
    scen = scenario_from_config(cfg)
    data = sweeps.synthesize_measurements(
        scen, _get(cfg, "synth_kind"), noise=_get(cfg, "synth_noise"),
        seed=_get(cfg, "seed"), points=_get(cfg, "synth_points"))
    return _csv([[x, y, s] for x, y, s in zip(data.x, data.y, data.sigma_y)],
                [data.x_label, data.y_label, f"sigma_{data.y_label}"])


def _read_kappa_csv(path: str) -> DataSet:
    """Kappa data with columns located by header name.

    Accepts synth output (abscissa, kappa, sigma_kappa), plain 3-column
    CSV, and sweep output, whose extra columns would break positional
    parsing.  flatfile.read_csv checks every cell and skips a failed sweep
    point; this picks the columns.  A time series, whose first column is
    the time, is refused.
    """
    header, rows = read_csv(path)
    if header[0] == sweeps.TIME_COLUMN:
        raise ConfigError(f"{path}: a time series (first column "
                          f"{header[0]}), not kappa points")
    if "kappa" not in header:
        return DataSet.from_csv(path)
    ix = next((header.index(n) for n in
               (sweeps.ABSCISSA_COLUMN, "kappa_abscissa") if n in header),
              None)
    if ix is None:
        raise ConfigError(f"{path}: no abscissa column for the kappa fit")
    data = np.asarray(rows)
    kappa = data[:, header.index("kappa")]
    sigma = (data[:, header.index("sigma_kappa")] if "sigma_kappa" in header
             else np.abs(kappa) * 1e-3)
    return DataSet(data[:, ix], kappa, np.maximum(sigma, 1e-300),
                   x_label=header[ix], y_label="kappa")


def _read_series_csv(path: str) -> DataSet:
    """A time series for the decay, tof and loading-rate fits: DataSet's
    positional columns, but neither a sweep table, whose first column is
    the swept trap parameter, nor kappa points, whose first column is the
    master curve's abscissa."""
    data = DataSet.from_csv(path)
    if data.x_label in _SWEEP_COLUMN.values():
        raise ConfigError(f"{path}: a sweep table (first column "
                          f"{data.x_label}), not a time series")
    if data.x_label == sweeps.ABSCISSA_COLUMN:
        raise ConfigError(f"{path}: kappa points (first column "
                          f"{data.x_label}), not a time series")
    return data


def _read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Long-format profile table: y_mm, z_mm, column_density columns, one
    row for each point of a complete y/z grid."""
    header, rows = read_csv(path)
    if len(header) != 3:
        raise ConfigError(f"{path}: expected 3 columns (y_mm, z_mm, "
                          f"column_density), got {len(header)}")
    data = np.asarray(rows)
    y, yi = np.unique(data[:, 0], return_inverse=True)
    z, zi = np.unique(data[:, 1], return_inverse=True)
    image = np.full((y.size, z.size), np.nan)
    image[yi, zi] = data[:, 2]
    # a duplicate row leaves a hole in the grid, or is one row too many
    if len(data) != image.size or np.isnan(image).any():
        raise ConfigError(f"{path}: profile table is not a complete y/z grid")
    return y * 1e-3, z * 1e-3, image


# --- fit kinds: read the data file, fit, return the report rows -------------
# Each reader names the data file in its own errors.  The fits are called by
# module-global name, so a wrapper installed on this module sees them.

def _fit_loading_rate(cfg: dict[str, str], path: str) -> list[tuple]:
    rate = fit_loading_rate(_read_series_csv(path))
    return [("loading_rate_atoms_per_s", rate)]


def _fit_kappa(cfg: dict[str, str], path: str) -> list[tuple]:
    res = fit_kappa(_read_kappa_csv(path))
    return [("beta_dd_cm3_per_s", res["beta_dd"] * 1e6),
            ("beta_dd_sigma_cm3_per_s", res.sigma("beta_dd") * 1e6),
            ("beta_ed_cm3_per_s", res["beta_ed"] * 1e6),
            ("beta_ed_sigma_cm3_per_s", res.sigma("beta_ed") * 1e6),
            ("correlation", res.correlation[0, 1]),
            ("converged", res.converged)]


def _fit_decay(cfg: dict[str, str], path: str) -> list[tuple]:
    res = fit_decay(_read_series_csv(path), scenario_from_config(cfg).v_mt)
    return [("gamma_per_s", res["gamma"]),
            ("gamma_sigma_per_s", res.sigma("gamma")),
            ("beta_dd_cm3_per_s", res["beta_dd"] * 1e6),
            ("beta_dd_sigma_cm3_per_s", res.sigma("beta_dd") * 1e6),
            ("converged", res.converged)]


def _fit_tof(cfg: dict[str, str], path: str) -> list[tuple]:
    res = fit_tof(_read_series_csv(path), _species(cfg))
    return [("temperature_uk", res["temperature"] * 1e6),
            ("temperature_sigma_uk", res.sigma("temperature") * 1e6),
            ("sigma0_mm", res["sigma0"] * 1e3),
            *([("note", res.message)] if res.message else [])]


def _fit_profile(cfg: dict[str, str], path: str) -> list[tuple]:
    scen = scenario_from_config(cfg)
    y, z, image = _read_profile_csv(path)
    res = fit_column_profile(y, z, image, scen.species, scen.trap)
    return [("temperature_uk", res["temperature"] * 1e6),
            ("peak_density_per_cm3", res["n0"] * 1e-6),
            ("center_y_mm", res["center_y"] * 1e3),
            ("center_z_mm", res["center_z"] * 1e3),
            ("converged", res.converged)]


FITS: dict[str, Callable[[dict[str, str], str], list[tuple]]] = {
    "loading-rate": _fit_loading_rate, "kappa": _fit_kappa,
    "decay": _fit_decay, "tof": _fit_tof, "profile": _fit_profile}


def cmd_fit(cfg: dict[str, str], args: argparse.Namespace) -> str:
    if not args.data:
        raise ConfigError("fit requires --data PATH")
    return _report(FITS[args.kind](cfg, args.data))


# --- entry point ------------------------------------------------------------

COMMANDS: dict[str, Callable[[dict[str, str], argparse.Namespace], str]] = {
    "predict": cmd_predict, "simulate": cmd_simulate, "sweep": cmd_sweep,
    "synth": cmd_synth, "fit": cmd_fit}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliptrap",
        description="Continuously loaded Ioffe-Pritchard trap toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--paper-defaults", action="store_true",
                       help="start from the built-in optimum operating point")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if command is cmd_fit:
            p.add_argument("kind", choices=FITS)
            p.add_argument("--data", default=None, help="input data CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg: dict[str, str] = {}
    try:
        cfg = build_config(args)
        _write_atomic(args.out, COMMANDS[args.command](cfg, args))
    except (ConfigError, ValueError, OSError) as exc:
        if isinstance(exc, dynamics.ModelInputError):
            key = dict(_KEY_OF)
            if _get(cfg, key["mt_temperature"]) is None:  # the virial
                key["mt_temperature"] = key["temperature"]  # prediction's
            *keys, last = (key[name] for name in exc.inputs)
            keys = f"{', '.join(keys)} and {last}" if keys else last
            exc = f"{exc}; it is set by {keys}"
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """main() as a process: flush stdout and stderr, then end with main's
    exit code through os._exit, which skips the interpreter's teardown
    (full garbage collections and module teardown over numpy's objects,
    30-50 ms a process on a 2-core VM).  C stdio is not flushed: nothing
    is written outside sys.stdout, sys.stderr and --out files that main
    closes (the profile fit's start check keeps LAPACK from printing).  An
    exception out of main, argparse's SystemExit among them, takes the
    normal exit."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # a failed flush keeps its data, so a closed stdout that main
            # has reported fails again here
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
