"""Command-line interface: predict, simulate, sweep, synth, fit.

Configuration is a flat key = value text file ('#' comments allowed);
--set KEY=VALUE flags override file keys, and --paper-defaults loads the
built-in optimum operating point.  KEYS holds one row per key: its type,
default, paper value, the model input it feeds, its lower bound and
whether it is computed; the map from model inputs to keys is read off it.
A key, report line or column names its lab unit (G/cm, G/cm^2, mG, cm^3,
cm^3/s, 1/cm^3, uK, mm), and UNITS, the SI value of each, converts it:
every layer below works in SI.  COMMANDS names the subcommands; FITS,
the one table of fit kinds, holds each kind's fit and report rows, which
cmd_fit's one writer prints.  _read reads every data file once and
refuses one of a kind its reader does not take: sweeps.FILE_KINDS, from
which the writers take their headers, names a kind by a header's first
two cells, and _SWEEP_COLUMN a sweep table by its first; a file neither
names is read as its reader's own kind.  A sweep table's columns are
taken by name, and an (x, y, sigma_y) file reaches its fit through
DataSet.from_rows.  A model input error that a fit raises on its data
names the data file (fit kappa's, where both beta reach 0); one raised
by the scenario names the config keys that set it.  Exit codes: 0
success, 2 configuration or input error, a ValueError or OSError (among
them an unknown key, NaN, inf, a fractional count, a blank value for a
key neither computed nor blank by default, a volume <= 0, a trap temperature < 0, a negative loss
coefficient, an n_mot <= 0, a value that takes a rate, the cloud or the
data out of float range, a file that cannot be read or written, and a
stdout that cannot be written, such as a closed pipe), 3 numerical
failure, a RuntimeError or ArithmeticError.  `python -m cliptrap.cli`
and the `cliptrap` console script enter through run(), which ends the
process without the interpreter's teardown; main() returns the exit
code to an in-process caller.
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
    inf is accepted) and paper value; feeds: the model input it sets, by
    the field or parameter name a ModelInputError carries; bound: the
    lower bound its value must meet, which the model checks too but
    cannot name the key by; computed: unset, or at its default, means
    computed, and a value given must be > 0.  Its unit is in its name."""

    kind: type
    default: str | None
    paper: str | None = None
    feeds: str | None = None
    bound: str = ""
    computed: bool = False


# The SI value of one lab unit, by the token that names it.  A config key,
# a report line or a column is in the longest unit u for which "_{u}_" is
# in its name + "_", and in SI where there is none (see _unit).
UNITS: dict[str, float] = {
    "": 1.0, "g_per_cm": 1e-2, "g_per_cm2": 1.0, "mg": 1e-7, "cm3": 1e-6,
    "cm3_per_s": 1e-6, "per_cm3": 1e6, "uk": 1e-6, "mm": 1e-3}


def _unit(name: str) -> str:
    return max((u for u in UNITS if f"_{u}_" in name + "_"), key=len,
               default="")


# The paper's optimum operating point: B' = 12.5 G/cm, B'' = 10.5 G/cm^2,
# offset ~ 0, 5e6 MOT atoms at 140 uK, trap cloud at 100 uK, fitted loss
# coefficients; keys without a paper value keep their default there.  eta
# = 0, not n_mot = 0, switches loading off; a data set or a curve needs
# two points, a sweep one.
KEYS: dict[str, Key] = {
    "species": Key(str, "cr52", feeds="species"),  # built-in name or path
    "b_prime_g_per_cm": Key(float, None, "12.5", "radial_gradient"),
    "b_dprime_g_per_cm2": Key(float, None, "10.5", "axial_curvature"),
    "b0_mg": Key(float, "0.0", feeds="offset_field"),
    "gamma_d_per_s": Key(float, "0.0", feeds="gamma_d", bound=">= 0"),
    "eta": Key(float, str(dynamics.DEFAULT_ETA), feeds="eta"),
    "beta_ed_cm3_per_s": Key(float, "0.0", "6e-10", "beta_ed", bound=">= 0"),
    "beta_dd_cm3_per_s": Key(float, "0.0", "1.3e-11", "beta_dd",
                             bound=">= 0"),
    "n_mot": Key(float, None, "5e6", "n_mot", bound="> 0"),
    "mot_saturation": Key(float, "inf", feeds="total_saturation"),
    # times the species linewidth
    "mot_detuning_gamma": Key(float, "-2.0", feeds="detuning"),
    "t_mot_uk": Key(float, None, "140.0", "temperature"),
    # computed: the virial prediction from t_mot_uk
    "t_mt_uk": Key(float, "0.0", "100.0", "mt_temperature", computed=True),
    "sigma_mot_radial_mm": Key(float, "0.1", feeds="sigma_radial"),
    "sigma_mot_axial_mm": Key(float, "0.1", feeds="sigma_axial"),
    # computed: from the cloud geometry, and v_eff_cm3 as v_mt
    "v_mt_cm3": Key(float, "", feeds="v_mt", computed=True),
    "v_eff_cm3": Key(float, "", feeds="v_eff", computed=True),
    "t_end_s": Key(float, "10.0", feeds="t_end"),
    "samples": Key(int, "200", bound=">= 2"),
    "n0_atoms": Key(float, "0.0", feeds="n0"),
    "sweep_parameter": Key(str, "radial_gradient"),
    "sweep_start": Key(float, None, "8.0"),  # in the swept key's unit
    "sweep_stop": Key(float, None, "20.0"),
    "sweep_points": Key(int, "10", bound=">= 1"),
    "sweep_values": Key(str, ""),
    "sweep_nmot_csv": Key(str, ""),
    "sweep_outputs": Key(str, ",".join(sweeps.DEFAULT_OUTPUTS)),
    "synth_kind": Key(str, "kappa_points"),
    "synth_noise": Key(float, "0.0", "0.1", "noise"),
    "synth_points": Key(int, "30", bound=">= 2"),
    "seed": Key(int, "20021114"),
}
PAPER_DEFAULTS: dict[str, str] = {
    name: key.paper or key.default for name, key in KEYS.items()
    if key.paper or key.default}
# Each key's SI value of one unit of it, read off its name.
_SCALE: dict[str, float] = {name: UNITS[_unit(name)] for name in KEYS}
# The config key of each model input; see Key.feeds.
_KEY_OF: dict[str, str] = {key.feeds: name for name, key in KEYS.items()
                           if key.feeds}
# A sweep table's first column: the swept input, in its key's unit.
_SWEEP_COLUMN: dict[str, str] = {
    p: f"{p}_{_unit(_KEY_OF[p])}" for p in sweeps.SWEEPABLE}
# The kinds of file sweeps.FILE_KINDS does not name (see _read)
SWEEP_TABLE, NMOT_TABLE = "a sweep table", "an N_MOT table"


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
            raise ValueError(f"missing required config key: {name}")
        if key.default and not key.computed:
            raise ValueError(f"config key {name} cannot be blank")
        return None
    if key.kind is str:
        return raw
    value = number(raw, f"config key {name}", integer=key.kind is int,
                   allow_inf=key.default == "inf")
    if key.bound:
        op, low = key.bound.split()
        if not (value > float(low) or value == float(low) and op == ">="):
            raise ValueError(f"config key {name} must be {key.bound}: "
                             f"{raw!r}")
    if key.kind is float:
        value *= _SCALE[name]
    if key.computed:
        if key.default and value == float(key.default) * _SCALE[name]:
            return None
        if not value > 0:
            raise ValueError(f"config key {name} must be positive, or "
                             f"blank to compute it: {raw!r}")
    return value


def build_config(args) -> dict[str, str]:
    cfg = dict(PAPER_DEFAULTS) if args.paper_defaults else {}
    if args.config:
        cfg.update(key_values(read_lines(args.config), KEYS))
    if not cfg:
        raise ValueError("no configuration: pass --config or --paper-defaults")
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
    """`key = value` lines from SI values: floats in the unit of their key
    to 6 significant digits, bools by str, correlation to 4 decimals, and
    a note row as a `note: ...` line, or none if the note is empty."""
    lines = []
    for key, value in rows:
        if key == "note":
            lines.append(f"note: {value}\n" if value else "")
        elif key == "correlation":
            lines.append(f"{key} = {value:.4f}\n")
        elif isinstance(value, float):
            value *= 1 / UNITS[_unit(key)]  # x * 1e6, not x / 1e-6
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
        ("v_mt_cm3", scen.v_mt),
        ("v_mt_cm3_no_gravity", scen.v_mt_no_gravity),
        ("v_eff_cm3", scen.v_eff),
        ("n_steady_atoms", scen.n_mt_steady),
        ("kappa", scen.kappa),
        ("tau_eff_s", scen.tau_eff),
        ("t_mt_virial_prediction_uk", scen.t_mt_prediction),
        ("majorana_safe", scen.majorana_safe),
    ])


def cmd_simulate(cfg: dict[str, str], args: argparse.Namespace) -> str:
    scen = scenario_from_config(cfg)
    t, n = dynamics.evolve(scen, _get(cfg, "n0_atoms"), _get(cfg, "t_end_s"),
                           _get(cfg, "samples"))
    return _csv([[ti, ni] for ti, ni in zip(t, n)],
                sweeps.HEADER[sweeps.ATOM_NUMBERS])


def cmd_sweep(cfg: dict[str, str], args: argparse.Namespace) -> str:
    """A sweep table: the swept value, the outputs and error of each point;
    sweep_nmot_csv's (value, n_mot) pairs, if given, set each point's
    n_mot."""
    for name in ("v_mt_cm3", "v_eff_cm3"):
        if _get(cfg, name) is not None:
            raise ValueError(f"config key {name} cannot be given to a sweep, "
                             "which computes it at every point")
    scen = scenario_from_config(cfg)
    parameter = _get(cfg, "sweep_parameter")
    # in the unit of the key that feeds it; SweepSpec rejects a name
    # outside sweeps.SWEEPABLE
    scale = _SCALE.get(_KEY_OF.get(parameter), 1.0)
    if listed := _get(cfg, "sweep_values"):
        values_b = [number(v, "config key sweep_values")
                    for v in listed.split(",")]
    else:
        # Python floats, which overflow to inf without numpy's warnings
        values_b = np.linspace(_get(cfg, "sweep_start"),
                               _get(cfg, "sweep_stop"),
                               _get(cfg, "sweep_points")).tolist()
        if len(set(values_b)) < len(values_b):
            raise ValueError("config keys sweep_start and sweep_stop are "
                             "too close for sweep_points distinct values")
    outputs = tuple(s.strip() for s in _get(cfg, "sweep_outputs").split(","))
    n_mot_pp = None
    if nmot_csv := _get(cfg, "sweep_nmot_csv"):
        # matched to 9 decimals, which linspace values need
        values, n_mots = zip(*_read_nmot_csv(nmot_csv))
        rounded = np.round(values, 9).tolist()
        lookup = dict(zip(rounded, n_mots))
        if len(lookup) < len(rounded):
            raise ValueError(f"{nmot_csv}: two rows of sweep_nmot_csv "
                             "round to the same value at 9 decimals")
        try:
            n_mot_pp = [lookup[float(np.round(v, 9))] for v in values_b]
        except KeyError as exc:
            raise ValueError(f"sweep_nmot_csv has no row for value {exc}")
    try:
        spec = sweeps.SweepSpec(
            swept_parameter=parameter,
            values=[v * scale for v in values_b], base_scenario=scen,
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
        raise ValueError(f"config {name}: {exc}") from None
    rows = sweeps.run_sweep(spec)
    # v_mt, unnamed in its header, is in cm^3
    return _csv([[vb] + [row[n] * (1 / UNITS["cm3"]) if n == "v_mt"
                         else row[n] for n in outputs]
                 + [row["error"]] for vb, row in zip(values_b, rows)],
                [_SWEEP_COLUMN[parameter], *outputs, "error"])


def cmd_synth(cfg: dict[str, str], args: argparse.Namespace) -> str:
    scen = scenario_from_config(cfg)
    data = sweeps.synthesize_measurements(
        scen, _get(cfg, "synth_kind"), noise=_get(cfg, "synth_noise"),
        seed=_get(cfg, "seed"), points=_get(cfg, "synth_points"))
    return _csv([[x, y, s] for x, y, s in zip(data.x, data.y, data.sigma_y)],
                [data.x_label, data.y_label, f"sigma_{data.y_label}"])


def _read(path: str, *takes: str) -> tuple[str, list[str], list[list[float]]]:
    """The kind, header and rows of a data file, read once by
    flatfile.read_csv, which checks every cell and skips a failed sweep
    point.  Its kind is the one sweeps.FILE_KINDS names by the header's
    first two cells, SWEEP_TABLE for a swept input's first column, and
    else takes[0], its reader's own.  A kind not in takes raises
    ValueError naming the two kinds by the column that tells them apart:
    by the first, up to " of ", or, where that agrees, by the second."""
    header, rows = read_csv(path)
    held = sweeps.FILE_KINDS.get(tuple(header[:2]), SWEEP_TABLE if header[0]
                                 in _SWEEP_COLUMN.values() else takes[0])
    if held not in takes:
        held_as, want_as = (k.partition(" of ")[0] for k in (held, takes[0]))
        if held_as == want_as:
            raise ValueError(f"{path}: {held} (second column {header[1]}), "
                             f"not {takes[0]}")
        raise ValueError(f"{path}: {held_as} (first column {header[0]}), "
                         f"not {want_as}")
    return held, header, rows


def _read_kappa_csv(path: str) -> DataSet:
    """Kappa points, with columns located by header name in a sweep table
    and in a file with a kappa column.

    By name (synth output, or a sweep table, whose extra columns would
    break positional parsing), DataSet.from_rows gets the abscissa, kappa,
    sigma_kappa and mask columns in that order, so the mask and the sigma
    check act as on a positional file; a sweep table, which has no
    sigma_kappa, gets max(|kappa| 1e-3, 1e-300), and one without the
    abscissa or kappa is refused.  Any other file gets its rows as they
    are.
    """
    held, header, rows = _read(path, sweeps.KAPPA_POINTS, SWEEP_TABLE)
    if "kappa" in header or held == SWEEP_TABLE:
        ix = next((header.index(n) for n in (
            sweeps.HEADER[sweeps.KAPPA_POINTS][0], "kappa_abscissa")
            if n in header), None)
        if ix is None:
            raise ValueError(f"{path}: no abscissa column for the kappa fit")
        if "kappa" not in header:
            raise ValueError(f"{path}: no kappa column for the kappa fit")
        names = [header[ix], "kappa", "sigma_kappa", "mask"]
        names = names[:3 + ("mask" in header)]
        cols = [header.index(n) if n in header else None for n in names]
        header, rows = names, [[r[c] if c is not None
                                else max(abs(r[cols[1]]) * 1e-3, 1e-300)
                                for c in cols] for r in rows]
    return DataSet.from_rows(path, header, rows)


def _read_series_csv(path: str, kind: str) -> DataSet:
    """A time series of kind for the decay, tof and loading-rate fits:
    DataSet's positional columns."""
    return DataSet.from_rows(path, *_read(path, kind)[1:])


def _read_nmot_csv(path: str) -> list[tuple[float, float]]:
    """(value, n_mot) pairs for sweep_nmot_csv: a sweep table's first and
    n_mot columns, any other table's first two columns."""
    held, header, rows = _read(path, NMOT_TABLE, SWEEP_TABLE)
    if held == SWEEP_TABLE:
        if "n_mot" not in header:
            raise ValueError(f"{path}: no n_mot column for sweep_nmot_csv")
        column = header.index("n_mot")
    elif len(header) < 2:
        raise ValueError(f"{path}: expected at least 2 columns (value, n_mot)")
    else:
        column = 1
    return [(r[0], r[column]) for r in rows]


def _read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Long-format profile table: y_mm, z_mm, column_density columns, one
    row for each point of a complete y/z grid."""
    header, rows = _read(path, sweeps.PROFILE_TABLE)[1:]
    if len(header) != 3:
        raise ValueError(f"{path}: expected 3 columns (y_mm, z_mm, "
                         f"column_density), got {len(header)}")
    data = np.asarray(rows)
    y, yi = np.unique(data[:, 0], return_inverse=True)
    z, zi = np.unique(data[:, 1], return_inverse=True)
    image = np.full((y.size, z.size), np.nan)
    image[yi, zi] = data[:, 2]
    # a duplicate row leaves a hole in the grid, or is one row too many
    if len(data) != image.size or np.isnan(image).any():
        raise ValueError(f"{path}: profile table is not a complete y/z grid")
    return y * UNITS["mm"], z * UNITS["mm"], image


def _fit_kappa(path: str):
    """fit_kappa on the file's points.  Its model raises ModelInputError
    where the data drive both beta to 0; that error names the file, not
    the config keys that main names for one the scenario raises."""
    data = _read_kappa_csv(path)
    try:
        return fit_kappa(data)
    except dynamics.ModelInputError as exc:
        raise ValueError(f"{path}: {exc}") from None


# --- fit kinds: each one's fit and report rows -----------------------------
# A fit takes the checked config and the --data path, and calls its reader,
# which names the data file in its errors, and its fit by module-global name,
# so a wrapper installed on this module sees them.  A row is (report line,
# the FitResult parameter it prints, whether its _sigma line follows); None
# prints a float result, and correlation, converged and message (the note
# line, none if empty) are the FitResult's own.
FITS: dict[str, tuple[Callable[[dict[str, str], str], object], tuple]] = {
    "loading-rate": (
        lambda cfg, path: fit_loading_rate(_read_series_csv(
            path, sweeps.ATOM_NUMBERS)),
        (("loading_rate_atoms_per_s", None, False),)),
    "kappa": (
        lambda cfg, path: _fit_kappa(path),
        (("beta_dd_cm3_per_s", "beta_dd", True),
         ("beta_ed_cm3_per_s", "beta_ed", True),
         ("correlation", "correlation", False),
         ("converged", "converged", False),
         ("note", "message", False))),
    "decay": (
        lambda cfg, path: fit_decay(_read_series_csv(
            path, sweeps.ATOM_NUMBERS), scenario_from_config(cfg).v_mt),
        (("gamma_per_s", "gamma", True),
         ("beta_dd_cm3_per_s", "beta_dd", True),
         ("converged", "converged", False),
         ("note", "message", False))),
    "tof": (
        lambda cfg, path: fit_tof(_read_series_csv(path, sweeps.RADII),
                                  _species(cfg)),
        (("temperature_uk", "temperature", True),
         ("sigma0_mm", "sigma0", False),
         ("note", "message", False))),
    # the scenario is checked before the image is read
    "profile": (
        lambda cfg, path: (scen := scenario_from_config(cfg)) and
        fit_column_profile(*_read_profile_csv(path), scen.species, scen.trap),
        (("temperature_uk", "temperature", False),
         ("peak_density_per_cm3", "n0", False),
         ("center_y_mm", "center_y", False),
         ("center_z_mm", "center_z", False),
         ("converged", "converged", False)))}


def cmd_fit(cfg: dict[str, str], args: argparse.Namespace) -> str:
    if not args.data:
        raise ValueError("fit requires --data PATH")
    fit, rows = FITS[args.kind]
    res = fit(cfg, args.data)
    report = []
    for line, name, sigma in rows:
        report.append((line, res if name is None
                       else res.correlation[0, 1] if name == "correlation"
                       else getattr(res, name) if name in vars(res)
                       else res[name]))
        if sigma:
            report.append((line.replace(name, f"{name}_sigma", 1),
                           res.sigma(name)))
    return _report(report)


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
    except (ValueError, OSError) as exc:
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
    closes (LAPACK, which prints on a non-finite matrix, gets none from
    estimation._solve, its one caller).  An exception out of main,
    argparse's SystemExit among them, takes the normal exit."""
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
