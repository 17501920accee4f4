"""Bad input is rejected, never replaced by a default in silence.

CLI input (--set, config files, species files) exits with code 2 and a
message naming the key; library constructors raise ValueError for NaN.
"""

import contextlib
import io
import itertools
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliptrap import cli, species
from cliptrap.dynamics import RateCoefficients
from cliptrap.estimation import DataSet
from cliptrap.species import MotBeamParams, chromium_52
from cliptrap.trap import IpTrapConfig

from conftest import make_scenario, root_bracket

FLOAT_KEYS = [k for k, key in cli.KEYS.items() if key.kind is float]
INT_KEYS = [k for k, key in cli.KEYS.items() if key.kind is int]
EXAMPLE_CFG = Path(__file__).resolve().parents[1] / "docs" / "example.cfg"

SPECIES_FILE = """\
name = 52Cr-file
mass_amu = 52
mu_bohr = 6
gamma_eg_hz = 5.02e6
branching_eg_ed = 2.5e5
"""
SPECIES_FLOAT_KEYS = [line.split(" = ")[0]
                      for line in SPECIES_FILE.splitlines()[1:]]


def run(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def with_species_line(key, value):
    return re.sub(rf"^{key} = .*$", f"{key} = {value}", SPECIES_FILE,
                  flags=re.M)


# --- the key table and the documented example -----------------------------

def test_example_cfg_matches_key_table():
    text = EXAMPLE_CFG.read_text()
    commented = re.findall(r"^#\s*([a-z][a-z0-9_]*)\s*=", text, flags=re.M)
    pairs = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    assert set(commented) == {"v_mt_cm3", "v_eff_cm3", "sweep_values",
                              "sweep_nmot_csv"}
    assert set(commented) | set(pairs) == set(cli.KEYS)
    assert pairs == cli.PAPER_DEFAULTS


# --- rejected CLI input -----------------------------------------------------

def test_misspelt_set_key_suggests_nearest(tmp_path):
    out = tmp_path / "report.txt"
    code, stdout, err = run("predict", "--paper-defaults", "--set",
                            "beta_dd_cm3_per_sec=5e-11", "--out", str(out))
    assert code == 2
    assert "unknown key 'beta_dd_cm3_per_sec'" in err
    assert "did you mean 'beta_dd_cm3_per_s'?" in err
    assert stdout == "" and not out.exists()


def test_misspelt_config_file_key_suggests_nearest(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("b_prime_g_per_cm = 12.5\nb_dprime_g_per_cm2 = 10.5\n"
                   "n_mot = 5e6\nt_mot_uk = 140\nsigma_mot_radial = 0.1\n")
    code, _, err = run("predict", "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:5: unknown key 'sigma_mot_radial'" in err
    assert "did you mean 'sigma_mot_radial_mm'?" in err


def test_unknown_key_without_near_match():
    code, _, err = run("predict", "--paper-defaults", "--set", "zzz=1")
    assert code == 2
    assert "unknown key 'zzz'" in err and "did you mean" not in err


# inf is accepted only for mot_saturation, where it selects the fully
# saturated MOT (test_inf_saturation_accepted).
NON_FINITE = [(key, value) for key in FLOAT_KEYS
              for value in ("nan", "inf", "-inf")
              if (key, value) != ("mot_saturation", "inf")]


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("key,value", NON_FINITE)
def test_non_finite_float_rejected(key, value, source, tmp_path):
    if source == "set":
        args = ["--set", f"{key}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args = ["--config", str(cfg)]
    code, stdout, err = run("predict", "--paper-defaults", *args)
    assert code == 2
    assert f"config key {key}: not a finite number: '{value}'" in err
    assert stdout == ""


@pytest.mark.parametrize("source", ["set", "file"])
def test_inf_saturation_accepted(source, tmp_path):
    if source == "set":
        args = ["--set", "mot_saturation=inf"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mot_saturation = inf\n")
        args = ["--config", str(cfg)]
    code, stdout, _ = run("predict", "--paper-defaults", *args)
    assert code == 0
    assert "n_steady_atoms = " in stdout


@pytest.mark.parametrize("key", INT_KEYS)
def test_fractional_count_rejected(key, tmp_path):
    out = tmp_path / "sim.csv"
    code, _, err = run("simulate", "--paper-defaults", "--set", f"{key}=2.7",
                       "--out", str(out))
    assert code == 2
    assert f"config key {key}: not a whole number: '2.7'" in err
    assert not out.exists()


def test_whole_count_in_float_notation_accepted(tmp_path):
    out = tmp_path / "sim.csv"
    code, _, _ = run("simulate", "--paper-defaults", "--set", "samples=5e0",
                     "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 6


def test_non_numeric_sweep_value_rejected():
    code, _, err = run("sweep", "--paper-defaults",
                       "--set", "sweep_values=10,nan,15")
    assert code == 2
    assert "config key sweep_values: not a finite number: 'nan'" in err


# --- given values that used to fall back to the computed default ----------

@pytest.mark.parametrize("command", ["predict", "sweep"])
@pytest.mark.parametrize("key,value", [("v_mt_cm3", "-5"), ("v_mt_cm3", "0"),
                                       ("v_eff_cm3", "-5"),
                                       ("v_eff_cm3", "0"),
                                       ("t_mt_uk", "-50")])
def test_non_positive_override_rejected(key, value, command, tmp_path):
    # only a blank (or t_mt_uk = 0) selects the computed value; a given
    # value out of range must not read as unset
    out = tmp_path / "out.txt"
    code, stdout, err = run(command, "--paper-defaults",
                            "--set", f"{key}={value}", "--out", str(out))
    assert code == 2
    assert (f"config key {key} must be positive, or blank to compute it: "
            f"'{value}'") in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("key", ["gamma_d_per_s", "beta_ed_cm3_per_s",
                                 "beta_dd_cm3_per_s", "n_mot"])
def test_negative_rate_or_atom_number_names_key(key, tmp_path):
    # the dataclass checks behind these keys said only "loss coefficients
    # must be >= 0", or named the detuning for a negative n_mot; n_mot = 0
    # divided by zero in kappa = N/N_MOT and exited 3
    bound, bad = (("> 0", ["-5", "0"]) if key == "n_mot"
                  else (">= 0", ["-5"]))
    out = tmp_path / "out.txt"
    for value in bad:
        code, stdout, err = run("predict", "--paper-defaults",
                                "--set", f"{key}={value}", "--out", str(out))
        assert code == 2
        assert err == f"error: config key {key} must be {bound}: '{value}'\n"
        assert stdout == "" and not out.exists()
    assert run("simulate", "--paper-defaults", "--set", f"{key}=0",
               "--set", "samples=2")[0] == (2 if key == "n_mot" else 0)


@pytest.mark.parametrize("kind", ["loading_curve", "decay_curve",
                                  "tof_series", "kappa_points"])
@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_synth_points_below_two_names_key(kind, points, tmp_path):
    # 0 points once ended in an IndexError traceback (decay_curve), a
    # header-only CSV (kappa_points) or 3 points (tof_series)
    out = tmp_path / "synth.csv"
    code, stdout, err = run("synth", "--paper-defaults",
                            "--set", f"synth_kind={kind}",
                            "--set", f"synth_points={points}",
                            "--out", str(out))
    assert code == 2
    assert err == f"error: config key synth_points must be >= 2: '{points}'\n"
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("command,key,bound,values", [
    ("simulate", "samples", 2, ["-1", "0", "1"]),
    ("sweep", "sweep_points", 1, ["-1", "0"]),
])
def test_point_counts_name_their_key(command, key, bound, values, tmp_path):
    # samples = 1 said "need at least 2 samples", sweep_points = 0 "values
    # must be non-empty" and -1 numpy's "Number of samples, -1, must be
    # non-negative."; none named its key
    out = tmp_path / "out.csv"
    for value in values:
        code, stdout, err = run(command, "--paper-defaults",
                                "--set", f"{key}={value}", "--out", str(out))
        assert code == 2
        assert err == f"error: config key {key} must be >= {bound}: " \
                      f"'{value}'\n"
        assert stdout == "" and not out.exists()
    assert run(command, "--paper-defaults", "--set", f"{key}={bound}",
               "--out", str(out))[0] == 0


def non_finite_cells(command, stdout):
    """The printed numbers that are inf or NaN, outside a sweep row whose
    error cell is filled (a failed point, whose outputs are NaN)."""
    lines = stdout.splitlines()
    if command == "predict":
        cells = [line.split(" = ", 1)[1] for line in lines]
    else:
        rows = [row.split(",") for row in lines[1:]]
        if command == "sweep":
            rows = [row for row in rows if not row[-1]]
        cells = [cell for row in rows for cell in row]
    bad = []
    for cell in cells:
        try:
            if not math.isfinite(float(cell)):
                bad.append(cell)
        except ValueError:
            pass  # a word, such as True
    return bad


def test_key_scan_exits_cleanly():
    # every float key alone at four extremes, through the four commands
    # that build a scenario: exit 0 with finite numbers, or exit 2 naming
    # the key that was set; never exit 3, and never a numpy warning
    failures, runs = [], 0
    for key in FLOAT_KEYS:
        for value in ("1e-300", "1e-30", "1e30", "1e300"):
            for command in ("predict", "simulate", "sweep", "synth"):
                runs += 1
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, stdout, err = run(command, "--paper-defaults",
                                            "--set", f"{key}={value}")
                what = f"{command} {key}={value}: exit {code} {err.strip()}"
                if caught:
                    failures.append(f"{what}; warned {caught[0].message}")
                elif code == 2 and key not in err:
                    failures.append(f"{what}; key not named")
                elif code == 0 and (bad := non_finite_cells(command,
                                                           stdout)):
                    failures.append(f"{what}; printed {bad}")
                elif code not in (0, 2):
                    failures.append(what)
    assert runs == 336
    assert failures == []


# One or two float keys of cli.KEYS, each log-uniform from 1e-300 to 1e300
EXTREME_SETTING = st.dictionaries(
    st.sampled_from(FLOAT_KEYS),
    st.floats(-300, 300).map(lambda e: repr(10.0 ** e)),
    min_size=1, max_size=2)
PAIR = {"beta_dd_cm3_per_s": "1e300", "v_mt_cm3": "1e-300"}


@settings(max_examples=250, deadline=None, derandomize=True)
@given(setting=EXTREME_SETTING)
@example(setting=PAIR)
@example(setting={**PAIR, "synth_kind": "decay_curve"})
@example(setting={**PAIR, "synth_kind": "loading_curve"})
@example(setting={"v_mt_cm3": "1e300", "t_end_s": "1e150"})
@example(setting={"gamma_d_per_s": "1e200", "t_end_s": "1e150"})
@example(setting={"eta": "1e-300", "n_mot": "1e-150"})
@example(setting={"v_mt_cm3": "1e300", "n_mot": "1e150"})
@example(setting={"v_mt_cm3": "1e300", "n_mot": "1e-150"})
@example(setting={"eta": "1e-300", "n_mot": "1e150"})
@example(setting={"v_mt_cm3": "5e-3", "b_prime_g_per_cm": "1e300"})
@example(setting={"v_mt_cm3": "1e300", "n_mot": "1e-12"})
@example(setting={"v_mt_cm3": "1e-300", "eta": "1e-12"})
def test_extreme_keys_exit_cleanly(setting):
    # exit 0 with finite numbers, or exit 2 naming a key that was set; a
    # failed sweep point's NaN cells are allowed, and eta = 0 and
    # mot_saturation = 0, whose tau_eff is inf, are never drawn.  An
    # example may add synth_kind
    sets = [arg for key, value in setting.items()
            for arg in ("--set", f"{key}={value}")]
    for command in ("predict", "simulate", "sweep", "synth"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, err = run(command, "--paper-defaults", *sets)
        what = f"{command} {setting}: exit {code} {err.strip()}"
        assert not caught, f"{what}; warned {caught[0].message}"
        assert code in (0, 2), what
        if code == 2:
            assert any(re.search(rf"\b{key}\b", err) for key in setting), what
        else:
            assert non_finite_cells(command, stdout) == [], what


def steady_state_bracket(scen):
    """m = min(R / gamma, sqrt(R V / (2 beta))), with N_inf in [m / 2, m],
    or None at R = 0 or where m is not a normal float."""
    r, gamma = scen.loading_rate, scen.gamma
    beta, v = scen.coefficients.beta_dd, scen.v_mt
    if not r > 0:
        return None
    logs = [math.log(r) - math.log(gamma)] if gamma else []
    if beta:
        logs.append(0.5 * (math.log(r) + math.log(v) - math.log(2 * beta)))
    return root_bracket(logs)


def test_steady_state_within_bracket_key_scan():
    # every float key alone at 1e+-30 and 1e+-300, and every pair of them
    # at 1e+-150 and 1e+-300: wherever the scenario builds and its bracket
    # is a normal float, N_inf lies in it.  gamma * gamma overflows a float
    # at gamma_d_per_s=1e300 or n_mot=1e300, so N_inf may not square gamma
    singles = [{key: value} for key in FLOAT_KEYS
               for value in ("1e-300", "1e-30", "1e30", "1e300")]
    extremes = ("1e-300", "1e-150", "1e150", "1e300")
    pairs = [{a: va, b: vb} for a, b in itertools.combinations(FLOAT_KEYS, 2)
             for va in extremes for vb in extremes]
    failures, checked = [], 0
    for setting in singles + pairs:
        try:
            scen = cli.scenario_from_config({**cli.PAPER_DEFAULTS,
                                             **setting})
        except ValueError:
            continue
        m = steady_state_bracket(scen)
        if m is None:
            continue
        checked += 1
        if not 0.5 * m <= scen.n_mt_steady <= m * (1 + 1e-12):
            failures.append((setting, scen.n_mt_steady, m))
    assert checked > 2000
    assert failures == []


def test_blank_or_zero_still_computes():
    code, blank, _ = run("predict", "--paper-defaults", "--set", "v_mt_cm3=",
                         "--set", "v_eff_cm3=", "--set", "t_mt_uk=0")
    assert code == 0
    _, virial, _ = run("predict", "--paper-defaults", "--set", "t_mt_uk=52.5")
    assert blank == virial


# Keys a blank value leaves unset: those whose default is blank, and the
# computed t_mt_uk
BLANK_IS_UNSET = {"v_mt_cm3", "v_eff_cm3", "sweep_values", "sweep_nmot_csv",
                  "t_mt_uk"}


@pytest.mark.parametrize("source", ["set", "file"])
@pytest.mark.parametrize("name", list(cli.KEYS))
def test_blank_value_is_unset_only_where_documented(name, source, tmp_path):
    # a blank value used to become the key's default in silence: a blank
    # beta_ed_cm3_per_s printed gamma_ed_per_s = 0 over the paper's 6e-10
    key = cli.KEYS[name]
    cfg = tmp_path / "blank.cfg"
    cfg.write_text(f"{name} =\n")
    blank = (["--set", f"{name}="] if source == "set"
             else ["--config", str(cfg)])
    code, stdout, err = run("predict", "--paper-defaults", *blank)
    if name in BLANK_IS_UNSET:
        unset = ["--set", f"{name}={key.default}"] if key.default else []
        assert (code, stdout, err) == run("predict", "--paper-defaults",
                                          *unset)
        assert code == 0
    elif key.default is None:
        assert (code, stdout, err) == (
            2, "", f"error: missing required config key: {name}\n")
    else:
        assert (code, stdout, err) == (
            2, "", f"error: config key {name} cannot be blank\n")


def test_species_file_misspelt_key(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_text(SPECIES_FILE.replace("mass_amu", "mass_am"))
    code, _, err = run("predict", "--paper-defaults",
                       "--set", f"species={path}")
    assert code == 2
    assert "unknown key 'mass_am'; did you mean 'mass_amu'?" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", SPECIES_FLOAT_KEYS)
def test_species_file_non_finite_rejected(key, value, tmp_path):
    path = tmp_path / "cr.txt"
    path.write_text(with_species_line(key, value))
    code, stdout, err = run("predict", "--paper-defaults",
                            "--set", f"species={path}")
    assert code == 2
    assert f"{key}: not a finite number: '{value}'" in err
    assert stdout == ""


def test_every_species_key_has_an_effect(tmp_path):
    # the species-file version of test_every_key_is_read: 10 % more of each
    # number a species file gives changes predict's report, and a key that
    # no formula reads is unknown
    path = tmp_path / "cr.txt"

    def predict(text):
        path.write_text(text)
        return run("predict", "--paper-defaults", "--set", f"species={path}")

    code, base, _ = predict(SPECIES_FILE)
    assert code == 0
    for key in species._SPECIES_KEYS:
        if key != "name":
            value = float(re.search(rf"^{key} = (.*)$", SPECIES_FILE,
                                    flags=re.M).group(1))
            code, report, _ = predict(with_species_line(key, 1.1 * value))
            assert code == 0 and report != base, key
    for line in ("isat_mw_cm2 = 8.52", "wavelength_nm = 425.6",
                 "branching_mg_md = 5200"):
        code, report, err = predict(f"{SPECIES_FILE}{line}\n")
        assert code == 2 and report == ""
        assert f"unknown key {line.split()[0]!r}" in err


def test_species_file_accepted_through_cli(tmp_path):
    path = tmp_path / "cr.txt"
    path.write_text(SPECIES_FILE)
    code, stdout, _ = run("predict", "--paper-defaults",
                          "--set", f"species={path}")
    assert code == 0
    assert "loading_rate_atoms_per_s = " in stdout


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NUMERIC_KEYS = FLOAT_KEYS + INT_KEYS
BAD_TEXT = st.one_of(
    st.sampled_from(["nan", "NaN", "-nan", "inf", "+inf", "-inf",
                     "Infinity", "-Infinity", "1e999", "-1e999"]),
    st.text(min_size=1).filter(lambda s: s.strip() and not _is_number(s)))


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(NUMERIC_KEYS), text=BAD_TEXT)
def test_property_bad_numeric_text_exits_2(key, text):
    if key == "mot_saturation" and _is_number(text) and float(text) > 0:
        return  # +inf is the fully saturated MOT
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.txt"
        code, stdout, err = run("predict", "--paper-defaults",
                                "--set", f"{key}={text}", "--out", str(out))
        assert code == 2
        assert f"config key {key}" in err
        assert stdout == "" and not out.exists()


# --- NaN-safe library validators -------------------------------------------

NAN_CASES = {
    "IpTrapConfig": lambda: IpTrapConfig(math.nan, 10.5),
    "RateCoefficients": lambda: RateCoefficients(beta_dd=math.nan),
    "LoadingScenario": lambda: replace(make_scenario(), v_eff=math.nan),
    "Species": lambda: replace(chromium_52(), mass=math.nan),
    "MotBeamParams": lambda: MotBeamParams(math.inf, -1.0, math.nan, 1e-4,
                                           1e-4, 1e-4),
    "DataSet": lambda: DataSet(np.arange(3.0), np.arange(3.0),
                               np.array([1.0, math.nan, 1.0])),
}


@pytest.mark.parametrize("name", sorted(NAN_CASES))
def test_nan_rejected_by_constructor(name):
    with pytest.raises(ValueError):
        NAN_CASES[name]()
