"""A lab unit is stated once, in the name of the quantity it measures.

cli.UNITS maps each lab-unit token to the SI value of one unit, and a
config key, a report line or a sweep table's first column is in the
longest token u for which "_{u}_" is in its name + "_", or in SI where
there is none.  cli._get converts a key to SI through its name, and
cli._report converts an SI value back through its line's name, so no
other factor may convert a unit in cli.py: a hand-written 1e6 next to a
name could disagree with it.  The one literal factor left there is the
invented relative sigma of kappa points read without a sigma column.
The lines a fit report can print are read off the rows of cli.FITS, and
cmd_predict's off its source.
"""

import ast
import math
from pathlib import Path

import pytest

from cliptrap import cli

CLI = Path(__file__).resolve().parents[1] / "src" / "cliptrap" / "cli.py"

# The unit of every config key, report line and sweep header
UNIT_OF = {
    # config keys
    "species": "", "b_prime_g_per_cm": "g_per_cm",
    "b_dprime_g_per_cm2": "g_per_cm2", "b0_mg": "mg", "gamma_d_per_s": "",
    "eta": "", "beta_ed_cm3_per_s": "cm3_per_s",
    "beta_dd_cm3_per_s": "cm3_per_s", "n_mot": "", "mot_saturation": "",
    "mot_detuning_gamma": "", "t_mot_uk": "uk", "t_mt_uk": "uk",
    "sigma_mot_radial_mm": "mm", "sigma_mot_axial_mm": "mm",
    "v_mt_cm3": "cm3", "v_eff_cm3": "cm3", "t_end_s": "", "samples": "",
    "n0_atoms": "", "sweep_parameter": "", "sweep_start": "",
    "sweep_stop": "", "sweep_points": "", "sweep_values": "",
    "sweep_nmot_csv": "", "sweep_outputs": "", "synth_kind": "",
    "synth_noise": "", "synth_points": "", "seed": "",
    # report lines
    "loading_rate_atoms_per_s": "", "gamma_ed_per_s": "",
    "v_mt_cm3_no_gravity": "cm3", "n_steady_atoms": "", "kappa": "",
    "tau_eff_s": "", "t_mt_virial_prediction_uk": "uk",
    "majorana_safe": "", "beta_dd_sigma_cm3_per_s": "cm3_per_s",
    "beta_ed_sigma_cm3_per_s": "cm3_per_s", "correlation": "",
    "converged": "", "gamma_per_s": "", "gamma_sigma_per_s": "",
    "temperature_uk": "uk", "temperature_sigma_uk": "uk",
    "sigma0_mm": "mm", "peak_density_per_cm3": "per_cm3",
    "center_y_mm": "mm", "center_z_mm": "mm", "note": "",
    # sweep headers
    "radial_gradient_g_per_cm": "g_per_cm",
    "axial_curvature_g_per_cm2": "g_per_cm2", "offset_field_mg": "mg"}


def predict_lines(source: str) -> set[str]:
    """The name of each row cmd_predict reports: a (name, value) tuple in a
    list."""
    predict = next(node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "cmd_predict")
    return {elt.elts[0].value for node in ast.walk(predict)
            if isinstance(node, ast.List) for elt in node.elts
            if isinstance(elt, ast.Tuple) and len(elt.elts) == 2
            and isinstance(elt.elts[0], ast.Constant)
            and isinstance(elt.elts[0].value, str)}


def fit_lines(fits) -> set[str]:
    """Every line a fit report can print, read off the rows of fits: each
    row's line, and the _sigma line after its parameter's name where one
    follows."""
    lines = set()
    for _, rows in fits.values():
        for line, parameter, sigma in rows:
            lines.add(line)
            if sigma:
                lines.add(line.replace(parameter, f"{parameter}_sigma", 1))
    return lines


def test_every_name_is_in_its_unit():
    names = (set(cli.KEYS) | predict_lines(CLI.read_text())
             | fit_lines(cli.FITS) | set(cli._SWEEP_COLUMN.values()))
    assert names == set(UNIT_OF)
    assert {name: cli._unit(name) for name in UNIT_OF} == UNIT_OF


def test_a_fit_line_without_its_unit_is_caught(monkeypatch):
    # sigma0 in m, with no mm token, would print the SI value
    fit, rows = cli.FITS["tof"]
    monkeypatch.setitem(cli.FITS, "tof", (fit, (
        *rows[:1], ("sigma0", "sigma0", False), *rows[2:])))
    with pytest.raises(AssertionError):
        test_every_name_is_in_its_unit()


def test_units_are_the_lab_units_in_si():
    gauss, cm = 1e-4, 1e-2
    assert cli.UNITS == pytest.approx({
        "": 1.0, "g_per_cm": gauss / cm, "g_per_cm2": gauss / cm ** 2,
        "mg": 1e-3 * gauss, "cm3": cm ** 3, "cm3_per_s": cm ** 3,
        "per_cm3": cm ** -3, "uk": 1e-6, "mm": 1e-3}, rel=1e-15, abs=0)


@pytest.mark.parametrize("unit", sorted(cli.UNITS))
def test_reports_convert_by_an_exact_power_of_ten(unit):
    # _report multiplies by 1 / scale, which is the decimal literal the
    # hand-written factors were, so reports keep their bytes
    inverse = 1 / cli.UNITS[unit]
    assert inverse == float(f"1e{round(math.log10(inverse))}")


def test_a_report_multiplies_by_the_inverse_unit():
    # x / 1e-6 differs from x * 1e6 in the last bit for some x, and here
    # in the sixth digit too: 1.96034 against the literal factor's 1.96033
    assert cli._report([("temperature_uk", 1.960335e-06)]) == (
        "temperature_uk = 1.96033\n")


def literal_factors(source: str, module: str) -> list[str]:
    """module.function of each product with a numeric literal factor and
    each quotient by one, *= and /= included; one outside any function is
    module.<module>.  1 / x is a reciprocal, not a scaled x."""
    def literal(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool))

    def scaled(node):
        if isinstance(node, ast.BinOp):
            left, op, right = node.left, node.op, node.right
        elif isinstance(node, ast.AugAssign):
            left, op, right = node.target, node.op, node.value
        else:
            return False
        return (isinstance(op, ast.Mult) and literal(left)
                or isinstance(op, (ast.Mult, ast.Div)) and literal(right))

    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = [*where, node.name]
        if scaled(node):
            sites.append(".".join([module, *(where or ["<module>"])]))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), [])
    return sites


def test_no_literal_converts_a_unit():
    # np.abs(kappa) * 1e-3, kappa's invented relative sigma
    assert literal_factors(CLI.read_text(), "cli") == ["cli._read_kappa_csv"]


def test_a_literal_unit_factor_is_reported():
    # reciprocals and UNITS lookups are no literal factor
    probe = '''
V_LITRES = 1e-3 * 5

def cmd_predict(scen):
    return _report([("v_mt_cm3", scen.v_mt * 1e6),
                    ("t_uk", 1e6 * scen.t), ("n0_per_cm3", scen.n0 / -1e6),
                    ("kappa", scen.kappa * (1 / UNITS["cm3"]))])

def _read_profile_csv(data):
    y = data[:, 0]
    y *= 1e-3
    return y, data[:, 1] * UNITS["mm"], 1 / data[:, 2]
'''
    assert literal_factors(probe, "cli") == [
        "cli.<module>", "cli.cmd_predict", "cli.cmd_predict",
        "cli.cmd_predict", "cli._read_profile_csv"]
