"""Reported quantities come from the scenario, and the cloud's shape from
one module.

A LoadingScenario fills an unset trap volume with cloud.trap_volume at
its trap temperature and forms the gravity-free volume, the virial trap
temperature and the Majorana check as properties, and those rules are
written out nowhere else: under src/cliptrap, trap_volume,
mt_temperature_prediction and trap.majorana_safe may be referred to only
inside LoadingScenario, and predict and sweep read the scenario's
attributes.  A second copy of a rule, in the CLI or the sweeps, could
drift apart from the scenario's.

Likewise a ThermalCloud is built only by cloud.make_thermal_cloud, whose
checks name an untrapped cloud or one out of float range, and the scale
lengths are read only inside cloud: a model that forms the cloud's shape
elsewhere skips those checks, and a change to the shape (the offset field
B0, say) would have to be made twice.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"


def reference_sites(source: str, module: str, name: str,
                    calls: bool = False) -> list[str]:
    """module.Class.function of each reference to name, through an import
    alias or as an attribute of an imported module too, or with calls only
    of each call of it; its definition and imports are no reference, nor
    is an attribute of an object (scen.majorana_safe, the scenario's
    property), and one outside any function is module.<module>."""
    tree = ast.parse(source)
    imports = [alias for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    names = {name} | {alias.asname for alias in imports
                      if alias.name == name and alias.asname}
    modules = {alias.asname or alias.name.split(".")[0] for alias in imports}
    sites = []

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node

    def named(node):
        if isinstance(node, ast.Attribute) and node.attr == name:
            base = root(node.value)
            return isinstance(base, ast.Name) and base.id in modules
        return isinstance(node, ast.Name) and node.id in names

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            where = [*where, node.name]
        if (isinstance(node, ast.Call) and named(node.func) if calls
                else named(node)):
            sites.append(".".join([module, *(where or ["<module>"])]))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, [])
    return sites


def package_sites(name: str, calls: bool = False) -> list[str]:
    return [site for path in sorted(PACKAGE.glob("*.py"))
            for site in reference_sites(path.read_text(), path.stem, name,
                                        calls)]


# Every site that may refer to each rule a reported quantity comes from
SCENARIO_SITES = {
    "trap_volume": ["dynamics.LoadingScenario.__post_init__",
                    "dynamics.LoadingScenario.v_mt_no_gravity"],
    "mt_temperature_prediction": ["dynamics.LoadingScenario.t_mt_prediction"],
    "majorana_safe": ["dynamics.LoadingScenario.majorana_safe"]}


@pytest.mark.parametrize("name", SCENARIO_SITES)
def test_reported_quantity_is_formed_by_the_scenario_only(name):
    assert package_sites(name) == SCENARIO_SITES[name]


def test_a_copied_volume_rule_is_reported():
    # the scenario's property majorana_safe is read, not copied
    probe = '''
import cliptrap.trap
from . import cloud
from . import trap as fields
from .cloud import trap_volume as volume
from .trap import majorana_safe as safe

def scenario_at(base, trap):
    return volume(base.species, trap, base.mt_temperature)

class Sweep:
    def point(self, trap):
        return cloud.trap_volume(self.species, trap, self.t)

    def flags(self, scen):
        return (safe(scen.trap), fields.majorana_safe(scen.trap),
                cliptrap.trap.majorana_safe(scen.trap), scen.majorana_safe)

VOLUME = cloud.trap_volume
'''
    assert reference_sites(probe, "sweeps", "trap_volume") == [
        "sweeps.scenario_at", "sweeps.Sweep.point", "sweeps.<module>"]
    assert reference_sites(probe, "sweeps", "majorana_safe") == [
        "sweeps.Sweep.flags"] * 3


def test_the_cloud_shape_has_one_home():
    assert package_sites("ThermalCloud", calls=True) == [
        "cloud.make_thermal_cloud"]
    assert package_sites("scale_lengths") == [
        "cloud._shape", "cloud.column_profile_model.model"]


def test_a_copied_cloud_shape_is_reported():
    # an annotation names ThermalCloud without building one
    probe = '''
from . import cloud
from .cloud import ThermalCloud as Cloud, scale_lengths

def fit(species, trap, t, n0):
    xi1, xi2, sigma_z = scale_lengths(species, trap, t)

    def model(p):
        return Cloud(1.0, p[1], xi1, xi2, sigma_z, p[0])
    return model, cloud.ThermalCloud(1.0, t, xi1, xi2, sigma_z, n0)

def width(c: cloud.ThermalCloud) -> float:
    return cloud.scale_lengths(c.species, c.trap, c.temperature)[0]
'''
    assert reference_sites(probe, "estimation", "ThermalCloud",
                           calls=True) == ["estimation.fit.model",
                                           "estimation.fit"]
    assert reference_sites(probe, "estimation", "scale_lengths") == [
        "estimation.fit", "estimation.width"]
