"""V_MT is computed on one path, and the trap cloud's shape in one module.

A LoadingScenario fills an unset trap volume with cloud.trap_volume at
its trap temperature, and that rule is written out nowhere else: under
src/cliptrap, trap_volume may be referred to only by
LoadingScenario.__post_init__ and by cli.cmd_predict, which reports the
gravity-free volume beside the scenario's.  A second copy of the rule, in
the CLI or the sweeps, could drift apart from the scenario's.

Likewise a ThermalCloud is built only by cloud.make_thermal_cloud, whose
checks name an untrapped cloud or one out of float range, and the scale
lengths are read only inside cloud: a model that forms the cloud's shape
elsewhere skips those checks, and a change to the shape (the offset field
B0, say) would have to be made twice.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"


def reference_sites(source: str, module: str, name: str,
                    calls: bool = False) -> list[str]:
    """module.Class.function of each reference to name, through an import
    alias or a module attribute too, or with calls only of each call of
    it; its definition and imports are no reference, and one outside any
    function is module.<module>."""
    tree = ast.parse(source)
    names = {name} | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names
                      if alias.name == name and alias.asname}
    sites = []

    def named(node):
        return (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr == name)

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


def test_trap_volume_is_read_by_the_scenario_and_predict_only():
    assert package_sites("trap_volume") == [
        "cli.cmd_predict", "dynamics.LoadingScenario.__post_init__"]


def test_a_copied_volume_rule_is_reported():
    probe = '''
from . import cloud
from .cloud import trap_volume as volume

def scenario_at(base, trap):
    return volume(base.species, trap, base.mt_temperature)

class Sweep:
    def point(self, trap):
        return cloud.trap_volume(self.species, trap, self.t)

VOLUME = cloud.trap_volume
'''
    assert reference_sites(probe, "sweeps", "trap_volume") == [
        "sweeps.scenario_at", "sweeps.Sweep.point", "sweeps.<module>"]


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
