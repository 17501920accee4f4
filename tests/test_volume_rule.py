"""V_MT is computed on one path.

A LoadingScenario fills an unset trap volume with cloud.trap_volume at
its trap temperature, and that rule is written out nowhere else: under
src/cliptrap, trap_volume may be referred to only by
LoadingScenario.__post_init__ and by cli.cmd_predict, which reports the
gravity-free volume beside the scenario's.  A second copy of the rule, in
the CLI or the sweeps, could drift apart from the scenario's.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"
NAME = "trap_volume"


def volume_sites(source: str, module: str) -> list[str]:
    """module.Class.function of each reference to trap_volume, through an
    import alias or a module attribute too; its definition and imports are
    no reference, and one outside any function is module.<module>."""
    tree = ast.parse(source)
    names = {NAME} | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names
                      if alias.name == NAME and alias.asname}
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            where = [*where, node.name]
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr == NAME):
            sites.append(".".join([module, *(where or ["<module>"])]))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, [])
    return sites


def test_trap_volume_is_read_by_the_scenario_and_predict_only():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in volume_sites(path.read_text(), path.stem)]
    assert sites == ["cli.cmd_predict",
                     "dynamics.LoadingScenario.__post_init__"]


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
    assert volume_sites(probe, "sweeps") == [
        "sweeps.scenario_at", "sweeps.Sweep.point", "sweeps.<module>"]
