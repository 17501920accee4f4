"""Config keys are named in error messages on one path.

A model error carries the inputs that set it (dynamics.ModelInputError's
inputs), and cli.main alone turns them into config keys and writes
"it is set by ...".  A message that names its keys where it is raised
would bypass that map, so the phrase may be formed in cli.main only.
The map is read off cli.KEYS, whose rows name the input each key feeds;
every input a model error can carry must have exactly one such row.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"
PHRASE = "it is set by"


def phrase_sites(path: Path) -> list[str]:
    """module.function of each string constant that holds PHRASE, read in
    f-strings too; a constant outside any function is module.<module>."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and PHRASE in node.value):
            sites.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_keys_are_named_only_in_cli_main():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in phrase_sites(path)]
    assert sites == ["cli.main"]


def nameable_inputs(path: Path) -> set[str]:
    """The model inputs a model error raised in path can carry: the string
    inputs of each ModelInputError(message, *inputs) call and the field
    name of each _field_error(name, bound) call, a loop variable's values
    included."""
    loops = {}  # loop variable -> the string constants it runs over
    inputs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops[node.target.id] = [elt.value for elt in node.iter.elts
                                     if isinstance(elt, ast.Constant)]
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "attr", getattr(node.func, "id", None))
        args = {"ModelInputError": node.args[1:],
                "_field_error": node.args[:1]}.get(callee, [])
        for arg in args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                inputs.add(arg.value)
            elif isinstance(arg, ast.Name):
                inputs.update(loops.get(arg.id, []))
    return inputs


def test_every_nameable_input_has_one_key():
    # cli.main names a model error's inputs by the keys that feed them; an
    # input with no key would be a KeyError there, a traceback and exit 1
    from cliptrap import cli, dynamics
    from cliptrap.cloud import CloudRangeError, UntrappedCloudError

    inputs = set().union(*map(nameable_inputs, PACKAGE.glob("*.py")),
                         dynamics.LOADING_RATE_INPUTS,
                         CloudRangeError().inputs,
                         UntrappedCloudError().inputs)
    assert {"eta", "temperature", "sigma_axial", "n0"} <= inputs
    feeders = {name: [key for key, row in cli.KEYS.items()
                      if row.feeds == name] for name in inputs}
    assert {name: keys for name, keys in feeders.items()
            if len(keys) != 1} == {}
