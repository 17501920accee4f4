"""Config keys are named in error messages on one path.

A model error carries the inputs that set it (dynamics.ModelInputError's
inputs), and cli.main alone turns them into config keys and writes
"it is set by ...".  A message that names its keys where it is raised
would bypass that map, so the phrase may be formed in cli.main only.
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
