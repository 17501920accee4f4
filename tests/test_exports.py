"""Every name the package exports has a reader.

Each name cliptrap/__init__.py imports is read outside that file: by
another module of the package, by the benchmark (whose tracer names its
targets as strings) or by the acceptance criteria.  A read is a loaded
Name or Attribute, or a string constant that is an identifier; a
definition is not a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cliptrap"


def exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def read_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id if isinstance(node, ast.Name)
                          else node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def test_every_export_has_a_reader():
    sources = [*(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
               *(ROOT / "bench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(read_names, sources))
    assert sorted(exported() - read) == []
