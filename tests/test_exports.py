"""Every name a module of the package defines has a reader.

The modules are the API, so each function, class and constant defined at
the top level of src/cliptrap/*.py must be read somewhere other than its
own definition: by a module of the package, by the benchmark (whose
tracer names its targets as strings) or by the acceptance criteria.  A
read is a loaded Name or Attribute, or a string constant that is an
identifier; a definition is not a read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cliptrap"


def defined(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def read_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if isinstance(node.ctx, ast.Load):
                names.add(node.id if isinstance(node, ast.Name)
                          else node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def unread(package: Path, readers: list[Path]) -> list[str]:
    """package's module-level names that nothing in it or in readers reads,
    as module.name; a statement's reads of the names it defines do not
    count."""
    definitions, read = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = defined(node)
            definitions += [(n, path.stem) for n in names]
            read |= read_names(node) - names
    for path in readers:
        read |= read_names(ast.parse(path.read_text()))
    return sorted(f"{module}.{name}" for name, module in definitions
                  if name not in read)


def test_every_module_level_name_has_a_reader():
    readers = [*(ROOT / "bench").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    assert unread(PACKAGE, readers) == []


def test_an_unread_function_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "LIMIT = 3\n\n\ndef countdown(n):\n"
        "    return countdown(n - 1) if n > LIMIT else n\n")
    reader = tmp_path / "reader.py"
    # neither an import nor a function's call of itself is a read
    reader.write_text("from mod import countdown\n")
    assert unread(package, [reader]) == ["mod.countdown"]
    reader.write_text("import mod\nmod.countdown(5)\n")
    assert unread(package, [reader]) == []
