"""Every error the toolkit raises has an exit code.

cli.main maps an exception to an exit code by its type: ValueError and
OSError to 2 (an input error, with an `error:` line), RuntimeError and
ArithmeticError to 3 (a numerical failure).  An exception class defined
in the package that derives from none of them would leave main as a
traceback and exit 1, so every one must derive from a mapped type, and
main's handlers must name exactly these.
"""

import ast
import builtins
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"
EXIT_CODES = {2: {"ValueError", "OSError"},
              3: {"RuntimeError", "ArithmeticError"}}


def handled(source: str) -> dict[int, set[str]]:
    """{exit code: the exception names its handler catches} for each
    except clause of main in source that returns a constant."""
    codes = {}
    main = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    for node in ast.walk(main):
        if not isinstance(node, ast.ExceptHandler):
            continue
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        for ret in ast.walk(node):
            if (isinstance(ret, ast.Return)
                    and isinstance(ret.value, ast.Constant)):
                codes[ret.value.value] = {ast.unparse(t) for t in types}
    return codes


def unmapped(source: str, namespace: dict) -> list[str]:
    """The exception classes defined at the top of source, looked up in
    the namespace it runs in, that derive from no type main maps."""
    mapped = tuple(getattr(builtins, name)
                   for names in EXIT_CODES.values() for name in names)
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            and issubclass(cls := namespace[node.name], BaseException)
            and not issubclass(cls, mapped)]


def test_main_maps_exactly_these_types():
    assert handled((PACKAGE / "cli.py").read_text()) == EXIT_CODES


def test_every_error_class_has_an_exit_code():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"cliptrap.{path.stem}")
        found.update(dict.fromkeys(unmapped(path.read_text(), vars(module)),
                                   path.stem))
    assert found == {}


def test_an_unmapped_error_is_caught():
    probe = '''
class ConfigError(Exception):
    """Bad configuration or input data."""

class RangeError(ValueError):
    pass

class Key:
    pass

def main():
    try:
        pass
    except (ConfigError, ValueError, OSError):
        return 2
    except (RuntimeError, ArithmeticError):
        return 3
    return 0
'''
    namespace = {}
    exec(probe, namespace)
    assert unmapped(probe, namespace) == ["ConfigError"]
    assert handled(probe) == {2: {"ConfigError", "ValueError", "OSError"},
                              3: {"RuntimeError", "ArithmeticError"}}
