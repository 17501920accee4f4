"""Every pytest.approx call states its absolute tolerance.

approx(x, rel=r) without abs also accepts an absolute error of 1e-12,
which is the larger tolerance for |x| below 1e-12 / r: at the SI volumes
(~5e-9 m^3) and loss coefficients (~1e-17 m^3/s) of this package, such a
check accepts far more error than it reads.  So each call gives abs: 0
where the expected value is nonzero, and a stated scale where it is 0.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def approx_calls_without_abs(path: Path) -> list[str]:
    """file:line of each approx call in path that gives no abs."""
    return [f"{path.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and "approx" in (getattr(node.func, "attr", None),
                             getattr(node.func, "id", None))
            and not any(kw.arg == "abs" for kw in node.keywords)]


def test_every_approx_states_abs():
    calls = [call for path in sorted(TESTS.glob("*.py"))
             for call in approx_calls_without_abs(path)]
    assert calls == []


def test_guard_sees_a_call_without_abs(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import pytest\n"
                     "assert 1.0 == pytest.approx(1.0, rel=1e-9)\n"
                     "assert 1.0 == pytest.approx(1.0, rel=1e-9, abs=0)\n")
    assert approx_calls_without_abs(probe) == ["probe.py:2"]
