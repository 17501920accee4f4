"""Every iterative fit's model is built by a per-fit factory.

estimation.least_squares evaluates its model once per candidate, so a
model that converts or checks its fixed abscissae on each evaluation
pays for that on every pass.  dynamics.kappa_fit_model,
dynamics.decay_fit_model and cloud.column_profile_model prepare their
abscissae once, when the fit builds them, and their models run the one
formula of their quantity: kappa_fit_model the _kappa that
kappa_of_abscissa calls, decay_fit_model the _riccati_terms that decay
and evolve share.  A model written inline in a fit, as a closure or a
lambda, would skip both.  So every least_squares call in estimation
passes a model that is either a call of one of those factories or a name
its function binds only to such a call.
"""

import ast
from pathlib import Path

ESTIMATION = (Path(__file__).resolve().parents[1] / "src" / "cliptrap"
              / "estimation.py")
FACTORIES = ("kappa_fit_model", "decay_fit_model", "column_profile_model")


def called(node: ast.AST) -> str | None:
    """The name a call calls, directly or as a module's attribute."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def unfactored_models(source: str, module: str) -> list[str]:
    """module.function of each least_squares call whose model is neither a
    factory's call (through an import alias too) nor a name that its
    function binds, by assignment or def, only to such calls."""
    tree = ast.parse(source)
    factories = set(FACTORIES) | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name in FACTORIES and alias.asname}
    sites = []

    def built(node, bindings) -> bool:
        if called(node) in factories:
            return True
        values = bindings.get(node.id) if isinstance(node, ast.Name) else None
        return bool(values) and all(called(v) in factories for v in values)

    def visit(function, where):
        bindings: dict[str, list] = {}
        calls = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(target.id, []).append(node.value)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node is not function):
                bindings.setdefault(node.name, []).append(node)
            elif called(node) == "least_squares":
                calls.append(node)
        for call in calls:
            model = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "model"), None)
            if model is None or not built(model, bindings):
                sites.append(f"{module}.{where}")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node, node.name)
    return sites


def test_every_fit_model_is_built_by_a_factory():
    assert unfactored_models(ESTIMATION.read_text(), "estimation") == []


def test_the_fits_call_least_squares():
    # the rule reads every call: three fits make one each
    tree = ast.parse(ESTIMATION.read_text())
    fits = [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(called(n) == "least_squares" for n in ast.walk(node))]
    assert fits == ["fit_kappa", "fit_decay", "fit_column_profile"]


def test_an_inline_model_is_reported():
    probe = '''
from .cloud import column_profile_model as profile
from .dynamics import decay_fit_model, kappa_fit_model, kappa_of_abscissa

def fit_kappa(data):
    def model(x, p):
        kappa = kappa_of_abscissa(x, p[0], p[1])
        return kappa, lambda: None
    return least_squares(model, data, (1e-17, 1e-15))

def fit_kappa_lambda(data):
    return least_squares(lambda x, p: kappa_of_abscissa(x, *p), data, [1, 1])

def fit_decay(series, n0, v, t):
    model = decay_fit_model(n0, v, t)
    if n0 > 1:
        model = lambda x, p: (x, None)
    return least_squares(model=model, data=series, initial=[0.0, 1.0])

def fit_kappa_factory(data):
    return least_squares(kappa_fit_model(data.x), data, (1e-17, 1e-15))

def fit_profile(species, trap, y, z, flat):
    model = profile(species, trap, y, z)
    return least_squares(model, flat, [1.0, 1e-4, 0.0, 0.0])
'''
    assert unfactored_models(probe, "estimation") == [
        "estimation.fit_kappa", "estimation.fit_kappa_lambda",
        "estimation.fit_decay"]
