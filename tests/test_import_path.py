"""The package runs on numpy alone.

scipy and mpmath are needed only by the test oracles.  A fresh
interpreter imports cliptrap, then runs each subcommand, synth kind and
fit kind in turn, then effective_volume, and reports the scipy and mpmath
modules loaded after each step.  The package itself imports none of its
modules, so the first step also reports any cliptrap submodule it loaded.
No module of the package names a third-party import other than numpy,
even on a path these steps do not take.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from cliptrap import cli

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r'''
import contextlib, io, json, sys

def oracle_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "mpmath"))

import cliptrap
report = {"import cliptrap": [0, oracle_modules() + sorted(
    m for m in sys.modules if m.startswith("cliptrap."))]}

from cliptrap import cli
from cliptrap.cloud import column_density, make_thermal_cloud
from cliptrap.species import chromium_52
from cliptrap.trap import IpTrapConfig

cl = make_thermal_cloud(chromium_52(), IpTrapConfig(0.125, 10.5),
                        n=1e8, t=100e-6)
rows = ["y_mm,z_mm,column_density"]
for i in range(-8, 9):
    for j in range(-5, 6):
        rows.append(f"{i * 0.1:.6g},{j:.6g},"
                    f"{column_density(cl, i * 1e-4, j * 1e-3):.10g}")
with open("profile.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")

base = ["--paper-defaults"]
steps = [
    ["predict", *base],
    ["simulate", *base],
    ["sweep", *base, "--set", "sweep_points=3"],
]
for kind, extra in (("kappa_points", []), ("decay_curve", []),
                    ("tof_series", []),
                    ("loading_curve", ["--set", "synth_points=200"])):
    steps.append(["synth", *base, "--set", f"synth_kind={kind}", *extra,
                  "--out", f"{kind}.csv"])
for kind, data in (("kappa", "kappa_points"), ("decay", "decay_curve"),
                   ("tof", "tof_series"), ("loading-rate", "loading_curve"),
                   ("profile", "profile")):
    steps.append(["fit", kind, *base, "--data", f"{data}.csv"])

for argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report[" ".join(argv)] = [code, oracle_modules()]

from cliptrap.cloud import GaussianCloud, effective_volume
mot = GaussianCloud(5e6, 140e-6, 1e-4, 1e-4)
code = 0 if effective_volume(mot, cl, (1e-4, -2e-4, 5e-5)) > 0 else 1
report["effective_volume"] = [code, oracle_modules()]
print(json.dumps(report))
'''


def test_no_command_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {step: [0, []] for step in report}
    # a new subcommand or fit kind cannot skip this check
    commands = ({step.split()[0] for step in report}
                - {"import", "effective_volume"})
    assert commands == set(cli.COMMANDS)
    assert {step.split()[1] for step in report
            if step.startswith("fit ")} == set(cli.FITS)
    assert len(report) == 1 + 3 + 4 + len(cli.FITS) + 1


def third_party_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in source, at any depth,
    that are neither in the standard library nor numpy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name.split(".")[0] for name in names}
                  - sys.stdlib_module_names - {"numpy"})


def test_package_imports_only_numpy():
    found = {path.name: third_party_imports(path.read_text())
             for path in sorted((SRC / "cliptrap").glob("*.py"))}
    assert found and found == {name: [] for name in found}


def test_a_lazy_scipy_import_is_reported():
    # an import inside a function body is found, a relative one is not
    source = ("import math\nfrom . import bessel\n\n\ndef f():\n"
              "    from scipy import integrate\n"
              "    import numpy.linalg, mpmath as mp\n")
    assert third_party_imports(source) == ["mpmath", "scipy"]
