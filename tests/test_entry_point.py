"""The process entry point: cli.run, and only it, ends the process.

`python -m cliptrap.cli` and the `cliptrap` console script both call
cli.run, which flushes stdout and stderr and ends the process with
os._exit, skipping the interpreter's teardown.  A fresh process must give
the same exit code, stdout, stderr and --out bytes as main() in process,
and no other code under src/cliptrap may end the process: a second exit
path could skip run's flush, or take the teardown back.
"""

import ast
import errno
import os
import subprocess
import sys

import pytest

from cliptrap.cli import main
from test_volume_rule import PACKAGE, package_sites, reference_sites

ROOT = PACKAGE.parents[1]


def in_process(argv: list[str], capfd) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    return (code, *capfd.readouterr())


def fresh_process(argv: list[str], env=os.environ,
                  **kwargs) -> subprocess.CompletedProcess:
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "cliptrap.cli", *argv],
                          env=env, stdin=subprocess.DEVNULL, timeout=60,
                          **kwargs)


@pytest.fixture(scope="module")
def kappa_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("entry") / "kappa.csv"
    assert main(["synth", "--paper-defaults", "--seed", "7",
                 "--set", "synth_noise=0.05", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("argv,code", [
    (["predict", "--paper-defaults"], 0),
    (["synth", "--paper-defaults", "--seed", "3",
      "--set", "synth_kind=decay_curve", "--out", "{out}"], 0),
    (["fit", "kappa", "--paper-defaults", "--data", "{kappa}"], 0),
    (["predict", "--paper-defaults", "--set", "b_prime_g_per_cm=-1"], 2),
    (["predict", "--paper-defaults", "--bogus"], 2),
    (["--help"], 0)],
    ids=["predict", "synth_out", "fit_kappa", "input_error", "usage_error",
         "help"])
def test_fresh_process_matches_main(argv, code, kappa_csv, tmp_path, capfd,
                                    monkeypatch):
    # argparse wraps its usage text to the terminal width, which COLUMNS
    # fixes for both
    monkeypatch.setenv("COLUMNS", "80")
    outs = {side: tmp_path / f"{side}.csv" for side in ("main", "process")}

    def args(side):
        return [a.format(out=outs[side], kappa=kappa_csv) for a in argv]

    want = in_process(args("main"), capfd)
    got = fresh_process(args("process"), capture_output=True, text=True)
    assert want[0] == code
    assert (got.returncode, got.stdout, got.stderr) == want
    if "{out}" in argv:
        assert want[1] == ""
        assert outs["process"].read_bytes() == outs["main"].read_bytes()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_2(unbuffered):
    # the report's write fails inside main whether or not stdout is
    # buffered; run's own flush of the data that failed is no second error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        got = fresh_process(["predict", "--paper-defaults"], stdout=write,
                            stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (got.returncode, got.stderr) == (
        2, f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")


# Every site under src/cliptrap that may end the process
EXIT_SITES = {"_exit": ["cli.run"], "exit": [], "SystemExit": []}


@pytest.mark.parametrize("name", EXIT_SITES)
def test_only_run_ends_the_process(name):
    assert package_sites(name) == EXIT_SITES[name]


def test_a_second_exit_is_reported():
    probe = '''
import os
import sys
from os import _exit as hard_exit

def main():
    sys.exit(2)

class Runner:
    def stop(self, code):
        os._exit(code)

    def quit(self):
        hard_exit(1)
        exit(1)
        raise SystemExit(1)
'''
    assert [site for name in EXIT_SITES
            for site in reference_sites(probe, "cli", name)] == [
        "cli.Runner.stop", "cli.Runner.quit", "cli.main", "cli.Runner.quit",
        "cli.Runner.quit"]


def test_both_entry_points_call_run():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "project"]["scripts"]
    assert scripts == {"cliptrap": "cliptrap.cli:run"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    guard, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in guard.body] == ["run()"]
