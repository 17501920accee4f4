"""Only flatfile.read_lines reads a file, and only cli._read a data file.

Every config, species and data file reaches the package through
flatfile.read_lines, so one place strips comments and blanks and names a
file that cannot be decoded, and flatfile.read_csv, built on it, is the
one place a data file becomes numbers.  A module that read a file itself
would bypass both.  The guard looks for open( for reading (no mode, or a
mode without w, a or x), read_text, read_bytes and numpy's loadtxt and
genfromtxt.  In the CLI, every data file reader starts from cli._read,
the one caller of read_csv, which refuses a file of a kind the reader
does not take; a reader that called read_csv itself would read any file.

What a file holds is named in one table, sweeps.FILE_KINDS, by its
header's first two cells: every writer's header is one of its keys (a
sweep table's, by its first column, one of cli._SWEEP_COLUMN's values),
each cell is written there alone, and every kind a reader takes is one
of its kinds, a sweep table or the N_MOT table, which no writer writes.
"""

import ast
from pathlib import Path

from cliptrap import cli, estimation, sweeps

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cliptrap"
READERS = {"read_text", "read_bytes", "loadtxt", "genfromtxt"}
OPENERS = {"open", "fdopen"}


def reads_a_file(call: ast.Call) -> bool:
    """Whether call reads a file; an opener reads unless one of its string
    arguments, its mode, holds w, a or x."""
    callee = getattr(call.func, "attr", getattr(call.func, "id", None))
    if callee in READERS:
        return True
    if callee not in OPENERS:
        return False
    args = [*call.args, *(kw.value for kw in call.keywords)]
    return not any(isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                   and set(arg.value) & set("wax") for arg in args)


def calls_read_csv(call: ast.Call) -> bool:
    return "read_csv" == getattr(call.func, "attr",
                                 getattr(call.func, "id", None))


def read_sites(path: Path, reads=reads_a_file) -> list[str]:
    """module.function of each call in path that reads a file, or that
    reads picks; a call outside any function is module.<module>."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and reads(node):
            sites.append(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_only_read_lines_reads_a_file():
    sites = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in read_sites(path)]
    assert sites == ["flatfile.read_lines"]


def test_guard_sees_each_kind_of_read(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "import numpy as np\n"
        "from pathlib import Path\n"
        "TEXT = Path('a').read_text()\n"
        "def reads(p, fd):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    Path(p).open(mode='r')\n"
        "    Path(p).read_bytes()\n"
        "    np.loadtxt(p)\n"
        "    np.genfromtxt(p)\n"
        "    os.fdopen(fd)\n"
        "def writes(p, fd):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='ab')\n"
        "    Path(p).open('x')\n"
        "    os.fdopen(fd, 'w')\n"
        "    Path(p).write_text('')\n")
    assert read_sites(probe) == ["probe.<module>"] + ["probe.reads"] * 7


def test_only_read_parses_a_data_file_in_cli():
    assert read_sites(PACKAGE / "cli.py", calls_read_csv) == ["cli._read"]
    assert not hasattr(estimation.DataSet, "from_csv")
    assert not hasattr(estimation, "read_csv")


def test_guard_sees_a_second_read_csv_caller(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text(
        "from . import flatfile\n"
        "from .flatfile import read_csv\n"
        "def _read(path):\n"
        "    return read_csv(path)\n"
        "def _read_profile_csv(path):\n"
        "    return flatfile.read_csv(path)\n")
    assert read_sites(probe, calls_read_csv) == ["cli._read",
                                                 "cli._read_profile_csv"]


def test_each_writer_s_header_is_a_file_kind(tmp_path):
    out = tmp_path / "out.csv"
    headers = []
    for argv in (("simulate",), ("sweep",), *(
            ("synth", "--set", f"synth_kind={kind}")
            for kind in ("loading_curve", "decay_curve", "tof_series",
                         "kappa_points"))):
        assert cli.main([*argv, "--paper-defaults", "--out", str(out)]) == 0
        headers.append(out.read_text().split("\n", 1)[0].split(","))
    sweep = headers.pop(1)
    assert sweep[0] in cli._SWEEP_COLUMN.values()
    assert {tuple(h[:2]) for h in headers} == set(sweeps.FILE_KINDS) - {
        sweeps.HEADER[sweeps.PROFILE_TABLE]}  # profiles come from a camera


def test_header_cells_are_written_only_in_the_table():
    # "kappa" also names a sweep output, which a reader looks up by name
    cells = {c for header in sweeps.FILE_KINDS for c in header} - {"kappa"}
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in cells:
                sites.append((path.stem, node.value))
    assert sorted(sites) == sorted(
        ("sweeps", c) for header in sweeps.FILE_KINDS for c in header
        if c in cells)


def test_each_reader_takes_table_kinds(tmp_path, monkeypatch):
    data = tmp_path / "data.csv"
    data.write_text("x,y,sigma_y\n1,1,1\n2,2,1\n")
    taken, read = [], cli._read
    monkeypatch.setattr(cli, "_read", lambda path, *takes: taken.append(
        takes) or read(path, *takes))
    for kind in cli.FITS:
        cli.main(["fit", kind, "--paper-defaults", "--data", str(data)])
    cli.main(["sweep", "--paper-defaults", "--set", "sweep_values=1,2",
              "--set", f"sweep_nmot_csv={data}"])
    assert len(taken) == len(cli.FITS) + 1
    kinds = {kind for takes in taken for kind in takes}
    assert kinds == {*sweeps.FILE_KINDS.values(), cli.SWEEP_TABLE,
                     cli.NMOT_TABLE}
