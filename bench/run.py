"""cliptrap benchmark: three workloads, end-to-end metrics and layer shares.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Each
workload is a closed loop with one client: one operation at a time, in
whole rounds of a fixed operation mix.  The round count is S divided by
the workload's nominal round time (measured on a 2-core x86 VM at the
benchmark's first commit), so about S seconds of operations and reference
slices run.  Inputs come from --seed; every output is checked against the
independent references in bench/reference.py.

--trace 0 prints the end-to-end metrics.  Times are in ref_ms (see
bench/pace.py): each timed step lies between two slices of a fixed
reference kernel, and its wall time is scaled by the kernel's speed around
it, so that the shared host's drift cancels and the program's own speed
remains.  setup_s is the median of five fresh set-up processes
(interpreter start to first operation ready), in reference seconds;
ops_per_ref_s counts correct operations per reference second of operation
time; op_p50_ref_ms is the median operation; ok_ratio is correct /
attempted and peak_rss_mb the peak resident memory.  The wall-clock
figures are kept in the metadata line.

--trace 1 runs a fixed number of rounds untraced, then the same rounds
with bench/tracer.py's wrappers installed (through bench/launcher.py for
the CLI workload), and prints per-layer metrics: call counts per
operation, each layer's share of traced operation wall time, the
uncovered remainder, the tracing overhead and a fresh-interpreter
``import cliptrap`` time.

The last stdout line is the result JSON; the line before it holds the run
metadata.  BLAS and OpenMP pools are pinned to one thread for this process
and its children; nothing outside the benchmark's own processes is tuned.
"""

from __future__ import annotations

import os

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from pace import REF_REP_MS, time_slice  # noqa: E402
from tracer import Tracer, clock, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120.0
# Reference-kernel time run after each timed operation, as a share of it.
PACE_SHARE = 1 / 3
# Operation time after which a slice runs; shorter operations are grouped.
PACE_GROUP_S = 0.05


class ProgramMissing(RuntimeError):
    """The checkout holds no cliptrap sources to benchmark."""


def load_program() -> None:
    """Put ./src first on the import path and import cliptrap from it."""
    if not (SRC / "cliptrap" / "__init__.py").is_file():
        raise ProgramMissing(f"no cliptrap package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import cliptrap
    if Path(cliptrap.__file__).resolve().parent != SRC / "cliptrap":
        raise ProgramMissing(f"cliptrap imported from {cliptrap.__file__}")


# --- operations -------------------------------------------------------------

@dataclass
class Op:
    """One timed operation and the check of its output.

    check returns "" when the output matches the references,
    "known:<defect>" for a catalogued defect, or a failure reason.
    """

    kind: str
    run: Callable
    check: Callable[[object], str]


def run_child(argv: list[str], cwd: Path, tag: str):
    """Run a child to completion; returns (exit code, stdout, stderr, maxrss kB)."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss)


def _rel_ok(name: str, value: float, ref_value: float, tol: float) -> str:
    if not math.isfinite(value) or ref.rel_err(value, ref_value) > tol:
        return f"{name} = {value!r}, reference {ref_value!r} (rel tol {tol:g})"
    return ""


def _first(*reasons: str) -> str:
    return next((r for r in reasons if r), "")


def _sigma_ok(name: str, value: float, sigma: float, truth: float,
              k: float = 10.0, floor: float = 0.0) -> str:
    if not (math.isfinite(value) and abs(value - truth) <= k * sigma + floor):
        return f"{name} = {value!r} +- {sigma!r}, truth {truth!r}"
    return ""


def _rng(seed: int, *stream: int):
    return np.random.default_rng([seed, *stream])


# A decay fit at the synthetic truth of a 30-sample curve leaves a
# residual norm near sqrt(30) (4-10 seen); the known defect's wrong minimum
# leaves 130-360.
DECAY_STUCK_RESIDUAL = 30.0


def _decay_reason(gamma: float, gamma_sigma: float, beta: float,
                  beta_sigma: float, true_gamma: float,
                  residual_norm: float = 0.0) -> str:
    """Check a decay fit; a wrong fit with the known defect's signature (a
    bound reached with a collapsed covariance, or, where the residual norm
    is known, a residual far above the noise) is reported as known."""
    reason = _first(
        _sigma_ok("gamma", gamma, gamma_sigma, true_gamma, floor=1e-3),
        _sigma_ok("beta_dd", beta, beta_sigma, ref.PAPER["beta_dd"]))
    if reason and (beta >= 0.5 or gamma_sigma == 0 or beta_sigma == 0
                   or residual_norm > DECAY_STUCK_RESIDUAL):
        return "known:decay_fit_at_bound"
    return reason


# --- workload: cli_session --------------------------------------------------

def _parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _read_csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array(
        [[float(c) if c else math.nan for c in ln.split(",")]
         for ln in lines[1:]])


class CliSession:
    """One analyst session of `python -m cliptrap.cli` invocations.

    Why: each command pays interpreter start, ``import cliptrap`` and the
    per-invocation trap geometry, so this workload shows start-up, import
    and config-path changes and little of the fit engine.  The default
    loading-curve synth followed by ``fit loading-rate`` is kept: it fails
    (a known defect) and is counted as a failed operation.
    """

    name = "cli_session"
    nominal_round_s = 17.0

    def setup(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work
        self.paper = ref.Paper()
        self.setup_errors: list[str] = []
        self.child_rss_kb = 0

    @staticmethod
    def _profile_csv(rng, path: Path) -> dict:
        y, z, img, truth = _profile_image(rng, 41, 31)
        rows = ["y_mm,z_mm,column_density"] + [
            f"{a * 1e3:.12g},{b * 1e3:.12g},{img[i, j]:.12g}"
            for i, a in enumerate(y) for j, b in enumerate(z)]
        path.write_text("\n".join(rows) + "\n")
        return truth

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 1, r)
        w = self.work
        synth_seed = int(rng.integers(1, 2 ** 31))
        noise = float(rng.uniform(0.005, 0.01))
        t_end = float(rng.uniform(4.0, 8.0))
        samples = int(rng.integers(100, 300))
        lo = float(rng.uniform(2.0, 6.0))
        hi = float(rng.uniform(14.0, 20.0))
        truth = self._profile_csv(rng, w / "profile.csv")
        base = ["--paper-defaults"]
        synth = base + ["--seed", str(synth_seed),
                        "--set", f"synth_noise={noise!r}"]

        def cli(kind, args, check):
            return Op(kind, lambda tracer, op_id: self._invoke(
                args, tracer, op_id), check)

        def synth_op(kind, out):
            return cli(f"synth_{kind}",
                       ["synth", *synth, "--set", f"synth_kind={kind}",
                        "--out", str(w / out)],
                       lambda res: self._check_synth(res, kind, w / out,
                                                     noise))

        return [
            cli("predict", ["predict", *base, "--out", str(w / "predict.txt")],
                lambda res: self._check_predict(res, w / "predict.txt")),
            cli("simulate", ["simulate", *base, "--set", f"t_end_s={t_end!r}",
                             "--set", f"samples={samples}",
                             "--out", str(w / "sim.csv")],
                lambda res: self._check_simulate(res, w / "sim.csv", samples)),
            cli("sweep", ["sweep", *base,
                          "--set", "sweep_parameter=radial_gradient",
                          "--set", f"sweep_start={lo!r}",
                          "--set", f"sweep_stop={hi!r}",
                          "--set", "sweep_points=3",
                          "--out", str(w / "sweep.csv")],
                lambda res: self._check_sweep(res, w / "sweep.csv")),
            synth_op("kappa_points", "kappa.csv"),
            cli("synth_repeat",
                ["synth", *synth, "--set", "synth_kind=kappa_points",
                 "--out", str(w / "kappa_again.csv")],
                lambda res: self._check_identical(res, w / "kappa.csv",
                                                  w / "kappa_again.csv")),
            cli("fit_kappa", ["fit", "kappa", *base,
                              "--data", str(w / "kappa.csv")],
                self._check_fit_kappa),
            synth_op("decay_curve", "decay.csv"),
            cli("fit_decay", ["fit", "decay", *base,
                              "--data", str(w / "decay.csv")],
                self._check_fit_decay),
            synth_op("tof_series", "tof.csv"),
            cli("fit_tof", ["fit", "tof", *base, "--data", str(w / "tof.csv")],
                self._check_fit_tof),
            synth_op("loading_curve", "loading.csv"),
            cli("fit_loading_rate", ["fit", "loading-rate", *base,
                                     "--data", str(w / "loading.csv")],
                self._check_fit_loading),
            cli("fit_profile", ["fit", "profile", *base,
                                "--data", str(w / "profile.csv")],
                lambda res: self._check_fit_profile(res, truth)),
        ]

    def _invoke(self, args: list[str], tracer: Tracer | None, op_id: int):
        if tracer is None:
            argv = [sys.executable, "-m", "cliptrap.cli", *args]
        else:
            spans = self.work / f"spans-{op_id}.json"
            argv = [sys.executable, str(BENCH / "launcher.py"), str(spans),
                    "--", *args]
        start = clock()
        result = run_child(argv, self.work, "cli")
        end = clock()
        self.child_rss_kb = max(self.child_rss_kb, result[3])
        if tracer is not None:
            dumped = json.loads(spans.read_text())
            spans.unlink()
            tracer.merge(dumped, op_id)
            tracer.add_span("interpreter.start", start, dumped["launched"])
            tracer.add_span("interpreter.exit", dumped["exiting"], end)
        return result

    # checks; res = (exit code, stdout, stderr, maxrss)
    @staticmethod
    def _exit_ok(res) -> str:
        code, _, err, _ = res
        return "" if code == 0 else f"exit {code}: {err.strip()[-200:]}"

    def _check_predict(self, res, path: Path) -> str:
        if self._exit_ok(res):
            return self._exit_ok(res)
        rep = {k: float(v) if v not in ("True", "False") else v
               for k, v in _parse_report(path.read_text()).items()}
        pp, p = self.paper, ref.PAPER
        r_anchor, r_tol = ref.ANCHOR_LOADING_RATE
        v_anchor, v_tol = ref.ANCHOR_V_NO_GRAVITY
        lo, hi = ref.ANCHOR_STEADY_STATE
        n_inf = rep["n_steady_atoms"]
        tol = 2e-5  # six significant digits in the report
        return _first(
            _rel_ok("loading rate anchor", rep["loading_rate_atoms_per_s"],
                    r_anchor, r_tol),
            "" if lo <= n_inf <= hi else f"n_steady {n_inf} outside anchor",
            _rel_ok("V no gravity anchor", rep["v_mt_cm3_no_gravity"] * 1e-6,
                    v_anchor, v_tol),
            _rel_ok("loading_rate", rep["loading_rate_atoms_per_s"], pp.rate,
                    tol),
            _rel_ok("gamma_ed", rep["gamma_ed_per_s"], pp.gamma_ed, tol),
            _rel_ok("v_mt", rep["v_mt_cm3"] * 1e-6, pp.v_mt, tol),
            _rel_ok("v_mt no gravity", rep["v_mt_cm3_no_gravity"] * 1e-6,
                    pp.v_no_gravity, tol),
            _rel_ok("v_eff", rep["v_eff_cm3"] * 1e-6, pp.v_mt, tol),
            _rel_ok("n_steady", n_inf, pp.n_inf, tol),
            _rel_ok("kappa", rep["kappa"], pp.kappa, tol),
            _rel_ok("tau_eff", rep["tau_eff_s"], pp.n_inf / pp.rate, tol),
            _rel_ok("t_mt prediction", rep["t_mt_virial_prediction_uk"],
                    0.375 * p["t_mot"] * 1e6, tol),
            "" if rep["majorana_safe"] == "False" else "majorana_safe")

    def _check_simulate(self, res, path: Path, samples: int) -> str:
        if self._exit_ok(res):
            return self._exit_ok(res)
        _, data = _read_csv(path)
        pp = self.paper
        want = ref.loading_curve(data[:, 0], pp.rate, pp.gamma,
                                 ref.PAPER["beta_dd"], pp.v_mt)
        if data.shape[0] != samples:
            return f"simulate wrote {data.shape[0]} rows, expected {samples}"
        err = np.abs(data[:, 1] - want) / np.maximum(want, 1.0)
        return "" if err.max() <= 1e-6 else f"simulate rel err {err.max():.3g}"

    def _check_sweep(self, res, path: Path) -> str:
        if self._exit_ok(res):
            return self._exit_ok(res)
        header, data = _read_csv(path)
        col = {name: i for i, name in enumerate(header)}
        for row in data:
            pt = ref.Paper(b_prime=row[0] * 1e-2)
            reason = _first(
                _rel_ok("sweep v_mt", row[col["v_mt"]] * 1e-6, pt.v_mt, 1e-6),
                _rel_ok("sweep n_mt_steady", row[col["n_mt_steady"]],
                        pt.n_inf, 1e-6),
                _rel_ok("sweep kappa", row[col["kappa"]], pt.kappa, 1e-6))
            if reason:
                return reason
        return ""

    def _check_synth(self, res, kind: str, path: Path, noise: float) -> str:
        if self._exit_ok(res):
            return self._exit_ok(res)
        _, data = _read_csv(path)
        x, y, s = data[:, 0], data[:, 1], data[:, 2]
        pp, p = self.paper, ref.PAPER
        if kind == "kappa_points":
            want = ref.kappa_of_abscissa(x, p["beta_dd"], p["beta_ed"])
        elif kind == "decay_curve":
            want = ref.decay(x, pp.n_inf, pp.gamma_d, p["beta_dd"], pp.v_mt)
        elif kind == "tof_series":
            want = ref.tof_radius(x, pp.xi1, p["t_mt"])
        else:
            want = ref.loading_curve(x, pp.rate, pp.gamma, p["beta_dd"],
                                     pp.v_mt)
        dev = np.abs(y - want) / np.maximum(np.abs(want), 1.0)
        if dev.max() > 8 * noise:
            return f"synth {kind} deviates {dev.max():.3g} from the model"
        if not np.allclose(s, np.maximum(np.abs(y) * noise, 1e-300),
                           rtol=1e-9, atol=0.0):
            return f"synth {kind} sigma column is not |y| * noise"
        return ""

    @staticmethod
    def _check_identical(res, first: Path, second: Path) -> str:
        if res[0] != 0:
            return f"exit {res[0]}"
        if first.read_bytes() != second.read_bytes():
            return "synth output differs for an identical seed"
        return ""

    def _report(self, res) -> tuple[str, dict]:
        reason = self._exit_ok(res)
        return reason, ({} if reason else _parse_report(res[1]))

    def _check_fit_kappa(self, res) -> str:
        reason, rep = self._report(res)
        if reason:
            return reason
        p = ref.PAPER
        return _first(
            "" if rep["converged"] == "True" else "kappa fit not converged",
            _sigma_ok("beta_dd", float(rep["beta_dd_cm3_per_s"]),
                      float(rep["beta_dd_sigma_cm3_per_s"]), p["beta_dd"] * 1e6),
            _sigma_ok("beta_ed", float(rep["beta_ed_cm3_per_s"]),
                      float(rep["beta_ed_sigma_cm3_per_s"]), p["beta_ed"] * 1e6))

    def _check_fit_decay(self, res) -> str:
        reason, rep = self._report(res)
        if reason:
            return reason
        return _decay_reason(
            float(rep["gamma_per_s"]), float(rep["gamma_sigma_per_s"]),
            float(rep["beta_dd_cm3_per_s"]) * 1e-6,
            float(rep["beta_dd_sigma_cm3_per_s"]) * 1e-6, self.paper.gamma_d)

    def _check_fit_tof(self, res) -> str:
        reason, rep = self._report(res)
        if reason:
            return reason
        return _sigma_ok("temperature", float(rep["temperature_uk"]),
                         float(rep["temperature_sigma_uk"]),
                         ref.PAPER["t_mt"] * 1e6)

    def _check_fit_loading(self, res) -> str:
        code, _, err, _ = res
        if code == 2 and "need at least 3 points inside the fit window" in err:
            return "known:loading_rate_window"
        reason, rep = self._report(res)
        if reason:
            return reason
        return _rel_ok("fitted loading rate",
                       float(rep["loading_rate_atoms_per_s"]),
                       self.paper.rate, ref.ANCHOR_LOADING_RATE[1])

    def _check_fit_profile(self, res, truth: dict) -> str:
        reason, rep = self._report(res)
        if reason:
            return reason
        return _profile_reason(
            rep["converged"] == "True", float(rep["temperature_uk"]) * 1e-6,
            float(rep["center_y_mm"]) * 1e-3, float(rep["center_z_mm"]) * 1e-3,
            truth)


def _profile_image(rng, ny: int, nz: int):
    """A noisy ny x nz column-density image and its truth.

    The grid spans +-6 xi1 and +-3 sigma_z of the paper's cloud; the truth
    has T within 5 % of 120 uK and a centre offset of up to 0.1 scale
    lengths, and the noise is multiplicative at 1-2 %.  Larger offsets
    make the fit's iteration count, and so the run time, vary with the
    seed (5 to 18 iterations at 0.3 xi1), which would swamp the metrics.
    """
    p = ref.PAPER
    grid_xi1, _, grid_sz = ref.scales(p["t_mt"], p["b_prime"], p["b_dprime"])
    t_true = 120e-6 * rng.uniform(0.95, 1.05)
    xi1, xi2, sz = ref.scales(t_true, p["b_prime"], p["b_dprime"])
    truth = {"t": t_true, "y0": xi1 * rng.uniform(-0.1, 0.1),
             "z0": sz * rng.uniform(-0.1, 0.1), "xi1": xi1, "sz": sz}
    y = np.linspace(-6, 6, ny) * grid_xi1
    z = np.linspace(-3, 3, nz) * grid_sz
    yy, zz = np.meshgrid(y, z, indexing="ij")
    img = ref.column_density(yy - truth["y0"], zz - truth["z0"],
                             ref.peak_density(1e8, xi1, xi2, sz), xi1, xi2, sz)
    img = img * (1 + rng.uniform(0.01, 0.02) * rng.standard_normal(img.shape))
    return y, z, img, truth


def _profile_reason(converged: bool, t: float, y0: float, z0: float,
                    truth: dict) -> str:
    return _first(
        "" if converged else "profile fit not converged",
        _rel_ok("profile temperature", t, truth["t"], 0.03),
        "" if abs(y0 - truth["y0"]) <= 0.05 * truth["xi1"]
        else f"profile center_y {y0!r}, truth {truth['y0']!r}",
        "" if abs(z0 - truth["z0"]) <= 0.05 * truth["sz"]
        else f"profile center_z {z0!r}, truth {truth['z0']!r}")


# --- workload: sweep_grid ---------------------------------------------------

def _strata(rng, lo: float, hi: float, k: int, log: bool) -> list[float]:
    """One value from each of k equal (log-)width strata of [lo, hi]:
    drawn from rng, or the stratum centre when rng is None."""
    f = math.log if log else float
    edges = [f(lo) + (f(hi) - f(lo)) * i / k for i in range(k + 1)]
    vals = [rng.uniform(a, b) if rng is not None else (a + b) / 2
            for a, b in zip(edges, edges[1:])]
    return [math.exp(v) for v in vals] if log else vals


class SweepGrid:
    """Single-point run_sweep calls over B', B'' and B0, plus V_eff offsets.

    Why: the cloud's 2-D quadrature is nearly all of a sweep point, so this
    workload shows closed-form volume work; the offset scan uses the same
    layer through the MOT overlap integral.  B' sits on a fixed log grid
    from just above the gravity-sag limit (about 1.5 G/cm for 52Cr) to the
    top of the paper's range: the quadrature's cost jumps by +-20 % under
    0.5 % changes of B', so seeded B' values would make runs incomparable.
    The seed draws B'' and B0 (which leave that cost alone) and the MOT
    offsets.
    """

    name = "sweep_grid"
    nominal_round_s = 4.7
    # (parameter, SI scale from lab units, lower, upper, log strata, seeded)
    PARAMETERS = (("radial_gradient", 1e-2, 1.8, 20.0, True, False),  # G/cm
                  ("axial_curvature", 1.0, 2.0, 30.0, True, True),    # G/cm^2
                  ("offset_field", 1e-7, 0.0, 1000.0, False, True))   # mG
    STRATA = 4
    # Eight offset strata, two per round: with few fast overlap operations
    # per round the median operation stays inside the sweep points.
    OFFSETS, OFFSETS_PER_ROUND = 8, 2

    def setup(self, seed: int, work: Path) -> None:
        from cliptrap import cli, cloud
        self.seed = seed
        self.base = cli.scenario_from_config(dict(cli.PAPER_DEFAULTS))
        b = self.base
        self.mt = cloud.make_thermal_cloud(b.species, b.trap, n=1.0,
                                           t=b.mt_temperature)
        off = cloud.make_thermal_cloud(b.species, b.trap, n=1.0,
                                       t=b.mt_temperature,
                                       include_gravity=False)
        self.mot = cloud.GaussianCloud(b.mot.n_mot, b.mot.temperature,
                                       b.mot.sigma_radial, b.mot.sigma_axial)
        pp = ref.Paper()
        self.setup_errors = [e for e in (
            _rel_ok("normalisation", self.mt.peak_density,
                    ref.peak_density(1.0, pp.xi1, pp.xi2, pp.sigma_z), 1e-7),
            _rel_ok("V_MT", b.v_mt, pp.v_mt, 1e-7),
            _rel_ok("V_MT no gravity", cloud.occupied_volume(off),
                    pp.v_no_gravity, 1e-7)) if e]

    def round(self, r: int) -> list[Op]:
        from cliptrap import cloud, sweeps
        rng = _rng(self.seed, 2, r)
        ops = []
        for parameter, scale, lo, hi, log, seeded in self.PARAMETERS:
            for value in _strata(rng if seeded else None, lo, hi,
                                 self.STRATA, log):
                spec = sweeps.SweepSpec(parameter, [value * scale], self.base,
                                        outputs=sweeps.OUTPUTS)
                ops.append(Op(f"point_{parameter}",
                              lambda tr, i, spec=spec: sweeps.run_sweep(spec),
                              lambda rows, spec=spec: self._check_row(
                                  rows, spec)))
        s = self.base.mot.sigma_radial
        radii = _strata(None, 0.0, 3.0 * s, self.OFFSETS, False)
        first = r * self.OFFSETS_PER_ROUND % self.OFFSETS
        for radius in radii[first:first + self.OFFSETS_PER_ROUND]:
            phi = rng.uniform(0, 2 * math.pi)
            off = (radius * math.cos(phi), radius * math.sin(phi),
                   rng.uniform(-1, 1) * s)
            ops.append(Op("overlap",
                          lambda tr, i, off=off: cloud.effective_volume(
                              self.mot, self.mt, offset=off),
                          lambda v, off=off: self._check_overlap(v, off)))
        return ops

    def _check_row(self, rows, spec) -> str:
        row = rows[0]
        if row["error"]:
            return f"sweep point error: {row['error']}"
        trap = self.base.trap
        kw = {"radial_gradient": "b_prime", "axial_curvature": "b_dprime"}
        value = spec.values[0]
        pt = ref.Paper(**({kw[spec.swept_parameter]: value}
                          if spec.swept_parameter in kw else
                          {"b_prime": trap.radial_gradient}))
        offset = value if spec.swept_parameter == "offset_field" \
            else trap.offset_field
        p = ref.PAPER
        return _first(
            _rel_ok("v_mt", row["v_mt"], pt.v_mt, 1e-6),
            _rel_ok("n_mt_steady", row["n_mt_steady"], pt.n_inf, 1e-6),
            _rel_ok("loading_rate", row["loading_rate"], pt.rate, 1e-12),
            _rel_ok("tau_eff", row["tau_eff"], pt.n_inf / pt.rate, 1e-6),
            _rel_ok("kappa", row["kappa"], pt.kappa, 1e-6),
            _rel_ok("kappa_abscissa", row["kappa_abscissa"], pt.abscissa, 1e-6),
            _rel_ok("t_mt_prediction", row["t_mt_prediction"],
                    0.375 * p["t_mot"], 1e-12),
            _rel_ok("n_mot", row["n_mot"], p["n_mot"], 0.0),
            "" if row["majorana_safe"] == (offset >= ref.MAJORANA_MIN_OFFSET)
            else "majorana_safe")

    def _check_overlap(self, v: float, off) -> str:
        mt, mot = self.mt, self.mot
        want = ref.overlap_volume(mot.atom_number, mot.sigma_radial,
                                  mot.sigma_axial, mt.xi1, mt.xi2, mt.sigma_z,
                                  off)
        return _rel_ok("V_eff", v, want, 1e-6)


# --- workload: fit_batch ----------------------------------------------------

class FitBatch:
    """Synthesise a data set, then fit it, with v_mt and v_eff supplied.

    Why: the Gauss-Newton solver and the rate model do the work and no
    cloud geometry or K1 runs, so this workload shows solver and
    fit-reparametrisation changes and is the no-change side for volume and
    import work.  A background loss of 0.02 /s makes both decay parameters
    free, and the loading curve is sampled densely enough (400 points) to
    put several samples inside the loading-rate fit window.  Each round
    fits two decay curves and one of each other kind: with one of each,
    the median operation sat on the gap between the kappa and the decay
    fits' times, and jumped between them from run to run.
    """

    name = "fit_batch"
    nominal_round_s = 0.011
    V_CM3 = 5.4e-3
    GAMMA_D = 0.02
    LOADING_POINTS = 400

    def setup(self, seed: int, work: Path) -> None:
        from cliptrap import cli
        self.seed = seed
        cfg = dict(cli.PAPER_DEFAULTS, v_mt_cm3=str(self.V_CM3),
                   v_eff_cm3=str(self.V_CM3), gamma_d_per_s=str(self.GAMMA_D))
        self.scen = cli.scenario_from_config(cfg)
        self.paper = ref.Paper(v_mt=self.V_CM3 * 1e-6, gamma_d=self.GAMMA_D)
        self.setup_errors: list[str] = []

    def round(self, r: int) -> list[Op]:
        from cliptrap import estimation, sweeps
        rng = _rng(self.seed, 3, r)
        scen = self.scen
        ops = []
        decay = ("decay_curve",
                 lambda d: estimation.fit_decay(d, scen.v_mt), {})
        for kind, fit, extra in (
                ("kappa_points", estimation.fit_kappa, {}), decay, decay,
                ("tof_series",
                 lambda d: estimation.fit_tof(d, scen.species), {}),
                ("loading_curve", estimation.fit_loading_rate,
                 {"points": self.LOADING_POINTS})):
            seed = int(rng.integers(1, 2 ** 31))
            noise = float(rng.uniform(0.005, 0.03))

            def run(tr, i, kind=kind, fit=fit, seed=seed, noise=noise,
                    extra=extra):
                data = sweeps.synthesize_measurements(scen, kind, noise=noise,
                                                      seed=seed, **extra)
                return fit(data)
            ops.append(Op(kind, run, lambda res, kind=kind: self._check(
                kind, res)))
        return ops

    def _check(self, kind: str, res) -> str:
        p, pp = ref.PAPER, self.paper
        if kind == "loading_curve":
            return _rel_ok("loading rate", res, pp.rate,
                           ref.ANCHOR_LOADING_RATE[1])
        if kind == "tof_series":
            return _sigma_ok("temperature", res["temperature"],
                             res.sigma("temperature"), p["t_mt"])
        if not res.converged:
            return f"{kind} fit not converged"
        if kind == "kappa_points":
            return _first(
                _sigma_ok("beta_dd", res["beta_dd"], res.sigma("beta_dd"),
                          p["beta_dd"]),
                _sigma_ok("beta_ed", res["beta_ed"], res.sigma("beta_ed"),
                          p["beta_ed"]))
        return _decay_reason(res["gamma"], res.sigma("gamma"), res["beta_dd"],
                             res.sigma("beta_dd"), pp.gamma_d,
                             res.residual_norm)


WORKLOADS = {w.name: w for w in (CliSession, SweepGrid, FitBatch)}


# --- runner -----------------------------------------------------------------

class Sample(NamedTuple):
    """One timed step's outcome, and the reference kernel's seconds per
    repetition around it (nan unpaced)."""

    kind: str
    seconds: float
    outcome: str
    ref_rep_s: float = math.nan


def paced(before: float, samples: list[Sample], group: list[int]) -> float:
    """Run the reference slice after the timed steps `group` (indices into
    `samples`) and set their ref_rep_s: the mean of the slices before and
    after them, or this slice alone when none came before.  Returns this
    slice's seconds per repetition."""
    after = time_slice(PACE_SHARE * sum(samples[i].seconds for i in group))
    ref_rep_s = after if math.isnan(before) else 0.5 * (before + after)
    for i in group:
        samples[i] = samples[i]._replace(ref_rep_s=ref_rep_s)
    return after


def run_pass(workload, rounds: int, min_seconds: float = 0.0,
             tracer: Tracer | None = None, pace: bool = False) -> list[Sample]:
    """Run `rounds` whole rounds, then more while under `min_seconds`.

    With `pace`, a reference-kernel slice of PACE_SHARE of the operation
    time before it runs as soon as PACE_GROUP_S of operations have run
    since the last slice: after each operation of a sweep point's length
    or longer, after a group of the short ones.  Every operation but the
    first group lies between two slices.
    """
    samples: list[Sample] = []
    before = math.nan
    group: list[int] = []
    start = clock()
    r = 0
    while r < rounds or clock() - start < min_seconds:
        for op in workload.round(r):
            op_id = len(samples)
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = clock()
            try:
                out = op.run(tracer, op_id)
                failure = None
            except Exception as exc:  # an operation failure is a result
                out, failure = None, f"raised {type(exc).__name__}: {exc}"
            t1 = clock()
            if tracer is not None:
                tracer.end_op(op_id, t0, t1)
            if failure is None:
                try:
                    failure = op.check(out)
                except Exception as exc:  # unreadable output
                    failure = f"check raised {type(exc).__name__}: {exc}"
            samples.append(Sample(op.kind, t1 - t0, failure))
            if pace:
                group.append(op_id)
                if sum(samples[i].seconds for i in group) >= PACE_GROUP_S:
                    before, group = paced(before, samples, group), []
        r += 1
    if group:
        paced(before, samples, group)
    return samples


def setup_probe(name: str, seed: int) -> None:
    """Child side of setup_s: set the workload up, then print the clock."""
    load_program()
    workload = WORKLOADS[name]()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workload.setup(seed, work)
        workload.round(0)
        print(repr(clock()))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int, work: Path) -> list[Sample]:
    """Time SETUP_PROBES fresh set-up processes, each between two
    reference-kernel slices like an operation."""
    probes = []
    before = math.nan
    for i in range(SETUP_PROBES):
        t0 = clock()
        code, out, err, _ = run_child(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"], work, f"setup{i}")
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
        probes.append(Sample("setup", float(out.strip().splitlines()[-1])
                             - t0, ""))
        before = paced(before, probes, [i])
    return probes


def measure_import(work: Path) -> tuple[list[float], int]:
    code = ("import sys, time; t = time.perf_counter(); import cliptrap; "
            "d = time.perf_counter() - t; "
            "print(d, sum(1 for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    times, modules = [], 0
    for i in range(IMPORT_PROBES):
        rc, out, err, _ = run_child([sys.executable, "-c", code], work,
                                    f"import{i}")
        if rc != 0:
            raise RuntimeError(f"import probe failed: {err.strip()[-300:]}")
        d, modules = out.split()
        times.append(float(d))
    return times, int(modules)


def _outcomes(samples) -> tuple[int, int, dict[str, int], list[str]]:
    known: dict[str, int] = {}
    unknown = []
    ok = 0
    for kind, _, outcome, *_ in samples:
        if not outcome:
            ok += 1
        elif outcome.startswith("known:"):
            known[outcome[6:]] = known.get(outcome[6:], 0) + 1
        else:
            unknown.append(f"{kind}: {outcome}")
    return len(samples), ok, known, unknown


def to_ref_ms(samples: list[Sample]) -> list[float]:
    return [s.seconds / s.ref_rep_s * REF_REP_MS for s in samples]


def end_to_end(workload, samples, setup) -> dict:
    attempted, ok, _, _ = _outcomes(samples)
    ref_ms = to_ref_ms(samples)
    if isinstance(workload, CliSession):
        rss_kb = workload.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(to_ref_ms(setup)) / 1e3, "s"),
        "ops_per_ref_s": (ok / (sum(ref_ms) / 1e3), "1/ref_s"),
        "op_p50_ref_ms": (statistics.median(ref_ms), "ref_ms"),
        "ok_ratio": (ok / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def wall_times(samples) -> dict:
    """The wall-clock figures behind the ref_ms metrics, for the record."""
    seconds = [s.seconds for s in samples]
    return {
        "ops_per_s": _outcomes(samples)[1] / sum(seconds),
        "op_p50_ms": statistics.median(seconds) * 1e3,
        "ref_rep_ms_median": statistics.median(
            s.ref_rep_s for s in samples) * 1e3,
    }


def per_layer(tracer: Tracer, untraced, traced, import_times,
              scipy_modules) -> dict:
    s = summarize(tracer)
    names, wall, ops = s["names"], s["op_wall"], s["ops"]

    def get(name, key="total"):
        return names.get(name, {}).get(key, 0.0)

    def info(name, key):
        return names.get(name, {}).get("info", {}).get(key, 0)

    def pct(*parts):
        return (100.0 * sum(get(n, k) for n, k in parts) / wall, "%")

    def per_op(value):
        return (value / ops, "count/op")

    fits = [f"estimation.fit_{k}" for k in
            ("kappa", "decay", "tof", "loading_rate", "column_profile")]
    fit_calls = sum(get(f, "calls") for f in fits)
    points = info("sweeps.run_sweep", "points")
    t_untraced = sum(s.seconds for s in untraced)
    t_traced = sum(s.seconds for s in traced)
    return {
        "import.cliptrap_s": (statistics.median(import_times), "s"),
        "import.scipy_modules": (scipy_modules, "count"),
        "import.span_pct": pct(("import.cliptrap", "total")),
        "interpreter.start_pct": pct(("interpreter.start", "total")),
        "interpreter.exit_pct": pct(("interpreter.exit", "total")),
        "trace.op_mean_ms": (wall / ops * 1e3, "ms"),
        "trace.overhead_pct": (100.0 * (t_traced - t_untraced) / t_untraced,
                               "%"),
        "trace.uncovered_pct": (100.0 * (wall - s["covered"]) / wall, "%"),
        "cli.main_pct": pct(("cli.main", "total")),
        "cli.config_self_pct": pct(("cli.build_config", "self"),
                                   ("cli.scenario_from_config", "self")),
        "cloud.make_thermal_cloud_pct": pct(("cloud.make_thermal_cloud",
                                             "total")),
        "cloud.occupied_volume_pct": pct(("cloud.occupied_volume", "total")),
        "cloud.effective_volume_pct": pct(("cloud.effective_volume", "total")),
        "cloud.column_density_self_pct": pct(("cloud.column_density", "self")),
        "cloud.volume_calls": per_op(
            sum(get(n, "calls") for n in ("cloud.make_thermal_cloud",
                                          "cloud.occupied_volume",
                                          "cloud.effective_volume"))),
        "cloud.column_density_points": per_op(
            info("cloud.column_density", "points")),
        "bessel.scaled_x_k1_calls": per_op(get("bessel.scaled_x_k1", "calls")),
        "bessel.scaled_x_k1_self_pct": pct(("bessel.scaled_x_k1", "self")),
        "dynamics.evolve_pct": pct(("dynamics.evolve", "total")),
        "dynamics.evolve_calls": per_op(get("dynamics.evolve", "calls")),
        "dynamics.steady_state_pct": pct(("dynamics.steady_state", "total")),
        "dynamics.steady_state_calls": per_op(
            get("dynamics.steady_state", "calls")),
        **{f"{f}_pct": pct((f, "total")) for f in fits},
        "estimation.least_squares_self_pct": pct(("estimation.least_squares",
                                                  "self")),
        "estimation.iterations": per_op(info("estimation.least_squares",
                                             "iterations")),
        "estimation.model_evals": per_op(s["model_evals"]),
        "estimation.converged_ratio": (
            sum(info(f, "converged") for f in fits) / fit_calls
            if fit_calls else 0.0, "ratio"),
        "sweeps.run_sweep_pct": pct(("sweeps.run_sweep", "total")),
        "sweeps.self_pct": pct(("sweeps.run_sweep", "self")),
        "sweeps.points": per_op(points),
        "sweeps.point_error_ratio": (
            info("sweeps.run_sweep", "errors") / points if points else 0.0,
            "ratio"),
        "sweeps.synthesize_pct": pct(("sweeps.synthesize_measurements",
                                      "total")),
    }


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cliptrap").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(args) -> dict:
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(), "src_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "tuning": ("none outside the benchmark's own processes: no cache "
                   "drops, cgroup or kernel settings"),
        "loadavg_before": os.getloadavg(),
    }


def run(args) -> tuple[dict, dict, Tracer | None]:
    """One benchmark run; returns (result, metadata, tracer)."""
    meta = metadata(args)
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    tracer = None
    try:
        workload.setup(args.seed, work)
        # A fixed round count keeps the operation mix, and the traced
        # counts, identical from run to run; a program much faster than the
        # nominal round time still gets half the requested time measured.
        if args.trace:
            rounds = max(1, round(args.seconds / workload.nominal_round_s / 2))
            untraced = run_pass(workload, rounds)
            tracer = Tracer()
            if not isinstance(workload, CliSession):
                tracer.install()
            try:
                traced = run_pass(workload, rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            samples = untraced + traced
            import_times, scipy_modules = measure_import(work)
            metrics = per_layer(tracer, untraced, traced, import_times,
                                scipy_modules)
        else:
            setup = measure_setup(args.workload, args.seed, work)
            rounds = max(1, round(args.seconds / workload.nominal_round_s
                                  / (1 + PACE_SHARE)))
            samples = run_pass(workload, rounds, args.seconds / 2, pace=True)
            metrics = end_to_end(workload, samples, setup)
            meta["setup_wall_s"] = [s.seconds for s in setup]
            meta["wall"] = wall_times(samples)
        meta["rounds"] = rounds
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, ok, known, unknown = _outcomes(samples)
    errors = workload.setup_errors + unknown
    kinds: dict[str, list[float]] = {}
    for kind, dt, *_ in samples:
        kinds.setdefault(kind, []).append(dt)
    meta.update({
        "loadavg_after": os.getloadavg(),
        "op_samples": attempted,
        "op_count_by_kind": {k: len(v) for k, v in kinds.items()},
        "op_median_ms_by_kind": {k: statistics.median(v) * 1e3
                                 for k, v in kinds.items()},
        "known_defect_failures": known,
        "unexpected_failures": errors[:20],
    })
    result = {
        "correct": not errors, "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    return result, meta, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result, meta, _ = run(args)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
