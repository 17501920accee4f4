"""Scenario construction, trap-parameter sweeps and synthetic data.

Sweeps rebuild the cloud geometry for every swept value and read each
output off the point's LoadingScenario, as the scenario attribute of that
name (n_mot as mot.n_mot), so each point evaluates the excited fraction,
R and gamma once, and N_inf once if an output needs it.  A point that
fails keeps its row, with the message in its 'error' field: an untrapped
cloud, kappa or the abscissa at n_mot = 0, or N_inf without any loss
channel.  The MOT atom number is never predicted from trap parameters
(the model contains no MOT physics); it is held constant or supplied per
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import cloud, dynamics
from .dynamics import LoadingScenario
from .estimation import DataSet
from .trap import IpTrapConfig

SWEEPABLE = ("radial_gradient", "axial_curvature", "offset_field")
# The scenario attributes a sweep can report, n_mot as mot.n_mot
OUTPUTS = ("n_mot", "n_mt_steady", "loading_rate", "tau_eff", "v_mt",
           "kappa", "kappa_abscissa", "t_mt_prediction", "majorana_safe")
DEFAULT_OUTPUTS = OUTPUTS[:6]
# What a data file holds, by its header's first two cells: the writers label
# from it, cli._read classifies by it.  A name up to " of " names the x.
FILE_KINDS: dict[tuple[str, str], str] = {
    ("t_s", "n_atoms"): "a time series of atom numbers",
    ("t_s", "sigma_m"): "a time series of radii",
    ("rv_over_nmot2_m3_per_s", "kappa"): "kappa points",
    ("y_mm", "z_mm"): "a profile table"}
HEADER = {kind: header for header, kind in FILE_KINDS.items()}
ATOM_NUMBERS, RADII, KAPPA_POINTS, PROFILE_TABLE = HEADER


@dataclass(frozen=True)
class SweepSpec:
    """One swept trap parameter, its values (SI) and the requested outputs."""

    swept_parameter: str
    values: Sequence[float]
    base_scenario: LoadingScenario
    outputs: Sequence[str] = DEFAULT_OUTPUTS
    n_mot_per_point: Sequence[float] | None = None

    def __post_init__(self) -> None:
        if self.swept_parameter not in SWEEPABLE:
            raise ValueError(f"sweep parameter must be one of "
                             f"{', '.join(SWEEPABLE)}: "
                             f"{self.swept_parameter!r}")
        # held as tuples, so an iterator given here is not used up by the
        # checks below and the sweep still sees every value
        for name in ("values", "outputs", "n_mot_per_point"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        vals = self.values
        if not vals:
            raise ValueError("values must be non-empty")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"{self.swept_parameter} values must be finite")
        steps = tuple(zip(vals, vals[1:]))
        if not (all(a < b for a, b in steps) or all(a > b for a, b in steps)):
            raise ValueError("values must be strictly monotone")
        if self.swept_parameter != "offset_field" and min(vals) <= 0:
            raise ValueError(f"{self.swept_parameter} values must be positive")
        if self.n_mot_per_point is not None:
            if len(self.n_mot_per_point) != len(vals):
                raise ValueError("n_mot_per_point length must match values")
            if not all(0 <= n < math.inf for n in self.n_mot_per_point):
                raise ValueError("n_mot_per_point values must be finite "
                                 "and >= 0")
        unknown = set(self.outputs) - set(OUTPUTS)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}")
        repeated = {n for n in self.outputs if self.outputs.count(n) > 1}
        if repeated:
            raise ValueError(f"repeated outputs: {sorted(repeated)}")


def scenario_at(base: LoadingScenario, parameter: str, value: float,
                n_mot: float | None = None) -> LoadingScenario:
    """Rebuild the scenario with one trap parameter changed, at the base's
    trap temperature; the scenario computes V_MT, and V_eff = V_MT.  Built
    directly: dataclasses.replace took a third of a sweep point's time."""
    trap_cfg = IpTrapConfig(**(vars(base.trap) | {parameter: value}))
    mot = base.mot if n_mot is None else replace(base.mot, n_mot=n_mot)
    return LoadingScenario(base.species, trap_cfg, base.coefficients, mot,
                           base.mt_temperature)


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per swept value with the requested outputs.

    Per-point failures are recorded in the row's 'error' field and the
    sweep continues.
    """
    rows = []
    for i, value in enumerate(spec.values):
        n_mot = (spec.n_mot_per_point[i]
                 if spec.n_mot_per_point is not None else None)
        row: dict = {"value": float(value), "error": ""}
        try:
            scen = scenario_at(spec.base_scenario, spec.swept_parameter,
                               value, n_mot)
            row.update({name: scen.mot.n_mot if name == "n_mot"
                        else getattr(scen, name) for name in spec.outputs})
        except Exception as exc:  # per-point isolation is the contract
            row["error"] = str(exc)
            row.update({name: math.nan for name in spec.outputs})
        rows.append(row)
    return rows


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) for 0 < lo, bit for bit, at a fraction of
    its cost: the same powers of 10 of a linspace of log10, with the
    endpoints set to lo and hi.  The exponents are formed as linspace
    forms them, arange(n) * step + log10(lo).  linspace divides before it
    multiplies only where the step underflows to 0, which needs
    log10(hi) - log10(lo) nonzero but below n - 1 times the smallest normal
    float, and two floats' log10 that differ at all differ by 6e-33 or
    more.  np.log10, not math.log10, which rounds differently."""
    a = np.log10(lo)
    step = (np.log10(hi) - a) / max(n - 1, 1)
    x = np.power(10.0, np.arange(n) * step + a)
    if n > 0:
        x[0] = lo
    if n > 1:
        x[-1] = hi
    return x


def synthesize_measurements(scenario: LoadingScenario, kind: str,
                            noise: float = 0.0, seed: int = 0,
                            points: int = 30) -> DataSet:
    """Forward-model data with multiplicative Gaussian noise.

    kinds: loading_curve (t, N) over 10 tau_eff, decay_curve (t, N) over
    150 s, tof_series (t, sigma), kappa_points (R V/N^2, kappa), each of
    `points` >= 2 samples.  Deterministic for a given seed.
    """
    if not noise >= 0:
        raise ValueError("noise must be >= 0")
    if points < 2:
        raise ValueError(f"points must be >= 2: {points}")
    rng = np.random.default_rng(seed)

    if kind == "loading_curve":
        t_end = 10 * scenario.tau_eff
        if not scenario.loading_rate > 0:
            raise ValueError("a loading curve needs a loading rate > 0")
        if not 0 < t_end < math.inf:  # not evolve's error: it names t_end_s
            raise dynamics.ModelInputError(
                "a loading curve's span 10 tau_eff under- or overflows a "
                "float", "gamma_d", "beta_ed", "beta_dd", "v_mt")
        t, n = dynamics.evolve(scenario, 0.0, t_end, samples=points)
        x, y, held = t, n, ATOM_NUMBERS
    elif kind == "decay_curve":
        t = _log_grid(0.05, 150.0, points)
        t[0] = 0.0  # anchor the initial atom number
        y = dynamics.decay(scenario.n_mt_steady,
                           scenario.coefficients.gamma_d,
                           scenario.coefficients.beta_dd, scenario.v_mt, t)
        x, held = t, ATOM_NUMBERS
    elif kind == "tof_series":
        t = np.linspace(1e-3, 8e-3, points)
        kt = scenario.mt_temperature
        # the trap cloud's xi1 is the pre-expansion size; the cloud's own
        # checks hold where v_mt is given and no V_MT was formed
        sigma0 = cloud.make_thermal_cloud(scenario.species, scenario.trap,
                                          1.0, kt).xi1
        y = cloud.tof_radius(sigma0, kt, scenario.species, t)
        x, held = t, RADII
    elif kind == "kappa_points":
        x0 = scenario.kappa_abscissa
        if not (0.1 * x0 > 0 and 10 * x0 < math.inf):
            raise dynamics.ModelInputError(
                "kappa points need an abscissa x = R V_MT / N_MOT^2 with "
                "x / 10 > 0 and 10 x finite", *dynamics.LOADING_RATE_INPUTS,
                "v_mt")
        x, held = _log_grid(0.1 * x0, 10 * x0, points), KAPPA_POINTS
        y = dynamics.kappa_of_abscissa(x, scenario.coefficients.beta_dd,
                                       scenario.coefficients.beta_ed)
    else:
        raise ValueError(f"unknown kind {kind!r}")

    y = model = np.asarray(y, float)
    with np.errstate(over="ignore", invalid="ignore"):
        if noise > 0:
            y = model * (1.0 + noise * rng.standard_normal(model.shape))
        sigma = np.maximum(np.abs(y) * max(noise, 1e-6), 1e-300)
    # a non-finite model value is DataSet's error, not the noise's
    if not np.isfinite(sigma).all() and np.isfinite(model).all():
        raise dynamics.ModelInputError(
            "noise makes the data or their sigma overflow a float", "noise")
    return DataSet(np.asarray(x, float), y, sigma, *HEADER[held])
