"""Atomic species data, physical constants and the MOT operating point.

Species and MOT parameters are held in SI units.  The config's lab units
(G/cm, G/cm^2, mG, cm^3, uK) are converted in one place, the CLI's key
table; load_species converts only its own file's units (amu, Bohr
magnetons, Hz).  Keep this module free of heavy imports so
every other layer can use it; that is also why ModelInputError, the model
layers' error for an input that cli.main names by its config keys, is
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .flatfile import key_values, number, read_lines

# CODATA 2018 reference values
BOLTZMANN = 1.380649e-23          # J/K (exact since 2019 SI)
BOHR_MAGNETON = 9.2740100783e-24  # J/T
GRAVITY = 9.80665                 # m/s^2, standard acceleration
ATOMIC_MASS = 1.66053906660e-27   # kg


class ModelInputError(ValueError):
    """No loss channel where one is needed, an untrapped cloud, a model
    field out of its bound or a value out of float range; inputs names the
    model inputs that set it."""

    def __init__(self, message: str, *inputs: str) -> None:
        super().__init__(message)
        self.inputs = inputs


# --- species ----------------------------------------------------------------

@dataclass(frozen=True)
class Species:
    """Atomic constants entering the loading model.

    gamma_eg is the angular linewidth of the strong cycling transition
    (rad/s) and branching_ratio_eg_ed its ratio to the leak rate into the
    metastable trapped state, so gamma_ed = gamma_eg / branching_ratio_eg_ed
    (1/s) is derived, never stored.
    """

    name: str
    mass: float                  # kg
    magnetic_moment: float       # J/T
    gamma_eg: float              # rad/s
    branching_ratio_eg_ed: float

    def __post_init__(self) -> None:
        if not (self.mass > 0 and self.magnetic_moment > 0 and self.gamma_eg > 0):
            raise ValueError("mass, magnetic_moment and gamma_eg must be positive")
        if not 0 < self.branching_ratio_eg_ed < math.inf:
            raise ValueError(
                "branching_ratio_eg_ed must be finite and positive")

    @property
    def gamma_ed(self) -> float:
        """Leak rate into the metastable trapped state (1/s)."""
        return self.gamma_eg / self.branching_ratio_eg_ed


def chromium_52() -> Species:
    """The built-in default species: bosonic 52Cr."""
    return Species(
        name="52Cr",
        mass=52 * ATOMIC_MASS,
        magnetic_moment=6 * BOHR_MAGNETON,
        gamma_eg=2 * math.pi * 5.02e6,
        branching_ratio_eg_ed=2.5e5,
    )


_SPECIES_KEYS = ("name", "mass_amu", "mu_bohr", "gamma_eg_hz",
                 "branching_eg_ed")


def load_species(path: str | Path) -> Species:
    """Load species data from a flat key = value text file.

    Required keys: name, mass_amu, mu_bohr, gamma_eg_hz (linewidth in Hz,
    i.e. gamma_eg / 2 pi) and branching_eg_ed.  '#' comments are skipped;
    an unknown key or a non-finite number is an error.
    """
    raw = key_values(read_lines(path), _SPECIES_KEYS)
    missing = [k for k in _SPECIES_KEYS if k not in raw]
    if missing:
        raise ValueError(f"species file missing keys: {', '.join(missing)}")
    num = {k: number(v, f"{path}: {k}") for k, v in raw.items() if k != "name"}
    return Species(
        name=raw["name"],
        mass=num["mass_amu"] * ATOMIC_MASS,
        magnetic_moment=num["mu_bohr"] * BOHR_MAGNETON,
        gamma_eg=2 * math.pi * num["gamma_eg_hz"],
        branching_ratio_eg_ed=num["branching_eg_ed"],
    )


# --- MOT light parameters ---------------------------------------------------

@dataclass(frozen=True)
class MotBeamParams:
    """MOT operating point and cloud shape.

    total_saturation is I/I_sat summed over all beams; math.inf selects the
    fully saturated limit (excited fraction exactly 1/2).  detuning is the
    angular detuning delta (rad/s), negative for red.
    """

    total_saturation: float
    detuning: float
    n_mot: float
    temperature: float    # K
    sigma_radial: float   # m, 1/sqrt(e) radius
    sigma_axial: float    # m

    def __post_init__(self) -> None:
        if not self.total_saturation >= 0:
            raise _field_error("total_saturation", ">= 0")
        if not (math.isfinite(self.detuning) and 0 <= self.n_mot < math.inf):
            raise ValueError("detuning must be finite and n_mot in [0, inf)")
        for name in ("temperature", "sigma_radial", "sigma_axial"):
            if not getattr(self, name) > 0:
                raise _field_error(name, "positive")


def _field_error(name: str, bound: str) -> ModelInputError:
    """ModelInputError for a dataclass field out of its bound, which
    cli.main names by its config key."""
    return ModelInputError(f"{name} must be {bound}", name)


def excited_fraction(beams: MotBeamParams, species: Species) -> float:
    """Steady-state excited-state fraction of the two-level MOT transition.

    s/2 / (1 + s + (2 delta/Gamma)^2); tends to 1/2 as s -> inf.
    """
    s = beams.total_saturation
    if math.isinf(s):
        return 0.5
    d = 2 * beams.detuning / species.gamma_eg
    return 0.5 * s / (1 + s + d * d)
