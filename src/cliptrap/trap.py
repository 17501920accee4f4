"""Ioffe-Pritchard trap fields and the Majorana offset check.

The trap is taken in the separable form used throughout the cloud and
dynamics modules: linear radial confinement with gradient B', harmonic
axial confinement with curvature B'' and axial offset B0.  Convention:
B(0,0,z) = B0 + B'' z^2 / 2, i.e. the axial potential is mu B'' z^2 / 2
(curvature conventions in the literature differ by factors of two).
Fields are in SI units (T, T/m, T/m^2); the CLI's key table converts the
lab units G/cm, G/cm^2 and mG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .species import _field_error

# Offset below which Majorana spin flips are not suppressed (40 mG; at the
# radial parameters considered here this keeps the flip rate under 0.1/s).
MAJORANA_MIN_OFFSET = 4e-6  # T


@dataclass(frozen=True)
class IpTrapConfig:
    """Static trap fields in SI units.

    The background loss rate is a vacuum property, not a trap one: it lives
    in dynamics.RateCoefficients.gamma_d.
    """

    radial_gradient: float      # T/m
    axial_curvature: float      # T/m^2
    offset_field: float = 0.0   # T, may be negative

    def __post_init__(self) -> None:
        if not self.radial_gradient > 0:
            raise _field_error("radial_gradient", "positive")
        if not self.axial_curvature > 0:
            raise _field_error("axial_curvature", "positive")
        if not math.isfinite(self.offset_field):
            raise ValueError("offset_field must be finite")


def majorana_safe(cfg: IpTrapConfig) -> bool:
    """True iff the offset field is at or above the 40 mG suppression
    threshold.  Threshold check only; no spin-flip rate model."""
    return cfg.offset_field >= MAJORANA_MIN_OFFSET
