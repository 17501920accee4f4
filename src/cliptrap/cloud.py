"""Thermal density distributions, scale lengths, volumes and projections.

The magnetic-trap density is exponential in the radial plane (scale xi1),
tilted by gravity along -y (scale xi2) and Gaussian along the axis
(sigma_z):

    n(x, y, z) = n0 exp(-sqrt(x^2+y^2)/xi1 - y/xi2 - z^2/(2 sigma_z^2))

The peak density and the occupied volume are closed forms in one tilt
factor (1 - r^2)^(3/2), r = xi1/xi2 = m g/(mu B') (1 with gravity off):

    n0   = N (1 - r^2)^(3/2) / ((2 pi)^(3/2) xi1^2 sigma_z)
    V_MT = 16 pi^(3/2) xi1^2 sigma_z / (1 - r^2)^(3/2)

They hold because integrating the radial plane over angle first gives
2 pi I0(b rho), whose Laplace transform yields

    integral exp(-a rho - b y) dA = 2 pi a / (a^2 - b^2)^(3/2)

(Gradshteyn & Ryzhik 6.623), and the axial Gaussian factor integrates
analytically.  trap_volume, the one V_MT path, uses them without building
a cloud.  Only the MOT overlap integral of effective_volume is still done
by 2D adaptive quadrature, in polar coordinates centred on the trap, where
the area element cancels the density's cusp at the centre; scipy is
imported there, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import scaled_x_k0_k1
from .species import BOLTZMANN, GRAVITY, ModelInputError, Species
from .trap import IpTrapConfig

_QUAD_RTOL = 1e-8


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class CloudRangeError(ModelInputError):
    """The trap cloud's size under- or overflows a float."""

    def __init__(self) -> None:
        super().__init__("trap cloud size under- or overflows a float",
                         "radial_gradient", "axial_curvature",
                         "mt_temperature")


class UntrappedCloudError(ModelInputError):
    """Gravity exceeds the trap's radial force: mu B' <= m g."""

    def __init__(self) -> None:
        super().__init__("untrapped cloud: gravity scale xi2 must exceed xi1",
                         "radial_gradient")


def _dblquad_checked(f, box_x, box_y) -> float:
    """Two-pass adaptive double integral with a self-consistency check.

    The rough first pass anchors an absolute tolerance for the accurate
    second pass, so that inner integrals near the edge of the box, up to
    e^-50 below the peak's, are not resolved to relative accuracy.
    Agreement between the passes is the convergence criterion: dblquad's
    error estimate is the outer pass's, which takes each inner integral
    as exact.  A rough pass of 0 is returned as 0: the integrand, which
    is not negative, underflows wherever it was sampled.
    """
    import warnings

    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        rough, _ = integrate.dblquad(f, *box_x, *box_y,
                                     epsabs=0.0, epsrel=1e-4)
        if not math.isfinite(rough):
            raise QuadratureError("rough quadrature pass returned %r" % rough)
        if rough == 0.0:
            return 0.0
        val, _ = integrate.dblquad(f, *box_x, *box_y,
                                   epsabs=1e-2 * _QUAD_RTOL * abs(rough),
                                   epsrel=1e-2 * _QUAD_RTOL)
    achieved = abs(val - rough) / max(abs(val), 1e-300)
    if not math.isfinite(val) or achieved > 1e-3:
        raise QuadratureError(
            f"quadrature passes disagree: achieved relative tolerance "
            f"{achieved:.2e}, requested {_QUAD_RTOL:.0e}")
    return val


@dataclass(frozen=True)
class ThermalCloud:
    """Trapped ensemble in the magnetic trap.

    xi2 = math.inf represents the gravity-free shape.  peak_density is the
    normalizing n0 such that the density integrates to atom_number.
    """

    atom_number: float
    temperature: float   # K
    xi1: float           # m
    xi2: float           # m (inf: gravity off)
    sigma_z: float       # m
    peak_density: float  # 1/m^3

    def __post_init__(self) -> None:
        for name in ("atom_number", "temperature", "xi1", "xi2", "sigma_z",
                     "peak_density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class GaussianCloud:
    """MOT ensemble: Gaussian with 1/sqrt(e) radii sigma_radial, sigma_axial."""

    atom_number: float
    temperature: float
    sigma_radial: float
    sigma_axial: float

    def __post_init__(self) -> None:
        for name in ("atom_number", "temperature", "sigma_radial", "sigma_axial"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


# --- scale lengths, peak density and V_MT ---------------------------------

def scale_lengths(species: Species, cfg: IpTrapConfig, t: float,
                  include_gravity: bool = True) -> tuple[float, float, float]:
    """(xi1, xi2, sigma_z) of the trap cloud at temperature t.

    xi1 = kT / (mu B'), xi2 = kT / (m g) (inf with gravity off) and
    sigma_z = sqrt(kT / (mu B'')).
    """
    kt = BOLTZMANN * t
    mu = species.magnetic_moment
    xi1 = kt / (mu * cfg.radial_gradient)
    xi2 = kt / (species.mass * GRAVITY) if include_gravity else math.inf
    sigma_z = math.sqrt(kt / (mu * cfg.axial_curvature))
    return xi1, xi2, sigma_z


def _tilt(xi1: float, xi2: float) -> float:
    """(1 - r^2)^(3/2), r = xi1/xi2 = m g/(mu B'); 1 with gravity off."""
    r = xi1 / xi2 if xi2 < math.inf else 0.0  # kT = 0 divides by zero here
    if not r < 1:  # only a cloud built by hand
        raise UntrappedCloudError
    return (1 - r * r) ** 1.5


def _volume(xi1: float, xi2: float, sigma_z: float) -> float:
    """V_MT = 16 pi^(3/2) xi1^2 sigma_z / (1 - r^2)^(3/2), formed without an
    intermediate that leaves float range where V_MT does not."""
    v = 16 * math.pi ** 1.5 * xi1 * sigma_z * xi1 / _tilt(xi1, xi2)
    if not 0 < v < math.inf:
        raise CloudRangeError
    return v


def _shape(species, cfg, n, t, include_gravity):
    """(xi1, xi2, sigma_z, peak density) of make_thermal_cloud's cloud."""
    if not (n > 0 and t > 0):
        raise ValueError("atom number and temperature must be positive")
    try:  # a divisor may underflow to 0
        xi1, xi2, sigma_z = scale_lengths(species, cfg, t, include_gravity)
        # mu B' > m g is xi2 > xi1 without T; after the scale lengths, a
        # mu B' that underflows to 0 is out of range, not untrapped
        force = species.magnetic_moment * cfg.radial_gradient
        if include_gravity and not force > species.mass * GRAVITY:
            raise UntrappedCloudError
        n0 = n * _tilt(xi1, xi2) / ((2 * math.pi) ** 1.5 * xi1 * sigma_z
                                    * xi1)
    except ZeroDivisionError:
        n0 = math.nan
    if not 0 < n0 < math.inf:  # a scale length under- or overflowed
        raise CloudRangeError
    return xi1, xi2, sigma_z, n0


def make_thermal_cloud(species: Species, cfg: IpTrapConfig,
                       n: float, t: float,
                       include_gravity: bool = True) -> ThermalCloud:
    """Build the trap cloud for atom number n at temperature t.

    Scale lengths follow from the trap and species; the peak density
    normalizes the (gravity-modified) distribution to n atoms.
    """
    return ThermalCloud(n, t, *_shape(species, cfg, n, t, include_gravity))


def trap_volume(species: Species, cfg: IpTrapConfig, t: float,
                include_gravity: bool = True) -> float:
    """V_MT: occupied_volume of make_thermal_cloud(n=1.0), same bits and errors."""
    xi1, xi2, sigma_z, _ = _shape(species, cfg, 1.0, t, include_gravity)
    return _volume(xi1, xi2, sigma_z)


def mt_density(cloud: ThermalCloud, x, y, z):
    """Magnetic-trap density at (x, y, z); accepts scalars or arrays."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    inv2 = 0.0 if math.isinf(cloud.xi2) else 1.0 / cloud.xi2
    arg = (-np.hypot(x, y) / cloud.xi1 - y * inv2
           - z * z / (2 * cloud.sigma_z ** 2))
    out = cloud.peak_density * np.exp(arg)
    return float(out) if out.ndim == 0 else out


def column_density_terms(cloud: ThermalCloud, y, z):
    """(f, amp, uK0) of the line-of-sight integral of mt_density along x.

    In closed form, f = amp * uK1(u), with u = |y|/xi1 and
    amp = 2 n0 xi1 exp(-y/xi2 - z^2/(2 sigma_z^2)); the removable y = 0
    singularity is replaced by its limit uK1 = 1.  uK0(u) is the
    derivative's factor, d(uK1)/du = -uK0, from the same Bessel pass.
    Arrays of y and z broadcast against each other.
    """
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    inv2 = 0.0 if math.isinf(cloud.xi2) else 1.0 / cloud.xi2
    uk0, uk1 = scaled_x_k0_k1(np.abs(y) / cloud.xi1)
    scale = 2 * cloud.peak_density * cloud.xi1
    gauss = np.exp(-y * inv2 - z * z / (2 * cloud.sigma_z ** 2))
    return scale * uk1 * gauss, scale * gauss, uk0


def column_density(cloud: ThermalCloud, y, z):
    """Line-of-sight integral of mt_density along x, in closed form:

    2 n0 xi1 * (|y|/xi1) K1(|y|/xi1) * exp(-y/xi2 - z^2/(2 sigma_z^2)),
    with the removable y = 0 singularity replaced by its limit 2 n0 xi1
    (see column_density_terms).
    """
    out = column_density_terms(cloud, y, z)[0]
    return float(out) if out.ndim == 0 else out


def occupied_volume(cloud: ThermalCloud) -> float:
    """Density-weighted volume N^2 / integral(n^2), in closed form: V_MT of
    the cloud's shape, whose peak density normalizes it to N."""
    return _volume(cloud.xi1, cloud.xi2, cloud.sigma_z)


def effective_volume(mot: GaussianCloud, mt: ThermalCloud,
                     offset: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> float:
    """Overlap volume N_MOT N_MT / integral(n_MOT n_MT).

    The overlap integral is evaluated with the MOT centered at `offset`
    relative to the trap center.  Where the MOT is much smaller than the
    magnetic trap, V_eff is often approximated by the trap volume,
    occupied_volume(mt).

    The radial plane is integrated in polar coordinates (rho, phi) about
    the trap center, phi measured from the direction of the MOT center at
    distance r0, over the annulus |rho - r0| <= 10 sigma; where r0 > 10
    sigma, only its sector |phi| <= asin(10 sigma / r0), which holds the
    MOT's 10 sigma disc.  The area element rho cancels the cusp of
    exp(-rho/xi1) at the trap center, and the MOT peak sits at phi = 0,
    the midpoint of the angular range.  Where the MOT lies so far from
    the trap cloud that the overlap underflows a float, raises ValueError.
    """
    if not all(map(math.isfinite, offset)):
        raise ValueError(f"offset {offset!r} must be finite")
    x0, y0, z0 = offset
    sr, sa = mot.sigma_radial, mot.sigma_axial
    inv1 = 1.0 / mt.xi1
    inv2 = 0.0 if math.isinf(mt.xi2) else 1.0 / mt.xi2

    # Axial factor: product of two Gaussians, analytic.
    s2 = sa * sa + mt.sigma_z ** 2
    axial = math.sqrt(2 * math.pi * sa * sa * mt.sigma_z ** 2 / s2) \
        * math.exp(-z0 * z0 / (2 * s2))

    r0 = math.hypot(x0, y0)
    alpha = math.atan2(y0, x0)
    k = 1 / (2 * sr * sr)

    def f(rho, phi):
        # |r - r0|^2 = (rho - r0)^2 + 4 rho r0 sin^2(phi/2), no cancellation
        h = math.sin(0.5 * phi)
        return rho * math.exp(-((rho - r0) ** 2 + 4 * rho * r0 * h * h) * k
                              - rho * (inv1 + math.sin(phi + alpha) * inv2))

    # Product is localized by the MOT Gaussian around its center.
    box = 10 * sr
    top = math.asin(box / r0) if r0 > box else math.pi
    val = (_dblquad_checked(f, (-top, top), (max(0.0, r0 - box), r0 + box))
           if axial > 0 else 0.0)

    mot_peak = mot.atom_number / ((2 * math.pi) ** 1.5 * sr * sr * sa)
    overlap = mot_peak * mt.peak_density * val * axial
    v = mot.atom_number * mt.atom_number / overlap if overlap > 0 else math.inf
    if v == math.inf:
        raise ValueError("MOT and trap cloud overlap underflows a float")
    return v


def tof_radius(sigma0: float, t_temp: float, species: Species, t):
    """Ballistic-expansion 1/sqrt(e) radius sqrt(sigma0^2 + (kT/m) t^2),
    formed as hypot(sigma0, sqrt(kT/m) t), which squares neither term.

    Vectorized over t: an array of times gives an array of radii, a scalar
    a float.
    """
    if not sigma0 >= 0:
        raise ValueError("initial radius must be >= 0")
    if not t_temp >= 0:
        raise ValueError("temperature must be >= 0")
    t = np.asarray(t, float)
    if not (t >= 0).all():
        raise ValueError("expansion time must be >= 0")
    r = np.hypot(sigma0, math.sqrt(BOLTZMANN * t_temp / species.mass) * t)
    return float(r) if r.ndim == 0 else r
