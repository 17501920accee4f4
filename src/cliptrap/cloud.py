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
a cloud.  The MOT overlap of effective_volume has no closed form: the same
angular integral leaves one radial integral of rho e^{-rho^2/2s^2 -
rho/xi1} I0(c rho), done by composite 20-node Gauss-Legendre panels, two
passes checked against each other.  Both passes sum one evaluation of the
integrand on their joined nodes, so a call makes one i0e call, on 120-220
nodes for a 0.1 mm MOT within 3 sigma of the trap centre, and costs about
70-80 us on a 2-core VM, three quarters of it in i0e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import exp_scaled_x_k0_k1, i0e
from .species import BOLTZMANN, GRAVITY, ModelInputError, Species
from .trap import IpTrapConfig

_QUAD_RTOL = 1e-8
_TAIL = 40.0  # exponent drop at the ends of the radial range


class QuadratureError(RuntimeError):
    """effective_volume's two Gauss-Legendre passes, with panels of two
    widths, disagree by more than _QUAD_RTOL relative."""


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


# The 20-node Gauss-Legendre rule on [-1, 1], exact for polynomials of
# degree <= 39 (Abramowitz & Stegun, Table 25.4): the positive nodes and
# their weights, mirrored.  As literals, the rule costs no LAPACK call.
_GL_HALF = np.array([
    (0.076526521133497333755, 0.15275338713072585070),
    (0.22778585114164507808, 0.14917298647260374679),
    (0.37370608871541956067, 0.14209610931838205133),
    (0.51086700195082709800, 0.13168863844917662690),
    (0.63605368072651502545, 0.11819453196151841731),
    (0.74633190646015079261, 0.10193011981724043504),
    (0.83911697182221882339, 0.083276741576704748725),
    (0.91223442825132590587, 0.062672048334109063570),
    (0.96397192727791379127, 0.040601429800386941331),
    (0.99312859918509492479, 0.017614007139152118312)])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])


def _panels(lo: float, hi: float, count: int, c: float):
    """Midpoints and half-widths of the panels of two composite
    Gauss-Legendre rules on [lo, hi], of `count` and 2 `count` equal
    panels, as two lists stacked by panel, and the number of the rough
    rule's panels, which come first: (mids, halves, rows).

    Where lo = 0, each rule's first panel, of width w, is split at w/2,
    w/4, ... down to a width of at most 4/c: i0e(c rho) bends from 1 to
    its 1/sqrt(2 pi c rho) tail at rho ~ 1/c, and a 20-node panel follows
    that bend to ~1e-13 up to a width of about 16/c.  The panels are few,
    so they are built in plain Python.
    """
    mids, halves = [], []
    for n in (count, 2 * count):
        rows = len(mids)
        step = (hi - lo) / n
        edges = [lo + step * i for i in range(n + 1)]
        if lo == 0 and c * edges[1] > 4:
            splits = math.ceil(math.log2(c * edges[1] / 4))
            edges[1:1] = [edges[1] * 2.0 ** -k for k in range(splits, 0, -1)]
        for a, b in zip(edges, edges[1:]):
            mids.append(0.5 * (a + b))
            halves.append(0.5 * (b - a))
    return mids, halves, rows


def _radial_integral(m: float, c: float, s: float) -> float:
    """int_0^inf rho i0e(c rho) exp(-q (q + 2d) / (2 s^2)) drho, with
    q = rho - max(m, 0) and d = max(0, -m): the in-plane overlap over its
    peak exponent (see effective_volume).

    The range ends where the exponent has fallen by _TAIL from its peak
    at max(m, 0).  The integrand's decay length is s^2 / max(s, d): the
    Gaussian's s, or, where its centre m lies far below rho = 0, the
    length s^2/d of the exponential fall from rho = 0, at least
    min(s, xi1).  Two composite Gauss-Legendre passes, with panels of
    eight and four times that length, must agree to _QUAD_RTOL; the finer
    is returned.  The integrand is evaluated once, on both passes' nodes
    together, and one product with the weights sums every panel.
    """
    top = max(m, 0.0)
    d = top - m
    reach = s * math.sqrt(2 * _TAIL)
    lo = max(0.0, m - reach)
    hi = top + reach * reach / (d + math.hypot(d, reach))
    count = math.ceil((hi - lo) * max(s, d) / (8 * s * s))
    mids, halves, rows = _panels(lo, hi, count, c)
    half = np.array(halves)
    rho = np.array(mids)[:, None] + half[:, None] * _GL_NODES
    q = rho - top
    f = rho * i0e(c * rho) * np.exp(q * (q + 2 * d) * (-0.5 / (s * s)))
    sums = (f @ _GL_WEIGHTS * half).tolist()
    rough, val = sum(sums[:rows]), sum(sums[rows:])
    if not abs(val - rough) <= _QUAD_RTOL * val:
        raise QuadratureError(
            f"quadrature passes disagree: {rough!r} and {val!r} differ by "
            f"more than {_QUAD_RTOL:.0e} relative")
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


def _column_terms(n0, xi1, xi2, sigma_z, y, z):
    """(f, g, w) of column_density, from n0 and the scale lengths.

    In closed form, f = a uK1(u) and its derivative's twin g = a uK0(u),
    d(uK1)/du = -uK0, with u = |y|/xi1, w = z/sigma_z and
    a = 2 n0 xi1 exp(-y/xi2 - w^2/2); the removable y = 0 singularity is
    replaced by its limit uK1 = 1.  K0 and K1 come e^u-scaled from one
    pass, and e^-u joins a's exponent: -u - y/xi2 - w^2/2 <= 0 for a
    trapped cloud, so neither factor overflows where f does not.  Arrays
    of y and z broadcast against each other.
    """
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    inv2 = 0.0 if math.isinf(xi2) else 1.0 / xi2
    u = np.abs(y) / xi1
    uk0, uk1 = exp_scaled_x_k0_k1(u)
    w = z / sigma_z
    with np.errstate(over="ignore"):  # a w^2 past float range: e = 0
        e = np.exp(-u - y * inv2 - w * w / 2)
    scale = 2 * n0 * xi1
    return e * (scale * uk1), e * (scale * uk0), w


def column_density(cloud: ThermalCloud, y, z):
    """Line-of-sight integral of mt_density along x, in closed form:

    2 n0 xi1 * (|y|/xi1) K1(|y|/xi1) * exp(-y/xi2 - z^2/(2 sigma_z^2)),
    with the removable y = 0 singularity replaced by its limit 2 n0 xi1.
    """
    out = _column_terms(cloud.peak_density, cloud.xi1, cloud.xi2,
                        cloud.sigma_z, y, z)[0]
    return float(out) if out.ndim == 0 else out


def column_profile_model(species: Species, trap: IpTrapConfig, y, z):
    """The column density on the y x z grid (float arrays, m), raveled, as
    a least_squares model in p = (n0, T, y0, z0) with its exact Jacobian;
    xi1, xi2 and sigma_z^2 are proportional to T.  K0 and K1 run on the
    len(y) offsets y' = y - y0, and broadcasting fills the grid.  Each
    Jacobian column multiplies f or g by factors in (y', z') that f's own
    exponent outweighs, over one of n0, T, xi1, xi2 and sigma_z: it is
    finite wherever f is, unless f's peak lies within that divisor of
    float range (fit_column_profile checks this at its start).
    """
    def model(_x, p):
        n0, t_k, y0, z0 = p
        xi1, xi2, sigma_z = scale_lengths(species, trap, t_k)
        dy = (y - y0)[:, None]
        f, g, w = _column_terms(n0, xi1, xi2, sigma_z, dy, (z - z0)[None, :])

        def jac():
            fw = f * w
            return np.column_stack([c.ravel() for c in (
                f / n0,
                (f * (1 + dy / xi2) + fw * (w / 2)
                 + g * (np.abs(dy) / xi1)) / t_k,
                g * (np.sign(dy) / xi1) + f / xi2,
                fw / sigma_z)])
        return f.ravel(), jac
    return model


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

    The axial factor, a product of two Gaussians, is analytic.  In the
    radial plane, in polar coordinates (rho, phi) about the trap center,
    the exponent is linear in (cos phi, sin phi), so the angular integral
    is 2 pi I0(c rho), c = |r0/s^2 - y_hat/xi2|, and

        2 pi e^{-r0^2/2s^2} int rho e^{-rho^2/2s^2 - rho/xi1} I0(c rho) drho

    is left, s the MOT's radial 1/sqrt(e) radius and r0 its center in the
    plane.  With I0 = e^{c rho} i0e(c rho), the exponent is
    -(rho - m)^2/(2 s^2) plus a constant, m = s^2 (c - 1/xi1): its peak on
    rho >= 0 is taken out in closed form, and _radial_integral evaluates
    the rest by two checked Gauss-Legendre passes, which share one
    evaluation of the integrand.  Where the MOT lies so far from the trap
    cloud that V_eff overflows a float, raises ValueError; where the
    passes disagree, QuadratureError.
    """
    if not all(map(math.isfinite, offset)):
        raise ValueError(f"offset {offset!r} must be finite")
    x0, y0, z0 = offset
    s, sa, sz = mot.sigma_radial, mot.sigma_axial, mt.sigma_z
    inv1 = 1.0 / mt.xi1
    inv2 = 0.0 if math.isinf(mt.xi2) else 1.0 / mt.xi2

    rho_c = math.hypot(x0, y0 - s * s * inv2)  # s^2 c
    m = rho_c - s * s * inv1
    if m > 0:  # the exponent at rho = m, formed without cancellation
        peak = (s * s * inv2 * inv2 / 2 - y0 * inv2 - m * inv1
                - s * s * inv1 * inv1 / 2)
    else:  # at the trap center, where the trap density is n0
        peak = -(x0 * x0 + y0 * y0) / (2 * s * s)
    exponent = peak - z0 * z0 / (2 * (sa * sa + sz * sz))

    # V_eff = (N_MT / n0) s^2 hypot(sa, sz) / (sz S) e^{-exponent}, S the
    # radial integral: the MOT's (2 pi)^(3/2) cancels the angle's 2 pi and
    # the axial Gaussians' sqrt(2 pi)
    base = (mt.atom_number / mt.peak_density * s * s * math.hypot(sa, sz)
            / (sz * _radial_integral(m, rho_c / (s * s), s)))
    try:  # in logs: exp(-exponent) may overflow where V_eff does not
        v = math.exp(math.log(base) - exponent)
    except OverflowError:
        v = math.inf
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
