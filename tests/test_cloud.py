import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import i0e

from cliptrap import cli, cloud, sweeps
from cliptrap.cloud import (CloudRangeError, GaussianCloud, QuadratureError,
                            ThermalCloud, UntrappedCloudError, column_density,
                            effective_volume, make_thermal_cloud, mt_density,
                            occupied_volume, scale_lengths, tof_radius,
                            trap_volume)
from cliptrap.species import chromium_52
from cliptrap.trap import IpTrapConfig


CR = chromium_52()
CFG = IpTrapConfig(0.125, 10.5)


def planar_oracle(xi1: float, xi2: float, power: float) -> float:
    """Closed form of the in-plane integral of exp(-p(rho/xi1 + y/xi2)).

    Independent route: in polar coordinates the angular integral gives a
    modified Bessel I0 and the radial integral reduces to
    2 pi a^2 / (1 - (a/b)^2)^{3/2} with a = xi1/p, b = xi2/p.
    """
    a = xi1 / power
    ratio = 0.0 if math.isinf(xi2) else xi1 / xi2
    return 2 * math.pi * a * a / (1 - ratio * ratio) ** 1.5


def planar_quadrature(c: ThermalCloud, power: float) -> float:
    """In-plane integral of (n / n0)^power by 2D adaptive quadrature.

    Numerical route, independent of both closed forms: integrate over
    rho first, on a disc of 40 decay lengths, then over the angle.
    """
    inv2 = 0.0 if math.isinf(c.xi2) else 1.0 / c.xi2
    rho_max = 40 * c.xi1 / (power * (1 - c.xi1 * inv2))

    def f(rho, phi):
        y = rho * math.sin(phi)
        return rho * math.exp(-power * (rho / c.xi1 + y * inv2))

    val, _ = dblquad(f, 0.0, 2 * math.pi, 0.0, rho_max,
                     epsabs=0.0, epsrel=1e-11)
    return val


def overlap_oracle(mot: GaussianCloud, mt: ThermalCloud,
                   offset: tuple[float, float, float]) -> float:
    """N_MOT N_MT / integral(n_MOT n_MT) by two 1-D quadratures.

    Independent route: in polar coordinates (rho, t) about the trap
    centre, the in-plane exponent is linear in (cos t, sin t), so the
    angular integral is 2 pi I0(c rho) with c = rho_c / s^2 and
    rho_c = |(x0, y0 - s^2/xi2)|.  Completing the square, the in-plane
    integral is 2 pi exp(s^2/(2 xi2^2) - y0/xi2 + g(p)) times

        int rho i0e(c rho) exp(g(rho) - g(p)) drho,

    with g(rho) = -rho/xi1 - (rho - rho_c)^2 / (2 s^2) and p its peak on
    the range of integration.  The exponential prefactor is kept in logs,
    so the result leaves float range (as inf) only where V_eff does.  The
    axial integral is done by quad too.
    """
    x0, y0, z0 = offset
    s, sa, sz = mot.sigma_radial, mot.sigma_axial, mt.sigma_z
    inv2 = 0.0 if math.isinf(mt.xi2) else 1.0 / mt.xi2
    rho_c = math.hypot(x0, y0 - s * s * inv2)
    c = rho_c / (s * s)
    lo, hi = max(0.0, rho_c - 40 * s), rho_c + 40 * s
    p = max(lo, rho_c - s * s / mt.xi1)

    def radial(rho):
        # g(rho) - g(p) as a product, with no large terms that cancel
        return rho * i0e(c * rho) * math.exp(
            -(rho - p) * (1 / mt.xi1 + (rho + p - 2 * rho_c) / (2 * s * s)))

    plane, _ = quad(radial, lo, hi, points=[p],
                    epsabs=0.0, epsrel=1e-12, limit=200)
    log_plane = (math.log(2 * math.pi * plane) + s * s * inv2 * inv2 / 2
                 - y0 * inv2 - p / mt.xi1 - (p - rho_c) ** 2 / (2 * s * s))

    # product of the two axial Gaussians, centred at z_c with width w
    w = sa * sz / math.hypot(sa, sz)
    z_c = z0 * (sz / math.hypot(sa, sz)) ** 2
    axial, _ = quad(lambda z: math.exp(-(z - z0) ** 2 / (2 * sa * sa)
                                       - z * z / (2 * sz * sz)),
                    z_c - 40 * w, z_c + 40 * w, points=[z_c],
                    epsabs=0.0, epsrel=1e-12, limit=200)

    mot_peak = mot.atom_number / ((2 * math.pi) ** 1.5 * s * s * sa)
    try:
        return math.exp(math.log(mot.atom_number * mt.atom_number
                                 / (mot_peak * mt.peak_density * axial))
                        - log_plane)
    except OverflowError:
        return math.inf


@pytest.fixture(scope="module")
def cloud100():
    return make_thermal_cloud(CR, CFG, n=1e8, t=100e-6)


@pytest.fixture(scope="module")
def cloud100_nog():
    return make_thermal_cloud(CR, CFG, n=1e8, t=100e-6, include_gravity=False)


class TestScaleLengths:
    def test_values_at_optimum(self, cloud100):
        assert cloud100.xi1 == pytest.approx(1.99e-4, rel=0.01, abs=0)
        assert cloud100.xi2 == pytest.approx(1.63e-3, rel=0.01, abs=0)
        assert cloud100.sigma_z == pytest.approx(1.54e-3, rel=0.01, abs=0)

    def test_scaling_with_temperature(self, cloud100):
        hot = make_thermal_cloud(CR, CFG, n=1e8, t=200e-6)
        assert hot.xi1 == pytest.approx(2 * cloud100.xi1, rel=1e-14, abs=0)
        assert hot.sigma_z == pytest.approx(math.sqrt(2) * cloud100.sigma_z,
                                            rel=1e-14, abs=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            make_thermal_cloud(CR, CFG, n=0.0, t=100e-6)
        with pytest.raises(ValueError):
            make_thermal_cloud(CR, CFG, n=1e8, t=-1.0)

    @pytest.mark.parametrize("n, t", [(math.nan, 100e-6), (1e8, math.nan)])
    def test_nan_rejected(self, n, t):
        with pytest.raises(ValueError):
            make_thermal_cloud(CR, CFG, n=n, t=t)

    def test_one_formula_for_the_scale_lengths(self, cloud100, cloud100_nog):
        assert scale_lengths(CR, CFG, 100e-6) == (
            cloud100.xi1, cloud100.xi2, cloud100.sigma_z)
        xi1, xi2, sigma_z = scale_lengths(CR, CFG, 100e-6,
                                          include_gravity=False)
        assert (xi1, sigma_z) == (cloud100_nog.xi1, cloud100_nog.sigma_z)
        assert math.isinf(xi2) and math.isinf(cloud100_nog.xi2)

    def test_untrapped_when_gravity_exceeds_gradient(self):
        # mu B' < m g for Cr below about 1.5 G/cm, whatever the temperature
        weak = IpTrapConfig(0.01, 10.5)
        with pytest.raises(ValueError, match="untrapped"):
            make_thermal_cloud(CR, weak, n=1e8, t=100e-6)
        for t in (1e-306, 1e300):
            with pytest.raises(UntrappedCloudError):
                trap_volume(CR, IpTrapConfig(1e-32, 10.5), t)

    def test_untrapped_cloud_built_by_hand(self, cloud100):
        c = cloud100
        with pytest.raises(UntrappedCloudError):
            occupied_volume(ThermalCloud(c.atom_number, c.temperature,
                                         c.xi1, c.xi1, c.sigma_z,
                                         c.peak_density))

    @pytest.mark.parametrize("field", ["atom_number", "temperature", "xi1",
                                       "xi2", "sigma_z", "peak_density"])
    def test_non_positive_field_built_by_hand(self, cloud100, field):
        with pytest.raises(ValueError, match=f"^{field} must be positive$"):
            dataclasses.replace(cloud100, **{field: 0.0})

    def test_out_of_range_cloud_built_by_hand(self, cloud100_nog):
        # V_MT's xi1^2 sigma_z overflows, though no field is out of range
        huge = dataclasses.replace(cloud100_nog, xi1=1e200, sigma_z=1e200)
        with pytest.raises(CloudRangeError, match="trap cloud size under- "
                           "or overflows a float"):
            occupied_volume(huge)

    @pytest.mark.parametrize("b_prime,b_dprime,t,gravity", [
        (1e303, 10.5, 100e-6, True),     # the normalization is NaN
        (1e10, 1e25, 1e-300, False),     # sigma_z underflows to 0
        (1e-302, 10.5, 100e-6, True),    # mu B' underflows to 0
        (0.125, 1e-310, 100e-6, True),   # mu B'' underflows to 0
        (0.125, 10.5, 1e294, True),      # xi1^2 sigma_z overflows
        (0.125, 10.5, 1e-306, True)])    # kT underflows to 0: trapped
    def test_out_of_range_cloud_says_so(self, b_prime, b_dprime, t,
                                        gravity):
        # one message in trap terms, from both V_MT paths
        cfg = IpTrapConfig(b_prime, b_dprime)
        for volume in (lambda: trap_volume(CR, cfg, t, gravity),
                       lambda: occupied_volume(
                           make_thermal_cloud(CR, cfg, 1.0, t, gravity))):
            with pytest.raises(CloudRangeError, match="trap cloud size "
                               "under- or overflows a float"):
                volume()


class TestNormalization:
    def test_peak_density_against_analytic_oracle(self, cloud100):
        norm = (planar_oracle(cloud100.xi1, cloud100.xi2, 1.0)
                * math.sqrt(2 * math.pi) * cloud100.sigma_z)
        assert cloud100.peak_density == pytest.approx(
            cloud100.atom_number / norm, rel=1e-6, abs=0)

    def test_gravity_off_closed_form(self, cloud100_nog):
        c = cloud100_nog
        norm = 2 * math.pi * c.xi1 ** 2 * math.sqrt(2 * math.pi) * c.sigma_z
        assert c.peak_density == pytest.approx(c.atom_number / norm,
                                               rel=1e-6, abs=0)

    @pytest.mark.parametrize("gravity", [True, False])
    def test_peak_density_against_2d_quadrature(self, gravity):
        c = make_thermal_cloud(CR, CFG, n=1e8, t=100e-6,
                               include_gravity=gravity)
        norm = (planar_quadrature(c, 1.0)
                * math.sqrt(2 * math.pi) * c.sigma_z)
        assert c.peak_density == pytest.approx(c.atom_number / norm,
                                               rel=1e-9, abs=0)


class TestMtDensity:
    def test_peak_at_origin(self, cloud100):
        assert mt_density(cloud100, 0, 0, 0) == cloud100.peak_density

    def test_radial_scale_length(self, cloud100):
        assert mt_density(cloud100, cloud100.xi1, 0, 0) == pytest.approx(
            cloud100.peak_density / math.e, rel=1e-12, abs=0)

    def test_gravity_asymmetry(self, cloud100):
        up = mt_density(cloud100, 0, cloud100.xi1, 0)
        down = mt_density(cloud100, 0, -cloud100.xi1, 0)
        expected = math.exp(-2 * cloud100.xi1 / cloud100.xi2)
        assert up / down == pytest.approx(expected, rel=1e-12, abs=0)
        assert up / down == pytest.approx(0.783, rel=0.01, abs=0)

    def test_array_broadcast(self, cloud100):
        x = np.array([0.0, cloud100.xi1])
        vals = mt_density(cloud100, x, 0.0, 0.0)
        assert vals.shape == (2,)
        assert vals[0] == cloud100.peak_density


class TestColumnDensity:
    def test_center_limit_gravity_off(self, cloud100_nog):
        c = cloud100_nog
        assert column_density(c, 0.0, 0.0) == pytest.approx(
            2 * c.peak_density * c.xi1, rel=1e-12, abs=0)

    def test_axial_gaussian_factor(self, cloud100):
        c = cloud100
        ratio = column_density(c, c.xi1, c.sigma_z) / column_density(c, c.xi1, 0.0)
        assert ratio == pytest.approx(math.exp(-0.5), rel=1e-12, abs=0)

    def test_matches_quadrature_of_density(self, cloud100):
        c = cloud100
        rng = np.random.default_rng(17)
        for _ in range(50):
            y = rng.uniform(-3 * c.xi1, 3 * c.xi1)
            z = rng.uniform(-2 * c.sigma_z, 2 * c.sigma_z)
            lim = abs(y) + 40 * c.xi1
            oracle, _ = quad(lambda x: mt_density(c, x, y, z), -lim, lim,
                             epsabs=0.0, epsrel=1e-10, limit=200)
            assert column_density(c, y, z) == pytest.approx(oracle,
                                                            rel=1e-6, abs=0)

    def test_broadcast_grid_matches_pointwise(self, cloud100):
        c = cloud100
        y = np.linspace(-6, 6, 25) * c.xi1   # includes y = 0
        z = np.linspace(-3, 3, 7) * c.sigma_z
        grid = column_density(c, y[:, None], z[None, :])
        assert grid.shape == (25, 7)
        pointwise = [[column_density(c, float(a), float(b)) for b in z]
                     for a in y]
        assert np.allclose(grid, np.array(pointwise), rtol=1e-15, atol=0.0)


class TestMotDensity:
    def test_invalid(self):
        with pytest.raises(ValueError):
            GaussianCloud(atom_number=-1, temperature=140e-6,
                          sigma_radial=1e-4, sigma_axial=1e-4)


class TestOccupiedVolume:
    def test_gravity_off_closed_form(self, cloud100_nog):
        c = cloud100_nog
        closed = 16 * math.pi ** 1.5 * c.xi1 ** 2 * c.sigma_z
        assert occupied_volume(c) == pytest.approx(closed, rel=1e-6, abs=0)
        assert closed == pytest.approx(5.4e-9, rel=0.01, abs=0)

    def test_gravity_on_analytic_oracle(self, cloud100):
        c = cloud100
        shape = (1 - (c.xi1 / c.xi2) ** 2) ** 1.5
        expected = 16 * math.pi ** 1.5 * c.xi1 ** 2 * c.sigma_z / shape
        assert occupied_volume(c) == pytest.approx(expected, rel=1e-6, abs=0)

    @pytest.mark.parametrize("gravity", [True, False])
    def test_against_2d_quadrature(self, gravity):
        c = make_thermal_cloud(CR, CFG, n=1e8, t=100e-6,
                               include_gravity=gravity)
        i2 = (c.peak_density ** 2 * planar_quadrature(c, 2.0)
              * math.sqrt(math.pi) * c.sigma_z)
        assert occupied_volume(c) == pytest.approx(c.atom_number ** 2 / i2,
                                                   rel=1e-9, abs=0)

    def test_inside_measured_range(self, cloud100_nog):
        assert 3.9e-9 <= occupied_volume(cloud100_nog) <= 14e-9

    def test_independent_of_atom_number(self, cloud100):
        other = make_thermal_cloud(CR, CFG, n=3.7e5, t=100e-6)
        assert occupied_volume(other) == pytest.approx(
            occupied_volume(cloud100), rel=1e-9, abs=0)

    def test_continuous_weak_gravity_limit(self, cloud100_nog):
        # same geometry but a nearly flat gravity tilt
        c = cloud100_nog
        tilted = ThermalCloud(atom_number=c.atom_number,
                              temperature=c.temperature, xi1=c.xi1,
                              xi2=1e4 * c.xi1, sigma_z=c.sigma_z,
                              peak_density=c.peak_density)
        assert occupied_volume(tilted) == pytest.approx(
            occupied_volume(c), rel=1e-6, abs=0)


def outcome(f, *args, **kwargs):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def two_call_volume(species, cfg, t, include_gravity=True):
    return occupied_volume(make_thermal_cloud(
        species, cfg, n=1.0, t=t, include_gravity=include_gravity))


class TestTrapVolume:
    @settings(max_examples=200, deadline=None)
    @given(b_prime=st.floats(0.005, 0.5), b_dprime=st.floats(0.5, 100.0),
           t=st.floats(1e-6, 1e-3), gravity=st.booleans())
    def test_equals_the_two_call_oracle(self, b_prime, b_dprime, t, gravity):
        # bit for bit, or the same untrapped-cloud error: B' below about
        # 1.5 G/cm cannot hold 52Cr against gravity
        cfg = IpTrapConfig(b_prime, b_dprime)
        want = outcome(two_call_volume, CR, cfg, t, gravity)
        assert outcome(trap_volume, CR, cfg, t, gravity) == want
        if isinstance(want, tuple):
            assert gravity and want == (
                UntrappedCloudError,
                "untrapped cloud: gravity scale xi2 must exceed xi1")

    @settings(max_examples=300, deadline=None)
    @given(log_b_prime=st.floats(-300, 300), log_b_dprime=st.floats(-300, 300),
           log_t=st.floats(-320, 300), gravity=st.booleans())
    @example(10.0, 25.0, -300.0, False)   # sigma_z underflows to 0
    @example(10.0, 0.0, -300.0, True)     # 1/xi1 overflows: n0 is NaN
    @example(-100.0, -250.0, -4.0, False)  # normalization overflows: n0 = 0
    @example(-160.0, 300.0, -4.0, False)  # float division by zero
    def test_same_errors_at_any_scale(self, log_b_prime, log_b_dprime, log_t,
                                      gravity):
        # every ThermalCloud check that can still fail after the
        # normalization raises the same error through both paths
        cfg = IpTrapConfig(10 ** log_b_prime, 10 ** log_b_dprime)
        t = 10 ** log_t
        assert (outcome(trap_volume, CR, cfg, t, gravity)
                == outcome(two_call_volume, CR, cfg, t, gravity))

    @pytest.mark.parametrize("t", [0.0, -1e-4, math.nan])
    def test_temperature_checked(self, t):
        with pytest.raises(ValueError, match="atom number and temperature "
                                             "must be positive"):
            trap_volume(CR, CFG, t)


class TestEffectiveVolume:
    MOT = GaussianCloud(atom_number=5e6, temperature=140e-6,
                        sigma_radial=1e-4, sigma_axial=1e-4)

    def test_point_mot_limit(self, cloud100):
        # convergence is linear in sigma (density cusp at the center), so
        # the MOT must be far smaller than xi1 for a tight comparison
        tiny = GaussianCloud(atom_number=5e6, temperature=140e-6,
                             sigma_radial=1e-8, sigma_axial=1e-8)
        v = effective_volume(tiny, cloud100)
        assert v == pytest.approx(
            cloud100.atom_number / cloud100.peak_density, rel=1e-3, abs=0)

    def test_point_mot_with_offset(self, cloud100):
        tiny = GaussianCloud(atom_number=5e6, temperature=140e-6,
                             sigma_radial=1e-6, sigma_axial=1e-6)
        y0 = cloud100.xi1
        v = effective_volume(tiny, cloud100, offset=(0.0, y0, 0.0))
        expected = cloud100.atom_number / mt_density(cloud100, 0.0, y0, 0.0)
        assert v == pytest.approx(expected, rel=1e-3, abs=0)

    def test_against_grid_oracle(self, cloud100):
        # independent fixed-grid Simpson evaluation of the overlap integral
        c = cloud100
        sr = self.MOT.sigma_radial
        span = 12 * sr
        xs = np.linspace(-span, span, 401)
        zs = np.linspace(-8 * sr, 8 * sr, 201)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        # both densities separate in z with unit factor at z = 0; the MOT's
        # is the normalised Gaussian of 1/sqrt(e) radii sr and sa
        sa = self.MOT.sigma_axial
        mot = (self.MOT.atom_number / ((2 * math.pi) ** 1.5 * sr * sr * sa)
               * np.exp(-(xx * xx + yy * yy) / (2 * sr * sr)))
        plane = mot * mt_density(c, xx, yy, 0.0)
        axial = np.exp(-zs ** 2 / (2 * sa ** 2)
                       - zs ** 2 / (2 * c.sigma_z ** 2))
        from scipy.integrate import simpson
        overlap = simpson(simpson(plane, x=xs, axis=1), x=xs) \
            * simpson(axial, x=zs)
        oracle = self.MOT.atom_number * c.atom_number / overlap
        assert effective_volume(self.MOT, c) == pytest.approx(oracle,
                                                              rel=1e-5, abs=0)

    @pytest.mark.parametrize("gravity, sigma, offset", [
        (True, 1e-4, (0.0, 0.0, 0.0)),
        (True, 1e-4, (1.2e-4, -1.6e-4, 0.7e-4)),     # r0 = 2 sigma
        (True, 1e-4, (-1.8e-4, -2.4e-4, -1.3e-4)),   # r0 = 3 sigma
        (False, 1e-4, (0.0, 0.0, 0.0)),
        (False, 1e-4, (2.4e-4, -1.8e-4, 0.5e-4)),    # r0 = 3 sigma
        (True, 1e-6, (6e-5, -8e-5, 3e-6)),           # r0 = 100 sigma
        (True, 1e-6, (-6e-4, -8e-4, -2e-6)),         # r0 = 1000 sigma
        (False, 1e-6, (8e-4, -6e-4, 1e-6)),          # r0 = 1000 sigma
    ], ids=["centre", "2sigma", "3sigma", "nog-centre", "nog-3sigma",
            "small-100sigma", "small-1000sigma", "nog-small-1000sigma"])
    def test_against_angular_oracle(self, cloud100, cloud100_nog, gravity,
                                    sigma, offset):
        mot = GaussianCloud(atom_number=5e6, temperature=140e-6,
                            sigma_radial=sigma, sigma_axial=sigma)
        mt = cloud100 if gravity else cloud100_nog
        # the requested accuracy of the quadrature, _QUAD_RTOL
        assert effective_volume(mot, mt, offset) == pytest.approx(
            overlap_oracle(mot, mt, offset), rel=1e-8, abs=0)

    @pytest.mark.parametrize("mot_field, offset, message", [
        (("atom_number", math.inf), (0.0, 0.0, 0.0), "atom_number"),
        (("temperature", math.inf), (0.0, 0.0, 0.0), "temperature"),
        (("sigma_radial", math.inf), (0.0, 0.0, 0.0), "sigma_radial"),
        (("sigma_axial", math.inf), (0.0, 0.0, 0.0), "sigma_axial"),
        (("sigma_radial", math.nan), (0.0, 0.0, 0.0), "sigma_radial"),
        (None, (0.0, 0.0, math.nan), r"offset \(0.0, 0.0, nan\)"),
        (None, (0.0, 0.0, math.inf), r"offset \(0.0, 0.0, inf\)"),
        (None, (-math.inf, 0.0, 0.0), r"offset \(-inf, 0.0, 0.0\)"),
        (None, (0.0, math.nan, 0.0), r"offset \(0.0, nan, 0.0\)"),
    ], ids=["atom_number-inf", "temperature-inf", "sigma_radial-inf",
            "sigma_axial-inf", "sigma_radial-nan", "z0-nan", "z0-inf",
            "x0-minus-inf", "y0-nan"])
    def test_non_finite_input_rejected(self, cloud100, mot_field, offset,
                                       message):
        kw = dict(atom_number=5e6, temperature=140e-6, sigma_radial=1e-4,
                  sigma_axial=1e-4)
        kw.update([mot_field] if mot_field else [])
        with pytest.raises(ValueError, match=message):
            effective_volume(GaussianCloud(**kw), cloud100, offset)

    @pytest.mark.parametrize("offset", [(0.0, 0.0, 0.1), (0.3, 0.0, 0.0)],
                             ids=["axial", "radial"])
    def test_overlap_out_of_float_range(self, cloud100, offset):
        # the axial factor underflowing to 0 raised ZeroDivisionError, and
        # a radial integrand that underflows everywhere raised
        # QuadratureError, although the quadrature did not fail
        with pytest.raises(ValueError, match="^MOT and trap cloud overlap "
                                             "underflows a float$"):
            effective_volume(self.MOT, cloud100, offset)

    def test_disagreeing_passes_raise(self, monkeypatch, cloud100):
        # the two-pass check stays: with the 2-node Gauss-Legendre rule in
        # place of the 20-node one, the passes at panel widths 2 sigma and
        # sigma disagree by far more than 1e-8, and that is a
        # QuadratureError, not a value
        monkeypatch.setattr(cloud, "_GL_NODES", np.array([-1, 1]) / 3 ** 0.5)
        monkeypatch.setattr(cloud, "_GL_WEIGHTS", np.ones(2))
        with pytest.raises(QuadratureError, match="passes disagree"):
            effective_volume(self.MOT, cloud100)

    @pytest.mark.parametrize("radius, crosses", [(0.0, False), (3.0, True)],
                             ids=["centre", "three-sigma"])
    def test_one_i0e_call_per_volume(self, monkeypatch, cloud100, radius,
                                     crosses):
        # both quadrature passes share one evaluation of the integrand, and
        # so one i0e call, whether or not its arguments straddle the x = 8
        # switch between i0e's two series; the panels hold both passes in
        # at most 12 panels of 20 nodes
        args, program_i0e = [], cloud.i0e

        def counting_i0e(x):
            args.append(np.array(x))
            return program_i0e(x)

        monkeypatch.setattr(cloud, "i0e", counting_i0e)
        effective_volume(self.MOT, cloud100,
                         (radius * self.MOT.sigma_radial, 0.0, 0.0))
        assert len(args) == 1
        assert bool(args[0].max() > 8 >= args[0].min()) is crosses
        assert args[0].size <= 240

    def test_passes_agree_far_inside_the_tolerance(self, monkeypatch):
        # the panels are sized so that the two passes agree to ~1e-13: at a
        # tolerance of 1e-11, a thousandth of the shipped one, a seeded scan
        # of the range below still raises no QuadratureError
        monkeypatch.setattr(cloud, "_QUAD_RTOL", 1e-11)
        rng = np.random.default_rng(29)
        for _ in range(600):
            sigma, t = rng.uniform(1e-4, 2e-3), rng.uniform(20e-6, 1e-3)
            r0 = rng.uniform(0.0, (10.0, 1000.0)[rng.integers(2)])
            phi, z0 = rng.uniform(-math.pi, math.pi), rng.uniform(-3.0, 3.0)
            mot = GaussianCloud(atom_number=5e6, temperature=140e-6,
                                sigma_radial=sigma, sigma_axial=sigma)
            mt = make_thermal_cloud(CR, CFG, n=1e8, t=t,
                                    include_gravity=bool(rng.integers(2)))
            offset = (r0 * sigma * math.cos(phi), r0 * sigma * math.sin(phi),
                      z0 * sigma)
            got = outcome(effective_volume, mot, mt, offset)
            assert not isinstance(got, tuple) or got == (
                ValueError, "MOT and trap cloud overlap underflows a float")

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(1e-4, 2e-3), t=st.floats(20e-6, 1e-3),
           r0=st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1000.0)),
           phi=st.floats(-math.pi, math.pi), z0=st.floats(-3.0, 3.0),
           gravity=st.booleans())
    # a 2 mm MOT at 20 uK, its Gaussian envelope centred just below
    # rho = 0, where i0e(c rho) bends on 1/36 of the MOT radius
    @example(1.4631224843902784e-3, 2.041184397647932e-5, 35.68551878048054,
             -0.9505, 0.0, False)
    # a 0.42 mm MOT 420 sigma below the trap, where an oracle that forms
    # exp(s^2/2xi2^2 - y0/xi2) directly loses 9 % to subnormal integrands
    @example(0.423e-3, 123e-6, 420.50411674404967, -2.6643678050080473,
             -0.9456264775413712, True)
    def test_against_angular_oracle_anywhere(self, sigma, t, r0, phi, z0,
                                             gravity):
        mot = GaussianCloud(atom_number=5e6, temperature=140e-6,
                            sigma_radial=sigma, sigma_axial=sigma)
        mt = make_thermal_cloud(CR, CFG, n=1e8, t=t, include_gravity=gravity)
        offset = (r0 * sigma * math.cos(phi), r0 * sigma * math.sin(phi),
                  z0 * sigma)
        want = overlap_oracle(mot, mt, offset)
        got = outcome(effective_volume, mot, mt, offset)
        if isinstance(got, tuple):
            # V_eff past the largest float: the oracle must read there too
            assert got == (ValueError, "MOT and trap cloud overlap "
                                       "underflows a float")
            assert want > sys.float_info.max * (1 - 1e-8)
        else:
            assert got == pytest.approx(want, rel=1e-8, abs=0)

    def test_approximation_mode_is_trap_volume(self, cloud100):
        # the CLI and the sweeps take V_eff = V_MT, the trap cloud's
        # occupied volume, in place of the overlap integral
        scen = cli.scenario_from_config(dict(cli.PAPER_DEFAULTS,
                                             t_mt_uk="100"))
        point = sweeps.scenario_at(scen, "radial_gradient", 0.125)
        for s in (scen, point):
            assert s.v_eff == s.v_mt
            assert s.v_mt == pytest.approx(occupied_volume(cloud100),
                                           rel=1e-12, abs=0)

    def test_approximation_order_of_magnitude(self, cloud100):
        # small MOT inside the trap: the overlap volume is below the trap
        # volume but stays within one order of magnitude
        ratio = (effective_volume(self.MOT, cloud100)
                 / occupied_volume(cloud100))
        assert 0.1 < ratio < 1.2


def test_gauss_legendre_rule_exact_to_degree_39():
    # 20 nodes integrate x^k over [-1, 1] exactly for k <= 39, to a few
    # ulp of the moments, and not k = 40: the rule has all 20 nodes
    for k in range(40):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(cloud._GL_WEIGHTS @ cloud._GL_NODES ** k - exact) <= 1e-15
    assert abs(cloud._GL_WEIGHTS @ cloud._GL_NODES ** 40 - 2 / 41) > 1e-13
    assert np.array_equal(cloud._GL_NODES, -cloud._GL_NODES[::-1])


class TestTofRadius:
    def test_no_expansion(self):
        assert tof_radius(2e-4, 100e-6, CR, 0.0) == 2e-4

    def test_pure_thermal(self):
        t = 5e-3
        v = math.sqrt(1.380649e-23 * 100e-6 / CR.mass)
        assert tof_radius(0.0, 100e-6, CR, t) == pytest.approx(
            v * t, rel=1e-12, abs=0)

    def test_hand_evaluation(self):
        assert tof_radius(2e-4, 100e-6, CR, 5e-3) == pytest.approx(
            6.63e-4, rel=1e-3, abs=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tof_radius(2e-4, 100e-6, CR, -1e-3)

    @pytest.mark.parametrize("sigma0, t_temp, t", [
        (math.nan, 100e-6, 5e-3), (2e-4, math.nan, 5e-3),
        (2e-4, 100e-6, math.nan)])
    def test_nan_rejected(self, sigma0, t_temp, t):
        with pytest.raises(ValueError):
            tof_radius(sigma0, t_temp, CR, t)

    def test_array_matches_scalar_calls(self):
        t = np.random.default_rng(3).uniform(0.0, 2e-2, 200)
        t[0] = 0.0
        radii = tof_radius(2e-4, 100e-6, CR, t)
        assert isinstance(radii, np.ndarray) and radii.shape == (200,)
        assert radii.tolist() == [tof_radius(2e-4, 100e-6, CR, float(ti))
                                  for ti in t]

    def test_scalar_gives_float(self):
        assert type(tof_radius(2e-4, 100e-6, CR, 5e-3)) is float
        assert type(tof_radius(2e-4, 100e-6, CR, np.float64(5e-3))) is float

    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    @pytest.mark.parametrize("where", [0, 57, 199])
    def test_bad_element_rejected(self, bad, where):
        t = np.linspace(0.0, 2e-2, 200)
        t[where] = bad
        with pytest.raises(ValueError, match="expansion time"):
            tof_radius(2e-4, 100e-6, CR, t)
