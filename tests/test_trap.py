import math

import numpy as np
import pytest

from cliptrap import cli
from cliptrap.species import GRAVITY, chromium_52
from cliptrap.trap import (IpTrapConfig, field_magnitude, majorana_safe,
                           potential_energy)


@pytest.fixture
def cfg():
    return IpTrapConfig(0.125, 10.5)


def test_cli_boundary_converts_lab_units_exactly():
    # the CLI's key table is the one place lab units become SI
    scen = cli.scenario_from_config(dict(
        cli.PAPER_DEFAULTS, b_prime_g_per_cm="12.5", b_dprime_g_per_cm2="10.5",
        b0_mg="40", gamma_d_per_s="0.01"))
    assert scen.trap.radial_gradient == 0.125
    assert scen.trap.axial_curvature == 10.5
    assert scen.trap.offset_field == 4e-6
    assert scen.coefficients.gamma_d == 0.01


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        IpTrapConfig(radial_gradient=0.0, axial_curvature=10.5)
    with pytest.raises(ValueError):
        IpTrapConfig(radial_gradient=0.125, axial_curvature=-1.0)


class TestFieldMagnitude:
    def test_center_is_offset(self):
        c = IpTrapConfig(0.125, 10.5, offset_field=4e-6)
        assert field_magnitude(c, 0, 0, 0) == pytest.approx(4e-6)

    def test_pure_radial(self):
        c = IpTrapConfig(0.125, 1.0, offset_field=0.0)
        assert field_magnitude(c, 1e-3, 0, 0) == pytest.approx(1.25e-4)

    def test_on_axis(self):
        c = IpTrapConfig(0.125, 10.5, offset_field=4e-6)
        assert field_magnitude(c, 0, 0, 1e-2) == pytest.approx(5.29e-4)

    def test_minimum_at_center(self):
        c = IpTrapConfig(0.125, 10.5, offset_field=2e-6)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x, y, z = rng.uniform(-5e-3, 5e-3, 3)
            assert field_magnitude(c, x, y, z) >= c.offset_field - 1e-18


class TestPotential:
    def test_zero_at_origin(self, cfg):
        assert potential_energy(chromium_52(), cfg, 0, 0, 0) == 0.0

    def test_radial_term_at_xi1(self, cfg):
        # rho = xi1 makes the radial term exactly k_B T by construction
        cr = chromium_52()
        kt = 1.380649e-23 * 100e-6
        xi1 = kt / (cr.magnetic_moment * cfg.radial_gradient)
        assert potential_energy(cr, cfg, xi1, 0, 0) == pytest.approx(kt)

    def test_axial_half_thermal_energy_at_sigma_z(self, cfg):
        cr = chromium_52()
        u = potential_energy(cr, cfg, 0, 0, 1.54e-3)
        assert u == pytest.approx(6.9e-28, rel=0.01)

    def test_even_in_z_and_rotationally_symmetric(self, cfg):
        cr = chromium_52()
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y, z = rng.uniform(-3e-3, 3e-3, 3)
            assert potential_energy(cr, cfg, x, y, z) == pytest.approx(
                potential_energy(cr, cfg, x, y, -z), rel=1e-14)
            rho = math.hypot(x, y)
            theta = rng.uniform(0, 2 * math.pi)
            assert potential_energy(cr, cfg, x, y, z) == pytest.approx(
                potential_energy(cr, cfg, rho * math.cos(theta),
                                 rho * math.sin(theta), z), rel=1e-12)

    def test_gravity_difference_exact(self, cfg):
        cr = chromium_52()
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y, z = rng.uniform(-3e-3, 3e-3, 3)
            diff = (potential_energy(cr, cfg, x, y, z, include_gravity=True)
                    - potential_energy(cr, cfg, x, y, z))
            assert diff == pytest.approx(cr.mass * GRAVITY * y, rel=1e-12,
                                         abs=1e-40)


class TestMajorana:
    def test_threshold(self):
        assert majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=4e-6))

    def test_zero_offset(self):
        assert not majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=0.0))

    def test_negative_offset(self):
        assert not majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=-1e-5))
