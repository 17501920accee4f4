import math

import pytest

from cliptrap import cli
from cliptrap.trap import IpTrapConfig, majorana_safe


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
    for offset in (math.inf, math.nan):
        with pytest.raises(ValueError, match="offset_field must be finite"):
            IpTrapConfig(0.125, 10.5, offset_field=offset)


class TestMajorana:
    def test_threshold(self):
        assert majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=4e-6))

    def test_zero_offset(self):
        assert not majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=0.0))

    def test_negative_offset(self):
        assert not majorana_safe(IpTrapConfig(0.125, 10.5, offset_field=-1e-5))
