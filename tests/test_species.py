import dataclasses
import math

import numpy as np
import pytest

from cliptrap.species import (ATOMIC_MASS, BOHR_MAGNETON, MotBeamParams,
                              Species, chromium_52, excited_fraction,
                              load_species)


def beams(s, detuning=0.0):
    return MotBeamParams(total_saturation=s, detuning=detuning, n_mot=1e6,
                         temperature=140e-6, sigma_radial=1e-4,
                         sigma_axial=1e-4)


class TestChromium:
    def test_magnetic_moment_is_six_bohr_magnetons(self):
        assert chromium_52().magnetic_moment / BOHR_MAGNETON == pytest.approx(
            6.0, rel=1e-6, abs=0)

    def test_mass(self):
        assert chromium_52().mass == pytest.approx(52 * ATOMIC_MASS,
                                                   rel=1e-6, abs=0)

    def test_leak_rate(self):
        # 2 pi 5.02e6 / 2.5e5, hand evaluation
        assert chromium_52().gamma_ed == pytest.approx(126.17, rel=1e-4, abs=0)

    def test_rate_self_consistency(self):
        cr = chromium_52()
        ratio = cr.gamma_eg / cr.gamma_ed
        assert abs(ratio - cr.branching_ratio_eg_ed) < 0.01 * ratio

    def test_leak_rate_is_derived(self):
        cr = chromium_52()
        assert cr.gamma_ed == cr.gamma_eg / cr.branching_ratio_eg_ed
        assert "gamma_ed" not in {f.name for f in dataclasses.fields(cr)}

    def test_leak_rate_not_an_argument(self):
        cr = chromium_52()
        with pytest.raises(TypeError):
            Species(name="bad", mass=cr.mass,
                    magnetic_moment=cr.magnetic_moment, gamma_eg=cr.gamma_eg,
                    gamma_ed=cr.gamma_ed,
                    branching_ratio_eg_ed=cr.branching_ratio_eg_ed)

    @pytest.mark.parametrize("branching", [0.0, -1.0, math.inf, math.nan])
    def test_bad_branching_ratio_rejected(self, branching):
        # gamma_ed = gamma_eg / branching must stay finite and positive
        with pytest.raises(ValueError, match="branching_ratio_eg_ed"):
            dataclasses.replace(chromium_52(), branching_ratio_eg_ed=branching)


class TestExcitedFraction:
    def test_saturated(self):
        cr = chromium_52()
        assert excited_fraction(beams(1e6), cr) == pytest.approx(
            0.4999995, rel=1e-6, abs=0)
        assert excited_fraction(beams(math.inf), cr) == 0.5

    def test_no_light(self):
        assert excited_fraction(beams(0.0), chromium_52()) == 0.0

    def test_two_level_point(self):
        cr = chromium_52()
        f = excited_fraction(beams(1.0, detuning=-2 * cr.gamma_eg), cr)
        assert f == pytest.approx(1 / 36, rel=1e-6, abs=0)

    def test_monotone_in_saturation_and_bounded(self):
        cr = chromium_52()
        vals = [excited_fraction(beams(s, -cr.gamma_eg), cr)
                for s in np.geomspace(1e-3, 1e6, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0 <= v < 0.5 for v in vals)


class TestSpeciesFile:
    CONTENT = """\
# custom species
name = 52Cr-file
mass_amu = 52
mu_bohr = 6
gamma_eg_hz = 5.02e6
branching_eg_ed = 2.5e5
"""

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cr.txt"
        path.write_text(self.CONTENT)
        sp = load_species(path)
        cr = chromium_52()
        assert sp.mass == pytest.approx(cr.mass, rel=1e-6, abs=0)
        assert sp.gamma_eg == pytest.approx(cr.gamma_eg, rel=1e-6, abs=0)
        assert sp.gamma_ed == pytest.approx(cr.gamma_ed, rel=1e-6, abs=0)
        assert sp.gamma_ed == sp.gamma_eg / sp.branching_ratio_eg_ed

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("name = x\nmass_amu = 52\n")
        with pytest.raises(ValueError, match="missing keys"):
            load_species(path)
