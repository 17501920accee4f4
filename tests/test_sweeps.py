import math

import numpy as np
import pytest

from cliptrap import dynamics
from cliptrap.estimation import fit_kappa
from cliptrap import cloud
from cliptrap.sweeps import (SWEEPABLE, SweepSpec, _log_grid, kappa_curve,
                             run_sweep, scenario_at, synthesize_measurements)
from conftest import make_scenario


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec("detuning", [0.1], make_scenario())

    def test_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec("radial_gradient", [], make_scenario())

    def test_non_monotone(self):
        with pytest.raises(ValueError):
            SweepSpec("radial_gradient", [0.1, 0.3, 0.2], make_scenario())

    def test_non_positive_gradient(self):
        with pytest.raises(ValueError):
            SweepSpec("axial_curvature", [-1.0, 5.0], make_scenario())

    def test_offset_may_be_negative(self):
        SweepSpec("offset_field", [-1e-5, 0.0, 1e-5], make_scenario())

    @pytest.mark.parametrize("parameter", SWEEPABLE)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_parameter(self, parameter, bad):
        # a lone NaN passed both the monotone and the positive checks, and
        # each sweep point then failed deep inside the geometry
        for vals in ([bad], [bad, 2e-5], [1e-5, bad]):
            with pytest.raises(ValueError, match=f"{parameter} values must "
                                                 "be finite"):
                SweepSpec(parameter, vals, make_scenario())

    def test_n_mot_length_mismatch(self):
        with pytest.raises(ValueError):
            SweepSpec("radial_gradient", [0.1, 0.2], make_scenario(),
                      n_mot_per_point=[5e6])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_n_mot_names_n_mot_per_point(self, bad):
        # such a point used to fail inside the sweep with an error that
        # named the detuning
        with pytest.raises(ValueError, match="n_mot_per_point values must"):
            SweepSpec("radial_gradient", [0.1, 0.2], make_scenario(),
                      n_mot_per_point=[bad, 5e6])

    def test_unknown_output(self):
        with pytest.raises(ValueError):
            SweepSpec("radial_gradient", [0.1], make_scenario(),
                      outputs=("n_mt_steady", "entropy"))


class TestRunSweep:
    def test_row_count_and_columns(self):
        spec = SweepSpec("radial_gradient", [0.08, 0.125, 0.2],
                         make_scenario(), outputs=("n_mt_steady", "kappa"))
        rows = run_sweep(spec)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"value", "error", "n_mt_steady", "kappa"}
            assert row["error"] == ""

    def test_single_value_matches_direct_evaluation(self):
        base = make_scenario()
        spec = SweepSpec("radial_gradient", [0.125], base,
                         outputs=("n_mt_steady", "v_mt", "loading_rate"))
        row = run_sweep(spec)[0]
        scen = scenario_at(base, "radial_gradient", 0.125)
        assert row["n_mt_steady"] == dynamics.steady_state(scen)
        assert row["v_mt"] == scen.v_mt
        assert row["loading_rate"] == dynamics.loading_rate(scen)

    def test_curvature_sweep_shrinks_volume(self):
        values = list(np.linspace(3.0, 40.0, 8))
        spec = SweepSpec("axial_curvature", values, make_scenario(),
                         outputs=("v_mt", "n_mt_steady"))
        rows = run_sweep(spec)
        v = [row["v_mt"] for row in rows]
        assert all(b < a for a, b in zip(v, v[1:]))
        # weak steady-state dependence across the central decade 4-40
        n = [row["n_mt_steady"] for row in rows if row["value"] >= 4.0]
        assert max(n) / min(n) < 2.0

    def test_per_point_n_mot_kappa_composition(self):
        base = make_scenario()
        values = [0.1, 0.125, 0.15]
        n_mots = [4e6, 5e6, 6e6]
        spec = SweepSpec("radial_gradient", values, base,
                         outputs=("kappa",), n_mot_per_point=n_mots)
        rows = run_sweep(spec)
        for v, nm, row in zip(values, n_mots, rows):
            scen = scenario_at(base, "radial_gradient", v, n_mot=nm)
            assert row["kappa"] == dynamics.accumulation_efficiency(scen)

    def test_offset_sweep_leaves_rate_model_constant(self):
        spec = SweepSpec("offset_field", [0.0, 2e-6, 4e-6, 1e-5],
                         make_scenario(),
                         outputs=("n_mt_steady", "loading_rate", "v_mt",
                                  "kappa", "majorana_safe"))
        rows = run_sweep(spec)
        for key in ("n_mt_steady", "loading_rate", "v_mt", "kappa"):
            assert len({row[key] for row in rows}) == 1
        assert [row["majorana_safe"] for row in rows] == [False, False,
                                                          True, True]

    def test_per_point_error_isolation(self):
        # 0.01 T/m is below the gravity-support threshold: untrapped cloud
        spec = SweepSpec("radial_gradient", [0.01, 0.125], make_scenario(),
                         outputs=("n_mt_steady",))
        rows = run_sweep(spec)
        assert "untrapped" in rows[0]["error"]
        assert math.isnan(rows[0]["n_mt_steady"])
        assert rows[1]["error"] == ""
        assert rows[1]["n_mt_steady"] > 0


class TestKappaCurve:
    def test_points_lie_on_master_curve(self):
        scens = [make_scenario(v_mt=v) for v in (4e-9, 6e-9, 1e-8)]
        data = kappa_curve(scens)
        expected = dynamics.kappa_of_abscissa(data.x, 1.3e-17, 6e-16)
        assert np.allclose(data.y, expected, rtol=1e-12)

    def test_identical_scenarios_identical_points(self):
        data = kappa_curve([make_scenario(), make_scenario()])
        assert data.x[0] == data.x[1]
        assert data.y[0] == data.y[1]

    def test_abscissa_linear_in_volume(self):
        d1 = kappa_curve([make_scenario(v_mt=5e-9)])
        d2 = kappa_curve([make_scenario(v_mt=1e-8)])
        assert d2.x[0] == pytest.approx(2 * d1.x[0], rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kappa_curve([])


class TestSynthesize:
    def test_noiseless_loading_curve_matches_evolve(self):
        scen = make_scenario()
        data = synthesize_measurements(scen, "loading_curve", noise=0.0,
                                       points=40)
        t, n = dynamics.evolve(scen, 0.0, float(data.x[-1]), samples=40)
        assert np.array_equal(data.x, t)
        assert np.allclose(data.y, n, rtol=1e-12)

    def test_seed_determinism(self):
        scen = make_scenario()
        a = synthesize_measurements(scen, "kappa_points", noise=0.1, seed=7)
        b = synthesize_measurements(scen, "kappa_points", noise=0.1, seed=7)
        c = synthesize_measurements(scen, "kappa_points", noise=0.1, seed=8)
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_decay_curve_starts_at_steady_state(self):
        scen = make_scenario(gamma_d=0.02)
        data = synthesize_measurements(scen, "decay_curve", noise=0.0)
        assert data.x[0] == 0.0
        assert data.y[0] == pytest.approx(dynamics.steady_state(scen),
                                          rel=1e-12)
        assert np.all(np.diff(data.y) < 0)

    def test_log_grid_is_geomspace_bit_for_bit(self):
        # the decay range at every length, and random kappa ranges
        for n in range(0, 401):
            assert np.array_equal(_log_grid(0.05, 150.0, n),
                                  np.geomspace(0.05, 150.0, n)), n
        rng = np.random.default_rng(11)
        for x0, n in zip(10 ** rng.uniform(-30, 5, 3000),
                         rng.integers(2, 100, 3000)):
            assert np.array_equal(_log_grid(0.1 * x0, 10 * x0, n),
                                  np.geomspace(0.1 * x0, 10 * x0, n)), x0

    def test_kappa_points_need_a_positive_abscissa(self):
        with pytest.raises(ValueError, match="abscissa"):
            synthesize_measurements(make_scenario(eta=0.0), "kappa_points")

    def test_tof_series_shape(self):
        data = synthesize_measurements(make_scenario(), "tof_series",
                                       noise=0.0, points=8)
        assert len(data) == 8
        assert np.all(np.diff(data.y) > 0)  # ballistic growth

    def test_tof_series_matches_scalar_radii(self):
        # one array call of tof_radius, bit for bit the per-time calls
        scen = make_scenario()
        data = synthesize_measurements(scen, "tof_series", noise=0.0)
        sigma0 = cloud.scale_lengths(scen.species, scen.trap,
                                     scen.mt_temperature)[0]
        want = [cloud.tof_radius(sigma0, scen.mt_temperature, scen.species,
                                 float(ti)) for ti in data.x]
        assert data.y.tolist() == want

    def test_kappa_roundtrip_noiseless(self):
        data = synthesize_measurements(make_scenario(), "kappa_points",
                                       noise=0.0)
        res = fit_kappa(data)
        assert res["beta_dd"] == pytest.approx(1.3e-17, rel=1e-6)
        assert res["beta_ed"] == pytest.approx(6e-16, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            synthesize_measurements(make_scenario(), "loading_curve",
                                    noise=-0.1)
        with pytest.raises(ValueError, match="noise must be >= 0"):
            synthesize_measurements(make_scenario(), "decay_curve",
                                    noise=math.nan)
        with pytest.raises(ValueError):
            synthesize_measurements(make_scenario(), "spectrum")
