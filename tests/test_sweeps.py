import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliptrap import dynamics
from cliptrap.estimation import fit_kappa
from cliptrap import cloud
from cliptrap.sweeps import (OUTPUTS, SWEEPABLE, SweepSpec, _log_grid,
                             run_sweep, scenario_at, synthesize_measurements)
from cliptrap.trap import IpTrapConfig, majorana_safe
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

    def test_iterators_are_not_used_up(self):
        # the checks once consumed a generator, and the sweep then ran no
        # point and returned [] without an error
        spec = SweepSpec("radial_gradient", (v for v in [0.1, 0.12]),
                         make_scenario(), outputs=iter(["n_mot", "kappa"]),
                         n_mot_per_point=(n for n in [4e6, 5e6]))
        assert spec.values == (0.1, 0.12)
        assert spec.outputs == ("n_mot", "kappa")
        assert spec.n_mot_per_point == (4e6, 5e6)
        rows = run_sweep(spec)
        assert [row["n_mot"] for row in rows] == [4e6, 5e6]
        assert all(row["kappa"] > 0 for row in rows)

    @pytest.mark.parametrize("args,kwargs,message", [
        (("detuning", [0.1]), {}, "sweep parameter must be one of "
         "radial_gradient, axial_curvature, offset_field: 'detuning'"),
        (("radial_gradient", []), {}, "values must be non-empty"),
        (("radial_gradient", [0.1, math.nan]), {},
         "radial_gradient values must be finite"),
        (("radial_gradient", [0.1, 0.3, 0.2]), {},
         "values must be strictly monotone"),
        (("radial_gradient", [0.1, 0.1]), {},
         "values must be strictly monotone"),
        (("offset_field", [2e-6, -1e-6, -1e-6]), {},
         "values must be strictly monotone"),
        (("axial_curvature", [-1.0, 5.0]), {},
         "axial_curvature values must be positive"),
        (("radial_gradient", [0.2, 0.0]), {},
         "radial_gradient values must be positive"),
        (("radial_gradient", [0.1, 0.2]), {"n_mot_per_point": [5e6]},
         "n_mot_per_point length must match values"),
        (("radial_gradient", [0.1]), {"n_mot_per_point": [-1.0]},
         "n_mot_per_point values must be finite and >= 0"),
        (("radial_gradient", [0.1]), {"outputs": ("kappa", "entropy")},
         "unknown outputs: ['entropy']"),
        (("radial_gradient", [0.1]),
         {"outputs": ("kappa_abscissa", "kappa", "kappa")},
         "repeated outputs: ['kappa']"),
    ])
    def test_messages(self, args, kwargs, message):
        with pytest.raises(ValueError) as exc:
            SweepSpec(*args, make_scenario(), **kwargs)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-2e-6, -1e-300, 0.0, 5e-324, 1e-6,
                                     1e-6 + 1e-21, 3.0, 1e300]),
                    min_size=1, max_size=5))
    def test_monotone_check_matches_numpy(self, values):
        # the checks run on Python floats; np.diff gave the same verdict
        diffs = np.diff(values)
        monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
        try:
            SweepSpec("offset_field", values, make_scenario())
        except ValueError as exc:
            assert not monotone and str(exc) == \
                "values must be strictly monotone"
        else:
            assert monotone


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
        assert row["loading_rate"] == scen.loading_rate

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
            assert row["kappa"] == scen.kappa

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

    def test_out_of_range_point_says_so(self):
        # 1e303 T/m makes the cloud's size overflow a float, and 1e-302 T/m
        # mu B' underflow to 0; the row says so in trap terms, not through
        # an internal field or a division by zero
        rows = run_sweep(SweepSpec("radial_gradient", [1e-302, 0.125, 1e303],
                                   make_scenario(), outputs=("v_mt",)))
        for row in (rows[0], rows[2]):
            assert row["error"] == ("trap cloud size under- or overflows "
                                    "a float")
        assert rows[1]["error"] == ""


    def test_zero_n_mot_point_names_n_mot(self):
        # kappa = N / N_MOT used to fail as "float division by zero"; the
        # point is still isolated, and outputs that do not divide by
        # N_MOT are still computed: R = N_inf = 0 and tau = inf
        spec = SweepSpec("radial_gradient", [0.1, 0.125], make_scenario(),
                         n_mot_per_point=[0.0, 5e6])
        rows = run_sweep(spec)
        assert rows[0]["error"] == "n_mot must be > 0"
        assert math.isnan(rows[0]["kappa"])
        assert rows[1]["error"] == "" and rows[1]["kappa"] > 0
        geometry = run_sweep(replace(spec, outputs=("n_mot", "v_mt")))
        assert geometry[0]["error"] == "" and geometry[0]["n_mot"] == 0.0
        no_kappa = run_sweep(replace(spec, outputs=(
            "loading_rate", "n_mt_steady", "tau_eff")))[0]
        assert no_kappa == {"value": 0.1, "error": "", "loading_rate": 0.0,
                            "n_mt_steady": 0.0, "tau_eff": math.inf}
        abscissa = run_sweep(replace(spec, outputs=("kappa_abscissa",)))
        assert abscissa[0]["error"] == "n_mot must be > 0"

    def test_no_loss_channel(self):
        # R and the abscissa need no loss coefficient; N_inf does
        base = make_scenario(beta_ed=0.0, beta_dd=0.0, gamma_d=0.0)
        spec = SweepSpec("radial_gradient", [0.1, 0.125], base,
                         outputs=("loading_rate", "kappa_abscissa"))
        for value, row in zip(spec.values, run_sweep(spec)):
            scen = scenario_at(base, "radial_gradient", value)
            assert row == {
                "value": value, "error": "",
                "loading_rate": scen.loading_rate,
                "kappa_abscissa": scen.kappa_abscissa}
        rows = run_sweep(replace(spec, outputs=("loading_rate", "kappa")))
        assert all(row["error"] == "no steady state: loading without any "
                   "loss channel" for row in rows)

    def test_excited_fraction_once_per_point(self, monkeypatch):
        # one rate-model pass per point: the rows once evaluated the
        # excited fraction six times each.  The base scenario forms its
        # own rates when built, so it is built before the count starts
        base = make_scenario()
        calls = []
        original = dynamics.excited_fraction
        monkeypatch.setattr(dynamics, "excited_fraction",
                            lambda *a: calls.append(1) or original(*a))
        rows = run_sweep(SweepSpec("axial_curvature", [5.0, 10.0, 20.0],
                                   base, outputs=OUTPUTS))
        assert all(row["error"] == "" for row in rows)
        assert len(calls) == 3


@settings(max_examples=60, deadline=None)
@given(parameter=st.sampled_from(SWEEPABLE),
       b_prime=st.floats(0.03, 0.3), b_dprime=st.floats(1.0, 50.0),
       b0=st.floats(-1e-4, 1e-4), n_mot=st.floats(1e3, 1e9),
       gamma_d=st.sampled_from([0.0, 0.05]))
def test_row_outputs_equal_public_functions(parameter, b_prime, b_dprime, b0,
                                            n_mot, gamma_d):
    # each of the nine outputs, bit for bit, from the public function of
    # its quantity or, for the abscissa, its definition; kappa also from
    # its definition
    base = replace(make_scenario(gamma_d=gamma_d),
                   trap=IpTrapConfig(b_prime, b_dprime, b0))
    value = getattr(base.trap, parameter)
    row = run_sweep(SweepSpec(parameter, [value], base, outputs=OUTPUTS,
                              n_mot_per_point=[n_mot]))[0]
    scen = scenario_at(base, parameter, value, n_mot=n_mot)
    n_inf = dynamics.steady_state(scen)
    r = scen.loading_rate
    assert row == {
        "value": value, "error": "",
        "n_mot": n_mot, "n_mt_steady": n_inf, "loading_rate": r,
        "tau_eff": dynamics.effective_loading_time(n_inf, r),
        "v_mt": scen.v_mt, "kappa": scen.kappa,
        "kappa_abscissa": r * scen.v_mt / (n_mot * n_mot),
        "t_mt_prediction": dynamics.mt_temperature_prediction(
            scen.mot.temperature),
        "majorana_safe": majorana_safe(scen.trap)}
    assert row["kappa"] == n_inf / n_mot
    assert scen.gamma_ed == dynamics.gamma_ed_loss(
        scen.n_mot_excited, scen.coefficients.beta_ed, scen.v_eff)
    assert scen.gamma == gamma_d + scen.gamma_ed


def scenario_at_oracle(base, parameter, value, n_mot):
    """scenario_at through dataclasses.replace and the two-call V_MT."""
    trap = replace(base.trap, **{parameter: value})
    mot = base.mot if n_mot is None else replace(base.mot, n_mot=n_mot)
    v_mt = cloud.occupied_volume(cloud.make_thermal_cloud(
        base.species, trap, n=1.0, t=base.mt_temperature))
    return replace(base, trap=trap, mot=mot, v_mt=v_mt, v_eff=v_mt)


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(parameter=st.sampled_from(SWEEPABLE), value=st.floats(0.005, 50.0),
       b_prime=st.floats(0.03, 0.3), b_dprime=st.floats(1.0, 50.0),
       b0=st.floats(-1e-4, 1e-4).filter(bool),
       t_mt=st.floats(2e-5, 5e-4), eta=st.floats(0.01, 1.0),
       gamma_d=st.floats(0.0, 0.1), beta_dd=st.floats(0.0, 1e-16),
       n_mot=st.none() | st.floats(0.0, 1e9))
def test_scenario_at_equals_replace_oracle(parameter, value, b_prime,
                                           b_dprime, b0, t_mt, eta, gamma_d,
                                           beta_dd, n_mot):
    # every field of the base differs from its default and from the new
    # point's, so a field the direct construction drops or takes from the
    # wrong place fails here; an untrapped B' fails with the same message
    if parameter == "offset_field":
        value = (value - 25.0) * 1e-5
    elif parameter == "radial_gradient":
        value /= 100.0
    base = replace(make_scenario(eta=eta, beta_dd=beta_dd, gamma_d=gamma_d,
                                 n_mot=7.5e6, v_mt=3e-9, v_eff=4e-9,
                                 t_mt=t_mt, saturation=3.0),
                   trap=IpTrapConfig(b_prime, b_dprime, b0))
    got = outcome(scenario_at, base, parameter, value, n_mot)
    assert got == outcome(scenario_at_oracle, base, parameter, value, n_mot)
    if isinstance(got, str):
        assert parameter == "radial_gradient" and got.startswith(
            "untrapped cloud")


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
                                          rel=1e-12, abs=0)
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

    @settings(max_examples=500, deadline=None)
    @given(lo=st.floats(0.0, exclude_min=True, allow_infinity=False),
           hi=st.floats(0.0, exclude_min=True, allow_infinity=False),
           n=st.integers(0, 400))
    @example(lo=0.05, hi=0.05, n=30)
    @example(lo=5e-324, hi=5e-324, n=2)
    @example(lo=1e300, hi=float(np.nextafter(1e300, math.inf)), n=400)
    @example(lo=1.0, hi=float(np.nextafter(1.0, 2.0)), n=400)
    @example(lo=5e-324, hi=1.7976931348623157e308, n=400)
    @example(lo=150.0, hi=0.05, n=1)
    def test_log_grid_is_geomspace_over_the_float_range(self, lo, hi, n):
        # lo == hi, and distinct lo and hi whose log10 agree, give a step
        # of 0, where linspace divides by n - 1 before it multiplies; no
        # step underflows otherwise, since log10 of a float other than 1
        # is at least 4.8e-17 from 0.  Powers of 10 next to the float
        # limit overflow alike in both.
        with np.errstate(over="ignore"):
            grid, reference = _log_grid(lo, hi, n), np.geomspace(lo, hi, n)
        assert grid.shape == reference.shape == (n,)
        assert grid.tobytes() == reference.tobytes()

    def test_kappa_points_need_a_positive_abscissa(self):
        with pytest.raises(ValueError, match="abscissa"):
            synthesize_measurements(make_scenario(eta=0.0), "kappa_points")

    @pytest.mark.parametrize("kind", ["loading_curve", "decay_curve",
                                      "tof_series", "kappa_points"])
    def test_fewer_than_two_points_rejected(self, kind):
        # 0 points once raised IndexError (decay_curve), gave an empty set
        # (kappa_points) or silently became 3 (tof_series)
        for points in (-1, 0, 1):
            with pytest.raises(ValueError, match="points must be >= 2"):
                synthesize_measurements(make_scenario(), kind,
                                        points=points)
        assert len(synthesize_measurements(make_scenario(), kind,
                                           points=2)) == 2

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
        assert res["beta_dd"] == pytest.approx(1.3e-17, rel=1e-6, abs=0)
        assert res["beta_ed"] == pytest.approx(6e-16, rel=1e-6, abs=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            synthesize_measurements(make_scenario(), "loading_curve",
                                    noise=-0.1)
        with pytest.raises(ValueError, match="noise must be >= 0"):
            synthesize_measurements(make_scenario(), "decay_curve",
                                    noise=math.nan)
        with pytest.raises(ValueError):
            synthesize_measurements(make_scenario(), "spectrum")
