import math

import numpy as np
import pytest

from cliptrap import cli, cloud, dynamics, estimation, sweeps
from cliptrap.estimation import (DataSet, fit_column_profile, fit_decay,
                                 fit_kappa, fit_loading_rate, fit_tof,
                                 least_squares)
from cliptrap.flatfile import read_csv
from cliptrap.species import chromium_52
from cliptrap.trap import IpTrapConfig
from conftest import make_scenario

CR = chromium_52()
CFG = IpTrapConfig(0.125, 10.5)


def dataset(x, y, sigma=1.0):
    x = np.asarray(x, float)
    return DataSet(x, np.asarray(y, float), np.full(x.shape, sigma))


def numeric_jacobian_reference(fun, p):
    """Central differences of fun at p, steps of 1e-6 relative (at least
    1e-12), the output sized by one more fun(p)."""
    r0 = fun(p)
    jac = np.empty((r0.size, p.size))
    for i in range(p.size):
        h = max(1e-6 * abs(p[i]), 1e-12)
        pp = p.copy()
        pm = p.copy()
        pp[i] += h
        pm[i] -= h
        jac[:, i] = (fun(pp) - fun(pm)) / (2 * h)
    return jac


def numeric(f):
    """f(x, p) as a least_squares model whose Jacobian callable takes
    central differences of f in p."""
    def model(x, p):
        return f(x, p), lambda: numeric_jacobian_reference(
            lambda v: np.asarray(f(x, v), float), np.array(p, float))
    return model


LINE = numeric(lambda x, p: p[0] + p[1] * x)
PROPORTIONAL = numeric(lambda x, p: p[0] * x)


def start_of(monkeypatch, fit, *args, **kwargs):
    """The parameters fit(*args) hands least_squares as its start, and the
    fit's result."""
    starts = []
    real = estimation.least_squares

    def spy(model, data, initial, *a, **kw):
        starts.append(np.array(initial, float))
        return real(model, data, initial, *a, **kw)

    monkeypatch.setattr(estimation, "least_squares", spy)
    res = fit(*args, **kwargs)
    assert len(starts) == 1
    return starts[0], res


class TestDataSet:
    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            DataSet(np.arange(3.0), np.arange(3.0), np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DataSet(np.arange(3.0), np.arange(4.0), np.ones(3))

    def test_csv_roundtrip(self, tmp_path):
        # synth writes each value as .12g text; reading it back gives
        # exactly those numbers and the column labels
        path = tmp_path / "d.csv"
        assert cli.main(["synth", "--paper-defaults",
                         "--set", "synth_noise=0.03",
                         "--set", "synth_kind=decay_curve", "--seed", "4",
                         "--out", str(path)]) == 0
        want = sweeps.synthesize_measurements(
            cli.scenario_from_config(cli.PAPER_DEFAULTS), "decay_curve",
            noise=0.03, seed=4)
        back = DataSet.from_rows(path, *read_csv(path))
        for got, values in ((back.x, want.x), (back.y, want.y),
                            (back.sigma_y, want.sigma_y)):
            assert got.tolist() == [float(f"{v:.12g}") for v in values]
        assert (back.x_label, back.y_label) == ("t_s", "n_atoms")

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# generated\nt,n,sigma_n\n# midway note\n1,2,0.1\n"
                        "2,3,0.1\n")
        d = DataSet.from_rows(path, *read_csv(path))
        assert len(d) == 2
        assert d.x_label == "t"

    def test_mask_column_filters_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma_y,mask\n1,2,0.1,1\n2,9,0.1,0\n3,4,0.1,1\n")
        d = DataSet.from_rows(path, *read_csv(path))
        assert np.array_equal(d.x, [1.0, 3.0])

    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = {"x": np.arange(3.0), "y": np.arange(3.0)}
        values[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            DataSet(values["x"], values["y"], np.ones(3))

    def test_csv_non_finite_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,n,sigma_n\n0,2,0.1\n# note\n1,nan,0.1\n")
        with pytest.raises(ValueError, match=f"{path}:4: not a finite"):
            DataSet.from_rows(path, *read_csv(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,sigma_y\n")
        with pytest.raises(ValueError, match="no data rows"):
            DataSet.from_rows(path, *read_csv(path))

    @pytest.mark.parametrize("text,reason", [
        (b"x,y\n1,2\n", "expected at least 3 columns"),
        (b"x,y,sigma_y\n1,2,0\n", "all sigma_y must be positive"),
        (b"x,y,sigma_y,mask\n1,2,1,0\n", "mask column excluded every row"),
        (b"x,y,sigma_y\n1,\xff,1\n", "can't decode byte 0xff"),
        (b"x,y,sigma_y\n1,2,1\n3,4\n", ":3: not a finite number: ''")])
    def test_error_names_file_once(self, tmp_path, text, reason):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError) as info:
            DataSet.from_rows(path, *read_csv(path))
        message = str(info.value)
        assert message.startswith(str(path)) and reason in message
        assert message.count(str(path)) == 1


class TestLeastSquares:
    def test_exact_linear(self):
        x = np.linspace(0, 4, 5)
        d = dataset(x, 2.5 * x + 1.0)
        res = least_squares(LINE, d, [0.0, 0.0])
        assert res.converged
        assert res.values == pytest.approx([1.0, 2.5], abs=1e-9)
        assert res.residual_norm < 1e-9
        # the initial damping takes a few iterations to decay
        assert res.iterations <= 10

    @pytest.mark.parametrize("noise_seed", [None, *range(8)])
    def test_stops_at_floating_point_minimum(self, noise_seed):
        # Started at the lstsq solution, no step can lower the cost beyond
        # rounding: the fit stops on the first step, accepted at rounding
        # level or rejected.  With noisy lines it used to take up to 7
        # iterations, moving the values by rounding-level steps.
        x = np.linspace(0, 4, 5)
        y = 2.5 * x + 1.0
        if noise_seed is not None:
            y = y + np.random.default_rng(noise_seed).normal(0, 0.1, x.size)
        d = dataset(x, y)
        design = np.column_stack([np.ones_like(x), x])
        p_star = np.linalg.lstsq(design, y, rcond=None)[0]
        res = least_squares(LINE, d, p_star)
        assert res.converged
        assert res.iterations <= 2
        assert res.values == pytest.approx(p_star, rel=1e-9, abs=0)
        assert res.covariance == pytest.approx(
            np.linalg.inv(design.T @ design), rel=1e-8, abs=0)

    def test_analytic_jacobian_matches_numeric(self):
        x = np.linspace(0, 4, 20)
        rng = np.random.default_rng(3)
        d = dataset(x, 3.0 * np.exp(-0.7 * x) + rng.normal(0, 0.01, x.size),
                    0.01)
        f = lambda xx, p: p[0] * np.exp(-p[1] * xx)

        def model(xx, p):
            return f(xx, p), lambda: np.column_stack(
                [np.exp(-p[1] * xx), -p[0] * xx * np.exp(-p[1] * xx)])
        differences = least_squares(numeric(f), d, [1.0, 1.0])
        analytic = least_squares(model, d, [1.0, 1.0])
        assert analytic.converged and differences.converged
        assert analytic.values == pytest.approx(differences.values,
                                                rel=1e-8, abs=0)
        assert analytic.covariance == pytest.approx(differences.covariance,
                                                    rel=1e-6, abs=0)

    def test_log_parameters_match_explicit_reparametrisation(self):
        # the log option fits log p and maps values and covariance back
        # once: the same as fitting log p by hand and applying the delta
        # method, and a free parameter passes through unchanged
        x = np.linspace(0, 4, 20)
        rng = np.random.default_rng(5)
        d = dataset(x, 3.0 * np.exp(-0.7 * x) + 0.2
                    + rng.normal(0, 0.01, x.size), 0.01)
        model = lambda xx, p: p[0] * np.exp(-p[1] * xx) + p[2]
        res = least_squares(numeric(model), d, [1.0, 1.0, 0.0],
                            log=(True, True, False))
        by_hand = least_squares(numeric(
            lambda xx, q: model(xx, [math.exp(q[0]), math.exp(q[1]), q[2]])),
            d, [0.0, 0.0, 0.0])
        scale = np.array([res.values[0], res.values[1], 1.0])
        assert res.converged and by_hand.converged
        assert res.values == pytest.approx(
            [math.exp(by_hand.values[0]), math.exp(by_hand.values[1]),
             by_hand.values[2]], rel=1e-9, abs=0)
        assert res.covariance == pytest.approx(
            by_hand.covariance * np.outer(scale, scale), rel=1e-6, abs=0)
        assert res.correlation == pytest.approx(by_hand.correlation,
                                                abs=1e-9)

    def test_log_bounds_and_jacobian_in_natural_units(self):
        # bounds and the Jacobian are given in p; the solver works in log p
        x = np.linspace(0, 4, 20)
        d = dataset(x, 3.0 * np.exp(-0.7 * x), 0.01)
        seen = []

        def model(xx, p):
            f = p[0] * np.exp(-p[1] * xx)

            def jac():
                seen.append(p)
                return np.column_stack([f / p[0], -xx * f])
            return f, jac
        res = least_squares(model, d, [1.0, 1.0],
                            bounds=([0.0, 0.0], [2.5, 10.0]), log=(True, True))
        assert res["p0"] == 2.5
        assert seen[0] == [1.0, 1.0] and seen[-1] == res.values.tolist()
        assert all(0 < p0 <= 2.5 and 0 < p1 <= 10.0 for p0, p1 in seen)
        assert res.sigma("p1") > 0

    def test_log_parameter_must_start_positive(self):
        d = dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            least_squares(PROPORTIONAL, d, [0.0], log=(True,))
        with pytest.raises(ValueError):
            least_squares(PROPORTIONAL, d, [1.0], log=(True, True))

    def test_log_parameter_past_float_range_is_rejected(self):
        # f = (ln p)^2 x from p = e: the first steps take ln p to about
        # 1000, past exp's range, and cost inf without a model call; the
        # fit then reaches ln p = sqrt(2000)
        x = np.linspace(1, 4, 8)
        seen = []

        def model(xx, p):
            seen.append(p[0])
            q = math.log(p[0])
            return q * q * xx, lambda: (2 * q / p[0] * xx)[:, None]
        res = least_squares(model, dataset(x, 2000 * x), [math.e],
                            log=(True,))
        assert res.converged
        assert math.log(res["p0"]) == pytest.approx(math.sqrt(2000),
                                                    rel=1e-12, abs=0)
        assert len(seen) < res.iterations + 1
        assert all(map(math.isfinite, seen))

    def test_model_not_evaluable_at_the_start(self):
        d = dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="model not evaluable at the "
                                             "initial parameters"):
            least_squares(lambda xx, p: (np.full(xx.size, np.nan), None),
                          d, [1.0])

    def test_candidate_of_non_finite_cost_is_rejected(self):
        # f = p x is NaN for p >= 0.5, and the data's p = 1 lies there: the
        # candidates past 0.5 cost inf and are rejected without a Jacobian,
        # and the fit stops at the edge of the evaluable range
        x = np.linspace(1, 4, 8)
        seen, jacobians = [], []

        def model(xx, p):
            seen.append(p[0])
            f = p[0] * xx if p[0] < 0.5 else np.full(xx.size, np.nan)
            return f, lambda: jacobians.append(p[0]) or xx[:, None]
        res = least_squares(model, dataset(x, x), [0.1])
        assert res.converged
        assert res["p0"] == pytest.approx(0.5, rel=1e-8, abs=0)
        assert res["p0"] < 0.5 and math.isfinite(res.residual_norm)
        assert sum(v >= 0.5 for v in seen) > 0
        assert max(jacobians) < 0.5

    def test_exact_parabola(self):
        x = np.array([-1.0, 0.0, 2.0, 3.0])
        y = 0.5 * x ** 2 - x + 3
        res = least_squares(numeric(lambda xx, p: p[0] + p[1] * xx
                                    + p[2] * xx ** 2),
                            dataset(x, y), [1.0, 1.0, 1.0])
        assert res.converged
        assert res.values == pytest.approx([3.0, -1.0, 0.5], abs=1e-8)

    def test_too_few_points(self):
        d = dataset([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            least_squares(LINE, d, [0.0, 0.0])

    def test_bounds_projection(self):
        x = np.linspace(0, 4, 9)
        d = dataset(x, -2.0 * x)
        res = least_squares(PROPORTIONAL, d, [1.0],
                            bounds=([0.0], [10.0]))
        assert res.values[0] == 0.0

    def test_active_bound_holds_parameter(self):
        # the unconstrained intercept is -0.5; on the bound a = 0 the
        # slope must move to the one-parameter optimum sum(xy) / sum(x^2),
        # which projected steps alone never reach (200 iterations, 5e-4 off)
        x = np.linspace(1, 5, 9)
        y = -0.5 + 2.0 * x + np.random.default_rng(1).normal(0, 0.05, x.size)
        res = least_squares(LINE,
                            dataset(x, y, 0.05), [1.0, 1.0],
                            bounds=([0.0, -10.0], [10.0, 10.0]))
        assert res.converged
        assert res.iterations <= 10
        assert res.values[0] == 0.0
        assert res.values[1] == pytest.approx((x @ y) / (x @ x),
                                              rel=1e-9, abs=0)

    def test_initial_outside_bounds(self):
        d = dataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            least_squares(PROPORTIONAL, d, [-1.0],
                          bounds=([0.0], [10.0]))

    def test_covariance_scaling(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 4, 20)
        y = 1.0 + 2.5 * x + rng.normal(0, 0.1, x.size)
        d1 = DataSet(x, y, np.full(x.size, 0.1))
        d3 = DataSet(x, y, np.full(x.size, 0.3))
        r1 = least_squares(LINE, d1, [0.0, 0.0])
        r3 = least_squares(LINE, d3, [0.0, 0.0])
        assert r3.values == pytest.approx(r1.values, rel=1e-8, abs=0)
        assert r3.covariance == pytest.approx(9 * r1.covariance,
                                              rel=1e-6, abs=0)

    def test_nonconvergence_reports_best_so_far(self):
        # wildly wrong scale with a pathological model surface
        d = dataset([1.0, 2.0, 3.0, 4.0], [1.0, 8.0, 27.0, 64.0], 1e-12)
        res = least_squares(numeric(lambda xx, p: np.sin(p[0] * xx) * 1e6),
                            d, [50.0])
        assert res.iterations <= 200
        assert np.isfinite(res.residual_norm)

    def test_correlation_matrix_properties(self):
        x = np.linspace(0, 4, 20)
        d = dataset(x, 1.0 + 2.5 * x, 0.1)
        res = least_squares(LINE, d, [0.0, 0.0])
        assert np.allclose(res.covariance, res.covariance.T)
        assert np.all(np.abs(res.correlation) <= 1.0)
        assert np.allclose(np.diag(res.correlation), 1.0)

    def test_undetermined_parameter_has_infinite_sigma(self):
        # the model does not depend on p1, so J^T J is singular: p1's sigma
        # is inf and its correlations nan, not the pseudo-inverse's zeros,
        # and p0 keeps the sigma of the fit without p1
        x = np.linspace(1, 4, 8)
        d = dataset(x, 2.5 * x + np.random.default_rng(2).normal(0, 0.1, 8),
                    0.1)
        res = least_squares(
            lambda xx, p: (p[0] * xx,
                           lambda: np.column_stack([xx, np.zeros_like(xx)])),
            d, [1.0, 3.0])
        alone = least_squares(lambda xx, p: (p[0] * xx, lambda: xx[:, None]),
                              d, [1.0])
        assert res.converged and alone.converged
        assert math.isinf(res.sigma("p1"))
        assert res.sigma("p0") == pytest.approx(alone.sigma("p0"),
                                                rel=1e-12, abs=0)
        assert res.values[0] == pytest.approx(alone.values[0], rel=1e-12,
                                              abs=0)
        assert res.correlation[0, 0] == pytest.approx(1.0, rel=1e-15, abs=0)
        assert np.isnan([res.correlation[0, 1], res.correlation[1, 0],
                         res.correlation[1, 1]]).all()

    def test_a_shared_free_direction_leaves_both_parameters_undetermined(
            self):
        # only p0 + p1 is fixed by the data; the free direction (1, -1)
        # leaves neither determined, a log parameter included
        x = np.linspace(1, 4, 8)
        d = dataset(x, 2.5 * x, 0.1)
        res = least_squares(
            lambda xx, p: ((p[0] + p[1]) * xx,
                           lambda: np.column_stack([xx, xx])),
            d, [1.0, 1.0], log=(True, False))
        assert [res.sigma("p0"), res.sigma("p1")] == [math.inf, math.inf]
        assert np.isnan(res.correlation).all()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cholesky_step_matches_numpy_solve(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            # SPD with a moderate condition number, up to 100
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = q @ np.diag(10 ** rng.uniform(-1, 1, n)) @ q.T
            a = 0.5 * (a + a.T)
            b = rng.standard_normal(n)
            (x,), free = estimation._solve(a.tolist(), [b.tolist()])
            assert free == []
            assert x == pytest.approx(np.linalg.solve(a, b), rel=1e-12,
                                      abs=1e-12 * np.abs(x).max())

    @pytest.mark.parametrize("a", [
        [[1.0, 2.0], [2.0, 1.0]],       # indefinite
        [[1.0, 1.0], [1.0, 1.0]],       # singular
        [[0.0, 0.0], [0.0, 1.0]],       # zero pivot
        [[math.nan, 0.0], [0.0, 1.0]],  # not a number
        [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0 - 1e-17]]])
    def test_cholesky_declines_non_positive_definite(self, a):
        assert estimation._cholesky(a) is None

    def test_singular_damped_step_is_the_minimum_norm_solution(self):
        # parallel Jacobian columns, damped by a lam below rounding: the
        # step is lstsq's minimum-norm one, and (1, -1) is left free
        lhs = [[4.0 * (1 + 1e-20), 4.0], [4.0, 4.0 * (1 + 1e-20)]]
        (step,), free = estimation._solve(lhs, [[-2.0, -2.0]])
        want = np.linalg.lstsq(np.array(lhs), [-2.0, -2.0], rcond=None)[0]
        assert step == pytest.approx(want, rel=1e-15, abs=0)
        assert len(free) == 1
        assert np.abs(free[0]) == pytest.approx([0.5 ** 0.5] * 2, rel=1e-15,
                                                abs=0)

    def test_non_finite_system_raises(self):
        # the eigen rule never hands LAPACK a NaN or an inf
        for a in ([[math.nan, 0.0], [0.0, 1.0]], [[math.inf, 1.0],
                                                  [1.0, math.nan]]):
            with pytest.raises(ValueError, match="out of float range"):
                estimation._solve(a, [[1.0, 1.0]])

    def test_falls_back_to_the_eigen_rule_when_cholesky_declines(
            self, monkeypatch):
        # the step and the covariance then come from _solve's eigen rule
        x = np.linspace(0, 4, 20)
        rng = np.random.default_rng(3)
        d = dataset(x, 3.0 * np.exp(-0.7 * x) + rng.normal(0, 0.01, x.size),
                    0.01)
        def model(xx, p):
            f = p[0] * np.exp(-p[1] * xx)
            return f, lambda: np.column_stack([f / p[0], -xx * f])
        want = least_squares(model, d, [1.0, 1.0], log=(True, False))
        declined = []

        def decline(a):
            declined.append(a)
            return None
        monkeypatch.setattr(estimation, "_cholesky", decline)
        got = least_squares(model, d, [1.0, 1.0], log=(True, False))
        # one factorisation per step, then one for the covariance
        assert len(declined) == got.iterations + 1
        assert got.converged and want.converged
        assert got.values == pytest.approx(want.values, rel=1e-9, abs=0)
        assert got.covariance == pytest.approx(want.covariance,
                                               rel=1e-9, abs=0)
        assert got.correlation == pytest.approx(want.correlation, abs=1e-12)

    def test_residual_norm_is_norm_of_final_residual(self):
        x = np.linspace(0, 4, 20)
        d = dataset(x, 3.0 * np.exp(-0.7 * x)
                    + np.random.default_rng(8).normal(0, 0.01, x.size), 0.01)
        model = lambda xx, p: p[0] * np.exp(-p[1] * xx)
        res = least_squares(numeric(model), d, [1.0, 1.0])
        r = (d.y - model(d.x, res.values.tolist())) * (1.0 / d.sigma_y)
        assert res.residual_norm == pytest.approx(np.linalg.norm(r),
                                                  rel=1e-15, abs=0)


def fit_batch_scenario():
    """The benchmark's fit scenario: paper defaults, V = 5.4e-3 cm^3 and a
    background loss gamma_d = 0.02 /s."""
    return cli.scenario_from_config(dict(
        cli.PAPER_DEFAULTS, v_mt_cm3="5.4e-3", v_eff_cm3="5.4e-3",
        gamma_d_per_s="0.02"))


class TestLinearSolve:
    @pytest.mark.parametrize("kind", ["kappa_points", "decay_curve",
                                      "tof_series"])
    def test_matches_lstsq_on_the_fits_systems(self, kind, monkeypatch):
        # the systems each fit hands it, at 0.5-10 % noise; the error is
        # normwise: the decay start's two unknowns differ by a factor of
        # 50 and its columns are nearly parallel (cond 100 once scaled),
        # so its smaller unknown alone carries up to 1e-11
        scen = fit_batch_scenario()
        fit = {"kappa_points": fit_kappa,
               "decay_curve": lambda d: fit_decay(d, scen.v_mt),
               "tof_series": lambda d: fit_tof(d, scen.species)}[kind]
        systems = []
        real = estimation._linear_solve

        def spy(a, b):
            systems.append((a, b))
            return real(a, b)
        monkeypatch.setattr(estimation, "_linear_solve", spy)
        for seed in range(150):
            fit(sweeps.synthesize_measurements(
                scen, kind, noise=[0.005, 0.03, 0.1][seed % 3], seed=seed))
        assert len(systems) == 150
        for a, b in systems:
            want = np.linalg.lstsq(a, b, rcond=None)[0]
            got = np.array(real(a, b))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("a", [
        np.ones((4, 2)),                              # parallel columns
        np.column_stack([np.arange(1.0, 5.0), np.zeros(4)])])  # a zero column
    def test_falls_back_to_lstsq_on_rank_deficient_a(self, a):
        # the scaled normal equations leave a direction free, and x is
        # their minimum-norm solution: with columns of equal norm or zero,
        # that is numpy's lstsq's on a, to a few ulps
        b = np.array([1.0, 2.0, 4.0, 8.0])
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert estimation._linear_solve(a, b) == pytest.approx(
            want, rel=1e-15, abs=0)


class TestSegmentIntegrals:
    def test_exact_on_a_pure_exponential(self):
        n0, gamma = 2e8, 0.02
        t = np.geomspace(0.05, 150.0, 30)
        t[0] = 0.0
        int_n, int_n2 = estimation._segment_integrals(t, n0 * np.exp(
            -gamma * t))
        e1, e2 = np.exp(-gamma * t), np.exp(-2 * gamma * t)
        assert int_n == pytest.approx(n0 / gamma * (e1[:-1] - e1[1:]),
                                      rel=1e-12, abs=0)
        assert int_n2 == pytest.approx(
            n0 * n0 / (2 * gamma) * (e2[:-1] - e2[1:]), rel=1e-12, abs=0)

    def test_trapezoid_where_a_sample_is_not_positive_or_flat(self):
        t = np.array([0.0, 1.0, 3.0, 4.0, 6.0, 7.0])
        y = np.array([5.0, 0.0, -2.0, 3.0, 3.0, 1.0])
        int_n, int_n2 = estimation._segment_integrals(t, y)
        dt = np.diff(t)
        trapezoid = (dt * (y[1:] + y[:-1]) / 2,
                     dt * (y[1:] ** 2 + y[:-1] ** 2) / 2)
        # the first four intervals hold a sample <= 0 or are flat; the last
        # is exponential
        assert int_n[:4].tolist() == trapezoid[0][:4].tolist()
        assert int_n2[:4].tolist() == trapezoid[1][:4].tolist()
        assert int_n[4] == pytest.approx(2.0 / math.log(3.0), rel=1e-15, abs=0)
        assert int_n2[4] == pytest.approx(4.0 / math.log(3.0),
                                          rel=1e-15, abs=0)

    @pytest.mark.parametrize("ratio", [1 + 1e-15, 1 + 1e-9, 1 - 1e-6, 1.01])
    def test_continuous_as_the_samples_meet(self, ratio):
        # b -> a, where the logarithmic mean tends to the arithmetic one
        a, b = 3.0, 3.0 * ratio
        int_n, int_n2 = estimation._segment_integrals(np.array([0.0, 2.0]),
                                                      np.array([a, b]))
        x = math.log(ratio)
        mean = (a + b) / 2 * (1 - x * x / 12)  # log mean, to order x^2
        assert int_n[0] == pytest.approx(2 * mean, rel=1e-14 + x ** 4, abs=0)
        assert int_n2[0] == pytest.approx(2 * mean * (a + b) / 2,
                                          rel=1e-14 + x ** 4, abs=0)


class TestFitLoadingRate:
    def test_exact_line(self):
        t = np.linspace(0, 0.2, 10)
        assert fit_loading_rate(dataset(t, 1e8 * t)) == pytest.approx(
            1e8, rel=1e-12, abs=0)

    def test_recovers_rate_from_loading_curve(self):
        scen = make_scenario()
        t, n = dynamics.evolve(scen, 0.0, 0.25, samples=26)
        r_fit = fit_loading_rate(DataSet(t, n, np.full(t.size, 1.0)))
        assert r_fit == pytest.approx(scen.loading_rate, rel=0.05, abs=0)

    def test_full_curve_recovers_rate(self):
        # the whole curve, out to 8 tau_eff, where a straight line over it
        # would read R several times too low; what is left is the error of
        # the integrals on 0.1 s intervals, -0.12 % here
        scen = make_scenario(gamma_d=0.02)
        t, n = dynamics.evolve(scen, 0.0, 10.0, samples=100)
        r_fit = fit_loading_rate(DataSet(t, n, np.full(t.size, 1.0)))
        assert r_fit == pytest.approx(scen.loading_rate, rel=2e-3, abs=0)

    def test_too_few_points(self):
        t = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="at least 4 samples"):
            fit_loading_rate(dataset(t, t))

    def test_negative_rate_is_refused(self):
        # a pure decay solves the integrated equation with R < 0, which
        # was returned as the loading rate
        t = np.linspace(0, 10, 20)
        with pytest.raises(ValueError, match="loading rate is negative"):
            fit_loading_rate(dataset(t, 1e8 * np.exp(-0.2 * t) - 1e3 * t))

    def test_solves_the_integrated_equation(self):
        # R of the weighted least-squares solution of
        # y_i - n0 = R t_i - gamma int N dt - k int N^2 dt, the integrals
        # from t0 to t_i, whatever the order of the rows; the anchor's sigma
        # weights no row
        scen = make_scenario(gamma_d=0.02)
        rng = np.random.default_rng(11)
        for _ in range(50):
            t, n = dynamics.evolve(scen, 0.0, rng.uniform(0.3, 10.0),
                                   samples=int(rng.integers(5, 200)))
            n = n * (1 + 0.02 * rng.standard_normal(n.size))
            sigma = np.maximum(np.abs(n) * 0.02, 1e-300)
            int_n, int_n2 = estimation._segment_integrals(t, n)
            w = 1 / sigma[1:]
            a = np.column_stack([t[1:], -np.cumsum(int_n),
                                 -np.cumsum(int_n2)]) * w[:, None]
            norm = np.linalg.norm(a, axis=0)  # columns of one magnitude
            want = np.linalg.lstsq(a / norm, (n[1:] - n[0]) * w,
                                   rcond=None)[0][0] / norm[0]
            order = rng.permutation(t.size)
            got = fit_loading_rate(DataSet(t[order], n[order], sigma[order]))
            assert got == pytest.approx(want, rel=1e-9, abs=0)
            sigma[0] = 1.0
            assert fit_loading_rate(DataSet(t, n, sigma)) == got

    @pytest.mark.parametrize("noise", [0.01, 0.03])
    def test_recovery_on_dense_curves(self, noise):
        # 400-sample curves with both losses free, as fit batches use them;
        # bounds fixed before the fit was run
        scen = make_scenario(gamma_d=0.02, v_mt=5.4e-9)
        rate = scen.loading_rate
        err = np.array([fit_loading_rate(sweeps.synthesize_measurements(
            scen, "loading_curve", noise=noise, seed=seed, points=400))
            / rate - 1 for seed in range(1, 201)])
        assert abs(err.mean()) <= 0.005
        assert np.abs(err).max() <= 0.06

    def test_recovery_on_paper_default_curves(self):
        # the default 30-sample curve, whose samples are 0.42 s apart, at
        # 1 % noise; bounds fixed before the fit was run
        scen = cli.scenario_from_config(dict(cli.PAPER_DEFAULTS))
        rate = scen.loading_rate
        err = np.array([fit_loading_rate(sweeps.synthesize_measurements(
            scen, "loading_curve", noise=0.01, seed=seed)) / rate - 1
            for seed in range(1, 201)])
        assert abs(err.mean()) <= 0.03
        assert np.abs(err).max() <= 0.10


class TestFitKappa:
    BETA_DD = 1.3e-17
    BETA_ED = 6e-16

    def synthetic(self, noise=0.0, seed=0, points=30):
        x = np.geomspace(2e-15, 2e-13, points)
        y = dynamics.kappa_of_abscissa(x, self.BETA_DD, self.BETA_ED)
        if noise:
            rng = np.random.default_rng(seed)
            y = y * (1 + noise * rng.standard_normal(y.shape))
        return DataSet(x, y, np.maximum(np.abs(y), 1e-6) * max(noise, 1e-3))

    @pytest.mark.parametrize("noise", [0.01, 0.03, 0.1])
    def test_pulls_have_unit_spread(self, noise):
        # (fitted - true) / sigma over 300 seeds on the benchmark's kappa
        # grid, with sigma from the noiseless kappa: mean 0 and sd 1 within
        # 4 standard errors, bounds fixed from the seed count alone
        scen = fit_batch_scenario()
        truth = sweeps.synthesize_measurements(scen, "kappa_points")
        coefficients = scen.coefficients
        true = np.array([coefficients.beta_dd, coefficients.beta_ed])
        seeds = 300
        pulls = []
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            y = truth.y * (1 + noise * rng.standard_normal(truth.y.shape))
            res = fit_kappa(DataSet(truth.x, y, noise * np.abs(truth.y)))
            assert res.converged
            pulls.append((res.values - true)
                         / [res.sigma("beta_dd"), res.sigma("beta_ed")])
        pulls = np.array(pulls)
        assert np.abs(pulls.mean(axis=0)).max() <= 4 / math.sqrt(seeds)
        assert np.abs(pulls.std(axis=0, ddof=1) - 1).max() <= (
            4 / math.sqrt(2 * (seeds - 1)))

    def test_noiseless_exact_recovery(self):
        res = fit_kappa(self.synthetic())
        assert res.converged
        assert res["beta_dd"] == pytest.approx(self.BETA_DD, rel=1e-6, abs=0)
        assert res["beta_ed"] == pytest.approx(self.BETA_ED, rel=1e-6, abs=0)

    def test_noisy_recovery_and_correlation(self):
        res = fit_kappa(self.synthetic(noise=0.1, seed=12))
        assert abs(res["beta_dd"] - self.BETA_DD) < 0.3 * self.BETA_DD
        assert abs(res["beta_ed"] - self.BETA_ED) < 0.3 * self.BETA_ED
        assert abs(res.correlation[0, 1]) > 0.5

    def test_correlation_is_negative(self):
        for seed in range(5):
            res = fit_kappa(self.synthetic(noise=0.05, seed=seed))
            assert res.correlation[0, 1] < 0

    def test_nested_model_beta_ed_zero(self):
        x = np.geomspace(2e-15, 2e-13, 30)
        y = dynamics.kappa_of_abscissa(x, self.BETA_DD, 0.0)
        res = fit_kappa(DataSet(x, y, np.abs(y) * 1e-3))
        assert res["beta_ed"] < 2 * res.sigma("beta_ed") + 1e-18
        assert res["beta_dd"] == pytest.approx(self.BETA_DD, rel=1e-3, abs=0)

    def test_jacobian_step_independence(self):
        # central differences at two very different steps agree on the
        # kappa model's Jacobian (smoothness check at random points)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = 10 ** rng.uniform(-14.5, -12.5)
            bd = 10 ** rng.uniform(-17.5, -16.5)
            be = 10 ** rng.uniform(-16, -15)

            def deriv(f, p, h):
                return (f(p + h) - f(p - h)) / (2 * h)
            f_bd = lambda b: dynamics.kappa_of_abscissa(x, b, be)
            d1 = deriv(f_bd, bd, 1e-6 * bd)
            d2 = deriv(f_bd, bd, 1e-7 * bd)
            assert d1 == pytest.approx(d2, rel=1e-4, abs=0)

    def test_linear_start_exact_on_noiseless_data(self, monkeypatch):
        start, res = start_of(monkeypatch, fit_kappa, self.synthetic())
        assert start == pytest.approx([self.BETA_DD, self.BETA_ED],
                                      rel=1e-10, abs=0)
        assert res.converged
        assert res.iterations <= 2

    def test_start_falls_back_when_linear_solution_not_positive(
            self, monkeypatch):
        # kappa flatter than sqrt(x) solves 4 b_dd k^2 + b_ed k = 2x only
        # with b_ed < 0, so the fit starts from the fixed guess
        x = np.geomspace(2e-15, 2e-13, 30)
        y = 3.0 * (x / 2e-14) ** 0.45
        w = 1e3 / y
        linear = np.linalg.lstsq(np.column_stack([4 * y * y, y]) * w[:, None],
                                 2 * x * w, rcond=None)[0]
        assert linear[1] < 0
        start, _ = start_of(monkeypatch, fit_kappa, DataSet(x, y, y * 1e-3))
        assert np.array_equal(start, [1e-17, 1e-15])

    def test_input_validation(self):
        d = dataset([-1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_kappa(d)

    def test_kappa_arithmetic_once_per_evaluation(self, monkeypatch):
        # the abscissae are prepared once per fit, every candidate runs the
        # kappa arithmetic once on them, and the Jacobian of an accepted
        # one reuses its kappa, while a rejected one builds none
        scen = fit_batch_scenario()
        events = []
        prepare = estimation.kappa_fit_model
        kappa_of = dynamics._kappa
        jacobian_of = dynamics._kappa_jacobian_of

        def counted_prepare(x):
            events.append(("prepare", None))
            return prepare(x)

        def counted_kappa(four_x, root_x, beta_dd, beta_ed):
            out = kappa_of(four_x, root_x, beta_dd, beta_ed)
            events.append(("kappa", (out, four_x, root_x)))
            return out

        def counted_jacobian(kappa, beta_dd, beta_ed):
            events.append(("jacobian", kappa))
            return jacobian_of(kappa, beta_dd, beta_ed)
        monkeypatch.setattr(estimation, "kappa_fit_model", counted_prepare)
        monkeypatch.setattr(dynamics, "_kappa", counted_kappa)
        monkeypatch.setattr(dynamics, "_kappa_jacobian_of", counted_jacobian)
        rejected = 0
        for seed in range(50):
            data = sweeps.synthesize_measurements(
                scen, "kappa_points", noise=[0.005, 0.03, 0.1][seed % 3],
                seed=seed)
            events.clear()
            res = fit_kappa(data)
            assert events[0] == ("prepare", None)
            steps = events[1:]
            passes = [held for e, held in steps if e == "kappa"]
            assert [e for e, _ in steps].count("prepare") == 0
            assert len(passes) == res.iterations + 1
            # every pass reads the same 4 x and sqrt(x)
            assert all(four_x is passes[0][1] and root_x is passes[0][2]
                       for _, four_x, root_x in passes)
            w = 1.0 / data.sigma_y
            best = math.inf
            for i, (kind, held) in enumerate(steps):
                if kind != "kappa":
                    continue
                r = (data.y - held[0]) * w
                cost = float(r @ r)
                follows = i + 1 < len(steps) and steps[i + 1][0] == "jacobian"
                assert follows == (cost <= best), (seed, i)
                if follows:
                    assert steps[i + 1][1] is held[0]
                    best = cost
                else:
                    rejected += 1
        assert rejected > 0


class TestFitDecay:
    def test_pure_exponential(self):
        t = np.linspace(0, 100, 30)
        n = 2e8 * np.exp(-0.05 * t)
        res = fit_decay(DataSet(t, n, np.abs(n) * 1e-3), v=1e-8)
        assert res["gamma"] == pytest.approx(0.05, rel=1e-4, abs=0)
        # two-body channel consistent with zero
        assert res["beta_dd"] * 2e8 / 1e-8 < 1e-3 * res["gamma"]

    def test_paper_value_recovery(self):
        gamma, beta, n0, v = 0.02, 3.8e-17, 2e8, 1e-8
        t = np.geomspace(0.05, 150, 30)
        t[0] = 0.0
        y = dynamics.decay(n0, gamma, beta, v, t)
        rng = np.random.default_rng(9)
        y = y * (1 + 0.05 * rng.standard_normal(y.shape))
        res = fit_decay(DataSet(t, y, np.abs(y) * 0.05), v=v)
        assert abs(res["gamma"] - gamma) < 0.2 * gamma
        assert abs(res["beta_dd"] - beta) < 0.2 * beta

    def test_gamma_invariant_under_volume_change(self):
        gamma, beta, n0 = 0.02, 3.8e-17, 2e8
        t = np.geomspace(0.05, 150, 30)
        t[0] = 0.0
        fits = []
        for v in (1e-8, 2e-8):
            y = dynamics.decay(n0, gamma, beta, v, t)
            fits.append(fit_decay(DataSet(t, y, np.abs(y) * 1e-3), v=v))
        assert fits[0]["gamma"] == pytest.approx(fits[1]["gamma"],
                                                 rel=1e-3, abs=0)

    def test_linear_start_near_truth_on_noiseless_data(self, monkeypatch):
        # on the default 30-sample grid, trapezoid integrals over the widest
        # late intervals (gamma dt up to 0.7) would overestimate int N dt
        # and start gamma 6 % low; exponential segments start it 1 % low
        scen = make_scenario(gamma_d=0.02)
        data = sweeps.synthesize_measurements(scen, "decay_curve")
        start, res = start_of(monkeypatch, fit_decay, data, scen.v_mt)
        assert start == pytest.approx([0.02, 1.3e-17], rel=0.015, abs=0)
        assert res.converged
        assert res.values == pytest.approx([0.02, 1.3e-17], rel=1e-6, abs=0)

    def test_start_falls_back_when_two_body_not_positive(self, monkeypatch):
        # no two-body loss in the data: beta_dd starts where it would
        # remove 1e-6 of the atoms over the record, not on its floor
        t = np.linspace(0, 100, 30)
        n = 2e8 * np.exp(-0.05 * t)
        start, res = start_of(monkeypatch, fit_decay,
                              DataSet(t, n, n * 1e-3), v=1e-8)
        assert start[0] == pytest.approx(0.05, rel=0.01, abs=0)
        assert start[1] == pytest.approx(1e-6 / 100 * 1e-8 / (2 * 2e8),
                                         rel=1e-6, abs=0)
        assert res["gamma"] == pytest.approx(0.05, rel=1e-4, abs=0)

    @pytest.mark.parametrize("noise", [0.03, 0.1])
    def test_linear_start_iterations(self, noise):
        # Started from the two earliest samples, beta_dd began on its
        # 1e-22 m^3/s floor in 21 % and 50 % of these curves; those fits
        # took 21 iterations (36 at most) and ended at gamma = 0 with a
        # residual norm of 180, every t > 0 sample predicted near zero.
        scen = make_scenario(gamma_d=0.02)
        iterations = []
        for seed in range(100):
            data = sweeps.synthesize_measurements(scen, "decay_curve",
                                                  noise=noise, seed=seed)
            res = fit_decay(data, scen.v_mt)
            assert res.converged, seed
            assert res.residual_norm < 30, seed
            iterations.append(res.iterations)
        assert max(iterations) <= 12
        assert np.mean(iterations) <= 6

    def test_jacobian_calls_per_fit(self, monkeypatch):
        """Jacobian evaluations per fit over 100 fit_batch-like curves.

        The exponential-segment start cuts the solver's steps: with
        trapezoid integrals these fits took 5.33 Jacobians on average.
        """
        scen = fit_batch_scenario()
        calls = []
        real = estimation.decay_fit_model

        def counted(*args):
            model = real(*args)

            def wrapped(x, p):
                n, jacobian = model(x, p)

                def counted_jacobian():
                    calls.append(p)
                    return jacobian()
                return n, counted_jacobian
            return wrapped
        monkeypatch.setattr(estimation, "decay_fit_model", counted)
        for seed, noise in enumerate(np.linspace(0.005, 0.03, 100)):
            res = fit_decay(sweeps.synthesize_measurements(
                scen, "decay_curve", noise=float(noise), seed=seed),
                scen.v_mt)
            assert res.converged, seed
        assert len(calls) / 100 <= 5.0

    def test_invalid_volume(self):
        t = np.linspace(0, 10, 5)
        with pytest.raises(ValueError):
            fit_decay(dataset(t, np.exp(-t)), v=0.0)

    @pytest.mark.parametrize("grid", ["linear", "geometric"])
    def test_first_sample_after_t_zero(self, grid):
        # n0 is N at the earliest sample time: a curve sampled from 2 s
        # used to fit gamma 6-16 % high and beta_dd 13-24 % low
        n0, gamma, beta, v = 2e8, 0.02, 3.8e-17, 1e-8
        t = (np.linspace(2.0, 150.0, 40) if grid == "linear"
             else np.geomspace(2.0, 150.0, 40))
        y = dynamics.decay(n0, gamma, beta, v, t)
        res = fit_decay(DataSet(t, y, y * 1e-3), v=v)
        assert res.converged
        assert res["gamma"] == pytest.approx(gamma, rel=1e-6, abs=0)
        assert res["beta_dd"] == pytest.approx(beta, rel=1e-6, abs=0)

    def test_sorted_input_is_fitted_as_given(self, monkeypatch):
        scen = make_scenario(gamma_d=0.02)
        data = sweeps.synthesize_measurements(scen, "decay_curve",
                                              noise=0.03, seed=4)
        seen = []
        real = estimation.least_squares

        def spy(model, d, *a, **kw):
            seen.append(d)
            return real(model, d, *a, **kw)
        monkeypatch.setattr(estimation, "least_squares", spy)
        res = fit_decay(data, scen.v_mt)
        order = np.random.default_rng(1).permutation(len(data))
        shuffled = fit_decay(DataSet(data.x[order], data.y[order],
                                     data.sigma_y[order]), scen.v_mt)
        assert seen[0] is data and seen[1] is not data
        assert np.array_equal(seen[1].x, data.x)
        assert shuffled.values.tolist() == res.values.tolist()

    def test_rate_arithmetic_once_per_evaluation(self, monkeypatch):
        # every candidate runs the rate-equation arithmetic once; the
        # Jacobian of an accepted one reuses it, and a rejected one
        # builds none; the arguments are checked once per fit
        scen = make_scenario(gamma_d=0.02)
        events = []
        terms = dynamics._riccati_terms
        jacobian_of = dynamics._decay_jacobian_of
        times = dynamics._decay_times

        def counted_terms(*args):
            out = terms(*args)
            events.append(("terms", out[0]))
            return out

        def counted_jacobian(n0, v, t, n, held):
            events.append(("jacobian", n))
            return jacobian_of(n0, v, t, n, held)

        def counted_times(*args):
            events.append(("times", None))
            return times(*args)
        monkeypatch.setattr(dynamics, "_riccati_terms", counted_terms)
        monkeypatch.setattr(dynamics, "_decay_jacobian_of", counted_jacobian)
        monkeypatch.setattr(dynamics, "_decay_times", counted_times)
        rejected = 0
        for seed in range(50):
            data = sweeps.synthesize_measurements(
                scen, "decay_curve", noise=[0.005, 0.03, 0.1][seed % 3],
                seed=seed)
            events.clear()
            res = fit_decay(data, scen.v_mt)
            assert [e for e, _ in events].count("times") == 1
            passes = [n for e, n in events if e == "terms"]
            assert len(passes) == res.iterations + 1
            # a Jacobian follows exactly the passes the solver accepts, and
            # takes that pass's values
            w = 1.0 / data.sigma_y
            best = math.inf
            steps = [e for e in events if e[0] != "times"]
            for i, (kind, n) in enumerate(steps):
                if kind != "terms":
                    continue
                r = (data.y - n) * w
                cost = float(r @ r)
                follows = i + 1 < len(steps) and steps[i + 1][0] == "jacobian"
                assert follows == (cost <= best), (seed, i)
                if follows:
                    assert steps[i + 1][1] is n
                    best = cost
                else:
                    rejected += 1
        assert rejected > 0

    @pytest.mark.parametrize("noise", [0.03, 0.1])
    def test_synthetic_ensemble_recovery(self, noise):
        # Noise that puts the second sample above the first starts beta_dd
        # at 1e-22 m^3/s; the first step then reaches the bound
        # log beta_dd = 0, where every t > 0 sample of the model is ~1e-9.
        # A central-difference Jacobian is exactly zero there, so the fit
        # used to stop at once with zero sigmas (21 % and 50 % of seeds).
        scen = make_scenario(gamma_d=0.02)
        for seed in range(100):
            data = sweeps.synthesize_measurements(scen, "decay_curve",
                                                  noise=noise, seed=seed)
            res = fit_decay(data, scen.v_mt)
            assert res.converged, seed
            for name, truth in (("gamma", 0.02), ("beta_dd", 1.3e-17)):
                assert res.sigma(name) > 0, (seed, name)
                assert abs(res[name] - truth) <= 10 * res.sigma(name), (
                    seed, name)


class TestFitTof:
    def test_exact_recovery(self):
        t = np.linspace(1e-3, 8e-3, 8)
        sigma = np.array([cloud.tof_radius(2e-4, 100e-6, CR, ti) for ti in t])
        res = fit_tof(DataSet(t, sigma, np.full(t.size, 1e-7)), CR)
        assert res["sigma0"] == pytest.approx(2e-4, rel=1e-9, abs=0)
        assert res["temperature"] == pytest.approx(100e-6, rel=1e-9, abs=0)
        assert res.message == ""

    def test_two_point_interpolation(self):
        t = np.array([1e-3, 8e-3])
        sigma = np.array([cloud.tof_radius(2e-4, 100e-6, CR, ti) for ti in t])
        res = fit_tof(DataSet(t, sigma, np.full(2, 1e-7)), CR)
        assert res["temperature"] == pytest.approx(100e-6, rel=1e-9, abs=0)

    def test_noisy_temperature_within_ten_percent(self):
        t = np.linspace(1e-3, 8e-3, 8)
        sigma = np.array([cloud.tof_radius(2e-4, 140e-6, CR, ti) for ti in t])
        rng = np.random.default_rng(21)
        noisy = sigma * (1 + 0.03 * rng.standard_normal(sigma.shape))
        res = fit_tof(DataSet(t, noisy, sigma * 0.03), CR)
        assert res["temperature"] == pytest.approx(140e-6, rel=0.10, abs=0)

    def test_degenerate_flagged(self):
        # shrinking "expansion" forces a negative intercept
        t = np.array([1e-3, 4e-3, 8e-3])
        sigma = np.array([3e-4, 2.9e-4, 4.0e-4])
        res = fit_tof(DataSet(t, sigma, np.full(3, 1e-6)), CR)
        if res.message:
            assert "degenerate" in res.message

    def test_shrinking_radii_are_refused(self):
        # a t^2 slope < 0 was returned as a negative temperature
        t = np.array([1e-3, 2e-3, 3e-3])
        with pytest.raises(ValueError, match="temperature is negative"):
            fit_tof(DataSet(t, np.array([3e-4, 2e-4, 1e-4]),
                            np.full(3, 1e-6)), CR)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_tof(DataSet(np.array([1e-3]), np.array([2e-4]),
                            np.array([1e-6])), CR)


def profile_model(monkeypatch, y, z, image):
    """The model fit_column_profile hands least_squares, and the fit."""
    models = []
    real = estimation.least_squares

    def spy(model, *args, **kwargs):
        models.append(model)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(estimation, "least_squares", spy)
    res = fit_column_profile(y, z, image, CR, CFG)
    assert len(models) == 1
    return models[0], res


class TestFitColumnProfile:
    def test_jacobian_matches_central_differences(self, monkeypatch):
        # the 41 x 31 image of a command-line profile fit; at random
        # (n0, T, y0, z0), every other draw with y0 on a pixel row, where
        # y' = 0 and u K1 has its removable singularity, the analytic
        # Jacobian matches central differences column by column; the
        # differences' own rounding, 1e-16 xi1 / h, is about 1e-8 in the
        # y0 column when y0 = 0 and the step h is 1e-12 m
        cl = cloud.make_thermal_cloud(CR, CFG, n=1e8, t=120e-6)
        y = np.linspace(-6, 6, 41) * cl.xi1
        z = np.linspace(-3, 3, 31) * cl.sigma_z
        image = cloud.column_density(cl, (y - 0.05 * cl.xi1)[:, None],
                                     z[None, :])
        rng = np.random.default_rng(7)
        image = image * (1 + 0.015 * rng.standard_normal(image.shape))
        model, res = profile_model(monkeypatch, y, z, image)
        assert res.converged
        assert res["temperature"] == pytest.approx(120e-6, rel=0.03, abs=0)
        for draw in range(40):
            t_k = 120e-6 * rng.uniform(0.5, 2.0)
            xi1, _, sigma_z = cloud.scale_lengths(CR, CFG, t_k)
            y0 = (float(y[rng.integers(y.size)]) if draw % 2 else
                  xi1 * rng.uniform(-1.0, 1.0))
            p = [cl.peak_density * rng.uniform(0.5, 2.0), t_k, y0,
                 sigma_z * rng.uniform(-1.0, 1.0)]
            f, jac = model(None, p)
            ref = numeric_jacobian_reference(
                lambda v: model(None, v.tolist())[0], np.array(p))
            err = np.abs(jac() - ref).max(axis=0) / np.abs(ref).max(axis=0)
            assert np.all(err <= 1e-7), (draw, err)

    @staticmethod
    def forward(temperature=100e-6, scale=1.0, y_shift=0.0):
        cl = cloud.make_thermal_cloud(CR, CFG, n=1e8, t=temperature)
        y = np.linspace(-8e-4, 8e-4, 25)
        z = np.linspace(-5e-3, 5e-3, 21)
        yy, zz = np.meshgrid(y, z, indexing="ij")
        image = scale * cloud.column_density(cl, yy - y_shift, zz)
        return y, z, image, cl

    def test_noiseless_recovery(self):
        # the fit starts at 100 uK
        y, z, image, cl = self.forward(temperature=140e-6)
        res = fit_column_profile(y, z, image, CR, CFG)
        assert res.converged
        assert res["temperature"] == pytest.approx(140e-6, rel=1e-4, abs=0)
        assert res["n0"] == pytest.approx(cl.peak_density, rel=1e-3, abs=0)

    def test_homogeneity_in_amplitude(self):
        y, z, image, cl = self.forward(scale=3.0)
        res = fit_column_profile(y, z, image, CR, CFG)
        assert res["n0"] == pytest.approx(3 * cl.peak_density, rel=1e-3, abs=0)
        assert res["temperature"] == pytest.approx(100e-6, rel=1e-3, abs=0)

    def test_center_shift(self):
        y, z, image, _ = self.forward(y_shift=0.3e-3)
        res = fit_column_profile(y, z, image, CR, CFG)
        assert res["center_y"] == pytest.approx(0.3e-3, rel=1e-3, abs=0)
        assert res["temperature"] == pytest.approx(100e-6, rel=1e-3, abs=0)

    def test_centre_off_the_image_raises(self):
        # an image of the tail alone does not hold the centre, which trades
        # off against n0 along the exponential fall
        y, z, image, _ = self.forward(y_shift=1.5e-3)
        with pytest.raises(ValueError, match="lies outside the image"):
            fit_column_profile(y, z, image, CR, CFG)

    @pytest.mark.parametrize("scale", [7e290, 1.2e291, 1e294])
    def test_peak_out_of_float_range_raises(self, scale):
        # at the fit's 100 uK start, xi1 = 0.1985 mm, the Jacobian's
        # temperature column, about f / T, overflows from a peak of about
        # 2e304 on (here 2.8e304: it warned, and LAPACK failed on it), the
        # model's amplitude 2 n0 xi1 from 3.6e304 (here 4.9e304), and
        # n0 = peak / (2 xi1) itself from 7.1e304 (here 4.1e307): the
        # model formed inf * 0, warned, and the solver reported it as "not
        # evaluable"
        y, z, image, _ = self.forward(scale=scale)
        with pytest.raises(ValueError, match=r"^the image's peak "
                           r"\(\S+e\+30\d\) is out of float range for "
                           r"the profile fit$"):
            fit_column_profile(y, z, image, CR, CFG)

    def test_shape_validation(self):
        y, z, image, _ = self.forward()
        with pytest.raises(ValueError):
            fit_column_profile(y, z, image.T, CR, CFG)


def scipy_oracle(model, data, x0, bounds):
    """scipy.optimize.least_squares on the weighted residuals of model(q),
    with a three-point finite-difference Jacobian and tolerances at 1e-15."""
    from scipy.optimize import least_squares as scipy_least_squares

    sol = scipy_least_squares(lambda q: (data.y - model(q)) / data.sigma_y,
                              x0, jac="3-point", bounds=bounds, method="trf",
                              x_scale="jac", xtol=1e-15, ftol=1e-15,
                              gtol=1e-15, max_nfev=2000)
    assert sol.success
    return sol


@pytest.mark.parametrize("kind", ["kappa_points", "decay_curve"])
def test_fits_match_scipy_oracle(kind):
    # the same log-parameter residuals, fitted by scipy from the truth:
    # values and sigmas agree to 1e-5 sigma on 50 curves at 3 % noise
    scen = make_scenario(gamma_d=0.02)
    v = scen.v_mt
    for seed in range(50):
        data = sweeps.synthesize_measurements(scen, kind, noise=0.03,
                                              seed=seed)
        if kind == "kappa_points":
            ours = fit_kappa(data)
            log = np.array([True, True])
            truth = np.log([1.3e-17, 6e-16])
            bounds = (-np.inf, np.inf)

            def model(q):
                return dynamics.kappa_of_abscissa(data.x, math.exp(q[0]),
                                                  math.exp(q[1]))
        else:
            ours = fit_decay(data, v)
            log = np.array([False, True])
            truth = np.array([0.02, math.log(1.3e-17)])
            bounds = ([0.0, -200.0], [np.inf, 0.0])
            n0 = float(data.y[0])

            def model(q):
                return dynamics.decay(n0, q[0], math.exp(q[1]), v, data.x)
        sol = scipy_oracle(model, data, truth, bounds)
        values = np.where(log, np.exp(sol.x), sol.x)
        # d residual / d p = (d residual / d log p) / p
        jac = sol.jac / np.where(log, values, 1.0)
        sigma = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
        ours_sigma = np.array([ours.sigma(name) for name in ours.names])
        assert np.all(np.abs(ours.values - values) <= 1e-5 * sigma), seed
        assert np.all(np.abs(ours_sigma - sigma) <= 1e-5 * sigma), seed
