import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cliptrap import dynamics
from cliptrap.dynamics import (ModelInputError, RateCoefficients,
                               accumulation_efficiency, decay, decay_fit_model,
                               effective_loading_time, evolve,
                               gamma_ed_loss, kappa_jacobian,
                               kappa_of_abscissa, loading_rate,
                               mt_temperature_prediction, steady_state)
from conftest import make_scenario, root_bracket

GAMMA_ED_CR = 126.17  # 52Cr leak rate to the metastable state, 1/s


def log_uniform(low_exp: float, high_exp: float):
    """A log-uniform value between 10**low_exp and 10**high_exp."""
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


def maybe_zero(low_exp: float, high_exp: float):
    """0, or a log-uniform value between 10**low_exp and 10**high_exp."""
    return st.one_of(st.just(0.0), log_uniform(low_exp, high_exp))


def riccati_oracle(r, gamma, beta, v, n0, times) -> list:
    """N(t) of dN/dt = R - gamma N - (2 beta / V) N^2 in 50-digit arithmetic.

    The float inputs are taken as exact.  N = N+ + u0 e^{-D t} / q with
    q = 1 + k u0 (1 - e^{-D t}) / D (1 + k u0 t at D = 0), or n0 + R t
    without any loss channel.
    """
    with mpmath.workdps(50):
        r, gamma, beta, v, n0 = map(mpmath.mpf, (r, gamma, beta, v, n0))
        times = [mpmath.mpf(float(t)) for t in times]
        k = 2 * beta / v
        if gamma == 0 and k == 0:
            return [n0 + r * t for t in times]
        d = mpmath.sqrt(gamma ** 2 + 4 * k * r)
        n_plus = 2 * r / (gamma + d) if r else mpmath.mpf(0)
        u0 = n0 - n_plus
        out = []
        for t in times:
            e = mpmath.exp(-d * t)
            q = 1 + k * u0 * ((1 - e) / d if d else t)
            out.append(n_plus + u0 * e / q)
        return out


def decay_jacobian(n0, gamma, beta, v, t):
    """decay's derivatives by (gamma, beta), from decay_fit_model."""
    return decay_fit_model(n0, v, t)(None, [gamma, beta])[1]()


def central(f, p: float, h: float) -> float:
    """Central difference of the scalar function f at p with step h."""
    return (f(p + h) - f(p - h)) / (2 * h)


def central_log(f, p: float, h: float) -> float:
    """Central difference of f in log p at p > 0: p df/dp."""
    return (f(p * math.exp(h)) - f(p * math.exp(-h))) / (2 * h)


class TestCoefficients:
    def test_eta_range(self):
        RateCoefficients(eta=0.0)
        RateCoefficients(eta=1.0)
        with pytest.raises(ValueError):
            RateCoefficients(eta=1.1)
        with pytest.raises(ValueError):
            RateCoefficients(eta=-0.1)

    def test_negative_losses_rejected(self):
        with pytest.raises(ValueError):
            RateCoefficients(beta_dd=-1e-18)
        with pytest.raises(ValueError):
            RateCoefficients(gamma_d=-0.1)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            make_scenario(v_mt=0.0)
        with pytest.raises(ValueError):
            make_scenario(t_mt=-1e-6)


class TestLoadingRate:
    def test_paper_anchor(self):
        # eta 0.3, saturated 5e6-atom source, leak rate 126.17 1/s
        r = loading_rate(make_scenario())
        assert r == pytest.approx(0.3 * 2.5e6 * 126.17, rel=1e-3)
        assert abs(r - 9.5e7) / 9.5e7 < 0.15

    def test_no_transfer(self):
        assert loading_rate(make_scenario(eta=0.0)) == 0.0

    def test_linear_in_mot_number(self):
        assert loading_rate(make_scenario(n_mot=1e7)) == pytest.approx(
            2 * loading_rate(make_scenario(n_mot=5e6)), rel=1e-14)


class TestGammaEd:
    def test_hand_value(self):
        assert gamma_ed_loss(2.5e6, 6e-16, 1e-8) == pytest.approx(0.15)

    def test_zero_coefficient(self):
        assert gamma_ed_loss(2.5e6, 0.0, 1e-8) == 0.0

    def test_inverse_in_volume(self):
        assert gamma_ed_loss(2.5e6, 6e-16, 5e-9) == pytest.approx(
            2 * gamma_ed_loss(2.5e6, 6e-16, 1e-8))

    def test_invalid_volume(self):
        with pytest.raises(ValueError):
            gamma_ed_loss(2.5e6, 6e-16, 0.0)


class TestEvolve:
    def test_pure_exponential(self):
        scen = make_scenario(eta=0.0, beta_ed=0.0, beta_dd=0.0, gamma_d=0.5)
        t, n = evolve(scen, 1e8, 5.0, samples=50)
        assert np.allclose(n, 1e8 * np.exp(-0.5 * t), rtol=1e-6)

    def test_initial_slope_is_loading_rate(self):
        scen = make_scenario()
        t, n = evolve(scen, 0.0, 0.01, samples=400)
        slope = (n[1] - n[0]) / (t[1] - t[0])
        assert slope == pytest.approx(loading_rate(scen), rel=1e-3)

    def test_approaches_steady_state(self):
        scen = make_scenario()
        n_inf = steady_state(scen)
        tau = effective_loading_time(n_inf, loading_rate(scen))
        _, n = evolve(scen, 0.0, 10 * tau, samples=100)
        assert n[-1] == pytest.approx(n_inf, rel=1e-3)

    def test_monotone_and_bounded_from_empty(self):
        scen = make_scenario()
        _, n = evolve(scen, 0.0, 5.0, samples=100)
        assert np.all(np.diff(n) >= -1e-6 * n[-1])
        assert np.all(n <= steady_state(scen) * (1 + 1e-9))

    def test_starts_exactly_at_n0(self):
        for n0 in (0.0, 3.3e7, 5e8):
            _, n = evolve(make_scenario(gamma_d=0.02), n0, 5.0, samples=3)
            assert n[0] == n0

    @pytest.mark.parametrize("overrides", [{"gamma_d": 1e300},
                                           {"v_mt": 1e-306}],
                             ids=["gamma_d", "v_mt"])
    def test_finite_where_d_overflows(self, overrides):
        # gamma^2 overflows (at V_MT = V_eff = 1e-306 m^3 through gamma_ed),
        # so D is formed as gamma + 2 k N+; and N(0) = n0 needs no D at all,
        # nor the n0 base, which is 0 * inf where D is inf
        for n0 in (0.0, 3.3e7):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, n = evolve(make_scenario(**overrides), n0, 10.0,
                              samples=5)
            assert n[0] == n0
            assert np.isfinite(n).all()

    @settings(max_examples=60, deadline=None)
    @given(r=maybe_zero(5, 9), gamma=maybe_zero(-3, 1),
           beta=maybe_zero(-19, -15), v=st.floats(-10, -7),
           n0_scale=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
           span=st.floats(0.01, 20.0))
    @example(r=1e8, gamma=0.1, beta=0.0, v=-8, n0_scale=0.0, span=5.0)
    @example(r=1e8, gamma=0.0, beta=1e-17, v=-8, n0_scale=0.5, span=5.0)
    @example(r=1e8, gamma=0.0, beta=0.0, v=-8, n0_scale=1.0, span=5.0)
    @example(r=0.0, gamma=0.05, beta=1e-17, v=-8, n0_scale=1.0, span=5.0)
    @example(r=0.0, gamma=0.0, beta=1e-17, v=-8, n0_scale=1.0, span=5.0)
    @example(r=1e8, gamma=0.2, beta=1e-17, v=-8, n0_scale=4.0, span=5.0)
    def test_closed_form_matches_ode(self, r, gamma, beta, v, n0_scale, span):
        # R, gamma, beta_dd and V set directly: R = eta N_MOT/2 Gamma_ed
        # for the saturated MOT, gamma = gamma_d with beta_ed = 0
        v = 10.0 ** v
        scen = make_scenario(eta=0.3 if r else 0.0, beta_ed=0.0,
                             beta_dd=beta, gamma_d=gamma, v_mt=v,
                             n_mot=(r or 1e8) / (0.3 * 0.5 * GAMMA_ED_CR))
        r = loading_rate(scen)
        k = 2 * beta / v
        # atom-number scale: the stable root, the atoms loaded in 1 s
        # without losses, or 1e8 without loading
        if r == 0:
            scale = 1e8
        elif gamma == 0 and k == 0:
            scale = r
        else:
            scale = 2 * r / (gamma + math.sqrt(gamma ** 2 + 4 * k * r))
        n0 = n0_scale * scale
        # the time span, in units of the slowest relaxation time
        rate = max(gamma + 2 * k * max(scale, n0), 1e-3)
        t_end = span / rate
        t, n = evolve(scen, n0, t_end, samples=25)
        sol = solve_ivp(lambda _t, y: [r - gamma * y[0] - k * y[0] ** 2],
                        (0.0, t_end), [n0], method="DOP853", t_eval=t,
                        rtol=1e-12, atol=1e-12 * scale)
        assert sol.success
        assert np.allclose(n, sol.y[0], rtol=1e-9, atol=1e-9 * scale)
        assert n[0] == n0

    def test_matches_fifty_digit_solution(self):
        # 400 scenarios, every fifth without loading, with n0 = 0 or
        # 0.01 to 1000 N+ and D t from 1e-8 to 30: N is accurate to
        # rounding from the first instant to the tail
        rng = np.random.default_rng(2)
        worst = 0.0
        for i in range(400):
            r = 0.0 if i % 5 == 0 else 10 ** rng.uniform(5, 9)
            gamma = 0.0 if i % 7 == 1 else 10 ** rng.uniform(-3, 1)
            beta = (0.0 if i % 11 == 2 and gamma > 0
                    else 10 ** rng.uniform(-19, -15))
            v = 10 ** rng.uniform(-10, -7)
            scen = make_scenario(eta=0.3 if r else 0.0, beta_ed=0.0,
                                 beta_dd=beta, gamma_d=gamma, v_mt=v,
                                 n_mot=(r or 1e8) / (0.3 * 0.5 * GAMMA_ED_CR))
            r = loading_rate(scen)
            scale = steady_state(scen) if r else 1e8
            n0 = 0.0 if i % 3 == 0 else scale * 10 ** rng.uniform(-2, 3)
            k = 2 * beta / v
            # D, or the two-body rate where D = 0
            rate = math.sqrt(gamma ** 2 + 4 * k * r) or k * n0 or 1.0
            t_end = 10 ** rng.uniform(math.log10(3e-8), math.log10(30)) / rate
            t, n = evolve(scen, n0, t_end, samples=4)
            exact = riccati_oracle(r, gamma, beta, v, n0, t)
            for got, want in zip(n, exact):
                if want == 0:
                    assert got == 0
                else:
                    worst = max(worst, float(abs(got - want) / want))
        assert worst < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(n0=maybe_zero(3, 11), gamma=maybe_zero(-4, 1),
           beta=maybe_zero(-20, -14), v=log_uniform(-10, -7),
           span=log_uniform(-8, 2.5))
    @example(n0=2e8, gamma=0.0, beta=3.8e-17, v=1e-8, span=5.0)
    @example(n0=2e8, gamma=0.02, beta=3.8e-17, v=1e-8, span=300.0)
    def test_without_loading_is_decay(self, n0, gamma, beta, v, span):
        # eta = 0: the same physics as decay(), through the same core
        scen = make_scenario(eta=0.0, beta_ed=0.0, beta_dd=beta,
                             gamma_d=gamma, v_mt=v)
        rate = max(gamma + 2 * beta / v * n0, 1e-3)
        t, n = evolve(scen, n0, span / rate, samples=25)
        ref = decay(n0, gamma, beta, v, t)
        assert np.all(np.abs(n - ref) <= 2e-15 * ref)

    @settings(max_examples=200, deadline=None)
    @given(r=log_uniform(5, 9), gamma=maybe_zero(-3, 1),
           beta=maybe_zero(-19, -15), v=log_uniform(-10, -7),
           n0_scale=st.one_of(st.just(0.0), log_uniform(-2, 3)),
           span=st.floats(40.0, 1000.0))
    def test_tail_is_steady_state(self, r, gamma, beta, v, n0_scale, span):
        if gamma == 0 and beta == 0:
            beta = 1e-17
        scen = make_scenario(beta_ed=0.0, beta_dd=beta, gamma_d=gamma,
                             v_mt=v, n_mot=r / (0.3 * 0.5 * GAMMA_ED_CR))
        r = loading_rate(scen)
        n_plus = steady_state(scen)
        n0 = n0_scale * n_plus
        d = math.sqrt(gamma ** 2 + 8 * beta / v * r)
        _, n = evolve(scen, n0, span / d, samples=3)
        assert abs(n[-1] - n_plus) <= 4 * math.ulp(max(n0, n_plus))

    def test_invalid_inputs(self):
        scen = make_scenario()
        with pytest.raises(ValueError):
            evolve(scen, -1.0, 1.0)
        with pytest.raises(ValueError):
            evolve(scen, math.nan, 1.0)
        with pytest.raises(ValueError):
            evolve(scen, 0.0, math.nan)
        with pytest.raises(ValueError):
            evolve(scen, 0.0, 0.0)
        with pytest.raises(ValueError):
            evolve(scen, 0.0, 1.0, samples=1)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_time_must_be_finite(self, t_end):
        # an infinite t_end used to give NaN atom numbers after three
        # RuntimeWarnings
        with pytest.raises(ValueError, match="t_end must be positive and "
                           "finite"):
            evolve(make_scenario(), 0.0, t_end)


class TestSteadyState:
    def test_two_body_only_limit(self):
        scen = make_scenario(beta_ed=0.0, gamma_d=0.0)
        r = loading_rate(scen)
        expected = math.sqrt(r * scen.v_mt / (2 * scen.coefficients.beta_dd))
        assert steady_state(scen) == pytest.approx(expected, rel=1e-12)

    def test_one_body_only_limit(self):
        scen = make_scenario(beta_dd=0.0, gamma_d=0.0)
        r = loading_rate(scen)
        gamma = gamma_ed_loss(scen.n_mot_excited, 6e-16, scen.v_eff)
        assert steady_state(scen) == pytest.approx(r / gamma, rel=1e-12)

    def test_no_loading(self):
        assert steady_state(make_scenario(eta=0.0)) == 0.0

    def test_lossless_loading_rejected(self):
        scen = make_scenario(beta_ed=0.0, beta_dd=0.0, gamma_d=0.0)
        with pytest.raises(ModelInputError) as exc:
            steady_state(scen)
        assert exc.value.inputs == ("gamma_d", "beta_ed", "beta_dd")

    def test_fixed_point_of_rate_equation(self):
        scen = make_scenario(gamma_d=0.02)
        n = steady_state(scen)
        r = loading_rate(scen)
        gamma = 0.02 + gamma_ed_loss(scen.n_mot_excited, 6e-16, scen.v_eff)
        residual = r - gamma * n - 2 * scen.coefficients.beta_dd * n * n / scen.v_mt
        assert abs(residual) < 1e-6 * r

    def test_series_branch_continuity(self):
        # cancellation-free rewrite of the closed form:
        # sqrt(a^2 + b) - a = b / (sqrt(a^2 + b) + a), exact algebra
        gamma, v = 1.0, 1e-8
        for ratio in np.geomspace(1e-10, 1e-6, 9):
            # 8 beta R V = ratio * (gamma V)^2, with R fixed
            r = 1e8
            beta = ratio * (gamma * v) ** 2 / (8 * r * v)
            gv = gamma * v
            b = 8 * beta * r * v
            full = b / (math.sqrt(gv * gv + b) + gv) / (4 * beta)
            series = r / gamma - 2 * beta * r * r / (v * gamma ** 3)
            assert series == pytest.approx(full, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(n_mot=log_uniform(5, 8), gamma_d=maybe_zero(-3, 1),
           beta_ed=log_uniform(-17, -14), v=log_uniform(-10, -7),
           side=st.floats(1e-9, 1e-6))
    def test_continuous_across_old_series_switch(self, n_mot, gamma_d,
                                                 beta_ed, v, side):
        # The closed form used to switch to its series below
        # 8 beta R V = 1e-8 (gamma V)^2, where it had cancelled to about
        # eps / 1e-8: the two sides differed by up to 3.5e-8.  Across
        # beta (1 -+ side) the true change is under 1e-14.
        base = make_scenario(gamma_d=gamma_d, beta_ed=beta_ed, n_mot=n_mot,
                             v_mt=v)
        r = loading_rate(base)
        gamma = gamma_d + gamma_ed_loss(base.n_mot_excited, beta_ed, v)
        beta_switch = 1e-8 * (gamma * v) ** 2 / (8 * r * v)
        lo, hi = (steady_state(make_scenario(
            gamma_d=gamma_d, beta_ed=beta_ed, n_mot=n_mot, v_mt=v,
            beta_dd=beta_switch * f)) for f in (1 - side, 1 + side))
        assert hi == pytest.approx(lo, rel=1e-14)

    def test_monotone_in_inputs(self):
        base = steady_state(make_scenario(gamma_d=0.02))
        assert steady_state(make_scenario(gamma_d=0.02, n_mot=6e6)) > base
        assert steady_state(make_scenario(gamma_d=0.02, v_mt=8e-9)) > base
        assert steady_state(make_scenario(gamma_d=0.02, beta_dd=3e-17)) < base
        assert steady_state(make_scenario(gamma_d=0.02, beta_ed=9e-16)) < base
        assert steady_state(make_scenario(gamma_d=0.1)) < base


class TestAccumulationEfficiency:
    def test_identity_with_steady_state(self):
        scen = make_scenario()
        kappa = accumulation_efficiency(scen)
        assert kappa * scen.mot.n_mot == pytest.approx(steady_state(scen),
                                                       rel=1e-10)

    def test_beta_ed_zero_limit(self):
        scen = make_scenario(beta_ed=0.0)
        r = loading_rate(scen)
        expected = math.sqrt(r * scen.v_mt
                             / (2 * scen.coefficients.beta_dd)) / scen.mot.n_mot
        assert accumulation_efficiency(scen) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_beta_dd_zero_series(self):
        x = 1e-14
        assert kappa_of_abscissa(x, 0.0, 6e-16) == pytest.approx(
            2 * x / 6e-16, rel=1e-12)

    def test_vectorized(self):
        x = np.geomspace(1e-15, 1e-13, 5)
        k = kappa_of_abscissa(x, 1.3e-17, 6e-16)
        assert k.shape == (5,)
        assert np.all(np.diff(k) > 0)

    def test_both_zero_rejected(self):
        with pytest.raises(ModelInputError) as exc:
            kappa_of_abscissa(1e-14, 0.0, 0.0)
        assert exc.value.inputs == ("beta_ed", "beta_dd")

    def test_beta_dd_zero_limit_over_float_range(self):
        # beta_ed^2 underflows to 0 below about 1e-154, where kappa formed
        # from it would be twice this limit, and overflows above about 1e154
        x = 1e-14
        for beta_ed in np.geomspace(1e-300, 1e300, 61):
            assert kappa_of_abscissa(x, 0.0, beta_ed) == 2 * x / beta_ed

    @settings(max_examples=500, deadline=None)
    @given(x=log_uniform(-300, 300), beta_dd=maybe_zero(-300, 300),
           beta_ed=maybe_zero(-300, 300))
    def test_within_bracket(self, x, beta_dd, beta_ed):
        # kappa = 4 x / (beta_ed + S), S between max and sum of beta_ed and
        # sqrt(32 beta_dd x), lies in [m / 2, m], m = min(2 x / beta_ed,
        # sqrt(x / (2 beta_dd))); checked wherever m is a normal float
        logs = [math.log(2 * x) - math.log(beta_ed)] if beta_ed else []
        if beta_dd:
            logs.append(0.5 * (math.log(x) - math.log(2 * beta_dd)))
        m = root_bracket(logs)
        if m is not None:
            assert 0.5 * m <= kappa_of_abscissa(x, beta_dd, beta_ed) <= m * (
                1 + 1e-12)

    def test_magnitude_at_optimum(self):
        # with the self-consistent closed form this lands in the twenties
        assert 15 < accumulation_efficiency(make_scenario()) < 40

    @settings(max_examples=200, deadline=None)
    @given(x=log_uniform(-16, -12), beta_ed=log_uniform(-17, -14),
           side=st.floats(1e-9, 1e-6))
    def test_continuous_across_old_series_switch(self, x, beta_ed, side):
        # the series used to take over below 32 beta_dd x = 1e-8 beta_ed^2,
        # where the closed form had cancelled to about eps / 1e-8
        beta_switch = 1e-8 * beta_ed ** 2 / (32 * x)
        lo, hi = (kappa_of_abscissa(x, beta_switch * f, beta_ed)
                  for f in (1 - side, 1 + side))
        assert hi == pytest.approx(lo, rel=1e-14)


class TestScenarioRates:
    def test_abscissa_needs_no_loss_channel(self):
        # x = R V / N_MOT^2 is defined before any beta is known: measured
        # kappa data are placed on the master curve with it
        scen = make_scenario(beta_ed=0.0, beta_dd=0.0, gamma_d=0.0)
        n_mot = scen.mot.n_mot
        expected = loading_rate(scen) * scen.v_mt / (n_mot * n_mot)
        assert scen.kappa_abscissa == expected == 2.0423432014443823e-14
        assert scen.loading_rate == loading_rate(scen)
        with pytest.raises(ValueError, match="no steady state"):
            scen.n_mt_steady
        with pytest.raises(ValueError, match="no steady state"):
            accumulation_efficiency(scen)

    def test_zero_n_mot(self):
        # R = N_inf = 0 and tau = inf, as steady_state and loading_rate
        # give them; kappa and the abscissa divide by N_MOT
        scen = make_scenario(n_mot=0.0)
        assert scen.loading_rate == 0.0 == loading_rate(scen)
        assert scen.n_mt_steady == 0.0 == steady_state(scen)
        assert scen.tau_eff == math.inf
        for read in (lambda: scen.kappa, lambda: scen.kappa_abscissa,
                     lambda: accumulation_efficiency(scen)):
            with pytest.raises(ValueError, match="n_mot must be > 0"):
                read()

    @pytest.mark.parametrize("n_mot", [1e-300, 1e300])
    def test_abscissa_out_of_range_names_n_mot(self, n_mot):
        # N_MOT^2 under- or overflows; R, N_inf and kappa are still formed
        scen = make_scenario(n_mot=n_mot)
        assert math.isfinite(scen.kappa)
        with pytest.raises(ModelInputError, match="N_MOT") as exc:
            scen.kappa_abscissa
        assert exc.value.inputs == ("n_mot",)

    @pytest.mark.parametrize("overrides", [{"beta_ed": 1e294},
                                           {"n_mot": 1.7e308}])
    def test_rates_out_of_range_named(self, overrides):
        # gamma_ed, or R, overflows to inf when the scenario is built
        with pytest.raises(ModelInputError) as exc:
            make_scenario(**overrides)
        assert exc.value.inputs == ("beta_ed", "n_mot")

    def test_rates_are_not_fields(self):
        # ==, repr and dataclasses.replace see the scenario's inputs only,
        # and a replaced scenario forms its own rates
        scen = make_scenario()
        scen.n_mt_steady
        assert scen == make_scenario()
        assert "loading_rate" not in repr(scen)
        more = replace(scen, coefficients=replace(scen.coefficients, eta=0.6))
        assert more.loading_rate == 2 * scen.loading_rate
        assert more.n_mt_steady > scen.n_mt_steady

    def test_each_quantity_formed_once(self, monkeypatch):
        calls = []
        original = dynamics.excited_fraction
        monkeypatch.setattr(dynamics, "excited_fraction",
                            lambda *a: calls.append(1) or original(*a))
        steady = []
        original_steady = dynamics._steady_state_raw
        monkeypatch.setattr(dynamics, "_steady_state_raw",
                            lambda *a: steady.append(1) or original_steady(*a))
        scen = make_scenario()
        assert (len(calls), steady) == (1, [])
        for _ in range(2):
            (scen.loading_rate, scen.gamma, scen.n_mt_steady, scen.kappa,
             scen.tau_eff, scen.kappa_abscissa)
        assert (len(calls), len(steady)) == (1, 1)


def assert_matches_differences(analytic: float, diff, steps) -> None:
    """analytic agrees with the central difference diff(h) at every step."""
    for h in steps:
        assert diff(h) == pytest.approx(analytic, rel=1e-5)


class TestKappaJacobian:
    @settings(max_examples=200, deadline=None)
    @given(x=log_uniform(-16, -12), beta_ed=log_uniform(-17, -14),
           ratio=log_uniform(-5, 10))
    def test_matches_central_differences(self, x, beta_ed, ratio):
        # ratio = 32 beta_dd x / beta_ed^2: beta_ed's end of the master
        # curve at 1e-5, beta_dd's at 1e10
        beta_dd = ratio * beta_ed ** 2 / (32 * x)
        j_dd, j_ed = kappa_jacobian(x, beta_dd, beta_ed)
        assert_matches_differences(
            beta_dd * j_dd, lambda h: central_log(
                lambda b: kappa_of_abscissa(x, b, beta_ed), beta_dd, h),
            (1e-3, 1e-4))
        assert_matches_differences(
            beta_ed * j_ed, lambda h: central_log(
                lambda b: kappa_of_abscissa(x, beta_dd, b), beta_ed, h),
            (1e-3, 1e-4))

    @settings(max_examples=200, deadline=None)
    @given(x=log_uniform(-16, -12), beta_ed=log_uniform(-17, -14),
           ratio=log_uniform(-9, -5))
    def test_matches_central_differences_near_beta_dd_zero(self, x, beta_ed,
                                                            ratio):
        # kappa moves with beta_dd only by about ratio / 4 relative here,
        # so steps of the order of beta_dd itself resolve the derivative;
        # kappa is nearly linear in beta_dd, which keeps them accurate
        beta_dd = ratio * beta_ed ** 2 / (32 * x)
        j_dd, j_ed = kappa_jacobian(x, beta_dd, beta_ed)
        assert_matches_differences(
            j_dd, lambda h: central(
                lambda b: kappa_of_abscissa(x, b, beta_ed), beta_dd, h),
            (beta_dd, beta_dd / 2))
        assert_matches_differences(
            beta_ed * j_ed, lambda h: central_log(
                lambda b: kappa_of_abscissa(x, beta_dd, b), beta_ed, h),
            (1e-3, 1e-4))

    def test_limits_at_zero_coefficients(self):
        x, beta_dd, beta_ed = 1e-14, 1.3e-17, 6e-16
        # beta_dd = 0: d kappa / d beta_dd = -16 x^2 / beta_ed^3
        j_dd, j_ed = kappa_jacobian(x, 0.0, beta_ed)
        assert j_dd == pytest.approx(-16 * x * x / beta_ed ** 3, rel=1e-14)
        assert j_ed == pytest.approx(-2 * x / beta_ed ** 2, rel=1e-14)
        # beta_ed = 0: d kappa / d beta_ed = -1 / (8 beta_dd)
        j_dd, j_ed = kappa_jacobian(x, beta_dd, 0.0)
        assert j_ed == pytest.approx(-1 / (8 * beta_dd), rel=1e-14)
        step = 1e-3 * math.sqrt(32 * beta_dd * x)
        assert_matches_differences(
            j_ed, lambda h: central(
                lambda b: kappa_of_abscissa(x, beta_dd, b), 0.0, h),
            (step, step / 10))

    def test_vectorized_shape(self):
        x = np.geomspace(1e-15, 1e-13, 5)
        jac = kappa_jacobian(x, 1.3e-17, 6e-16)
        assert jac.shape == (5, 2)
        assert np.array_equal(jac[2], kappa_jacobian(x[2], 1.3e-17, 6e-16))


class TestEffectiveLoadingTime:
    def test_paper_anchor(self):
        assert effective_loading_time(2e8, 1e8) == 2.0

    def test_zero_atoms(self):
        assert effective_loading_time(0.0, 1e8) == 0.0

    def test_linear(self):
        assert effective_loading_time(4e8, 1e8) == 2 * effective_loading_time(
            2e8, 1e8)

    def test_invalid_rate(self):
        # no loading never fills the trap; a negative or NaN rate is an error
        assert effective_loading_time(0.0, 0.0) == math.inf
        for r in (-1e8, math.nan):
            with pytest.raises(ValueError):
                effective_loading_time(1e8, r)


class TestDecay:
    def test_pure_one_body(self):
        t = np.linspace(0, 100, 11)
        assert np.allclose(decay(1e8, 0.05, 0.0, 1e-8, t),
                           1e8 * np.exp(-0.05 * t), rtol=1e-12)

    def test_two_body_half_life(self):
        n0, beta, v = 2e8, 3.8e-17, 1e-8
        t_half = v / (2 * beta * n0)
        assert decay(n0, 0.0, beta, v, t_half) == pytest.approx(n0 / 2,
                                                                rel=1e-12)

    def test_matches_ode_integration(self):
        n0, gamma, beta, v = 2e8, 0.02, 3.8e-17, 1e-8
        times = np.geomspace(0.01, 150.0, 20)
        sol = solve_ivp(lambda _t, n: [-gamma * n[0] - 2 * beta * n[0] ** 2 / v],
                        (0.0, times[-1]), [n0], method="DOP853",
                        t_eval=times, rtol=1e-12, atol=1e-6)
        assert sol.success
        assert np.allclose(decay(n0, gamma, beta, v, times), sol.y[0],
                           rtol=1e-8)

    @settings(max_examples=200, deadline=None)
    @given(n0=log_uniform(6, 10), gamma=log_uniform(-4, 0),
           beta=log_uniform(-19, -15), v=log_uniform(-9, -7))
    def test_continuous_across_old_two_body_switch(self, n0, gamma, beta, v):
        # The pure two-body limit used to take over below gamma t = 1e-8
        # and dropped the gamma term: N jumped by about 1e-8 relative.
        # Across the old switch N now moves as the rate equation says.
        t_lo, t_hi = 0.999e-8 / gamma, 1.001e-8 / gamma
        n_lo, n_hi = decay(n0, gamma, beta, v, np.array([t_lo, t_hi]))
        slope = -gamma * n_lo - 2 * beta * n_lo ** 2 / v
        assert n_hi - n_lo == pytest.approx(slope * (t_hi - t_lo), rel=1e-3,
                                            abs=1e-15 * n0)

    @settings(max_examples=200, deadline=None)
    @given(n0=log_uniform(6, 10), beta=log_uniform(-19, -15),
           v=log_uniform(-9, -7), t=log_uniform(-2, 2.5),
           gamma=log_uniform(-14, -8))
    def test_continuous_at_gamma_zero(self, n0, beta, v, t, gamma):
        # gamma -> 0 joins the two-body limit at gamma = 0 to first order;
        # the second-order remainder is of relative size (gamma t)^2
        n_zero = decay(n0, 0.0, beta, v, t)
        d_gamma = decay_jacobian(n0, 0.0, beta, v, t)[0]
        assert decay(n0, gamma, beta, v, t) == pytest.approx(
            n_zero + gamma * d_gamma, rel=1e-14 + (gamma * t) ** 2)

    def test_two_body_limit_only_at_gamma_t_zero(self):
        n0, beta, v = 2e8, 3.8e-17, 1e-8
        t = np.array([0.0, 1.0, 10.0])
        assert np.array_equal(decay(n0, 0.0, beta, v, t),
                              n0 / (1 + 2 * beta * n0 / v * t))
        assert decay(n0, 0.02, beta, v, 0.0) == n0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decay(-1.0, 0.02, 0.0, 1e-8, 1.0)
        with pytest.raises(ValueError):
            decay(1e8, 0.02, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            decay(1e8, 0.02, 0.0, 1e-8, -1.0)


# A time that is not finite, alone and among finite samples; each decay
# function rejects it, naming t, where it used to return NaN with warnings.
NON_FINITE_TIMES = [math.inf, math.nan, [0.0, 1.0, math.inf],
                    [0.0, math.nan, 2.0]]


@pytest.mark.parametrize("t", NON_FINITE_TIMES)
@pytest.mark.parametrize("function", [
    lambda t: decay(2e8, 0.02, 3.8e-17, 1e-8, t),
    lambda t: decay_fit_model(2e8, 1e-8, t)],
    ids=["decay", "decay_fit_model"])
def test_decay_times_must_be_finite(function, t):
    with pytest.raises(ValueError, match="t must be finite and >= 0"):
        function(t)


class TestDecayJacobian:
    @settings(max_examples=300, deadline=None)
    @given(n0=log_uniform(7, 9), gamma=maybe_zero(-4, 0),
           beta=log_uniform(-18, -15), v=log_uniform(-9, -8),
           t=st.one_of(st.just(0.0), st.floats(0.05, 200.0)))
    @example(n0=2e8, gamma=0.0, beta=3.8e-17, v=1e-8, t=10.0)
    @example(n0=2e8, gamma=0.02, beta=3.8e-17, v=1e-8, t=0.5)  # chi's switch
    def test_matches_central_differences(self, n0, gamma, beta, v, t):
        # both branches: gamma t == 0 (the two-body limit) and gamma t > 0;
        # at gamma = 0 the differences step into gamma < 0, where the
        # formula continues analytically
        j_gamma, j_beta = decay_jacobian(n0, gamma, beta, v, t)
        scale = 1.0 / max(t, 1.0)
        assert_matches_differences(
            j_gamma, lambda h: central(
                lambda g: decay(n0, g, beta, v, t), gamma, h),
            (1e-3 * scale, 1e-4 * scale))
        assert_matches_differences(
            beta * j_beta, lambda h: central_log(
                lambda b: decay(n0, gamma, b, v, t), beta, h),
            (1e-3, 1e-4))

    def test_gamma_zero_limit(self):
        n0, beta, v = 2e8, 3.8e-17, 1e-8
        t = np.array([0.0, 0.5, 20.0])
        bt = 2 * beta * n0 / v * t
        jac = decay_jacobian(n0, 0.0, beta, v, t)
        assert jac.shape == (3, 2)
        assert jac[:, 0] == pytest.approx(
            -n0 * t * (1 + bt / 2) / (1 + bt) ** 2, rel=1e-14)
        assert jac[:, 1] == pytest.approx(
            -n0 * t * (2 * n0 / v) / (1 + bt) ** 2, rel=1e-14)

    def test_validates_like_decay(self):
        with pytest.raises(ValueError):
            decay_jacobian(1e8, 0.02, 0.0, 1e-8, -1.0)
        with pytest.raises(ValueError):
            decay_jacobian(1e8, 0.02, 0.0, 0.0, 1.0)


class TestDecayFitModel:
    def test_matches_decay_and_its_jacobian(self):
        # bit for bit decay and a fresh model's Jacobian, on the samples
        # given once; each Jacobian is that of its own evaluation, whatever
        # ran since
        n0, v = 2e8, 1e-8
        t = np.geomspace(0.05, 150, 30)
        t[0] = 0.0
        model = decay_fit_model(n0, v, t)
        params = ((0.02, 3.8e-17), (0.0, 1e-16), (1e-5, 1e-22))
        evaluations = [(p, model(None, list(p))) for p in params]
        for (gamma, beta), (n, jacobian) in reversed(evaluations):
            assert np.array_equal(n, decay(n0, gamma, beta, v, t))
            assert np.array_equal(jacobian(),
                                  decay_jacobian(n0, gamma, beta, v, t))

    def test_validates_like_decay(self):
        with pytest.raises(ValueError):
            decay_fit_model(2e8, 1e-8, [0.0, -1.0])
        with pytest.raises(ValueError):
            decay_fit_model(2e8, 0.0, [0.0, 1.0])


class TestTemperaturePrediction:
    def test_thermalized(self):
        assert mt_temperature_prediction(140e-6) == 0.375 * 140e-6

    def test_per_axis(self):
        axial, radial = mt_temperature_prediction(140e-6, thermalized=False)
        assert axial == 70e-6
        assert radial == pytest.approx(140e-6 / 3, rel=1e-15)

    def test_ordering(self):
        assert 1 / 3 < 0.375 < 1 / 2

    def test_energy_bookkeeping(self):
        # (3/2 + 2 + 1/2) k T = (3/2) k T_MOT at T = (3/8) T_MOT
        assert (1.5 + 2.0 + 0.5) * 0.375 == 1.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            mt_temperature_prediction(0.0)
