import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from cliptrap.dynamics import (RateCoefficients, accumulation_efficiency,
                               decay, effective_loading_time, evolve,
                               gamma_ed_loss, kappa_of_abscissa, loading_rate,
                               mt_temperature_prediction, steady_state)
from conftest import make_scenario

GAMMA_ED_CR = 126.17  # 52Cr leak rate to the metastable state, 1/s


def maybe_zero(low_exp: float, high_exp: float):
    """0, or a log-uniform value between 10**low_exp and 10**high_exp."""
    return st.one_of(st.just(0.0),
                     st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e))


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
        with pytest.raises(ValueError):
            steady_state(scen)

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
        with pytest.raises(ValueError):
            kappa_of_abscissa(1e-14, 0.0, 0.0)

    def test_magnitude_at_optimum(self):
        # with the self-consistent closed form this lands in the twenties
        assert 15 < accumulation_efficiency(make_scenario()) < 40


class TestEffectiveLoadingTime:
    def test_paper_anchor(self):
        assert effective_loading_time(2e8, 1e8) == 2.0

    def test_zero_atoms(self):
        assert effective_loading_time(0.0, 1e8) == 0.0

    def test_linear(self):
        assert effective_loading_time(4e8, 1e8) == 2 * effective_loading_time(
            2e8, 1e8)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            effective_loading_time(1e8, 0.0)


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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decay(-1.0, 0.02, 0.0, 1e-8, 1.0)
        with pytest.raises(ValueError):
            decay(1e8, 0.02, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            decay(1e8, 0.02, 0.0, 1e-8, -1.0)


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
