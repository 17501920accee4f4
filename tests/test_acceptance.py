"""Acceptance checks, one test per criterion.

Each test name carries its criterion number; the conftest summary hook
prints one PASS/FAIL line per criterion after the run.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from cliptrap import cli, cloud, dynamics, estimation
from cliptrap.bessel import bessel_k1
from cliptrap.species import chromium_52
from cliptrap.trap import IpTrapConfig
from conftest import make_scenario

CR = chromium_52()
CFG = IpTrapConfig(0.125, 10.5)


def test_criterion_01_loading_rate_anchor():
    r = make_scenario().loading_rate
    assert abs(r - 9.5e7) / 9.5e7 < 0.15


def test_criterion_02_steady_state_anchor():
    for v in np.linspace(4e-9, 14e-9, 6):
        n = dynamics.steady_state(make_scenario(v_mt=float(v)))
        assert 2e8 / 3 <= n <= 2e8 * 3


def test_criterion_03_effective_loading_time():
    assert dynamics.effective_loading_time(2e8, 1e8) == 2.0


def test_criterion_04_volume_consistency():
    cl = cloud.make_thermal_cloud(CR, CFG, n=1.0, t=100e-6,
                                  include_gravity=False)
    closed = 16 * math.pi ** 1.5 * cl.xi1 ** 2 * cl.sigma_z
    v = cloud.occupied_volume(cl)
    assert v == pytest.approx(closed, rel=1e-6, abs=0)
    assert v == pytest.approx(5.4e-9, rel=0.02, abs=0)
    assert 3.9e-9 <= v <= 14e-9


def test_criterion_05_virial_temperature():
    t_mot = 140e-6
    assert dynamics.mt_temperature_prediction(t_mot) == 0.375 * t_mot
    axial, radial = dynamics.mt_temperature_prediction(t_mot,
                                                       thermalized=False)
    assert axial == t_mot / 2
    assert radial == t_mot / 3
    assert 0.35 <= 0.375 <= 0.71


def test_criterion_06_closed_form_vs_ode():
    rng = np.random.default_rng(42)
    for _ in range(50):
        r = 10 ** rng.uniform(6, 9)
        gamma_d = 10 ** rng.uniform(-3, 0)
        beta_dd = 10 ** rng.uniform(-18, -16)
        beta_ed = rng.choice([0.0, 10 ** rng.uniform(-17, -15)])
        v = 10 ** rng.uniform(-9, -8)
        n_mot = r / (0.3 * 0.5 * CR.gamma_ed)
        scen = make_scenario(beta_ed=beta_ed, beta_dd=beta_dd,
                             gamma_d=gamma_d, n_mot=n_mot, v_mt=v)
        n_inf = dynamics.steady_state(scen)
        r = scen.loading_rate
        tau = dynamics.effective_loading_time(n_inf, r)
        t, n = dynamics.evolve(scen, 0.0, 10 * tau, samples=20)
        assert n[-1] == pytest.approx(n_inf, rel=1e-3, abs=0)

        # loading curve against an independent tight ODE integration
        gamma = gamma_d + dynamics.gamma_ed_loss(scen.n_mot_excited,
                                                 beta_ed, v)
        sol = solve_ivp(lambda _t, y: [r - gamma * y[0]
                                       - 2 * beta_dd * y[0] ** 2 / v],
                        (0.0, t[-1]), [0.0], method="DOP853", t_eval=t,
                        rtol=1e-12, atol=1e-6)
        assert sol.success
        assert np.allclose(n, sol.y[0], rtol=1e-8)

    # decay closed form against an independent tight ODE integration
    n0, gamma, beta, v = 2e8, 0.02, 3.8e-17, 1e-8
    times = np.geomspace(0.01, 150.0, 20)
    sol = solve_ivp(lambda _t, n: [-gamma * n[0] - 2 * beta * n[0] ** 2 / v],
                    (0.0, times[-1]), [n0], method="DOP853", t_eval=times,
                    rtol=1e-12, atol=1e-6)
    assert sol.success
    assert np.allclose(dynamics.decay(n0, gamma, beta, v, times), sol.y[0],
                       rtol=1e-8)


def test_criterion_07_projection_oracle():
    cl = cloud.make_thermal_cloud(CR, CFG, n=1e8, t=100e-6)
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = rng.uniform(-3 * cl.xi1, 3 * cl.xi1)
        z = rng.uniform(-2 * cl.sigma_z, 2 * cl.sigma_z)
        lim = abs(y) + 40 * cl.xi1
        oracle, _ = quad(lambda x: cloud.mt_density(cl, x, y, z), -lim, lim,
                         epsabs=0.0, epsrel=1e-10, limit=200)
        assert cloud.column_density(cl, y, z) == pytest.approx(oracle,
                                                               rel=1e-6, abs=0)


def test_criterion_08_special_function():
    assert bessel_k1(1.0) == pytest.approx(0.6019072302, abs=5e-11)
    for x in np.geomspace(0.01, 30, 200):
        tmax = math.acosh(745.0 / x) + 1.0
        oracle, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                         0.0, tmax, epsabs=0.0, epsrel=1e-13, limit=300)
        assert bessel_k1(float(x)) == pytest.approx(oracle, rel=1e-10, abs=0)


def test_criterion_09_fit_recovery_ensemble():
    beta_dd, beta_ed = 1.3e-17, 6e-16
    x = np.geomspace(2e-15, 2e-13, 30)
    clean = dynamics.kappa_of_abscissa(x, beta_dd, beta_ed)
    err_dd, err_ed, corr = [], [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = clean * (1 + 0.1 * rng.standard_normal(clean.shape))
        data = estimation.DataSet(x, y, np.maximum(np.abs(y), 1e-6) * 0.1)
        res = estimation.fit_kappa(data)
        err_dd.append(abs(res["beta_dd"] - beta_dd) / beta_dd)
        err_ed.append(abs(res["beta_ed"] - beta_ed) / beta_ed)
        corr.append(abs(res.correlation[0, 1]))
    assert np.median(err_dd) <= 0.30
    assert np.median(err_ed) <= 0.30
    assert np.median(corr) > 0.5


def test_criterion_10_decay_fit():
    gamma, beta, n0, v = 0.02, 3.8e-17, 2e8, 1e-8
    t = np.geomspace(0.05, 150, 30)
    t[0] = 0.0
    rng = np.random.default_rng(11)
    y = dynamics.decay(n0, gamma, beta, v, t)
    y = y * (1 + 0.05 * rng.standard_normal(y.shape))
    res = estimation.fit_decay(estimation.DataSet(t, y, np.abs(y) * 0.05),
                               v=v)
    assert abs(res["gamma"] - gamma) <= 0.2 * gamma
    assert abs(res["beta_dd"] - beta) <= 0.2 * beta


def test_criterion_11_efficiency_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scen = make_scenario(
            beta_ed=10 ** rng.uniform(-17, -15),
            beta_dd=10 ** rng.uniform(-18, -16),
            n_mot=10 ** rng.uniform(6, 7.5),
            v_mt=10 ** rng.uniform(-9, -8))
        kappa = scen.kappa
        assert kappa * scen.mot.n_mot == pytest.approx(
            dynamics.steady_state(scen), rel=1e-10, abs=0)

    # series branch continuity across the switch window, via the
    # cancellation-free rewrite sqrt(a^2+b) - a = b / (sqrt(a^2+b) + a)
    beta_ed = 6e-16
    for ratio in np.geomspace(1e-10, 1e-6, 9):
        x = 1e-14
        beta_dd = ratio * beta_ed ** 2 / (32 * x)
        b = 32 * beta_dd * x
        full = b / (math.sqrt(beta_ed ** 2 + b) + beta_ed) / (8 * beta_dd)
        series = 2 * x / beta_ed - 16 * beta_dd * x * x / beta_ed ** 3
        assert series == pytest.approx(full, rel=1e-6, abs=0)


def test_criterion_12_cli_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["synth", "--paper-defaults", "--seed", "1",
                     "--out", str(a)]) == 0
    assert cli.main(["synth", "--paper-defaults", "--seed", "1",
                     "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    report = tmp_path / "report.txt"
    assert cli.main(["predict", "--paper-defaults",
                     "--out", str(report)]) == 0
    rep = {}
    for line in report.read_text().splitlines():
        key, value = line.split("=", 1)
        rep[key.strip()] = value.strip()
    r = float(rep["loading_rate_atoms_per_s"])
    assert abs(r - 9.5e7) / 9.5e7 < 0.15                      # criterion 1
    n_inf = float(rep["n_steady_atoms"])
    assert 2e8 / 3 <= n_inf <= 2e8 * 3                        # criterion 2
    assert 1.0 <= float(rep["tau_eff_s"]) <= 3.0              # criterion 3
    v_off = float(rep["v_mt_cm3_no_gravity"])
    assert v_off == pytest.approx(5.4e-3,
                                  rel=0.02, abs=0)           # criterion 4
    assert 3.9e-3 <= v_off <= 14e-3
