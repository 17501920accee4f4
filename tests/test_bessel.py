import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e as scipy_i0e
from scipy.special import i1e, k0, k0e, k1, k1e

from cliptrap import bessel
from cliptrap.bessel import (_k0_k1_exp_scaled, bessel_k1, exp_scaled_x_k0_k1,
                             i0e, scaled_x_k1)


def k1_integral_oracle(x: float) -> float:
    """Independent route: K1(x) = int_0^inf exp(-x cosh t) cosh t dt."""
    tmax = math.acosh(745.0 / x) + 1.0 if x < 745 else 1.0
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                  0.0, tmax, epsabs=0.0, epsrel=1e-13, limit=300)
    return val


def k0_integral_oracle(x: float) -> float:
    """Independent route: K0(x) = int_0^inf exp(-x cosh t) dt."""
    tmax = math.acosh(745.0 / x) + 1.0 if x < 745 else 1.0
    val, _ = quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, tmax,
                  epsabs=0.0, epsrel=1e-13, limit=300)
    return val


def test_k1_of_one_ten_digits():
    # frozen from the integral-representation oracle
    assert bessel_k1(1.0) == pytest.approx(0.6019072302, abs=5e-11)


def test_small_argument_limit():
    for x in (1e-6, 1e-4, 1e-3):
        assert x * bessel_k1(x) == pytest.approx(1.0, rel=1e-5, abs=0)


def test_k1_of_ten_vs_asymptotic_oracle():
    # sqrt(pi/2x) e^-x (1 + 3/8x - 15/128x^2 + 105/1024x^3)
    x = 10.0
    series = 1 + 3 / (8 * x) - 15 / (128 * x * x) + 105 / (1024 * x ** 3)
    oracle = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * series
    assert bessel_k1(x) == pytest.approx(1.8648e-5, rel=1e-4, abs=0)
    # truncation error of the 4-term series at x = 10 is about 1e-5
    assert bessel_k1(x) == pytest.approx(oracle, rel=5e-5, abs=0)


def test_against_integral_representation_on_log_grid():
    for x in np.geomspace(0.01, 30, 60):
        assert bessel_k1(float(x)) == pytest.approx(
            k1_integral_oracle(float(x)), rel=1e-9, abs=0)


def test_branch_crossover_continuity():
    # both branches stay accurate around the x = 2 switch
    for x in np.linspace(1.9, 2.1, 21):
        assert bessel_k1(float(x)) == pytest.approx(
            k1_integral_oracle(float(x)), rel=1e-12, abs=0)


def test_monotone_decreasing():
    grid = np.geomspace(1e-5, 500, 300)
    vals = [bessel_k1(float(x)) for x in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k1(0.0)
    with pytest.raises(ValueError):
        bessel_k1(-1.0)


def test_graceful_underflow():
    assert bessel_k1(800.0) == 0.0
    assert bessel_k1(700.0) > 0.0


def test_scaled_x_k1_limit_and_value():
    assert scaled_x_k1(0.0) == 1.0
    assert scaled_x_k1(1e-8) == pytest.approx(1.0, rel=1e-6, abs=0)
    assert scaled_x_k1(2.0) == pytest.approx(2.0 * bessel_k1(2.0),
                                             rel=1e-15, abs=0)
    # at and below 1/(largest float) 1/u overflows, and u K1 is its limit
    # 1; at u = inf it is 0.  Each warned or gave NaN before.
    assert list(scaled_x_k1(np.array([5e-324, 1e-310, 4e-309, math.inf]))) == [
        1.0, 1.0, 1.0, 0.0]
    assert scaled_x_k1(math.inf) == 0.0


# --- array evaluation ------------------------------------------------------

def chbevl(coefficients, t: float) -> float:
    """Cephes' chbevl in Python floats: sum' c_k T_k(t/2), highest degree
    first, by Clenshaw's recurrence."""
    b0, b1, b2 = coefficients[0], 0.0, 0.0
    for c in coefficients[1:]:
        b0, b1, b2 = t * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2)


def k1_loop_reference(x: float) -> float:
    """The array code's recurrence on one element, kept as the reference:
    the same tables and the same steps in Python floats, e^x K1 times e^-x."""
    if x <= 2.0:
        t = x * x - 2.0
        log_half = math.log(0.5 * x)
        k1 = (chbevl(bessel._K1_SMALL, t) / x
              + log_half * (x * chbevl(bessel._I1_X_SMALL, t))) * math.exp(x)
    else:
        k1 = chbevl(bessel._K1E_LARGE, 8.0 / x - 2.0) / math.sqrt(x)
    return k1 * math.exp(-x)


def ulps(a, b):
    """Elementwise distance between a and b in units of b's last place."""
    b = np.asarray(b, float)
    return np.abs(np.asarray(a, float) - b) / np.spacing(np.abs(b))


def test_array_matches_scalar_on_log_grid():
    grid = np.geomspace(1e-3, 745.0, 2000)
    scalar = np.array([bessel_k1(float(x)) for x in grid])
    assert ulps(bessel_k1(grid), scalar).max() <= 2
    assert ulps(scaled_x_k1(grid),
                [scaled_x_k1(float(u)) for u in grid]).max() <= 2


def test_array_matches_loop_reference():
    # same arithmetic in the same order; numpy's exp and log may differ
    # from math's by an ulp each, so allow 4 ulp in all
    grid = np.geomspace(1e-3, 700.0, 2000)
    loop = np.array([k1_loop_reference(float(x)) for x in grid])
    assert ulps(bessel_k1(grid), loop).max() <= 4


def test_array_continuity_at_branch_switch():
    below = np.nextafter(2.0, 0.0)
    above = np.nextafter(2.0, 3.0)
    k = bessel_k1(np.array([below, 2.0, above]))   # (0, 2], (0, 2], beyond
    # neighbouring arguments one ulp apart: the branches meet within a
    # few ulp, with no step of the size of either branch's error
    assert abs(k[1] - k[0]) / k[1] < 1e-14
    assert abs(k[2] - k[1]) / k[1] < 1e-14
    x = np.linspace(1.9, 2.1, 41)
    oracle = np.array([k1_integral_oracle(float(v)) for v in x])
    assert np.allclose(bessel_k1(x), oracle, rtol=1e-12, atol=0.0)


BELOW_TWO = float(np.nextafter(2.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(x=st.floats(1.9, 2.1), dx=st.floats(0.0, 1e-6))
@example(x=BELOW_TWO, dx=0.0)
@example(x=BELOW_TWO, dx=2 * (2.0 - BELOW_TWO))  # (0, 2], then beyond
@example(x=2.0, dx=1e-15)
def test_property_continuous_across_crossover(x, dx):
    # Either side of the x = 2 switch between the series in x^2 and 8/x,
    # K1 matches scipy's to 1e-14, and the step between two arguments is
    # the slope K1' = -(K0 + K1 / x) times their distance, to 1e-14 of K1
    # plus the curvature term (K1'' < 1 here): no jump at the switch.
    y = x + dx
    k = bessel_k1(np.array([x, y]))
    assert k[0] == bessel_k1(x) and k[1] == bessel_k1(y)
    assert np.allclose(k, k1([x, y]), rtol=1e-14, atol=0.0)
    slope = -(k0(x) + k[0] / x)
    assert abs((k[1] - k[0]) - slope * (y - x)) <= 1e-14 * k[0] + (y - x) ** 2


def test_scalar_in_float_out():
    for x in (1.0, np.float64(1.0), 1, np.array(1.0)):
        assert type(bessel_k1(x)) is float
        assert type(scaled_x_k1(x)) is float
    assert type(scaled_x_k1(0.0)) is float
    assert bessel_k1(np.array([1.0])).shape == (1,)
    assert bessel_k1(np.ones((2, 3))).shape == (2, 3)
    assert scaled_x_k1(np.zeros((0,))).shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_array_domain_error_on_any_element(bad):
    with pytest.raises(ValueError):
        bessel_k1(np.array([1.0, bad, 3.0]))
    with pytest.raises(ValueError):
        bessel_k1(bad)


@pytest.mark.parametrize("bad", [-1e-300, -1.0, math.nan])
def test_scaled_domain_error_on_any_element(bad):
    with pytest.raises(ValueError):
        scaled_x_k1(np.array([0.0, bad, 3.0]))
    with pytest.raises(ValueError):
        scaled_x_k1(bad)


def test_array_underflow_and_zero_limit():
    k = bessel_k1(np.array([700.0, 746.0, 800.0, math.inf]))
    assert k[0] > 0.0
    assert np.all(k[1:] == 0.0)
    u = scaled_x_k1(np.array([0.0, 1e-8, 2.0, 800.0]))
    assert u[0] == 1.0
    assert u[1] == pytest.approx(1.0, rel=1e-6, abs=0)
    assert u[2] == pytest.approx(2.0 * bessel_k1(2.0), rel=1e-15, abs=0)
    assert u[3] == 0.0


# --- K0, from the same pass ------------------------------------------------

def k0_of(x):
    x = np.asarray(x, float)
    return _k0_k1_exp_scaled(x)[0] * np.exp(-x)


def test_k0_against_integral_representation_across_switch():
    # a log grid from 0.01 to 30 and a fine one around the x = 2 switch
    grid = np.concatenate([np.geomspace(0.01, 30, 60),
                           np.linspace(1.9, 2.1, 21)])
    oracle = np.array([k0_integral_oracle(float(x)) for x in grid])
    assert np.allclose(k0_of(grid), oracle, rtol=1e-12, atol=0.0)


def test_k0_against_scipy_across_switch():
    grid = np.concatenate([np.geomspace(1e-10, 700, 20000),
                           np.linspace(1.5, 2.5, 10001)])
    assert np.allclose(k0_of(grid), k0(grid), rtol=1e-14, atol=0.0)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(1.9, 2.1), dx=st.floats(0.0, 1e-6))
@example(x=BELOW_TWO, dx=0.0)
@example(x=BELOW_TWO, dx=2 * (2.0 - BELOW_TWO))  # (0, 2], then beyond
@example(x=2.0, dx=1e-15)
def test_property_k0_continuous_across_crossover(x, dx):
    # as for K1: either side of the switch K0 matches scipy's to 1e-14,
    # and the step between two arguments is the slope K0' = -K1 times
    # their distance, to 1e-14 of K0 plus the curvature term (K0'' < 1)
    y = x + dx
    k = k0_of([x, y])
    assert np.allclose(k, k0([x, y]), rtol=1e-14, atol=0.0)
    assert abs((k[1] - k[0]) + k1(x) * (y - x)) <= 1e-14 * k[0] + (y - x) ** 2


def test_scaled_pair_limits_and_values():
    # (u K0(u), u K1(u)) as exp_scaled_x_k0_k1(u) times e^-u
    u = np.array([0.0, 1e-300, 1e-8, 0.5, 2.0, 30.0, 800.0])
    exp_uk0, exp_uk1 = exp_scaled_x_k0_k1(u)
    uk0, uk1 = exp_uk0 * np.exp(-u), exp_uk1 * np.exp(-u)
    assert uk0[0] == 0.0 and uk1[0] == 1.0
    assert uk0[-1] == 0.0 and uk1[-1] == 0.0
    assert np.allclose(uk0[1:-1], u[1:-1] * k0(u[1:-1]), rtol=1e-14, atol=0)
    # scaled_x_k1 forms u (e^u K1 e^-u), the pair times e^-u rounds as
    # (u e^u K1) e^-u: the same K1, an ulp apart at most
    assert np.array_equal(scaled_x_k1(u[1:]), u[1:] * bessel_k1(u[1:]))
    assert ulps(uk1, scaled_x_k1(u)).max() <= 1
    pair = exp_scaled_x_k0_k1(2.0)
    assert all(type(v) is float for v in pair)
    assert pair == (exp_uk0[4], exp_uk1[4])
    with pytest.raises(ValueError):
        exp_scaled_x_k0_k1(np.array([1.0, -1.0]))


def test_exp_scaled_pair_against_scipy():
    # every branch and the switches between them; e^u u K1(u) tends to
    # sqrt(pi u / 2), far from float range where K0 and K1 underflow
    # (u = 746) and on to the largest floats, so nothing is cut off
    u = np.concatenate([[1e-300, 1e-8], np.geomspace(0.01, 1.7e308, 800),
                        np.linspace(1.9, 2.1, 21), np.linspace(740, 750, 21),
                        [9.9e15, 1e16, 1.01e16, np.finfo(float).max]])
    uk0, uk1 = exp_scaled_x_k0_k1(u)
    assert np.allclose(uk0, u * k0e(u), rtol=1e-14, atol=0.0)
    assert np.allclose(uk1, u * k1e(u), rtol=1e-14, atol=0.0)
    assert exp_scaled_x_k0_k1(0.0) == (0.0, 1.0)
    assert exp_scaled_x_k0_k1(746.0) == pytest.approx(
        (746.0 * k0e(746.0), 746.0 * k1e(746.0)), rel=1e-14, abs=0.0)
    # at and below 1/(largest float), where 1/u overflows and scipy's k1e
    # is inf, e^u u K1 is 1 and e^u u K0 is u (ln 2 - gamma - ln u) to far
    # below an ulp; at u = inf both are inf.  Each warned or gave NaN
    # before.  mpmath's K0 is the oracle where scipy's k0e overflows.
    edge = np.array([0.0, 5e-324, 1e-310, 4e-309, math.inf])
    ek0, ek1 = exp_scaled_x_k0_k1(edge)
    assert list(ek1) == [1.0, 1.0, 1.0, 1.0, math.inf]
    assert ek0[0] == 0.0 and ek0[-1] == math.inf
    with mpmath.workdps(40):
        oracle = [float(mpmath.mpf(v) * mpmath.besselk(0, v))
                  for v in edge[1:-1]]
    assert np.allclose(ek0[1:-1], oracle, rtol=1e-14, atol=0.0)
    # an element's value does not depend on its neighbours, though each
    # sums its own branch's series in the same pass
    u = np.concatenate([u, edge])
    uk0, uk1 = exp_scaled_x_k0_k1(u)
    assert [exp_scaled_x_k0_k1(float(v)) for v in u] == list(zip(uk0, uk1))


# --- the K tables, regenerated ----------------------------------------------
# Each table is the Chebyshev expansion of one function on t in [-2, 2],
# in Cephes' chbevl form: a DCT of the function at n Chebyshev nodes at 40
# digits, kept up to the last coefficient of at least 2e-17 of the largest,
# highest degree first.  48 nodes alias nothing into the kept digits: 64
# give the same floats.

def small_x(u):
    return mpmath.sqrt(2 * (u + 1))   # t = 2u = x^2 - 2 on (0, 2]


def large_x(u):
    return 4 / (u + 1)                # t = 2u = 8/x - 2 on (2, inf)


def ln_half(x):
    return mpmath.log(x / 2)


def sqrt_exp(x):
    return mpmath.sqrt(x) * mpmath.exp(x)


K_TABLE_FUNCTIONS = {
    "_K0_SMALL": lambda x: (mpmath.besselk(0, x)
                            + ln_half(x) * mpmath.besseli(0, x)),
    "_K1_SMALL": lambda x: x * (mpmath.besselk(1, x)
                                - ln_half(x) * mpmath.besseli(1, x)),
    "_I0_SMALL": lambda x: mpmath.besseli(0, x),
    "_I1_X_SMALL": lambda x: mpmath.besseli(1, x) / x,
    "_K0E_LARGE": lambda x: sqrt_exp(x) * mpmath.besselk(0, x),
    "_K1E_LARGE": lambda x: sqrt_exp(x) * mpmath.besselk(1, x),
}


def chebyshev_table(f, argument, nodes: int = 48) -> tuple:
    with mpmath.workdps(40):
        theta = [mpmath.pi * (j + mpmath.mpf(0.5)) / nodes
                 for j in range(nodes)]
        values = [f(argument(mpmath.cos(th))) for th in theta]
        c = [2 * mpmath.fsum(v * mpmath.cos(k * th)
                             for v, th in zip(values, theta)) / nodes
             for k in range(nodes)]
        floor = 2e-17 * max(abs(ck) for ck in c)
        kept = max(k for k, ck in enumerate(c) if abs(ck) >= floor) + 1
        return tuple(float(ck) for ck in reversed(c[:kept]))


@pytest.mark.parametrize("name", K_TABLE_FUNCTIONS)
def test_k_table_matches_its_generator(name):
    argument = small_x if name.endswith("_SMALL") else large_x
    table = chebyshev_table(K_TABLE_FUNCTIONS[name], argument)
    assert table == getattr(bessel, name)


# --- I0, exponentially scaled ----------------------------------------------
# i0e sums the Cephes Chebyshev series that scipy's i0e sums, so both
# agree to a few ulp: 1e-15 relative.

def test_i0e_against_scipy_from_zero_to_a_million():
    grid = np.concatenate([[0.0], np.geomspace(1e-300, 1e6, 20001),
                           np.linspace(0.0, 16.0, 16001),
                           np.linspace(7.99, 8.01, 2001)])
    assert np.allclose(i0e(grid), scipy_i0e(grid), rtol=1e-15, atol=0.0)


BELOW_EIGHT = float(np.nextafter(8.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(x=st.floats(7.9, 8.1), dx=st.floats(0.0, 1e-6))
@example(x=BELOW_EIGHT, dx=0.0)
@example(x=BELOW_EIGHT, dx=8.0 - BELOW_EIGHT)  # the [0, 8] series, then 1/x
@example(x=8.0, dx=1e-15)
def test_property_i0e_continuous_across_switch(x, dx):
    # either side of the x = 8 switch between the two series, i0e matches
    # scipy's to 1e-15, and the step between two arguments is the slope
    # i0e' = i1e - i0e times their distance, to 1e-15 of i0e plus the
    # curvature term (|i0e''| < 1 here): no jump at the switch
    y = x + dx
    v = i0e(np.array([x, y]))
    assert v[0] == i0e(x) and v[1] == i0e(y)
    assert np.allclose(v, scipy_i0e([x, y]), rtol=1e-15, atol=0.0)
    slope = i1e(x) - scipy_i0e(x)
    assert abs((v[1] - v[0]) - slope * (y - x)) <= 1e-15 * v[0] + (y - x) ** 2


@pytest.mark.parametrize("shape", [(), (0,), (17,), (3, 6), (0, 4)])
def test_i0e_array_equals_scalar_calls(shape):
    # one array call sums both series in one pass, each element in its own
    # column; an element's bits must not depend on its neighbours, so the
    # array call equals one scalar call per element, bit for bit
    pool = np.array([0.0, 1e-300, 0.5, 7.25, 8.0, np.nextafter(8.0, 0.0),
                     np.nextafter(8.0, math.inf), 8.5, 33.0, 709.0, 1e6,
                     1e300, math.inf, 4.0, 12.0, 2.0, 100.0, 3.0])
    x = pool[:math.prod(shape)].reshape(shape)
    got = i0e(x)
    want = np.array([i0e(float(v)) for v in x.ravel()]).reshape(shape)
    if shape == ():
        assert type(got) is float
    assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))
    for order in (slice(None), slice(None, None, -1)):
        mixed = pool[order]
        assert np.array_equal(i0e(mixed).view(np.int64),
                              np.array([i0e(v) for v in mixed]).view(np.int64))


def test_i0e_limits_types_and_domain():
    assert i0e(0.0) == 1.0 and i0e(math.inf) == 0.0
    assert type(i0e(1.0)) is float and type(i0e(np.float64(9.0))) is float
    assert i0e(np.ones((2, 3))).shape == (2, 3)
    assert i0e(np.zeros((0,))).shape == (0,)
    for bad in (-1e-300, -1.0, math.nan):
        with pytest.raises(ValueError, match="i0e requires x >= 0"):
            i0e(np.array([1.0, bad, 9.0]))
        with pytest.raises(ValueError, match="i0e requires x >= 0"):
            i0e(bad)
