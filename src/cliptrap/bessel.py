"""Modified Bessel functions K0 and K1, and the scaled I0, to ~1e-14 relative.

All three sum Chebyshev series in the form of Moshier's Cephes library
(k0.c, k1.c, i0.c; S. L. Moshier, Methods and Programs for Mathematical
Functions, 1989) by one recurrence, Clenshaw's (Math. Tables Aids
Comput. 9, 118 (1955)), in _clenshaw: sum' c_k T_k(t/2) for t in
[-2, 2], the c_0 term halved as in Cephes' chbevl.  Each call sums every
element's own series in a single pass of fixed length, one column of a
table per branch, so no element's value depends on the other elements
of the array.  The cost of a call is mostly the fixed overhead of its
numpy steps, not arithmetic, so the call count matters more than its
length.

K0 and K1 come from one pass of six series, joined at x = 2:
  * on (0, 2], in t = x^2 - 2: K0 + ln(x/2) I0, x (K1 - ln(x/2) I1), I0
    and I1/x, which give K0 and K1 with their logarithmic terms;
  * beyond, in t = 8/x - 2: sqrt(x) e^x K0 and sqrt(x) e^x K1, which
    stay normal floats up to x = inf, far past where K0 and K1 underflow.
That pass, _k0_k1_exp_scaled, is the one kernel: it returns e^x K0 and
e^x K1.  exp_scaled_x_k0_k1, the one pair, returns x e^x K0 and x e^x K1
at every x >= 0, with their limits at 0, up to 1/(largest float) and at
inf, so the column profile can join e^-x to its own exponent; bessel_k1
and scaled_x_k1 multiply the kernel's K1 by e^-x.  The K coefficients
were generated at 40 digits with mpmath and truncated where they fall
below 2e-17 of the largest; tests/test_bessel.py regenerates them.

i0e(x) = exp(-x) I0(x) sums Cephes' own i0.c coefficients, one series in
x/2 - 2 on [0, 8] and one in 32/x - 2 beyond, joined at x = 8, to the
same bits as Cephes' chbevl.

Every function accepts scalars (returning floats) or arrays.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EULER_GAMMA = 0.5772156649015328606
_LN2_MINUS_GAMMA = math.log(2.0) - _EULER_GAMMA
_TINY_U = 1.0 / sys.float_info.max  # up to here 1/u overflows


def _clenshaw(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum' c_k T_k(t/2) for each column of rows, highest degree first.

    rows[k] holds every element's k-th coefficient and broadcasts against
    t.  A series padded in front with zeros sums the same bits as the
    unpadded one: a step from b0 = b1 = 0 over a zero coefficient leaves
    them 0.
    """
    # b0 <- t b0 - b1 + c, in three rotating buffers
    b0, b1, b2 = rows[0].copy(), np.zeros_like(rows[0]), np.empty_like(rows[0])
    for c in rows[1:]:
        np.multiply(t, b0, out=b2)
        b2 -= b1
        b2 += c
        b0, b1, b2 = b2, b0, b1
    return 0.5 * (b0 - b2)


def _table(*series: tuple) -> np.ndarray:
    """The series as the columns of one table, padded in front with zeros."""
    rows = max(map(len, series))
    return np.column_stack([(0.0,) * (rows - len(s)) + s for s in series])


# Chebyshev coefficients, highest degree first, of K0 + ln(x/2) I0,
# x (K1 - ln(x/2) I1), I0 and I1/x in x^2 - 2 on (0, 2], and of
# sqrt(x) e^x K0 and sqrt(x) e^x K1 in 8/x - 2 on (2, inf].
_K_SWITCH = 2.0
_K0_SMALL = (
    1.3744654358807508e-16, 4.2598161427910826e-14, 1.0349695257633625e-11,
    1.904516377220209e-09, 2.5347910790261494e-07, 2.286212103119452e-05,
    0.001264615411446926, 0.0359799365153615, 0.3442898999246285,
    -0.5353273932339028)
_K1_SMALL = (
    -2.427449850519366e-15, -6.666901694199329e-13, -1.4114883926335278e-10,
    -2.213387630734726e-08, -2.4334061415659684e-06, -0.0001730288957513052,
    -0.006975723859639864, -0.12261118082265715, -0.3531559607765449,
    1.5253002273389478)
_I0_SMALL = (
    1.984280622680562e-14, 5.1149979020112795e-12, 1.0114797900674826e-09,
    1.4738449008423848e-07, 1.4983654208927293e-05, 0.00098287812725148,
    0.03685485969436176, 0.638809625651177, 3.2058456136159266)
_I1_X_SMALL = (
    1.0962998348773076e-15, 3.17487931131012e-13, 7.161106692799279e-11,
    1.2138074968740922e-08, 1.4739165119093128e-06, 0.00011988137174638708,
    0.005898742680020788, 0.1475393201491934, 1.2835179939823749)
_K0E_LARGE = (
    5.2103917776435543e-17, -1.6782311257549006e-16, 5.5120559994043335e-16,
    -1.848593377920907e-15, 6.340076476276646e-15, -2.2275133267462965e-14,
    8.032890775068375e-14, -2.9800969231481784e-13, 1.1403405882073441e-12,
    -4.514597883374519e-12, 1.8559491149549264e-11, -7.957489244477396e-11,
    3.5773972814003283e-10, -1.6975345093890614e-09, 8.574034017414225e-09,
    -4.660489897687948e-08, 2.766813639445015e-07, -1.8317555227191195e-06,
    1.39498137188765e-05, -0.00012849549581627802, 0.0015698838857300533,
    -0.0314481013119645, 2.4403030820659555)
_K1E_LARGE = (
    -5.689462849193648e-17, 1.8380935752430455e-16, -6.057047270643018e-16,
    2.038703166239861e-15, -7.0198370892147685e-15, 2.4771544242195988e-14,
    -8.976705182010146e-14, 3.348419666052243e-13, -1.2891739609498229e-12,
    5.139639673482343e-12, -2.129967838427791e-11, 9.218315187605315e-11,
    -4.1903547593419254e-10, 2.0150497551970347e-09, -1.0345762465678097e-08,
    5.7410841254500495e-08, -3.5019606030878126e-07, 2.406484947837217e-06,
    -1.936197974166083e-05, 0.00019521551847135162, -0.002857816859622779,
    0.10392373657681724, 2.7206261904844427)

# _K_TABLE[:, 0] holds the four series of (0, 2], _K_TABLE[:, 1] the two
# of (2, inf] and two zero columns
_K_TABLE = _table(_K0_SMALL, _K1_SMALL, _I0_SMALL, _I1_X_SMALL, _K0E_LARGE,
                  _K1E_LARGE, (0.0,), (0.0,)).reshape(-1, 2, 4)


def _k0_k1_exp_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x K0(x), e^x K1(x)) for an array of x > 0, from one pass.

    Both fall as sqrt(pi / 2x) and are normal floats for every finite x,
    so nothing is cut off here; at x = inf both are 0.
    """
    shape = x.shape
    x = x.ravel()
    large = x > _K_SWITCH
    # Cephes' chbevl at t = x^2 - 2 on (0, 2], t = 8/x - 2 beyond
    t = np.square(np.minimum(x, _K_SWITCH))
    np.divide(8.0, x, out=t, where=large)
    t -= 2.0
    rows = _K_TABLE[:, large.astype(np.intp)]
    k0, k1, i0, i1_x = _clenshaw(rows, t[:, None]).T
    small = ~large
    x_s = x[small]
    log_half = np.log(0.5 * x_s)
    grow = np.exp(x_s)
    k0[small] = (k0[small] - log_half * i0[small]) * grow
    k1[small] = (k1[small] / x_s + log_half * (x_s * i1_x[small])) * grow
    root = np.sqrt(x[large])
    k0[large] /= root
    k1[large] /= root
    return k0.reshape(shape), k1.reshape(shape)


def bessel_k1(x):
    """K1(x) for x > 0; underflows gracefully to 0 for very large x.

    Accepts a scalar (returns a float) or an array; raises ValueError if
    any element is <= 0 or NaN.
    """
    x = np.asarray(x, float)
    if not np.all(x > 0):
        raise ValueError("bessel_k1 requires x > 0")
    out = _k0_k1_exp_scaled(x)[1] * np.exp(-x)
    return float(out) if out.ndim == 0 else out


def exp_scaled_x_k0_k1(u):
    """(e^u u K0(u), e^u u K1(u)) for u >= 0, from one pass.

    These are the radial factor of the column-density projection and, by
    d(u K1)/du = -u K0, its derivative, times e^u: the kernel forms them
    so, and a caller joins e^-u to its own exponent.  e^u u K1 tends to
    sqrt(pi u / 2), so both stay finite for every finite u, far past where
    K0 and K1 underflow.  Up to 1/(largest float), where the kernel's 1/u
    overflows, both are their limits u (ln 2 - gamma - ln u)
    and 1 to far below an ulp, and (0, 1) at u = 0; at u = inf both are
    inf.  Accepts a scalar (returns two floats) or an array; raises
    ValueError if any element is < 0 or NaN.
    """
    u = np.asarray(u, float)
    if not np.all(u >= 0):
        raise ValueError("the scaled Bessel factors require u >= 0")
    uk0 = u.copy()  # the limit at 0 and at inf, and a factor of it if tiny
    uk1 = np.where(u < math.inf, 1.0, math.inf)
    tiny = (u > 0) & (u <= _TINY_U)
    uk0[tiny] *= _LN2_MINUS_GAMMA - np.log(u[tiny])
    run = (u > _TINY_U) & (u < math.inf)
    k0, k1 = _k0_k1_exp_scaled(u[run])
    uk0[run] = u[run] * k0
    uk1[run] = u[run] * k1
    if u.ndim == 0:
        return float(uk0), float(uk1)
    return uk0, uk1


def scaled_x_k1(u):
    """u K1(u) for u >= 0: 1 up to 1/(largest float), and 0 at u = inf.

    Checked and shaped as exp_scaled_x_k0_k1, whose second factor this is
    times e^-u, formed as u (e^u K1(u) e^-u).
    """
    u = np.asarray(u, float)
    if not np.all(u >= 0):
        raise ValueError("the scaled Bessel factors require u >= 0")
    out = np.where(u < math.inf, 1.0, 0.0)
    run = (u > _TINY_U) & (u < math.inf)
    out[run] = u[run] * bessel_k1(u[run])
    return float(out) if out.ndim == 0 else out


# Cephes i0.c (S. L. Moshier): Chebyshev coefficients of exp(-x) I0(x) in
# x/2 - 2 on [0, 8], and of sqrt(x) exp(-x) I0(x) in 32/x - 2 on (8, inf).
_I0E_SWITCH = 8.0
_I0E_SMALL = (
    -4.41534164647933937950e-18, 3.33079451882223809783e-17,
    -2.43127984654795469359e-16, 1.71539128555513303061e-15,
    -1.16853328779934516808e-14, 7.67618549860493561688e-14,
    -4.85644678311192946090e-13, 2.95505266312963983461e-12,
    -1.72682629144155570723e-11, 9.67580903537323691224e-11,
    -5.18979560163526290666e-10, 2.65982372468238665035e-9,
    -1.30002500998624804212e-8, 6.04699502254191894932e-8,
    -2.67079385394061173391e-7, 1.11738753912010371815e-6,
    -4.41673835845875056359e-6, 1.64484480707288970893e-5,
    -5.75419501008210370398e-5, 1.88502885095841655729e-4,
    -5.76375574538582365885e-4, 1.63947561694133579842e-3,
    -4.32430999505057594430e-3, 1.05464603945949983183e-2,
    -2.37374148058994688156e-2, 4.93052842396707084878e-2,
    -9.49010970480476444210e-2, 1.71620901522208775349e-1,
    -3.04682672343198398683e-1, 6.76795274409476084995e-1)
_I0E_LARGE = (
    -7.23318048787475395456e-18, -4.83050448594418207126e-18,
    4.46562142029675999901e-17, 3.46122286769746109310e-17,
    -2.82762398051658348494e-16, -3.42548561967721913462e-16,
    1.77256013305652638360e-15, 3.81168066935262242075e-15,
    -9.55484669882830764870e-15, -4.15056934728722208663e-14,
    1.54008621752140982691e-14, 3.85277838274214270114e-13,
    7.18012445138366623367e-13, -1.79417853150680611778e-12,
    -1.32158118404477131188e-11, -3.14991652796324136454e-11,
    1.18891471078464383424e-11, 4.94060238822496958910e-10,
    3.39623202570838634515e-9, 2.26666899049817806459e-8,
    2.04891858946906374183e-7, 2.89137052083475648297e-6,
    6.88975834691682398426e-5, 3.36911647825569408990e-3,
    8.04490411014108831608e-1)

_I0E_TABLE = _table(_I0E_SMALL, _I0E_LARGE)


def i0e(x):
    """exp(-x) I0(x) for x >= 0, the exponentially scaled Bessel I0.

    Accepts a scalar (returns a float) or an array; raises ValueError if
    any element is < 0 or NaN.  i0e(inf) is its limit 0.
    """
    x = np.asarray(x, float)
    if not np.all(x >= 0):
        raise ValueError("i0e requires x >= 0")
    shape = x.shape
    x = x.ravel()
    large = x > _I0E_SWITCH
    # Cephes' chbevl at t = x/2 - 2 on [0, 8], t = 32/x - 2 beyond
    t = 0.5 * x
    np.divide(32.0, x, out=t, where=large)
    t -= 2.0
    out = _clenshaw(_I0E_TABLE[:, large.astype(np.intp)], t)
    np.divide(out, np.sqrt(x), out=out, where=large)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out
