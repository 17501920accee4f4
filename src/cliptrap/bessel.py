"""Modified Bessel functions K0 and K1, and the scaled I0, to ~1e-14 relative.

K0 and K1 come from one pass, with two branches joined at x = 2:
  * the ascending series (Abramowitz & Stegun 9.6.11 and 9.6.13) for
    small arguments, where the logarithmic cancellation is still
    harmless; K0's sums ride along in K1's loop;
  * Steed's continued fraction for the scaled K0/K1 pair at large
    arguments (Temme, J. Comput. Phys. 19, 324 (1975)), which stays
    close to machine precision all the way up to the underflow limit
    and on past it.  It forms e^x K0 and e^x K1 directly.  From x = 1e16
    on, both are their common leading term sqrt(pi / 2x) to an ulp.

That pass is the one kernel.  exp_scaled_x_k0_k1, the one pair, returns
x e^x K0 and x e^x K1 at every x >= 0, with their limits at 0, up to
1/(largest float) and at inf, so the column profile can join e^-x to its
own exponent; bessel_k1 and scaled_x_k1 multiply the kernel's K1 by e^-x.

i0e(x) = exp(-x) I0(x) sums Moshier's Cephes Chebyshev series (i0.c),
one in x/2 - 2 on [0, 8] and one in 32/x - 2 beyond, joined at x = 8.
Both series sit in one table, a column each, so one Clenshaw recurrence
(Clenshaw, Math. Tables Aids Comput. 9, 118 (1955)) sums each element's
own series in a single pass of 29 steps, to the same bits as Cephes'
chbevl.  The cost of a call is mostly the fixed overhead of its numpy
steps, not arithmetic, so the call count matters more than its length.

Every function accepts scalars (returning floats) or arrays.  K0 and K1
run each branch on its elements at once, under a mask; an element stops
updating as soon as its own series or fraction has converged.  i0e runs
the same steps on every element, with its own coefficients.  So no
element's value depends on the other elements of the array.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_EULER_GAMMA = 0.5772156649015328606
_SERIES_CUTOFF = 2.0
_LN2_MINUS_GAMMA = math.log(2.0) - _EULER_GAMMA
_TINY_U = 1.0 / sys.float_info.max  # up to here 1/u overflows
_ASYMPTOTIC_X = 1e16  # e^x K0, e^x K1 = sqrt(pi/2x) (1 + O(1/x)) to an ulp
_MAX_ITER = 400
_EPS = 1e-16


def _k0_k1_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # K1(x) = ln(x/2) I1(x) + 1/x - (x/4) sum_k [psi(k+1)+psi(k+2)] t^k / (k!(k+1)!)
    # K0(x) = sum_k (H_k - ln(x/2) - gamma) t^k / k!^2
    # with t = x^2/4 and H_k the harmonic numbers (H_0 = 0).
    t = 0.25 * x * x
    log_half = np.log(0.5 * x)
    term_i = 0.5 * x          # I1 partial term: (x/2) t^k / (k!(k+1)!)
    i1 = term_i.copy()
    psi_sum = -2 * _EULER_GAMMA + 1.0   # psi(1) + psi(2)
    term_s = np.ones_like(x)  # t^k / (k!(k+1)!)
    s = psi_sum * term_s
    term_0 = np.ones_like(x)  # t^k / k!^2
    harmonic = -(log_half + _EULER_GAMMA)  # H_k - ln(x/2) - gamma
    k0 = harmonic.copy()
    active = np.ones(x.shape, bool)
    for k in range(1, _MAX_ITER):
        ratio = t / (k * (k + 1))
        term_i *= ratio
        term_s *= ratio
        psi_sum += 1.0 / k + 1.0 / (k + 1)
        ds = psi_sum * term_s
        term_0 *= t / (k * k)
        harmonic += 1.0 / k
        np.add(i1, term_i, out=i1, where=active)
        np.add(s, ds, out=s, where=active)
        np.add(k0, harmonic * term_0, out=k0, where=active)
        active &= (np.abs(ds) >= _EPS * np.abs(s)) | (term_i >= _EPS * i1)
        if not active.any():
            break
    return k0, log_half * i1 + 1.0 / x - 0.25 * x * s


def _k0_k1_cf2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Steed's CF2 for the pair (K_mu, K_mu+1) at mu = 0 (Thompson & Barnett).
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = d.copy()
    delh = d
    q1 = np.zeros_like(x)
    q2 = np.ones_like(x)
    a1 = 0.25
    c = a1
    q = np.full_like(x, a1)
    a = -a1
    s = 1.0 + q * delh
    active = np.ones(x.shape, bool)
    # q2 grows as (2x)^i / i!^2: an element that has converged may overflow
    # it while a slower neighbour still runs, but only h and s are read,
    # and they stop updating with it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2, _MAX_ITER):
            a -= 2 * (i - 1)
            c = -a * c / i
            q1, q2 = q2, (q1 - b * q2) / a
            q += c * q2
            b += 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            dels = q * delh
            np.add(h, delh, out=h, where=active)
            np.add(s, dels, out=s, where=active)
            active &= np.abs(dels) >= _EPS * np.abs(s)
            if not active.any():
                break
    h = a1 * h
    k0 = np.sqrt(math.pi / (2.0 * x)) / s  # e^x K0: the fraction's own form
    return k0, k0 * (x + 0.5 - h) / x


def _k0_k1_exp_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x K0(x), e^x K1(x)) for an array of x > 0, from one pass.

    Both fall as sqrt(pi / 2x) and are normal floats for every finite x,
    so nothing is cut off here.  From x = _ASYMPTOTIC_X on, where the
    continued fraction's recurrence would overflow, both are that leading
    term, which is 0 at x = inf.
    """
    k0 = np.empty(x.shape)
    k1 = np.empty(x.shape)
    small = x <= _SERIES_CUTOFF
    far = x >= _ASYMPTOTIC_X
    large = ~small & ~far
    x_s = x[small]
    grow = np.exp(x_s)
    k0_s, k1_s = _k0_k1_series(x_s)
    k0[small], k1[small] = k0_s * grow, k1_s * grow
    k0[large], k1[large] = _k0_k1_cf2(x[large])
    k0[far] = k1[far] = np.sqrt(0.5 * math.pi / x[far])
    return k0, k1


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
    d(u K1)/du = -u K0, its derivative, times e^u: the continued fraction
    forms them so, and a caller joins e^-u to its own exponent.  e^u u K1
    tends to sqrt(pi u / 2), so both stay finite for every finite u, far
    past where K0 and K1 underflow.  Up to 1/(largest float), where the
    series' 1/u overflows, both are their limits u (ln 2 - gamma - ln u)
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


# One table of both series, one column each, the 25-term series padded in
# front with zeros: a Clenshaw step from b0 = b1 = 0 over a zero
# coefficient leaves them 0, so the padded recurrence reaches the
# unpadded one's start exactly and sums the same bits.
_I0E_TABLE = np.column_stack(
    [_I0E_SMALL, (0.0,) * (len(_I0E_SMALL) - len(_I0E_LARGE)) + _I0E_LARGE])


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
    rows = _I0E_TABLE[:, large.astype(np.intp)]
    # Clenshaw's recurrence b0 <- t b0 - b1 + c, in three rotating buffers
    b0, b1, b2 = rows[0].copy(), np.zeros_like(t), np.empty_like(t)
    for c in rows[1:]:
        np.multiply(t, b0, out=b2)
        b2 -= b1
        b2 += c
        b0, b1, b2 = b2, b0, b1
    out = 0.5 * (b0 - b2)
    np.divide(out, np.sqrt(x), out=out, where=large)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out
