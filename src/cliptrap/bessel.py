"""Modified Bessel functions K0 and K1, accurate to ~1e-14 relative.

Both come from one pass, with two branches joined at x = 2:
  * the ascending series (Abramowitz & Stegun 9.6.11 and 9.6.13) for
    small arguments, where the logarithmic cancellation is still
    harmless; K0's sums ride along in K1's loop;
  * Steed's continued fraction for the scaled K0/K1 pair at large
    arguments (Temme, J. Comput. Phys. 19, 324 (1975)), which stays
    close to machine precision all the way up to the underflow limit.

Every function accepts scalars (returning floats) or arrays.  Each branch
runs on its elements at once, under a mask; an element stops updating as
soon as its own series or fraction has converged, so its value does not
depend on the other elements of the array.
"""

from __future__ import annotations

import math

import numpy as np

_EULER_GAMMA = 0.5772156649015328606
_SERIES_CUTOFF = 2.0
_UNDERFLOW_X = 746.0  # exp(-x) underflows; K1 is below ~1e-324 here
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
    k0 = np.sqrt(math.pi / (2.0 * x)) * np.exp(-x) / s
    return k0, k0 * (x + 0.5 - h) / x


def _k0_k1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K0(x), K1(x)) for an array of x > 0, from one pass; 0 past underflow."""
    k0 = np.zeros(x.shape)
    k1 = np.zeros(x.shape)
    small = x <= _SERIES_CUTOFF
    large = ~small & (x < _UNDERFLOW_X)
    k0[small], k1[small] = _k0_k1_series(x[small])
    k0[large], k1[large] = _k0_k1_cf2(x[large])
    return k0, k1


def bessel_k1(x):
    """K1(x) for x > 0; underflows gracefully to 0 for very large x.

    Accepts a scalar (returns a float) or an array; raises ValueError if
    any element is <= 0 or NaN.
    """
    x = np.asarray(x, float)
    if not np.all(x > 0):
        raise ValueError("bessel_k1 requires x > 0")
    out = _k0_k1(x)[1]
    return float(out) if out.ndim == 0 else out


def scaled_x_k0_k1(u):
    """(u K0(u), u K1(u)), continuously extended to (0, 1) at u = 0.

    These are the radial factor of the column-density projection and, by
    d(u K1)/du = -u K0, its derivative; the u -> 0 limits remove the
    singularities of K0 and K1.  Both come from one pass.  Accepts a
    scalar (returns two floats) or an array; raises ValueError if any
    element is < 0 or NaN.
    """
    u = np.asarray(u, float)
    if not np.all(u >= 0):
        raise ValueError("the scaled Bessel factors require u >= 0")
    uk0 = np.zeros(u.shape)
    uk1 = np.ones(u.shape)
    pos = u > 0
    k0, k1 = _k0_k1(u[pos])
    uk0[pos] = u[pos] * k0
    uk1[pos] = u[pos] * k1
    if u.ndim == 0:
        return float(uk0), float(uk1)
    return uk0, uk1


def scaled_x_k1(u):
    """u * K1(u), continuously extended to 1 at u = 0; see scaled_x_k0_k1."""
    return scaled_x_k0_k1(u)[1]
