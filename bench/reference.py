"""Reference values and independent oracles for the benchmark's checks.

Nothing here imports cliptrap: the formulas are written from the physics
(closed forms where the integrals have one, scipy quadrature and
scipy.special.k1 where they do not), so a check compares the program with
an implementation that shares none of its code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

# CODATA constants and the 52Cr data the paper defaults use.
BOLTZMANN = 1.380649e-23
BOHR_MAGNETON = 9.2740100783e-24
GRAVITY = 9.80665
CR52_MASS = 52 * 1.66053906660e-27
CR52_MU = 6 * BOHR_MAGNETON
CR52_GAMMA_ED = 2 * math.pi * 5.02e6 / 2.5e5
MAJORANA_MIN_OFFSET = 4e-6  # T

# The paper's optimum operating point in SI, mirroring `--paper-defaults`.
PAPER = {
    "b_prime": 12.5e-2,      # T/m
    "b_dprime": 10.5,        # T/m^2
    "b0": 0.0,               # T
    "gamma_d": 0.0,          # 1/s
    "eta": 0.3,
    "beta_ed": 6e-16,        # m^3/s
    "beta_dd": 1.3e-17,      # m^3/s
    "n_mot": 5e6,
    "t_mot": 140e-6,         # K
    "t_mt": 100e-6,          # K
    "sigma_mot": 1e-4,       # m, radial and axial
}

# Source-paper anchors (acceptance criteria 1, 2 and 4).
ANCHOR_LOADING_RATE = (9.5e7, 0.15)           # value, relative tolerance
ANCHOR_STEADY_STATE = (2e8 / 3, 2e8 * 3)      # accepted range
ANCHOR_V_NO_GRAVITY = (5.4e-9, 0.02)          # m^3, relative tolerance

# Failures the program is known to produce.  An operation that fails with
# one of these signatures counts as failed, but does not make the run
# incorrect; any other failure does.
KNOWN_DEFECTS = {
    "loading_rate_window": (
        "fit loading-rate on the default 30-sample synthetic loading curve "
        "exits 2: need at least 3 points inside the fit window"),
    "decay_fit_at_bound": (
        "fit_decay's start values, taken from the two earliest noisy "
        "samples, can drive the fit onto a parameter bound, where it stops "
        "with a collapsed covariance (a zero sigma) and reports converged "
        "with a wrong beta_dd, e.g. beta_dd pinned at exp(0) = 1 m^3/s; "
        "rarely it stops short of the bound in the same wrong minimum "
        "(gamma near 0.005 /s, residual norm over 100 where a good fit "
        "leaves under 10) with both parameters wrong and small sigmas"),
}


def scales(t: float, b_prime: float, b_dprime: float,
           gravity: bool = True) -> tuple[float, float, float]:
    """(xi1, xi2, sigma_z) of the trap cloud; xi2 = inf without gravity."""
    kt = BOLTZMANN * t
    xi2 = kt / (CR52_MASS * GRAVITY) if gravity else math.inf
    return kt / (CR52_MU * b_prime), xi2, math.sqrt(kt / (CR52_MU * b_dprime))


def planar_integral(p: float, xi1: float, xi2: float) -> float:
    """Closed form of the in-plane integral of exp(-p (rho/xi1 + y/xi2)).

    The angular integral gives 2 pi I0(b rho); the Laplace transform of
    rho I0(b rho) then gives 2 pi a / (a^2 - b^2)^(3/2), a = p/xi1, b = p/xi2.
    """
    a = p / xi1
    b = 0.0 if math.isinf(xi2) else p / xi2
    return 2 * math.pi * a / (a * a - b * b) ** 1.5


def peak_density(n: float, xi1: float, xi2: float, sigma_z: float) -> float:
    """Normalising n0 of the trap cloud holding n atoms."""
    return n / (planar_integral(1.0, xi1, xi2) * math.sqrt(2 * math.pi)
                * sigma_z)


def occupied_volume(xi1: float, xi2: float, sigma_z: float) -> float:
    """N^2 / integral(n^2) = 2 sqrt(pi) sigma_z P(1)^2 / P(2)."""
    return (2 * math.sqrt(math.pi) * sigma_z
            * planar_integral(1.0, xi1, xi2) ** 2
            / planar_integral(2.0, xi1, xi2))


def volume_no_gravity(xi1: float, sigma_z: float) -> float:
    """16 pi^(3/2) xi1^2 sigma_z, the gravity-free occupied volume."""
    return 16 * math.pi ** 1.5 * xi1 ** 2 * sigma_z


def overlap_volume(n_mot: float, sigma_r: float, sigma_a: float,
                   xi1: float, xi2: float, sigma_z: float,
                   offset: tuple[float, float, float]) -> float:
    """N_MOT N_MT / integral(n_MOT n_MT) for a MOT centred at `offset`.

    The angular integral turns the in-plane part into
    2 pi e^{-r0^2/2s^2} int rho e^{-rho^2/2s^2 - rho/xi1} I0(c rho) drho,
    c = |r0/s^2 - y_hat/xi2|, done here by 1-D quadrature with i0e.
    """
    x0, y0, z0 = offset
    s2 = sigma_r ** 2
    inv2 = 0.0 if math.isinf(xi2) else 1.0 / xi2
    c = math.hypot(x0 / s2, y0 / s2 - inv2)
    r02 = x0 * x0 + y0 * y0

    def f(rho):
        return (rho * special.i0e(c * rho)
                * math.exp(-rho * rho / (2 * s2) - rho / xi1 + c * rho
                           - r02 / (2 * s2)))

    top = c * s2 + 40 * sigma_r
    val, _ = integrate.quad(f, 0.0, top, points=[min(c * s2, top / 2)],
                            epsabs=0.0, epsrel=1e-12, limit=200)
    val *= 2 * math.pi
    sz2 = sigma_a ** 2 + sigma_z ** 2
    axial = (math.sqrt(2 * math.pi * sigma_a ** 2 * sigma_z ** 2 / sz2)
             * math.exp(-z0 * z0 / (2 * sz2)))
    mot_peak = n_mot / ((2 * math.pi) ** 1.5 * s2 * sigma_a)
    overlap = mot_peak * peak_density(1.0, xi1, xi2, sigma_z) * val * axial
    return n_mot / overlap


def column_density(y, z, n0: float, xi1: float, xi2: float,
                   sigma_z: float) -> np.ndarray:
    """2 n0 xi1 u K1(u) exp(-y/xi2 - z^2/2 sigma_z^2), u = |y|/xi1."""
    u = np.abs(np.asarray(y, float)) / xi1
    with np.errstate(invalid="ignore"):
        radial = np.where(u > 0, u * special.k1(np.maximum(u, 1e-300)), 1.0)
    inv2 = 0.0 if math.isinf(xi2) else 1.0 / xi2
    return (2 * n0 * xi1 * radial
            * np.exp(-np.asarray(y) * inv2 - np.asarray(z) ** 2
                     / (2 * sigma_z ** 2)))


# --- rate model -------------------------------------------------------------

def loading_rate(eta: float, n_mot: float) -> float:
    """R = eta N* Gamma_ed with a saturated MOT (N* = N_MOT / 2)."""
    return eta * 0.5 * n_mot * CR52_GAMMA_ED


def loss_rate(gamma_d: float, beta_ed: float, n_mot: float,
              v_eff: float) -> float:
    """gamma = gamma_d + N* beta_ed / V_eff."""
    return gamma_d + 0.5 * n_mot * beta_ed / v_eff


def steady_state(r: float, gamma: float, beta: float, v: float) -> float:
    """Positive root of R - gamma N - 2 beta N^2 / V = 0, cancellation-free."""
    if beta == 0:
        return r / gamma
    disc = math.sqrt(gamma * gamma + 8 * beta * r / v)
    return 2 * r / (gamma + disc)


def loading_curve(t, r: float, gamma: float, beta: float, v: float,
                  n0: float = 0.0) -> np.ndarray:
    """Closed-form Riccati solution of dN/dt = R - gamma N - 2 beta N^2 / V."""
    t = np.asarray(t, float)
    k = 2 * beta / v
    d = math.sqrt(gamma * gamma + 4 * k * r)
    n_plus = (-gamma + d) / (2 * k)
    n_minus = (-gamma - d) / (2 * k)
    c = (n0 - n_plus) / (n0 - n_minus)
    e = c * np.exp(-d * t)
    return (n_plus - n_minus * e) / (1 - e)


def decay(t, n0: float, gamma: float, beta: float, v: float) -> np.ndarray:
    """Closed-form solution of dN/dt = -gamma N - 2 beta N^2 / V."""
    t = np.asarray(t, float)
    b = 2 * beta * n0 / v
    if gamma == 0:
        return n0 / (1 + b * t)
    et = np.exp(-gamma * t)
    return gamma * n0 * et / (gamma + b * (1 - et))


def kappa_of_abscissa(x, beta_dd: float, beta_ed: float) -> np.ndarray:
    """kappa(x = R V / N_MOT^2) of the saturated, gamma_d = 0 master curve."""
    x = np.asarray(x, float)
    b = 32 * beta_dd * x
    return b / (np.sqrt(beta_ed ** 2 + b) + beta_ed) / (8 * beta_dd)


def tof_radius(t, sigma0: float, temperature: float) -> np.ndarray:
    """sqrt(sigma0^2 + (kT/m) t^2)."""
    t = np.asarray(t, float)
    return np.sqrt(sigma0 ** 2 + BOLTZMANN * temperature / CR52_MASS * t * t)


class Paper:
    """Reference outputs of the paper's operating point, optionally with
    the trap volumes supplied instead of computed."""

    def __init__(self, v_mt: float | None = None, gamma_d: float = 0.0,
                 b_prime: float = PAPER["b_prime"],
                 b_dprime: float = PAPER["b_dprime"]):
        p = PAPER
        self.xi1, self.xi2, self.sigma_z = scales(p["t_mt"], b_prime, b_dprime)
        self.v_mt = (occupied_volume(self.xi1, self.xi2, self.sigma_z)
                     if v_mt is None else v_mt)
        xi1_off, _, sz_off = scales(p["t_mt"], b_prime, b_dprime, False)
        self.v_no_gravity = volume_no_gravity(xi1_off, sz_off)
        self.gamma_d = gamma_d
        self.rate = loading_rate(p["eta"], p["n_mot"])
        self.gamma = loss_rate(gamma_d, p["beta_ed"], p["n_mot"], self.v_mt)
        self.gamma_ed = self.gamma - gamma_d
        self.n_inf = steady_state(self.rate, self.gamma, p["beta_dd"],
                                  self.v_mt)
        self.abscissa = self.rate * self.v_mt / p["n_mot"] ** 2
        self.kappa = float(kappa_of_abscissa(self.abscissa, p["beta_dd"],
                                             p["beta_ed"]))


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)
