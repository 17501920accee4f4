"""Rate-equation model for continuous loading of the magnetic trap.

The governing equation for the trapped atom number N is

    dN/dt = R - (gamma_d + gamma_ed) N - 2 beta_dd N^2 / V_MT

where R is the optical loading rate, gamma_ed the effective one-body loss
from collisions with excited MOT atoms and beta_dd the two-body loss
coefficient among trapped atoms.  The factor 2 on the two-body term
reflects that each inelastic collision removes two atoms; published beta
conventions differ by exactly this factor.

Note: published closed forms for the steady state and the accumulation
efficiency of this model often carry a factor-2 slip relative to the
equation they solve; here kappa is N_inf / N_MOT, and evolve() and
decay() share one closed form, so all of them agree to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .species import MotBeamParams, Species, excited_fraction
from .trap import IpTrapConfig

# chi(u) = (u - 1 + e^{-u}) / u^2 is summed as its Taylor series
# sum (-u)^k / (k + 2)! below this |u|: written out, the difference cancels
# to about 2 eps / u.  With five terms both forms are good to 5e-14 there.
_CHI_SWITCH = 1e-2

DEFAULT_ETA = 0.3  # theoretical optical-pumping transfer efficiency


class ModelInputError(ValueError):
    """No loss channel where one is needed, or a value out of float range;
    inputs names the RateCoefficients fields, n_mot or noise that set it."""

    def __init__(self, message: str, *inputs: str) -> None:
        super().__init__(message)
        self.inputs = inputs


@dataclass(frozen=True)
class RateCoefficients:
    """Transfer efficiency and loss coefficients of the loading model."""

    eta: float = DEFAULT_ETA   # transfer efficiency, (0, 1]
    beta_ed: float = 0.0       # m^3/s, excited-MOT / trapped collisions
    beta_dd: float = 0.0       # m^3/s, trapped / trapped collisions
    gamma_d: float = 0.0       # 1/s, background gas loss

    def __post_init__(self) -> None:
        # eta = 0 is allowed so switched-off loading is representable
        if not 0 <= self.eta <= 1:
            raise ValueError("eta must be in [0, 1]")
        if not (self.beta_ed >= 0 and self.beta_dd >= 0 and self.gamma_d >= 0):
            raise ValueError("loss coefficients must be >= 0")


@dataclass(frozen=True)
class LoadingScenario:
    """Everything the rate equation needs, volumes included, and the one
    place its rate quantities are formed.

    v_mt and v_eff may come from cloud-module geometry or be supplied
    directly (e.g. measured values).  R (loading_rate), gamma_ed and gamma
    come from one N*_MOT when the scenario is built, as attributes, not
    fields; N_inf (n_mt_steady) when first read.  R and the abscissa need
    no loss channel, and R, N_inf and tau_eff no n_mot > 0.
    """

    species: Species
    trap: IpTrapConfig
    coefficients: RateCoefficients
    mot: MotBeamParams
    mt_temperature: float  # K
    v_mt: float            # m^3
    v_eff: float           # m^3
    _n_inf = None          # N_inf once formed; not a field

    def __post_init__(self) -> None:
        if not (self.v_mt > 0 and self.v_eff > 0):
            raise ValueError("volumes must be positive")
        if not self.mt_temperature > 0:
            raise ValueError("mt_temperature must be positive")
        c = self.coefficients
        n_star = self.n_mot_excited
        gamma_ed = gamma_ed_loss(n_star, c.beta_ed, self.v_eff)
        r, gamma = c.eta * n_star * self.species.gamma_ed, c.gamma_d + gamma_ed
        if not (r < math.inf and gamma < math.inf):
            raise ModelInputError("loading or loss rate overflows a float",
                                  "beta_ed", "n_mot")
        object.__setattr__(self, "loading_rate", r)
        object.__setattr__(self, "gamma_ed", gamma_ed)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_mot_excited(self) -> float:
        return excited_fraction(self.mot, self.species) * self.mot.n_mot

    @property
    def n_mt_steady(self) -> float:
        """N_inf: see steady_state."""
        if self._n_inf is None:
            object.__setattr__(self, "_n_inf", _steady_state_raw(
                self.loading_rate, self.gamma, self.coefficients.beta_dd,
                self.v_mt))
        return self._n_inf

    @property
    def tau_eff(self) -> float:
        """N_inf / R, s."""
        return effective_loading_time(self.n_mt_steady, self.loading_rate)

    @property
    def kappa(self) -> float:
        """N_inf / N_MOT."""
        return self.n_mt_steady / self._n_mot()

    @property
    def kappa_abscissa(self) -> float:
        """The master curve's abscissa x = R V_MT / N_MOT^2, m^3/s."""
        n_mot = self._n_mot()
        n_mot2 = n_mot * n_mot
        if not 0 < n_mot2 < math.inf:
            raise ModelInputError("abscissa: N_MOT^2 under- or overflows "
                                  "a float", "n_mot")
        return self.loading_rate * self.v_mt / n_mot2

    def _n_mot(self) -> float:
        n_mot = self.mot.n_mot
        if not n_mot > 0:
            raise ValueError("n_mot must be > 0")
        return n_mot


def loading_rate(scenario: LoadingScenario) -> float:
    """R = eta N*_MOT Gamma_ed (atoms/s)."""
    return scenario.loading_rate


def gamma_ed_loss(n_star: float, beta_ed: float, v_eff: float) -> float:
    """Effective one-body loss rate N* beta_ed / V_eff (1/s)."""
    if not v_eff > 0:
        raise ValueError("v_eff must be positive")
    return n_star * beta_ed / v_eff


def steady_state(scenario: LoadingScenario) -> float:
    """Closed-form stationary atom number of the rate equation.

    N_inf = 2 R / (gamma + D), D = hypot(gamma, sqrt(8 beta) sqrt(R)/sqrt(V))
    = sqrt(gamma^2 + 8 beta R / V) with no rate squared, is the stable root N+
    of evolve() without its cancellation; it is R / gamma exactly at beta = 0.
    """
    return scenario.n_mt_steady


def _steady_state_raw(r: float, gamma: float, beta: float, v: float) -> float:
    if r == 0:
        return 0.0
    if beta == 0 and gamma == 0:
        raise ModelInputError(
            "no steady state: loading without any loss channel",
            "gamma_d", "beta_ed", "beta_dd")
    return 2 * r / (gamma + math.hypot(
        gamma, math.sqrt(8 * beta) * math.sqrt(r) / math.sqrt(v)))


def _riccati_terms(u0: float, d: float, k: float, t: np.ndarray):
    """u of du/dt = -D u - k u^2 from u(0) = u0: the rate equation's core.

    Returns u = u0 e^{-D t} / q and the terms (k u0 t, -D t, expm1(-D t),
    phi, q), with phi = -expm1(-D t) / (D t), its limit 1 where D t == 0,
    and q = 1 + k u0 t phi; u is accurate to rounding for every D t.  D t
    is carried negated, which spares the negations that expm1, the
    exponential and phi would take.  The callers check t.
    """
    bt = k * u0 * t
    neg_dt = t * -d
    em = np.expm1(neg_dt)
    phi = np.empty_like(neg_dt)
    phi.fill(1.0)
    np.divide(em, neg_dt, out=phi, where=neg_dt != 0)
    q = 1.0 + bt * phi
    return u0 * np.exp(neg_dt) / q, (bt, neg_dt, em, phi, q)


def evolve(scenario: LoadingScenario, n0: float, t_end: float,
           samples: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Solve the rate equation from N(0) = n0 over [0, t_end].

    Returns (t, N) on a uniform grid of `samples` points.  With
    k = 2 beta/V and D = sqrt(gamma^2 + 4 k R), taken as gamma + 2 k N+,
    u = N - N+ obeys the decay equation du/dt = -D u - k u^2, so u comes
    from decay()'s core, _riccati_terms, with u0 = n0 - N+.  N is N+ + u
    where |u| <= |u0| / 2, and n0 - u0 t phi (D + k u0) / q (the same u,
    taken from n0) elsewhere: each base is the one that does not cancel,
    so N is accurate to rounding, n0 exactly at t = 0 and decay() at R = 0.
    Without a loss channel (gamma = beta = 0) there is no N+, and N = n0 + R t.
    """
    if not n0 >= 0:
        raise ValueError("n0 must be >= 0")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite: {t_end!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    r, gamma = scenario.loading_rate, scenario.gamma
    beta, v = scenario.coefficients.beta_dd, scenario.v_mt
    t = np.linspace(0.0, t_end, samples)
    if gamma == 0 and beta == 0:
        return t, n0 + r * t
    k = 2 * beta / v
    n_plus = scenario.n_mt_steady
    u0 = n0 - n_plus
    d = gamma + 2 * k * n_plus
    # N(0) = n0 needs no D, which may overflow to inf; the n0 base is
    # formed only where it is taken, since at D = inf it is 0 * inf
    ts = t[1:]
    u, (_, _, _, phi, q) = _riccati_terms(u0, d, k, ts)
    far = ~(np.abs(u) <= 0.5 * abs(u0))
    n = np.concatenate(([n0], n_plus + u))
    n[1:][far] = n0 - u0 * ts[far] * phi[far] * (d + k * u0) / q[far]
    return t, n


def kappa_of_abscissa(x, beta_dd: float, beta_ed: float):
    """Accumulation efficiency as a function of x = R V_MT / N_MOT^2.

    kappa = [-beta_ed + sqrt(beta_ed^2 + 32 beta_dd x)] / (8 beta_dd), the
    steady state per MOT atom under gamma_d = 0, V_eff = V_MT and a
    saturated MOT (N* = N_MOT / 2).  It is evaluated without the
    cancellation as 4 x / (beta_ed + S), S = hypot(beta_ed, sqrt(32 beta_dd)
    sqrt(x)) squaring no coefficient: 2 x / beta_ed exactly at beta_dd = 0
    and sqrt(x / (2 beta_dd)) at beta_ed = 0 (x > 0).  Vectorized over x.
    """
    if beta_ed == 0 and beta_dd == 0:
        raise ModelInputError(
            "kappa undefined with both beta coefficients zero",
            "beta_ed", "beta_dd")
    x = np.asarray(x, float)
    out = 4 * x / (beta_ed + np.hypot(beta_ed,
                                      math.sqrt(32 * beta_dd) * np.sqrt(x)))
    return float(out) if out.ndim == 0 else out


def kappa_jacobian(x, beta_dd: float, beta_ed: float,
                   kappa=None) -> np.ndarray:
    """Derivatives of kappa_of_abscissa, shape x.shape + (2,).

    kappa is the positive root of 4 beta_dd k^2 + beta_ed k - 2 x = 0, so
    with S = hypot(beta_ed, sqrt(32 beta_dd x)) = 8 beta_dd kappa + beta_ed:

        d kappa / d beta_dd = -4 kappa^2 / S,
        d kappa / d beta_ed = -kappa / S.

    S is formed from kappa, a sum of non-negative terms with no root; a
    caller that holds kappa = kappa_of_abscissa(x, beta_dd, beta_ed) passes it.
    """
    if kappa is None:
        kappa = kappa_of_abscissa(x, beta_dd, beta_ed)
    k = np.asarray(kappa, float)
    k_over_s = k / (8 * beta_dd * k + beta_ed)
    out = np.empty(k.shape + (2,))
    out[..., 0] = -4 * k * k_over_s
    out[..., 1] = -k_over_s
    return out


def accumulation_efficiency(scenario: LoadingScenario) -> float:
    """kappa = N_inf / N_MOT, also where the master curve does not hold;
    n_mot must be > 0."""
    return scenario.kappa


def effective_loading_time(n_mt: float, r: float) -> float:
    """tau = N_MT / R, the single-number loss measure; inf when R = 0."""
    if not r >= 0:
        raise ValueError("loading rate must be >= 0")
    return n_mt / r if r > 0 else math.inf


def _decay_times(n0: float, v: float, t) -> np.ndarray:
    """t as a float array, after the checks decay makes of its arguments."""
    if not n0 >= 0:
        raise ValueError("n0 must be >= 0")
    if not v > 0:
        raise ValueError("v must be positive")
    t = np.asarray(t, float)
    if not ((t >= 0) & (t < math.inf)).all():
        raise ValueError("t must be finite and >= 0")
    return t


def _decay_jacobian_of(n0: float, v: float, t: np.ndarray, n: np.ndarray,
                       terms) -> np.ndarray:
    """Derivatives of decay by (gamma, beta), shape t.shape + (2,), from
    the N and terms of _riccati_terms.  With u = gamma t,
    q = 1 + b t phi(u) and chi(u) = (u - 1 + e^{-u}) / u^2 = phi + phi':

        dN/dgamma = -N t (1 + b t chi) / q,
        dN/dbeta = -N (2 n0 / V) t phi / q.

    At gamma t == 0 (phi = 1, chi = 1/2) these are the gamma -> 0 limits,
    so the decay fit's bound gamma = 0 has a nonzero gamma column."""
    bt, neg_u, em, phi, q = terms
    tail = 1 / 24 + neg_u * (1 / 120 + neg_u / 720)
    chi = np.asarray(0.5 + neg_u * (1 / 6 + neg_u * tail))
    np.divide(em - neg_u, neg_u * neg_u, out=chi,
              where=np.abs(neg_u) >= _CHI_SWITCH)
    ntq = -n * t / q
    out = np.empty(t.shape + (2,))
    out[..., 0] = ntq * (1.0 + bt * chi)
    out[..., 1] = ntq * phi * (2 * n0 / v)
    return out


def decay(n0: float, gamma: float, beta: float, v: float, t):
    """Closed-form solution of dN/dt = -gamma N - 2 beta N^2 / V.

    With b = 2 beta n0 / V,

        N(t) = gamma n0 e^{-gamma t} / (gamma - b expm1(-gamma t)),

    evaluated divided through by gamma, as n0 e^{-gamma t} / (1 + b t phi)
    with phi = -expm1(-gamma t) / (gamma t), by the core evolve() shares.
    Where gamma t == 0, phi = 1 gives the two-body limit n0 / (1 + b t);
    elsewhere the formula is accurate to rounding, so N is continuous in
    gamma and t.  Vectorized over t.
    """
    t = _decay_times(n0, v, t)
    n, _ = _riccati_terms(n0, gamma, 2 * beta / v, t)
    return float(n) if n.ndim == 0 else n


def decay_fit_model(n0: float, v: float, t):
    """decay over fixed samples t, as a model for least_squares.

    model(x, p) returns decay(n0, p[0], p[1], v, t) and a callable for
    its derivatives by (gamma, beta), _decay_jacobian_of; it ignores the x
    the solver passes and uses t.  The arguments are checked once, here.
    Each evaluation runs the rate-equation arithmetic once, and its
    Jacobian reuses those terms.
    """
    t = _decay_times(n0, v, t)

    def model(_x, p):
        n, terms = _riccati_terms(n0, p[0], 2 * p[1] / v, t)
        return n, lambda: _decay_jacobian_of(n0, v, t, n, terms)

    return model


def mt_temperature_prediction(t_mot: float, thermalized: bool = True):
    """Virial-theorem temperature after transfer from the MOT center.

    Thermalized: energy balance (3/2) k T_MOT = 4 k T gives T = 3/8 T_MOT
    (linear 2D potential contributes 2kT, harmonic 1D kT/2).  Without
    thermalization the per-axis result is (T_MOT/2, T_MOT/3) for
    (axial, radial).  Heating beyond this is not modelled, so these are
    lower bounds.
    """
    if not t_mot > 0:
        raise ValueError("t_mot must be positive")
    if thermalized:
        return 0.375 * t_mot
    return 0.5 * t_mot, t_mot / 3.0
