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
import sys
from dataclasses import dataclass

import numpy as np

from . import trap
from .cloud import trap_volume
from .species import (ModelInputError, MotBeamParams, Species,
                      excited_fraction)
from .trap import IpTrapConfig

# chi(u) = (u - 1 + e^{-u}) / u^2 is summed as its Taylor series
# sum (-u)^k / (k + 2)! below this |u|: written out, the difference cancels
# to about 2 eps / u.  With five terms both forms are good to 5e-14 there.
_CHI_SWITCH = 1e-2

DEFAULT_ETA = 0.3  # theoretical optical-pumping transfer efficiency
# The inputs R = eta N_MOT f Gamma_ed is formed from, f the excited fraction
LOADING_RATE_INPUTS = ("eta", "n_mot", "total_saturation", "detuning",
                       "species")


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
            raise ModelInputError("eta must be in [0, 1]", "eta")
        if not (self.beta_ed >= 0 and self.beta_dd >= 0 and self.gamma_d >= 0):
            raise ValueError("loss coefficients must be >= 0")


@dataclass(frozen=True)
class LoadingScenario:
    """Everything the rate equation needs, volumes included, and the one
    place its computed inputs and every quantity that predict and sweep
    report are formed.

    Each of mt_temperature, v_mt and v_eff may be supplied (e.g. measured
    values) or left None, and is then filled in this order: the virial
    prediction t_mt_prediction, cloud.trap_volume at mt_temperature, and
    v_mt.  R (loading_rate), gamma_ed and gamma come from one N*_MOT when
    the scenario is built, as attributes, not fields; N_inf (n_mt_steady)
    and tau_eff when first read.  R and the abscissa need no loss channel,
    and R, N_inf and tau_eff no n_mot > 0.

    predict and sweep report only attributes of the scenario (and
    mot.n_mot): loading_rate, gamma_ed, v_mt, v_eff, n_mt_steady, kappa,
    kappa_abscissa, tau_eff, and three properties formed each time they
    are read, t_mt_prediction (the virial prediction from mot.temperature),
    majorana_safe (trap's offset field) and v_mt_no_gravity (trap_volume
    without gravity at mt_temperature).

    Filled values are stored in their fields, so dataclasses.replace keeps
    them: for another trap, species or MOT temperature, build a new one.
    The three properties are formed from trap, mot and mt_temperature each
    time, so replace(..., trap=...) moves them to the new trap while the
    filled v_mt stays at the old one.
    """

    species: Species
    trap: IpTrapConfig
    coefficients: RateCoefficients
    mot: MotBeamParams
    mt_temperature: float | None = None  # K
    v_mt: float | None = None            # m^3
    v_eff: float | None = None           # m^3
    _root = None           # (N_inf, tau_eff) once formed; not a field

    def __post_init__(self) -> None:
        if self.mt_temperature is None:
            object.__setattr__(self, "mt_temperature", self.t_mt_prediction)
        if not self.mt_temperature > 0:
            raise ValueError("mt_temperature must be positive")
        if self.v_mt is None:
            object.__setattr__(self, "v_mt", trap_volume(
                self.species, self.trap, self.mt_temperature))
        if self.v_eff is None:
            object.__setattr__(self, "v_eff", self.v_mt)
        if not (self.v_mt > 0 and self.v_eff > 0):
            raise ValueError("volumes must be positive")
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
    def t_mt_prediction(self) -> float:
        """The virial trap temperature from the MOT's, K."""
        return mt_temperature_prediction(self.mot.temperature)

    @property
    def majorana_safe(self) -> bool:
        """Whether the trap's offset field suppresses spin flips."""
        return trap.majorana_safe(self.trap)

    @property
    def v_mt_no_gravity(self) -> float:
        """V_MT at mt_temperature without gravity's sag, m^3."""
        return trap_volume(self.species, self.trap, self.mt_temperature,
                           False)

    @property
    def n_mot_excited(self) -> float:
        return excited_fraction(self.mot, self.species) * self.mot.n_mot

    @property
    def n_mt_steady(self) -> float:
        """N_inf: see steady_state."""
        return self._steady_state()[0]

    @property
    def tau_eff(self) -> float:
        """N_inf / R, s, from the same root: inf only where eta, n_mot or
        the saturation is 0, and a range error where R underflows to 0
        without one or where tau_eff overflows at R > 0."""
        if self.loading_rate == 0 < min(self.coefficients.eta, self.mot.n_mot,
                                        self.mot.total_saturation):
            raise ModelInputError("loading rate underflows to 0",
                                  *LOADING_RATE_INPUTS)
        tau = self._steady_state()[1]
        if tau == math.inf and self.loading_rate > 0:
            raise ModelInputError("tau_eff = N_inf / R overflows a float",
                                  "gamma_d", "beta_ed", "beta_dd", "v_mt")
        return tau

    @property
    def kappa(self) -> float:
        """N_inf / N_MOT, also where the master curve does not hold."""
        return self.n_mt_steady / self._n_mot()

    @property
    def kappa_abscissa(self) -> float:
        """The master curve's abscissa x = R V_MT / N_MOT^2, m^3/s.  Where
        R V_MT leaves float range, x is R / N_MOT^2 times V_MT, whose first
        factor, at most Gamma_ed / (2 N_MOT), stays in it."""
        n_mot = self._n_mot()
        n_mot2 = n_mot * n_mot
        if not 0 < n_mot2 < math.inf:
            raise ModelInputError("abscissa: N_MOT^2 under- or overflows "
                                  "a float", "n_mot")
        r = self.loading_rate
        x = r * self.v_mt / n_mot2
        if not 0 < x < math.inf:
            x = r / n_mot2 * self.v_mt
            if not x < math.inf or x == 0 < r:
                raise ModelInputError("abscissa: R V_MT / N_MOT^2 under- or "
                                      "overflows a float",
                                      *LOADING_RATE_INPUTS, "v_mt")
        return x

    def _steady_state(self) -> tuple[float, float]:
        if self._root is None:
            object.__setattr__(self, "_root", _steady_state_raw(
                self.loading_rate, self.gamma, self.coefficients.beta_dd,
                self.v_mt))
        return self._root

    def _n_mot(self) -> float:
        n_mot = self.mot.n_mot
        if not n_mot > 0:
            raise ValueError("n_mot must be > 0")
        return n_mot


def gamma_ed_loss(n_star: float, beta_ed: float, v_eff: float) -> float:
    """Effective one-body loss rate N* beta_ed / V_eff (1/s)."""
    if not v_eff > 0:
        raise ValueError("v_eff must be positive")
    return n_star * beta_ed / v_eff


def steady_state(scenario: LoadingScenario) -> float:
    """Closed-form stationary atom number of the rate equation: the stable
    root N+ of evolve(), without its cancellation (see _steady_state_raw)."""
    return scenario.n_mt_steady


def _steady_state_raw(r: float, gamma: float, beta: float,
                      v: float) -> tuple[float, float]:
    """(N_inf, tau_eff) of R = gamma N + (2 beta / V) N^2; (0, inf) at R = 0.

    Divided through by R N^2, the root is N_inf = 2 / (u + hypot(u, w)),
    u = gamma / R and w = sqrt(8 beta / (R V)), which squares no rate and
    is R / gamma to rounding at beta = 0.  u <= 1 / N_inf and
    w <= 2 / N_inf, so no term leaves float range where N_inf does not.
    tau_eff is N_inf / R where N_inf is a normal float, and elsewhere the
    root of the same equation in tau = N / R, 1 = gamma tau + (w R tau)^2 / 4:
    2 / (gamma + hypot(gamma, w R)), whose terms are at most 2 / tau_eff.
    """
    if r == 0:
        return 0.0, math.inf
    if beta == 0 and gamma == 0:
        raise ModelInputError(
            "no steady state: loading without any loss channel",
            "gamma_d", "beta_ed", "beta_dd")
    root_8b, root_r, root_v = math.sqrt(8 * beta), math.sqrt(r), math.sqrt(v)
    n = _two_over(gamma / r, root_8b / (root_r * root_v))
    if sys.float_info.min <= n < math.inf:
        return n, n / r
    return n, _two_over(gamma, root_8b * root_r / root_v)


def _two_over(a: float, b: float) -> float:
    """2 / (a + hypot(a, b)), inf where a and b both underflow to 0."""
    den = a + math.hypot(a, b)
    return 2 / den if den else math.inf


def _two_body_rate(beta: float, v: float) -> float:
    """k = 2 beta / V, the rate equation's N^2 coefficient."""
    k = 2 * beta / v
    if not k < math.inf:
        raise ModelInputError("two-body loss rate 2 beta_dd / V_MT "
                              "overflows a float", "beta_dd", "v_mt")
    return k


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
    taken from n0) elsewhere, formed as n0 - u0 (k u0 t phi - expm1(-D t))
    / q, whose quotient lies in [-1, 1]: each base is the one that does not
    cancel, so N is accurate to rounding, n0 exactly at t = 0 and decay()
    at R = 0.  Past D t = 800, e^{-D t} is 0 and N is N+ to the last bit,
    so the core takes its times cut there: D t and k u0 t stay finite.
    Without a loss channel (gamma = beta = 0) there is no N+, and N = n0 + R t.
    """
    if not n0 >= 0:
        raise ModelInputError("n0 must be >= 0", "n0")
    if not 0 < t_end < math.inf:
        raise ModelInputError(f"t_end must be positive and finite: {t_end!r}",
                              "t_end")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    r, gamma = scenario.loading_rate, scenario.gamma
    beta, v = scenario.coefficients.beta_dd, scenario.v_mt
    t = np.linspace(0.0, t_end, samples)
    if gamma == 0 and beta == 0:
        return t, n0 + r * t
    k = _two_body_rate(beta, v)
    n_plus = scenario.n_mt_steady
    u0 = n0 - n_plus
    d = gamma + 2 * k * n_plus
    # N(0) = n0 needs no D, which may overflow to inf; the n0 base is
    # formed only where it is taken, since at D = inf it is 0 * inf
    ts = t[1:]
    if 0 < d < math.inf:
        ts = np.minimum(ts, 800 / d)
    u, (bt, _, em, phi, q) = _riccati_terms(u0, d, k, ts)
    far = ~(np.abs(u) <= 0.5 * abs(u0))
    n = np.concatenate(([n0], n_plus + u))
    n[1:][far] = n0 - u0 * ((bt[far] * phi[far] - em[far]) / q[far])
    return t, n


def kappa_of_abscissa(x, beta_dd: float, beta_ed: float):
    """Accumulation efficiency as a function of x = R V_MT / N_MOT^2.

    kappa = [-beta_ed + sqrt(beta_ed^2 + 32 beta_dd x)] / (8 beta_dd), the
    steady state per MOT atom under gamma_d = 0, V_eff = V_MT and a
    saturated MOT (N* = N_MOT / 2).  It is evaluated by _kappa, without
    the cancellation: 2 x / beta_ed exactly at beta_dd = 0 and
    sqrt(x / (2 beta_dd)) at beta_ed = 0 (x > 0).  Vectorized over x;
    kappa_fit_model evaluates the same formula over fixed abscissae.
    """
    x = np.asarray(x, float)
    out = _kappa(4 * x, np.sqrt(x), beta_dd, beta_ed)
    return float(out) if out.ndim == 0 else out


def _kappa(four_x, root_x, beta_dd: float, beta_ed: float):
    """kappa = 4 x / (beta_ed + S), S = hypot(beta_ed, sqrt(32 beta_dd)
    sqrt(x)), from 4 x and sqrt(x): the one kappa formula, which squares
    no coefficient."""
    if beta_ed == 0 and beta_dd == 0:
        raise ModelInputError(
            "kappa undefined with both beta coefficients zero",
            "beta_ed", "beta_dd")
    return four_x / (beta_ed + np.hypot(beta_ed,
                                        math.sqrt(32 * beta_dd) * root_x))


def kappa_fit_model(x):
    """kappa_of_abscissa over fixed abscissae x, as a model for
    least_squares.

    model(x, p) returns kappa at (beta_dd, beta_ed) = p and a callable for
    its derivatives by them, _kappa_jacobian_of; it ignores the x the
    solver passes and uses x.  x is converted, and 4 x and sqrt(x) formed,
    once, here.  Each evaluation runs _kappa once, and its Jacobian reuses
    that kappa.
    """
    x = np.asarray(x, float)
    four_x, root_x = 4 * x, np.sqrt(x)

    def model(_x, p):
        beta_dd, beta_ed = p
        kappa = _kappa(four_x, root_x, beta_dd, beta_ed)
        return kappa, lambda: _kappa_jacobian_of(kappa, beta_dd, beta_ed)

    return model


def _kappa_jacobian_of(kappa, beta_dd: float, beta_ed: float) -> np.ndarray:
    """Derivatives of kappa by (beta_dd, beta_ed), shape kappa.shape + (2,),
    from the kappa of _kappa.  kappa is the positive root of
    4 beta_dd k^2 + beta_ed k - 2 x = 0, so with
    S = hypot(beta_ed, sqrt(32 beta_dd x)) = 8 beta_dd kappa + beta_ed:

        d kappa / d beta_dd = -4 kappa^2 / S,
        d kappa / d beta_ed = -kappa / S.

    S is formed from kappa, a sum of non-negative terms with no root."""
    k_over_s = kappa / (8 * beta_dd * kappa + beta_ed)
    out = np.empty(kappa.shape + (2,))
    np.multiply(-4 * kappa, k_over_s, out=out[..., 0])
    np.negative(k_over_s, out=out[..., 1])
    return out


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
    np.multiply(ntq, 1.0 + bt * chi, out=out[..., 0])
    np.multiply(ntq * phi, 2 * n0 / v, out=out[..., 1])
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
    n, _ = _riccati_terms(n0, gamma, _two_body_rate(beta, v), t)
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
