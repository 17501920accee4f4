"""Least-squares machinery and the toolkit's fitting procedures.

The core engine is a damped Gauss-Newton iteration (Levenberg-Marquardt
damping) that reports covariance, formed for every fit by one function,
and a convergence flag.  Positivity-constrained parameters are fitted in
log space through its one `log` option, which maps values and covariance
back with the delta method.  A model returns its values and a callable
for their Jacobian.  The kappa and decay fits start at the linear
least-squares solution of their rate equation; the loading rate is such
a solution.  The decay and loading fits share the rate equation
integrated over the curve, N exponential between samples.  Each
iterative fit's model is built once per fit by a factory that prepares
its fixed abscissae: dynamics.kappa_fit_model (4 x and sqrt(x)),
dynamics.decay_fit_model (the checked times) and
cloud.column_profile_model (the image grid).  Each model runs its
quantity's one formula per evaluation and returns the analytic Jacobian
of that closed form, built from what the evaluation already computed:
kappa, the rate-equation terms, or one K0/K1 pass.  The solver's
few-parameter bookkeeping runs on Python floats, and every small system
(a step, a linear start or a covariance) goes through one solve:
Cholesky, else one eigenvalue rank rule.  numpy does the work on
data-length arrays.  Only statistical uncertainty is reported;
systematic density calibration errors are outside the fitter's scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cloud import (CloudRangeError, column_profile_model,
                    make_thermal_cloud)
from .dynamics import decay_fit_model, kappa_fit_model
from .species import BOLTZMANN, ModelInputError, Species
from .trap import IpTrapConfig

_MAX_ITER = 200
_STEP_ABS = 1e-12
_PTOL = 1e-9
_RTOL = 1e-12
_OUT_OF_RANGE = "the fit's linear system is out of float range"


@dataclass
class DataSet:
    """Measured or synthetic (x, y, sigma_y) points with axis labels; the
    rows a data file's reader took, its columns in that order, become one
    by from_rows."""

    x: np.ndarray
    y: np.ndarray
    sigma_y: np.ndarray
    x_label: str = "x"
    y_label: str = "y"

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, float)
        self.y = np.asarray(self.y, float)
        self.sigma_y = np.asarray(self.sigma_y, float)
        if not (self.x.shape == self.y.shape == self.sigma_y.shape):
            raise ValueError("x, y and sigma_y must have identical shapes")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("x and y must be finite")
        if not (self.sigma_y > 0).all():
            raise ValueError("all sigma_y must be positive")

    def __len__(self) -> int:
        return self.x.size

    @classmethod
    def from_rows(cls, path: str | Path, header: list[str],
                  rows: list[list[float]]) -> "DataSet":
        """The x, y and sigma_y columns of a file's rows, labelled by its
        header, but for rows whose optional fourth column `mask` is 0;
        every sigma_y must be > 0, and errors name path."""
        data = np.asarray(rows)
        if data.shape[1] < 3:
            raise ValueError(f"{path}: expected at least 3 columns "
                             "(x, y, sigma_y)")
        if header[3:4] == ["mask"]:
            data = data[data[:, 3] != 0]
            if data.shape[0] == 0:
                raise ValueError(f"{path}: mask column excluded every row")
        try:
            return cls(x=data[:, 0], y=data[:, 1], sigma_y=data[:, 2],
                       x_label=header[0], y_label=header[1])
        except ValueError as exc:  # a sigma_y <= 0
            raise ValueError(f"{path}: {exc}") from None


@dataclass
class FitResult:
    """Estimated parameters with covariance and fit diagnostics."""

    names: tuple[str, ...]
    values: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""

    def __getitem__(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def sigma(self, name: str) -> float:
        i = self.names.index(name)
        return float(math.sqrt(max(self.covariance[i, i], 0.0)))

    @property
    def correlation(self) -> np.ndarray:
        """cov_ij / (sigma_i sigma_j) in [-1, 1], 0 where a sigma is 0."""
        cov = self.covariance.tolist()
        sig = [math.sqrt(max(row[i], 0.0)) for i, row in enumerate(cov)]
        return np.array([[min(max(c / (si * sj), -1.0), 1.0) if si * sj > 0
                          else 0.0 for c, sj in zip(row, sig)]
                         for row, si in zip(cov, sig)])


def _cholesky(a: list[list[float]]):
    """The lower factor L of a = L L^T for a symmetric positive definite
    a, row by row; None when a is not positive definite to rounding (a
    pivot that is not > 0, NaN included)."""
    low: list[list[float]] = []
    for row in a:
        lj: list[float] = []
        for lk in low:
            s = row[len(lj)]
            for x, z in zip(lj, lk):
                s -= x * z
            lj.append(s / lk[len(lj)])
        s = row[len(lj)]
        for x in lj:
            s -= x * x
        if not s > 0:
            return None
        lj.append(math.sqrt(s))
        low.append(lj)
    return low


def _solve_factored(low: list[list[float]], b: list[float]) -> list[float]:
    """x with L L^T x = b, from _cholesky's L: L y = b, then L^T x = y."""
    y: list[float] = []
    for lj, bj in zip(low, b):
        s = bj
        for x, z in zip(lj, y):
            s -= x * z
        y.append(s / lj[-1])
    for i in range(len(y) - 1, -1, -1):
        s = y[i]
        for k in range(i + 1, len(y)):
            s -= low[k][i] * y[k]
        y[i] = s / low[i][i]
    return y


def _solve(a: list[list[float]], columns: list[list[float]]):
    """x with a x = b for each b in columns, and the directions a leaves
    free as rows, for a symmetric positive semi-definite a of a few rows:
    none where _cholesky factors a, else eigenvalues <= n eps lambda_max
    span them and x is the minimum-norm solution, with no component along
    them.  A non-finite a raises ValueError there, so LAPACK sees none."""
    low = _cholesky(a)
    if low is not None:
        return [_solve_factored(low, b) for b in columns], []
    if not np.isfinite(a).all():
        raise ValueError(_OUT_OF_RANGE)
    lam, vec = np.linalg.eigh(a)
    free = lam <= len(a) * np.finfo(float).eps * lam[-1]
    kept = vec[:, ~free]
    x = (np.array(columns) @ kept / lam[~free]) @ kept.T
    return x.tolist(), vec[:, free].T.tolist()


def _linear_solve(a: np.ndarray, b: np.ndarray) -> list[float]:
    """x minimising |a x - b| for a tall a of a few columns, as floats.

    The normal equations a^T a x = a^T b are scaled so that each column of
    a has unit norm, which takes cond(a^T a) from 1e10 (fit_tof's columns
    1 and t^2) to below 10, and solved by _solve, which leaves a zero
    column free.  Callers form a and b under np.errstate: an a^T a past
    float range makes _solve raise ValueError, and an a^T b past it raises
    here.
    """
    ata = (a.T @ a).tolist()
    atb = (a.T @ b).tolist()
    if not all(map(math.isfinite, atb)):
        raise ValueError(_OUT_OF_RANGE)
    scale = [1 / math.sqrt(row[i]) if row[i] > 0 else 0.0
             for i, row in enumerate(ata)]
    x = _solve([[si * c * sj for c, sj in zip(row, scale)]
                for row, si in zip(ata, scale)],
               [[si * c for c, si in zip(atb, scale)]])[0][0]
    return [xi * si for xi, si in zip(x, scale)]


def _covariance(gram: list[list[float]], scale: list[float]) -> np.ndarray:
    """The covariance of p from the Gram matrix J^T J of the fitted q, by
    _solve on the unit columns and the delta method d p_i / d q_i =
    scale_i.  A parameter with a component above sqrt(eps) on a direction
    the data leave free gets variance inf and nan covariances (Numerical
    Recipes, 3rd ed., sec. 15.4), the rest the pseudo-inverse's."""
    n = len(gram)
    cov, free = _solve(gram, [[float(i == j) for j in range(n)]
                              for i in range(n)])
    if free:
        cov = np.array(cov)
        undetermined = (np.abs(free) > np.finfo(float).eps ** 0.5).any(axis=0)
        cov[undetermined] = cov[:, undetermined] = math.nan
        cov[undetermined, undetermined] = math.inf
        cov = cov.tolist()
    return np.array([[si * c * sj for c, sj in zip(row, scale)]
                     for row, si in zip(cov, scale)])


def least_squares(model, data: DataSet, initial, bounds=None,
                  names: tuple[str, ...] | None = None,
                  log=()) -> FitResult:
    """Damped Gauss-Newton fit of model(x, p) to the weighted data.

    p reaches model as a list of floats, and model returns (f, jac): f the
    model values, and jac a zero-argument callable that gives d f / d p at
    that p, shape (len(x), len(p)) and in p itself.  The solver applies the
    chain rule for log parameters, and calls jac only for a candidate it
    accepts, so a rejected candidate costs no Jacobian; the Jacobian serves
    the next step and the covariance.  log, if given, holds one flag per
    parameter; a flagged parameter is fitted as log p, which keeps it
    positive.  initial, bounds, the returned values and the covariance are
    all in p itself: _covariance maps the covariance back with the delta
    method d p / d log p = p, and gives a parameter the data cannot
    determine sigma inf.  A flagged initial value must be positive; a
    lower bound of 0 on a flagged parameter is no bound.

    bounds, if given, is a (lower, upper) pair of arrays; a parameter on a
    bound that the descent direction would cross is held for that step, and
    candidate steps are projected onto the box.  A candidate whose cost is
    not finite, or whose log parameter is past exp's float range, costs inf
    and is rejected.  Stops on an accepted step with relative parameter
    change below 1e-9 or relative residual change below 1e-12, or on a
    rejected step smaller than 1e-9 relative (a floating-point minimum);
    after 200 iterations the best-so-far parameters are returned with
    converged = False.

    numpy does the work on arrays of the data's length: the residual, the
    cost, J^T J, J^T r and the Jacobian's scaling.  The n-parameter
    bookkeeping runs on Python floats: the damping, the held rows, the
    step solve (_solve), the projection, the stop tests and the
    covariance.
    """
    n = len(initial)
    flags = [bool(f) for f in log] or [False] * n
    if len(flags) != n:
        raise ValueError("log needs one flag per parameter")
    if len(data) < n + 1:
        raise ValueError("need at least n_parameters + 1 data points")

    def fitted(values):
        # a lower bound of 0 on a log parameter is log 0 = -inf
        return [(math.log(v) if v > 0 else -math.inf) if f else v
                for v, f in zip(map(float, values), flags)]

    def natural(q):
        return [math.exp(v) if f else v for v, f in zip(q, flags)]

    def dp_dq(p):  # d p / d log p = p
        return [v if f else 1.0 for v, f in zip(p, flags)]

    if any(f and not v > 0 for v, f in zip(initial, flags)):
        raise ValueError("log parameters must start positive")
    q = fitted(initial)
    if bounds is not None:
        if any(v < l or v > h for v, l, h in zip(initial, *bounds)):
            raise ValueError("initial parameters outside bounds")
        lo_hi = list(zip(fitted(bounds[0]), fitted(bounds[1])))

    w = 1.0 / data.sigma_y
    minus_w = -w[:, None]

    def evaluate(p):
        f, jac_of = model(data.x, p)
        return jac_of, (data.y - np.asarray(f, float)) * w

    def residual_jacobian(p, jac_of):
        return np.asarray(jac_of(), float) * dp_dq(p) * minus_w

    p = natural(q)
    jac_of, r = evaluate(p)
    if not np.isfinite(r).all():
        raise ValueError("model not evaluable at the initial parameters")
    cost = float(r @ r)
    jac = residual_jacobian(p, jac_of)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        lhs = (jac.T @ jac).tolist()
        rhs = [-v for v in (jac.T @ r).tolist()]
        # Marquardt damping, lam * diag(J^T J)
        for i, row in enumerate(lhs):
            row[i] += lam * (row[i] if row[i] > 0 else 1.0)
        if bounds is not None:
            # a parameter on its bound whose descent leads out of the box is
            # held there, so the others step as if it were fixed
            for i, (qi, (l, h)) in enumerate(zip(q, lo_hi)):
                if (qi <= l and rhs[i] < 0) or (qi >= h and rhs[i] > 0):
                    for row in lhs:
                        row[i] = 0.0
                    lhs[i] = [0.0] * n
                    lhs[i][i] = 1.0
                    rhs[i] = 0.0
        step = _solve(lhs, [rhs])[0][0]
        candidate = [qi + si for qi, si in zip(q, step)]
        if bounds is not None:
            candidate = [min(max(c, l), h)
                         for c, (l, h) in zip(candidate, lo_hi)]
        try:
            pc = natural(candidate)
        except OverflowError:
            # a log parameter past exp's range (about 709) has no float
            # value: a step of infinite cost, rejected as a non-finite one
            cost_c = math.inf
        else:
            jac_of_c, rc = evaluate(pc)
            cost_c = float(rc @ rc)
            if not math.isfinite(cost_c):
                cost_c = math.inf
        dp = max([abs(c - v) / max(abs(v), _STEP_ABS)
                  for c, v in zip(candidate, q)])
        if cost_c <= cost:
            dr = abs(cost - cost_c) / max(cost, 1e-300)
            q, p, r, cost = candidate, pc, rc, cost_c
            jac = residual_jacobian(p, jac_of_c)
            lam /= 3.0
            if dp < _PTOL or dr < _RTOL:
                converged = True
                break
        elif dp < _PTOL:
            # not even a step this small lowers the cost: a minimum to
            # rounding, which more damping would only approach again
            converged = True
            break
        else:
            lam *= 10.0

    names = names or tuple(f"p{i}" for i in range(n))
    return FitResult(names=tuple(names), values=np.array(p),
                     covariance=_covariance((jac.T @ jac).tolist(), dp_dq(p)),
                     residual_norm=math.sqrt(cost),
                     iterations=it, converged=converged)


# --- specific fitting procedures -------------------------------------------


def _segment_integrals(t: np.ndarray, y: np.ndarray):
    """int N dt and int N^2 dt over each interval between samples (t, y).

    N is taken as exponential between an interval's samples a and b:
    int N dt = dt (b - a) / ln(b / a), their logarithmic mean, and
    int N^2 dt = that times (a + b) / 2.  Both are exact for a pure
    exponential decay, where the trapezoid overestimates by about
    (gamma dt)^2 / 12.  ln(b / a) is formed as log1p((b - a) / a), which
    is accurate to rounding however close b is to a.  Where a sample is
    <= 0, or b == a, the interval takes the trapezoid, dt (a + b) / 2 and
    dt (a^2 + b^2) / 2, the exponential rule's limit at b == a.
    """
    a, b = y[:-1], y[1:]
    dt = t[1:] - t[:-1]
    mean = 0.5 * (a + b)
    n1 = mean.copy()
    n2 = 0.5 * (a * a + b * b)
    d = b - a
    log = np.log1p(np.divide(d, a, out=np.zeros_like(a),
                             where=np.minimum(a, b) > 0))
    exponential = log != 0
    np.divide(d, log, out=n1, where=exponential)
    np.multiply(n1, mean, out=n2, where=exponential)
    return n1 * dt, n2 * dt


def _integrated_rows(series: DataSet, minimum: int):
    """Sorted series, t - t0, and 1 / sigma, int N dt and int N^2 dt from
    t0 for the rows after the earliest sample, the rate equation's anchor.
    Raises ValueError unless the samples hold at least `minimum` distinct
    times."""
    if not (series.x[1:] >= series.x[:-1]).all():
        order = np.argsort(series.x)
        series = DataSet(series.x[order], series.y[order],
                         series.sigma_y[order])
    if np.count_nonzero(series.x[1:] != series.x[:-1]) + 1 < minimum:
        raise ValueError(f"need at least {minimum} samples at distinct times")
    t = series.x - series.x[0]
    int_n, int_n2 = map(np.cumsum, _segment_integrals(t, series.y))
    return series, t, 1.0 / series.sigma_y[1:], int_n, int_n2


def fit_loading_rate(series: DataSet) -> float:
    """Loading rate R over the whole curve: with n0 the earliest sample,
    y_i - n0 = R (t_i - t0) - gamma int N dt - k int N^2 dt
    (_integrated_rows) is linear in (R, gamma, k); R is its weighted
    least-squares solution.  An R < 0, which no loading curve gives,
    raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):  # _solve reports it
        series, t, w, int_n, int_n2 = _integrated_rows(series, 4)
        a = np.column_stack([t[1:], -int_n, -int_n2]) * w[:, None]
        rate = _linear_solve(a, (series.y[1:] - series.y[0]) * w)[0]
    if rate < 0:
        raise ValueError(f"the fitted loading rate is negative ({rate:.6g} "
                         "atoms/s): the data are not a loading curve")
    return rate


def fit_kappa(data: DataSet) -> FitResult:
    """Fit the accumulation-efficiency curve for (beta_dd, beta_ed).

    Data abscissa is x = R V_MT / N_MOT^2 (m^3/s), and both x and kappa
    must be > 0.  kappa solves 4 beta_dd kappa^2 + beta_ed kappa = 2 x,
    which is linear in the two coefficients; the fit starts at the
    weighted linear least-squares solution of that equation over the data,
    or at (1e-17, 1e-15) m^3/s if either coefficient comes out <= 0.  Both
    are fitted in log space for positivity, with kappa_fit_model(data.x)
    as the model, which forms 4 x and sqrt(x) once for the fit.  The two
    parameters act on opposite ends of the curve but both suppress kappa,
    so expect strong negative correlation.  A coefficient that ends at 0,
    its log stepped past exp's range, is named in the result's message;
    its sigma is nan.
    """
    if not (data.x > 0).all():
        raise ValueError("abscissa values must be positive")
    if not (data.y > 0).all():
        raise ValueError("kappa values must be positive")
    if len(set(data.x.tolist())) < 3:
        raise ValueError("need at least 3 distinct abscissae")
    with np.errstate(over="ignore", invalid="ignore"):  # _solve reports it
        k, w = data.y, 1.0 / data.sigma_y
        kw = k * w
        betas = _linear_solve(np.column_stack([4 * k * kw, kw]),
                              2 * data.x * w)

    res = least_squares(
        kappa_fit_model(data.x), data,
        betas if all(b > 0 for b in betas) else (1e-17, 1e-15),
        names=("beta_dd", "beta_ed"), log=(True, True))
    # both at 0 leave kappa undefined, which the model raises
    if zero := next((n for n in res.names if res[n] == 0), None):
        res.message = f"{zero} underflows to 0 in its log-space fit"
    return res


def fit_decay(series: DataSet, v: float) -> FitResult:
    """Fit the one- plus two-body decay curve for (gamma, beta_dd).

    v is the occupied volume; n0, N at t0, the earliest sample time, is
    the earliest sample, so the model is decay(n0, gamma, beta_dd, v,
    t - t0).  beta_dd is fitted in log space, gamma linearly with a
    non-negativity bound.
    The rate equation integrated over the samples,
    y_i - n0 = -gamma int N dt - (2 beta_dd / V) int N^2 dt, is linear in
    the two coefficients.  Its integrals take N as exponential between
    neighbouring samples (_segment_integrals), which is exact for a pure
    exponential decay; trapezoids would start gamma about 6 % low on the
    30-sample synthetic grid, whose late intervals are up to 36 s long.
    The weighted least-squares solution, clipped to the bounds, is the
    start, except that a beta_dd <= 0 starts as a two-body loss of 1e-6 of
    the atoms over the record.  A beta_dd that ends on either end of its
    [e^-200, 1] m^3/s box is named in the result's message; converged
    keeps its meaning, and gamma's bound of 0 is a physical one.
    """
    if not v > 0:
        raise ValueError("v must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # _solve reports it
        series, t, w, int_n, int_n2 = _integrated_rows(series, 3)
        y = series.y
        n0 = float(y[0])
        if not n0 > 0:
            raise ValueError("n0 must be positive")
        # n0 - y_i = gamma int N dt + (2 beta n0 / V) int N^2 / n0 dt: the
        # two-body column is scaled by 1 / n0, so both columns are of one
        # magnitude
        a = np.column_stack([int_n, int_n2 / n0]) * w[:, None]
        gamma0, rate2 = _linear_solve(a, (n0 - y[1:]) * w)
    if not rate2 > 0:
        # no two-body loss resolved: start where it would remove 1e-6 of
        # the atoms over the record, not on the floor, where the model
        # does not depend on beta_dd and the first step overshoots
        rate2 = 1e-6 / t[-1]
    beta_min = math.exp(-200.0)
    beta0 = min(max(rate2 * v / (2 * n0), beta_min), 1.0)

    res = least_squares(
        decay_fit_model(n0, v, t), series, [max(gamma0, 0.0), beta0],
        bounds=([0.0, beta_min], [math.inf, 1.0]),
        names=("gamma", "beta_dd"), log=(False, True))
    # the box holds log beta_dd, which the solver clips to the log of an end
    if end := {math.log(beta_min): "lower", 0.0: "upper"}.get(
            math.log(res["beta_dd"])):
        res.message = f"beta_dd ends on the {end} bound of its fit range"
    return res


def fit_tof(series: DataSet, species: Species) -> FitResult:
    """Time-of-flight thermometry: sigma^2(t) = sigma0^2 + (kT/m) t^2.

    Exact weighted linear solve in t^2, no iteration.  The radii must be
    > 0, since the fit squares them.  A negative fitted sigma0^2 is
    flagged as degenerate; the temperature is still returned.  A negative
    slope, radii that shrink as the cloud expands, raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # _solve reports it
        u = series.x ** 2
        if not np.isfinite(u).all():
            raise ValueError(_OUT_OF_RANGE)
        if len(set(u.tolist())) < 2:
            raise ValueError("need at least 2 distinct expansion times")
        if not (series.y > 0).all():
            raise ValueError("expansion radii must be positive")
        v = series.y ** 2
        # var(sigma^2) = (2 sigma sigma_err)^2
        w = 1.0 / np.maximum(2.0 * series.y * series.sigma_y, 1e-300)
        a = np.column_stack([np.ones_like(u), u]) * w[:, None]
        intercept, slope = _linear_solve(a, v * w)
    if slope < 0:
        raise ValueError("the fitted temperature is negative: the radii "
                         "shrink as the cloud expands")
    temperature = species.mass * slope / BOLTZMANN
    degenerate = intercept < 0
    sigma0 = math.sqrt(max(intercept, 0.0))
    # Delta method: d sigma0 / d intercept = 1 / (2 sigma0).
    d0 = 1.0 / (2 * sigma0) if sigma0 > 0 else 0.0
    resid = (v - (intercept + slope * u)) * w
    return FitResult(names=("sigma0", "temperature"),
                     values=np.array([sigma0, temperature]),
                     covariance=_covariance((a.T @ a).tolist(),
                                            [d0, species.mass / BOLTZMANN]),
                     residual_norm=float(np.linalg.norm(resid)),
                     iterations=1, converged=True,
                     message="degenerate: fitted sigma0^2 < 0" if degenerate else "")


def fit_column_profile(y: np.ndarray, z: np.ndarray, image: np.ndarray,
                       species: Species, trap: IpTrapConfig) -> FitResult:
    """Fit the projected trap profile for (n0, temperature, center_y, center_z).

    y, z are the grid coordinate vectors (m) and image the column density
    sampled on their outer product, shape (len(y), len(z)); the model is
    cloud.column_profile_model.  The fit starts at 100 uK, from
    make_thermal_cloud's cloud: a trap whose cloud is out of range there
    is named by B' and B'' alone, since no config key sets that T.  An
    image whose peak puts the model or its Jacobian at that start past
    float range raises ValueError.

    A fitted centre outside the grid's y and z range raises ValueError:
    beyond the image, n0 and the centre trade off along the cloud's
    exponential tail, and the fit can follow that tail to a cloud metres
    away with n0 near the float limit.
    """
    y = np.asarray(y, float)
    z = np.asarray(z, float)
    image = np.asarray(image, float)
    if image.shape != (y.size, z.size):
        raise ValueError("image shape must be (len(y), len(z))")

    peak = float(np.max(image))
    if peak <= 0:
        raise ValueError("image contains no signal")

    t_guess = 100e-6
    try:
        xi1_guess = make_thermal_cloud(species, trap, 1.0, t_guess).xi1
    except CloudRangeError as exc:
        raise ModelInputError(str(exc), "radial_gradient",
                              "axial_curvature") from None
    model = column_profile_model(species, trap, y, z)
    start = [peak / (2 * xi1_guess), t_guess, 0.0, 0.0]
    # the Jacobian divides f by T, xi1 and sigma_z, so it leaves float
    # range about four decades of peak before the model does
    with np.errstate(over="ignore", invalid="ignore"):
        f, jac = model(None, start)
        finite = np.isfinite(f).all() and np.isfinite(jac()).all()
    if not finite:
        raise ValueError(f"the image's peak ({peak:.6g}) is out of float "
                         "range for the profile fit")
    flat = DataSet(np.arange(image.size, dtype=float), image.ravel(),
                   np.full(image.size, max(peak * 1e-3, 1e-300)))
    res = least_squares(model, flat, start,
                        names=("n0", "temperature", "center_y", "center_z"),
                        log=(True, True, False, False))
    y0, z0 = res["center_y"], res["center_z"]
    if not (y.min() <= y0 <= y.max() and z.min() <= z0 <= z.max()):
        raise ValueError(f"the fitted cloud centre (y = {y0 * 1e3:.6g} mm, "
                         f"z = {z0 * 1e3:.6g} mm) lies outside the image")
    return res
