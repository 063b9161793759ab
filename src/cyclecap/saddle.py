"""Saddle-point and tilt equations.

For a weight row q_1..q_alpha the tilt x_{n,q} is the unique positive root of

    F(x) = sum_j q_j x^j = n,

found by bracketed bisection on log x followed by Newton polish (the map is
strictly increasing and smooth, so Newton is safe once bracketed). x < 1 is
permitted at small n; no x >= 1 assumption is imposed anywhere.

Derived quantities at the root:

    lambda_p = sum_j q_j j^(p-1) x^j   (p = 1, 2, 3;  lambda_1 = n by definition)
    lambda_0 = sum_j (q_j / j) x^j
    mu_m     = theta x^m / m           (expected m-cycle count, constant rows)

Closed-form leading-order asymptotics for the constant row q_j = theta,
target c*n:

    alpha * log x(c)  ~  log( (cn/(theta*alpha)) * log(cn/(theta*alpha)) )
    lambda_2          ~  c * n * alpha / theta

The module also houses admissibility diagnostics, the leading saddle-point
coefficient approximation

    [z^n] f(z) exp(sum_j (q_j/j) z^j)  ~=  f(x) e^lambda_0 / (x^n sqrt(2 pi lambda_2)),

and the h(s) calculus used by the central-limit checks. Exact quantities
live in `exact`, which builds on this module; nothing here imports `exact`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConstraintError,
    DegenerateWeightsError,
    DomainError,
    NumericalError,
    RegimeError,
)
from .model import ConstraintModel, WeightArray
from .numerics import NEG_INF, LogReal, log_sum_exp_value

_RESIDUAL_TOL = 1e-12
_NEWTON_MAX_ITER = 80
# mu_alpha below lo is Vanishing, above hi Diverging, in between Critical.
_REGIME_THRESHOLDS = (0.1, 10.0)


@dataclass(frozen=True)
class SaddleSolution:
    """Tilt x with its residual and the lambda_0..lambda_3 sums (as logs)."""

    x: float
    residual: float
    log_lambdas: tuple
    q: WeightArray
    n: float

    def lambda_value(self, p: int) -> float:
        return math.exp(self.log_lambdas[p])


@dataclass(frozen=True)
class RegimeReport:
    """Exact mu_alpha and its heuristic label at the thresholds (lo, hi)."""

    mu_alpha: float
    classification: str
    thresholds: tuple


@dataclass(frozen=True)
class FunctionProbe:
    """A prefactor f of a coefficient [z^n] f(z) e^g(z), given by its value at the tilt."""

    value: Callable


CONSTANT_ONE = FunctionProbe(value=lambda z: 1.0)


def power_probe(r: int) -> FunctionProbe:
    return FunctionProbe(value=lambda z: z**r)


def _log_f_at(logq: np.ndarray, j: np.ndarray, t: float) -> float:
    """log F(e^t) = log sum q_j e^(j t)."""
    return log_sum_exp_value(logq + j * t)


def _log_lambda(logq: np.ndarray, j: np.ndarray, t: float, p: int) -> float:
    """log lambda_p at x = e^t; p = 0 uses q_j/j, p >= 1 uses q_j j^(p-1)."""
    if p == 0:
        return log_sum_exp_value(logq - np.log(j) + j * t)
    return log_sum_exp_value(logq + (p - 1) * np.log(j) + j * t)


def solve_saddle(q: WeightArray, n: float) -> SaddleSolution:
    """Unique positive root of sum_j q_j x^j = n, relative residual <= 1e-12."""
    if q.is_degenerate:
        raise DegenerateWeightsError("all weights are zero")
    if not (0 < n < math.inf):
        raise DomainError(f"saddle target must be positive and finite, got {n}")
    mask = q.q > 0
    j = np.nonzero(mask)[0].astype(float) + 1.0
    logq = np.log(q.q[mask])
    logn = math.log(n)

    # Bracket in t = log x. F(e^t) is strictly increasing with range (0, inf).
    lo, hi = -1.0, 1.0
    while _log_f_at(logq, j, lo) > logn:
        lo *= 2.0
        if lo < -1400:
            raise NumericalError("saddle bracket search ran away (lower)")
    while _log_f_at(logq, j, hi) < logn:
        hi *= 2.0
        if hi > 1400:
            raise NumericalError("saddle bracket search ran away (upper)")

    # Bisection to a loose tolerance, then Newton on g(t) = log F(e^t) - log n.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _log_f_at(logq, j, mid) < logn:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-3:
            break
    t = 0.5 * (lo + hi)
    # Near the root g is rounding noise of a few ulps of log n, and Newton can
    # step between adjacent t forever; there it stops once |g| no longer
    # shrinks, keeping the better iterate.
    noise = 4.0 * math.ulp(logn)
    best_t, best_g = t, math.inf
    for _ in range(_NEWTON_MAX_ITER):
        log_f = _log_f_at(logq, j, t)
        g = log_f - logn
        if abs(g) >= abs(best_g) and abs(g) <= noise:
            break
        best_t, best_g = t, g
        if abs(g) < 1e-15:
            break
        # g'(t) = lambda_2-type mean: sum q j e^(jt) / sum q e^(jt)
        slope = math.exp(_log_lambda(logq, j, t, 2) - log_f)
        step = g / slope
        t_new = t - step
        t_new = min(max(t_new, lo), hi)  # stay bracketed
        if t_new == t:
            break
        t = t_new
    t = best_t

    residual = math.expm1(best_g)
    if abs(residual) > _RESIDUAL_TOL:
        raise NumericalError(f"saddle residual {residual:.3e} exceeds {_RESIDUAL_TOL}")
    log_lambdas = tuple(_log_lambda(logq, j, t, p) for p in range(4))
    return SaddleSolution(x=math.exp(t), residual=residual, log_lambdas=log_lambdas, q=q, n=n)


# One entry, as for exact._build_tilted, which reads it: a command asks for
# one model's tilt several times in a row.
@functools.lru_cache(maxsize=1)
def _model_solution(n: int, alpha: int, theta: float) -> SaddleSolution:
    """The tilt of the constant row q_j = theta, j <= alpha, with target n."""
    q = WeightArray.constant(theta, alpha)
    q.q.setflags(write=False)  # the cached solution is shared
    return solve_saddle(q, float(n))


def solve_model_saddle(model: ConstraintModel, c: float = 1.0) -> SaddleSolution:
    """Tilt of the constant row q_j = theta with target c*n (solved once per model at c = 1)."""
    if c == 1.0:
        return _model_solution(model.n, model.alpha, model.theta)
    return solve_saddle(WeightArray.for_model(model), c * model.n)


def mu(sol: SaddleSolution, theta: float, m: int) -> float:
    """mu_m = theta x^m / m; in logs where x^m alone overflows (theta tiny, x huge)."""
    if not (1 <= m <= sol.q.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={sol.q.alpha}, got {m}")
    log_power = m * math.log(sol.x)
    try:
        return theta * math.exp(log_power) / m
    except OverflowError:
        return math.exp(math.log(theta) + log_power - math.log(m))


def mu_alpha_of(model: ConstraintModel) -> float:
    sol = solve_model_saddle(model)
    return mu(sol, model.theta, model.alpha)


@dataclass(frozen=True)
class AsymptoticTilt:
    x: float
    lambda2: float


def asymptotic_x(c: float, n: float, alpha: int, theta: float) -> AsymptoticTilt:
    """Leading-order tilt exp(log((cn/ta)log(cn/ta))/alpha) and lambda_2 ~ cn*alpha/theta.

    Intended regime is cn/(theta*alpha) > e; anything with
    (cn/ta)*log(cn/ta) <= 1 is refused because the outer log would not be
    positive.
    """
    v = c * n / (theta * alpha)
    if v <= 1.0 or v * math.log(v) <= 1.0:
        raise RegimeError(f"asymptotic tilt undefined: (cn/(theta*alpha))*log(...) <= 1 (cn/ta = {v:.4g})")
    return AsymptoticTilt(
        x=math.exp(math.log(v * math.log(v)) / alpha),
        lambda2=c * n * alpha / theta,
    )


def regime_report(model: ConstraintModel) -> RegimeReport:
    """Classify the model by exact mu_alpha against the thresholds (0.1, 10).

    The classification is a finite-n heuristic (the regimes are asymptotic
    statements); the thresholds are reported alongside the label.
    """
    lo, hi = _REGIME_THRESHOLDS
    m = mu_alpha_of(model)
    if m < lo:
        label = "Vanishing"
    elif m > hi:
        label = "Diverging"
    else:
        label = "Critical"
    return RegimeReport(mu_alpha=m, classification=label, thresholds=_REGIME_THRESHOLDS)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Finite-n ratios behind the admissibility conditions; no verdict.

    Admissibility is an asymptotic property, so only the raw ratios are
    emitted for inspection against whatever band the caller cares about.
    """

    alpha_log_x: float
    log_n_over_alpha: float
    saddle_ratio: float
    lambda2_over_n_alpha: float
    x: float


def admissibility_report(sol: SaddleSolution) -> AdmissibilityReport:
    """Ratios alpha*log(x)/log(n/alpha) and lambda_2/(n*alpha), with x itself.

    Read at the solved tilt sol of the row sol.q with target sol.n.
    """
    n, alpha = sol.n, sol.q.alpha
    alpha_log_x = alpha * math.log(sol.x)
    log_ratio = math.log(n / alpha) if n > alpha else float("nan")
    return AdmissibilityReport(
        alpha_log_x=alpha_log_x,
        log_n_over_alpha=log_ratio,
        saddle_ratio=alpha_log_x / log_ratio if log_ratio and not math.isnan(log_ratio) else float("nan"),
        lambda2_over_n_alpha=sol.lambda_value(2) / (n * alpha),
        x=sol.x,
    )


def saddle_point_coefficient(sol: SaddleSolution, f: Optional[FunctionProbe] = None) -> LogReal:
    """log of the leading term f(x) e^lambda_0 / (x^n sqrt(2 pi lambda_2)).

    Read at the solved tilt sol of the row sol.q with target n = sol.n. Only
    the leading term; error diagnostics live in admissibility_report.
    Refused when alpha >= n (outside the regime where the approximation is
    meaningful).
    """
    n = sol.n
    if sol.q.alpha >= n:
        raise RegimeError(f"saddle-point approximation needs alpha < n, got alpha={sol.q.alpha}, n={n:.17g}")
    log_lambda2 = sol.log_lambdas[2]
    if log_lambda2 == NEG_INF:
        raise DegenerateWeightsError("lambda_2 = 0: degenerate weight row")
    probe = f if f is not None else CONSTANT_ONE
    fx = probe.value(sol.x)
    if fx <= 0:
        raise NumericalError(f"prefactor must be positive at the tilt, got f(x) = {fx}")
    logval = (
        math.log(fx)
        + math.exp(sol.log_lambdas[0])
        - n * math.log(sol.x)
        - 0.5 * (math.log(2 * math.pi) + log_lambda2)
    )
    return LogReal(logval)


def _perturbed_row(model: ConstraintModel, m: int, log_factor: float) -> WeightArray:
    """The model's row with q_m = theta * e^log_factor, for 1 <= m <= alpha.

    A weight past double range raises NumericalError.
    """
    try:
        q_m = model.theta * math.exp(log_factor)
    except OverflowError:
        q_m = math.inf
    if q_m == math.inf:
        raise NumericalError(f"q_{m} = theta * e^{log_factor:.6g} exceeds double range")
    return WeightArray.for_model(model).replace(m, q_m)


@dataclass(frozen=True)
class HCalculus:
    """h(s) and its first three derivatives at the s-dependent tilt."""

    s: float
    x_s: float
    h: float
    h1: float
    h2: float
    h3: float
    x_prime_over_x: float
    mu_m: float


def clt_h_calculus(model: ConstraintModel, m: int, s: float) -> HCalculus:
    """Solve the s-tilt equation and evaluate h, h', h'', h'''.

    The tilt x(s) solves n = theta(e^(s/sqrt(mu)) - 1) x^m + theta sum_j x^j,
    i.e. the saddle equation for the row with q_m = theta e^(s/sqrt(mu)).
    With E = theta e^(s/sqrt(mu)) x^m and lambda_p taken at the perturbed row:

        h    = lambda_0(s) - n log x(s)
        h'   = E / (m sqrt(mu))
        h''  = h'/sqrt(mu) - m^2 h'^2 / lambda_2
        h''' = h''/sqrt(mu) - (2 m^2/lambda_2) h' h''
               + (m^2 h'^2 / lambda_2^2) * (m^2 h' + lambda_3 x'/x)
        x'/x = -E / (sqrt(mu) lambda_2) = -m h' / lambda_2

    mu = mu_m is fixed at the unperturbed (s = 0) tilt. Negative s is accepted
    (the equation stays well-posed); the limit statements hold for s >= 0.
    At s = 0 the perturbed row is the model's own, whose solution is reused.
    A non-finite s is refused with DomainError. A mu_m that underflows to 0,
    and an s whose perturbed weight theta e^(s/sqrt(mu)) exceeds double
    range, raise NumericalError.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    sol = solve_model_saddle(model)
    mu_m = mu(sol, model.theta, m)
    if mu_m == 0.0:
        raise NumericalError(f"mu_{m} underflows to 0 at the tilt x = {sol.x:.6g}")
    sqrt_mu = math.sqrt(mu_m)
    q_pert = _perturbed_row(model, m, s / sqrt_mu)
    if s != 0:
        try:
            sol = solve_saddle(q_pert, float(model.n))
        except NumericalError as e:
            raise NumericalError(f"s-tilt root finder failed at s={s}: {e}")
    x = sol.x
    lambda2 = sol.lambda_value(2)
    lambda3 = sol.lambda_value(3)
    q_m = float(q_pert.q[m - 1])
    try:
        e_term = q_m * x**m
    except OverflowError:  # q_m x^m is finite where x^m alone overflows
        e_term = math.exp(math.log(q_m) + m * math.log(x))
    h = math.exp(sol.log_lambdas[0]) - model.n * math.log(x)
    h1 = e_term / (m * sqrt_mu)
    h2 = h1 / sqrt_mu - (m**2) * h1**2 / lambda2
    x_ratio = -e_term / (sqrt_mu * lambda2)
    lambda2_prime = m**2 * h1 + lambda3 * x_ratio
    h3 = h2 / sqrt_mu - (2 * m**2 / lambda2) * h1 * h2 + (m**2 * h1**2 / lambda2**2) * lambda2_prime
    return HCalculus(s=s, x_s=x, h=h, h1=h1, h2=h2, h3=h3, x_prime_over_x=x_ratio, mu_m=mu_m)
