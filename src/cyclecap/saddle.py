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

The module also houses the two-root equation theta*e^(alpha*y) = n*y, the
b-truncated tilt n = theta * sum_{j=b+1}^alpha x^j, admissibility diagnostics,
the leading saddle-point coefficient approximation

    [z^n] f(z) exp(sum_j (q_j/j) z^j)  ~=  f(x) e^lambda_0 / (x^n sqrt(2 pi lambda_2)),

and the h(s) calculus used by the central-limit checks. Exact quantities,
the moment generating function of C_m included, live in `exact`, which builds
on this module; nothing here imports `exact`.
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

    @property
    def lambdas(self) -> tuple:
        return tuple(LogReal(v) for v in self.log_lambdas)


@dataclass(frozen=True)
class RegimeReport:
    """Exact mu_alpha, its n*log(n)/alpha^2 comparator, and a heuristic label."""

    mu_alpha: float
    approx: float
    classification: str
    thresholds: tuple


@dataclass(frozen=True)
class TruncatedSaddle:
    """Root of the b-truncated equation plus the sandwiching full-row tilts."""

    x: float
    x_full: float
    x_reduced: float
    residual: float
    sandwich_ok: bool


@dataclass(frozen=True)
class FunctionProbe:
    """A prefactor f described by value/derivative evaluators (complex-capable)."""

    value: Callable
    derivative: Callable
    name: str = "f"


CONSTANT_ONE = FunctionProbe(value=lambda z: 1.0, derivative=lambda z: 0.0, name="1")


def power_probe(r: int) -> FunctionProbe:
    return FunctionProbe(value=lambda z: z**r, derivative=lambda z: r * z ** (r - 1), name=f"z^{r}")


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
    for _ in range(_NEWTON_MAX_ITER):
        g = _log_f_at(logq, j, t) - logn
        if abs(g) < 1e-15:
            break
        # g'(t) = lambda_2-type mean: sum q j e^(jt) / sum q e^(jt)
        slope = math.exp(_log_lambda(logq, j, t, 2) - _log_f_at(logq, j, t))
        step = g / slope
        t_new = t - step
        t_new = min(max(t_new, lo), hi)  # stay bracketed
        if t_new == t:
            break
        t = t_new

    residual = math.expm1(_log_f_at(logq, j, t) - logn)
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
    """mu_m = theta x^m / m."""
    if not (1 <= m <= sol.q.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={sol.q.alpha}, got {m}")
    return theta * math.exp(m * math.log(sol.x)) / m


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


def solve_y(n: float, alpha: int, theta: float) -> tuple:
    """Both roots 0 < y0 <= y of theta * e^(alpha*y) = n*y.

    Equivalent to phi(y) = alpha*y - log(y) = log(n/theta); phi has its minimum
    1 + log(alpha) at y* = 1/alpha, so roots exist iff n/(theta*alpha) >= e.
    Bisection plus Newton on each monotone branch; relative residuals <= 1e-12.
    """
    target = math.log(n / theta)
    ystar = 1.0 / alpha
    phi_min = 1.0 + math.log(alpha)
    gap = target - phi_min
    if gap < -1e-12:
        raise RegimeError(f"no real roots: n/(theta*alpha) = {n/(theta*alpha):.6g} < e")
    if gap <= 1e-12:
        return (ystar, ystar)

    def phi(y):
        return alpha * y - math.log(y)

    def solve_branch(lo, hi, increasing):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (phi(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-6 * max(abs(lo), 1e-12):
                break
        y = 0.5 * (lo + hi)
        for _ in range(_NEWTON_MAX_ITER):
            g = phi(y) - target
            slope = alpha - 1.0 / y
            if slope == 0.0:
                break
            y_new = y - g / slope
            y_new = min(max(y_new, lo), hi)
            if y_new == y or abs(g) < 1e-15:
                break
            y = y_new
        return y

    # Lower branch: phi decreasing on (0, 1/alpha].
    lo = ystar
    while phi(lo) < target:
        lo /= 2.0
        if lo < 1e-300:
            raise NumericalError("lower-branch bracket underflow")
    y0 = solve_branch(lo, ystar, increasing=False)

    # Upper branch: phi increasing on [1/alpha, inf).
    hi = max(2.0 * ystar, 1e-8)
    while phi(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise NumericalError("upper-branch bracket overflow")
    y = solve_branch(ystar, hi, increasing=True)

    for root in (y0, y):
        resid = abs(theta * math.exp(alpha * root) - n * root) / (n * root)
        if resid > 1e-10:
            raise NumericalError(f"two-root residual {resid:.3e} too large")
    return (y0, y)


def solve_truncated_saddle(n: float, alpha: int, b: int, theta: float) -> TruncatedSaddle:
    """Root of n = theta * sum_{j=b+1}^alpha x^j, with the sandwich report.

    x_{n,alpha} <= x_n holds unconditionally (fewer positive terms need a
    larger tilt); x_n <= x_{n,alpha-b} additionally needs x >= 1, so the
    sandwich is reported, not asserted.
    """
    if not (0 <= b < alpha):
        raise ConstraintError(f"need 0 <= b < alpha, got b={b}, alpha={alpha}")
    qvec = np.full(alpha, theta)
    qvec[:b] = 0.0
    sol = solve_saddle(WeightArray(qvec), n)
    x_full = solve_saddle(WeightArray.constant(theta, alpha), n).x
    x_reduced = solve_saddle(WeightArray.constant(theta, alpha - b), n).x if b > 0 else x_full
    ok = x_full <= sol.x * (1 + 1e-12) and sol.x <= x_reduced * (1 + 1e-12)
    return TruncatedSaddle(x=sol.x, x_full=x_full, x_reduced=x_reduced, residual=sol.residual, sandwich_ok=ok)


def regime_report(model: ConstraintModel, thresholds: tuple = (0.1, 10.0)) -> RegimeReport:
    """Classify the model by exact mu_alpha against user thresholds.

    The classification is a finite-n heuristic (the regimes are asymptotic
    statements); the thresholds are reported alongside the label.
    """
    lo, hi = thresholds
    if not (0 < lo < hi):
        raise ConstraintError(f"thresholds must satisfy 0 < lo < hi, got {thresholds}")
    m = mu_alpha_of(model)
    approx = model.n * math.log(model.n) / model.alpha**2
    if m < lo:
        label = "Vanishing"
    elif m > hi:
        label = "Diverging"
    else:
        label = "Critical"
    return RegimeReport(mu_alpha=m, approx=approx, classification=label, thresholds=(lo, hi))


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
    min_tail_weight: float
    probe_norm: float
    x: float


def admissibility_report(
    q: WeightArray,
    n: float,
    f_probe: Optional[FunctionProbe] = None,
    b: int = 0,
    phi_grid: int = 41,
) -> AdmissibilityReport:
    """Ratios alpha*log(x)/log(n/alpha), lambda_2/(n*alpha), tail min q_j, |||f|||_n.

    The probe norm is delta * sup_{|phi| <= delta} |f'(x e^(i phi))| / |f(x)|
    with delta = n^(-5/12) alpha^(-7/12), the sup taken over a uniform grid of
    phi_grid points (engineering choice; the probes in scope are smooth).
    """
    sol = solve_saddle(q, n)
    alpha = q.alpha
    alpha_log_x = alpha * math.log(sol.x)
    log_ratio = math.log(n / alpha) if n > alpha else float("nan")
    lambda2 = sol.lambda_value(2)
    tail = q.q[b:] if b < alpha else q.q[-1:]
    probe = f_probe if f_probe is not None else CONSTANT_ONE
    delta = n ** (-5.0 / 12.0) * alpha ** (-7.0 / 12.0)
    f_at_x = abs(probe.value(sol.x))
    if f_at_x == 0:
        norm = float("inf")
    else:
        phis = np.linspace(-delta, delta, phi_grid)
        sup = max(abs(probe.derivative(sol.x * complex(math.cos(p), math.sin(p)))) for p in phis)
        norm = delta * sup / f_at_x
    return AdmissibilityReport(
        alpha_log_x=alpha_log_x,
        log_n_over_alpha=log_ratio,
        saddle_ratio=alpha_log_x / log_ratio if log_ratio and not math.isnan(log_ratio) else float("nan"),
        lambda2_over_n_alpha=lambda2 / (n * alpha),
        min_tail_weight=float(np.min(tail)),
        probe_norm=norm,
        x=sol.x,
    )


def saddle_point_coefficient(q: WeightArray, n: int, f: Optional[FunctionProbe] = None) -> LogReal:
    """log of the leading term f(x) e^lambda_0 / (x^n sqrt(2 pi lambda_2)).

    Only the leading term; error diagnostics live in admissibility_report.
    Refused when alpha >= n (outside the regime where the approximation is
    meaningful).
    """
    if q.alpha >= n:
        raise RegimeError(f"saddle-point approximation needs alpha < n, got alpha={q.alpha}, n={n}")
    sol = solve_saddle(q, float(n))
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


def _perturbed_row(model: ConstraintModel, m: int, factor: float) -> WeightArray:
    if not (1 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={model.alpha}, got {m}")
    return WeightArray.for_model(model).replace(m, model.theta * factor)


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
    A non-finite s is refused with DomainError.
    """
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    base = solve_model_saddle(model)
    mu_m = mu(base, model.theta, m)
    sqrt_mu = math.sqrt(mu_m)
    q_pert = _perturbed_row(model, m, math.exp(s / sqrt_mu))
    try:
        sol = solve_saddle(q_pert, float(model.n))
    except NumericalError as e:
        raise NumericalError(f"s-tilt root finder failed at s={s}: {e}")
    x = sol.x
    lambda2 = sol.lambda_value(2)
    lambda3 = sol.lambda_value(3)
    e_term = model.theta * math.exp(s / sqrt_mu) * x**m
    h = math.exp(sol.log_lambdas[0]) - model.n * math.log(x)
    h1 = e_term / (m * sqrt_mu)
    h2 = h1 / sqrt_mu - (m**2) * h1**2 / lambda2
    x_ratio = -e_term / (sqrt_mu * lambda2)
    lambda2_prime = m**2 * h1 + lambda3 * x_ratio
    h3 = h2 / sqrt_mu - (2 * m**2 / lambda2) * h1 * h2 + (m**2 * h1**2 / lambda2**2) * lambda2_prime
    return HCalculus(s=s, x_s=x, h=h, h1=h1, h2=h2, h3=h3, x_prime_over_x=x_ratio, mu_m=mu_m)
