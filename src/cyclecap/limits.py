"""Limit theorems turned into runnable statistical checks.

The three regimes are driven by mu_alpha = theta * x^alpha / alpha:

  * Diverging (mu_alpha -> infinity): the K longest cycles all pin to the
    ceiling alpha; checked as an empirical fraction.
  * Critical (mu_alpha -> mu in (0, infinity)): alpha - ell_k converges to
    the floor of a Gamma(k)/mu variable; checked as a TV distance against
    gamma_floor_pmf.
  * Vanishing (mu_alpha -> 0): the count P_t of cycles longer than
    d_t = max(alpha - floor(t/mu_alpha), 0) converges to a rate-1 Poisson
    process; checked through increment chi-squares, increment correlations,
    KS tests of mu_alpha*(alpha - ell_1) and of the scaled spacings
    mu_alpha*(ell_k - ell_{k+1}) against Exp(1), and the fourth-moment
    tightness estimate E[(P_t-P_t1)^2 (P_t2-P_t)^2].

Every battery refuses to run when the exact finite-n mu_alpha contradicts its
theorem's hypothesis, as classified by `saddle.regime_report` at its
thresholds (0.1, 10). Finite-n comparisons always use the exact mu_alpha,
which is the better-calibrated parameter at any fixed n and converges to the
limiting one.

The limits are statements along n, and a battery run at one fixed n measures
the finite-n law. In the vanishing regime that law differs from a rate-1
Poisson process by O(alpha/n): the constraint sum_j j*C_j = n makes disjoint
increments negatively correlated (about -0.7*alpha/n), and the cycle intensity
decays across the window, which leaves the increment means short of their
widths by the same order. A single-n run therefore rejects once its draws
resolve O(alpha/n), and the limit theorem shows up as deviations that shrink
with n. Likewise the normal limit of C_m needs mu_m -> infinity; where mu_m
stays bounded or falls, the standardized law does not approach N(0,1).

A sample batch is a sequence of integer arrays, each the cycle lengths of one
sample: the form `sampler.sample_lengths` returns.

Every battery validates its samples against the model: each cycle length is
an integer in 1..alpha and each sample's lengths sum to n.

The batteries take every distribution they need from scipy.special: the
Poisson pmf and tail, the chi-square tail, the normal CDF, and the exact
two-sided KS law (cyclecap._kolmogorov). They never import scipy's
statistics subpackage, whose import alone costs several times their work.
scipy.special is imported inside the functions that use it, on their first
call: importing this module, or the package, loads numpy and nothing from
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NumericalError, RegimeError
from .exact import cycle_count_distribution, expected_cycle_count
from .model import ConstraintModel
from .saddle import mu, regime_report, solve_model_saddle
from .saddle import mu_alpha_of  # noqa: F401  (perfbench/tests check the tracer rebinds it here)
from .sampler import sample_lengths

_SIGNIFICANCE = 0.001
_MIN_EXPECTED = 5.0
_EXACT_LAW_MAX_N = 10_000  # clt_battery adds the exact law's KS distance up to this n
_CLT_MU_THRESHOLD = 5.0  # clt_battery's proxy for the hypothesis mu_m -> infinity


# ---------------------------------------------------------------------------
# batch top-K and the counting process


def d_cutoff(t: float, mu_alpha: float, alpha: int) -> int:
    """d_t = max(alpha - floor(t / mu_alpha), 0); 0 also where t / mu_alpha overflows."""
    if not (0 <= t < math.inf):
        raise DomainError(f"process time must be finite and >= 0, got {t}")
    if not (mu_alpha > 0):
        raise DomainError(f"mu_alpha must be positive, got {mu_alpha}")
    ratio = float(t) / float(mu_alpha)  # inf past double range, without numpy's warning
    return 0 if ratio >= alpha else alpha - int(math.floor(ratio))


def _validated_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) == 0:
        raise DomainError("grid must be a nonempty one-dimensional array")
    if not np.all(np.isfinite(g)):
        raise DomainError("grid values must be finite")
    if np.any(g < 0) or (len(g) > 1 and np.any(np.diff(g) <= 0)):
        raise DomainError("grid must be nonnegative and strictly increasing")
    return g


def _cutoffs(grid: np.ndarray, mu_alpha: float, alpha: int) -> np.ndarray:
    """d_t for every t of a validated grid."""
    return np.array([d_cutoff(t, mu_alpha, alpha) for t in grid], dtype=np.int64)


def _flatten(samples: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, flat): every cycle length of a batch and the index of its sample."""
    lengths = [np.asarray(s) for s in samples]
    # int32 halves this copy of the batch; a batch never holds 2^31 samples.
    owner = np.repeat(np.arange(len(lengths), dtype=np.int32), [len(x) for x in lengths])
    flat = np.concatenate(lengths) if lengths else np.zeros(0, dtype=np.int64)
    return owner, flat


def _checked_flatten(samples: Sequence, model: ConstraintModel) -> Tuple[np.ndarray, np.ndarray]:
    """_flatten of a nonempty batch whose every sample is a cycle type of the model."""
    if len(samples) == 0:
        raise DomainError("empty sample batch")
    owner, flat = _flatten(samples)
    starts = np.searchsorted(owner, np.arange(len(samples), dtype=owner.dtype))
    empty = np.flatnonzero(np.diff(starts, append=len(flat)) == 0)
    if len(empty):
        raise DomainError(f"sample {int(empty[0])} has no cycles")
    if not np.issubdtype(flat.dtype, np.integer):
        raise DomainError(f"cycle lengths must be integers, got dtype {flat.dtype}")
    if flat.min() < 1 or flat.max() > model.alpha:
        raise DomainError(f"cycle lengths must lie in 1..alpha = {model.alpha}")
    sums = np.add.reduceat(flat, starts)
    wrong = np.flatnonzero(sums != model.n)
    if len(wrong):
        i = int(wrong[0])
        raise DomainError(f"the cycle lengths of sample {i} sum to {sums[i]}, not n = {model.n}")
    return owner, flat


def _top_lengths(owner: np.ndarray, flat: np.ndarray, count: int, K: int) -> np.ndarray:
    """Row i: the K longest cycles of sample i of a flattened batch, zero-padded."""
    if len(flat) == 0:
        return np.zeros((count, K), dtype=np.int64)
    sizes = np.bincount(owner, minlength=count)
    span = int(flat.max()) + 1
    # owner is nondecreasing, so sorting by (sample, longest first) keeps every
    # sample's cycles at its own positions, and the key decodes to the length.
    key = owner.astype(np.int64)
    key *= span
    key -= flat.astype(np.int64, copy=False)
    key.sort()
    rank = np.arange(K)
    first = np.cumsum(sizes) - sizes
    pos = np.minimum(first[:, None] + rank, len(key) - 1)
    top = np.arange(count, dtype=np.int64)[:, None] * span - key[pos]
    top[rank >= sizes[:, None]] = 0
    return top


def _counts_longer(owner: np.ndarray, flat: np.ndarray, count: int, d: np.ndarray) -> np.ndarray:
    """Counts of cycles longer than each cutoff: one row per sample, one column per d."""
    counts = np.empty((count, len(d)), dtype=np.int64)
    for col, dv in enumerate(d):
        counts[:, col] = np.bincount(owner[flat > dv], minlength=count)
    return counts


def gamma_floor_pmf(k: int, mu_value: float, d: int) -> float:
    """P[floor(G/mu) = d] for G ~ Gamma(k, 1): Q(k, d*mu) - Q(k, (d+1)*mu).

    Q is the regularized upper incomplete gamma function; the values
    telescope to 1 over d = 0, 1, 2, ...
    """
    from scipy import special

    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not (mu_value > 0):
        raise DomainError(f"mu must be positive, got {mu_value}")
    if d < 0:
        raise DomainError(f"d must be >= 0, got {d}")
    return float(special.gammaincc(k, d * mu_value) - special.gammaincc(k, (d + 1) * mu_value))


def _require_regime(model: ConstraintModel, wanted: str) -> float:
    """The exact mu_alpha, once the model classifies as the wanted regime."""
    report = regime_report(model)
    if report.classification != wanted:
        raise RegimeError(
            f"battery needs the {wanted} regime; mu_alpha = {report.mu_alpha:.6g} "
            f"classifies as {report.classification} at thresholds {report.thresholds}"
        )
    return report.mu_alpha


# Each battery's argument and regime checks sit in one helper, which the CLI
# also calls before it draws, so a refused run costs no samples.


def _diverging_mu(model: ConstraintModel, K: int) -> float:
    """mu_alpha of a diverging battery, once K passes."""
    if K < 0:
        raise DomainError(f"K must be >= 0, got {K}")
    return _require_regime(model, "Diverging")


def _critical_mu(model: ConstraintModel, k: int, d_max: int) -> float:
    """mu_alpha of a critical battery, once k and d_max pass."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if d_max < 0:
        raise DomainError(f"d_max must be >= 0, got {d_max}")
    return _require_regime(model, "Critical")


def _process_grid(model: ConstraintModel, grid, subbatches: int) -> Tuple[np.ndarray, float]:
    """(grid, mu_alpha) of a process battery, once subbatches and the grid pass."""
    if subbatches < 1:
        raise DomainError(f"subbatches must be >= 1, got {subbatches}")
    g = _validated_grid(grid)
    return g, _require_regime(model, "Vanishing")


def _tightness_mu(model: ConstraintModel, t1: float, t: float, t2: float) -> float:
    """mu_alpha of a tightness estimate, once the triple is ordered."""
    if not (0 <= t1 <= t <= t2):
        raise DomainError(f"need 0 <= t1 <= t <= t2, got ({t1}, {t}, {t2})")
    return _require_regime(model, "Vanishing")


# ---------------------------------------------------------------------------
# diverging regime


def check_longest_diverging(samples: Sequence, model: ConstraintModel, K: int) -> float:
    """Fraction of samples whose K longest cycles all equal alpha (limit: 1)."""
    _diverging_mu(model, K)
    if K == 0:
        return 1.0
    total = len(samples)
    owner, flat = _checked_flatten(samples, model)
    at_cap = np.bincount(owner[flat == model.alpha], minlength=total)
    return int(np.count_nonzero(at_cap >= K)) / total


# ---------------------------------------------------------------------------
# critical regime


@dataclass(frozen=True)
class CriticalRow:
    d: int
    empirical: float
    theoretical: float


@dataclass(frozen=True)
class CriticalTable:
    k: int
    mu_alpha: float
    d_max: int
    rows: Tuple[CriticalRow, ...]
    empirical_rest: float
    theoretical_rest: float
    tv: float
    n_samples: int


def check_longest_critical(
    samples: Sequence, model: ConstraintModel, k: int, d_max: int
) -> CriticalTable:
    """Empirical law of alpha - ell_k against the gamma-floor limit law.

    Mass beyond d_max is lumped into a single rest bucket on both sides; the
    reported TV includes that bucket. The comparison parameter is the exact
    finite-n mu_alpha.
    """
    from scipy import special

    mu_a = _critical_mu(model, k, d_max)
    total = len(samples)
    ell_k = _top_lengths(*_checked_flatten(samples, model), total, k)[:, k - 1]
    d = np.minimum(model.alpha - ell_k, d_max + 1)
    counts = np.bincount(d, minlength=d_max + 2)  # last slot = rest
    emp = counts / total
    theo = np.array([gamma_floor_pmf(k, mu_a, d) for d in range(d_max + 1)])
    theo_rest = float(special.gammaincc(k, (d_max + 1) * mu_a))
    rows = tuple(
        CriticalRow(d=d, empirical=float(emp[d]), theoretical=float(theo[d]))
        for d in range(d_max + 1)
    )
    tv = 0.5 * (float(np.sum(np.abs(emp[:-1] - theo))) + abs(float(emp[-1]) - theo_rest))
    return CriticalTable(
        k=k,
        mu_alpha=mu_a,
        d_max=d_max,
        rows=rows,
        empirical_rest=float(emp[-1]),
        theoretical_rest=theo_rest,
        tv=tv,
        n_samples=total,
    )


# ---------------------------------------------------------------------------
# vanishing regime: Poisson process battery


def _poisson_chisquare(counts: np.ndarray, lam: float) -> Tuple[float, float, int]:
    """Chi-square of integer counts against Poisson(lam), tail bins merged to >= 5.

    Returns (statistic, p-value, dof). Bins are merged from both ends until
    every expected count reaches the minimum; degenerate cases (fewer than
    two bins) return a trivial pass based on exact agreement.
    """
    from scipy import special

    n = len(counts)
    if lam <= 0:
        return (0.0, 1.0, 0) if np.all(counts == 0) else (math.inf, 0.0, 0)
    kmax = int(np.max(counts))
    ks = np.arange(kmax + 1)
    pk = np.exp(special.xlogy(ks, lam) - special.gammaln(ks + 1) - lam)
    expected = n * pk
    expected_tail = n * float(special.pdtrc(kmax, lam))
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    # fold the analytic tail into the last bin, then merge until all >= min
    exp_bins = list(expected)
    exp_bins[-1] += expected_tail
    obs_bins = list(observed)
    while len(exp_bins) > 1 and exp_bins[-1] < _MIN_EXPECTED:
        e, o = exp_bins.pop(), obs_bins.pop()
        exp_bins[-1] += e
        obs_bins[-1] += o
    while len(exp_bins) > 1 and exp_bins[0] < _MIN_EXPECTED:
        e, o = exp_bins.pop(0), obs_bins.pop(0)
        exp_bins[0] += e
        obs_bins[0] += o
    if len(exp_bins) < 2:
        return (0.0, 1.0, 0)
    obs, exp = np.array(obs_bins), np.array(exp_bins)
    obs_total, exp_total = np.sum(obs), np.sum(exp)
    if abs(obs_total - exp_total) / min(obs_total, exp_total) > np.finfo(float).eps ** 0.5:
        raise NumericalError(
            f"Poisson({lam}) bins hold {exp_total:.17g} expected counts for {obs_total:.17g} observed"
        )
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(exp_bins) - 1
    return (statistic, float(special.chdtrc(dof, statistic)), dof)


@dataclass(frozen=True)
class IncrementTest:
    t_lo: float
    t_hi: float
    subbatch: int
    statistic: float
    pvalue: float
    dof: int


@dataclass(frozen=True)
class ProcessBatteryReport:
    grid: np.ndarray
    mu_alpha: float
    n_samples: int
    subbatches: int
    increment_tests: Tuple[IncrementTest, ...]
    failed_fraction: float
    max_abs_correlation: float
    ks_longest: Tuple[float, float]
    ks_spacings: Tuple[Tuple[int, float, float], ...]


def _process_increments(
    samples: Sequence, model: ConstraintModel, d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(increments matrix over (0,t_1],(t_1,t_2],..., top-3 lengths matrix)."""
    owner, flat = _checked_flatten(samples, model)
    counts = _counts_longer(owner, flat, len(samples), d)
    inc = np.diff(counts, axis=1, prepend=0)  # P starts at 0 (d_0 = alpha)
    return inc, _top_lengths(owner, flat, len(samples), 3)


def poisson_process_battery(
    samples: Sequence, model: ConstraintModel, grid, subbatches: int = 1
) -> ProcessBatteryReport:
    """Rate-1 Poisson-process checks in the vanishing regime.

    Increments over (0, t_1], (t_1, t_2], ... are tested against
    Poisson(width) by chi-square, per disjoint sub-batch of samples (with
    per-index stream derivation, index partitions are independent
    repetitions). Pooled samples feed the increment-correlation matrix, the
    KS test of mu_alpha*(alpha - ell_1) against Exp(1), and the spacing KS
    tests of mu_alpha*(ell_k - ell_{k+1}), k = 1, 2.

    The samples come from the finite-n law, so every statistic measures that
    law's distance to the limit: increment correlations of about
    -0.7*alpha/n and an intensity deficit of the same order. Once the number
    of samples resolves O(alpha/n), the chi-squares, the KS tests and the
    correlations reject at any fixed n; the limit theorem is checked by
    running the battery at increasing n and watching those deviations shrink.
    """
    from scipy import special

    from ._kolmogorov import ks_two_sided

    g, mu_a = _process_grid(model, grid, subbatches)
    inc, top3 = _process_increments(samples, model, _cutoffs(g, mu_a, model.alpha))
    n_samples = len(inc)
    widths = np.diff(g, prepend=0.0)

    tests: List[IncrementTest] = []
    bounds = np.linspace(0, n_samples, subbatches + 1).astype(int)
    for gi in range(len(g)):
        lam = float(widths[gi])
        for bi in range(subbatches):
            chunk = inc[bounds[bi] : bounds[bi + 1], gi]
            if len(chunk) == 0:
                continue
            statistic, pvalue, dof = _poisson_chisquare(chunk, lam)
            tests.append(
                IncrementTest(
                    t_lo=float(g[gi] - widths[gi]),
                    t_hi=float(g[gi]),
                    subbatch=bi,
                    statistic=statistic,
                    pvalue=pvalue,
                    dof=dof,
                )
            )
    real = [t for t in tests if t.dof > 0]
    failed = sum(1 for t in real if t.pvalue < _SIGNIFICANCE)
    failed_fraction = failed / len(real) if real else 0.0

    max_corr = 0.0
    if len(g) > 1:
        sd = np.std(inc, axis=0)
        live = np.nonzero(sd > 0)[0]
        if len(live) > 1:
            corr = np.corrcoef(inc[:, live].T)
            off = corr[~np.eye(len(live), dtype=bool)]
            max_corr = float(np.max(np.abs(off)))

    def exp1_cdf(x):
        return -special.expm1(-x)

    ks_longest = ks_two_sided(mu_a * (model.alpha - top3[:, 0]), exp1_cdf)
    spacing_reports = []
    for k in (1, 2):
        spacing = mu_a * (top3[:, k - 1] - top3[:, k])
        spacing_reports.append((k, *ks_two_sided(spacing, exp1_cdf)))

    return ProcessBatteryReport(
        grid=g,
        mu_alpha=mu_a,
        n_samples=n_samples,
        subbatches=subbatches,
        increment_tests=tuple(tests),
        failed_fraction=failed_fraction,
        max_abs_correlation=max_corr,
        ks_longest=ks_longest,
        ks_spacings=tuple(spacing_reports),
    )


# ---------------------------------------------------------------------------
# tightness moment


@dataclass(frozen=True)
class TightnessEstimate:
    triple: Tuple[float, float, float]
    value: float
    std_error: float
    n_samples: int


def tightness_moment_estimate(
    samples: Sequence, model: ConstraintModel, t1: float, t: float, t2: float
) -> TightnessEstimate:
    """Monte Carlo E[(P_t - P_t1)^2 (P_t2 - P_t)^2] with its standard error."""
    mu_a = _tightness_mu(model, t1, t, t2)
    d = _cutoffs(np.array([t1, t, t2]), mu_a, model.alpha)
    counts = _counts_longer(*_checked_flatten(samples, model), len(samples), d)
    x = counts[:, 1] - counts[:, 0]
    y = counts[:, 2] - counts[:, 1]
    vals = ((x * x) * (y * y)).astype(float)
    return TightnessEstimate(
        triple=(t1, t, t2),
        value=float(np.mean(vals)),
        std_error=float(np.std(vals) / math.sqrt(len(vals))),
        n_samples=len(vals),
    )


# ---------------------------------------------------------------------------
# central limit theorem battery


def discrete_ks_to_normal(z_atoms: np.ndarray, log_pmf: np.ndarray) -> float:
    """sup_x |F(x) - Phi(x)| for a discrete law with atoms z (increasing).

    The supremum over a step-vs-continuous comparison is attained at an atom,
    approached from either side, so both one-sided gaps are taken per atom.
    """
    from scipy import special

    with np.errstate(under="ignore"):
        p = np.exp(log_pmf)
    cdf = np.cumsum(p)
    phi = special.ndtr(z_atoms)
    upper = np.max(np.abs(cdf - phi))
    lower = np.max(np.abs(np.concatenate(([0.0], cdf[:-1])) - phi))
    return float(max(upper, lower))


def exact_standardized_ks(model: ConstraintModel, m: int) -> float:
    """KS distance of the exact standardized law of C_m to the standard normal.

    The normal limit this distance measures against needs mu_m -> infinity,
    the hypothesis clt_battery enforces through its mu_m threshold. This function
    does not check it: for m with mu_m -> 0 (such as m = alpha/2 with
    alpha = sqrt(n)) the law of C_m concentrates at 0 and the distance grows
    with n.
    """
    log_pmf = cycle_count_distribution(model, m)
    mu_m = mu(solve_model_saddle(model), m)
    k = np.arange(len(log_pmf))
    z = (k - mu_m) / math.sqrt(mu_m)
    return discrete_ks_to_normal(z, log_pmf)


def _clt_means(model: ConstraintModel, m_list: Sequence[int]) -> Dict[int, float]:
    """mu_m per m of a clt battery, once its m-list passes: distinct m, each in 1..alpha with mu_m >= 5."""
    if len(set(m_list)) != len(m_list):
        raise DomainError(f"m_list must not repeat an m, got {list(m_list)}")
    sol = solve_model_saddle(model)
    mus = {}
    for m in m_list:
        mu_m = mu(sol, m)
        if mu_m < _CLT_MU_THRESHOLD:
            raise RegimeError(
                f"mu_{m} = {mu_m:.4g} below threshold {_CLT_MU_THRESHOLD}; "
                "the normal limit needs diverging mu_m"
            )
        mus[m] = mu_m
    return mus


@dataclass(frozen=True)
class CLTEntry:
    m: int
    mu_m: float
    exact_mean: float
    ks_stat: float
    ks_pvalue: float
    standardized_mean: float
    mean_bound: float
    exact_ks: Optional[float]


@dataclass(frozen=True)
class CLTReport:
    n_samples: int
    entries: Tuple[CLTEntry, ...]
    correlations: Tuple[Tuple[int, int, float], ...]
    mu_threshold: float


def clt_battery(
    model: ConstraintModel,
    m_list: Sequence[int],
    n_samples: int,
    seed: int = 0,
    samples: Optional[Sequence] = None,
) -> CLTReport:
    """Standard-normal checks for standardized m-cycle counts.

    Per m: KS of (C_m - mu_m)/sqrt(mu_m) against N(0,1) over Monte Carlo
    samples; the empirical mean of (C_m - E[C_m])/sqrt(mu_m) with its
    3/sqrt(n_samples) band (E[C_m] exact); for n <= _EXACT_LAW_MAX_N also the
    KS distance of the exact standardized law. Pairs of distinct m report the
    empirical correlation of the standardized counts (limit: 0). The m must be
    distinct, and every m must satisfy mu_m >= 5 (the divergence hypothesis
    proxy).
    """
    from scipy import special

    from ._kolmogorov import ks_two_sided

    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    mus = _clt_means(model, m_list)
    batch = samples if samples is not None else sample_lengths(model, n_samples, seed)
    owner, flat = _checked_flatten(batch, model)
    counts = np.empty((len(batch), len(m_list)), dtype=np.int64)
    for jm, m in enumerate(m_list):
        counts[:, jm] = np.bincount(owner[flat == m], minlength=len(batch))

    entries = []
    std_cols = np.empty_like(counts, dtype=float)
    for jm, m in enumerate(m_list):
        mu_m = mus[m]
        exact_mean = expected_cycle_count(model, m)
        std = (counts[:, jm] - mu_m) / math.sqrt(mu_m)
        std_cols[:, jm] = std
        ks_stat, ks_pvalue = ks_two_sided(std, special.ndtr)
        mean_dev = float(np.mean((counts[:, jm] - exact_mean) / math.sqrt(mu_m)))
        exact_ks = exact_standardized_ks(model, m) if model.n <= _EXACT_LAW_MAX_N else None
        entries.append(
            CLTEntry(
                m=m,
                mu_m=mu_m,
                exact_mean=exact_mean,
                ks_stat=ks_stat,
                ks_pvalue=ks_pvalue,
                standardized_mean=mean_dev,
                mean_bound=3.0 / math.sqrt(len(batch)),
                exact_ks=exact_ks,
            )
        )

    correlations = []
    for a in range(len(m_list)):
        for b in range(a + 1, len(m_list)):
            sd_a, sd_b = np.std(std_cols[:, a]), np.std(std_cols[:, b])
            if sd_a == 0 or sd_b == 0:
                rho = 0.0
            else:
                rho = float(np.corrcoef(std_cols[:, a], std_cols[:, b])[0, 1])
            correlations.append((m_list[a], m_list[b], rho))

    return CLTReport(
        n_samples=len(batch),
        entries=tuple(entries),
        correlations=tuple(correlations),
        mu_threshold=_CLT_MU_THRESHOLD,
    )
