"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Limit laws are checked along n: criteria 4, 5, 6, 10, 12 and 13 each assert
that a deviation from the limit shrinks as n grows, at parameters where the
limit's hypothesis holds. A fixed bound at one finite n would measure the
finite-n correction, not the limit.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from cyclecap.exact import (
    chernoff_tail_bound,
    compound_poisson_pmf,
    egf_coefficients,
    exact_tv_distance,
    expected_cycle_count,
    joint_cycle_count_logpmf,
    partition_function,
)
from cyclecap.limits import (
    check_longest_critical,
    check_longest_diverging,
    exact_standardized_ks,
    poisson_process_battery,
    tightness_moment_estimate,
)
from cyclecap.model import ConstraintModel, WeightArray
from cyclecap.numerics import log_sum_exp_value
from cyclecap.saddle import (
    clt_h_calculus,
    mu,
    saddle_point_coefficient,
    solve_model_saddle,
    solve_saddle,
)
from cyclecap.sampler import sample_lengths, sample_type_array
from oracles import (
    conditioned_distribution,
    iter_prefix_support,
    partition_constant,
    prefix_distribution,
    tv_to_poisson_prefix,
)

SEED = 20260814


def report(num, ok, detail):
    tag = f"[criterion {num:02d}]" if isinstance(num, int) else f"[{num}]"
    print(f"{tag} {'PASS' if ok else 'FAIL'} — {detail}")
    return detail


@pytest.fixture(scope="module")
def vanishing_model():
    return ConstraintModel.from_exponent(100_000, 0.85, theta=1.0)  # alpha = 17782


@pytest.fixture(scope="module")
def vanishing_batch(vanishing_model):
    return sample_lengths(vanishing_model, 100_000, seed=SEED)


def test_01_oracle_equivalence_exact_core():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 10):
        for alpha in range(1, n + 1):
            for theta in (0.5, 1.0, 2.0):
                model = ConstraintModel(n=n, alpha=alpha, theta=theta)
                z = math.exp(partition_function(model).logval)
                worst = max(worst, abs(z - partition_constant(n, alpha, theta)))
                for b in range(1, min(3, alpha) + 1):
                    ref = prefix_distribution(n, alpha, theta, b)
                    for prefix in iter_prefix_support(n, b):
                        got = math.exp(
                            joint_cycle_count_logpmf(model, prefix).logval
                        )
                        worst = max(worst, abs(got - ref.get(prefix, 0.0)))
                    tv = exact_tv_distance(model, b).tv
                    worst = max(
                        worst, abs(tv - tv_to_poisson_prefix(n, alpha, theta, b))
                    )
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 60
    detail = report(1, ok, f"max |Δ| = {worst:.3g} (≤ 1e-8), {elapsed:.1f}s (< 60s)")
    assert ok, detail


def test_02_known_partition_values():
    z53 = math.exp(partition_function(ConstraintModel(n=5, alpha=3, theta=1.0)).logval)
    dev_53 = abs(z53 - 66 / 120)
    dev_nn = max(
        abs(
            math.exp(partition_function(ConstraintModel(n=n, alpha=n, theta=1.0)).logval)
            - 1.0
        )
        for n in range(1, 10)
    )
    ok = dev_53 <= 1e-12 and dev_nn <= 1e-12
    detail = report(
        2, ok, f"|Z_5,3 - 66/120| = {dev_53:.2g}, max |Z_n,n - 1| = {dev_nn:.2g}"
    )
    assert ok, detail


def _type_frequency_pvalue(model, expected_codes, expected_probs, draws, seed):
    arr = sample_type_array(model, draws, seed=seed)
    radix = np.array([model.n // j + 2 for j in range(1, model.n + 1)], dtype=np.int64)
    mult = np.cumprod(np.concatenate(([1], radix[:-1]))).astype(np.int64)
    codes = arr.astype(np.int64) @ mult
    uniq, cnt = np.unique(codes, return_counts=True)
    assert set(uniq.tolist()) <= set(expected_codes.tolist()), "impossible type drawn"
    observed = np.zeros(len(expected_codes))
    pos = {c: i for i, c in enumerate(expected_codes.tolist())}
    for c, k in zip(uniq.tolist(), cnt.tolist()):
        observed[pos[c]] = k
    expected = expected_probs * draws
    order = np.argsort(expected)
    obs_bins, exp_bins = [], []
    pool_o = pool_e = 0.0
    for i in order:
        pool_o += observed[i]
        pool_e += expected[i]
        if pool_e >= 5.0:
            obs_bins.append(pool_o)
            exp_bins.append(pool_e)
            pool_o = pool_e = 0.0
    if pool_e > 0:
        obs_bins[0] += pool_o
        exp_bins[0] += pool_e
    exp_arr = np.array(exp_bins) * (sum(obs_bins) / sum(exp_bins))
    return float(stats.chisquare(obs_bins, exp_arr).pvalue)


def test_03_sampler_exactness_chi_square():
    t0 = time.time()
    results = []
    for n, alpha, theta in ((8, 3, 1.0), (7, 2, 2.0)):
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        ref = conditioned_distribution(n, alpha, theta)
        radix = np.array([n // j + 2 for j in range(1, n + 1)], dtype=np.int64)
        mult = np.cumprod(np.concatenate(([1], radix[:-1]))).astype(np.int64)
        codes, probs = [], []
        for part, p in ref.items():
            dense = np.zeros(n, dtype=np.int64)
            for j in part:
                dense[j - 1] += 1
            codes.append(int(dense @ mult))
            probs.append(p)
        codes = np.array(codes, dtype=np.int64)
        probs = np.array(probs)
        low = sum(
            _type_frequency_pvalue(model, codes, probs, 1_000_000, seed) < 0.001
            for seed in range(100)
        )
        results.append((n, alpha, theta, low))
    elapsed = time.time() - t0
    ok = all(low <= 1 for *_, low in results) and elapsed < 300
    detail = report(
        3,
        ok,
        "rejections/100 seeds at p<0.001: "
        + ", ".join(f"(n={n},α={a},θ={t}): {low}" for n, a, t, low in results)
        + f" (≤ 1 each), {elapsed:.0f}s (< 300s)",
    )
    assert ok, detail


def test_04_saddle_residuals_and_asymptotics():
    t0 = time.time()
    max_resid = 0.0
    decay_ok = True
    lambda2_ratios = []
    for c in (0.5, 1.0, 2.0):
        discrepancies = []
        for n in (10**4, 10**6, 10**8):
            model = ConstraintModel.from_exponent(n, 0.5, theta=1.0)
            sol = solve_model_saddle(model, c=c)
            max_resid = max(max_resid, abs(sol.residual))
            v = c * n / (1.0 * model.alpha)
            discrepancies.append(
                abs(model.alpha * math.log(sol.x) - math.log(v * math.log(v)))
            )
            if n == 10**8:
                lambda2_ratios.append(
                    math.exp(sol.log_lambdas[2]) * 1.0 / (c * n * model.alpha)
                )
        decay_ok &= discrepancies[0] > discrepancies[1] > discrepancies[2]
    elapsed = time.time() - t0
    ratios_ok = all(0.9 <= r <= 1.1 for r in lambda2_ratios)
    ok = max_resid <= 1e-10 and decay_ok and ratios_ok and elapsed < 10
    detail = report(
        4,
        ok,
        f"max residual = {max_resid:.2g} (≤ 1e-10), discrepancy strictly "
        f"decreasing: {decay_ok}, λ₂θ/(cnα) at n=1e8: "
        + ", ".join(f"{r:.4f}" for r in lambda2_ratios)
        + f" (in [0.9, 1.1]), {elapsed:.1f}s (< 10s)",
    )
    assert ok, detail


def test_05_saddle_point_vs_exact_coefficient():
    t0 = time.time()
    devs = []
    bounds_ok = True
    for n in (10**3, 10**4, 10**5):
        model = ConstraintModel.from_exponent(n, 0.6, theta=1.0)
        q = WeightArray.constant(1.0, model.alpha)
        exact_log = egf_coefficients(q, n).log_coefficient(n)
        ratio = math.exp(saddle_point_coefficient(solve_saddle(q, float(n))).logval - exact_log)
        devs.append(abs(ratio - 1))
        bounds_ok &= abs(ratio - 1) <= 5 * model.alpha / n
    elapsed = time.time() - t0
    ok = bounds_ok and devs[0] > devs[1] > devs[2] and elapsed < 120
    detail = report(
        5,
        ok,
        "|ratio-1| = " + ", ".join(f"{d:.4g}" for d in devs)
        + f" (each ≤ 5α/n, decreasing), {elapsed:.1f}s (< 120s)",
    )
    assert ok, detail


def test_06_tv_decay_along_n():
    t0 = time.time()
    tvs = []
    for n in (2**10, 2**12, 2**14, 2**16):
        model = ConstraintModel.from_exponent(n, 0.7, theta=1.0)
        b = max(1, int(model.alpha / math.log(n) ** 2))
        tvs.append(exact_tv_distance(model, b).tv)
    elapsed = time.time() - t0
    decreasing = all(a > b for a, b in zip(tvs, tvs[1:]))
    ok = decreasing and tvs[-1] <= tvs[0] / 2 and elapsed < 300
    detail = report(
        6,
        ok,
        "tv = " + ", ".join(f"{v:.3g}" for v in tvs)
        + f" (decreasing, last ≤ first/2 = {tvs[0] / 2:.3g}), {elapsed:.1f}s (< 300s)",
    )
    assert ok, detail


def test_07_chernoff_bound_dominates_exact_tails():
    model = ConstraintModel.from_exponent(10**4, 0.6, theta=1.0)
    sol = solve_model_saddle(model)
    worst_margin = math.inf
    checks = 0
    for b in (4, 16, 64):
        means = np.array([sol.x**j / j for j in range(1, b + 1)])
        m = float(np.dot(np.arange(1, b + 1), means))
        for rho in (1.5, 2.0, 4.0, 8.0):
            bound = math.exp(chernoff_tail_bound(means, rho).logval)
            N = int(rho * m * 3) + 50
            dist = compound_poisson_pmf(means, N)
            cut = math.ceil(rho * m)
            exact_tail = (
                math.exp(log_sum_exp_value(dist.log_pmf_values[cut:]))
                + dist.tail_mass
            )
            worst_margin = min(worst_margin, bound - exact_tail)
            checks += 1
    ok = worst_margin >= -1e-15 and checks == 12
    detail = report(
        7, ok, f"min(bound - exact tail) = {worst_margin:.3g} over 12 (b, ρ) pairs (≥ 0)"
    )
    assert ok, detail


def test_08_diverging_regime_longest_cycles_pin_to_alpha():
    t0 = time.time()
    model = ConstraintModel(n=100_000, alpha=100, theta=1.0)
    batch = sample_lengths(model, 10_000, seed=SEED)
    frac = check_longest_diverging(batch, model, K=5)
    elapsed = time.time() - t0
    ok = frac >= 0.99 and elapsed < 180
    detail = report(
        8, ok, f"fraction with top-5 = α: {frac:.4f} (≥ 0.99), {elapsed:.0f}s (< 180s)"
    )
    assert ok, detail


def test_09_critical_regime_gamma_floor_law():
    t0 = time.time()
    n = 100_000
    alpha = int(math.sqrt(n * math.log(n)))  # 1072
    model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
    batch = sample_lengths(model, 100_000, seed=SEED)
    tvs = [
        check_longest_critical(batch, model, k=k, d_max=60).tv for k in (1, 2)
    ]
    elapsed = time.time() - t0
    ok = all(tv <= 0.05 for tv in tvs) and elapsed < 600
    detail = report(
        9,
        ok,
        f"TV(α - ℓ_k vs gamma-floor) = {tvs[0]:.4f}, {tvs[1]:.4f} (≤ 0.05), "
        f"{elapsed:.0f}s (< 600s)",
    )
    assert ok, detail


def test_10_vanishing_regime_poisson_process(vanishing_model, vanishing_batch):
    """The Poisson-process deviations shrink from n = 1e4 to n = 1e5.

    At fixed n the conditioned law differs from the rate-1 process by
    O(alpha/n) = O(n^-0.15), and 1e5 draws resolve that, so each deviation
    must strictly decrease instead; the increment correlation must also
    shrink at the rate of alpha/n (ratio within 0.1, about five Monte Carlo
    standard errors). Both n use the same draw count, since the chi-squares
    grow with it.
    """
    t0 = time.time()
    grid = [0.5, 1.0, 1.5, 2.0]
    small_model = ConstraintModel.from_exponent(10_000, 0.85, theta=1.0)  # alpha = 2511
    small_batch = sample_lengths(small_model, len(vanishing_batch), seed=SEED)
    lo = poisson_process_battery(small_batch, small_model, grid, subbatches=1)
    hi = poisson_process_battery(vanishing_batch, vanishing_model, grid, subbatches=1)
    elapsed = time.time() - t0
    chi_lo = [t.statistic / t.dof for t in lo.increment_tests]
    chi_hi = [t.statistic / t.dof for t in hi.increment_tests]
    chi_ok = all(b < a for a, b in zip(chi_lo, chi_hi))
    ks_ok = hi.ks_longest[0] < lo.ks_longest[0]
    corr_ok = hi.max_abs_correlation < lo.max_abs_correlation
    corr_ratio = hi.max_abs_correlation / lo.max_abs_correlation
    rate_ratio = (vanishing_model.alpha / vanishing_model.n) / (
        small_model.alpha / small_model.n
    )
    rate_ok = abs(corr_ratio - rate_ratio) <= 0.1
    ok = chi_ok and ks_ok and corr_ok and rate_ok and elapsed < 1200
    detail = report(
        10,
        ok,
        "n=1e4 -> 1e5: increment χ²/dof = "
        + ", ".join(f"{a:.1f}->{b:.1f}" for a, b in zip(chi_lo, chi_hi))
        + " (each decreasing), KS(μ_α(α-ℓ₁) vs Exp(1)) = "
        f"{lo.ks_longest[0]:.4f}->{hi.ks_longest[0]:.4f} (decreasing), "
        f"max |ρ| = {lo.max_abs_correlation:.4f}->{hi.max_abs_correlation:.4f} "
        f"(decreasing; ratio {corr_ratio:.3f} within 0.1 of the α/n ratio "
        f"{rate_ratio:.3f}), {elapsed:.0f}s (< 1200s)",
    )
    assert ok, detail


def test_11_tightness_moment_ratio(vanishing_model, vanishing_batch):
    coarse = tightness_moment_estimate(vanishing_batch, vanishing_model, 0.0, 1.0, 2.0)
    fine = tightness_moment_estimate(vanishing_batch, vanishing_model, 0.0, 0.5, 1.0)
    ratio = coarse.value / fine.value
    ok = 2.0 <= ratio <= 8.0
    detail = report(
        11,
        ok,
        f"E[(ΔP)²(ΔP)²] ratio (0,1,2)/(0,0.5,1) = {ratio:.3f} (in [2, 8], target 4)",
    )
    assert ok, detail


def _h_calculus_fd_max_rel_err(model, m):
    eps = 1e-5
    worst = 0.0
    for s in (0.0, 0.2):
        mid = clt_h_calculus(model, m, s)
        up = clt_h_calculus(model, m, s + eps)
        dn = clt_h_calculus(model, m, s - eps)
        for fd, analytic in (
            ((up.h - dn.h) / (2 * eps), mid.h1),
            ((up.h1 - dn.h1) / (2 * eps), mid.h2),
            ((up.h2 - dn.h2) / (2 * eps), mid.h3),
        ):
            worst = max(worst, abs(fd - analytic) / abs(analytic))
    return worst


def test_12_clt_standardized_law_and_h_derivatives():
    """The exact standardized law of C_alpha approaches N(0,1) along n.

    The normal limit needs mu_m -> infinity, so the criterion takes m = alpha
    and checks that mu_alpha grows over its n before it asks the KS distance
    to shrink. (At m = alpha/2, mu_m falls toward 0 and the distance grows.)
    """
    t0 = time.time()
    mus, ks = [], []
    fd_err = 0.0
    for n in (10**3, 10**4, 10**5):
        model = ConstraintModel.from_exponent(n, 0.5, theta=1.0)
        m = model.alpha
        mus.append(mu(solve_model_saddle(model), m))
        ks.append(exact_standardized_ks(model, m))
        fd_err = max(fd_err, _h_calculus_fd_max_rel_err(model, m))
    elapsed = time.time() - t0
    mu_ok = all(a < b for a, b in zip(mus, mus[1:]))
    ks_ok = all(a > b for a, b in zip(ks, ks[1:]))
    fd_ok = fd_err <= 1e-5
    ok = mu_ok and ks_ok and fd_ok and elapsed < 300
    detail = report(
        12,
        ok,
        "m = α at n = 1e3, 1e4, 1e5: μ_α = "
        + ", ".join(f"{v:.3f}" for v in mus)
        + " (need strict increase), exact KS to normal = "
        + ", ".join(f"{v:.4f}" for v in ks)
        + f" (need strict decrease), h'/h''/h''' FD max rel err = {fd_err:.2g} "
        f"(≤ 1e-5), {elapsed:.0f}s (< 300s)",
    )
    assert ok, detail


def test_supplementary_normal_limit_at_boundary_length():
    """The normal limit at m = alpha, between the end points of criterion 12.

    A fast standalone form of that criterion's first clause: with
    alpha = sqrt(n), mu_alpha grows like log n, so the exact standardized
    law of C_alpha moves toward the normal from n = 1e3 to n = 1e5.
    """
    ks = {}
    for n in (10**3, 10**5):
        model = ConstraintModel.from_exponent(n, 0.5, theta=1.0)
        ks[n] = exact_standardized_ks(model, model.alpha)
    ok = ks[10**5] < ks[10**3]
    detail = report(
        "supplementary",
        ok,
        f"KS at m=α: {ks[10**3]:.4f} (n=1e3) -> {ks[10**5]:.4f} (n=1e5), decreasing",
    )
    assert ok, detail


def test_13_expected_count_matches_mu():
    t0 = time.time()
    pieces = []
    boundary_dev = {}
    ok = True
    for n in (10**4, 10**5):
        model = ConstraintModel.from_exponent(n, 0.6, theta=1.0)
        sol = solve_model_saddle(model)
        for m in (1, model.alpha // 2, model.alpha):
            ratio = expected_cycle_count(model, m) / mu(sol, m)
            if n == 10**4:
                ok &= 0.9 <= ratio <= 1.1
                pieces.append(f"m={m}: {ratio:.4f}")
            if m == model.alpha:
                boundary_dev[n] = abs(ratio - 1)
    ok &= boundary_dev[10**5] < boundary_dev[10**4]
    elapsed = time.time() - t0
    detail = report(
        13,
        ok,
        "E[C_m]/μ_m at n=1e4: " + ", ".join(pieces)
        + f" (in [0.9, 1.1]); |ratio-1| at m=α: {boundary_dev[10**4]:.2g} -> "
        f"{boundary_dev[10**5]:.2g} (closer to 1 at n=1e5), {elapsed:.0f}s",
    )
    assert ok, detail
