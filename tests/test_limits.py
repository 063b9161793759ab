import math

import numpy as np
import pytest
from scipy import special, stats

import cyclecap.limits as limits
from cyclecap.errors import DomainError, RegimeError
from cyclecap.exact import TiltedModel, cycle_count_distribution
from cyclecap.limits import (
    _checked_flatten,
    _counts_longer,
    _cutoffs,
    _flatten,
    _poisson_chisquare,
    _top_lengths,
    check_longest_critical,
    check_longest_diverging,
    clt_battery,
    d_cutoff,
    discrete_ks_to_normal,
    exact_standardized_ks,
    gamma_floor_pmf,
    poisson_process_battery,
    tightness_moment_estimate,
)
from cyclecap.model import ConstraintModel
from cyclecap.saddle import mu, mu_alpha_of, solve_model_saddle
from cyclecap.sampler import sample_lengths

# Small models per regime (thresholds 0.1 / 10 on the exact mu_alpha):
# mu_alpha = 47.3, 0.995, 0.0112 respectively.
DIVERGING = ConstraintModel(n=2000, alpha=15, theta=1.0)
CRITICAL = ConstraintModel(n=2000, alpha=95, theta=1.0)
VANISHING = ConstraintModel(n=2000, alpha=639, theta=1.0)


@pytest.fixture(scope="module")
def critical_samples():
    return sample_lengths(CRITICAL, 5000, seed=11)


@pytest.fixture(scope="module")
def vanishing_samples():
    return sample_lengths(VANISHING, 3000, seed=7)


class TestDCutoff:
    def test_formula(self):
        for t, mu_a, alpha in [(0.0, 0.5, 10), (0.7, 0.3, 10), (2.0, 0.25, 5)]:
            assert d_cutoff(t, mu_a, alpha) == max(alpha - math.floor(t / mu_a), 0)

    def test_floors_at_zero(self):
        assert d_cutoff(100.0, 0.5, 10) == 0
        # t / mu_alpha is inf in double, which floor cannot turn into an integer
        assert d_cutoff(1e300, 1e-10, 100) == 0
        assert d_cutoff(np.float64(1e308), np.float64(1e-300), 5) == 0
        assert list(_cutoffs(np.array([0.5, 1e308]), 0.1, 100)) == [95, 0]

    def test_zero_time_is_alpha(self):
        assert d_cutoff(0.0, 0.123, 37) == 37

    def test_invalid(self):
        with pytest.raises(DomainError):
            d_cutoff(-0.1, 0.5, 10)
        with pytest.raises(DomainError):
            d_cutoff(1.0, 0.0, 10)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time(self, t):
        with pytest.raises(DomainError):
            d_cutoff(t, 0.5, 10)


class TestBuildProcess:
    """The counting process P_t of a batch: cutoffs d_t, then one count per cutoff."""

    def test_counts_match_hand_computation(self):
        model = ConstraintModel(n=12, alpha=5, theta=1.0)
        d = _cutoffs(np.array([0.5, 1.0, 1.5]), 0.5, model.alpha)
        assert d.tolist() == [4, 3, 2]
        batch = [np.array([5, 4, 3])]
        assert _counts_longer(*_checked_flatten(batch, model), 1, d).tolist() == [[1, 2, 3]]

    def test_counts_nondecreasing(self, vanishing_samples):
        grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        d = _cutoffs(grid, mu_alpha_of(VANISHING), VANISHING.alpha)
        assert np.all(np.diff(d) <= 0)
        batch = vanishing_samples[:40]
        counts = _counts_longer(*_checked_flatten(batch, VANISHING), len(batch), d)
        assert np.all(np.diff(counts, axis=1) >= 0)

    # The battery validates its grid before it classifies the model or reads a sample.
    @pytest.mark.parametrize("grid", [[], [1.0, 1.0], [2.0, 1.0], [-1.0, 2.0]])
    def test_bad_grids(self, grid):
        with pytest.raises(DomainError, match="grid"):
            poisson_process_battery([], CRITICAL, grid)

    @pytest.mark.parametrize("grid", [[math.nan], [0.5, math.nan], [1.0, math.inf]])
    def test_non_finite_grids(self, grid):
        with pytest.raises(DomainError, match="grid"):
            poisson_process_battery([], CRITICAL, grid)

    def test_batch_counts_match_per_sample_counts(self, vanishing_samples):
        # drawn samples, a hand-made one and an empty sample mixed in one batch
        batch = [vanishing_samples[0], np.array([], dtype=np.int64), np.array([639, 1])]
        batch += list(vanishing_samples[1:50])
        d = np.array([639, 600, 500, 100, 0], dtype=np.int64)
        counts = _counts_longer(*_flatten(batch), len(batch), d)
        assert counts.shape == (len(batch), len(d))
        for row, lengths in zip(counts, batch):
            assert row.tolist() == [int(np.count_nonzero(lengths > dv)) for dv in d]
        assert _counts_longer(*_flatten([]), 0, d).shape == (0, len(d))

    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_batch_top_lengths_match_per_sample_top_k(self, critical_samples, K):
        # empty samples, ties and samples with fewer than K cycles mixed in one batch
        batch = [np.array([], dtype=np.int64), np.array([4, 4, 1])]
        batch += [np.array([5, 2, 9, 2, 9], dtype=np.int64), np.array([7], dtype=np.int64)]
        batch += list(critical_samples[:200]) + [np.array([], dtype=np.int64)]
        top = _top_lengths(*_flatten(batch), len(batch), K)
        assert top.shape == (len(batch), K)
        for row, lengths in zip(top, batch):
            expected = np.zeros(K, dtype=np.int64)
            longest = np.sort(lengths)[::-1][:K]
            expected[: len(longest)] = longest
            assert row.tolist() == expected.tolist()
        assert _top_lengths(*_flatten([]), 0, K).shape == (0, K)


class TestGammaFloorPmf:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mu_value", [0.2, 1.0, 3.7])
    def test_telescopes_to_survival(self, k, mu_value):
        total = sum(gamma_floor_pmf(k, mu_value, d) for d in range(200))
        tail = float(special.gammaincc(k, 200 * mu_value))
        assert total == pytest.approx(1.0 - tail, abs=1e-12)

    def test_k1_closed_form(self):
        for d in range(5):
            assert gamma_floor_pmf(1, 0.8, d) == pytest.approx(
                math.exp(-0.8 * d) - math.exp(-0.8 * (d + 1)), abs=1e-14
            )

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            gamma_floor_pmf(0, 1.0, 0)
        with pytest.raises(DomainError):
            gamma_floor_pmf(1, 0.0, 0)
        with pytest.raises(DomainError):
            gamma_floor_pmf(1, 1.0, -1)


class TestRegimeGuards:
    def test_diverging_check_refuses_critical_model(self, critical_samples):
        with pytest.raises(RegimeError):
            check_longest_diverging(critical_samples, CRITICAL, K=1)

    def test_critical_check_refuses_diverging_model(self):
        s = sample_lengths(DIVERGING, 50, seed=2)
        with pytest.raises(RegimeError):
            check_longest_critical(s, DIVERGING, k=1, d_max=5)

    def test_process_battery_refuses_critical_model(self, critical_samples):
        with pytest.raises(RegimeError):
            poisson_process_battery(critical_samples, CRITICAL, [1.0, 2.0])

    def test_tightness_refuses_diverging_model(self):
        s = sample_lengths(DIVERGING, 50, seed=2)
        with pytest.raises(RegimeError):
            tightness_moment_estimate(s, DIVERGING, 0.5, 1.0, 1.5)


class TestCheckLongestDiverging:
    def test_fraction_near_one(self):
        s = sample_lengths(DIVERGING, 800, seed=3)
        frac1 = check_longest_diverging(s, DIVERGING, K=1)
        frac3 = check_longest_diverging(s, DIVERGING, K=3)
        assert frac1 >= frac3 >= 0.5
        assert frac1 > 0.95

    def test_k_zero_is_trivially_one(self):
        s = sample_lengths(DIVERGING, 10, seed=3)
        assert check_longest_diverging(s, DIVERGING, K=0) == 1.0

    def test_empty_batch(self):
        with pytest.raises(DomainError):
            check_longest_diverging([], DIVERGING, K=1)

    def test_mixed_batch_matches_per_sample_count(self):
        s = sample_lengths(DIVERGING, 200, seed=4)
        batch = [s[0].astype(np.int32), *s[1:]]
        for K in (1, 2, 4):
            hits = sum(int(np.count_nonzero(x == DIVERGING.alpha) >= K) for x in s)
            assert check_longest_diverging(batch, DIVERGING, K) == hits / len(s)


class TestCheckLongestCritical:
    def test_table_structure_and_tv(self, critical_samples):
        tab = check_longest_critical(critical_samples, CRITICAL, k=1, d_max=6)
        assert tab.k == 1 and tab.d_max == 6 and tab.n_samples == 5000
        emp_total = sum(r.empirical for r in tab.rows) + tab.empirical_rest
        theo_total = sum(r.theoretical for r in tab.rows) + tab.theoretical_rest
        assert emp_total == pytest.approx(1.0, abs=1e-12)
        assert theo_total == pytest.approx(1.0, abs=1e-12)
        for r in tab.rows:
            assert r.theoretical == pytest.approx(
                gamma_floor_pmf(1, tab.mu_alpha, r.d), abs=1e-15
            )
        # n = 2000 finite-size error + MC noise; the limit law is close already
        assert tab.tv < 0.06

    def test_second_longest(self, critical_samples):
        tab = check_longest_critical(critical_samples, CRITICAL, k=2, d_max=6)
        assert tab.tv < 0.06
        assert tab.rows[0].theoretical == pytest.approx(
            gamma_floor_pmf(2, tab.mu_alpha, 0), abs=1e-15
        )

    def test_invalid_arguments(self, critical_samples):
        with pytest.raises(DomainError):
            check_longest_critical(critical_samples, CRITICAL, k=0, d_max=5)
        with pytest.raises(DomainError):
            check_longest_critical(critical_samples, CRITICAL, k=1, d_max=-1)
        with pytest.raises(DomainError):
            check_longest_critical([], CRITICAL, k=1, d_max=5)


class TestPoissonChisquare:
    def test_mass_preserved_under_merging(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(8.0, size=60)
        statistic, pvalue, dof = _poisson_chisquare(counts, 8.0)
        assert dof >= 1
        assert 0.0 <= pvalue <= 1.0
        assert math.isfinite(statistic)

    def test_good_fit_accepted_bad_fit_rejected(self):
        rng = np.random.default_rng(1)
        good = rng.poisson(2.0, size=4000)
        _, p_good, _ = _poisson_chisquare(good, 2.0)
        assert p_good > 0.001
        bad = rng.poisson(4.0, size=4000)
        _, p_bad, _ = _poisson_chisquare(bad, 2.0)
        assert p_bad < 1e-6

    def test_zero_rate(self):
        assert _poisson_chisquare(np.zeros(10, dtype=int), 0.0) == (0.0, 1.0, 0)
        statistic, pvalue, _ = _poisson_chisquare(np.array([0, 1]), 0.0)
        assert statistic == math.inf and pvalue == 0.0

    def test_degenerate_single_bin(self):
        # lam tiny: everything merges into one bin -> trivial pass
        statistic, pvalue, dof = _poisson_chisquare(np.zeros(20, dtype=int), 0.001)
        assert dof == 0 and pvalue == 1.0


class TestPoissonProcessBattery:
    def test_report_structure(self, vanishing_samples):
        grid = [0.5, 1.0, 1.5, 2.0]
        rep = poisson_process_battery(vanishing_samples, VANISHING, grid, subbatches=3)
        assert rep.n_samples == 3000
        assert rep.subbatches == 3
        assert len(rep.increment_tests) == len(grid) * 3
        assert 0.0 <= rep.failed_fraction <= 1.0
        assert 0.0 <= rep.max_abs_correlation <= 1.0
        assert 0.0 <= rep.ks_longest[0] <= 1.0
        assert len(rep.ks_spacings) == 2
        for t in rep.increment_tests:
            assert t.t_hi > t.t_lo >= 0.0
            assert 0 <= t.subbatch < 3

    def test_invalid_inputs(self, vanishing_samples):
        with pytest.raises(DomainError):
            poisson_process_battery(vanishing_samples, VANISHING, [1.0], subbatches=0)
        with pytest.raises(DomainError):
            poisson_process_battery([], VANISHING, [1.0])

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [1.0, math.inf]])
    def test_non_finite_grid(self, vanishing_samples, grid):
        with pytest.raises(DomainError):
            poisson_process_battery(vanishing_samples, VANISHING, grid)


class TestTightness:
    def test_degenerate_triples_are_zero(self, vanishing_samples):
        est = tightness_moment_estimate(vanishing_samples, VANISHING, 1.0, 1.0, 2.0)
        assert est.value == 0.0  # first increment is empty
        est2 = tightness_moment_estimate(vanishing_samples, VANISHING, 0.5, 1.5, 1.5)
        assert est2.value == 0.0  # second increment is empty

    def test_moment_fields(self, vanishing_samples):
        est = tightness_moment_estimate(vanishing_samples, VANISHING, 0.5, 1.0, 1.5)
        assert est.value >= 0.0 and est.std_error >= 0.0
        assert est.n_samples == 3000
        assert est.triple == (0.5, 1.0, 1.5)

    def test_ordering_enforced(self, vanishing_samples):
        with pytest.raises(DomainError):
            tightness_moment_estimate(vanishing_samples, VANISHING, 1.0, 0.5, 1.5)

    def test_infinite_time_refused(self, vanishing_samples):
        with pytest.raises(DomainError):
            tightness_moment_estimate(vanishing_samples, VANISHING, 0.0, 1.0, math.inf)


class TestNormalDistance:
    def test_single_atom_at_zero(self):
        assert discrete_ks_to_normal(np.array([0.0]), np.array([0.0])) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_fine_discretization_is_close(self):
        z = np.linspace(-8, 8, 4001)
        pdf = stats.norm.pdf(z)
        log_pmf = np.log(pdf / pdf.sum())
        assert discrete_ks_to_normal(z, log_pmf) < 2e-3

    def test_exact_standardized_matches_inline_recomputation(self):
        model = ConstraintModel(n=300, alpha=10, theta=1.0)
        m = 7
        log_pmf = cycle_count_distribution(model, m)
        mu_m = mu(solve_model_saddle(model), m)
        p = np.exp(log_pmf)
        cdf = np.cumsum(p)
        phi = stats.norm.cdf((np.arange(len(p)) - mu_m) / math.sqrt(mu_m))
        expected = max(
            np.max(np.abs(cdf - phi)),
            np.max(np.abs(np.concatenate(([0.0], cdf[:-1])) - phi)),
        )
        assert exact_standardized_ks(model, m) == pytest.approx(expected, abs=1e-15)


class TestCLTBattery:
    def test_small_mu_is_refused(self):
        # mu_1 = x ~ 1.76 at this model: far below the divergence proxy
        with pytest.raises(RegimeError):
            clt_battery(ConstraintModel(n=2000, alpha=12, theta=1.0), [1], 100)

    def test_battery_on_diverging_counts(self):
        model = ConstraintModel(n=2000, alpha=12, theta=1.0)
        rep = clt_battery(model, [10, 12], 3000, seed=5)
        assert rep.n_samples == 3000
        assert [e.m for e in rep.entries] == [10, 12]
        assert len(rep.correlations) == 1
        for e in rep.entries:
            assert e.mu_m >= 5.0
            # lattice spacing 1/sqrt(mu_m) dominates both distances
            assert e.ks_stat < 0.15
            assert e.exact_ks is not None and e.exact_ks < 0.15
            assert e.ks_stat == pytest.approx(e.exact_ks, abs=0.03)
            assert abs(e.standardized_mean) <= e.mean_bound
            assert e.mean_bound == pytest.approx(3 / math.sqrt(3000), abs=1e-12)

    def test_reuses_provided_samples(self):
        model = ConstraintModel(n=2000, alpha=12, theta=1.0)
        s = sample_lengths(model, 500, seed=6)
        rep = clt_battery(model, [10, 12], 1000, samples=s)
        assert rep.n_samples == 500
        assert rep.mu_threshold == 5.0

    def test_repeated_m_is_refused(self):
        # a repeated m would report the correlation of a count with itself
        with pytest.raises(DomainError, match="repeat"):
            clt_battery(ConstraintModel(n=2000, alpha=12, theta=1.0), [12, 12], 100)

    def test_counts_of_a_mixed_batch(self):
        model = ConstraintModel(n=2000, alpha=12, theta=1.0)
        s = sample_lengths(model, 300, seed=6)
        batch = [s[0].astype(np.int32), *s[1:]]
        rep = clt_battery(model, [10, 12], 300, samples=batch)
        for e in rep.entries:
            counts = np.array([np.count_nonzero(x == e.m) for x in s])
            dev = np.mean((counts - e.exact_mean) / math.sqrt(e.mu_m))
            assert e.standardized_mean == dev

    def test_invalid_sample_count(self):
        with pytest.raises(DomainError):
            clt_battery(DIVERGING, [1], 0)


# (n, alpha, theta): narrow and wide caps in every regime, a theta just off 1,
# small and large theta, and a tilt x past 1e100 (theta = 1e-306).
ONE_MU_MODELS = [
    (10_000, 10, 1.0),
    (100_000, 100, 1.0),
    (100_000, 1072, 1.0),
    (100_000, 17782, 1.0),
    (100_000, 17782, 1.0 + 2.0**-20),
    (10_000, 2511, 1.0),
    (2000, 12, 0.1),
    (65536, 2352, 1.0),
    (3000, 10, 3.0),
    (1000, 3, 1e-306),
]


@pytest.mark.parametrize("n,alpha,theta", ONE_MU_MODELS)
def test_one_mean_row_everywhere(monkeypatch, n, alpha, theta):
    """saddle.mu, TiltedModel.mu, the clt battery's mu_m and the mu_m that
    exact_standardized_ks standardizes with are one row, bit for bit."""
    model = ConstraintModel(n=n, alpha=alpha, theta=theta)
    sol = solve_model_saddle(model)
    row = np.array([mu(sol, m) for m in range(1, alpha + 1)])
    tm = TiltedModel.for_model(model)
    assert tm.mu is sol.mu and not tm.mu.flags.writeable
    assert np.array_equal(row, tm.mu)
    assert np.all(np.isfinite(row))

    seen = []
    ks = limits.discrete_ks_to_normal
    monkeypatch.setattr(limits, "discrete_ks_to_normal", lambda z, p: seen.append(z) or ks(z, p))
    m_list = [m for m in range(1, alpha + 1) if row[m - 1] >= 5.0]
    ks_m = [1, alpha]
    if m_list:
        rep = clt_battery(model, m_list, 1, samples=[np.ones(n, dtype=np.int64)])
        assert [e.mu_m for e in rep.entries] == [row[m - 1] for m in m_list]
        if n <= limits._EXACT_LAW_MAX_N:
            ks_m = m_list + ks_m
    for m in (1, alpha):
        exact_standardized_ks(model, m)
    assert len(seen) == len(ks_m)
    for m, z in zip(ks_m, seen):
        k = np.arange(len(z))
        assert np.array_equal(z, (k - row[m - 1]) / math.sqrt(row[m - 1]))


def _invalid_batches(model):
    """Batches that are not cycle types of the model: a valid sample, then a bad one."""
    n, a = model.n, model.alpha
    ok = np.array([a] * (n // a) + ([n % a] if n % a else []), dtype=np.int64)
    return {
        "longer than alpha": [ok, np.array([a + 1, n - a - 1])],
        "zero length": [ok, np.concatenate(([0], ok))],
        "wrong sum": [ok, ok[1:]],
        "empty sample": [ok, np.array([], dtype=np.int64)],
        "not integers": [ok, ok.astype(float)],
    }


CLT_MODEL = ConstraintModel(n=2000, alpha=12, theta=1.0)
_BATTERIES = {
    "diverging": (DIVERGING, lambda b: check_longest_diverging(b, DIVERGING, 1)),
    "critical": (CRITICAL, lambda b: check_longest_critical(b, CRITICAL, 1, 5)),
    "process": (VANISHING, lambda b: poisson_process_battery(b, VANISHING, [0.5, 1.0])),
    "tightness": (VANISHING, lambda b: tightness_moment_estimate(b, VANISHING, 0.5, 1.0, 1.5)),
    "clt": (CLT_MODEL, lambda b: clt_battery(CLT_MODEL, [10, 12], 1, samples=b)),
}


class TestSampleValidation:
    @pytest.mark.parametrize("battery", sorted(_BATTERIES))
    @pytest.mark.parametrize("case", sorted(_invalid_batches(CRITICAL)))
    def test_invalid_sample_raises_domain_error(self, battery, case):
        model, run = _BATTERIES[battery]
        with pytest.raises(DomainError):
            run(_invalid_batches(model)[case])

    @pytest.mark.parametrize("battery", sorted(_BATTERIES))
    def test_valid_batch_is_accepted(self, battery):
        model, run = _BATTERIES[battery]
        run(sample_lengths(model, 30, seed=9))

    def test_cycle_beyond_the_cap_in_critical_check(self):
        with pytest.raises(DomainError, match="1..alpha"):
            check_longest_critical([np.array([200, 1800])], CRITICAL, 1, 5)

    @pytest.mark.parametrize("battery", sorted(_BATTERIES))
    def test_empty_batch_raises_domain_error(self, battery):
        with pytest.raises(DomainError, match="empty sample batch"):
            _BATTERIES[battery][1]([])
