import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.errors import (
    ConstraintError,
    DegenerateWeightsError,
    DomainError,
    NumericalError,
    SizeGuardError,
)
import cyclecap.exact as exact
from cyclecap.exact import (
    CoefficientTable,
    TiltedModel,
    brute_force_distribution,
    chernoff_tail_bound,
    compound_poisson_pmf,
    cycle_count_distribution,
    egf_coefficients,
    exact_tv_distance,
    expected_cycle_count,
    joint_cycle_count_logpmf,
    longest_cycle_cdf,
    mgf_Cm,
    partition_function,
    poisson_means,
)
from cyclecap.model import AlphaRule, ConstraintModel, CycleType, WeightArray
from cyclecap.sampler import sample_lengths
from cyclecap.saddle import solve_saddle
from oracles import (
    conditioned_distribution,
    counts_prefix,
    iter_prefix_support,
    log_linear_dp_reference,
    partition_constant,
    poisson_pmf,
    prefix_distribution,
    tv_to_poisson_prefix,
)

THETAS = [0.5, 1.0, 2.0]


def series_coefficients(q: np.ndarray, N: int) -> list:
    """exp(sum_j q_j x^j / j) coefficients by direct Cauchy-product of the
    exponential series, in plain floats."""
    # g[k] = q_k / k for 1 <= k <= alpha
    alpha = len(q)
    g = [0.0] * (N + 1)
    for j in range(1, min(alpha, N) + 1):
        g[j] = q[j - 1] / j
    h = [0.0] * (N + 1)
    h[0] = 1.0
    for k in range(1, N + 1):
        h[k] = sum(j * g[j] * h[k - j] for j in range(1, k + 1)) / k
    return h


class TestEgfCoefficients:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("alpha,N", [(1, 10), (3, 12), (7, 20), (10, 10)])
    def test_matches_direct_series(self, alpha, N, theta):
        q = WeightArray.constant(theta, alpha)
        table = egf_coefficients(q, N)
        reference = series_coefficients(q.q, N)
        for k in range(N + 1):
            assert table.coefficient(k).value() == pytest.approx(reference[k], rel=1e-12)

    def test_tilt_invariance(self):
        q = WeightArray.constant(1.0, 5)
        t1 = egf_coefficients(q, 30)
        t2 = egf_coefficients(q, 30, tilt=2.5)
        t3 = egf_coefficients(q, 30, tilt=0.125)
        for k in (0, 1, 7, 30):
            assert t2.log_coefficient(k) == pytest.approx(t1.log_coefficient(k), abs=1e-10)
            assert t3.log_coefficient(k) == pytest.approx(t1.log_coefficient(k), abs=1e-10)

    def test_recurrence_contract_on_moderate_sizes(self):
        q = WeightArray.constant(1.0, 40)
        table = egf_coefficients(q, 2000)
        errs = [table.recurrence_rel_error(k) for k in (1, 17, 400, 1999, 2000)]
        assert max(errs) <= 1e-10

    def test_huge_dynamic_range(self):
        # theta large, x^j spread over hundreds of orders of magnitude
        q = WeightArray.constant(50.0, 30)
        table = egf_coefficients(q, 500, tilt=3.0)
        assert np.isfinite(table.log_coefficient(500))
        assert table.recurrence_rel_error(500) <= 1e-9

    def test_zero_prefix_weights(self):
        # weights supported on {3,...,6}: coefficients at k not representable vanish
        q = WeightArray(q=np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]))
        table = egf_coefficients(q, 8)
        assert table.coefficient(0).value() == 1.0
        assert table.coefficient(1).is_zero
        assert table.coefficient(2).is_zero
        assert table.coefficient(3).value() == pytest.approx(1 / 3, rel=1e-12)

    @given(st.integers(min_value=1, max_value=8), st.sampled_from(THETAS))
    @settings(max_examples=20)
    def test_coefficients_nonnegative_and_finite(self, alpha, theta):
        table = egf_coefficients(WeightArray.constant(theta, alpha), 25)
        logs = [table.log_coefficient(k) for k in range(26)]
        assert all(not math.isnan(v) for v in logs)


def assert_same_logs(got, expected, rel):
    """Same -inf pattern, finite logs within rel * max(1, |log|)."""
    assert np.array_equal(np.isneginf(got), np.isneginf(expected))
    finite = np.isfinite(expected)
    scale = np.maximum(1.0, np.abs(expected[finite]))
    assert np.all(np.abs(got[finite] - expected[finite]) <= rel * scale)


def saddle_row(n, alpha, theta=1.0):
    """log of the constant row's weights at its saddle tilt for n."""
    x = solve_saddle(WeightArray.constant(theta, alpha), float(n)).x
    return math.log(theta) + np.arange(1, alpha + 1) * math.log(x)


# The in-process benchmark's models: four narrow caps and two wide ones.
EXACT_MODELS = [(10**4, 10), (10**5, 100), (10**5, 1072), (10**6, 1000), (10**4, 2511), (10**5, 17782)]


class TestBlockedKernel:
    @pytest.mark.parametrize("alpha", [1, 2, 5, 17, 64, 100])
    def test_matches_per_index_reference_across_block_boundaries(self, alpha):
        logw = np.log(np.linspace(0.3, 2.5, alpha)) + 0.1 * np.sin(np.arange(alpha))
        for N in range(71):
            assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-13)

    def test_chunk_boundary(self):
        # the in-block inverses are built a chunk of blocks at a time
        N = exact._BLOCK * exact._CHUNK + 3 * exact._BLOCK
        logw = np.log(np.linspace(0.5, 1.5, 7))
        assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-13)

    @pytest.mark.parametrize("support", [(3, 6), (20, 100)])
    def test_zero_prefix_rows_keep_exact_zeros(self, support):
        first, alpha = support
        logw = np.zeros(alpha)
        logw[: first - 1] = -np.inf
        N = 300
        got = exact._log_linear_dp(logw, N)
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-13)
        reachable = np.zeros(N + 1, dtype=bool)
        reachable[0] = True
        for k in range(1, N + 1):
            reachable[k] = any(reachable[k - j] for j in range(first, min(alpha, k) + 1))
        assert np.array_equal(np.isfinite(got), reachable)

    @pytest.mark.parametrize("n,alpha", [(10**5, 100), (10**5, 1072), (10**5, 17782)])
    def test_matches_reference_on_benchmark_tables(self, n, alpha):
        logw = saddle_row(n, alpha)
        assert_same_logs(exact._log_linear_dp(logw, n), log_linear_dp_reference(logw, n), 1e-12)

    def test_bit_identical_reruns(self):
        logw = saddle_row(20000, 300)
        first = exact._log_linear_dp(logw, 20000)
        assert np.array_equal(first, exact._log_linear_dp(logw, 20000))

    @pytest.mark.parametrize("n,alpha", EXACT_MODELS)
    def test_recurrence_contract_on_benchmark_models(self, n, alpha):
        table = TiltedModel.for_model(ConstraintModel(n=n, alpha=alpha, theta=1.0)).table
        B = exact._BLOCK
        for k in (1, B - 1, B, alpha, n // 2, n):
            assert table.recurrence_rel_error(k) <= 1e-10

    def test_block_total_just_below_double_overflow(self):
        # h_16 = e^(16*46.25)/16! is about 2^1023.3: the rescale takes exponent 1024
        logw = np.array([46.25])
        assert_same_logs(exact._log_linear_dp(logw, 40), log_linear_dp_reference(logw, 40), 1e-13)

    @pytest.mark.parametrize(
        "logw",
        [
            [200.0] * 5,  # a block overflows
            [-np.inf, -800.0],  # h_2 = w_2/2 > 0, but w_2 underflows to zero
            [-720.0],  # h_1 = w_1 is subnormal
            [-700.0, 50.0],  # odd entries sit e^-750 below the even ones in one window
        ],
    )
    def test_raises_rather_than_damage_the_table(self, logw):
        with pytest.raises(NumericalError):
            exact._log_linear_dp(np.array(logw), 100)

    def test_overflow_in_the_slack_past_N_is_dropped(self):
        # h_1 = e^700 fits; h_2 = e^1400/2 and later only sit in the last block's slack
        logw = np.array([700.0])
        assert_same_logs(exact._log_linear_dp(logw, 1), log_linear_dp_reference(logw, 1), 1e-15)
        pmf = compound_poisson_pmf([1e300], 1)
        assert np.all(np.isfinite(pmf.log_pmf_values))
        assert pmf.panjer_rel_error(1) == 0.0

    @pytest.mark.parametrize("N", [*range(2, 16), 20])
    def test_overflow_before_N_still_raises(self, N):
        # h_2 = e^1400/2 leaves double range at every N >= 2
        with pytest.raises(NumericalError, match="overflowed"):
            exact._log_linear_dp(np.array([700.0]), N)

    def test_overflow_before_N_is_retilted_in_the_pmf(self):
        # the table at tilt 1 overflows; the pmf is built from the saddle-tilted one
        pmf = compound_poisson_pmf([1e300], 4)
        assert_same_logs(pmf.log_pmf_values, log_linear_dp_reference(np.log([1e300]), 4) - 1e300, 1e-15)
        means = np.exp([300.0, -5.0, 700.0]) / [1, 2, 3]
        with pytest.raises(NumericalError, match="overflowed"):
            exact._log_linear_dp(np.log(np.arange(1, 4) * means), 3)
        expected = log_linear_dp_reference(np.log(np.arange(1, 4) * means), 3)
        assert abs(expected[3] - 898.2) < 0.05
        assert_same_logs(compound_poisson_pmf(means, 3).log_pmf_values, expected - np.sum(means), 1e-15)

    def test_underflowing_pmf_is_retilted(self):
        # p_k = e^-mu mu^k / k! with mu = 1e-300: p_2 is below double range at tilt 1
        pmf = compound_poisson_pmf([1e-300], 5)
        k = np.arange(6)
        expected = k * math.log(1e-300) - 1e-300 - np.array([math.lgamma(v + 1) for v in k])
        assert_same_logs(pmf.log_pmf_values, expected, 1e-14)

    def test_pmf_tables_that_fit_are_unchanged(self):
        # the pmf runs the table at tilt 1, exactly as the kernel would on j * mu_j
        means = np.random.default_rng(1).uniform(0.0, 3.0, 50)
        got = compound_poisson_pmf(means, 400).log_pmf_values
        raw = exact._log_linear_dp(np.log(np.arange(1, 51) * means), 400) - np.sum(means)
        assert np.array_equal(got, raw)


@pytest.fixture
def fft_verdicts(monkeypatch):
    """Whether each panel's FFT middle product was certified (True) or fell back."""
    verdicts = []
    certified = exact._MiddleProduct.older_terms

    def recording(self, buf, K0, blocks):
        R = certified(self, buf, K0, blocks)
        verdicts.append(R is not None)
        return R

    monkeypatch.setattr(exact._MiddleProduct, "older_terms", recording)
    return verdicts


class TestPanelKernel:
    """Caps from _PANEL_MIN_ALPHA on advance a panel of blocks per matrix product."""

    def test_narrow_caps_run_one_block_per_panel(self):
        assert all(exact._panel_blocks(alpha) == 1 for alpha in range(1, 1073))
        assert exact._panel_blocks(17782) > 1

    @pytest.mark.parametrize("P", [2, 3, 5, 7])
    def test_any_panel_size_matches_the_reference(self, monkeypatch, P):
        # Small caps forced into panels: panels start while K < alpha, the last
        # one is partial, and once c*B >= alpha the window of a panel's block c
        # lies wholly inside the panel.
        monkeypatch.setattr(exact, "_panel_blocks", lambda alpha: P)
        for alpha in (1, 2, 5, 17, 64, 100):
            logw = np.log(np.linspace(0.3, 2.5, alpha)) + 0.1 * np.sin(np.arange(alpha))
            for N in range(0, 200, 7):
                assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-13)

    def test_several_panels_with_a_partial_last_one(self):
        alpha = exact._PANEL_MIN_ALPHA
        span = exact._panel_blocks(alpha) * exact._BLOCK
        N = 3 * span + 5 * exact._BLOCK + 3  # every panel starts while K < alpha
        assert 2 * span < alpha
        logw = np.log(np.linspace(0.5, 1.5, alpha)) + 0.1 * np.sin(np.arange(alpha))
        assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-12)

    @pytest.mark.parametrize("slope", [0.02, -0.02])
    def test_rescale_inside_a_panel(self, slope, fft_verdicts):
        # h_k grows (or decays) like e^(slope*k): each way the window is rescaled
        # several times inside panels, and the panels' later rows with it.
        alpha, N = exact._PANEL_MIN_ALPHA, 30000
        logw = slope * np.arange(1, alpha + 1)
        assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-12)
        # Each window spans e^(0.02*alpha) = e^82, so no FFT product is certified.
        assert False in fft_verdicts

    def test_panel_rows_below_normal_after_a_rescale(self, fft_verdicts):
        # Weights past 1000 are subnormal, so the later rows of a panel, which
        # only those weights reach, fall below normal when a rescale scales them
        # down; the entries they feed stay exact to an ulp.
        alpha, N = exact._PANEL_MIN_ALPHA, 60000
        logw = np.full(alpha, -720.0)
        logw[:1000] = 0.01 * np.arange(1, 1001)
        assert_same_logs(exact._log_linear_dp(logw, N), log_linear_dp_reference(logw, N), 1e-12)
        assert False in fft_verdicts

    def test_zero_prefix_wide_row_keeps_exact_zeros(self, fft_verdicts):
        first, alpha, N = 20, 5000, 6000
        logw = np.zeros(alpha)
        logw[: first - 1] = -np.inf
        got = exact._log_linear_dp(logw, N)
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)
        assert np.array_equal(np.isfinite(got), (np.arange(N + 1) == 0) | (np.arange(N + 1) >= first))
        assert False in fft_verdicts  # the first panel's outputs h_1..h_19 are true zeros

    @pytest.mark.parametrize(
        "head",
        [[200.0] * 5, [-np.inf, -800.0], [-720.0], [-700.0, 50.0]],
    )
    def test_wide_rows_still_raise(self, head, fft_verdicts):
        logw = np.full(5000, -np.inf)
        logw[: len(head)] = head
        with pytest.raises(NumericalError):
            exact._log_linear_dp(logw, 3000)
        assert False in fft_verdicts

    def test_fft_serves_every_panel_but_the_first_on_the_benchmark_row(self, fft_verdicts):
        # The first panel's window holds h_0 alone, so its outputs are the
        # weights w_1..w_PB, far below |w|: the certificate fails there.
        n, alpha = 10**5, 17782
        exact._log_linear_dp(saddle_row(n, alpha), n)
        span = exact._panel_blocks(alpha) * exact._BLOCK
        assert fft_verdicts == [False] + [True] * (-(-n // span) - 1)

    @pytest.mark.parametrize("theta", [0.3, 1.0, 3.0])
    def test_fft_error_stays_inside_its_certificate(self, monkeypatch, theta):
        # Sampled outputs of every certified product against a long-double sum
        # of the same terms: the measured error uses at most a tenth of the bound.
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble has no extended precision on this platform")
        n, alpha = 10**4, 5000
        logw = saddle_row(n, alpha, theta)
        w = np.exp(logw).astype(np.longdouble)
        certified = exact._MiddleProduct.older_terms
        ratios = []

        def measuring(self, buf, K0, blocks):
            R = certified(self, buf, K0, blocks)
            if R is not None:
                u = buf[K0 : K0 + alpha]
                unit = self.error_bound(u) / exact._FFT_C
                y = R.ravel()
                for t in [*range(0, len(y), 37), int(np.argmin(y))]:
                    # y_t = sum_{s >= t} w_{alpha+t-s} u_s
                    exact_t = np.dot(w[alpha - 1 : t - 1 if t else None : -1], u[t:].astype(np.longdouble))
                    ratios.append(float(abs(y[t] - exact_t)) / unit)
            return R

        monkeypatch.setattr(exact._MiddleProduct, "older_terms", measuring)
        exact._log_linear_dp(logw, n)
        assert ratios and max(ratios) <= exact._FFT_C / 10

    def test_bit_identical_reruns_at_a_wide_cap(self):
        logw = saddle_row(10**5, 17782)
        assert exact._panel_blocks(17782) > 1
        first = exact._log_linear_dp(logw, 10**5)
        assert np.array_equal(first, exact._log_linear_dp(logw, 10**5))


@given(st.integers(min_value=1, max_value=10**4))
def test_smooth_length_is_the_least_5_smooth_length(n):
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    L = exact._smooth_length(n)
    assert L >= n and smooth(L)
    assert not any(smooth(m) for m in range(n, L))


class TestExtremeWeights:
    """Rows whose coefficients span far more than double range."""

    N = 3000
    _reference = {}

    @classmethod
    def reference(cls, theta, alpha):
        """log h_k, k = 0..N, from the recurrence in 40-digit arithmetic."""
        key = (theta, alpha)
        if key not in cls._reference:
            mpmath = pytest.importorskip("mpmath")
            with mpmath.workdps(40):
                t = mpmath.mpf(theta)
                h = [mpmath.mpf(1)]
                for k in range(1, cls.N + 1):
                    h.append(t * mpmath.fsum(h[max(0, k - alpha) : k]) / k)
                cls._reference[key] = np.array([float(mpmath.log(v)) for v in h])
        return cls._reference[key]

    @pytest.mark.parametrize("alpha", [1, 3, 50])
    @pytest.mark.parametrize("theta", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300])
    def test_tables_match_40_digit_recurrence_or_raise(self, theta, alpha):
        expected = self.reference(theta, alpha)
        q = WeightArray.constant(theta, alpha)
        tables = [egf_coefficients(q, self.N)]  # every row of this grid fits at its saddle
        for tilt in (1e-5, 1e5):
            try:
                tables.append(egf_coefficients(q, self.N, tilt=tilt))
            except NumericalError:
                pass
        for table in tables:
            got = np.array([table.log_coefficient(k) for k in range(self.N + 1)])
            assert_same_logs(got, expected, 1e-12)

    def test_row_beyond_double_range_at_its_saddle_raises(self):
        # h_k x^k grows like 5000^k / k! over the first window of 400 entries
        with pytest.raises(NumericalError):
            egf_coefficients(WeightArray.constant(1e10, 400), 5000)

    def test_requested_tilt_kept_where_the_table_fits(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exact, "solve_saddle", lambda *a: calls.append(a) or solve_saddle(*a))
        q = WeightArray.constant(1.0, 40)
        egf_coefficients(q, 2000)
        egf_coefficients(q, 500, tilt=3.0)
        assert calls == []
        table = egf_coefficients(WeightArray.constant(1e10, 50), 3000)
        assert len(calls) == 1 and table.tilt == 1.0
        assert table.recurrence_rel_error(177) <= 1e-10


class TestPartitionFunction:
    def test_known_value_five_three(self):
        z = partition_function(ConstraintModel(n=5, alpha=3, theta=1.0))
        assert z.value() == pytest.approx(66 / 120, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unconstrained_theta_one_is_one(self, n):
        z = partition_function(ConstraintModel(n=n, alpha=n, theta=1.0))
        assert z.value() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_enumeration(self, n, theta):
        for alpha in range(1, n + 1):
            z = partition_function(ConstraintModel(n=n, alpha=alpha, theta=theta))
            assert z.value() == pytest.approx(
                partition_constant(n, alpha, theta), rel=1e-10
            )


class TestCompoundPoisson:
    def test_frozen_value(self):
        # means {mu_1 = 1, mu_2 = 1}: P(T = 2) = e^{-2} (1/2! + 1) = 1.5 e^{-2}
        dist = compound_poisson_pmf(np.array([1.0, 1.0]), 10)
        assert dist.p(2) == pytest.approx(1.5 * math.exp(-2.0), rel=1e-12)

    def test_matches_direct_convolution(self):
        means = np.array([0.3, 1.2, 0.05])
        dist = compound_poisson_pmf(means, 25)
        # direct: T = 1*Y_1 + 2*Y_2 + 3*Y_3, independent Poissons
        direct = np.zeros(26)
        for y1 in range(26):
            for y2 in range(13):
                for y3 in range(9):
                    t = y1 + 2 * y2 + 3 * y3
                    if t <= 25:
                        direct[t] += (
                            poisson_pmf(y1, 0.3) * poisson_pmf(y2, 1.2) * poisson_pmf(y3, 0.05)
                        )
        for k in range(26):
            assert dist.p(k) == pytest.approx(direct[k], rel=1e-10)

    def test_total_mass_with_tail(self):
        means = np.array([0.5, 0.5, 0.5])
        m = float((np.arange(1, 4) * means).sum())
        N = int(20 * m) + 1
        dist = compound_poisson_pmf(means, N)
        total = sum(dist.p(k) for k in range(N + 1)) + dist.tail_mass
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_point_mass_when_empty(self):
        dist = compound_poisson_pmf(np.array([]), 5)
        assert dist.p(0) == pytest.approx(1.0)
        assert dist.p(3) == 0.0
        assert dist.tail_mass == pytest.approx(0.0, abs=1e-15)

    def test_mapping_means_with_offset(self):
        # support {3, 5}: same law as dense vector with zeros elsewhere
        a = compound_poisson_pmf({3: 0.7, 5: 0.2}, 15)
        b = compound_poisson_pmf(np.array([0.0, 0.0, 0.7, 0.0, 0.2]), 15)
        for k in range(16):
            assert a.p(k) == pytest.approx(b.p(k), rel=1e-12, abs=1e-300)

    def test_panjer_identity(self):
        dist = compound_poisson_pmf(np.array([0.4, 0.8, 0.1, 0.3]), 40)
        errs = [dist.panjer_rel_error(k) for k in range(1, 41)]
        assert max(errs) <= 1e-10

    def test_negative_mean_rejected(self):
        with pytest.raises(DomainError):
            compound_poisson_pmf(np.array([0.5, -0.1]), 5)


class TestJointPrefix:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_matches_enumeration(self, n, theta):
        for alpha in range(1, n + 1):
            model = ConstraintModel(n=n, alpha=alpha, theta=theta)
            b = min(3, alpha)
            expected = prefix_distribution(n, alpha, theta, b)
            for c in iter_prefix_support(n, b):
                got = joint_cycle_count_logpmf(model, list(c)).value()
                assert got == pytest.approx(expected.get(c, 0.0), abs=1e-10)

    def test_marginalization_consistency(self):
        # summing the law over the b-th coordinate gives the (b-1)-prefix law
        model = ConstraintModel(n=30, alpha=10, theta=1.5)
        for b in (2, 3, 5):
            for c in [(1, 0, 2, 0, 1)[: b - 1], (0,) * (b - 1)]:
                total = sum(
                    joint_cycle_count_logpmf(model, list(c) + [cb]).value()
                    for cb in range(model.n // b + 1)
                )
                direct = joint_cycle_count_logpmf(model, list(c)).value()
                assert total == pytest.approx(direct, abs=1e-9)

    def test_empty_prefix_is_one(self):
        model = ConstraintModel(n=12, alpha=4, theta=1.0)
        assert joint_cycle_count_logpmf(model, []).value() == pytest.approx(1.0)

    def test_overweight_prefix_is_zero(self):
        model = ConstraintModel(n=6, alpha=3, theta=1.0)
        assert joint_cycle_count_logpmf(model, [7]).is_zero

    def test_prefix_validation(self):
        model = ConstraintModel(n=6, alpha=3, theta=1.0)
        with pytest.raises(ConstraintError):
            joint_cycle_count_logpmf(model, [0, 0, 0, 1])
        with pytest.raises(DomainError):
            joint_cycle_count_logpmf(model, [-1])


class TestExactTV:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_matches_brute_force(self, n, theta):
        for alpha in range(1, n + 1):
            for b in range(0, min(3, alpha) + 1):
                model = ConstraintModel(n=n, alpha=alpha, theta=theta)
                got = exact_tv_distance(model, b).tv
                expected = tv_to_poisson_prefix(n, alpha, theta, b)
                assert got == pytest.approx(expected, abs=1e-8)

    def test_b_zero_is_zero(self):
        report = exact_tv_distance(ConstraintModel(n=20, alpha=5, theta=1.0), 0)
        assert report.tv == 0.0 and report.terms_summed == 0

    def test_b_beyond_alpha_rejected(self):
        with pytest.raises(ConstraintError):
            exact_tv_distance(ConstraintModel(n=20, alpha=5, theta=1.0), 6)

    def test_range_and_report_fields(self):
        model = ConstraintModel(n=64, alpha=16, theta=1.0)
        report = exact_tv_distance(model, 4)
        assert 0.0 <= report.tv <= 1.0
        js = report.to_json()
        assert js["n"] == 64 and js["alpha"] == 16 and js["b"] == 4
        assert js["tv"] == report.tv

    def test_full_prefix_b_equals_alpha(self):
        # b = alpha: TV between the whole conditioned vector and the product law
        model = ConstraintModel(n=6, alpha=3, theta=1.0)
        got = exact_tv_distance(model, 3).tv
        expected = tv_to_poisson_prefix(6, 3, 1.0, 3)
        assert got == pytest.approx(expected, abs=1e-10)


class TestChernoff:
    def test_frozen_value(self):
        bound = chernoff_tail_bound(np.array([1.0, 1.0]), 4.0)
        assert bound.logval == pytest.approx(3 * (4 - 4 * math.log(4)) / 2, rel=1e-12)
        assert bound.logval == pytest.approx(-2.3178, abs=5e-5)

    def test_rho_at_e_is_one(self):
        bound = chernoff_tail_bound(np.array([1.0]), math.e)
        assert bound.value() == pytest.approx(1.0, rel=1e-12)

    def test_invalid_rho(self):
        with pytest.raises(DomainError):
            chernoff_tail_bound(np.array([1.0]), 1.0)
        with pytest.raises(DomainError):
            chernoff_tail_bound(np.array([1.0]), 0.5)

    @pytest.mark.parametrize("rho", [1.5, 2.0, 4.0, 8.0])
    def test_dominates_exact_tail(self, rho):
        for means in (
            np.array([1.0, 1.0]),
            np.array([0.2, 0.0, 1.5, 0.3]),
            np.full(20, 0.25),
        ):
            m = float((np.arange(1, len(means) + 1) * means).sum())
            bound = chernoff_tail_bound(means, rho)
            N = int(5 * rho * m) + len(means) + 2
            dist = compound_poisson_pmf(means, N)
            tail = sum(dist.p(k) for k in range(math.ceil(rho * m), N + 1)) + dist.tail_mass
            assert bound.value() >= tail - 1e-12


class TestBruteForce:
    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [1, 4, 6, 7])
    def test_matches_permutation_census(self, n, theta):
        for alpha in range(1, n + 1):
            model = ConstraintModel(n=n, alpha=alpha, theta=theta)
            got = brute_force_distribution(model)
            expected = conditioned_distribution(n, alpha, theta)
            assert len(got) == len(expected)
            for t, logp in got.items():
                key = tuple(sorted(t.lengths().tolist(), reverse=True))
                assert logp.value() == pytest.approx(expected[key], rel=1e-10)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_distribution(ConstraintModel(n=13, alpha=13, theta=1.0))


class TestCycleCountDistribution:
    @pytest.mark.parametrize("n,alpha,theta,m", [(6, 3, 1.0, 2), (7, 4, 2.0, 1), (7, 7, 0.5, 7)])
    def test_matches_brute_force(self, n, alpha, theta, m):
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        logpmf = cycle_count_distribution(model, m)
        expected = np.zeros(n // m + 1)
        for part, p in conditioned_distribution(n, alpha, theta).items():
            expected[counts_prefix(part, m)[m - 1]] += p
        got = np.exp(logpmf)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_normalized_and_mean_consistent(self):
        model = ConstraintModel(n=200, alpha=20, theta=1.3)
        for m in (1, 7, 20):
            logpmf = cycle_count_distribution(model, m)
            p = np.exp(logpmf)
            assert p.sum() == pytest.approx(1.0, abs=1e-10)
            mean = float((np.arange(len(p)) * p).sum())
            assert mean == pytest.approx(expected_cycle_count(model, m), rel=1e-9)

    def test_m_beyond_alpha_rejected(self):
        with pytest.raises(ConstraintError):
            cycle_count_distribution(ConstraintModel(n=10, alpha=3, theta=1.0), 4)


class TestExpectedCycleCount:
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration(self, theta):
        n, alpha = 7, 4
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        dist = conditioned_distribution(n, alpha, theta)
        for m in range(1, alpha + 1):
            expected = sum(p * counts_prefix(part, m)[m - 1] for part, p in dist.items())
            assert expected_cycle_count(model, m) == pytest.approx(expected, rel=1e-10)

    def test_total_size_identity(self):
        # sum_m m * E[C_m] = n exactly
        model = ConstraintModel(n=60, alpha=9, theta=0.7)
        total = sum(m * expected_cycle_count(model, m) for m in range(1, 10))
        assert total == pytest.approx(60.0, rel=1e-10)


class TestLongestCycleCdf:
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_enumeration(self, theta):
        n, alpha = 7, 5
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        dist = conditioned_distribution(n, alpha, theta)
        for m in range(0, alpha + 1):
            expected = sum(p for part, p in dist.items() if max(part) <= m)
            assert longest_cycle_cdf(model, m) == pytest.approx(expected, abs=1e-12)

    def test_boundaries(self):
        model = ConstraintModel(n=9, alpha=4, theta=1.0)
        assert longest_cycle_cdf(model, 0) == 0.0
        assert longest_cycle_cdf(model, 4) == pytest.approx(1.0, rel=1e-12)


class TestPoissonMeans:
    def test_tilt_equation_holds(self):
        model = ConstraintModel(n=500, alpha=40, theta=1.7)
        mu = poisson_means(model)
        assert float((np.arange(1, 41) * mu).sum()) == pytest.approx(500.0, rel=1e-9)

    def test_mutating_the_returned_means_changes_nothing_later(self):
        model = ConstraintModel(n=300, alpha=17, theta=1.9)
        mu = poisson_means(model)
        before = (exact_tv_distance(model, 4).tv, joint_cycle_count_logpmf(model, [1, 2]).logval)
        mu[:] = 0.0
        after = (exact_tv_distance(model, 4).tv, joint_cycle_count_logpmf(model, [1, 2]).logval)
        assert after == before
        assert np.all(poisson_means(model) > 0)
        assert not TiltedModel.for_model(model).mu.flags.writeable


class TestTiltedModel:
    def test_one_table_build_serves_the_queries_of_one_model(self, monkeypatch):
        model = ConstraintModel(n=400, alpha=20, theta=1.3)
        calls = []
        dp = exact._log_linear_dp

        def counting_dp(logw, N):
            calls.append((len(logw), bool(np.all(np.isfinite(logw)))))
            return dp(logw, N)

        monkeypatch.setattr(exact, "_log_linear_dp", counting_dp)
        exact._build_tilted.cache_clear()
        partition_function(model)
        for m in (1, 10, 20):
            expected_cycle_count(model, m)
        exact_tv_distance(model, 5)
        # The h-table is the only full-width row with every weight present;
        # the TV distance adds its two compound-Poisson tables (b = 5 and the rest).
        assert calls.count((20, True)) == 1
        assert len(calls) == 3

    def test_model_with_a_table_rule_runs_end_to_end(self):
        plain = ConstraintModel(n=30, alpha=5, theta=1.2)
        ruled = ConstraintModel(n=30, alpha=5, theta=1.2, alpha_rule=AlphaRule(table={30: 5, 40: 6}))

        def results(model):
            return (
                partition_function(model).logval,
                expected_cycle_count(model, 3),
                cycle_count_distribution(model, 5).tolist(),
                longest_cycle_cdf(model, 4),
                exact_tv_distance(model, 2).tv,
                joint_cycle_count_logpmf(model, [2, 1]).logval,
                mgf_Cm(model, 2, 0.4),
                poisson_means(model).tolist(),
                [x.tolist() for x in sample_lengths(model, 5, seed=4)],
            )

        assert results(ruled) == results(plain)
