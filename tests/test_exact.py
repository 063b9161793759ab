import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclecap.errors import (
    ConstraintError,
    DomainError,
    NumericalError,
    SizeGuardError,
)
import cyclecap.exact as exact
from cyclecap.exact import (
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
    partition_function,
)
from cyclecap.model import ConstraintModel, WeightArray
from cyclecap.saddle import solve_saddle
from oracles import (
    conditioned_distribution,
    counts_prefix,
    cycle_count_law,
    iter_prefix_support,
    log_linear_dp_reference,
    partition_constant,
    poisson_pmf,
    prefix_distribution,
    tv_to_poisson_prefix,
    weighted_counts,
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
            assert math.exp(table.coefficient(k).logval) == pytest.approx(reference[k], rel=1e-12)

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
        assert math.exp(table.coefficient(0).logval) == 1.0
        assert table.coefficient(1).logval == -math.inf
        assert table.coefficient(2).logval == -math.inf
        assert math.exp(table.coefficient(3).logval) == pytest.approx(1 / 3, rel=1e-12)

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


# (logw, N) of rows the scan does not take: the benchmark rows; wide rows
# whose windows span e^(0.02*alpha) = e^82, so the kernel rescales them
# several times, growing or decaying; and a row whose weights past 1000 are
# subnormal, so that a rescale pushes the terms only they reach below normal.
KERNEL_ROWS = {
    "100000-100": lambda: (saddle_row(10**5, 100), 10**5),
    "100000-1072": lambda: (saddle_row(10**5, 1072), 10**5),
    "100000-17782": lambda: (saddle_row(10**5, 17782), 10**5),
    "slope0.02": lambda: (0.02 * np.arange(1, 4097), 30000),
    "slope-0.02": lambda: (-0.02 * np.arange(1, 4097), 30000),
    "subnormal-tail": lambda: (np.concatenate((0.01 * np.arange(1, 1001), np.full(3096, -720.0))), 60000),
}

RAISING_HEADS = [
    np.array([200.0] * 5),  # a block overflows
    np.array([-np.inf, -800.0]),  # h_2 = w_2/2 > 0, but w_2 underflows to zero
    np.array([-720.0]),  # h_1 = w_1 is subnormal
    np.array([-700.0, 50.0]),  # odd entries sit e^-750 below the even ones in one window
]


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

    # (first weight, alpha, N); the scan would take the wide row, so the kernel runs directly
    @pytest.mark.parametrize("support", [(3, 6, 300), (20, 100, 300), (20, 5000, 6000)])
    def test_zero_prefix_rows_keep_exact_zeros(self, support):
        first, alpha, N = support
        logw = np.zeros(alpha)
        logw[: first - 1] = -np.inf
        got = exact._blocked_dp(logw, N)
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-13)
        reachable = np.zeros(N + 1, dtype=bool)
        reachable[0] = True
        for k in range(1, N + 1):
            reachable[k] = any(reachable[k - j] for j in range(first, min(alpha, k) + 1))
        assert np.array_equal(np.isfinite(got), reachable)

    @pytest.mark.parametrize("row", KERNEL_ROWS.values(), ids=KERNEL_ROWS.keys())
    def test_matches_reference_on_benchmark_tables(self, row):
        logw, N = row()
        assert_same_logs(exact._blocked_dp(logw, N), log_linear_dp_reference(logw, N), 1e-12)

    def test_bit_identical_reruns(self):
        logw = saddle_row(20000, 300)
        first = exact._blocked_dp(logw, 20000)
        assert np.array_equal(first, exact._blocked_dp(logw, 20000))

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
        "logw", [*RAISING_HEADS, *(np.concatenate((h, np.full(5000 - len(h), -np.inf))) for h in RAISING_HEADS)]
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


class TestPanelKernel:
    """Non-geometric rows at wide caps run the blocked kernel one product per block."""

    def test_a_public_law_runs_certified_panels(self):
        # The law of C_m for m < alpha reads the row without weight m, whose
        # interior zero keeps it off the geometric scan and on the blocked kernel.
        model = ConstraintModel(n=65536, alpha=8192, theta=1.0)
        exact._count_law.cache_clear()  # a law cached by an earlier test builds nothing
        p = np.exp(cycle_count_distribution(model, 50))
        assert abs(p.sum() - 1.0) < 1e-10
        assert abs(np.arange(len(p)) @ p - expected_cycle_count(model, 50)) < 1e-10

    def test_bit_identical_reruns_at_a_wide_cap(self):
        logw = saddle_row(10**5, 17782)
        first = exact._blocked_dp(logw, 10**5)
        assert np.array_equal(first, exact._blocked_dp(logw, 10**5))


class TestGeometricScan:
    """Geometric rows of at least _SCAN_MIN_C weights past a zero head take the O(N) panel scan."""

    @staticmethod
    def tilted_row(c, theta, scale, tail=0, head=0):
        """log(theta*x^j), j = 1..c, with the first `head` set to -inf, then `tail` -infs.

        log x is scale times the saddle's for N.
        """
        N = c + 2 * min(c, exact._SCAN_PANEL) + 5  # a partial last panel
        logw = saddle_row(N, c, theta)
        logw = math.log(theta) + scale * (logw - math.log(theta))
        logw[:head] = -np.inf
        return np.concatenate((logw, np.full(tail, -np.inf))), N

    @pytest.fixture
    def any_length(self, monkeypatch):
        """Let zero-head rows take the scan however few coefficients their tables need."""
        monkeypatch.setattr(exact, "_HEAD_PANEL_BLOCKS", 0)

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("c", [128, 1072, 4096, 17782])
    def test_matches_per_index_reference(self, c, theta, scale):
        logw, N = self.tilted_row(c, theta, scale)
        got = exact._geometric_scan(logw, N)
        assert got is not None
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("c", ["128+b", 1072, 4096, 17782])
    @pytest.mark.parametrize("b", [1, 3, 19, "(c-1)//2"])
    def test_zero_head_matches_per_index_reference(self, any_length, b, c, theta):
        # The rows without weights 1..b: h_1..h_b are exact zeros, every later
        # entry is reached, and b = (c-1)//2 is the longest head with that property.
        if c == "128+b":
            c = 128 + b if b != "(c-1)//2" else 255
        if b == "(c-1)//2":
            b = (c - 1) // 2
        logw, N = self.tilted_row(c, theta, 1.0, head=b)
        got = exact._geometric_scan(logw, N)
        assert got is not None
        assert np.all(got[1 : b + 1] == -np.inf) and np.all(np.isfinite(got[b + 1 :]))
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)

    def test_tables_shorter_than_the_row(self, any_length):
        # N <= c: every panel's window still holds the leading zeros for k < 0;
        # with a zero head of 19 and N <= 19 the table is h_0 and exact zeros
        for b in (0, 19):
            logw, _ = self.tilted_row(1072, 1.0, 1.0, head=b)
            for N in (0, 1, 18, 19, 20, 500, 1071, 1072, 1073):
                got = exact._geometric_scan(logw, N)
                assert got is not None
                assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)

    def test_row_without_its_last_weight(self):
        # the row without weight alpha: c = alpha - 1 geometric weights, then -inf
        logw, N = self.tilted_row(1072, 1.0, 1.0, tail=1)
        got = exact._geometric_scan(logw, N)
        assert got is not None
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)

    @pytest.mark.parametrize("c", [1072, 4096])
    def test_rescale_inside_a_panel(self, monkeypatch, any_length, c):
        # A narrow rescale range rescales every few panels; from c = 4096 on
        # each window spans two panels, so a rescale reaches into the panel
        # before. With a zero head the first rescales reach h_1..h_b, which stay zero.
        monkeypatch.setattr(exact, "_RESCALE_HI", 2.0**4)
        monkeypatch.setattr(exact, "_RESCALE_LO", 2.0**-4)
        events = []
        stored_logs = exact._stored_logs

        def recording(G, rescales):
            events.extend(rescales)
            return stored_logs(G, rescales)

        monkeypatch.setattr(exact, "_stored_logs", recording)
        N = 20000
        for b in (0, 19):
            first_rescaled = []
            for slope in (2e-3, -2e-3):  # seven to ten rescales each
                events.clear()
                logw = slope * np.arange(1, c + 1)
                logw[:b] = -np.inf
                got = exact._geometric_scan(logw, N)
                assert got is not None and len(events) >= 2
                assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)
                first_rescaled.append(events[0][0])
        assert min(first_rescaled) <= b  # a window rescaled while it held h_1..h_19

    def test_bit_identical_reruns(self):
        for b in (0, 19):  # a model table and the row without weights 1..19
            logw = saddle_row(10**5, 17782)
            logw[:b] = -np.inf
            first = exact._geometric_scan(logw, 10**5)
            assert first is not None
            assert np.array_equal(first, exact._geometric_scan(logw, 10**5))

    @pytest.mark.parametrize("c", [255, 1072])
    def test_head_past_half_the_row_takes_the_kernel(self, any_length, c):
        # b > (c-1)/2 leaves k = c+1 unreachable: an interior zero the scan does not model
        b = (c - 1) // 2 + 1
        logw, N = self.tilted_row(c, 1.0, 1.0, head=b)
        assert exact._geometric_scan(logw, N) is None
        got = exact._log_linear_dp(logw, N)
        assert got[c + 1] == -np.inf
        assert_same_logs(got, log_linear_dp_reference(logw, N), 1e-12)

    @pytest.mark.parametrize(
        "logw",
        [
            np.full(200, 800.0),  # theta*x overflows
            np.log(1e-5) * np.arange(1, 201),  # x^(c-1) below normal
            np.full(200, 60.0),  # theta = e^60: the panel's cumprod overflows
        ],
    )
    def test_failed_certificate_leaves_the_row_to_the_kernel(self, logw):
        assert exact._geometric_scan(logw, 3000) is None

    def test_routing(self, monkeypatch):
        # Model tables, capped rows, rows without weight alpha and the rows
        # without weights 1..b of the prefix laws and the TV distance from the
        # crossover on take the scan. Narrower caps, a compound-Poisson row of
        # random means, a head past (c-1)/2 and a zero-head row whose table is
        # too short to pay for its early panels take the blocked kernel.
        kernel_rows = []
        blocked = exact._blocked_dp
        monkeypatch.setattr(exact, "_blocked_dp", lambda logw, N: kernel_rows.append(len(logw)) or blocked(logw, N))
        for n, alpha in EXACT_MODELS:
            model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
            tm = TiltedModel.for_model(model)
            scanned = alpha >= exact._SCAN_MIN_C
            assert kernel_rows == ([] if scanned else [alpha])
            kernel_rows.clear()
            if scanned:
                tm.log_ratio(WeightArray.constant(1.0, alpha).replace(alpha, 0.0), n - 3000)
                tm.log_ratio(WeightArray.constant(1.0, exact._SCAN_MIN_C), n - 3000)
                for b in (3, 19):
                    tm.log_ratio(exact._rest_row(model, b), 0)
                assert kernel_rows == []
        tm.log_ratio(WeightArray.constant(1.0, exact._SCAN_MIN_C - 1), n - 3000)
        tm.log_ratio(exact._rest_row(model, alpha // 2 + 1), n - 3000)
        tm.log_ratio(exact._rest_row(model, 19), n - 1000)
        compound_poisson_pmf(np.random.default_rng(1).uniform(0.0, 3.0, 500), 3000)
        assert kernel_rows == [exact._SCAN_MIN_C - 1, alpha, alpha, 500]


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

    @pytest.mark.parametrize("alpha", [1, 3, 50, 128, 400])
    @pytest.mark.parametrize("theta", [1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300])
    def test_tables_match_40_digit_recurrence_or_raise(self, monkeypatch, theta, alpha):
        # From alpha = _SCAN_MIN_C on a row may take the scan; its outcome must
        # be the blocked kernel's: the same raise, or the same table.
        q = WeightArray.constant(theta, alpha)
        scan = exact._geometric_scan
        for tilt in (None, 1e-5, 1e5):
            tables = []
            for dp in (scan, lambda logw, N: None):
                monkeypatch.setattr(exact, "_geometric_scan", dp)
                try:
                    tables.append(egf_coefficients(q, self.N, tilt=tilt))
                except NumericalError:
                    tables.append(None)
            scanned, blocked = tables
            assert (scanned is None) == (blocked is None)
            if blocked is None:
                # Every row fits at its saddle but those of alpha = 400 with
                # theta >= 1e10, whose first window spans more than double range.
                assert tilt is not None or (alpha == 400 and theta >= 1e10)
                continue
            assert_same_logs(scanned.log_tilted_values, blocked.log_tilted_values, 1e-12)
            # log_coefficient subtracts k*log(tilt) from the stored logs, which at
            # alpha = 400 and the far tilts loses up to 2.5e-12 on either kernel
            # (CoefficientTable's far-tilt FOUND in CHANGES.md).
            if tilt is None or alpha < 400:
                got = np.array([scanned.log_coefficient(k) for k in range(self.N + 1)])
                assert_same_logs(got, self.reference(theta, alpha), 1e-12)

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
        assert math.exp(z.logval) == pytest.approx(66 / 120, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_unconstrained_theta_one_is_one(self, n):
        z = partition_function(ConstraintModel(n=n, alpha=n, theta=1.0))
        assert math.exp(z.logval) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_permutation_enumeration(self, n, theta):
        for alpha in range(1, n + 1):
            z = partition_function(ConstraintModel(n=n, alpha=alpha, theta=theta))
            assert math.exp(z.logval) == pytest.approx(
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
                got = math.exp(joint_cycle_count_logpmf(model, list(c)).logval)
                assert got == pytest.approx(expected.get(c, 0.0), abs=1e-10)

    def test_marginalization_consistency(self):
        # summing the law over the b-th coordinate gives the (b-1)-prefix law
        model = ConstraintModel(n=30, alpha=10, theta=1.5)
        for b in (2, 3, 5):
            for c in [(1, 0, 2, 0, 1)[: b - 1], (0,) * (b - 1)]:
                total = sum(
                    math.exp(joint_cycle_count_logpmf(model, list(c) + [cb]).logval)
                    for cb in range(model.n // b + 1)
                )
                direct = math.exp(joint_cycle_count_logpmf(model, list(c)).logval)
                assert total == pytest.approx(direct, abs=1e-9)

    def test_empty_prefix_is_one(self):
        model = ConstraintModel(n=12, alpha=4, theta=1.0)
        assert math.exp(joint_cycle_count_logpmf(model, []).logval) == pytest.approx(1.0)

    def test_overweight_prefix_is_zero(self):
        model = ConstraintModel(n=6, alpha=3, theta=1.0)
        assert joint_cycle_count_logpmf(model, [7]).logval == -math.inf

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
        assert dataclasses.asdict(report) == {
            "b": 4,
            "tv": report.tv,
            "terms_summed": 65,
        }

    @pytest.mark.parametrize(
        "n,alpha,theta,b", [(10**4, 251, 1.0, 19), (2000, 12, 0.5, 3), (10**4, 10, 1.0, 10)]
    )
    def test_short_head_gives_the_full_heads_doubles(self, n, alpha, theta, b):
        # The head is built only up to _head_length; every term past it is 0.0
        # as a double, so tv equals, bit for bit, the sum over a head up to n.
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        tm = TiltedModel.for_model(model)
        N = exact._head_length(tm.mu[:b], n)
        full = compound_poisson_pmf(tm.mu[:b], n)
        assert np.all(np.exp(full.log_pmf_values[N + 1 :]) == 0.0)
        assert (N < n) == (b < alpha)  # at b = alpha the head's mean is n
        rest = WeightArray(np.where(np.arange(1, alpha + 1) > b, theta, 0.0))
        ratio = np.exp(float(np.sum(tm.mu[:b])) + tm.log_ratio(rest, np.arange(n + 1)))
        clamp = np.clip(1.0 - ratio, 0.0, 1.0)
        expected = float(np.dot(np.exp(full.log_pmf_values), clamp)) + full.tail_mass
        assert exact_tv_distance(model, b).tv == min(max(expected, 0.0), 1.0)

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
        assert math.exp(bound.logval) == pytest.approx(1.0, rel=1e-12)

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
            assert math.exp(bound.logval) >= tail - 1e-12


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
                assert math.exp(logp.logval) == pytest.approx(expected[key], rel=1e-10)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            brute_force_distribution(ConstraintModel(n=13, alpha=13, theta=1.0))


class TestCycleCountDistribution:
    @pytest.mark.parametrize(
        "n,alpha,theta,m",
        [(6, 3, 1.0, 2), (7, 4, 2.0, 1), (7, 7, 0.5, 7), (1, 1, 1.0, 1), (2, 1, 2.0, 1), (5, 1, 1.0, 1)],
    )
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

    # (n, alpha, theta): critical (mu_alpha bounded), vanishing (mu_alpha -> 0)
    # and diverging rows, so the factorial-moment series and the g-table both
    # serve some of the laws; (1200, 45, 2) takes each path for some m.
    @pytest.mark.parametrize(
        "n,alpha,theta",
        [(1200, 92, 1), (500, 55, 2), (300, 50, 3), (700, 262, 3), (1000, 10, 1), (600, 8, 2), (1200, 45, 2)],
    )
    def test_matches_integer_recurrence(self, n, alpha, theta):
        model = ConstraintModel(n=n, alpha=alpha, theta=float(theta))
        for m in sorted({math.isqrt(n - 1) + 1, alpha // 2, alpha} & set(range(1, alpha + 1))):
            want = np.array(cycle_count_law(n, alpha, theta, m))
            got = np.exp(cycle_count_distribution(model, m))
            shown = want > 1e-290
            assert got[shown] == pytest.approx(want[shown], rel=1e-12, abs=0.0), f"m = {m}"
            if m == alpha:
                assert longest_cycle_cdf(model, alpha - 1) == pytest.approx(want[0], rel=1e-12, abs=0.0)


class TestCountLawPath:
    """Which of the two paths a law of C_alpha takes, counted in table builds."""

    @staticmethod
    def counted_dp(monkeypatch):
        calls = []
        dp = exact._log_linear_dp

        def counting_dp(logw, N):
            calls.append(len(logw))
            return dp(logw, N)

        monkeypatch.setattr(exact, "_log_linear_dp", counting_dp)
        exact._count_law.cache_clear()  # a law cached by an earlier test builds nothing
        return calls

    @pytest.mark.parametrize("alpha", [123, 638])
    def test_bounded_mu_reads_the_models_own_table(self, monkeypatch, alpha):
        model = ConstraintModel(n=2000, alpha=alpha, theta=1.0)
        partition_function(model)
        calls = self.counted_dp(monkeypatch)
        p = np.exp(cycle_count_distribution(model, alpha))
        assert longest_cycle_cdf(model, alpha - 1) == pytest.approx(p[0], rel=1e-15)
        assert longest_cycle_cdf(model, alpha) == 1.0
        assert calls == []
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,alpha", [(4, 2), (8, 3)])
    def test_cancellation_past_kappa_builds_the_g_table(self, monkeypatch, n, alpha):
        # mu_alpha = 1.22 and 1.31 pass the refusal, but some P[C_alpha = k]
        # sums cancel by 25 and 20, past the certificate's 16.
        model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
        assert TiltedModel.for_model(model).mu[-1] <= 0.5 * math.log(16) and (n // alpha) ** 2 <= n
        calls = self.counted_dp(monkeypatch)
        got = np.exp(cycle_count_distribution(model, alpha))
        assert calls == [alpha]
        expected = np.zeros(n // alpha + 1)
        for part, p in conditioned_distribution(n, alpha, 1.0).items():
            expected[counts_prefix(part, alpha)[alpha - 1]] += p
        assert got == pytest.approx(expected, abs=1e-12)

    def test_law_of_c_alpha_is_built_once_for_longest_cycle_cdf(self, monkeypatch):
        # Diverging regime: P[C_alpha = 0] is entry 0 of the law a caller has
        # just asked for, read from the cached law instead of a second g-table.
        model = ConstraintModel(n=10**4, alpha=10, theta=1.0)
        partition_function(model)
        calls = self.counted_dp(monkeypatch)
        law = cycle_count_distribution(model, 10)
        assert longest_cycle_cdf(model, 9) == math.exp(law[0])
        assert calls == [10]
        assert not law.flags.writeable

    def test_diverging_mu_builds_the_g_table(self, monkeypatch):
        n, alpha = 2000, 12
        model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
        partition_function(model)
        calls = self.counted_dp(monkeypatch)
        law = cycle_count_distribution(model, alpha)
        assert calls == [alpha]
        assert longest_cycle_cdf(model, alpha) == 1.0
        assert calls == [alpha]
        # mu_m^k / k! * rho_km, rho read from the g-table and the h-table at one tilt
        tm = TiltedModel.for_model(model)
        g = egf_coefficients(WeightArray.for_model(model).replace(alpha, 0.0), n, tilt=tm.x)
        log_g, log_h = g.log_tilted_values, tm.table.log_tilted_values
        formula = [
            k * math.log(tm.mu[alpha - 1]) - math.lgamma(k + 1) + (log_g[n - k * alpha] - log_h[n])
            for k in range(n // alpha + 1)
        ]
        assert np.array_equal(law, formula)


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


class TestRatioDigits:
    """Laws read as mu-factors times one tilted ratio, against exact integers.

    With A_k = k! h_k from the integer recurrence, E[C_m] = A_(n-m) n!/(n-m)! /
    (m A_n) and P[longest <= m] = A_n^(<=m) / A_n at theta = 1, each a ratio
    of integers that Python rounds correctly. For theta = p/q in lowest terms,
    B_k = q^k A_k runs the integer recurrence with weights p q^(j-1), and
    E[C_m] = p q^(m-1) B_(n-m) n!/(n-m)! / (m B_n).
    """

    @staticmethod
    def counts(n, alpha, theta):
        p, q = theta.as_integer_ratio()
        return p, q, weighted_counts(n, tuple(p * q ** (j - 1) for j in range(1, alpha + 1)))

    # At theta = 1e-306 and 1e-320 the tilt x is so large that x^alpha
    # overflows while theta x^alpha / alpha is finite.
    @pytest.mark.parametrize(
        "n,alpha,theta",
        [(2000, 12, 1.0), (3000, 10, 1.0), (1000, 3, 1e-306), (5, 3, 1e-320)],
        ids=["2000-12", "3000-10", "1000-3-1e-306", "5-3-1e-320"],
    )
    def test_expected_counts(self, n, alpha, theta):
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        p, q, a = self.counts(n, alpha, theta)
        for m in range(1, alpha + 1):
            want = p * q ** (m - 1) * a[n - m] * math.perm(n, m) / (m * a[n])
            assert expected_cycle_count(model, m) == pytest.approx(want, rel=1e-13, abs=0.0), f"m = {m}"

    @pytest.mark.parametrize("n,alpha,theta", [(1000, 3, 1e-306), (5, 3, 1e-320)])
    def test_longest_cycle_cdf_where_x_to_the_alpha_overflows(self, n, alpha, theta):
        # 7.5e-321 at (5, 3, 1e-320); below double range, so 0.0, at (1000, 3, 1e-306).
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        want = self.counts(n, alpha - 1, theta)[2][n] / self.counts(n, alpha, theta)[2][n]
        assert longest_cycle_cdf(model, alpha - 1) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_longest_cycle_cdf(self):
        # P[longest <= m] for m = 5..7 lies below double range, so those read 0.
        n, alpha = 3000, 10
        model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
        a_n = weighted_counts(n, (1,) * alpha)[n]
        for m in range(5, alpha):
            want = weighted_counts(n, (1,) * m)[n] / a_n
            assert longest_cycle_cdf(model, m) == pytest.approx(want, rel=2e-14, abs=0.0), f"m = {m}"


@pytest.mark.parametrize("row", [None, WeightArray.constant(1.0, 5)])
def test_log_ratio_refuses_an_index_outside_zero_to_n(row):
    tm = TiltedModel.for_model(ConstraintModel(n=50, alpha=8, theta=1.0))
    for s in (-1, 51, [0, 51], np.array([-3, 2])):
        with pytest.raises(DomainError):
            tm.log_ratio(row, s)
    assert np.all(np.isfinite(tm.log_ratio(row, [0, 50])))


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
        mu = TiltedModel.for_model(model).mu
        assert float((np.arange(1, 41) * mu).sum()) == pytest.approx(500.0, rel=1e-9)

    def test_mutating_the_returned_means_changes_nothing_later(self):
        model = ConstraintModel(n=300, alpha=17, theta=1.9)
        mu = TiltedModel.for_model(model).mu
        before = (exact_tv_distance(model, 4).tv, joint_cycle_count_logpmf(model, [1, 2]).logval)
        with pytest.raises(ValueError):
            mu[:] = 0.0
        after = (exact_tv_distance(model, 4).tv, joint_cycle_count_logpmf(model, [1, 2]).logval)
        assert after == before
        assert np.all(TiltedModel.for_model(model).mu > 0)
        assert not mu.flags.writeable


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
