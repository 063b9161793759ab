import collections
import math

import numpy as np
import pytest

from cyclecap.errors import DomainError, NumericalError, SizeGuardError
from cyclecap.exact import CoefficientTable, cycle_count_distribution, egf_coefficients
from cyclecap.model import ConstraintModel, CycleType, WeightArray
from cyclecap.sampler import (
    RNG_ID,
    SamplerState,
    _GAMMA,
    _mix64_np,
    mix64,
    sample_lengths,
    sample_permutation,
    sample_type_array,
    stream_base,
)
from oracles import conditioned_distribution, cycle_lengths_of_permutation, draw_lengths_reference


def first_cycle_row(state, r):
    """theta*h_(r-j)/(r*h_r), j = 1..min(alpha, r), as ratios of the state's tilted table."""
    j = np.arange(1, min(state.model.alpha, r) + 1)
    logt = state.table.log_tilted_values
    return state.model.theta / r * np.exp(logt[r - j] - logt[r] + j * math.log(state.table.tilt))


def draw_type(model, seed, index):
    """The cycle type of the draw at stream index `index` of `seed`, the last of its batch."""
    return CycleType.from_lengths(sample_lengths(model, index + 1, seed)[index])


class TestRngPrimitives:
    def test_finalizer_reference_vector(self):
        # splitmix64 with state 0: first output = finalizer(0 + gamma)
        assert mix64((0 + _GAMMA) & (2**64 - 1)) == 0xE220A8397B1DCDAF

    def test_finalizer_against_inline_reference(self):
        mask = 2**64 - 1

        def reference(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        for z in (0, 1, 0xDEADBEEF, mask, 2**63, 0x0123456789ABCDEF):
            assert mix64(z) == reference(z)

    def test_numpy_finalizer_matches_scalar(self):
        zs = np.array([0, 1, 2**32, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
        vec = _mix64_np(zs.copy())
        for z, v in zip(zs.tolist(), vec.tolist()):
            assert mix64(int(z)) == int(v)

    def test_rng_id_frozen(self):
        assert RNG_ID == "splitmix64-counter-v2"

    def test_stream_bases_differ(self):
        bases = {stream_base(42, i) for i in range(100)}
        assert len(bases) == 100

    def test_seed_sensitivity(self):
        assert stream_base(1, 0) != stream_base(2, 0)


class TestFirstCyclePmf:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_matches_coefficient_ratio(self, theta):
        model = ConstraintModel(n=12, alpha=5, theta=theta)
        state = SamplerState.for_model(model, seed=0)
        table = egf_coefficients(WeightArray.for_model(model), 12)
        for r in (1, 3, 7, 12):
            pmf = first_cycle_row(state, r)
            assert len(pmf) == min(5, r)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
            for j in range(1, min(5, r) + 1):
                expected = (
                    theta
                    / r
                    * math.exp(table.log_coefficient(r - j) - table.log_coefficient(r))
                )
                assert pmf[j - 1] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "n,alpha,r",
        # r = 500 at (10^4, 10) and r = 100 at (10^5, 100) lie where the
        # tilted table sits more than 745 nats below its maximum.
        [(100_000, 100, 100), (10_000, 10, 500)],
    )
    def test_rows_of_a_table_wider_than_double_range(self, n, alpha, r):
        model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
        state = SamplerState.for_model(model, seed=0)
        table = egf_coefficients(WeightArray.for_model(model), r)
        pmf = first_cycle_row(state, r)
        assert len(pmf) == alpha
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        for j in range(1, alpha + 1):
            expected = math.exp(table.log_coefficient(r - j) - table.log_coefficient(r)) / r
            assert pmf[j - 1] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_table_raises(self, value):
        # The message names the bad coefficient, whether it spoils both
        # tables (index 4 < n) or only the suffix table (index n).
        model = ConstraintModel(n=12, alpha=5, theta=1.0)
        good = SamplerState.for_model(model, seed=0).table
        for index in (4, 12):
            logt = good.log_tilted_values.copy()
            logt[index] = value
            table = CoefficientTable(q=good.q, tilt=good.tilt, log_tilted_values=logt)
            with pytest.raises(NumericalError, match=rf"from coefficient h_{index} "):
                SamplerState(model=model, table=table, seed=0)


class TestInversionTables:
    # Every row of (5, 5) is a prefix row.
    @pytest.mark.parametrize("n,alpha,theta", [(100_000, 17782, 1.0), (2000, 12, 3.0), (12, 5, 0.3), (5, 5, 1.0)])
    def test_prefix_sums_stop_at_the_last_prefix_row(self, n, alpha, theta):
        state = SamplerState.for_model(ConstraintModel(n=n, alpha=alpha, theta=theta), seed=0)
        logh = state.table.log_tilted_values[: n + 1] - np.arange(n + 1) * math.log(state.table.tilt)
        P = np.concatenate([[-np.inf], np.logaddexp.accumulate(logh[:n])])
        R = np.logaddexp.accumulate(logh[::-1])[::-1]
        prefix = np.ones(n + 1, dtype=bool)
        prefix[alpha + 1 :] = P[1 : max(n - alpha, 0) + 1] <= R[alpha + 1 :]
        assert np.array_equal(np.flatnonzero(prefix), np.arange(state._split + 1))
        assert np.array_equal(state._P, P[: state._split + 1])
        assert np.array_equal(-state._negR, R)


class TestSampleCycleType:
    def test_deterministic_and_counter_driven(self):
        # Draw i depends on (seed, i) only: the last draw of each shorter batch repeats it.
        model = ConstraintModel(n=20, alpha=6, theta=1.0)
        seq_a = [draw_type(model, 9, i).key() for i in range(10)]
        seq_b = [CycleType.from_lengths(x).key() for x in sample_lengths(model, 10, seed=9)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1

    def test_seed_changes_stream(self):
        model = ConstraintModel(n=20, alpha=6, theta=1.0)
        seq = lambda seed: [draw_type(model, seed, i).key() for i in range(5)]
        assert seq(1) != seq(2)

    def test_validity_of_samples(self):
        model = ConstraintModel(n=30, alpha=4, theta=0.5)
        for lengths in sample_lengths(model, 50, seed=3):
            t = CycleType.from_lengths(lengths)
            assert t.n == 30
            assert lengths.max() <= 4

    @pytest.mark.parametrize("n,alpha,theta", [(6, 3, 2.0), (5, 5, 0.5)])
    def test_empirical_frequencies(self, n, alpha, theta):
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        expected = conditioned_distribution(n, alpha, theta)
        counts = collections.Counter()
        draws = 40_000
        for row in sample_type_array(model, draws, seed=17):
            lengths = tuple(
                sorted(
                    (j for j in range(1, n + 1) for _ in range(row[j - 1])),
                    reverse=True,
                )
            )
            counts[lengths] += 1
        assert set(counts) <= set(expected)
        for part, p in expected.items():
            emp = counts[part] / draws
            assert abs(emp - p) <= 5 * math.sqrt(p * (1 - p) / draws) + 1e-9


    @pytest.mark.parametrize("n,alpha", [(10_000, 10), (100_000, 100)])
    def test_moments_where_the_table_exceeds_double_range(self, n, alpha):
        model = ConstraintModel(n=n, alpha=alpha, theta=1.0)
        draws = sample_lengths(model, 200, seed=1)
        for m in (1, alpha // 2, alpha):
            p = np.exp(cycle_count_distribution(model, m))
            k = np.arange(len(p))
            mean = float(np.dot(k, p))
            var = float(np.dot(k * k, p)) - mean * mean
            sampled = np.mean([np.count_nonzero(lengths == m) for lengths in draws])
            z = (sampled - mean) / math.sqrt(var / len(draws))
            assert abs(z) <= 5, f"C_{m}: sampled mean {sampled}, exact {mean}, z = {z:.1f}"


class TestSamplePermutation:
    def test_uniform_at_theta_one_unconstrained(self):
        model = ConstraintModel(n=3, alpha=3, theta=1.0)
        state = SamplerState.for_model(model, seed=5)
        counts = collections.Counter()
        draws = 30_000
        for _ in range(draws):
            counts[tuple(sample_permutation(state).image.tolist())] += 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / draws - 1 / 6) <= 5 * math.sqrt((1 / 6) * (5 / 6) / draws)

    def test_cycle_type_marginal_identical_to_type_sampler(self):
        model = ConstraintModel(n=25, alpha=8, theta=1.5)
        s_perm = SamplerState.for_model(model, seed=42)
        for i in range(30):
            p = sample_permutation(s_perm)
            lengths = cycle_lengths_of_permutation(tuple(p.image.tolist()))
            assert CycleType.from_lengths(np.array(lengths)) == draw_type(model, 42, i)

    def test_respects_constraint(self):
        model = ConstraintModel(n=12, alpha=3, theta=1.0)
        state = SamplerState.for_model(model, seed=1)
        for _ in range(20):
            p = sample_permutation(state)
            assert max(cycle_lengths_of_permutation(tuple(p.image.tolist()))) <= 3


class TestBatchPaths:
    def test_wave_equals_per_draw(self):
        model = ConstraintModel(n=12, alpha=5, theta=1.0)
        # The count matrix against the same draws taken as cycle lengths.
        arr = sample_type_array(model, 5000, seed=3)
        lengths = sample_lengths(model, 5000, seed=3)
        assert len(lengths) == len(arr)
        for row, x in zip(arr, lengths):
            assert np.array_equal(row, np.bincount(x, minlength=13)[1:])

    def test_prefix_equivalence_across_chunks(self):
        # 4100 draws end inside the second chunk of 4096; 5000 draws go past it
        model = ConstraintModel(n=40, alpha=7, theta=1.0)
        short = sample_lengths(model, 4100, seed=8)
        long = sample_lengths(model, 5000, seed=8)
        assert len(short) == 4100
        for a, b in zip(short, long):
            assert np.array_equal(a, b)
        counts = sample_type_array(model, 5000, seed=8)
        assert np.array_equal(sample_type_array(model, 4100, seed=8), counts[:4100])

    def test_lengths_sum_to_n(self):
        model = ConstraintModel(n=100, alpha=10, theta=1.0)
        for lengths in sample_lengths(model, 50, seed=4):
            assert lengths.sum() == 100
            assert lengths.max() <= 10

    def test_type_array_shape_dtype(self):
        model = ConstraintModel(n=9, alpha=3, theta=1.0)
        arr = sample_type_array(model, 100, seed=0)
        assert arr.shape == (100, 9) and arr.dtype == np.int32

    def test_byte_guard(self):
        model = ConstraintModel(n=100_000, alpha=100, theta=1.0)
        with pytest.raises(SizeGuardError):
            sample_type_array(model, 200_000, seed=0)

    def test_invalid_seed(self):
        model = ConstraintModel(n=5, alpha=2, theta=1.0)
        with pytest.raises(Exception):
            SamplerState.for_model(model, seed=-1)

    @pytest.mark.parametrize("seed", [True, False, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_or_bool_rejected(self, seed):
        model = ConstraintModel(n=5, alpha=2, theta=1.0)
        with pytest.raises(DomainError):
            SamplerState.for_model(model, seed=seed)
        with pytest.raises(DomainError):
            sample_lengths(model, 0, seed=seed)
        with pytest.raises(DomainError):
            sample_type_array(model, 0, seed=seed)

    def test_largest_seed_accepted(self):
        model = ConstraintModel(n=5, alpha=2, theta=1.0)
        (lengths,) = sample_lengths(model, 1, seed=2**64 - 1)
        assert lengths.sum() == 5


class TestRngContract:
    # Rows r <= 23 of (40, 7, 3) read the prefix side, 16 of them past alpha,
    # and its 4100 draws cross the 4096-draw chunk; (2000, 12, 0.3) reads the
    # prefix side only through r = alpha; the table of (10^4, 10) spans more
    # than double range; some suffix rows of (1000, 3, 1e-306) have end sums
    # more than e^709 apart.
    @pytest.mark.parametrize(
        "n,alpha,theta,count",
        [(40, 7, 3.0, 4100), (2000, 12, 0.3, 200), (10_000, 10, 1.0, 20), (1000, 3, 1e-306, 50)],
    )
    def test_every_draw_follows_the_scalar_reference(self, n, alpha, theta, count):
        model = ConstraintModel(n=n, alpha=alpha, theta=theta)
        want = [draw_lengths_reference(model, 29, i) for i in range(count)]
        assert [x.tolist() for x in sample_lengths(model, count, seed=29)] == want
        counts = sample_type_array(model, count, seed=29)
        assert np.array_equal(counts, [np.bincount(x, minlength=n + 1)[1:] for x in want])
