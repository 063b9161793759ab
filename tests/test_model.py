import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecap.errors import ConfigError, StructuralError
from cyclecap.model import (
    ConstraintModel,
    CycleType,
    Permutation,
    WeightArray,
    bounded_partitions,
    ewens_log_weight,
)
from oracles import bounded_partitions_reference, cycle_lengths_of_permutation, type_census


class TestAlphaRule:
    """alpha = floor(n^beta), clamped to [1, n], as ConstraintModel.from_exponent computes it."""

    def test_exponent_rule(self):
        assert ConstraintModel.from_exponent(100, 0.5, 1.0).alpha == 10
        assert ConstraintModel.from_exponent(101, 0.5, 1.0).alpha == 10

    def test_floor_is_robust_to_float_dust(self):
        # 1000^(1/3) = 9.9999... in floating point; the rule must return 10
        assert ConstraintModel.from_exponent(1000, 1.0 / 3.0, 1.0).alpha == 10

    def test_clamped_to_valid_range(self):
        assert ConstraintModel.from_exponent(50, 0.01, 1.0).alpha == 1

    def test_beta_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            ConstraintModel.from_exponent(100, 2.0, 1.0)
        with pytest.raises(ConfigError):
            ConstraintModel.from_exponent(100, 0.0, 1.0)
        with pytest.raises(ConfigError):
            ConstraintModel.from_exponent(0, 0.5, 1.0)


class TestConstraintModel:
    def test_valid_construction(self):
        m = ConstraintModel(n=10, alpha=4, theta=0.5)
        assert (m.n, m.alpha, m.theta) == (10, 4, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0, alpha=1, theta=1.0),
            dict(n=5, alpha=0, theta=1.0),
            dict(n=5, alpha=6, theta=1.0),
            dict(n=5, alpha=3, theta=0.0),
            dict(n=5, alpha=3, theta=-1.0),
        ],
    )
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ConfigError):
            ConstraintModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=5.5, alpha=2, theta=1.0),
            dict(n=True, alpha=1, theta=1.0),
            dict(n=10, alpha=2.5, theta=1.0),
            dict(n=10, alpha=2, theta=math.inf),
        ],
        ids=["fractional_n", "bool_n", "fractional_alpha", "infinite_theta"],
    )
    def test_refuses_inputs_it_would_coerce(self, kwargs):
        with pytest.raises(ConfigError):
            ConstraintModel(**kwargs)

    def test_numpy_integers_accepted(self):
        m = ConstraintModel(n=np.int64(10), alpha=np.int32(4), theta=0.5)
        assert (m.n, m.alpha) == (10, 4)
        assert type(m.n) is int and type(m.alpha) is int

    def test_from_exponent(self):
        # the model is the bare triple: equal to, and hashed as, the explicit one
        m = ConstraintModel.from_exponent(100, 0.5, 2.0)
        assert m == ConstraintModel(n=100, alpha=10, theta=2.0)
        assert hash(m) == hash(ConstraintModel(n=100, alpha=10, theta=2.0))


class TestWeightArray:
    def test_constant(self):
        q = WeightArray.constant(2.0, 4)
        assert q.alpha == 4
        assert np.allclose(q.q, 2.0)

    def test_for_model(self):
        m = ConstraintModel(n=9, alpha=3, theta=0.5)
        q = WeightArray.for_model(m)
        assert q.alpha == 3
        assert np.allclose(q.q, 0.5)

    def test_replace(self):
        q = WeightArray.constant(1.0, 3).replace(2, 5.0)
        assert q.q[1] == 5.0 and q.q[0] == 1.0 and q.q[2] == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            WeightArray(q=np.array([1.0, -0.5]))

    def test_degenerate_detection(self):
        assert WeightArray(q=np.zeros(3)).is_degenerate
        assert not WeightArray.constant(1.0, 3).is_degenerate


class TestCycleType:
    def test_accessors(self):
        t = CycleType(5, pairs=[(3, 1), (1, 2)])
        assert t.n == 5
        assert t.count(1) == 2 and t.count(3) == 1 and t.count(2) == 0
        assert t.lengths().tolist() == [1, 1, 3]
        assert t.key() == ((1, 2), (3, 1))

    def test_from_lengths(self):
        t = CycleType.from_lengths(np.array([2, 2, 1]))
        assert t.n == 5 and t.count(2) == 2

    def test_items_skips_zeros(self):
        t = CycleType(5, pairs=[(4, 1), (2, 0), (1, 1)])
        assert dict(t.items()) == {1: 1, 4: 1}

    def test_size_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            CycleType(n=5, pairs=[(1, 1), (3, 1)])

    def test_hash_eq_key(self):
        a = CycleType(5, pairs=[(2, 2), (1, 1)])
        b = CycleType.from_lengths(np.array([1, 2, 2]))
        assert a == b and hash(a) == hash(b) and a.key() == b.key()

    def test_sparse_dense_equivalence(self):
        # the dense count vector (c_1, ..., c_n), given as pairs with its zeros
        a = CycleType(n=7, pairs=[(3, 1), (2, 2)])
        b = CycleType(n=7, pairs=enumerate([0, 2, 1, 0, 0, 0, 0], start=1))
        assert a == b


class TestPermutation:
    def test_identity(self):
        p = Permutation(np.arange(4))
        assert cycle_lengths_of_permutation(tuple(p.image.tolist())) == (1, 1, 1, 1)

    def test_invalid_image_rejected(self):
        with pytest.raises(StructuralError):
            Permutation(np.array([0, 0, 1]))
        with pytest.raises(StructuralError):
            Permutation(np.array([0, 1, 3]))

    @given(st.permutations(list(range(6))))
    def test_cycle_type_matches_reference(self, image):
        # a permutation's cycle type, built from its cycle lengths, gives them back
        expected = cycle_lengths_of_permutation(tuple(Permutation(np.array(image)).image.tolist()))
        t = CycleType.from_lengths(np.array(expected))
        assert t.n == 6
        assert tuple(sorted(t.lengths().tolist(), reverse=True)) == expected


class TestEwensLogWeight:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_permutation_census(self, n, theta):
        # n! * prod_j (theta/j)^{c_j} / c_j! = #perms(type) * theta^{#cycles}
        census = type_census(n)
        for part, count in census.items():
            t = CycleType.from_lengths(part)
            got = math.exp(ewens_log_weight(t, theta).logval)
            assert got == pytest.approx(count * theta ** len(part), rel=1e-12)

    def test_total_at_theta_one_is_factorial(self):
        total = sum(
            math.exp(ewens_log_weight(CycleType.from_lengths(p), 1.0).logval)
            for p in bounded_partitions(6, 6)
        )
        assert total == pytest.approx(math.factorial(6), rel=1e-12)


class TestBoundedPartitions:
    @pytest.mark.parametrize("n,cap", [(1, 1), (5, 3), (7, 2), (8, 8), (6, 1)])
    def test_matches_reference(self, n, cap):
        got = sorted(tuple(sorted(p, reverse=True)) for p in bounded_partitions(n, cap))
        expected = sorted(bounded_partitions_reference(n, cap))
        assert got == expected

    def test_empty_when_infeasible(self):
        assert list(bounded_partitions(0, 3)) == [[]]
