import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecap.numerics import (
    NEG_INF,
    LogReal,
    log_sum_exp_value,
)

finite_logs = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


class TestLogReal:
    def test_roundtrip(self):
        assert LogReal.from_value(2.5).value() == pytest.approx(2.5, rel=1e-15)

    def test_zero_and_one(self):
        assert LogReal.zero().is_zero
        assert LogReal.zero().value() == 0.0
        assert LogReal.one().value() == 1.0
        assert not LogReal.one().is_zero

    def test_negative_value_rejected(self):
        with pytest.raises(Exception):
            LogReal.from_value(-1.0)

    def test_mul_div(self):
        a, b = LogReal.from_value(6.0), LogReal.from_value(1.5)
        assert (a * b).value() == pytest.approx(9.0, rel=1e-14)
        assert (a / b).value() == pytest.approx(4.0, rel=1e-14)

    def test_add(self):
        a, b = LogReal.from_value(1e-300), LogReal.from_value(2e-300)
        assert (a + b).logval == pytest.approx(math.log(3e-300), rel=1e-14)

    def test_add_zero_identity(self):
        a = LogReal.from_value(0.7)
        assert (a + LogReal.zero()).logval == a.logval
        assert (LogReal.zero() + a).logval == a.logval

    def test_ordering(self):
        assert LogReal.from_value(1.0) < LogReal.from_value(2.0)
        assert LogReal.zero() < LogReal.from_value(1e-300)
        assert LogReal.from_value(3.0) <= LogReal.from_value(3.0)

    @given(finite_logs, finite_logs)
    def test_mul_matches_log_addition(self, la, lb):
        assert (LogReal(la) * LogReal(lb)).logval == pytest.approx(la + lb, rel=1e-12, abs=1e-12)


class TestLogSumExp:
    def test_empty_is_zero_mass(self):
        assert log_sum_exp_value(np.array([])) == NEG_INF

    def test_all_neg_inf(self):
        assert log_sum_exp_value(np.array([NEG_INF, NEG_INF])) == NEG_INF

    def test_extreme_spread(self):
        # exp(-1e4) + exp(1e4) must not overflow or lose the dominant term
        v = log_sum_exp_value(np.array([-1e4, 1e4]))
        assert v == pytest.approx(1e4, abs=1e-12)

    def test_cancellation_free_sum(self):
        logs = np.log(np.array([1e-200, 2e-200, 3e-200]))
        assert log_sum_exp_value(logs) == pytest.approx(math.log(6e-200), rel=1e-14)

    def test_large_array_pairwise_accuracy(self):
        # sum of k equal terms: LSE = log k + term
        k = 100_001
        v = log_sum_exp_value(np.full(k, -123.456))
        assert v == pytest.approx(math.log(k) - 123.456, rel=1e-13)

    @given(st.lists(finite_logs, min_size=1, max_size=30))
    def test_dominates_max(self, logs):
        arr = np.array(logs)
        v = log_sum_exp_value(arr)
        assert v >= arr.max()
        assert v <= arr.max() + math.log(len(logs)) + 1e-12
