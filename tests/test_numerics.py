import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclecap.numerics import NEG_INF, log_sum_exp_value

finite_logs = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


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
