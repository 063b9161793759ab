"""Log-domain arithmetic kernel.

All probabilities, generating-function coefficients, and partition functions in
this package are nonnegative reals that can span thousands of orders of
magnitude, so they are carried as natural logarithms in binary64: a LogReal
stores log(v), and v = 0 is encoded exactly as -inf (never as a tiny positive
sentinel, because total-variation formulas take exact (.)_+ clamps).

Precision envelope: log_sum_exp_value uses a max shift plus numpy's pairwise
summation, giving relative error ~1e-15 per reduction and bit-identical output
for identical input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogReal:
    """A nonnegative real stored as its natural logarithm; -inf encodes zero."""

    logval: float


def log_sum_exp_value(a: np.ndarray) -> float:
    """log(sum exp(a_i)) as a float; -inf for empty or all -inf input."""
    if a.size == 0:
        return NEG_INF
    m = float(np.max(a))
    if m == NEG_INF or math.isinf(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))

