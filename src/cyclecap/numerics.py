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

from .errors import DomainError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogReal:
    """A nonnegative real stored as its natural logarithm; -inf encodes zero."""

    logval: float

    @classmethod
    def from_value(cls, v: float) -> "LogReal":
        if v < 0:
            raise DomainError(f"LogReal represents nonnegative reals, got {v}")
        return cls(NEG_INF) if v == 0 else cls(math.log(v))

    @classmethod
    def zero(cls) -> "LogReal":
        return cls(NEG_INF)

    @classmethod
    def one(cls) -> "LogReal":
        return cls(0.0)

    @property
    def is_zero(self) -> bool:
        return self.logval == NEG_INF

    def value(self) -> float:
        return math.exp(self.logval)

    def __mul__(self, other: "LogReal") -> "LogReal":
        return LogReal(self.logval + other.logval)

    def __truediv__(self, other: "LogReal") -> "LogReal":
        if other.is_zero:
            raise DomainError("division by LogReal zero")
        if self.is_zero:
            return LogReal(NEG_INF)
        return LogReal(self.logval - other.logval)

    def __add__(self, other: "LogReal") -> "LogReal":
        return LogReal(float(np.logaddexp(self.logval, other.logval)))

    def __lt__(self, other: "LogReal") -> bool:
        return self.logval < other.logval

    def __le__(self, other: "LogReal") -> bool:
        return self.logval <= other.logval


def log_sum_exp_value(a: np.ndarray) -> float:
    """log(sum exp(a_i)) as a float; -inf for empty or all -inf input."""
    if a.size == 0:
        return NEG_INF
    m = float(np.max(a))
    if m == NEG_INF or math.isinf(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))

