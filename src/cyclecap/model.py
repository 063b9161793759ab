"""Core domain types.

The central object is the constraint model (n, alpha, theta): permutations of
n elements, every cycle of length at most alpha, weighted by theta^(#cycles)
and normalized. alpha is either given explicitly or computed from n as
alpha = floor(n^beta) with beta in (0,1), clamped to [1, n].

A cycle type is the vector (c_1, ..., c_n) of cycle-length multiplicities with
sum j*c_j = n; it is admissible for a model iff c_j = 0 for every j > alpha.
The total Ewens weight of a type t is

    theta^(sum c_j) * n! / prod_j (j^c_j * c_j!),

i.e. the number of permutations with that type times theta^(#cycles).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import _BYTE_GUARD, ConfigError, SizeGuardError, StructuralError
from .numerics import LogReal

# Guard against floor(n^beta) landing one below an exact integer power due to
# float rounding (e.g. 1e5**0.6 = 999.999...).
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class ConstraintModel:
    """The triple (n, alpha, theta)."""

    n: int
    alpha: int
    theta: float

    def __post_init__(self):
        # Python and numpy integers have __index__, floats do not; bools are
        # integers to Python but never a meaningful size.
        for name in ("n", "alpha"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n}")
        if not (1 <= self.alpha <= self.n):
            raise ConfigError(f"alpha must satisfy 1 <= alpha <= n, got alpha={self.alpha}, n={self.n}")
        if not (0 < self.theta < math.inf):
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")

    @classmethod
    def from_exponent(cls, n: int, beta: float, theta: float) -> "ConstraintModel":
        """The model with alpha = floor(n^beta), clamped to [1, n]."""
        if not (0.0 < beta < 1.0):
            raise ConfigError(f"alpha exponent beta must lie in (0,1), got {beta}")
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        alpha = int(math.floor(n**beta + _FLOOR_EPS))
        return cls(n=n, alpha=max(1, min(alpha, n)), theta=theta)


@dataclass(frozen=True)
class WeightArray:
    """One row q_1..q_alpha of nonnegative cycle weights."""

    q: np.ndarray
    alpha: int = field(default=0)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", len(q))
        if len(q) == 0:
            raise ConfigError("empty weight array")
        if np.any(q < 0):
            raise ConfigError("weights must be nonnegative")

    @classmethod
    def constant(cls, theta: float, alpha: int) -> "WeightArray":
        """The row q_j = theta, j = 1..alpha; SizeGuardError past _BYTE_GUARD, before allocating."""
        if 8 * alpha > _BYTE_GUARD:
            raise SizeGuardError(f"a row of {alpha} weights exceeds the size guard")
        return cls(np.full(alpha, float(theta)))

    @classmethod
    def for_model(cls, model: ConstraintModel) -> "WeightArray":
        return cls.constant(model.theta, model.alpha)

    def replace(self, j: int, value: float) -> "WeightArray":
        """New array with q_j set to value (j is the cycle length, 1-based)."""
        q = self.q.copy()
        q[j - 1] = value
        return WeightArray(q)

    @property
    def is_degenerate(self) -> bool:
        return not np.any(self.q > 0)


class CycleType:
    """Multiplicity vector (c_1, ..., c_n) of cycle lengths, sum j*c_j = n.

    Stored as the sorted tuple of nonzero (length, count) pairs, which is also
    the canonical key. Hashable.
    """

    __slots__ = ("n", "_key")

    def __init__(self, n: int, pairs):
        self.n = int(n)
        self._key = tuple(sorted({int(j): int(c) for j, c in pairs if c}.items()))
        total = sum(j * c for j, c in self._key)
        if total != self.n:
            raise StructuralError(f"sum j*c_j = {total} != n = {self.n}")
        if any(c < 0 or j < 1 or j > self.n for j, c in self._key):
            raise StructuralError("cycle type entries out of range")

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "CycleType":
        js, cs = np.unique(np.asarray(lengths, dtype=np.int64), return_counts=True)
        return cls(int(np.sum(lengths)), pairs=zip(js.tolist(), cs.tolist()))

    def count(self, j: int) -> int:
        return dict(self._key).get(j, 0)

    def items(self) -> Iterator[tuple]:
        """Nonzero (length, count) pairs in increasing length order."""
        return iter(self._key)

    def lengths(self) -> np.ndarray:
        """Cycle lengths with multiplicity, ascending."""
        js = np.array([j for j, _ in self._key], dtype=np.int64)
        return np.repeat(js, [c for _, c in self._key])

    def key(self) -> tuple:
        return self._key

    def __hash__(self):
        return hash((self.n, self._key))

    def __eq__(self, other):
        return isinstance(other, CycleType) and self.n == other.n and self._key == other._key

    def __repr__(self):
        body = ",".join(f"{j}^{c}" if c > 1 else f"{j}" for j, c in self.items())
        return f"CycleType({self.n}: {body})"


class Permutation:
    """A bijection on {1, ..., n} stored as a 0-based image array."""

    __slots__ = ("image",)

    def __init__(self, image):
        img = np.asarray(image, dtype=np.int64)
        n = len(img)
        seen = np.zeros(n, dtype=bool)
        if n and (img.min() < 0 or img.max() >= n):
            raise StructuralError("image entries out of range")
        seen[img] = True
        if not seen.all():
            raise StructuralError("mapping is not a bijection")
        self.image = img

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.image, other.image)

    def __hash__(self):
        return hash(self.image.tobytes())


def ewens_log_weight(t: CycleType, theta: float) -> LogReal:
    """log of theta^(#cycles) * n! / prod_j (j^c_j * c_j!).

    This is the total Ewens weight of all permutations with cycle type t.
    """
    if theta <= 0:
        raise ConfigError(f"theta must be positive, got {theta}")
    logw = math.lgamma(t.n + 1)
    for j, c in t.items():
        logw += c * math.log(theta) - c * math.log(j) - math.lgamma(c + 1)
    return LogReal(logw)


def bounded_partitions(n: int, max_part: int) -> Iterator[list]:
    """All partitions of n with parts <= max_part, as descending part lists."""
    def rec(remaining: int, cap: int, prefix: list):
        if remaining == 0:
            yield list(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, prefix)
            prefix.pop()

    yield from rec(n, max_part, [])
