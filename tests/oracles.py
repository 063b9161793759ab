"""Independent reference implementations used only by the tests.

Everything here is deliberately naive and derived from first principles —
direct enumeration of permutations, plain-float arithmetic, scalar
bisection, a one-index-at-a-time recurrence — so that agreement with the
package is meaningful. Nothing in this module imports the package under test.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterator, List, Tuple

import numpy as np

Partition = Tuple[int, ...]  # cycle lengths, sorted descending


def cycle_lengths_of_permutation(perm: Tuple[int, ...]) -> Partition:
    """Cycle lengths of a permutation given as a 0-based image tuple."""
    n = len(perm)
    seen = [False] * n
    lengths: List[int] = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=None)
def type_census(n: int) -> Dict[Partition, int]:
    """Number of permutations of n elements for every cycle type, by
    enumerating all n! permutations."""
    census: Dict[Partition, int] = {}
    for perm in itertools.permutations(range(n)):
        key = cycle_lengths_of_permutation(perm)
        census[key] = census.get(key, 0) + 1
    return census


def conditioned_distribution(n: int, alpha: int, theta: float) -> Dict[Partition, float]:
    """Probability of each admissible cycle type under the theta-weighted
    measure conditioned on all cycles having length <= alpha."""
    census = type_census(n)
    weights = {
        part: count * theta ** len(part)
        for part, count in census.items()
        if max(part) <= alpha
    }
    total = sum(weights.values())
    return {part: w / total for part, w in weights.items()}


def partition_constant(n: int, alpha: int, theta: float) -> float:
    """Coefficient of z^n in exp(theta * sum_{j<=alpha} z^j / j), computed as
    the admissible weighted fraction of permutations."""
    census = type_census(n)
    total = sum(
        count * theta ** len(part)
        for part, count in census.items()
        if max(part) <= alpha
    )
    return total / math.factorial(n)


def counts_prefix(part: Partition, b: int) -> Tuple[int, ...]:
    """(C_1, ..., C_b) for a cycle type given as a length partition."""
    return tuple(sum(1 for length in part if length == j) for j in range(1, b + 1))


def prefix_distribution(
    n: int, alpha: int, theta: float, b: int
) -> Dict[Tuple[int, ...], float]:
    """Joint law of the first b cycle counts under the conditioned measure."""
    dist: Dict[Tuple[int, ...], float] = {}
    for part, p in conditioned_distribution(n, alpha, theta).items():
        key = counts_prefix(part, b)
        dist[key] = dist.get(key, 0.0) + p
    return dist


def tilt_root(n: float, alpha: int, theta: float) -> float:
    """Positive root of theta * sum_{j=1}^alpha x^j = n by plain bisection."""

    def value(x: float) -> float:
        return theta * sum(x**j for j in range(1, alpha + 1)) - n

    lo, hi = 1e-12, 1.0
    while value(hi) < 0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("bisection bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def poisson_pmf(k: int, lam: float) -> float:
    return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else float(k == 0)


def iter_prefix_support(n: int, b: int) -> Iterator[Tuple[int, ...]]:
    """All (c_1, ..., c_b) with sum j*c_j <= n."""

    def rec(j: int, budget: int, acc: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if j > b:
            yield acc
            return
        for c in range(budget // j + 1):
            yield from rec(j + 1, budget - j * c, acc + (c,))

    yield from rec(1, n, ())


def tv_to_poisson_prefix(n: int, alpha: int, theta: float, b: int) -> float:
    """Total variation between the joint law of (C_1..C_b) under the
    conditioned measure and independent Poisson(theta * x^j / j), where x is
    the tilt root. The Poisson law has infinite support; mass outside
    {sum j*c_j <= n} is picked up as 1 - Q(support)."""
    if b == 0:
        return 0.0
    x = tilt_root(n, alpha, theta)
    means = [theta * x**j / j for j in range(1, b + 1)]
    p = prefix_distribution(n, alpha, theta, b)
    half_l1 = 0.0
    q_support = 0.0
    for c in iter_prefix_support(n, b):
        q = 1.0
        for cj, lam in zip(c, means):
            q *= poisson_pmf(cj, lam)
        q_support += q
        half_l1 += abs(p.get(c, 0.0) - q)
    return 0.5 * (half_l1 + (1.0 - q_support))


def bounded_partitions_reference(n: int, max_part: int) -> List[Partition]:
    """All partitions of n with parts <= max_part (descending tuples)."""

    def rec(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return list(rec(n, max_part))


def log_linear_dp_reference(logw: np.ndarray, N: int) -> np.ndarray:
    """log h_k, k = 0..N, for k*h_k = sum_j exp(logw[j-1])*h_{k-j}, h_0 = 1.

    One index per step: a sliding dot product in the linear domain, with the
    active window rescaled whenever the newest entry leaves [1e-250, 1e250]
    and per-index log offsets recording the scale. Valid while every weight
    stays below about e^115 and the window's entries fit in double range.
    """
    alpha = len(logw)
    with np.errstate(under="ignore"):
        wrev = np.exp(logw[::-1])
    G = np.zeros(N + 1)
    off = np.zeros(N + 1)
    G[0] = 1.0
    cur = 0.0
    for k in range(1, N + 1):
        m = min(alpha, k)
        s = np.dot(G[k - m : k], wrev[alpha - m :]) / k
        G[k] = s
        off[k] = cur
        if s != 0.0 and not (1e-250 < s < 1e250):
            shift = math.log(s)
            lo = max(k - alpha + 1, 0)
            with np.errstate(under="ignore"):
                G[lo : k + 1] *= math.exp(-shift)
            off[lo : k + 1] += shift
            cur += shift
    out = np.full(N + 1, -math.inf)
    pos = G > 0.0
    out[pos] = np.log(G[pos]) + off[pos]
    return out
