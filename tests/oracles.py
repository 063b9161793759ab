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


@lru_cache(maxsize=8)
def weighted_counts(n: int, weights: Tuple[int, ...]) -> List[int]:
    """A_0..A_n with A_k = k! * [z^k] exp(sum_j weights[j-1] * z^j / j), in integers.

    k*h_k = sum_j q_j*h_(k-j) becomes A_k = sum_j q_j * (k-1)!/(k-j)! * A_(k-j),
    an integer for integer weights; the falling factorials are applied by
    Horner's rule from the largest j down.
    """
    a = [1]
    for k in range(1, n + 1):
        total = 0
        for j in range(min(len(weights), k), 0, -1):
            total *= k - j
            if weights[j - 1]:
                total += weights[j - 1] * a[k - j]
        a.append(total)
    return a


def cycle_count_law(n: int, alpha: int, theta: int, m: int) -> List[float]:
    """P[C_m = k], k = 0..n//m, for integer theta, each correctly rounded.

    P[C_m = k] = (theta/m)^k / k! * g_(n-km) / h_n, where g drops the weight
    of length m: with B_k = k! g_k and A_k = k! h_k that is
    theta^k n! B_(n-km) / (m^k k! (n-km)! A_n), a ratio of integers.
    """
    full = (theta,) * alpha
    dropped = tuple(0 if j == m else theta for j in range(1, alpha + 1))
    a_n = weighted_counts(n, full)[n]
    b = weighted_counts(n, dropped)
    law = []
    for k in range(n // m + 1):
        r = n - k * m
        num = theta**k * math.factorial(n) * b[r]
        den = m**k * math.factorial(k) * math.factorial(r) * a_n
        law.append(num / den)
    return law


_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _logaddexp(a: float, b: float) -> float:
    hi, lo = max(a, b), min(a, b)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


@lru_cache(maxsize=8)
def _log_sums(n: int, alpha: int, theta: float) -> Tuple[List[float], List[float]]:
    """(P, R): P[k] = log sum_(i<k) h_i and R[k] = log sum_(i>=k) h_i, k = 0..n.

    h is built at the tilt x = (n/theta)^(1/alpha), where theta x^alpha = n,
    so that the reference's window stays in double range even for tiny theta.
    """
    log_x = (math.log(n) - math.log(theta)) / alpha
    logw = math.log(theta) + log_x * np.arange(1, alpha + 1)
    logh = (log_linear_dp_reference(logw, n) - log_x * np.arange(n + 1)).tolist()
    P = [-math.inf]
    for v in logh[:n]:
        P.append(_logaddexp(P[-1], v))
    R = [logh[n]]
    for v in reversed(logh[:n]):
        R.append(_logaddexp(R[-1], v))
    return P, R[::-1]


def draw_lengths_reference(model, seed: int, index: int) -> List[int]:
    """The cycle lengths of draw `index` of `seed`, one cycle at a time in scalar math.

    The documented RNG contract (splitmix64-counter-v2) and inversion: with r
    elements left, u_t = (mix64(base + (t+1)*GAMMA) >> 11) * 2^-53 and the
    row's masses h_(r-1), ..., h_lo, lo = r - min(alpha, r), the length is the
    smallest j with S_(r-j-1) < target on the prefix side, or with
    R_(r-j) > target on the suffix side, where target =
    logaddexp(log(1-u) + log hi, log(u) + log lo_sum) and (hi, lo_sum) are the
    side's sums at the row's two ends. A row reads the prefix side when
    S_(lo-1) <= R_r. h comes from log_linear_dp_reference, not the package.
    """
    n, alpha, theta = model.n, model.alpha, model.theta
    P, R = _log_sums(n, alpha, theta)
    base = _mix64((seed + (index + 1) * _GAMMA) & _MASK64)
    lengths: List[int] = []
    r = n
    while r:
        t = len(lengths)
        u = (_mix64((base + (t + 1) * _GAMMA) & _MASK64) >> 11) * 2.0**-53
        log_u = math.log(u) if u > 0 else -math.inf
        m = min(alpha, r)
        lo = r - m
        prefix = P[lo] <= R[r]
        hi_sum, lo_sum = (P[r], P[lo]) if prefix else (R[r], R[lo])
        target = _logaddexp(math.log1p(-u) + hi_sum, log_u + lo_sum)
        j = 1
        while j < m and not (P[r - j] < target if prefix else R[r - j] > target):
            j += 1
        lengths.append(j)
        r -= j
    return lengths
