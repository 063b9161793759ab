"""Exact reference values for integer theta, in stdlib integers and fractions.

For the capped Ewens model, A_k = k! * h_k satisfies

    A_0 = 1,   A_k = theta * sum_{j <= min(alpha, k)} (k-1)!/(k-j)! * A_(k-j),

so every A_k is an integer when theta is. The benchmark checks the package's
log-domain DP against these values; nothing here imports the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List


def weighted_counts(n: int, alpha: int, theta: int) -> List[int]:
    """A_0..A_n: theta-weighted counts of permutations with all cycles <= alpha."""
    if n < 0 or alpha < 1 or theta < 1:
        raise ValueError(f"need n >= 0, alpha >= 1, integer theta >= 1; got {n}, {alpha}, {theta}")
    a = [1]
    for k in range(1, n + 1):
        total = 0
        falling = 1  # (k-1)!/(k-j)! for the current j
        for j in range(1, min(alpha, k) + 1):
            total += falling * a[k - j]
            falling *= k - j
        a.append(theta * total)
    return a


def log_partition(n: int, alpha: int, theta: int) -> float:
    """log Z = log(A_n / n!)."""
    return math.log(weighted_counts(n, alpha, theta)[n]) - math.lgamma(n + 1)


def expected_cycle_count(n: int, alpha: int, theta: int, m: int) -> float:
    """E[C_m] = (theta/m) * h_(n-m)/h_n = (theta/m) * A_(n-m) * n! / ((n-m)! * A_n)."""
    if not 1 <= m <= min(alpha, n):
        raise ValueError(f"need 1 <= m <= min(alpha, n), got m={m}")
    a = weighted_counts(n, alpha, theta)
    ratio = Fraction(a[n - m] * math.factorial(n), math.factorial(n - m) * a[n])
    return float(Fraction(theta, m) * ratio)


def longest_cycle_cdf(n: int, alpha: int, theta: int, m: int) -> float:
    """P[longest cycle <= m] = A_n(cap m) / A_n(cap alpha)."""
    if not 0 <= m <= alpha:
        raise ValueError(f"need 0 <= m <= alpha, got m={m}")
    if m == 0:
        return 0.0 if n > 0 else 1.0
    capped = weighted_counts(n, m, theta)[n]
    return float(Fraction(capped, weighted_counts(n, alpha, theta)[n]))
