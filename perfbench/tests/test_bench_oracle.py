import math

import pytest

import cyclecap as cc
import oracle


def _brute(n, alpha, theta):
    model = cc.ConstraintModel(n=n, alpha=alpha, theta=float(theta))
    law = {t: math.exp(lp.logval) for t, lp in cc.brute_force_distribution(model).items()}
    types = [cc.CycleType.from_lengths(parts) for parts in cc.bounded_partitions(n, min(alpha, n))]
    z = sum(math.exp(cc.ewens_log_weight(t, float(theta)).logval) for t in types) / math.factorial(n)
    return law, z


@pytest.mark.parametrize("theta", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 9))
def test_integer_oracle_matches_brute_force(n, theta):
    for alpha in range(1, n + 1):
        law, z = _brute(n, alpha, theta)
        assert oracle.log_partition(n, alpha, theta) == pytest.approx(math.log(z), rel=1e-12, abs=1e-12)
        for m in range(1, alpha + 1):
            want = sum(p * t.count(m) for t, p in law.items())
            got = oracle.expected_cycle_count(n, alpha, theta, m)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        for m in range(alpha + 1):
            want = sum(p for t, p in law.items() if m > 0 and max(t.lengths()) <= m)
            assert oracle.longest_cycle_cdf(n, alpha, theta, m) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_weighted_counts_are_permutation_counts_at_theta_one():
    # alpha >= n: every permutation counts once, so A_n = n!
    assert oracle.weighted_counts(7, 7, 1)[7] == math.factorial(7)
    # involutions: 1, 1, 2, 4, 10, 26, 76
    assert oracle.weighted_counts(6, 2, 1) == [1, 1, 2, 4, 10, 26, 76]
