"""The battery statistics computed without scipy.stats agree with scipy.stats exactly.

scipy.stats is the oracle here: the exact two-sided Kolmogorov law
(`kstwo.sf`), the one-sample KS test (`kstest`) and the chi-square against a
Poisson law (`poisson.pmf`, `poisson.sf`, `chisquare`). Every comparison is
`==`, bit for bit.
"""

import math

import numpy as np
import pytest
from scipy import special, stats

from cyclecap._kolmogorov import kolmogorov_sf, ks_two_sided
from cyclecap.errors import NumericalError
from cyclecap.limits import _MIN_EXPECTED, _poisson_chisquare


def _exp1_cdf(x):
    return -special.expm1(-x)


def _sf_grid():
    """(n, x) pairs that reach every branch of the survival function."""
    pairs = []
    for n in (1, 2, 3, 10, 139, 140, 141, 5000, 100_000, 100_001):
        xs = [0.0, 1.0, 0.5 / n, 0.75 / n, 1.0 / n, 1.1 / n, 0.5 - 1e-12, 0.5, 0.7, 1 - 1e-12]
        if n > 2:
            xs += [(n - 1.05) / n, (n - 1) / n]  # below and at t = n - 1
        # each n*x^2 threshold of the n <= 140 and n > 140 branches, both sides
        for c in (0.754693, 2.2, 4.0, 18.0, 370.0):
            xs += [math.sqrt(c / n) * (1 + e) for e in (-1e-3, 1e-3)]
        # n*x^1.5 around 1.4: Durbin matrix below, Pelz-Good above
        xs += [(1.4 / n) ** (2 / 3) * (1 + e) for e in (-1e-3, 1e-3)]
        pairs += [(n, x) for x in xs if 0.0 <= x <= 1.0]
    return pairs


_SF_GRID = _sf_grid()


def test_sf_grid_reaches_every_branch():
    branches = set()
    for n, x in _SF_GRID:
        t, nx2 = n * x, n * x * x
        if x <= 0 or x >= 1 or t <= 0.5:
            branches.add("trivial")
        elif t <= 1:
            branches.add("ruben-gambino low, n <= 140" if n <= 140 else "ruben-gambino low, n > 140")
        elif t >= n - 1:
            branches.add("ruben-gambino high")
        elif x >= 0.5:
            branches.add("smirnov, x >= 0.5")
        elif n <= 140:
            branches.add("durbin" if nx2 <= 0.754693 else "pomeranz" if nx2 <= 4 else "smirnov, n <= 140")
        elif nx2 >= 370:
            branches.add("zero")
        elif nx2 >= 2.2:
            branches.add("smirnov, n > 140")
        elif n <= 100_000 and n * x**1.5 <= 1.4:
            branches.add("durbin, n > 140")
        else:
            branches.add("pelz-good, n > 10^5" if n > 100_000 else "pelz-good")
    assert branches == {
        "trivial",
        "ruben-gambino low, n <= 140",
        "ruben-gambino low, n > 140",
        "ruben-gambino high",
        "smirnov, x >= 0.5",
        "durbin",
        "pomeranz",
        "smirnov, n <= 140",
        "zero",
        "smirnov, n > 140",
        "durbin, n > 140",
        "pelz-good",
        "pelz-good, n > 10^5",
    }


@pytest.mark.parametrize("n, x", _SF_GRID)
def test_sf_equals_scipy_kstwo(n, x):
    assert kolmogorov_sf(n, x) == float(stats.kstwo.sf(x, n))


@pytest.mark.parametrize("n", [1, 20, 100, 1000, 100_000])
@pytest.mark.parametrize("ties", [False, True])
def test_ks_test_equals_scipy_kstest(n, ties):
    rng = np.random.default_rng(n + ties)
    expo = rng.exponential(1.1, n)
    norm = rng.normal(0.05, 1.0, n)
    if ties:
        expo, norm = np.round(expo, 1), np.round(norm, 1)
    for x, name, cdf in ((expo, "expon", _exp1_cdf), (norm, "norm", special.ndtr)):
        res = stats.kstest(x, name)
        assert ks_two_sided(x, cdf) == (float(res.statistic), float(res.pvalue))


def _scipy_poisson_chisquare(counts, lam):
    """The chi-square as computed through scipy.stats, merging bins the same way."""
    n = len(counts)
    kmax = int(np.max(counts))
    exp_bins = list(n * stats.poisson.pmf(np.arange(kmax + 1), lam))
    exp_bins[-1] += n * float(stats.poisson.sf(kmax, lam))
    obs_bins = list(np.bincount(counts, minlength=kmax + 1).astype(float))
    while len(exp_bins) > 1 and exp_bins[-1] < _MIN_EXPECTED:
        e, o = exp_bins.pop(), obs_bins.pop()
        exp_bins[-1] += e
        obs_bins[-1] += o
    while len(exp_bins) > 1 and exp_bins[0] < _MIN_EXPECTED:
        e, o = exp_bins.pop(0), obs_bins.pop(0)
        exp_bins[0] += e
        obs_bins[0] += o
    if len(exp_bins) < 2:
        return (0.0, 1.0, 0)
    statistic, pvalue = stats.chisquare(obs_bins, exp_bins)
    return (float(statistic), float(pvalue), len(exp_bins) - 1)


def _chisquare_cases():
    """(counts, lam): Poisson counts at the tested rate and at 1.3 times it."""
    cases = []
    for lam in (1e-3, 0.05, 0.5, 1.0, 2.5, 8.0, 40.0):
        for size in (1, 8, 60, 1000):
            rng = np.random.default_rng(int(lam * 1000) + size)
            cases += [(rng.poisson(rate, size), lam) for rate in (lam, 1.3 * lam)]
    return cases


_CHISQUARE_CASES = _chisquare_cases()


@pytest.mark.parametrize("case", range(len(_CHISQUARE_CASES)))
def test_poisson_chisquare_equals_scipy_path(case):
    counts, lam = _CHISQUARE_CASES[case]
    assert _poisson_chisquare(counts, lam) == _scipy_poisson_chisquare(counts, lam)


def test_chisquare_cases_merge_from_both_ends_and_reach_dof_zero():
    front = back = both = dof_zero = 0
    for counts, lam in _CHISQUARE_CASES:
        expected = len(counts) * stats.poisson.pmf(np.arange(int(counts.max()) + 1), lam)
        expected[-1] += len(counts) * stats.poisson.sf(counts.max(), lam)
        merges_front, merges_back = expected[0] < _MIN_EXPECTED, expected[-1] < _MIN_EXPECTED
        dof = _poisson_chisquare(counts, lam)[2]
        front += merges_front and dof > 0
        back += merges_back and dof > 0
        both += merges_front and merges_back and dof > 0
        dof_zero += dof == 0
    assert front and back and both and dof_zero


def test_poisson_chisquare_raises_when_totals_disagree(monkeypatch):
    # a tail mass that disagrees with the pmf breaks the totals: scipy's sum check
    monkeypatch.setattr(special, "pdtrc", lambda k, lam: 0.1)
    with pytest.raises(NumericalError):
        _poisson_chisquare(np.random.default_rng(0).poisson(3.0, 200), 3.0)
