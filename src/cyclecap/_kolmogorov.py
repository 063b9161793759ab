"""One-sample two-sided Kolmogorov-Smirnov test against a continuous law.

`ks_two_sided(x, cdf)` returns the statistic D_n = sup_t |F_n(t) - F(t)| and
its p-value P[D_n >= D] under the exact finite-n law of D_n, the same two
numbers as scipy's `kstest(x, ...)` with its default exact method. The
survival function of D_n follows Simard & L'Ecuyer [7]: the Ruben-Gambino
closed forms at the edges, the Durbin matrix in the Marsaglia-Tsang-Wang
form [1, 3], the Pomeranz recursion [2] for n <= 140, the Pelz-Good
expansion [6], and 2 * smirnov (the exact one-sided law, doubled) in the
upper tail. Every value comes from numpy and `scipy.special`, so the test
runs without importing scipy's statistics subpackage.

The code is a port of `_kolmogn` in scipy 1.17.1's `stats/_ksstats.py`,
restricted to the survival function. It keeps scipy's thresholds, its order
of operations and its 2^128 rescaling in long double, so its p-values agree
with scipy's bit for bit. That file is distributed under this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

References:
[1] Durbin J (1968). "The Probability that the Sample Distribution Function
    Lies Between Two Parallel Straight Lines." Annals of Mathematical
    Statistics, 39, 398-411.
[2] Pomeranz J (1974). "Exact Cumulative Distribution of the
    Kolmogorov-Smirnov Statistic for Small Samples (Algorithm 487)."
    Communications of the ACM, 17(12), 703-704.
[3] Marsaglia G, Tsang WW, Wang J (2003). "Evaluating Kolmogorov's
    Distribution." Journal of Statistical Software, 8(18), 1-4.
[4] Li-Chien C (1956). "On the exact distribution of the statistics of
    A. N. Kolmogorov and their asymptotic expansion." Acta Matematica
    Sinica, 6, 55-81.
[5] Korolyuk VS (1960). "Asymptotic analysis of the distribution of the
    maximum deviation in the Bernoulli scheme." Theor. Probability Appl.,
    4, 339-366.
[6] Pelz W, Good IJ (1976). "Approximating the Lower Tail-areas of the
    Kolmogorov-Smirnov One-sample Statistic." Journal of the Royal
    Statistical Society, Series B, 38(2), 152-156.
[7] Simard R, L'Ecuyer P (2011). "Computing the Two-Sided
    Kolmogorov-Smirnov Distribution." Journal of Statistical Software,
    39(11), 1-18.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np
from scipy import special

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi**2
_PI_FOUR = np.pi**4
_PI_SIX = np.pi**6

# B_{2j} / (2j) / (2j - 1) for j = 8, ..., 1 (B_m the Bernoulli numbers).
_STIRLING_COEFFS = [
    -2.955065359477124183e-2,
    6.4102564102564102564e-3,
    -1.9175269175269175269e-3,
    8.4175084175084175084e-4,
    -5.952380952380952381e-4,
    7.9365079365079365079e-4,
    -2.7777777777777777778e-3,
    8.3333333333333333333e-2,
]


def ks_two_sided(x, cdf: Callable[[np.ndarray], np.ndarray]) -> Tuple[float, float]:
    """(D_n, P[D_n >= D]) of a sample x against the continuous CDF `cdf`.

    D_n is the larger of D+ = max_i (i/n - F(x_(i))) and
    D- = max_i (F(x_(i)) - (i-1)/n) over the sorted sample.
    """
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    cdfvals = cdf(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdfvals)
    d_minus = np.max(cdfvals - np.arange(0.0, n) / n)
    d = float(d_plus if d_plus > d_minus else d_minus)
    return d, kolmogorov_sf(n, d)


def kolmogorov_sf(n: int, x: float) -> float:
    """P[D_n >= x] for the two-sided statistic of n draws: scipy's `kstwo.sf(x, n)`."""
    x = np.float64(x)
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return _clip(1.0 - prob)
    if t >= n - 1:  # Ruben-Gambino
        return _clip(2 * (1.0 - x) ** n)
    if x >= 0.5:  # exact: 2 * smirnov
        return _clip(2 * special.smirnov(n, x))

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return _clip(1.0 - _durbin_mtw_cdf(n, x))
        if nxsquared <= 4:
            return _clip(1.0 - _pomeranz_cdf(n, x))
        # Miller's approximation, 2 * smirnov
        return _clip(2 * special.smirnov(n, x))
    # The sf side splits at 2.2, below the cdf side's cutoff of 18 (where the
    # cdf is 1), so that cutoff is never reached here.
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return _clip(2 * special.smirnov(n, x))
    if n <= 100000 and n * x**1.5 <= 1.4:
        cdfprob = _durbin_mtw_cdf(n, x)
    else:
        cdfprob = _pelz_good_cdf(n, x)
    return _clip(1.0 - cdfprob)


def _clip(p) -> float:
    """A probability clipped to [0, 1], rounded to double after the clip."""
    return float(np.clip(p, 0.0, 1.0))


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n! / n^n) by Stirling's series, with n*log(n) removed up front."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_mtw_cdf(n: int, d):
    """P[D_n <= d] from the k-th row of (n!/n^n) H^n, Durbin [1] as in MTW [3].

    d = (k - h)/n with k a positive integer and 0 <= h < 1; H is m x m with
    m = 2k - 1. Powers of H are rescaled by 2^128 as needed. The result is
    unclipped; it may be a long double.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])
    # v is the first column (and reversed last row) of H:
    # v[j] = (1 - h^(j+1)) / (j+1)!, except v[-1]; w[j] = 1/j!.
    intm = np.arange(1, m + 1)
    v = 1.0 - h**intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1 :, i] = w[: m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]
    # multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pomeranz_j1j2(i: int, n: int, ll: int, ceilf: int, roundf: int) -> Tuple[int, int]:
    """The endpoints of the nonzero interval of row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, x):
    """P[D_n <= x] by the Pomeranz recursion [2]; unclipped.

    Row i of the n x (2n + 2) table is the convolution of row i - 1 with
    truncated Poisson weights; the answer is n! times the last entry. Two
    rows are kept, each as its short nonzero stretch, rescaled by 2^128
    against underflow.
    """
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)  # most powers a convolution needs
    # (g/n)^m/m!, (2g/n)^m/m! and ((1-2g)/n)^m/m!: Poisson weights up to a factor
    gpower = np.empty(npwrs)
    twogpower = np.empty(npwrs)
    onem2gpower = np.empty(npwrs)
    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g / n, 2 * g / n, (1 - 2 * g) / n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s : k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1
            conv_len = j2 - j1 + 1
            V1[:conv_len] = conv[conv_start : conv_start + conv_len]
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return ans


def _pelz_good_cdf(n: int, x):
    """Pelz-Good [6] approximation to P[D_n <= x], 0 < x < 1.

    The Li-Chien [4] / Korolyuk [5] expansion K0(z) + K1(z)/sqrt(n) +
    K2(z)/n + K3(z)/n^1.5 in z = x*sqrt(n), each K_i rewritten through the
    Jacobi theta functional equation into a series fit for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0
    q = np.exp(qlog)

    # coefficients of the terms of the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array(
            [
                1.0,
                k1a + k1b * msquared,
                k2a + k2b * msquared + k2c * mfour,
                k3a + k3b * msquared + k3c * mfour + k3d * msix,
            ]
        )
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k:
    # K_2: (pi^2 k^2) q^(k^2), K_3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks**2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q**ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n
    return sum(K0to3)
