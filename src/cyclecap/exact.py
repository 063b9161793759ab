"""Exact log-domain dynamic programming.

Everything here rests on one recurrence. If h_k = [z^k] exp(sum_j (w_j/j) z^j)
then differentiating the exponential gives

    k * h_k = sum_{j <= min(alpha, k)} w_j * h_{k-j},     h_0 = 1.

Two instantiations are used:

  * generating-function coefficients: w_j = q_j * x^j gives the x-tilted
    coefficients h_k x^k of exp(sum (q_j/j) z^j); h_n is the normalizing
    constant Z for the constant row q_j = theta * 1{j <= alpha};
  * compound Poisson: w_j = j * mu_j gives e^M * p_k where
    p_k = P[sum_j j*Y_j = k] for independent Y_j ~ Poisson(mu_j) and
    M = sum mu_j (the same recurrence is known as Panjer's).

Geometric rows, w_j = theta*x^j on b+1..c and zero elsewhere with c - b >= 128
and a zero head of b <= (c-1)/2, take a panel scan: every model table, every
capped row and the row without weight alpha (b = 0), and the rows without
weights 1..b of the prefix laws and the TV distance (b >= 1). There
k*h_k = theta*sum_{b<j<=c} x^j h_{k-j}, so on a panel of S = min(c, 2048)
indices the terms of older coefficients are positive sums of x^t-weighted
entries over the last c of them: from d = b on one suffix sum (the common head
summed pairwise, a cumsum over the S-entry tail), before it a common middle
sum plus two cumsums of at most b entries. With b = 0 the in-panel sum
U_d = sum_{i<d} x^-i h_(k0+i) obeys U_(d+1) = (1 + theta/k)*U_d + theta*x*W_d/k
with positive terms: one cumprod and one cumsum. With b >= 1 the in-panel
terms reach h_(k0+d) only from i < d-b, a lag-(b+1) recurrence solved by its
Neumann series of positive terms, on panels short enough (at most
b+1+k0/(2*theta)) that each term is at most half the one before. Every
k > b is then reachable, so h_1..h_b are the table's only zeros, known up
front; a longer zero head, which leaves interior zeros, stays on the kernel.
A table takes N/S Python steps and O(N*(1 + c/S)) work, plus the short early
panels of a zero head. Such a panel costs up to 16 kernel blocks, so a
zero-head row with more than one panel per 16 blocks (small N, or a large
theta, whose early panels stay short) stays on the kernel. The scan is
kept only under a range certificate: the powers x^t, the products of the
powers with computed nonzero entries, the cumsum's terms and every entry past
h_b are finite and normal. A row whose logs are not a line within a few ulps,
with c - b below 128, or whose certificate fails runs the blocked kernel
below, so every raise and retilt is the kernel's. Rescales are the kernel's,
once per panel.

The kernel runs in the *linear* domain, one block of B = 16 consecutive
indices per Python step (a blocked power-series solve in the manner of
Brent & Kung, JACM 1978). For a block K..K+B-1 the recurrence splits into

    (D - T) g = M h_{K-alpha..K-1},    D = diag(K..K+B-1),

where M is the fixed B x alpha Toeplitz block of the weights that carries
earlier coefficients into the block and T the strictly lower-triangular
Toeplitz matrix of w_1..w_{B-1} inside it. (D - T)^-1 = sum_r (D^-1 T)^r D^-1
is a nonnegative Neumann series; the inverses of a chunk of blocks are built
together by vectorised forward substitution. All terms are nonnegative, so no
sum cancels.

Rows the scan does not take cost O(N*alpha) multiply-adds in N/16 steps, one
matrix-vector product per block: at (n, alpha) = (10^5, 17782) a table up to
N = n takes 0.47-0.62 s for the row without weight 100 and 0.60-0.87 s for
the row without weights 1..8892, and the law of C_50 at (65536, 8192)
0.09-0.15 s (best of 3 per run, five runs, shared 2-core x86-64, numpy 2.4).

Once per block, if the block leaves [2^-256, 2^256], the active window (the
last alpha entries) is rescaled by a power of two, which is exact, and the
exponent is recorded for the stored logs. Per-step relative error is a few
ulps and accumulates additively, so even k = 10^6 stays well inside the 1e-10
recurrence contract. Exact zeros stay exact.

The kernel raises NumericalError instead of returning a damaged table: when a
block overflows, when a rescale would push a nonzero entry below the normal
range, or when an entry comes out zero although an earlier nonzero entry
reaches it through an active weight. `egf_coefficients` answers such a
failure by rerunning the row at its saddle tilt for N, where the table has
the least dynamic range.

Every exact law is Poisson factors times one ratio. Under the conditioning
relation (Arratia, Barbour & Tavare, Logarithmic Combinatorial Structures,
EMS 2003) the counts C_j are independent Poisson(mu_j) at the saddle tilt x,
conditioned on sum_j j*C_j = n. So an event fixing counts c_j of total size s
has probability prod_j mu_j^c_j / c_j! * rho_s, where
rho_s = T_(n-s) x^(n-s) / (h_n x^n) and T is the table, at x, of the row of
the lengths the event leaves free. `TiltedModel.log_ratio` alone forms rho.

The law of one count C_m needs no table of its own where mu_m is small: the
factorial moments E[(C_m)_c] = mu_m^c * rho_cm read the model's own table,
and P[C_m = k] is their finite alternating sum over c >= k. That sum is taken
only where mu_m <= ln(16)/2 and (n/m)^2 <= n, and kept only under a
certificate: every k's sum is positive and at least 1/16 of the sum of its
terms' magnitudes, so cancellation costs at most 16 times the terms'
rounding. Elsewhere (the diverging regime, where mu_alpha grows with n) the
law comes from the table g of the row without weight m, one DP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    _BYTE_GUARD,
    ConstraintError,
    DegenerateWeightsError,
    DomainError,
    NumericalError,
    SizeGuardError,
)
from .model import (
    ConstraintModel,
    CycleType,
    WeightArray,
    bounded_partitions,
    ewens_log_weight,
)
from .numerics import NEG_INF, LogReal, log_sum_exp_value
from .saddle import _model_solution, solve_saddle

_BLOCK = 16  # indices advanced per Python step
_CHUNK = 256  # blocks whose in-block inverses are built together
_SCAN_MIN_C = 128  # geometric rows from this many weights on take the panel scan (measured crossover)
_SCAN_PANEL = 2048  # most coefficients per scan panel: bounds each cumsum's and cumprod's rounding
_HEAD_PANEL_BLOCKS = 16  # kernel blocks one zero-head scan panel costs, at most (measured)
_GEOMETRIC_ULPS = 8.0  # a row is geometric if its logs are a line within this many eps*max|log|
_KAPPA = 16.0  # largest cancellation the factorial-moment series of a law may show
_RESCALE_HI = 2.0**256  # a block above this (or below its inverse) triggers a rescale
_RESCALE_LO = 2.0**-256
_TINY = np.finfo(float).tiny  # smallest normal double
_EXP_ZERO = -750.0  # exp of anything below this is 0.0 in double
_EPS = np.finfo(float).eps
_LN2 = math.log(2.0)
_BRUTE_FORCE_MAX_N = 12


def _block_inverses(w_head: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(D - T)^-1 for the blocks starting at `starts`, plus a row of column sums.

    w_head holds w_1..w_{B-1}. Returns an array of shape (len(starts), B+1, B):
    rows 0..B-1 of entry c are the inverse for the block starting at
    starts[c], row B their sum, so one product yields the block and its total.
    Forward substitution row by row, vectorised across the chunk.
    """
    B = _BLOCK
    inv = np.zeros((B + 1, B, len(starts)))
    flat = inv.reshape(B + 1, B * len(starts))
    diag = starts.astype(float)
    for i in range(B):
        if i:
            # row i = (e_i + sum_{l<i} w_{i-l} row l) / (K + i)
            np.dot(w_head[i - 1 :: -1], flat[:i], out=flat[i])
        inv[i, i] += 1.0
        inv[i] /= diag + i
    inv[B] = inv[:B].sum(axis=0)
    return inv.transpose(2, 0, 1).copy()


def _raise_if_zeroed(G: np.ndarray, logw: np.ndarray) -> None:
    """Raise if some zero entry of G is reached by an active weight from a nonzero one.

    A computed nonzero entry is always truly nonzero, so by induction on k a
    zero entry is exact iff no j with logw[j-1] > -inf has G[k-j] != 0.
    """
    zeros = np.flatnonzero(G == 0.0)
    steps = np.flatnonzero(logw > NEG_INF) + 1
    if zeros.size == 0 or steps.size == 0:
        return
    nonzero = G != 0.0
    rows = max(1, 2**18 // steps.size)
    for a in range(0, zeros.size, rows):
        src = zeros[a : a + rows, None] - steps
        if np.any(nonzero[np.maximum(src, 0)] & (src >= 0)):
            raise NumericalError("the DP underflowed a nonzero coefficient to zero")


def _log_weights(w: np.ndarray) -> np.ndarray:
    """log w, with -inf where w is zero."""
    logw = np.full(len(w), NEG_INF)
    active = w > 0
    logw[active] = np.log(w[active])
    return logw


def _recurrence_residual(k: int, logw: np.ndarray, log_values: np.ndarray) -> float:
    """|rhs/lhs - 1| for k*v_k = sum_{j <= len(logw)} w_j*v_{k-j} (0 if both vanish)."""
    lhs = math.log(k) + log_values[k]
    rhs = log_sum_exp_value(logw + log_values[k - len(logw) : k][::-1])
    if lhs == NEG_INF and rhs == NEG_INF:
        return 0.0
    return abs(math.expm1(rhs - lhs))


def _stored_logs(G: np.ndarray, events: list) -> np.ndarray:
    """log G in place, each entry shifted by the cumulative exponent of its last rescale.

    An entry's scale is the exponent of the last rescale whose window reached
    it; events are (first k rescaled, cumulative power of two), with windows
    starting at nondecreasing k.
    """
    with np.errstate(divide="ignore"):
        np.log(G, out=G)
    for (lo, e), (hi, _) in zip(events, events[1:] + [(len(G), 0)]):
        G[lo:hi] += e * _LN2
    return G


def _geometric_run(logw: np.ndarray):
    """(b, c, A, d) where logw is -inf before b, A + t*d on t = b..c-1, -inf from c on.

    The line holds within _GEOMETRIC_ULPS: w_j = theta*x^j on b+1..c with
    theta = e^(A-d), x = e^d. The slope and intercept are the least-squares
    line, refined from the endpoints' through the residuals. None for any
    other row, for c - b below _SCAN_MIN_C, and for a zero head of
    b > (c-1)/2, where some k > b cannot be reached and the table has
    interior zeros.
    """
    live = np.flatnonzero(logw != NEG_INF)
    if live.size == 0:
        return None
    b, c = int(live[0]), int(live[-1]) + 1
    if live.size != c - b or c - b < _SCAN_MIN_C or 2 * b > c - 1:
        return None
    head = logw[b:c]
    if not np.all(np.isfinite(head)):
        return None
    L = c - b
    t = np.arange(b, c, dtype=float)
    d = (head[-1] - head[0]) / (L - 1)
    resid = head - (head[0] + (t - b) * d)
    centred = t - 0.5 * (b + c - 1)
    d += float(np.dot(centred, resid)) / (L * (L * L - 1.0) / 12.0)
    resid = head - t * d
    A = float(resid.mean())
    if np.abs(resid - A).max() > _GEOMETRIC_ULPS * _EPS * np.abs(head).max():
        return None
    return b, c, A, float(d)


def _geometric_scan(logw: np.ndarray, N: int) -> Optional[np.ndarray]:
    """log h_k, k = 0..N, for a geometric row by panels of coefficients, or None.

    For w_j = theta*x^j on b+1..c (zero elsewhere),
    k*h_k = theta*sum_{b<j<=c} x^j h_{k-j}, so h_1..h_b are exact zeros and
    the scan starts at k0 = b+1, on the panels of `_scan_spans`. On a panel
    from k0 the terms of older coefficients into h_(k0+d) are
    theta*x^(d+1)*W_d with prod[s] = x^(c-1-s) h_(k0-c+s) over the last c
    entries. From d = b on, W_d = sum_{s>=d} prod[s], one positive suffix sum:
    its common head is summed pairwise, the tail by one cumsum. Before d = b,
    W_d = sum prod[d : d+c-b], the common middle prod[b : c-b] plus two
    cumsums of at most b entries; nothing is subtracted.

    With g_d = x^-d h_(k0+d) and f_d = theta*x*W_d/k, the panel's own terms
    give g_d = f_d + (theta/k)*sum_{i<d-b} g_i. With b = 0 the in-panel sum
    U_d = sum_{i<d} g_i obeys U_(d+1) = (1 + theta/k)*U_d + f_d, so U is one
    cumprod and one cumsum of positive terms. With b >= 1 this lag-(b+1)
    recurrence is summed as its Neumann series (`_lagged_neumann`), whose
    terms shrink by q = theta*(span-b-1)/k0 <= 1/2 on the spans allowed.
    O(c + span) per panel, a few times span more with b >= 1.

    Returns None, so that the blocked kernel runs instead, where the row is not
    geometric (`_geometric_run`), where a zero-head row needs more than one
    panel per _HEAD_PANEL_BLOCKS kernel blocks (small N, or theta large
    enough that the early panels stay short), or where the range certificate
    fails: the powers x^t or a panel's products with nonzero entries leave
    the normal range, or an entry past h_b comes out non-finite, subnormal or
    zero. Rescales work as in the kernel.
    """
    run = _geometric_run(logw)
    if run is None:
        return None
    b, c, A, d = run
    lag = b + 1
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        xp = np.exp(np.arange(c) * d)  # x^t, t = 0..c-1
        theta, theta_x = np.exp([A - d, A]).tolist()
        # x^t is monotone in t, so its ends, 1 and x^(c-1), bound it.
        if not (_TINY <= min(xp[-1], 1.0, theta) and max(xp[-1], 1.0, theta_x) < math.inf):
            return None
        spans = _scan_spans(b, c, theta, N)
        if b and len(spans) * _HEAD_PANEL_BLOCKS * _BLOCK > N:  # the kernel's N/16 blocks cost less
            return None
        xr = xp[::-1].copy()  # xr[s] weighs buf[k0 + s], the entry c - s before k0
        # buf[c + k] holds h_k at the current scale; the c leading zeros stand for
        # k < 0, and h_1..h_b stay exact zeros.
        buf = np.zeros(c + N + 1)
        buf[c] = 1.0
        prod = np.empty(c)
        events = []
        exponent = 0
        k0 = lag
        for span in spans:
            np.multiply(xr, buf[k0 : k0 + c], out=prod)
            # the products of computed nonzero entries: h_0, and h_k from k = b+1 on
            if not (
                prod[max(c - k0 + lag, 0) :].min(initial=math.inf) >= _TINY
                and (k0 > c or prod[c - k0] >= _TINY)
            ):
                return None
            # W[d] = sum_{s >= d} prod[s]: the tail's cumsum, then the pairwise head
            W = np.cumsum(prod[span - 1 :: -1])[::-1]
            W += prod[span:].sum()
            if b:
                # W[d] = sum prod[d : d+c-b] for d < b: the middle, then both ends
                m = min(b, span)
                W[:m] = prod[b : c - b].sum()
                W[:m] += np.cumsum(prod[b - 1 :: -1])[::-1][:m]
                W[1:m] += np.cumsum(prod[c - b : c - b + m - 1])
            k = np.arange(k0, k0 + span, dtype=float)
            r = theta / k
            f = theta_x * W
            f /= k
            if b:
                if not f.min() >= _TINY:
                    return None
                h = _lagged_neumann(f, r, lag, theta * max(span - lag, 0) / k0)
            else:
                Q = np.cumprod(1.0 + r)  # Q[d] = prod_{i <= d} (1 + theta/(k0+i))
                terms = f / Q
                if not terms.min() >= _TINY:  # also where Q overflowed
                    return None
                # g_d = f_d + theta*U_d/k, U_d = Q_(d-1)*sum_{i<d} terms_i, U_0 = 0
                h = np.empty(span)
                h[0] = 0.0
                np.multiply(Q[:-1], np.cumsum(terms[:-1]), out=h[1:])
                h *= r
                h += f
            h *= xp[:span]
            total = h.sum()
            if not (h.min() >= _TINY and total < math.inf):
                return None
            end = c + k0 + span
            buf[end - span : end] = h
            k0 += span
            if _RESCALE_LO <= total <= _RESCALE_HI:
                continue
            lo = max(end - c, c)
            window = buf[lo:end]
            top = total if total > _RESCALE_HI else window.max()
            if _RESCALE_LO <= top <= _RESCALE_HI:
                continue
            e = math.frexp(top)[1]
            # below normal once scaled; the exact zeros h_1..h_b stay zero
            if np.any((window < math.ldexp(_TINY, max(e, 0))) & (window > 0.0)):
                return None
            np.ldexp(window, -e, out=window)
            exponent += e
            events.append((lo - c, exponent))
    return _stored_logs(buf[c : c + N + 1], events)


def _scan_spans(b: int, c: int, theta: float, N: int) -> list:
    """The span of each scan panel, from k0 = b+1 to N.

    At most min(c, _SCAN_PANEL), and the first at most c-b: past that, h_0,
    its only nonzero older entry, reaches no index. With a zero head of b >= 1
    every panel also ends by b+1+k0/(2*theta), so that its Neumann series
    shrinks by q <= 1/2 per term.
    """
    spans = []
    k0 = b + 1
    while k0 <= N:
        span = min(c - b if k0 == b + 1 else c, _SCAN_PANEL, N + 1 - k0)
        if b:
            span = int(min(span, b + 1 + k0 / (2.0 * theta)))
        spans.append(span)
        k0 += span
    return spans


def _lagged_neumann(f: np.ndarray, r: np.ndarray, lag: int, q: float) -> np.ndarray:
    """g with g_d = f_d + r_d*sum_{i <= d-lag} g_i, as its Neumann series of positive terms.

    e_0 = f and e_(t+1) = r*shift_lag(cumsum e_t); e_t vanishes before t*lag,
    so only that suffix is kept. With every r_d*(len - lag) <= q < 1, induction
    gives max e_t <= max f * q^t/t!, so the terms after e_t sum to at most
    max f * q^(t+1)/((t+1)!*(1-q)). The sum stops once that is below eps/2 of
    min f <= min g, or once the next term is empty and the series has ended
    exactly.
    """
    g = f.copy()
    e = f
    lo = t = 0
    rest = f.max() * q / (1.0 - q)
    floor = 0.5 * _EPS * f.min()
    while lo + lag < len(g) and rest > floor:
        lo += lag
        t += 1
        e = r[lo:] * np.cumsum(e[: len(g) - lo])
        g[lo:] += e
        rest *= q / (t + 1)
    return g


def _log_linear_dp(logw: np.ndarray, N: int) -> np.ndarray:
    """log h_k, k = 0..N, for k*h_k = sum_j exp(logw[j-1])*h_{k-j}, h_0 = 1.

    Geometric rows of at least _SCAN_MIN_C weights past a zero head of
    b <= (c-1)/2 take the panel scan; every other row, a zero-head row whose
    early panels would cost more than the kernel, and any row whose scan fails
    its certificate, the blocked kernel, which raises NumericalError rather
    than return entries that left double range.
    """
    G = _geometric_scan(logw, N)
    return _blocked_dp(logw, N) if G is None else G


def _blocked_dp(logw: np.ndarray, N: int) -> np.ndarray:
    """The blocked kernel: `_log_linear_dp` for any row.

    Raises NumericalError rather than return entries that left double range.
    """
    alpha = len(logw)
    B = _BLOCK
    with np.errstate(under="ignore", over="ignore"):
        w = np.exp(logw)
    # M[i, p] = w_{alpha+i-p} carries G_{K-alpha+p} into G_{K+i} (zero for p < i).
    M = np.zeros((B, alpha))
    for i in range(min(B, alpha)):
        M[i, i:] = w[::-1][: alpha - i]
    w_head = np.zeros(B - 1)
    w_head[: min(B - 1, alpha)] = w[: B - 1]
    # buf[alpha + k] holds G_k at the current scale; the alpha leading zeros
    # stand for k < 0, and one block of slack past N (plus its sum) lets every
    # block be full length.
    buf = np.zeros(alpha + N + B + 1)
    buf[alpha] = 1.0
    events = []  # (first k rescaled, cumulative power of two) per rescale
    exponent = 0
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        for c0 in range(1, N + 1, B * _CHUNK):
            starts = np.arange(c0, min(c0 + B * _CHUNK, N + 1), B)
            for inv, K in zip(_block_inverses(w_head, starts), starts.tolist()):
                end = K + alpha + B
                if K < alpha:  # only the last K columns meet computed entries
                    r = M[:, alpha - K :] @ buf[alpha : K + alpha]
                else:
                    r = M @ buf[K : K + alpha]
                np.dot(inv, r, out=buf[end - B : end + 1])
                total = buf[end]
                if _RESCALE_LO <= total <= _RESCALE_HI:
                    continue
                if not math.isfinite(total) and K + B > N + 1:
                    # The last block runs past N; its slack may overflow while h_0..h_N fit.
                    buf[alpha + N + 1 : end] = 0.0
                    total = buf[end - B : end].sum()
                # The block's entries are nonnegative, so a finite sum means finite entries.
                if not math.isfinite(total):
                    raise NumericalError("the DP overflowed: weights too large for one block")
                lo = max(K + B, alpha)
                window = buf[lo:end]
                # Below range the window may still hold larger, older entries.
                top = total if total > _RESCALE_HI else window.max()
                if top == 0.0 or _RESCALE_LO <= top <= _RESCALE_HI:
                    continue
                e = math.frexp(top)[1]
                small = window < math.ldexp(_TINY, max(e, 0))  # below normal once scaled
                if small.any() and np.any(window[small] > 0.0):
                    raise NumericalError("the DP window spans more than double range")
                np.ldexp(window, -e, out=window)
                exponent += e
                events.append((lo - alpha, exponent))
    G = buf[alpha : alpha + N + 1]
    if np.any((G > 0.0) & (G < _TINY)):
        raise NumericalError("the DP left a coefficient below double range")
    _raise_if_zeroed(G, logw)
    return _stored_logs(G, events)


@dataclass(frozen=True)
class CoefficientTable:
    """Coefficients h_0..h_N of exp(sum_j (q_j/j) z^j), stored x-tilted.

    The array holds log(h_k * x^k) for the construction tilt x; untilted
    values are recovered as h_k = (tilted) * x^(-k). With x = the saddle tilt
    the stored values have tiny dynamic range, which is the whole point.
    """

    q: WeightArray
    tilt: float
    log_tilted_values: np.ndarray = field(repr=False)

    @property
    def N(self) -> int:
        return len(self.log_tilted_values) - 1

    def log_coefficient(self, k: int) -> float:
        """log h_k, untilted."""
        self._check_index(k)
        return float(self.log_tilted_values[k] - k * math.log(self.tilt))

    def coefficient(self, k: int) -> LogReal:
        return LogReal(self.log_coefficient(k))

    def recurrence_rel_error(self, k: int) -> float:
        """|rhs/lhs - 1| for k*h_k = sum_j q_j*h_{k-j} at this k (0 if both vanish)."""
        self._check_index(k)
        if k == 0:
            return 0.0
        m = min(self.q.alpha, k)
        logw = _log_weights(self.q.q[:m]) + np.arange(1, m + 1) * math.log(self.tilt)
        return _recurrence_residual(k, logw, self.log_tilted_values)

    def _check_index(self, k: int) -> None:
        if not (0 <= k <= self.N):
            raise DomainError(f"coefficient index {k} outside 0..{self.N}")


def egf_coefficients(q: WeightArray, N: int, tilt: float = None) -> CoefficientTable:
    """Coefficients of exp(sum_j (q_j/j) z^j) up to order N, optionally x-tilted.

    O(N) time for a geometric row, q_j x^j = theta*x^j on b+1..c and zero
    elsewhere with c - b >= 128 and b <= (c-1)/2 (the scan: a model's own row,
    a capped row, the row without weight alpha, the row without weights
    1..b), O(N * alpha) for any other (the blocked kernel). The DP runs at the
    requested tilt whenever the table fits in double range there, so ratios
    of tables at one tilt keep every digit. Where it does not (the DP raises),
    the row is rerun at its saddle tilt for N and the difference is folded
    into the stored logs; a row that does not fit even there raises
    NumericalError. A table whose buffer of N + alpha + B + 1 doubles would
    pass _BYTE_GUARD raises SizeGuardError before anything is allocated.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    if q.is_degenerate:
        raise DegenerateWeightsError("all weights are zero")
    if 8 * (N + q.alpha + _BLOCK + 1) > _BYTE_GUARD:
        raise SizeGuardError(f"a table up to N = {N} at alpha = {q.alpha} exceeds the size guard")
    x = 1.0 if tilt is None else float(tilt)
    if not (x > 0) or math.isinf(x):
        raise DomainError(f"tilt must be a positive real, got {tilt}")
    t_req = math.log(x)
    j = np.arange(1, q.alpha + 1, dtype=float)
    logq = _log_weights(q.q)
    try:
        return CoefficientTable(q=q, tilt=x, log_tilted_values=_log_linear_dp(logq + j * t_req, N))
    except NumericalError:
        t_int = math.log(solve_saddle(q, float(N)).x)
        if t_int == t_req:
            raise
    # Retilting scales h_k by x^k, so the difference folds in exactly.
    log_tilted = _log_linear_dp(logq + j * t_int, N)
    log_tilted += np.arange(N + 1) * (t_req - t_int)
    return CoefficientTable(q=q, tilt=x, log_tilted_values=log_tilted)


@dataclass(frozen=True)
class TiltedModel:
    """A model at its saddle tilt x: the Poisson means and the h-table there.

    model is the bare (n, alpha, theta) triple, mu[j-1] = theta * x^j / j for
    j = 1..alpha, and table holds the coefficients h_0..h_n of
    exp(theta * sum_{j<=alpha} z^j/j) tilted by x. Every exact query and the
    sampler read these; both arrays are read-only because the most recent
    model's context is cached and shared. Every exact law divides by h_n x^n
    in one place, `log_ratio`.
    """

    model: ConstraintModel
    x: float
    mu: np.ndarray = field(repr=False)
    table: CoefficientTable = field(repr=False)

    @classmethod
    def for_model(cls, model: ConstraintModel) -> "TiltedModel":
        return _build_tilted(model.n, model.alpha, model.theta)

    def log_ratio(self, q: Optional[WeightArray], s):
        """log rho_s = log(T_(n-s) x^(n-s)) - log(h_n x^n) for s (a scalar or an array).

        T is the table of the row q at this tilt: the model's own h-table when
        q is None, exp(0) = 1 (T_0 = 1, T_k = 0 after) when q is all zeros,
        and otherwise one table of q up to n - min(s). Raises DomainError for
        any s outside 0..n.
        """
        n = self.model.n
        s = np.asarray(s)
        if np.any((s < 0) | (s > n)):
            raise DomainError(f"ratio index outside 0..{n}")
        if q is None:
            log_t = self.table.log_tilted_values[n - s]
        elif q.is_degenerate:
            log_t = np.where(s == n, 0.0, NEG_INF)
        else:
            log_t = egf_coefficients(q, n - int(s.min()), tilt=self.x).log_tilted_values[n - s]
        log_rho = log_t - self.table.log_tilted_values[n]
        return float(log_rho) if log_rho.ndim == 0 else log_rho


# One entry: callers group their queries by model, and every entry kept
# holds an (n+1)-table that a later model no longer needs.
@functools.lru_cache(maxsize=1)
def _build_tilted(n: int, alpha: int, theta: float) -> TiltedModel:
    model = ConstraintModel(n=n, alpha=alpha, theta=theta)
    sol = _model_solution(n, alpha, theta)
    x = sol.x
    table = egf_coefficients(sol.q, n, tilt=x)
    j = np.arange(1, alpha + 1, dtype=float)
    log_power = j * math.log(x)
    with np.errstate(over="ignore"):
        mu = theta * np.exp(log_power) / j
    # theta x^j / j is finite where x^j alone overflows (theta tiny, x huge).
    big = np.isinf(mu)
    if big.any():
        mu[big] = np.exp(math.log(theta) + log_power[big] - np.log(j[big]))
    for shared in (mu, table.log_tilted_values):
        shared.setflags(write=False)
    return TiltedModel(model=model, x=x, mu=mu, table=table)


def partition_function(model: ConstraintModel) -> LogReal:
    """log Z: the order-n coefficient of exp(theta * sum_{j<=alpha} z^j/j).

    Z * n! counts weighted permutations of n with all cycles <= alpha; the DP
    runs at the saddle tilt purely for dynamic-range control, and the result
    is tilt-invariant.
    """
    return TiltedModel.for_model(model).table.coefficient(model.n)


def _means_vector(means: Sequence[float]) -> np.ndarray:
    """The means mu_1..mu_b as a float vector, checked finite and nonnegative."""
    vec = np.asarray(means, dtype=float)
    if vec.ndim != 1:
        raise DomainError("means must be a one-dimensional vector")
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise DomainError("means must be finite and nonnegative")
    return vec


@dataclass(frozen=True)
class CompoundPoissonDist:
    """Exact law of T = sum_j j*Y_j, Y_j ~ Poisson(mu_j) independent, j = 1..len(means)."""

    log_pmf_values: np.ndarray = field(repr=False)
    means: np.ndarray
    tail_mass: float

    @property
    def N(self) -> int:
        return len(self.log_pmf_values) - 1

    def log_p(self, k: int) -> float:
        if not (0 <= k <= self.N):
            raise DomainError(f"pmf index {k} outside 0..{self.N}")
        return float(self.log_pmf_values[k])

    def p(self, k: int) -> float:
        return math.exp(self.log_p(k))

    def panjer_rel_error(self, k: int) -> float:
        """|rhs/lhs - 1| for k*p_k = sum_j j*mu_j*p_{k-j} (0 if both vanish)."""
        if not (1 <= k <= self.N):
            raise DomainError(f"recurrence index {k} outside 1..{self.N}")
        m = min(len(self.means), k)
        logw = _log_weights(np.arange(1, m + 1) * self.means[:m])
        return _recurrence_residual(k, logw, self.log_pmf_values)


def compound_poisson_pmf(means: Sequence[float], N: int) -> CompoundPoissonDist:
    """Exact pmf of T = sum_j j*Y_j, Y_j ~ Poisson(means[j-1]), on {0..N}, plus the tail mass."""
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    mu = _means_vector(means)
    M = float(np.sum(mu))
    if M == 0.0:
        log_pmf = np.full(N + 1, NEG_INF)
        log_pmf[0] = 0.0
        return CompoundPoissonDist(log_pmf_values=log_pmf, means=mu, tail_mass=0.0)
    # At tilt 1 the stored logs are log(e^M p_k), retilted where the DP needs it.
    table = egf_coefficients(WeightArray(np.arange(1, len(mu) + 1) * mu), N)
    log_pmf = table.log_tilted_values - M
    return CompoundPoissonDist(log_pmf_values=log_pmf, means=mu, tail_mass=_tail_mass(log_pmf))


def _tail_mass(log_pmf: np.ndarray) -> float:
    """1 - sum_k exp(log_pmf[k]), clamped at 0."""
    total = log_sum_exp_value(log_pmf)
    return max(-math.expm1(total), 0.0) if total < 0 else 0.0


def joint_cycle_count_logpmf(model: ConstraintModel, prefix: Sequence[int]) -> LogReal:
    """log P[(C_1,...,C_b) = prefix] under the constrained measure.

    Exactly prod_j Poisson(c_j; mu_j) * P[T_(b,alpha) = n-r] / P[T_(0,alpha) = n]
    with r = sum_j j*c_j. The e^(-mu_j) cancel, leaving sum_j (c_j log mu_j -
    log c_j!) + log rho_r on the row without weights 1..b, whose table is
    built up to n - r. Returns log 0 when r > n.
    """
    c = np.asarray(prefix, dtype=float)
    b = len(c)
    if b > model.alpha:
        raise ConstraintError(f"prefix length {b} exceeds alpha={model.alpha}")
    if np.any(c < 0) or np.any(c != np.floor(c)):
        raise DomainError("prefix entries must be nonnegative integers")
    j = np.arange(1, b + 1)
    r = int(np.dot(j, c))
    if r > model.n:
        return LogReal(NEG_INF)
    tm = TiltedModel.for_model(model)
    log_poisson = float(np.sum(c * np.log(tm.mu[:b]) - [math.lgamma(ci + 1) for ci in c]))
    return LogReal(log_poisson + tm.log_ratio(_rest_row(model, b), r))


def _rest_row(model: ConstraintModel, b: int) -> Optional[WeightArray]:
    """The row without weights 1..b, theta on b+1..alpha; None (the model's own row) for b = 0."""
    if b == 0:
        return None
    return WeightArray(np.where(np.arange(1, model.alpha + 1) > b, model.theta, 0.0))


@dataclass(frozen=True)
class TVReport:
    """Exact total-variation distance between (C_1..C_b) and independent Poissons."""

    b: int
    tv: float
    terms_summed: int


def exact_tv_distance(model: ConstraintModel, b: int) -> TVReport:
    """d_b = sum_r P[T_0b = r] * (1 - P[T_ba = n-r]/P[T_0a = n])_+ + P[T_0b > n].

    The sum runs over r = 0..n; mass of T_0b beyond n contributes with full
    clamp 1 (those r force an impossible remainder). b = 0 compares empty
    vectors and gives 0. The ratio is e^(sum_{j<=b} mu_j) * rho_r on the row
    without weights 1..b; the head P[T_0b = r] is `compound_poisson_pmf`, built
    only up to `_head_length`, past which every term is 0.0 in double.
    """
    if not (0 <= b <= model.alpha):
        raise ConstraintError(f"need 0 <= b <= alpha={model.alpha}, got b={b}")
    if b == 0:
        return TVReport(b=0, tv=0.0, terms_summed=0)
    tm = TiltedModel.for_model(model)
    n = model.n
    log_head = np.full(n + 1, NEG_INF)
    N_head = _head_length(tm.mu[:b], n)
    log_head[: N_head + 1] = compound_poisson_pmf(tm.mu[:b], N_head).log_pmf_values
    tail = _tail_mass(log_head)
    log_rho = tm.log_ratio(_rest_row(model, b), np.arange(n + 1))
    with np.errstate(over="ignore"):
        ratio = np.exp(float(np.sum(tm.mu[:b])) + log_rho)
    clamp = np.clip(1.0 - ratio, 0.0, 1.0)
    with np.errstate(under="ignore"):
        tv = float(np.dot(np.exp(log_head), clamp)) + tail
    return TVReport(b=b, tv=min(max(tv, 0.0), 1.0), terms_summed=n + 1)


def _head_length(means: np.ndarray, n: int) -> int:
    """The least N <= n for which `chernoff_tail_bound` puts P[T > N] below e^_EXP_ZERO.

    Every P[T = r] with r > N is then 0.0 once exponentiated, so a table of T
    up to N, padded with log 0, gives the same doubles as one up to n. Where
    no N < n is certified (e.g. b = alpha, where E[T] = n) the answer is n.
    """
    m = float(np.dot(np.arange(1, len(means) + 1), means))

    def certified(N: int) -> bool:
        rho = (N + 1) / m if m > 0 else 0.0  # the dropped r are >= N + 1 = rho*m
        return rho > 1 and chernoff_tail_bound(means, rho).logval < _EXP_ZERO

    lo, hi = -1, n  # certified(hi) or hi == n; not certified(lo) or lo == -1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def chernoff_tail_bound(means: Sequence[float], rho: float) -> LogReal:
    """log of exp(m*(rho - rho*log(rho))/b), an upper bound for P[T >= rho*m].

    Here m = sum_j j*mu_j and b is the largest index carrying a mean. The
    bound is vacuous (>= 1) for rho <= e and decays for rho > e.
    """
    if not rho > 1:
        raise DomainError(f"rho must be > 1, got {rho}")
    mu = _means_vector(means)
    if np.sum(mu) == 0.0:
        return LogReal(0.0)  # T = 0 a.s.; exponent vanishes with m = 0
    m = float(np.dot(np.arange(1, len(mu) + 1), mu))
    return LogReal(m * (rho - rho * math.log(rho)) / len(mu))


def brute_force_distribution(model: ConstraintModel) -> Dict[CycleType, LogReal]:
    """Ground-truth law: enumerate all cycle types with parts <= alpha, weight, normalize.

    The weight of a type is n!/(prod j^c_j c_j!) * theta^(sum c_j), i.e. the
    total measure-weight of permutations of that type; guarded to n <= 12.
    """
    if model.n > _BRUTE_FORCE_MAX_N:
        raise SizeGuardError(f"brute force is guarded to n <= {_BRUTE_FORCE_MAX_N}, got {model.n}")
    types = [
        CycleType.from_lengths(parts)
        for parts in bounded_partitions(model.n, min(model.alpha, model.n))
    ]
    logw = np.array([ewens_log_weight(t, model.theta).logval for t in types])
    logz = log_sum_exp_value(logw)
    return {t: LogReal(float(lw - logz)) for t, lw in zip(types, logw)}


def _log_factorials(kmax: int) -> np.ndarray:
    """log k! for k = 0..kmax, each from math.lgamma."""
    return np.array(list(map(math.lgamma, range(1, kmax + 2))))


def _count_law_by_moments(tm: TiltedModel, m: int) -> Optional[np.ndarray]:
    """log P[C_m = k], k = 0..n//m, from the factorial moments, or None.

    E[(C_m)_c] = mu_m^c * rho_cm with rho_s = h_(n-s) x^(n-s) / (h_n x^n), so
    P[C_m = k] = sum_(c>=k) (-1)^(c-k) C(c, k) mu_m^c rho_cm / c!, a finite sum
    (the moments vanish past n//m). Each k's terms are summed at their own
    largest term's scale. The sum cancels by about e^(2 mu_m), so rows with
    mu_m above ln(kappa)/2, and rows whose (n//m)^2 terms exceed n, are
    refused before any work; the law is returned only where every k's sum is
    positive and at least 1/kappa of the sum of its terms' absolute values,
    so its rounding is at most kappa times that of the terms. None otherwise.
    """
    n = tm.model.n
    kmax = n // m
    mu_m = float(tm.mu[m - 1])
    if not 0.0 < mu_m <= 0.5 * math.log(_KAPPA) or kmax * kmax > n:
        return None
    c = np.arange(kmax + 1)
    log_a = c * math.log(mu_m) + tm.log_ratio(None, c * m)  # log(mu_m^c * rho_cm)
    log_fact = _log_factorials(kmax)
    # Row k, column i: the term c = k + i without its 1/k!, i.e. a_c / i!.
    padded = np.concatenate((log_a, np.full(kmax, NEG_INF)))
    terms = sliding_window_view(padded, kmax + 1) - log_fact
    shift = terms.max(axis=1)
    with np.errstate(under="ignore"):
        np.exp(terms - shift[:, None], out=terms)
    signed = terms @ np.where(c % 2 == 0, 1.0, -1.0)
    if not np.all((signed > 0.0) & (_KAPPA * signed >= terms.sum(axis=1))):
        return None
    return shift + np.log(signed) - log_fact


def cycle_count_distribution(model: ConstraintModel, m: int) -> np.ndarray:
    """Exact log P[C_m = k] for k = 0..floor(n/m), as a read-only array.

    Where mu_m is small and (n/m)^2 <= n, the alternating sum of the factorial
    moments E[(C_m)_c] = mu_m^c * rho_cm on the model's own table, returned
    where its certificate holds (`_count_law_by_moments`). Otherwise
    P[C_m = k] = mu_m^k / k! * rho_km on the g-table, the row without weight
    m: one more table serves every k.
    """
    if not (1 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={model.alpha}, got {m}")
    return _count_law(model.n, model.alpha, model.theta, m)


# One entry, read-only, next to _build_tilted: longest_cycle_cdf at alpha - 1
# reads entry 0 of the law of C_alpha that a caller has usually just asked for.
@functools.lru_cache(maxsize=1)
def _count_law(n: int, alpha: int, theta: float, m: int) -> np.ndarray:
    tm = _build_tilted(n, alpha, theta)
    law = _count_law_by_moments(tm, m)
    if law is None:
        k = np.arange(n // m + 1)
        log_rho = tm.log_ratio(WeightArray.constant(theta, alpha).replace(m, 0.0), k * m)
        law = k * math.log(tm.mu[m - 1]) - _log_factorials(len(k) - 1) + log_rho
    law.setflags(write=False)
    return law


def expected_cycle_count(model: ConstraintModel, m: int) -> float:
    """Exact E[C_m] = mu_m * rho_m = (theta/m) * h_(n-m)/h_n."""
    if not (1 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={model.alpha}, got {m}")
    tm = TiltedModel.for_model(model)
    return float(tm.mu[m - 1]) * math.exp(tm.log_ratio(None, m))


def longest_cycle_cdf(model: ConstraintModel, m: int) -> float:
    """Exact P[longest cycle <= m] = h_n^(<=m) / h_n (both at the shared tilt).

    m = alpha gives 1 with no table. m = alpha - 1 is P[C_alpha = 0], entry 0
    of `cycle_count_distribution(model, alpha)`, and takes its path: the
    factorial-moment series where it is certified, the g-table otherwise.
    Narrower caps read rho_0 of the capped row h^(<=m).
    """
    if not (0 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 0 <= m <= alpha={model.alpha}, got {m}")
    if m == 0:
        return 0.0 if model.n > 0 else 1.0
    if m == model.alpha:
        return 1.0
    if m == model.alpha - 1:
        return math.exp(cycle_count_distribution(model, model.alpha)[0])
    tm = TiltedModel.for_model(model)
    return math.exp(tm.log_ratio(WeightArray.constant(model.theta, m), 0))

