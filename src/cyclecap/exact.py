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

On wide caps (alpha >= 4096) M takes 512 KiB or more, and one
matrix-vector product per block reads all of it at memory speed. There the
blocks advance in panels of P = 96, after van der Hoeven's relaxed
multiplication ("Relax, but don't be too lazy", JSC 2002): the terms that
coefficients older than a panel carry into its blocks are a Toeplitz middle
product of the weights with the panel's old window (Hanrot, Quercia &
Zimmermann, "The middle product algorithm I", AAECC 2004), which one FFT of a
5-smooth length gives in O(alpha log alpha) rather than P*B*alpha
multiply-adds. Each block then adds only the terms of the panel's earlier
blocks, at most P*B columns of M.

The FFT's rounding is relative to |w|*|u|, not to each output, so it is taken
only under a certificate: every term is nonnegative, and the FFT's bound
c*eps*log2(L)*|w|_2*|u|_2 must lie below alpha*eps*min_t y_t, the worst case
of the alpha-term dot products it replaces. With c = 8 the largest error
measured uses under a thirtieth of the bound. A panel that fails it (windows
with true zeros among the outputs, or spanning many orders, and the first
panel, whose window holds h_0 alone) runs its blocks as narrower caps run
every block, one matrix-vector product each.

Once per block, if the block leaves [2^-256, 2^256], the active window (the
last alpha entries) is rescaled by a power of two, which is exact, together
with the panel's partial sums for its later blocks, and the exponent is
recorded for the stored logs. Per-step relative error is a few ulps and
accumulates additively, so even k = 10^6 stays well inside the 1e-10
recurrence contract. Exact zeros stay exact.

The kernel raises NumericalError instead of returning a damaged table: when a
block overflows, when a rescale would push a nonzero entry below the normal
range, or when an entry comes out zero although an earlier nonzero entry
reaches it through an active weight. `egf_coefficients` answers such a
failure by rerunning the row at its saddle tilt for N, where the table has
the least dynamic range.

The law of one count C_m needs no table of its own where mu_m is small. Under
the conditioning relation (Arratia, Barbour & Tavare, Logarithmic
Combinatorial Structures, EMS 2003) the factorial moments are
E[(C_m)_c] = mu_m^c * h_(n-cm) x^(n-cm) / (h_n x^n), read off the model's
table, and P[C_m = k] is their finite alternating sum over c >= k. That sum
is taken only where mu_m <= ln(16)/2 and (n/m)^2 <= n, and kept only under a
certificate: every k's sum is positive and at least 1/16 of the sum of its
terms' magnitudes, so cancellation costs at most 16 times the terms'
rounding. Elsewhere (the diverging regime, where mu_alpha grows with n) the
law comes from the table g of the row without weight m, one DP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
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
from .saddle import _model_solution, _perturbed_row, saddle_point_coefficient, solve_saddle

_BLOCK = 16  # indices advanced per Python step
_CHUNK = 256  # blocks whose in-block inverses are built together
_PANEL = 96  # blocks per panel on wide caps
_PANEL_MIN_ALPHA = 4096  # narrower caps advance one block per panel
_FFT_C = 8.0  # c of the FFT certificate; measured errors stay below c/30 of its bound
_KAPPA = 16.0  # largest cancellation the factorial-moment series of a law may show
_RESCALE_HI = 2.0**256  # a block above this (or below its inverse) triggers a rescale
_RESCALE_LO = 2.0**-256
_TINY = np.finfo(float).tiny  # smallest normal double
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


def _panel_blocks(alpha: int) -> int:
    """Blocks per panel: one below _PANEL_MIN_ALPHA, _PANEL from there on."""
    return _PANEL if alpha >= _PANEL_MIN_ALPHA else 1


def _smooth_length(n: int) -> int:
    """The least L >= n of the form 2^a 3^b 5^c, a length pocketfft transforms fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


class _MiddleProduct:
    """A panel's older terms from one FFT middle product, where it is certified.

    The panel's old window u = buf[K0 : K0+alpha] holds the alpha coefficients
    before the panel. The middle product y_t = sum_s w_{alpha+t-s} u_s =
    (w * u)_{alpha-1+t}, with w_j = 0 past alpha, is the sum of the terms they
    carry into index K0+t, so y[c*B : (c+1)*B] is their share of the panel's
    block c. One cyclic convolution of length L >= alpha + outputs - 1 gives
    every output used without wrap-around.
    """

    def __init__(self, w: np.ndarray, outputs: int):
        self.alpha = len(w)
        self.L = _smooth_length(self.alpha + outputs - 1)
        self.w_hat = np.fft.rfft(w, self.L)
        top = w.max()  # scaled, so that tiny weights do not underflow the norm
        self.w_norm = top * math.sqrt(np.dot(w / top, w / top)) if top > 0 else 0.0

    def error_bound(self, u: np.ndarray) -> float:
        """c*eps*log2(L)*(|w|*|u| + L*tiny): the FFT product's rounding in any output.

        The normwise bound of the transforms (Higham, Accuracy and Stability,
        section 24.1), plus an absolute floor for products that underflow.
        """
        norms = self.w_norm * math.sqrt(np.dot(u, u)) + self.L * _TINY
        return _FFT_C * _EPS * math.log2(self.L) * norms

    def older_terms(self, buf: np.ndarray, K0: int, blocks: int):
        """y as `blocks` rows of B, or None where the certificate fails.

        An alpha-term dot product of nonnegative terms is off by at most
        alpha*eps times its value; the FFT result is taken only when its
        bound is below that at every output.
        """
        u = buf[K0 : K0 + self.alpha]
        y = np.fft.irfft(np.fft.rfft(u, self.L) * self.w_hat, self.L)
        y = y[self.alpha - 1 : self.alpha - 1 + blocks * _BLOCK]
        low = y.min()
        if low > 0.0 and self.error_bound(u) <= self.alpha * _EPS * low:
            return y.reshape(blocks, _BLOCK)
        return None


def _log_linear_dp(logw: np.ndarray, N: int) -> np.ndarray:
    """log h_k, k = 0..N, for k*h_k = sum_j exp(logw[j-1])*h_{k-j}, h_0 = 1.

    Raises NumericalError rather than return entries that left double range.
    """
    alpha = len(logw)
    B = _BLOCK
    P = _panel_blocks(alpha)
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
    R = None  # the current panel's certified older terms, one row per block
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        fft = _MiddleProduct(w, P * B) if P > 1 else None
        for c0 in range(1, N + 1, B * _CHUNK):
            starts = np.arange(c0, min(c0 + B * _CHUNK, N + 1), B)
            for inv, K in zip(_block_inverses(w_head, starts), starts.tolist()):
                end = K + alpha + B
                if fft is not None:
                    c = (K - 1) // B % P  # the block's place in its panel
                    if c == 0:
                        R = fft.older_terms(buf, K, min(P, (N - K) // B + 1))
                if R is not None:  # add the terms from the panel's own earlier blocks
                    q0 = max(alpha - c * B, 0)
                    r = R[c] + M[:, q0:] @ buf[K + q0 : K + alpha]
                elif K < alpha:  # only the last K columns meet computed entries
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
                if R is not None:
                    # The panel's later rows were summed at the old scale. A row
                    # pushed below normal is off by under 2^-1074, less than an
                    # ulp of the normal entries it feeds; those stay guarded.
                    np.ldexp(R[c + 1 :], -e, out=R[c + 1 :])
                exponent += e
                events.append((lo - alpha, exponent))
    G = buf[alpha : alpha + N + 1]
    if np.any((G > 0.0) & (G < _TINY)):
        raise NumericalError("the DP left a coefficient below double range")
    _raise_if_zeroed(G, logw)
    with np.errstate(divide="ignore"):
        np.log(G, out=G)
    # An entry's scale is the cumulative exponent of the last rescale whose
    # window reached it; windows start at nondecreasing k.
    for (lo, e), (hi, _) in zip(events, events[1:] + [(N + 1, 0)]):
        G[lo:hi] += e * _LN2
    return G


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

    def log_tilted(self, k: int) -> float:
        self._check_index(k)
        return float(self.log_tilted_values[k])

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

    O(N * alpha) time. The DP runs at the requested tilt whenever the table
    fits in double range there, so ratios of tables at one tilt keep every
    digit. Where it does not (the DP raises), the row is rerun at its saddle
    tilt for N and the difference is folded into the stored logs; a row that
    does not fit even there raises NumericalError.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    if q.is_degenerate:
        raise DegenerateWeightsError("all weights are zero")
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
    model's context is cached and shared.
    """

    model: ConstraintModel
    x: float
    mu: np.ndarray = field(repr=False)
    table: CoefficientTable = field(repr=False)

    @classmethod
    def for_model(cls, model: ConstraintModel) -> "TiltedModel":
        # Keyed by the triple: an AlphaRule table is a dict, so the model
        # itself need not be hashable.
        return _build_tilted(model.n, model.alpha, model.theta)

    @property
    def log_p_total(self) -> float:
        """log P[T_(0,alpha) = n] = log(h_n x^n) - sum_j mu_j."""
        return self.table.log_tilted(self.model.n) - float(np.sum(self.mu))


# One entry: callers group their queries by model, and every entry kept
# holds an (n+1)-table that a later model no longer needs.
@functools.lru_cache(maxsize=1)
def _build_tilted(n: int, alpha: int, theta: float) -> TiltedModel:
    model = ConstraintModel(n=n, alpha=alpha, theta=theta)
    sol = _model_solution(n, alpha, theta)
    x = sol.x
    table = egf_coefficients(sol.q, n, tilt=x)
    j = np.arange(1, alpha + 1, dtype=float)
    mu = theta * np.exp(j * math.log(x)) / j
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


MeansLike = Union[Mapping[int, float], Sequence[float], np.ndarray]


def _means_to_dense(means: MeansLike, first_index: int) -> Tuple[np.ndarray, int, int]:
    """Normalize means input to (dense mu_1..mu_b2 vector, b1, b2)."""
    if isinstance(means, Mapping):
        if len(means) == 0:
            return np.zeros(0), 0, 0
        idx = sorted(means)
        if idx[0] < 1:
            raise DomainError(f"mean indices must be >= 1, got {idx[0]}")
        dense = np.zeros(idx[-1])
        for i in idx:
            dense[i - 1] = float(means[i])
        b2 = idx[-1]
        b1 = idx[0] - 1
    else:
        vec = np.asarray(means, dtype=float)
        if vec.ndim != 1:
            raise DomainError("means must be a one-dimensional vector")
        if first_index < 1:
            raise DomainError(f"first_index must be >= 1, got {first_index}")
        b1 = first_index - 1
        b2 = b1 + len(vec)
        dense = np.zeros(b2)
        dense[b1:b2] = vec
    if np.any(dense < 0) or not np.all(np.isfinite(dense)):
        raise DomainError("means must be finite and nonnegative")
    return dense, b1, b2


@dataclass(frozen=True)
class CompoundPoissonDist:
    """Exact law of T = sum_j j*Y_j, Y_j ~ Poisson(mu_j) independent, j in (b1, b2]."""

    log_pmf_values: np.ndarray = field(repr=False)
    means: np.ndarray
    range: Tuple[int, int]
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
        b1, b2 = self.range
        m = min(b2, k)
        dense = np.zeros(b2)
        dense[b1:] = self.means
        logw = _log_weights(np.arange(1, m + 1) * dense[:m])
        return _recurrence_residual(k, logw, self.log_pmf_values)


def compound_poisson_pmf(means: MeansLike, N: int, first_index: int = 1) -> CompoundPoissonDist:
    """Exact pmf of T = sum_j j*Y_j on {0..N} plus the truncated tail mass.

    `means` is either a mapping {j: mu_j} or a vector taken as
    mu_{first_index}, mu_{first_index+1}, ... All indices j >= 1.
    """
    if N < 0:
        raise DomainError(f"N must be >= 0, got {N}")
    dense, b1, b2 = _means_to_dense(means, first_index)
    M = float(np.sum(dense))
    if b2 == 0 or M == 0.0:
        log_pmf = np.full(N + 1, NEG_INF)
        log_pmf[0] = 0.0
        return CompoundPoissonDist(
            log_pmf_values=log_pmf, means=dense[b1:], range=(b1, b2), tail_mass=0.0
        )
    # At tilt 1 the stored logs are log(e^M p_k), retilted where the DP needs it.
    table = egf_coefficients(WeightArray(np.arange(1, b2 + 1) * dense), N)
    log_pmf = table.log_tilted_values - M
    total = log_sum_exp_value(log_pmf)
    tail = -math.expm1(total) if total < 0 else 0.0
    return CompoundPoissonDist(
        log_pmf_values=log_pmf, means=dense[b1:], range=(b1, b2), tail_mass=max(tail, 0.0)
    )


def poisson_means(model: ConstraintModel) -> np.ndarray:
    """mu_j = theta * x^j / j for j = 1..alpha at the saddle tilt x (a copy)."""
    return TiltedModel.for_model(model).mu.copy()


def joint_cycle_count_logpmf(model: ConstraintModel, prefix: Sequence[int]) -> LogReal:
    """log P[(C_1,...,C_b) = prefix] under the constrained measure.

    Computed as prod_j Poisson(c_j; mu_j) * P[T_(b,alpha) = n-r] / P[T_(0,alpha) = n]
    with r = sum_j j*c_j and mu_j at the saddle tilt; the identity is exact,
    not an approximation, and the denominator is read off the h-table as
    h_n x^n e^(-sum mu_j). Returns log 0 when r > n.
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
        return LogReal.zero()
    tm = TiltedModel.for_model(model)
    mu = tm.mu
    log_poisson = float(np.sum(-mu[:b] + c * np.log(mu[:b]) - [math.lgamma(ci + 1) for ci in c]))
    rest = compound_poisson_pmf(mu[b:], model.n - r, first_index=b + 1)
    return LogReal(log_poisson + rest.log_p(model.n - r) - tm.log_p_total)


@dataclass(frozen=True)
class TVReport:
    """Exact total-variation distance between (C_1..C_b) and independent Poissons."""

    b: int
    tv: float
    terms_summed: int
    model: ConstraintModel
    mu_used: np.ndarray

    def to_json(self) -> dict:
        return {
            "n": self.model.n,
            "alpha": self.model.alpha,
            "theta": self.model.theta,
            "b": self.b,
            "tv": self.tv,
            "terms_summed": self.terms_summed,
        }


def exact_tv_distance(model: ConstraintModel, b: int) -> TVReport:
    """d_b = sum_r P[T_0b = r] * (1 - P[T_ba = n-r]/P[T_0a = n])_+ + P[T_0b > n].

    The sum runs over r = 0..n; mass of T_0b beyond n contributes with full
    clamp 1 (those r force an impossible remainder). b = 0 compares empty
    vectors and gives 0. P[T_0a = n] is read off the h-table.
    """
    if not (0 <= b <= model.alpha):
        raise ConstraintError(f"need 0 <= b <= alpha={model.alpha}, got b={b}")
    tm = TiltedModel.for_model(model)
    mu = tm.mu
    if b == 0:
        return TVReport(b=0, tv=0.0, terms_summed=0, model=model, mu_used=mu[:0])
    n = model.n
    head = compound_poisson_pmf(mu[:b], n)
    rest = compound_poisson_pmf(mu[b:], n, first_index=b + 1)
    with np.errstate(over="ignore"):
        ratio = np.exp(rest.log_pmf_values[::-1] - tm.log_p_total)  # index r -> T_ba at n-r
    clamp = np.clip(1.0 - ratio, 0.0, 1.0)
    with np.errstate(under="ignore"):
        tv = float(np.dot(np.exp(head.log_pmf_values), clamp)) + head.tail_mass
    return TVReport(
        b=b,
        tv=min(max(tv, 0.0), 1.0),
        terms_summed=n + 1,
        model=model,
        mu_used=mu[:b],
    )


def chernoff_tail_bound(means: MeansLike, rho: float) -> LogReal:
    """log of exp(m*(rho - rho*log(rho))/b), an upper bound for P[T >= rho*m].

    Here m = sum_j j*mu_j and b is the largest index carrying a mean. The
    bound is vacuous (>= 1) for rho <= e and decays for rho > e.
    """
    if not rho > 1:
        raise DomainError(f"rho must be > 1, got {rho}")
    dense, _, b2 = _means_to_dense(means, 1)
    if b2 == 0 or np.sum(dense) == 0.0:
        return LogReal.one()  # T = 0 a.s.; exponent vanishes with m = 0
    m = float(np.dot(np.arange(1, b2 + 1), dense))
    return LogReal(m * (rho - rho * math.log(rho)) / b2)


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
    lt = tm.table.log_tilted_values
    log_a = c * math.log(mu_m) + (lt[n - c * m] - lt[n])  # log(mu_m^c * rho_cm)
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
    """Exact log P[C_m = k] for k = 0..floor(n/m).

    Where mu_m is small and (n/m)^2 <= n, the law is the alternating sum of
    the factorial moments E[(C_m)_c] = mu_m^c * h_(n-cm) x^(n-cm) / (h_n x^n),
    read off the model's own table, and it is returned when its certificate
    holds: each k's sum is at least 1/16 of the sum of its terms' magnitudes
    (`_count_law_by_moments`). Otherwise, splitting off the z^m term of the
    exponential gives P[C_m = k] = (theta/m)^k / k! * g_(n-k*m) / h_n where g
    drops the m-th weight; one more table, the g-table, serves every k.
    """
    if not (1 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={model.alpha}, got {m}")
    tm = TiltedModel.for_model(model)
    law = _count_law_by_moments(tm, m)
    if law is not None:
        return law
    row = WeightArray.for_model(model).replace(m, 0.0)
    if row.is_degenerate:  # alpha = m = 1: the g-row is empty, so g_0 = 1 and g_k = 0 after
        log_g = np.full(model.n + 1, NEG_INF)
        log_g[0] = 0.0
    else:
        log_g = egf_coefficients(row, model.n, tilt=tm.x).log_tilted_values
    kmax = model.n // m
    k = np.arange(kmax + 1)
    r = model.n - k * m
    log_g = log_g[r] - r * math.log(tm.x)  # g_(n-km) untilted, as CoefficientTable.log_coefficient
    log_hn = tm.table.log_coefficient(model.n)
    return k * math.log(model.theta / m) - _log_factorials(kmax) + log_g - log_hn


def expected_cycle_count(model: ConstraintModel, m: int) -> float:
    """Exact E[C_m] = (theta/m) * h_(n-m)/h_n."""
    if not (1 <= m <= model.alpha):
        raise ConstraintError(f"m must satisfy 1 <= m <= alpha={model.alpha}, got {m}")
    table = TiltedModel.for_model(model).table
    return (model.theta / m) * math.exp(
        table.log_coefficient(model.n - m) - table.log_coefficient(model.n)
    )


def longest_cycle_cdf(model: ConstraintModel, m: int) -> float:
    """Exact P[longest cycle <= m] = h_n^(<=m) / h_n (both at the shared tilt).

    m = alpha gives 1 with no table. m = alpha - 1 is P[C_alpha = 0], entry 0
    of `cycle_count_distribution(model, alpha)`, and takes its path: the
    factorial-moment series where it is certified, the g-table otherwise.
    Narrower caps build the capped table h^(<=m).
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
    capped = egf_coefficients(WeightArray.constant(model.theta, m), model.n, tilt=tm.x)
    return math.exp(capped.log_coefficient(model.n) - tm.table.log_coefficient(model.n))


def mgf_Cm(model: ConstraintModel, m: int, s: float, mode: str = "exact") -> float:
    """E[exp(s * C_m)] under the constrained measure.

    exact:  h-table of the row with q_m = theta e^s over the model's h-table,
            both at the unperturbed tilt so they share one scale.
    approx: ratio of the two leading saddle-point terms (s >= 0, matching the
            regime the approximation is proved in).
    """
    q_pert = _perturbed_row(model, m, math.exp(s))
    if mode == "exact":
        tm = TiltedModel.for_model(model)
        num = egf_coefficients(q_pert, model.n, tilt=tm.x).log_tilted(model.n)
        return math.exp(num - tm.table.log_tilted(model.n))
    if mode == "approx":
        if s < 0:
            raise ConstraintError("approx mode is stated for s >= 0")
        num = saddle_point_coefficient(q_pert, model.n)
        den = saddle_point_coefficient(WeightArray.for_model(model), model.n)
        return math.exp(num.logval - den.logval)
    raise ConstraintError(f"unknown mgf mode {mode!r}")
