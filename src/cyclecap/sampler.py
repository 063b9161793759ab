"""Exact sampling of cycle types and permutations.

Sequential first-cycle decomposition: with r elements still unplaced, the
cycle through a fixed unplaced element has length j with probability

    P(j) = theta * h_(r-j) / (r * h_r),      j = 1..m,  m = min(alpha, r),

where h_k are the generating-function coefficients (the falling factorials in
the count of ways to build the cycle cancel against the k! normalizations,
and sum_j P(j) = 1 is literally the coefficient recurrence). Drawing lengths
until r = 0 gives an exact draw of the cycle type; choosing cycle members by
an ordered Fisher-Yates selection makes the permutation uniform given its
type. Rejection from the unconstrained measure would instead accept with the
vanishing probability Z, so this O(n)-per-sample route is the only exact one
that scales.

Lengths are drawn by inversion on cumulative sums. Row r's masses are the
contiguous window h_(r-1), ..., h_lo of one array, lo = r - m, so with the
prefix sums S_k = sum_(i<=k) h_i and suffix sums R_k = sum_(i>=k) h_i the
drawn j is the smallest with

    S_(r-j-1) < (1-u) S_(r-1) + u S_(lo-1)      (prefix side), or
    R_(r-j)   > (1-u) R_r     + u R_lo          (suffix side),

for the stream's uniform u: one binary search in a table built once per
model, O(log n) per cycle. Both tables are kept as logs (np.logaddexp
.accumulate of the untilted log h_k), so they hold coefficients of any
magnitude, and each target is a logaddexp of two positive terms, with no
subtraction. Each row reads the side whose complement (S_(lo-1) or R_r) is
the smaller, so the masses keep their precision whether h rises or falls.
The draw is vectorised across samples: wave t draws cycle t of every sample
not yet complete.

RNG contract (identifier "splitmix64-counter-v2", persisted in artifacts):
sample i of seed s reads the counter-based stream

    base  = mix64(s + (i+1)*GAMMA)          (mod 2^64)
    u_t   = (mix64(base + (t+1)*GAMMA) >> 11) * 2^-53

with the splitmix64 finalizer mix64 and GAMMA = 0x9E3779B97F4A7C15. Seeds
are integers in [0, 2^64). Cycle length t consumes position t; member
selection consumes positions 2^32, ... so the cycle-type marginal of a
permutation draw is bit-identical to the plain cycle-type draw at the same
(seed, counter). Sample i of a batch is therefore the same draw whatever the
batch size, and a shorter batch of a seed is a prefix of a longer one. (v1
read the same stream but mapped u to a length through linear-scale rows,
which underflowed to zero mass when the tilted table spanned more than
double range.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List

import numpy as np

from .errors import _BYTE_GUARD, DomainError, NumericalError, SizeGuardError
from .exact import CoefficientTable, TiltedModel
from .model import ConstraintModel, Permutation
from .saddle import solve_saddle  # noqa: F401  (perfbench/tests check the tracer rebinds it here)

RNG_ID = "splitmix64-counter-v2"

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_NP_GAMMA = np.uint64(_GAMMA)
_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)
_TO_UNIT = 2.0**-53

# Member-selection draws live at counter positions 2^32 + s; cycle-length
# draws at positions 0..n < 2^32, so the streams never collide.
_MEMBER_STREAM_OFFSET = 1 << 32

# Samples drawn together in one run of waves. Large enough that per-wave
# numpy overhead is small against the per-sample work; the int32 lengths
# matrix of a chunk takes 16 KiB per cycle of its longest draw.
_CHUNK = 4096


def mix64(z: int) -> int:
    """splitmix64 finalizer on 64-bit integers."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, in place (returns z)."""
    z ^= z >> np.uint64(30)
    z *= _MIX_C1
    z ^= z >> np.uint64(27)
    z *= _MIX_C2
    z ^= z >> np.uint64(31)
    return z


def stream_base(seed: int, index: int) -> int:
    """Per-sample stream root for sample `index` of `seed`."""
    return mix64((seed + (index + 1) * _GAMMA) & _MASK64)


def _uniform(base: int, t: int) -> float:
    return (mix64((base + (t + 1) * _GAMMA) & _MASK64) >> 11) * _TO_UNIT


def _stream_bases_np(seed: int, start: int, count: int) -> np.ndarray:
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_np(np.uint64(seed & _MASK64) + idx * _NP_GAMMA)


def _uniforms_np(bases: np.ndarray, t: int) -> np.ndarray:
    step = np.uint64(((t + 1) * _GAMMA) & _MASK64)
    return (_mix64_np(bases + step) >> np.uint64(11)).astype(np.float64) * _TO_UNIT


@dataclass
class SamplerState:
    """Inversion tables plus the (seed, counter) position of the next draw.

    With S and R the prefix and suffix sums of h_0..h_n (module docstring),
    _P[k] = log S_(k-1) (so _P[0] = -inf) and _negR[k] = -log R_k, both
    ascending in k. For each remaining size r, _prefix[r] says which side row
    r searches, and _hi[r], _lo[r] are the logs of that side's sums at the
    row's two ends: (log S_(r-1), log S_(lo-1)) or (log R_r, log R_lo).
    """

    model: ConstraintModel
    table: CoefficientTable
    seed: int
    counter: int = 0
    _P: np.ndarray = field(init=False, repr=False)
    _negR: np.ndarray = field(init=False, repr=False)
    _prefix: np.ndarray = field(init=False, repr=False)
    _hi: np.ndarray = field(init=False, repr=False)
    _lo: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= _MASK64:
            raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        n, alpha = self.model.n, self.model.alpha
        logt = self.table.log_tilted_values
        if len(logt) < n + 1:
            raise DomainError("coefficient table must cover indices 0..n")
        # Untilted log h_k; the buffer then becomes the suffix table.
        R = np.arange(n + 1, dtype=float)
        R *= -math.log(self.table.tilt)
        R += logt[: n + 1]
        P = np.empty(n + 1)
        P[0] = -np.inf
        with np.errstate(invalid="ignore"):  # a non-finite entry is reported below
            np.logaddexp.accumulate(R[:n], out=P[1:])
            np.logaddexp.accumulate(R[::-1], out=R[::-1])
        for name, arr, first in (("prefix", P, 1), ("suffix", R, 0)):
            bad = np.flatnonzero(~np.isfinite(arr[first:]))
            if len(bad):
                i = int(bad[0]) + first
                raise NumericalError(
                    f"sampler {name} table is not finite at index {i} ({arr[i]}) "
                    f"for n={n}, alpha={alpha}"
                )
        # Rows r <= alpha start at lo = 0, where S_(lo-1) = 0: prefix side.
        # Rows r = alpha+1..n start at lo = r - alpha = 1..m.
        m = max(n - alpha, 0)
        self._prefix = np.ones(n + 1, dtype=bool)
        self._prefix[alpha + 1 :] = P[1 : m + 1] <= R[alpha + 1 :]
        self._hi = np.where(self._prefix, P, R)
        self._lo = np.full(n + 1, -np.inf)
        self._lo[alpha + 1 :] = np.where(self._prefix[alpha + 1 :], P[1 : m + 1], R[1 : m + 1])
        self._P = P
        self._negR = np.negative(R, out=R)

    @classmethod
    def for_model(cls, model: ConstraintModel, seed: int) -> "SamplerState":
        return cls(model=model, table=TiltedModel.for_model(model).table, seed=seed)


def _waves(state: SamplerState, bases: np.ndarray) -> Iterator[tuple]:
    """Yield (t, active, j) until every sample is complete.

    Wave t draws cycle t of each sample not yet complete: active indexes
    those samples in bases, j holds their lengths. Sample i reads u_t of
    stream bases[i] only, so its draw does not depend on the other samples.
    """
    alpha = state.model.alpha
    active = np.arange(len(bases))
    rem = np.full(len(bases), state.model.n, dtype=np.int64)
    t = 0
    while len(active):
        u = _uniforms_np(bases, t)
        with np.errstate(divide="ignore"):  # u = 0 gives log(u) = -inf
            target = np.logaddexp(np.log1p(-u) + state._hi[rem], np.log(u) + state._lo[rem])
        pre = state._prefix[rem]
        k = np.empty_like(rem)
        k[pre] = state._P.searchsorted(target[pre])
        suf = ~pre
        k[suf] = state._negR.searchsorted(-target[suf])
        # Prefix side: k - 1 is the largest index with log S_(k-2) below the
        # target, i.e. j = r + 1 - k; the suffix side gives the same formula.
        # The bounds only catch rounding at the row's two ends.
        j = np.minimum(np.maximum(rem + 1 - k, 1), alpha)
        yield t, active, j
        rem -= j
        if np.count_nonzero(rem) < len(rem):
            left = rem > 0
            active, rem, bases = active[left], rem[left], bases[left]
        t += 1


def _draw_lengths(state: SamplerState, bases: np.ndarray) -> List[np.ndarray]:
    """One exact draw per stream base, each as its cycle lengths in draw order."""
    lengths = np.zeros((len(bases), min(state.model.n, 64)), dtype=np.int32)
    for t, active, j in _waves(state, bases):
        if t == lengths.shape[1]:
            lengths = np.concatenate([lengths, np.zeros_like(lengths)], axis=1)
        lengths[active, t] = j
    cycles = np.count_nonzero(lengths, axis=1)
    return [row[:c].astype(np.int64) for row, c in zip(lengths, cycles)]


def _chunk_bases(seed: int, count: int) -> Iterator[tuple]:
    """(offset, stream bases) for consecutive chunks of a batch."""
    for lo in range(0, count, _CHUNK):
        yield lo, _stream_bases_np(seed, lo, min(_CHUNK, count - lo))


def _check_count(count: int) -> None:
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")


def sample_permutation(state: SamplerState) -> Permutation:
    """Exact permutation draw at stream index state.counter; advances the counter.

    Its cycle type is bit-identical to the draw of sample_lengths at the same
    seed and index, because lengths read the same stream positions.
    Given the type, the permutation is uniform: each cycle takes the next
    pool element as anchor and an ordered uniform selection of the remaining
    members (the anchor rule is deterministic given the history, so it does
    not bias the law).
    """
    n = state.model.n
    base = stream_base(state.seed, state.counter)
    state.counter += 1
    (lengths,) = _draw_lengths(state, np.array([base], dtype=np.uint64))
    pool = np.arange(n, dtype=np.int64)
    image = np.empty(n, dtype=np.int64)
    ptr = 0
    s = 0
    for j in lengths.tolist():
        r = n - ptr
        for step in range(1, j):
            k = r - step
            pick = int(_uniform(base, _MEMBER_STREAM_OFFSET + s) * k)
            s += 1
            if pick >= k:
                pick = k - 1
            a, b = ptr + step, ptr + step + pick
            pool[a], pool[b] = pool[b], pool[a]
        cyc = pool[ptr : ptr + j]
        for i in range(j - 1):
            image[cyc[i]] = cyc[i + 1]
        image[cyc[j - 1]] = cyc[0]
        ptr += j
    return Permutation(image)


def sample_type_array(model: ConstraintModel, count: int, seed: int) -> np.ndarray:
    """count exact cycle-type draws as a (count, n) matrix of counts c_1..c_n.

    Row i is the draw at stream index i.
    """
    _check_count(count)
    if (count * model.n) * 4 > _BYTE_GUARD:
        raise SizeGuardError(
            f"type matrix of {count} x {model.n} exceeds the size guard; "
            "use sample_lengths instead"
        )
    state = SamplerState.for_model(model, seed)
    counts = np.zeros((count, model.n), dtype=np.int32)
    for lo, bases in _chunk_bases(seed, count):
        block = counts[lo : lo + len(bases)]
        for _, active, j in _waves(state, bases):
            block[active, j - 1] += 1  # each sample appears once per wave
    return counts


def sample_lengths(model: ConstraintModel, count: int, seed: int) -> List[np.ndarray]:
    """count exact draws, each as its array of cycle lengths in draw order.

    The memory-light form for large n: no dense count vectors are built.
    """
    _check_count(count)
    state = SamplerState.for_model(model, seed)
    out: List[np.ndarray] = []
    for _, bases in _chunk_bases(seed, count):
        out.extend(_draw_lengths(state, bases))
    return out
