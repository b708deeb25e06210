"""Linear network simulation and per-user decoding.

Every user k observes y_k = h_k^H x for each transmitted column x, with
h_k a fixed row of the channel matrix H. Channels are drawn seeded and
rejection-sampled until every set of L distinct rows is invertible, so
the zero-forcing synthesis downstream can never degenerate. The check
feeds the C(K, L) row subsets through the batched ``inverse_stack`` in
fixed-size chunks, so memory stays bounded, and stops at the first
chunk holding a singular subset; it accepts exactly the draws that a
per-subset rank test accepts.

Reception is one product H @ S over the schedule's (B, L, tau) signal
stack, giving every user's receptions of every block as one (B, K, tau)
array. Decoding assumes the standard genie model: receivers know H, the
demand vector, and the schedule's metadata (row plans with their
integer decoding inverses and, per block, the owner gain of every
served user's beam), and read the beamformer scalings from the schedule
rather than estimating them. A user decodes all rows served to it with
one gather and one batched product, and makes no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentInputs,
    ResamplingExhausted,
)
from .field import FieldContext
from .linalg import inverse_stack, rank

# Channel draws before giving up; exceeding this signals a pathological
# field size or dimensions, not bad luck.
DRAW_BUDGET = 64

# Bytes of stacked row subsets per inverse_stack call in the genericity
# check: small enough that a chunk's temporaries leave peak memory about
# where the per-subset check had it, large enough that numpy call
# overhead stays small (a few hundred 5 x 5 subsets).
CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class ChannelMatrix:
    """K x L channel; row k is user k's receive functional h_k^H."""

    field: FieldContext
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", self.field.convert(self.H))
        if self.H.ndim != 2:
            raise DimensionMismatch(f"channel needs a K x L matrix, got {self.H.shape}")

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def L(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class ReceptionLog:
    """Per-block K x tau reception matrices, one row per user.

    receive stores them as one (B, K, tau) array, so per_block[b] is a
    view.
    """

    field: FieldContext
    per_block: np.ndarray

    def for_user(self, k: int) -> list:
        return [(b, y[k]) for b, y in enumerate(self.per_block)]


@dataclass(frozen=True)
class DecodeResult:
    """One user's reconstructed file and its verification flag."""

    user: int
    data: np.ndarray
    success: bool


def _generic(field: FieldContext, H: np.ndarray, L: int) -> bool:
    """Whether every L-row subset of H is invertible (all K rows independent if K < L)."""
    K = H.shape[0]
    if K < L:
        return rank(field, H) == K
    subsets = combinations(range(K), L)
    per_chunk = max(1, CHUNK_BYTES // H[:L].nbytes)
    while chunk := list(islice(subsets, per_chunk)):
        _, nonsingular = inverse_stack(field, H[np.array(chunk)])
        if not nonsingular.all():
            return False
    return True


def draw_channel(
    K: int, L: int, seed: int, field: FieldContext, budget: int = DRAW_BUDGET
) -> ChannelMatrix:
    """Seeded channel draw, rejected until all L-row subsets are invertible."""
    if K < 1 or L < 1:
        raise InconsistentInputs(f"need K, L >= 1, got K={K}, L={L}")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        H = field.sample_channel(rng, (K, L))
        if _generic(field, H, L):
            return ChannelMatrix(field, H)
    raise ResamplingExhausted(
        f"no generic {K}x{L} channel found in {budget} draws over {field!r}"
    )


def receive(H: ChannelMatrix, schedule) -> ReceptionLog:
    """Apply the channel to every block at once: y[b] = H @ signal[b]."""
    signals = getattr(schedule, "signals", None)
    if signals is None:
        signals = np.stack([block.signal for block in schedule.blocks])
    if signals.shape[1] != H.L:
        raise DimensionMismatch(
            f"block has {signals.shape[1]} antenna rows, channel expects {H.L}"
        )
    rx = H.field.matmul(H.H, signals)
    return ReceptionLog(H.field, rx)


def _check_consistent(k, d, Z_k, log, H: ChannelMatrix, schedule) -> None:
    cfg = schedule.cfg
    if tuple(d) != tuple(schedule.demand):
        raise InconsistentInputs("demand vector differs from the one scheduled")
    if H.field != schedule.channel.field or not H.field.equal(H.H, schedule.channel.H):
        raise InconsistentInputs("channel differs from the one scheduled")
    if not 0 <= k < cfg.K:
        raise InconsistentInputs(f"user {k} out of range for K={cfg.K}")
    if len(log.per_block) != len(schedule.blocks):
        raise InconsistentInputs("reception log does not cover the schedule")
    if Z_k.payload.shape[0] != cfg.subfile_symbols:
        raise InconsistentInputs(
            f"cache of {Z_k.payload.shape[0]} symbols, expected {cfg.subfile_symbols}"
        )


def decode_user(k: int, d, Z_k, log: ReceptionLog, H: ChannelMatrix, schedule) -> DecodeResult:
    """Reconstruct user k's requested file from receptions plus cache.

    In a row served to k, reception q carries k's planned combination
    coeffs_q @ minifiles divided by the owner gain g_q, so with Cinv
    the plan's integer inverse of k's stacked coefficients the
    minifiles are Cinv diag(g) Y; all N-1 such rows go in one batched
    product. k's own row comes from subtracting the received sum A @ Y
    from Z_k.
    """
    _check_consistent(k, d, Z_k, log, H, schedule)
    field = H.field
    layout = schedule.layout
    rx = np.asarray(log.per_block)
    serve = layout.serve[k]
    gains = schedule.gains[serve, layout.slot[k]]
    served = field.matmul(field.mul(layout.decoders[k], gains[:, None, :]), rx[serve, k])
    n_tx = layout.transmissions
    sums = field.matmul(field.convert(layout.plans[k].A), rx[k * n_tx : (k + 1) * n_tx, k])
    own = field.sub(Z_k.payload, sums.ravel())
    data = np.concatenate([served[:k].ravel(), own, served[k:].ravel()])
    want = schedule.library.data[d[k]]
    return DecodeResult(user=k, data=data, success=field.close(data, want))


def decode_all(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule) -> list[DecodeResult]:
    return [
        decode_user(k, d, caches[k], log, H, schedule)
        for k in range(schedule.cfg.K)
    ]
