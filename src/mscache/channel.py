"""Linear network simulation and per-user decoding.

Every user k observes y_k = h_k^H x for each transmitted column x, with
h_k a fixed row of the channel matrix H. Channels are drawn seeded and
rejection-sampled until every set of L distinct rows is invertible, so
the zero-forcing synthesis downstream can never degenerate. With K =
L+1 rows, as in the full regime, the L-row subsets are H without one
row each, and one tall elimination decides them all: H must have full
column rank and its left null vector no zero entry. Otherwise the check
walks the sorted row prefixes of H depth first, each with a basis of
its null space: a row joins a prefix by one product with that basis
and one eliminated basis vector, so each of the C(K, L) subsets costs
one length-L dot product at the last level instead of an L x L
elimination. Prefixes are extended in chunks of bounded size, and the
walk stops at the first dependent prefix.

Reception reads only the schedule's (B, L, tau) signal stack, never its
block objects: one product H @ S gives every user's receptions of every
block as one (B, K, tau) array. Decoding assumes the standard genie
model: receivers know H, the demand vector, and the schedule's metadata
(row plans with their integer decoding inverses and, per block, the
owner gain of every served user's beam), and read the beamformer
scalings from the schedule rather than estimating them. Every user of a
row decodes with the row plan's one combination matrix A, scaled per
block by the user's owner gain, so all users decode in one pass: one
batched product of these decoders with the reception stack, and no
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InconsistentInputs,
    ResamplingExhausted,
)
from .field import FieldContext
from .linalg import left_inverse_stack, rank

# Channel draws before giving up; exceeding this signals a pathological
# field size or dimensions, not bad luck.
DRAW_BUDGET = 64

# Bytes of one step of the genericity check: the children's null-space
# bases plus the matmul rows of the prefixes it extends. The depth-first
# sweep keeps the prefixes still to visit on every level it is inside,
# so a step is a fraction of a MiB: the whole check then peaks near
# 1.6 MiB at (K, L) = (20, 9) and 4 MiB at (100, 99).
CHUNK_BYTES = 1 << 18

# In complex mode a candidate row is dependent when every entry of its
# product with a prefix's null-space basis is at most this many times
# the channel's pivot threshold; the margin keeps the check from
# accepting a draw that the per-subset rank test rejects.
PIVOT_MARGIN = 10


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


@dataclass(frozen=True)
class DecodeResult:
    """One user's reconstructed file and its verification flag."""

    user: int
    data: np.ndarray
    success: bool


def _generic(field: FieldContext, H: np.ndarray, L: int) -> bool:
    """Whether every L-row subset of H is independent (all K rows if K < L).

    At K = L+1 the decision is one tall elimination's: full column rank
    and a left null vector with every entry nonzero by the field's
    ``null_support``. In GF that is exactly the rank test on every
    subset; in complex mode see ``ComplexField.null_support``. Otherwise
    it is a sweep over sorted row prefixes: K >= L puts every prefix inside
    some L-subset, so the draw is generic exactly when no prefix gains a
    row that its null space already annihilates. In GF the verdict is
    exact, the same as a rank test on every subset. In complex mode a
    row counts as dependent when every entry of its product with the
    prefix's null-space basis is at most PIVOT_MARGIN times the
    channel's pivot threshold. On channels whose rows share one scale,
    as ``sample_channel``'s i.i.d. entries do, that rule is never looser
    than a rank test on every subset, and it accepts the well-conditioned
    draws that test accepts; rows of very different scales can make it
    looser.
    """
    K = H.shape[0]
    if K < L:
        return rank(field, H) == K
    if K == L + 1:
        # The L-subsets are H without one row each: all are independent
        # exactly when H has full column rank and its left null vector
        # has no zero entry.
        _, v, full_rank = left_inverse_stack(field, H[None])
        return bool(full_rank[0] and field.null_support(v).all())
    threshold = PIVOT_MARGIN * field.pivot_threshold(H)
    # Prefixes still to extend, deepest last: a (B, w, L) stack of bases,
    # prefix b's rows annihilating the w rows of N[b], and each prefix's
    # largest row (-1 for the empty prefix).
    pending = [(field.convert(np.eye(L, dtype=np.int64))[None], np.array([-1]))]
    while pending:
        N, last = pending.pop()
        w = N.shape[1]
        # A child adds a row in (last, top], leaving room for w - 1 more.
        top = K - w
        count = top - last
        # Extend the first prefixes that fit in CHUNK_BYTES; the rest wait
        # as a copy, so that this stack of bases can be freed.
        cost = np.cumsum(N.itemsize * w * (K + L * count))
        stop = max(1, int(np.searchsorted(cost, CHUNK_BYTES, side="right")))
        if stop < len(N):
            pending.append((N[stop:].copy(), last[stop:]))
        N, last, count = N[:stop], last[:stop], count[:stop]
        parent = np.repeat(np.arange(stop), count)
        each = np.arange(len(parent))
        # The children of prefix b take rows last[b] + 1, ..., top in turn.
        rows = each - np.repeat(np.cumsum(count) - count - last - 1, count)
        low = int(last.min()) + 1
        products = field.matmul(H[low : top + 1], N.reshape(-1, L).T)
        c = products.reshape(top + 1 - low, stop, w)[rows - low, parent]
        t, found = field.select_pivot(c, threshold)
        if not found.all():
            return False
        if w > 1:
            # Eliminate basis row t from the others, then drop it.
            factors = field.mul(c, field.inv_each(c[each, t])[:, None])
            children = N[parent]
            pivot_rows = children[each, t]
            children = field.sub(children, field.mul(factors[:, :, None], pivot_rows[:, None, :]))
            children[each, t] = children[:, -1]
            pending.append((children[:, :-1], rows))
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
    """Apply the channel to every block at once: y[b] = H @ signals[b]."""
    signals = schedule.signals
    if signals.shape[1] != H.L:
        raise DimensionMismatch(
            f"block has {signals.shape[1]} antenna rows, channel expects {H.L}"
        )
    rx = H.field.matmul(H.H, signals)
    return ReceptionLog(H.field, rx)


def _check_consistent(d, caches, users: range, log, H: ChannelMatrix, schedule) -> None:
    cfg = schedule.cfg
    if tuple(d) != tuple(schedule.demand):
        raise InconsistentInputs("demand vector differs from the one scheduled")
    if H.field != schedule.channel.field or not H.field.equal(H.H, schedule.channel.H):
        raise InconsistentInputs("channel differs from the one scheduled")
    B, _, tau = schedule.signals.shape
    if np.shape(log.per_block) != (B, cfg.K, tau):
        raise InconsistentInputs(
            f"reception log of shape {np.shape(log.per_block)} does not cover the "
            f"schedule's (B, K, tau) = {(B, cfg.K, tau)}"
        )
    if len(caches) != len(users):
        raise InconsistentInputs(f"{len(caches)} caches for {len(users)} users")
    for k, Z in zip(users, caches):
        if Z.user != k:
            raise InconsistentInputs(f"cache of user {Z.user} given for user {k}")
        if Z.payload.shape != (cfg.subfile_symbols,):
            raise InconsistentInputs(f"cache of shape {Z.payload.shape}, expected "
                                     f"{cfg.subfile_symbols} symbols")


def _decoders(field: FieldContext, layout, gains, users: slice) -> np.ndarray:
    """Decoders (N, n, m, transmissions) of the n users in a slice of 0..K-1.

    Row r's decoder for user u is the shared A with column b scaled by
    u's scale in block b: the owner gain of u's beam where b serves u, 1
    where u owns the row, 0 elsewhere.
    """
    B, K = len(gains), len(layout.plans)
    scales = field.zeros((B, K))
    np.put_along_axis(scales, layout.groups, gains, axis=1)
    scales[np.arange(B), np.arange(B) // layout.transmissions] = field.coeff(1)
    per_row = scales[:, users].reshape(K, layout.transmissions, -1).transpose(0, 2, 1)
    return field.mul(field.convert(layout.plans[0].A), per_row[:, :, None, :])


def _decode(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule, users: slice) -> list:
    """Decode a slice of the users with one product, read from the
    reception stack without a copy, into one (n, N, m, tau) buffer; each
    file is a contiguous view of it. A user's own row then holds the
    received sums, which it subtracts from its cache."""
    field = H.field
    layout = schedule.layout
    N, K = schedule.cfg.N, schedule.cfg.K
    _check_consistent(d, caches, range(K)[users], log, H, schedule)
    tau = schedule.signals.shape[-1]
    rx = np.asarray(log.per_block).reshape(N, layout.transmissions, K, tau)[:, :, users]
    data = np.empty((len(caches), N, layout.minifiles, tau), dtype=field.dtype)
    decoders = _decoders(field, layout, schedule.gains, users)
    field.matmul(decoders, rx.swapaxes(1, 2), out=data.swapaxes(0, 1))
    results = []
    for Z, rows in zip(caches, data):
        k = Z.user
        rows[k] = field.sub(Z.payload.reshape(rows[k].shape), rows[k])
        flat = rows.reshape(-1)
        success = field.close(flat, schedule.library.data[d[k]])
        results.append(DecodeResult(user=k, data=flat, success=success))
    return results


def decode_user(k: int, d, Z_k, log: ReceptionLog, H: ChannelMatrix, schedule) -> DecodeResult:
    """Reconstruct user k's requested file from receptions plus cache:
    the one-user case of decode_all."""
    if not 0 <= k < schedule.cfg.K:
        raise InconsistentInputs(f"user {k} out of range for K={schedule.cfg.K}")
    return _decode(d, [Z_k], log, H, schedule, slice(k, k + 1))[0]


def decode_all(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule) -> list[DecodeResult]:
    """Every user's file from receptions plus caches[k], user k's cache."""
    return _decode(d, caches, log, H, schedule, slice(None))
