"""Linear network simulation and per-user decoding.

Every user k observes y_k = h_k^H x for each transmitted column x, with
h_k a fixed row of the channel matrix H. Channels are drawn seeded and
rejection-sampled. ``draw_channel`` accepts a draw when every set of L
distinct rows is invertible, so the zero-forcing synthesis downstream
can never degenerate. The plan-aware draw (``delivery.draw_plan_channel``,
which the CLI uses) samples the same stream but accepts a draw when the
schedule's own beams serve every group, which at reduced N in the
tens is one draw where the all-subsets check would exhaust its budget.

With K <= L rows the one subset is H itself, and ``linalg.rank``, the
tests' reference, decides it. With K = L+1, as in the full regime, the
L-row subsets are H without one row each, and one tall elimination
decides them all: H must have full column rank and its left null
vector no zero entry. At K >= L+2 the check has two paths, chosen by
the field's ``exact``:

- In an exact field it eliminates the first L rows once and condenses
  the minors of A = H[L:] @ H[:L]^-1: every L-row subset is invertible
  exactly when every square minor of A is nonzero, and the C(K, L)
  minors come order by order from the two orders below by the
  Desnanot-Jacobi identity, a few array operations per order, which
  stop at the first order holding a zero. Where each minor reads its
  terms depends only on (K, L), so an order that fits one block takes
  its gather indices from a plan built once and kept (``_order_plan``),
  and a larger order gathers block by block.
- In complex mode it walks the sorted row prefixes of H depth first,
  each with a basis of its null space: a row joins a prefix by one
  product with that basis and one eliminated basis vector, so each of
  the C(K, L) subsets costs one length-L dot product at the last level
  instead of an elimination, and the walk stops at the first dependent
  prefix. Which prefixes a step extends, with which rows, and where a
  chunk of CHUNK_BYTES ends depend only on (K, L), so each step's index
  arrays are built once and kept (``_sweep_step``), and a draw does
  only the products and eliminations.

Both paths build their temporaries in blocks of bounded size. The
condensation also keeps three whole orders of minors, so its memory
grows with C(K, L); the order sizes are binomials known before any
work, so the check predicts its peak (``_condensation_bytes``) and
refuses a pair past CONDENSATION_CHUNKS blocks of CHUNK_BYTES (24 MiB)
with CheckTooLarge before the first elimination: (24, 11) answers near
16 MiB, while (30, 12) would need about 491 MiB and (40, 13) 65 GiB.
Its plans are kept in an LRU cache of ORDER_PLANS entries, keyed by
(rows, columns, order); an entry holds 40 bytes per minor, at most
1.25 CHUNK_BYTES, and the 4 plans of a (17, 5) check 245 KB. The
sweep's steps are kept in an LRU cache of SWEEP_STEPS entries, keyed by
(K, L, the basis width and itemsize, CHUNK_BYTES, the largest rows of
the step's prefixes); an entry holds at most 6 CHUNK_BYTES (1.5 MiB) for
K up to CHUNK_BYTES / 8, so the cache at most 48 MiB, and the 5 steps
of a (12, 5) walk 45 KB.

A ``ChannelMatrix`` keeps a read-only copy of H and memoizes the tall
eliminations of its parent sets of rows (``left_inverses``) and the
factors that its schedule forms its beams from (``cached``), one copy
of each. The check at K = L+1 and the schedule's beams ask for the same
elimination in the full regime, and the plan-aware check computes those
factors itself, so a trial eliminates each parent set once and computes
the factors once.

Reception reads only the schedule's (B, L, tau) signal stack, never its
block objects: one product H @ S gives every user's receptions of every
block as one (B, K, tau) array. Decoding assumes the standard genie
model: receivers know H, the demand vector, and the schedule's metadata
(row plans with their integer decoding inverses and, per block, the
owner gain of every served user's beam), and read the beamformer
scalings from the schedule rather than estimating them. Every user of a
row decodes with the row plan's one combination matrix A: its
receptions, each scaled by the user's owner gain in that block, go
through A's few nonzero diagonals, the layout's taps. A jointly served
user's minifile j is its scaled reception at transmission j of its
segment, a telescoping user's that plus s_j times the next one, and the
row owner takes the same taps at unit scale. So all users decode in one
element-wise pass over the reception stack, with no decoder matrix, no
product and no elimination; in the full regime (A = [1]) the scaled
receptions are the decoded files.

Each decoding step is a numpy call per block of rows for every user at
once, not one per user: the scales come from two scatters at the
layout's groups and owners, every cache enters the decoded files in one
copy, and the row owners of a block complete their rows by one copy
and one subtraction on a strided view of their own rows. The verdicts
are one comparison per block of users whose requested files fit
together in CHUNK_BYTES, one flag per file; only such small files are
gathered, and a larger file is compared with the library's row as a
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    CheckTooLarge,
    DimensionMismatch,
    InconsistentInputs,
    ResamplingExhausted,
)
from .field import FieldContext, seeded_rng
from .linalg import CHUNK_BYTES, inverse_stack, left_inverse_stack, rank

# Channel draws before giving up; exceeding this signals a pathological
# field size or dimensions, not bad luck.
DRAW_BUDGET = 64

# CHUNK_BYTES (``linalg``'s) also bounds one step of the genericity
# check: in the prefix sweep, the children's null-space bases plus the
# matmul rows of the prefixes it extends; in the minor condensation,
# each gathered term of a block of minors. The sweep keeps the prefixes
# still to visit on every level it is inside, and the condensation three
# orders of minors, so the check peaks near 1.8 MiB at (K, L) = (20, 9)
# and 15.6 MiB at (24, 11), whose three largest orders hold 14.9 MiB
# (tracemalloc). Decoding takes its receptions, and its verdicts the
# requested files, in blocks of this size too, and synthesis
# (``delivery.build_schedule``) its rows, which keeps their temporaries
# in cache.

# An order of the condensation with at most this many minors fits one
# block (four 8-byte terms each in CHUNK_BYTES) and is condensed from a
# memoized plan (``_order_plan``); a larger one gathers block by block.
PLANNED_MINORS = CHUNK_BYTES // 32

# Plans of the condensation kept at once (``_order_plan``), a (17, 5)
# check takes 4, and predicted peaks (``_condensation_bytes``).
ORDER_PLANS = 16

# The condensation's predicted peak (``_condensation_bytes``) may be at
# most this many CHUNK_BYTES (24 MiB); past it the check refuses
# (CheckTooLarge) before any work. (24, 11) predicts 16.3 MiB, (26, 12)
# 55.6 MiB and (30, 12) 491 MiB.
CONDENSATION_CHUNKS = 96

# In complex mode a candidate row is dependent when every entry of its
# product with a prefix's null-space basis is at most this many times
# the channel's pivot threshold; the margin keeps the check from
# accepting a draw that the per-subset rank test rejects.
PIVOT_MARGIN = 10

# Steps of the prefix sweep's channel-free walk kept at once
# (``_sweep_step``); a (12, 5) walk takes 5.
SWEEP_STEPS = 32


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """K x L channel; row k is user k's receive functional h_k^H.

    H is a private read-only copy of the given matrix, so what the
    channel memoizes (``cached``) stays valid: the eliminations of its
    parent sets of rows and its schedule's beam shifts and gains.
    """

    field: FieldContext
    H: np.ndarray

    def __post_init__(self):
        H = np.array(self.field.convert(self.H))
        if H.ndim != 2:
            raise DimensionMismatch(f"channel needs a K x L matrix, got {H.shape}")
        H.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_memo", {})

    def cached(self, key, compute) -> tuple:
        """compute()'s tuple of arrays, computed once per key and read-only.

        Every caller that asks for the same key of this channel shares
        the arrays. An exception is not cached.
        """
        if key not in self._memo:
            result = compute()
            for a in result:
                a.setflags(write=False)
            self._memo[key] = result
        return self._memo[key]

    def left_inverses(self, parents) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``left_inverse_stack`` of the (P, L+1) parent sets of rows, memoized.

        The channel check and the schedule's beams ask for the same
        parent sets of one channel, so each is eliminated once. The memo
        holds G and v alone, G as a view of its transpose, whose rows the
        beams gather (``delivery._beams``).
        """
        parents = np.ascontiguousarray(parents, dtype=np.int64)
        key = ("left_inverses", parents.shape, parents.tobytes())
        return self.cached(key, lambda: left_inverse_stack(self.field, self.H[parents]))

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def L(self) -> int:
        return self.H.shape[1]


def _as_channel(H, field: FieldContext) -> ChannelMatrix:
    """H itself if it is a ChannelMatrix, else a channel over field made from it."""
    if isinstance(H, ChannelMatrix):
        return H
    return ChannelMatrix(field, H)


@dataclass(frozen=True, eq=False)
class ReceptionLog:
    """Per-block K x tau reception matrices, one row per user.

    receive stores them as one (B, K, tau) array, so per_block[b] is a
    view.
    """

    field: FieldContext
    per_block: np.ndarray


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """One user's reconstructed file and its verification flag.

    When the file fails its check, mismatch names the first (row,
    minifile) of it that differs from the library file; in complex mode
    residual is the file's max-abs deviation, against decode_atol. Both
    stay None on success.
    """

    user: int
    data: np.ndarray
    success: bool
    mismatch: tuple[int, int] | None = None
    residual: float | None = None


def _generic(field: FieldContext, H, L: int) -> bool:
    """Whether every L-row subset of H is independent (all K rows if K < L).

    H is a ChannelMatrix or a raw K x L array, which is wrapped in one.
    At K <= L the one subset is H itself, independent exactly when
    ``rank`` (the tests' reference) is K. At K = L+1 the decision is one
    tall elimination's, the channel's memoized one over all its rows
    (``ChannelMatrix.left_inverses``): full column rank and a left null
    vector with every entry nonzero by the field's ``null_support``. In
    GF that is exactly the rank test on every subset; in complex mode
    see ``ComplexField.null_support``.

    At K >= L+2 in an exact field, the first L rows must be invertible,
    and then every L-row subset is exactly when every square minor of
    A = H[L:] @ H[:L]^-1 is nonzero (``_minors_nonzero``). The subset
    that keeps first-block rows T and takes rows U of the rest is
    (I[T]; A[U]) @ H[:L], whose determinant is, up to sign and
    det H[:L], the minor of A on rows U and the columns outside T.
    The condensation's peak depends only on (K, L), through the sizes
    of its orders (``_condensation_bytes``), so before any work a pair
    whose peak would pass CONDENSATION_CHUNKS blocks of CHUNK_BYTES is
    refused with CheckTooLarge, whatever the draw.

    Otherwise (complex mode at K >= L+2) it is a sweep over sorted row
    prefixes up to depth L: every prefix lies inside some subset the
    check covers, so the draw is generic exactly when no prefix gains a
    row that its null space already annihilates. A row counts as
    dependent when every entry of its product with the prefix's
    null-space basis is at most PIVOT_MARGIN times the channel's pivot
    threshold. On channels whose rows share one scale, as
    ``sample_channel``'s i.i.d. entries do, that rule is never looser
    than a rank test on every subset, and it accepts the
    well-conditioned draws that test accepts; rows of very different
    scales can make it looser.
    """
    H = _as_channel(H, field)
    K = H.K
    if K <= L:
        return rank(field, H.H) == K
    if K == L + 1:
        # The L-subsets are H without one row each: all are independent
        # exactly when H has full column rank and its left null vector
        # has no zero entry.
        _, v, full_rank = H.left_inverses(np.arange(K)[None])
        return bool(full_rank[0] and field.null_support(v).all())
    H = H.H
    if field.exact:
        need = _condensation_bytes(min(K - L, L), max(K - L, L), CHUNK_BYTES, PLANNED_MINORS)
        budget = CONDENSATION_CHUNKS * CHUNK_BYTES
        if need > budget:
            raise CheckTooLarge(
                f"the all-subsets check at (K, L) = ({K}, {L}) would peak near {need} "
                f"bytes, past its budget of {budget} bytes"
            )
        inverse, nonsingular = inverse_stack(field, H[None, :L])
        return bool(nonsingular[0]) and _minors_nonzero(field, field.matmul(H[L:], inverse[0]))
    return _prefix_sweep(field, H, L)


@lru_cache(maxsize=None)
def _condensation_maps(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each k-subset of range(n) in colex order, the colex index of
    that subset without its first element and without its last (a
    (2, C(n, k)) array over the (k-1)-subsets), and without both (over
    the (k-2)-subsets).

    The colex index of sorted e_1 < ... < e_j is the sum of C(e_i, i),
    so the j-subsets whose largest element is m are the (j-1)-subsets
    of range(m), in order, with m appended. Without m, such a subset's
    index is its index among them; without its first element, it is
    that (j-1)-subset's index without its first element, plus C(m, j-1).
    So the maps are built size by size from the one below, a few int64
    words per subset, on first use, and kept read-only.
    """
    first = np.zeros(n, dtype=np.int64)  # each 1-subset without its element: the empty set
    for j in range(2, k + 1):
        counts = np.array([math.comb(m, j - 1) for m in range(j - 1, n)], dtype=np.int64)
        rest = np.arange(math.comb(n, j)) - np.repeat(np.cumsum(counts) - counts, counts)
        both = first[rest]
        first = both + np.repeat(counts, counts)
    ends = np.stack([first, rest])
    ends.setflags(write=False)
    both.setflags(write=False)
    return ends, both


@lru_cache(maxsize=ORDER_PLANS)
def _condensation_bytes(rows: int, cols: int, chunk: int, planned: int) -> int:
    """The predicted peak bytes of ``_minors_nonzero`` on a rows x cols
    matrix, rows <= cols, under CHUNK_BYTES = chunk and PLANNED_MINORS =
    planned. At order k it holds three consecutive orders, of
    C(rows, k) C(cols, k) int64 minors each (two at the last order,
    which is not kept), and builds the index maps of the order's row
    and column subsets, at most 6 words per subset. On top come the
    plans of the orders of at most planned minors, 40 bytes per minor,
    and 4 chunks for the temporaries of a block or an order. It depends
    on (K, L) alone, so it is memoized."""
    sizes = [math.comb(rows, k) * math.comb(cols, k) for k in range(rows + 1)]
    kept = [
        sum(sizes[k - 2 : min(k + 1, rows)]) + 6 * (math.comb(rows, k) + math.comb(cols, k))
        for k in range(2, rows + 1)
    ]
    plans = sum(n for n in sizes[2:] if n <= planned)
    return 8 * max(kept, default=sizes[-1]) + 40 * plans + 4 * chunk


class _OrderPlan(NamedTuple):
    """The channel-free part of one planned order of the condensation (``_order_plan``)."""

    terms: np.ndarray  # (4, n): each minor's D[f,f], D[l,l], D[f,l], D[l,f], flat in order k-1
    divisors: np.ndarray  # (n,): each minor's D2[b,b], flat in order k-2


@lru_cache(maxsize=ORDER_PLANS)
def _order_plan(rows: int, cols: int, k: int) -> _OrderPlan:
    """Where the order-k minors of a rows x cols matrix read their
    Desnanot-Jacobi terms: flat ``take`` indices into the two orders
    below, each a C-contiguous (C(rows, j), C(cols, j)) array.

    None of this depends on the matrix, so a check at (K, L) asks for
    the same plans on every draw, and they are memoized, read-only. An
    entry holds 40 bytes per minor, and ``_minors_nonzero`` asks only
    for orders of at most PLANNED_MINORS minors, so an entry holds at
    most 1.25 CHUNK_BYTES (320 KiB) and the ORDER_PLANS entries 5 MiB;
    the four plans of a (17, 5) check hold 245 KB.
    """
    row_ends, row_both = _condensation_maps(rows, k)
    col_ends, col_both = _condensation_maps(cols, k)
    r = row_ends[:, :, None] * math.comb(cols, k - 1)
    c = col_ends[:, None, :]
    terms = np.stack([r[0] + c[0], r[1] + c[1], r[0] + c[1], r[1] + c[0]]).reshape(4, -1)
    divisors = (row_both[:, None] * math.comb(cols, k - 2) + col_both).reshape(-1)
    terms.setflags(write=False)
    divisors.setflags(write=False)
    return _OrderPlan(terms, divisors)


def _minors_nonzero(field: FieldContext, A: np.ndarray) -> bool:
    """Whether every square minor of A, of every order, is nonzero, in an
    exact field.

    Order-1 minors are A's entries. The order-k minor on sorted rows R
    and columns C comes from orders k-1 and k-2 by the Desnanot-Jacobi
    identity, (D[f,f] D[l,l] - D[f,l] D[l,f]) / D2[b,b], where f, l and
    b are the index sets without their first element, without their
    last, and without both. The divisor is nonzero because its order
    passed. Only three consecutive orders are kept, the oldest as
    inverses, and the check stops at the first order that holds a zero.

    An order of at most PLANNED_MINORS minors, one block, reads its
    terms and divisors through its memoized plan (``_order_plan``): two
    gathers, the products and two reductions for the whole order. A
    larger order is condensed block by block, at most CHUNK_BYTES per
    temporary, from the index maps of its row and column subsets: a
    block is a run of rows, or of columns of one row when a row is
    longer than a block. A is turned so that its rows are the shorter
    side: an order then has few row subsets and long rows of minors, so
    each blocked gather runs along a long row (at (40, 36), 60 times
    faster than the other way round).
    """
    if A.shape[0] > A.shape[1]:
        A = A.T
    level = np.ascontiguousarray(A)
    if not level.all():
        return False
    rows, cols = level.shape
    inverses = np.ones((1, 1), dtype=np.int64)  # of the one order-0 minor
    block = max(1, CHUNK_BYTES // 32)  # minors per block: four 8-byte terms each
    for k in range(2, rows + 1):
        height, width = math.comb(rows, k), math.comb(cols, k)
        last = k == rows
        if height * width <= PLANNED_MINORS:
            plan = _order_plan(rows, cols, k)
            g = level.take(plan.terms)
            x = g[0] * g[1]
            x -= g[2] * g[3]
            field.reduce(x)
            # The divisor is nonzero, so a minor is zero with its numerator.
            if not x.all():
                return False
            if not last:
                x *= inverses.take(plan.divisors)
                minors = field.reduce(x).reshape(height, width)
        else:
            row_ends, row_both = _condensation_maps(rows, k)
            col_ends, col_both = _condensation_maps(cols, k)
            minors = None if last else np.empty((height, width), dtype=np.int64)
            # Rows per block, so that the rows gathered from the orders
            # below fit as well; a row longer than a block is split into
            # columns.
            step = max(1, block // max(width, level.shape[1], inverses.shape[1]))
            span = min(width, block)
            for r in range(0, height, step):
                here = slice(r, r + step)
                ends = level[row_ends[:, here]]
                both = None if last else inverses[row_both[here]]
                for c in range(0, width, span):
                    there = slice(c, c + span)
                    # g[i, :, j] holds D[rows without end i, columns without end j].
                    g = np.take(ends, col_ends[:, there], axis=2)
                    x = g[0, :, 0] * g[1, :, 1]
                    x -= g[0, :, 1] * g[1, :, 0]
                    field.reduce(x)
                    if not x.all():
                        return False
                    if not last:
                        x *= np.take(both, col_both[there], axis=1)
                        minors[here, there] = field.reduce(x)
        if not last:
            if k + 1 < rows:
                # Order k-1 becomes the divisor of order k+1, inverted in
                # place; the last order divides by nothing.
                flat = level.reshape(-1)
                for s in range(0, flat.size, block):
                    flat[s : s + block] = field.inv_each(flat[s : s + block])
            inverses, level = level, minors
    return True


class _SweepStep(NamedTuple):
    """The channel-free part of one pop of the prefix sweep (``_sweep_step``)."""

    stop: int  # the pop's first prefixes, extended now; the rest wait
    low: int  # children take rows low, ..., top
    top: int
    parent: np.ndarray  # each child's prefix
    pick: np.ndarray  # each child's (row - low, prefix), flat in the product
    first: np.ndarray  # each child's first basis row, flat in the children
    rows: bytes  # each child's row: the children's own pop key
    rest: bytes | None  # the pop key of the prefixes that wait, if any


@lru_cache(maxsize=SWEEP_STEPS)
def _sweep_step(K: int, L: int, w: int, itemsize: int, chunk: int, last: bytes) -> _SweepStep:
    """Which prefixes of a pop of the sweep extend, and with which rows.

    A pop is a stack of prefixes with w basis rows each, of ``itemsize``
    bytes per entry, whose largest rows are ``last`` (int64 bytes, -1
    for the empty prefix). None of this depends on the channel, so a
    walk at (K, L) asks for the same steps on every draw, and they are
    memoized, read-only. chunk is ``CHUNK_BYTES`` when the sweep runs,
    so a step built under another chunk size is never reused.

    An entry holds at most 48 bytes per child: the three index arrays,
    ``rows``, and the pop's ``last`` with its ``rest`` (every prefix
    has a child). Several prefixes fit in chunk only while their
    children's product rows, L entries of at least 8 bytes each, do, so
    a pop has at most max(K, chunk // (8 L)) children, and an entry at
    most 6 CHUNK_BYTES (1.5 MiB) for K up to CHUNK_BYTES / 8. The
    SWEEP_STEPS entries hold at most 48 MiB; the 5 steps of a (12, 5)
    complex walk hold 45 KB.
    """
    last = np.frombuffer(last, dtype=np.int64)
    # A child adds a row in (last, top], leaving room for w - 1 more.
    top = K - w
    count = top - last
    # Extend the first prefixes whose bases, products and children fit in
    # chunk; the rest wait for a pop of their own.
    cost = np.cumsum(itemsize * w * (K + L * count))
    stop = max(1, int(np.searchsorted(cost, chunk, side="right")))
    rest = last[stop:].tobytes() if stop < len(last) else None
    last, count = last[:stop], count[:stop]
    parent = np.repeat(np.arange(stop), count)
    each = np.arange(len(parent))
    # The children of prefix b take rows last[b] + 1, ..., top in turn.
    rows = each - np.repeat(np.cumsum(count) - count - last - 1, count)
    low = int(last.min()) + 1
    pick = (rows - low) * stop + parent
    first = each * w
    for a in (parent, pick, first):
        a.setflags(write=False)
    return _SweepStep(stop, low, top, parent, pick, first, rows.tobytes(), rest)


def _prefix_sweep(field: FieldContext, H: np.ndarray, L: int) -> bool:
    """``_generic``'s sweep over null spaces of sorted row prefixes of H.

    Each pop takes its channel-free step from ``_sweep_step`` and does
    only the work that depends on H: one product, one gather, the pivot
    choice and the elimination. Whether each child's pivot is usable is
    read from the pivots the elimination gathers, and at the last level,
    where each child has one basis row, its one product is the pivot.
    """
    K = H.shape[0]
    threshold = PIVOT_MARGIN * field.pivot_threshold(H)
    # Prefixes still to extend, deepest last: a (B, w, L) stack of bases,
    # prefix b's rows annihilating the w rows of N[b], and each prefix's
    # largest row as int64 bytes (-1 for the empty prefix).
    pending = [(np.eye(L, dtype=field.dtype)[None], np.int64(-1).tobytes())]
    while pending:
        N, last = pending.pop()
        w = N.shape[1]
        step = _sweep_step(K, L, w, N.itemsize, CHUNK_BYTES, last)
        if step.rest is not None:
            # A copy, so that this stack of bases can be freed.
            pending.append((N[step.stop :].copy(), step.rest))
        N = N[: step.stop]
        # Every gather is a take along one flat axis, which numpy runs
        # several times faster than indexing by two arrays.
        products = field.matmul(H[step.low : step.top + 1], N.reshape(-1, L).T)
        c = products.reshape(-1, w).take(step.pick, axis=0)
        if w == 1:
            # The last level: each child's one product is its pivot.
            if not field.pivot_found(c, threshold).all():
                return False
            continue
        # Each child's pivot, its basis row t, is read at the argmax.
        at = step.first + field.select_pivot(c)
        pivots = c.reshape(-1).take(at)
        if not field.pivot_found(pivots, threshold).all():
            return False
        # Eliminate basis row t from the others, then drop it.
        factors = field.mul(c, field.inv_nonzero(pivots)[:, None])
        children = N.take(step.parent, axis=0)
        bases = children.reshape(-1, L)
        children -= factors[:, :, None] * bases.take(at, axis=0)[:, None, :]
        field.reduce(children)
        bases[at] = children[:, -1]
        pending.append((children[:, :-1], step.rows))
    return True


def draw_channel(
    K: int, L: int, seed: int, field: FieldContext, budget: int = DRAW_BUDGET
) -> ChannelMatrix:
    """Seeded channel draw, rejected until all L-row subsets are invertible."""
    if K < 1 or L < 1:
        raise InconsistentInputs(f"need K, L >= 1, got K={K}, L={L}")
    rng = seeded_rng(seed)
    for _ in range(budget):
        H = ChannelMatrix(field, field.sample_channel(rng, (K, L)))
        if _generic(field, H, L):
            return H
    raise ResamplingExhausted(
        f"no generic {K}x{L} channel found in {budget} draws over {field!r}"
    )


def receive(H: ChannelMatrix, schedule) -> ReceptionLog:
    """Apply the channel to every block at once: y[b] = H @ signals[b].

    H may differ from the schedule's channel in its values, which
    simulates a channel that moved after the beams were formed, but not
    in its field or its number of users K (InconsistentInputs). A raw
    array is taken over the schedule's field. A stand-in schedule with no
    channel, only signals, is applied as given, to a ChannelMatrix.
    """
    scheduled = getattr(schedule, "channel", None)
    if not isinstance(H, ChannelMatrix):
        if scheduled is None:
            raise InconsistentInputs("a raw channel array needs a schedule with a channel")
        H = ChannelMatrix(scheduled.field, H)
    if scheduled is not None and (H.field != scheduled.field or H.K != scheduled.K):
        raise InconsistentInputs(
            f"channel over {H.field!r} with K={H.K}, schedule's over {scheduled.field!r} "
            f"with K={scheduled.K}"
        )
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
    if H is not schedule.channel and (
        H.field != schedule.channel.field or not H.field.equal(H.H, schedule.channel.H)
    ):
        raise InconsistentInputs("channel differs from the one scheduled")
    if log.field != H.field:
        raise InconsistentInputs(f"reception log over {log.field!r}, channel over {H.field!r}")
    B, _, tau = schedule.signals.shape
    if np.shape(log.per_block) != (B, cfg.K, tau):
        raise InconsistentInputs(
            f"reception log of shape {np.shape(log.per_block)} does not cover the "
            f"schedule's (B, K, tau) = {(B, cfg.K, tau)}"
        )
    if len(caches) != len(users):
        raise InconsistentInputs(f"{len(caches)} caches for {len(users)} users")
    owners = [Z.user for Z in caches]
    if owners != list(users):
        k, owner = next((k, u) for k, u in zip(users, owners) if k != u)
        raise InconsistentInputs(f"cache of user {owner} given for user {k}")


def _scales(field: FieldContext, layout, gains, rows: slice) -> np.ndarray:
    """Every user's scale in every block of a slice of rows, (rows, transmissions, K).

    User u's scale in block b is the owner gain of u's beam where b
    serves u, 1 where u owns b's row, and 0 elsewhere: two scatters into
    block b's row at the layout's groups[b] and owners[b].
    """
    n_tx = layout.transmissions
    K = len(layout.owners) // n_tx
    blocks = slice(rows.start * n_tx, rows.stop * n_tx)
    at = np.arange(blocks.stop - blocks.start) * K
    scales = field.zeros(len(at) * K)
    scales[at[:, None] + layout.groups[blocks]] = gains[blocks]
    scales[at + layout.owners[blocks]] = field.coeff(1)
    return scales.reshape(-1, n_tx, K)


def _decode(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule, users: slice) -> list:
    """Decode a slice of the users into one (n, N, m, tau) buffer; each
    file is a contiguous view of it.

    User u's receptions in row i, times its scales there, are z. Its
    minifile j is row j of A applied to z, read from the layout's taps:
    z at transmission j of u's segment, plus s_j times z at j + 1 if the
    segment telescopes. z is 0 at the transmissions that do not serve
    u, so the taps of the other segments add nothing. The owner's scales
    are 1, so its row holds the received sums, which it subtracts from
    its cache. In the full regime A = [1], and the scaled receptions are
    the decoded files.

    Every cache is first copied, in one call, into the buffer at its
    owner's own row; those rows, every (N+1)-th of the buffer, are one
    strided view. The work then runs in blocks of rows and symbols of
    about CHUNK_BYTES of receptions each: one copy of the block's
    owners' cached cells, before anything overwrites them, one
    element-wise product, written straight into the files when A = [1],
    one add per further tap, one subtraction of the received sums from
    the copied caches into the owners' cells, and one reduction (two in
    GF when the taps' raw sums of products could overflow int64). So no
    step loops over users, and no temporary of the loop is larger than a
    block. The verdicts then take one comparison (``field.close``) per
    block of users whose requested files fit together in CHUNK_BYTES,
    and only a failed file is read again, for its first wrong minifile.
    """
    H = _as_channel(H, schedule.channel.field)
    field = H.field
    layout = schedule.layout
    N, K = schedule.cfg.N, schedule.cfg.K
    users = range(K)[users]
    _check_consistent(d, caches, users, log, H, schedule)
    n_tx, m, taps = layout.transmissions, layout.minifiles, layout.taps
    n, tau = len(users), schedule.signals.shape[-1]
    own = slice(users.start, users.stop)
    rx = np.asarray(log.per_block).reshape(N, n_tx, K, tau)[:, :, own]
    data = np.empty((n, N, m, tau), dtype=field.dtype)
    # Decoded file k's own row, row users.start + k, is every (N+1)-th row
    # of the buffer from row users.start.
    mine = data.reshape(n * N, m, tau)[users.start :: N + 1]
    try:
        np.concatenate([Z.payload[None] for Z in caches], out=mine.reshape(n, m * tau))
    except ValueError:
        shape = next(Z.payload.shape for Z in caches if Z.payload.shape != (m * tau,))
        raise InconsistentInputs(f"cache of shape {shape}, expected {m * tau} symbols") from None
    except TypeError:
        # numpy's refusal to cast complex or float caches into GF's int64.
        dtype = next((Z.payload.dtype for Z in caches if Z.payload.dtype != data.dtype), None)
        raise InconsistentInputs(f"cache of dtype {dtype} under a {field!r} schedule") from None
    out = data.transpose(1, 2, 0, 3)  # (row, minifile, user, symbol)
    # Whole rows per block while a row's receptions fit in CHUNK_BYTES,
    # else one row per block in equal runs of symbols.
    symbol_bytes = n_tx * n * data.itemsize
    pieces = -(-tau * symbol_bytes // CHUNK_BYTES)
    width = -(-tau // pieces)
    height = max(1, CHUNK_BYTES // (symbol_bytes * width))
    for r in range(0, N, height):
        rows = slice(r, min(r + height, N))
        scales = _scales(field, layout, schedule.gains, rows)[:, :, own, None]
        # The decoded files whose own rows the block holds.
        owners = slice(max(rows.start - users.start, 0), max(rows.stop - users.start, 0))
        for c in range(0, tau, width):
            cols = slice(c, c + width)
            o = out[rows, :, :, cols]
            cached = mine[owners, :, cols].copy()
            z = o if len(taps) == 1 else np.empty(o.shape[:1] + (n_tx,) + o.shape[2:], o.dtype)
            np.multiply(scales, rx[rows, :, :, cols], out=z)
            if len(taps) > 1:
                field.reduce_products(z, len(taps))
                np.copyto(o, z[:, taps[0][1]])
                for j, t, sign in taps[1:]:
                    (np.add if sign > 0 else np.subtract)(o[:, j], z[:, t], out=o[:, j])
            np.subtract(cached, mine[owners, :, cols], out=mine[owners, :, cols])
            field.reduce(o)
    # One verdict per block of users whose requested files fit together
    # in CHUNK_BYTES: a gather of those files and one comparison, one flag
    # per file. A block of one file compares the library's row as a view.
    library = schedule.library.data
    files = data.reshape(n, -1)
    height = max(1, CHUNK_BYTES // files[0].nbytes)
    success = np.empty(n, dtype=bool)
    for b in range(0, n, height):
        want = [d[k] for k in users[b : b + height]]
        rows = library[want[0] : want[0] + 1] if len(want) == 1 else library[want]
        success[b : b + height] = field.close(files[b : b + height], rows, axis=1)
    results = []
    new = object.__new__
    for k, flat, ok in zip(users, files, success.tolist()):
        if ok:
            # The frozen __init__ sets each field by its own
            # object.__setattr__; a passed file's result fills its instance
            # dict in one update, and stays frozen to assignment.
            result = new(DecodeResult)
            result.__dict__.update(user=k, data=flat, success=True, mismatch=None, residual=None)
            results.append(result)
            continue
        index, residual = field.mismatch(flat, library[d[k]])
        results.append(DecodeResult(user=k, data=flat, success=False,
                                    mismatch=divmod(index // tau, m), residual=residual))
    return results


def decode_user(k: int, d, Z_k, log: ReceptionLog, H: ChannelMatrix, schedule) -> DecodeResult:
    """Reconstruct user k's requested file from receptions plus cache:
    the one-user case of decode_all."""
    if not 0 <= k < schedule.cfg.K:
        raise InconsistentInputs(f"user {k} out of range for K={schedule.cfg.K}")
    return _decode(d, [Z_k], log, H, schedule, slice(k, k + 1))[0]


def decode_all(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule) -> list[DecodeResult]:
    """Every user's file from receptions plus caches[k], user k's cache;
    a raw channel array is taken over the schedule's field."""
    return _decode(d, caches, log, H, schedule, slice(None))
