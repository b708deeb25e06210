"""Row plans, transmit blocks and schedules for both antenna regimes.

Table row i delivers, to every other user k, subfile i of the file k
requested; the row owner i hears the plain sum of those subfiles and
completes its own subfile from its cache. Each subfile splits into m
minifiles and a row is carried by (N-1)*m/L transmissions of duration
1/(N*m), each serving L users, so every row takes (N-1)/L.

With L = N-1 antennas, m = 1: one transmission serves all N-1 other
users. With fewer antennas (L < N-1), m = L: the N-1 other users are
tiled into segments of size L and L+1. A size-L segment is served
jointly in L transmissions, one minifile index per transmission. A
size-(L+1) segment uses a telescoping pattern: transmission t serves all
segment users but one, with coefficient vectors chosen as the inverse of
a column-deleted bidiagonal matrix, so that consecutive receptions
combine (telescope) into the per-index minifile sums the owner needs.

Everything downstream reads the row plan, so only plan construction and
the table's term labels know which regime is running. A plan is a few
integer arrays: served groups, coefficient vectors and the combination
matrix A. Every user of a row decodes with the same A: its columns at
the user's transmissions invert the user's stacked coefficient system
(the column-deleted bidiagonal for a telescoping user, the identity
otherwise), so decoding needs no elimination.
The one cached plan object is the schedule layout, per (N, L): the
shared pattern, every row's groups and the beams' parent sets.
Rows differ only in the labels of their users, so the pattern is
verified once, by exact integer linear algebra, including that product
equal to I; a verification failure is a hard error, never a fallback.
A row plan is a read-only view of the layout. The layout also keeps,
read-only, the channel-free index arrays that every trial would
otherwise rebuild: each block's row owner and the flat positions where
the beams gather its parent set (``_beam_indices``); an index that is
one of these plus an offset is formed where it is read. A few recent
layouts stay cached, which serves a trial and a sweep alike.

Zero-forcing beams come from parent sets of L+1 channel rows: each
served group plus the member of its telescoping segment that the
transmission skips, or else the smallest user it does not serve, which
in the full regime makes all N users one set. One batched elimination
gives every parent set a left inverse G and a left null vector v, once
per channel. The group that leaves out parent row k has the
inverse G without column k minus G[:, k] v / v_k there, and the beam of
served user q is its column q. No inverse is formed: the owner gains
come from the owner row times G, g_q = (hG)_q - (hG)_k v_q / v_k, and
the beam at unit owner gain is G[:, q] / g_q - G[:, k] v_q / (v_k g_q).
The channel keeps G, transposed so that its columns are rows, and per
beam g and v_q / (v_k g_q), O(P L^2 + B L) entries, and each row
block of synthesis forms its own beams from them.

Each transmission's signal is its beams times the combinations C
(L, tau) that its served users are sent. A user is served in m
transmissions of a row, and its coefficient vectors there, stacked,
form one m x m matrix: the identity for a jointly served user, so each
of its slots carries one of its minifiles, and a telescoping block
otherwise, applied to the user's m minifiles by one product. The
layout keeps these per-position matrices, the stacks that the plan's
certificate checks A against. Synthesis then runs per block of rows:
one gather of every slot's own minifile, one product for the
telescoping positions (none in the full regime), the block's beams, and
one beam product written into the schedule's (B, L, tau) signal stack;
a block holds as many rows as keep their beams, combinations and
signals within CHUNK_BYTES, and at least one. The owner gains, kept as
one (B, L) stack, let receivers descale their receptions. Block
objects, each a view into these stacks, are built only when a caller
reads them.

The beams are also the channel check: ``draw_channel`` accepts a draw
when every served group has an inverse and every beam a nonzero owner
gain, which is what the schedule needs, and asks nothing of the row
subsets that no group uses. An owner gain counts as nonzero by the same
relative rule as a parent set's null-vector entry, since the gains are
the null vector of the group plus the owner row. The group inverses
must also hold by the field's rule (``inverses_hold``), which reads
only the parent sets' eliminations: one pair of products per parent
set in complex mode, which gathers the parent rows itself, nothing in
GF, and no product per block. The channel memoizes the beams' factors,
G's columns and the shifts and gains, so the schedule built on an
accepted draw reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelMatrix, _as_channel
from .content import DemandVector, Library, LibraryConfig
from .errors import (
    DegenerateChannel,
    InconsistentInputs,
    PlanVerificationError,
    ResamplingExhausted,
    WrongRegime,
)
from .field import FieldContext, seeded_rng
from .linalg import CHUNK_BYTES, left_inverse_stack

# Channel draws before giving up; exceeding this signals a pathological
# field size or dimensions, not bad luck.
DRAW_BUDGET = 64

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


# ---------------------------------------------------------------------------
# Regime arithmetic


def regime(N: int, L: int) -> str:
    """Classify (N, L) as "full" or "reduced"; WrongRegime if neither."""
    if N < 2:
        raise WrongRegime(f"need at least N=2 files/users, got N={N}")
    if L < 1 or L > N - 1:
        raise WrongRegime(f"antenna count L={L} outside [1, N-1={N - 1}]")
    if L == N - 1:
        return "full"
    q, r = divmod(N - 1, L)
    if q < r:
        raise WrongRegime(
            f"no delivery plan for N={N}, L={L}: {N - 1} users cannot be "
            f"tiled by segments of sizes {L} and {L + 1}"
        )
    return "reduced"


def is_supported(N: int, L: int) -> bool:
    try:
        regime(N, L)
    except WrongRegime:
        return False
    return True


def minifile_count(N: int, L: int) -> int:
    """Minifiles per subfile, m: 1 when L = N-1, else L."""
    return 1 if regime(N, L) == "full" else L


def delivery_time(N: int, L: int) -> Fraction:
    """Scheme delivery time (N-1)/L, in files; 1 when L = N-1."""
    regime(N, L)
    return Fraction(N - 1, L)


def segment_sizes(N: int, L: int) -> list[int]:
    """Sizes tiling the N-1 non-owner users: q-r segments of L, then r of L+1.

    With L = N-1 this is the single segment [L].
    """
    regime(N, L)
    q, r = divmod(N - 1, L)
    return [L] * (q - r) + [L + 1] * r


# ---------------------------------------------------------------------------
# Row plans


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze an array that the cached layout shares across schedules and plans."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RowCodePlan:
    """Complete minifile coding plan for one table row, m minifiles per subfile.

    users: the N-1 non-owners in ascending order.
    groups: (transmissions, L) served users of every transmission, in
    plan order; transmissions = (N-1)*m/L.
    coefficients: (transmissions, L, m) integer vector applied to the
    minifiles of each served user.
    A: m x transmissions matrix with entries in {-1, 0, 1}; row j of A
    applied to the row's receptions yields the sum over users of
    minifile j. A user's decoder is A at the user's transmissions: it
    inverts the user's stacked coefficient vectors. Every plan at one
    (N, L) is a read-only view of schedule_layout(N, L): groups is its
    row's slice of the layout's groups, coefficients and A are the
    layout's.
    """

    owner: int
    users: tuple
    groups: np.ndarray
    coefficients: np.ndarray
    A: np.ndarray

    @property
    def minifiles(self) -> int:
        return self.A.shape[0]


def _telescoping_pattern(L: int):
    """Combination block B, served positions and coefficient vectors of a
    size-(L+1) segment, in segment-local coordinates.

    B is L x (L+1) with unit diagonal and superdiagonal signs s; position
    u of the segment is skipped by transmission miss[u] only. The sign
    and miss layouts for even and odd L are the two orientations that
    make the telescoping sums come out with all-positive totals. u's
    coefficient vectors, one per transmission it hears, are the rows of
    the inverse of Bc, B with column c = miss[u] deleted, so the columns
    of B at u's transmissions decode u. Bc is block diagonal: an upper
    unit-bidiagonal block on rows and columns below c, and a lower
    bidiagonal block with diagonal s on the rest. With prefix products
    Q[j] = prod_{i<j} (-s_i), inverting each block gives the entry for
    transmission k and minifile j as Q[j] Q[k] when k <= j < c,
    -Q[j] Q[k] when c <= j < k, and 0 otherwise: all in {-1, 0, 1}.
    served[t] lists the positions transmission t serves, ascending, and
    coefficients[t, q] is the vector of position served[t, q]. The
    pattern depends on L only, so every row shares it.
    """
    j = np.arange(L)
    u = np.arange(L + 1)
    if L % 2 == 0:
        signs = np.where(j % 2, 1, -1)
        miss = (u + 1) % (L + 1)
    else:
        signs = np.ones(L, dtype=np.int64)
        miss = L - u
    B = np.zeros((L, L + 1), dtype=np.int64)
    B[j, j] = 1
    B[j, j + 1] = signs
    Q = np.concatenate(([1], np.cumprod(-signs)))
    k, jj, c = u[None, :, None], j[None, None, :], miss[:, None, None]
    sign = ((k <= jj) & (jj < c)).astype(np.int64) - ((c <= jj) & (jj < k))
    coeffs = sign * Q[k] * Q[jj]
    served = np.nonzero(miss[None, :] != u[:, None])[1].reshape(L + 1, L)
    return _readonly(B), _readonly(served), _readonly(coeffs[served, u[:, None]])


def build_row_plan(i: int, N: int, L: int) -> RowCodePlan:
    """Row i's coding plan at any supported (N, L): a read-only view of
    schedule_layout(N, L), whose certificate covers every row."""
    layout = schedule_layout(N, L)
    if not 0 <= i < N:
        raise InconsistentInputs(f"row index {i} out of range for N={N}")
    n_tx = layout.transmissions
    return RowCodePlan(
        owner=i,
        users=tuple(range(i)) + tuple(range(i + 1, N)),
        groups=layout.groups[i * n_tx : (i + 1) * n_tx],
        coefficients=layout.coefficients,
        A=layout.A,
    )


def build_row_plan_reduced(i: int, N: int, L: int) -> RowCodePlan:
    """build_row_plan for the reduced regime, L < N-1; WrongRegime otherwise."""
    if regime(N, L) != "reduced":
        raise WrongRegime(f"row plans exist only for L < N-1, got N={N}, L={L}")
    return build_row_plan(i, N, L)


def verify_row_plan(plan: RowCodePlan, N: int, L: int) -> None:
    """Certify a RowCodePlan by exact integer linear algebra.

    With m = minifile_count(N, L), checks: the users are the N-1
    non-owners; (N-1)*m/L transmissions of L distinct users each, with
    one length-m integer coefficient vector per served user; every user
    served exactly m times; A and coefficient entries in {-1, 0, 1}; and,
    user by user, A at the user's transmissions times its stacked
    coefficient vectors equal to I. Those products are A times the
    receptions equal to the per-index minifile sums, and they make each
    user's coefficient system invertible over every prime field, with A
    as its decoder.
    """

    def fail(msg: str):
        raise PlanVerificationError(f"row {plan.owner} plan (N={N}, L={L}): {msg}")

    n1 = N - 1
    m = minifile_count(N, L)
    n_tx = n1 * m // L
    if plan.users != tuple(u for u in range(N) if u != plan.owner):
        fail("user set must be the N-1 non-owners")
    for name, want in (("groups", (n_tx, L)), ("coefficients", (n_tx, L, m)), ("A", (m, n_tx))):
        a = getattr(plan, name)
        if a.shape != want or not np.issubdtype(a.dtype, np.integer):
            fail(f"{name} must be an integer array of shape {want}, got {a.dtype} {a.shape}")
    ordered = np.sort(plan.groups, axis=1)
    bad = (
        (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        | (plan.groups == plan.owner).any(axis=1)
        | (ordered[:, 0] < 0)
        | (ordered[:, -1] >= N)
    )
    if bad.any():
        t = int(np.argmax(bad))
        fail(f"transmission {t} served set invalid: {tuple(plan.groups[t].tolist())}")
    counts = np.bincount(plan.groups.ravel(), minlength=N)[list(plan.users)]
    if (counts != m).any():
        q = int(np.argmax(counts != m))
        fail(f"user {plan.users[q]} served in {counts[q]} transmissions, expected {m}")
    for name in ("A", "coefficients"):
        if np.abs(getattr(plan, name)).max() > 1:
            fail(f"{name} has entries outside {{-1, 0, 1}}")
    # User q's m (transmission, slot) pairs, t ascending, and its stack.
    order, stacked = _position_stacks(plan.groups, plan.coefficients)
    # Entries in {-1, 0, 1} keep every partial sum within m < 2^24, so
    # float32 BLAS computes the integer products exactly.
    columns = plan.A.T.astype(np.float32)[order // L]
    products = np.swapaxes(columns, 1, 2) @ stacked.astype(np.float32)
    wrong = np.flatnonzero((products != np.eye(m)).any(axis=(1, 2)))
    if wrong.size:
        fail(f"A at user {plan.users[wrong[0]]}'s transmissions is not the decoding inverse "
             "of its coefficients")


# ---------------------------------------------------------------------------
# Payload descriptions (1-based, for delivery tables)


def _file_letter(n: int) -> str:
    return _LETTERS[n] if n < len(_LETTERS) else f"F{n + 1}"


def _term(n: int, i: int, j: int, minifile_label: bool) -> str:
    """Minifile j of subfile i of file n, e.g. B1^2, or B1 when unlabelled."""
    base = f"{_file_letter(n)}{i + 1}"
    return f"{base}^{j + 1}" if minifile_label else base


def _terms_to_str(terms) -> str:
    out = []
    for c, body in terms:
        if c == 0:
            continue
        frag = body if abs(c) == 1 else f"{abs(c)}*{body}"
        if not out:
            out.append(frag if c > 0 else f"-{frag}")
        else:
            out.append(f"+{frag}" if c > 0 else f"-{frag}")
    return "".join(out) if out else "0"


# ---------------------------------------------------------------------------
# Blocks and schedules


@dataclass(frozen=True, eq=False)
class TransmitBlock:
    """One beamformed transmission: L x tau signal plus receiver metadata.

    group lists the beam-served users in plan order; gains[q] is the
    scalar h_owner^H w that row owner's channel applies to the zero-forcing
    beam w of group[q] (normalized to unit gain at group[q]). The signal
    carries each beam divided by its gain, so the owner hears the plain
    sum and group[q] hears its combination divided by gains[q].
    """

    signal: np.ndarray
    duration: Fraction
    owner: int
    t: int
    group: tuple
    gains: tuple


@dataclass(frozen=True, eq=False)
class ScheduleLayout:
    """The certified, channel- and demand-free plan of every schedule at (N, L).

    Every row shares one coding pattern: coefficients (transmissions, L,
    m) and A (m, transmissions), as in RowCodePlan; rows differ only in
    their users' labels. Block b = i * transmissions + t is transmission
    t of row i and serves groups[b], and owners[b] = i. Its zero-forcing
    beams come from its parent set, one of the sorted rows of parents:
    the group plus one more channel row. The extra row is the member of
    the group's telescoping segment that the transmission skips, and
    otherwise the smallest user the group does not serve; in the full
    regime that is the row owner, so all N users form the one parent set.
    With the rows of parents stacked, P * (L+1) entries, keep[b] points at
    the group's members and skip[b] at the extra row (``_beam_indices``).
    own, mixes and mixed_slots say how synthesis forms each slot's
    combination (``_slot_combinations``), and taps is A in the form
    decoding reads it (``_taps``). An index that is one of these plus an
    offset, as the owner gains' (``_beams``) and the scales'
    (``channel._scales``) are, is formed where it is read.
    Nothing here is per user: a user's decoder for a row is A with the
    columns of the transmissions that do not serve it zeroed, which its
    scale of 0 in those blocks does at decode time. Nothing here depends
    on the channel or the demand either, so every trial at (N, L) reads
    these arrays instead of building them.
    """

    transmissions: int
    groups: np.ndarray
    coefficients: np.ndarray
    A: np.ndarray
    parents: np.ndarray
    owners: np.ndarray
    keep: np.ndarray
    skip: np.ndarray
    own: np.ndarray
    mixes: np.ndarray
    mixed_slots: np.ndarray
    taps: tuple

    @property
    def minifiles(self) -> int:
        return self.A.shape[0]


def _unique_rows(a: np.ndarray):
    """np.unique(a, axis=0, return_inverse=True) for a 2-D integer array,
    by one lexsort instead of a sort of structured rows."""
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(a), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ordered[new], ids


def _taps(A: np.ndarray) -> tuple:
    """A's nonzero entries as runs (rows, columns, sign): A[j, t] = sign
    for the j in the slice rows and the t in the slice columns, taken in
    step. Every run lies on one diagonal of A and holds one sign.

    The first run is A's main diagonal, all ones: the diagonal of the
    row's first segment, an identity or a bidiagonal B. A jointly served
    segment adds one run, and a telescoping one two or three: its
    diagonal and its superdiagonal signs, alternating for even L. A
    diagonal whose entries of one sign are not evenly spaced is refused.
    """
    j, t = np.nonzero(A)
    sign = A[j, t]
    # Diagonals in order, ones before minus ones on each.
    key = 2 * (t - j) + (sign < 0)
    runs = []
    for k in sorted(set(key.tolist())):
        rows = j[key == k]
        step = int(rows[1] - rows[0]) if len(rows) > 1 else 1
        if not np.array_equal(rows, np.arange(rows[0], rows[-1] + 1, step)):
            raise PlanVerificationError(f"diagonal {k // 2} of A is not a run of one step")
        start, stop, shift = int(rows[0]), int(rows[-1]) + 1, k // 2
        runs.append((slice(start, stop, step), slice(start + shift, stop + shift, step),
                     -1 if k % 2 else 1))
    if runs[0][:2] != (slice(0, len(A), 1),) * 2 or runs[0][2] != 1:
        raise PlanVerificationError("the main diagonal of A is not all ones")
    return tuple(runs)


def _position_stacks(served: np.ndarray, coefficients: np.ndarray):
    """Each position's slots and stacked coefficient vectors, (n, m) and
    (n, m, m) for the n positions a row pattern serves m times each.

    The slots of a position are its flat slots t * L + q, transmissions
    ascending; its stack is its m coefficient vectors there, in that
    order, the matrix that A at those transmissions must invert.
    """
    m = coefficients.shape[-1]
    slots = np.argsort(served.ravel(), kind="stable").reshape(-1, m)
    return slots, coefficients.reshape(-1, m)[slots]


def _slot_combinations(served: np.ndarray, coefficients: np.ndarray) -> dict:
    """How synthesis forms every slot's combination, from a row pattern
    that verify_row_plan has certified.

    Position u's stack K_u (``_position_stacks``) is what the certificate
    checks A against, and the slot of u's i-th transmission carries row
    i of K_u times u's m minifiles. own[t, q] is that i for slot (t, q),
    so a position whose K_u is the identity, as every jointly served
    one's is, carries its own minifile there. Each other position x, in
    ascending order, has its K_u in mixes[x], as int8 since its entries
    are in {-1, 0, 1}, and its slots in mixed_slots[x].
    """
    n_tx, L, m = coefficients.shape
    slots, stacks = _position_stacks(served, coefficients)
    own = np.empty(n_tx * L, dtype=np.int64)
    own[slots] = np.arange(m)
    mixed = np.flatnonzero((stacks != np.eye(m, dtype=np.int64)).any(axis=(1, 2)))
    return {
        "own": _readonly(own.reshape(n_tx, L)),
        "mixes": _readonly(stacks[mixed].astype(np.int8)),
        "mixed_slots": _readonly(slots[mixed]),
    }


# A trial, and each cell of a sweep, asks for one layout many times and
# then moves on, so a few recent layouts serve every caller; keeping every
# one a sweep visits would hold hundreds of MiB by N = 64.
@lru_cache(maxsize=4)
def schedule_layout(N: int, L: int) -> ScheduleLayout:
    """The cached layout of every schedule at a supported (N, L), certified once.

    The shared pattern is built in positions 0..N-2 of a row's users,
    which makes it row N-1's plan, and verify_row_plan certifies that
    plan. Every other row relabels the positions by its ascending users,
    an order-preserving map onto the non-owners, which keeps each
    property the certificate checks.
    """
    m = minifile_count(N, L)
    served, coefficients, blocks, unserved = [], [], [], []
    pos = 0
    for size in segment_sizes(N, L):
        if size == L:
            # Jointly served group: transmission t of the segment sends
            # minifile t of every member, so each member's coefficient
            # system is the identity.
            block = np.eye(m, dtype=np.int64)
            positions = np.broadcast_to(np.arange(L), (m, L))
            coeffs = np.broadcast_to(block[:, None], (m, L, m))
            unserved.append(np.full(m, -1))
        else:
            block, positions, coeffs = _telescoping_pattern(L)
            # The one position of 0..L that each transmission skips.
            unserved.append(pos + L * (L + 1) // 2 - positions.sum(axis=1))
        served.append(pos + positions)
        coefficients.append(coeffs)
        blocks.append(block)
        pos += size
    served, unserved = np.concatenate(served), np.concatenate(unserved)
    coefficients = _readonly(np.concatenate(coefficients))
    A = _readonly(np.concatenate(blocks, axis=1))
    verify_row_plan(RowCodePlan(N - 1, tuple(range(N - 1)), served, coefficients, A), N, L)
    i = np.arange(N)[:, None]
    users = np.arange(N - 1) + (np.arange(N - 1) >= i)  # users[i]: row i's users, ascending
    groups = users[:, served]
    # The row that completes each group (ScheduleLayout). A jointly served
    # group holding user 0 is row i's first L users, so it misses min(i, L).
    smallest = np.where(groups[..., 0] > 0, 0, np.minimum(i, L))
    extra = np.where(unserved >= 0, users[:, unserved], smallest)
    # Groups are ascending, so dropping left_out from a sorted parent gives the group.
    parent_rows = np.concatenate([groups, extra[..., None]], axis=2).reshape(-1, L + 1)
    parents, parent_ids = _unique_rows(np.sort(parent_rows, axis=1))
    left_out = (groups < extra[..., None]).sum(axis=2).ravel()
    return ScheduleLayout(
        transmissions=len(served),
        groups=_readonly(groups.reshape(-1, L)),
        coefficients=coefficients,
        A=A,
        parents=_readonly(parents),
        owners=_readonly(np.arange(len(parent_ids)) // len(served)),
        **{k: _readonly(a) for k, a in _beam_indices(parent_ids, left_out, L).items()},
        **_slot_combinations(served, coefficients),
        taps=_taps(A),
    )


def _beam_indices(parent_ids, left_out, L: int) -> dict:
    """Where ``_beams`` reads each block, as flat indices, one gather each.

    Block b's group is parent set parent_ids[b] without its row at
    position left_out[b], so its members sit at every other position,
    ascending. keep (B, L) and skip (B,) are those positions and
    left_out[b] among the stacked rows of all parent sets, P * (L+1) of
    them.
    """
    positions = np.arange(L) + (np.arange(L) >= left_out[:, None])
    parent = parent_ids * (L + 1)
    return {"keep": parent[:, None] + positions, "skip": parent + left_out}


@dataclass(frozen=True, eq=False)
class DeliverySchedule:
    """Every row's transmissions plus everything a genie receiver may consult.

    signals (B, L, tau) and gains (B, L) stack every block's signal and
    owner gains; block b is transmission b % transmissions of row
    b // transmissions and serves layout.groups[b].
    """

    total_time: Fraction
    cfg: LibraryConfig
    demand: tuple
    channel: ChannelMatrix
    library: Library
    layout: ScheduleLayout
    signals: np.ndarray
    gains: np.ndarray

    @cached_property
    def blocks(self) -> tuple:
        """The B blocks in order, built on first access; signals are views."""
        n_tx = self.layout.transmissions
        duration = Fraction(1, self.cfg.N * self.layout.minifiles)
        groups = self.layout.groups.tolist()
        gains = self.gains.tolist()
        return tuple(
            TransmitBlock(
                signal=signal,
                duration=duration,
                owner=b // n_tx,
                t=b % n_tx,
                group=tuple(groups[b]),
                gains=tuple(gains[b]),
            )
            for b, signal in enumerate(self.signals)
        )


def _as_demand(d, N: int) -> DemandVector:
    dv = d if isinstance(d, DemandVector) else DemandVector(d)
    if len(dv) != N:
        raise InconsistentInputs(f"demand length {len(dv)} != K={N}")
    if any(x >= N for x in dv):
        raise InconsistentInputs(f"demand {tuple(dv)} requests files beyond N={N}")
    return dv


def _beams(H: ChannelMatrix, parents, owners, groups, keep, skip):
    """The factors (columns, shifts) of the zero-forcing beams at unit
    owner gain, and the owner gains (B, L).

    Block b serves groups[b] for row owners[b]. Its group is one of the
    parent sets of channel rows, parents, without the row that skip[b]
    points at, k, and keep[b] points at its members, S
    (``_beam_indices``). Its inverse, whose column q is the beam of
    groups[b, q] (unit gain at it, zero at every other member), is
    G[:, S] - G[:, k] r with r = v[S] / v[k]. It exists when the parent
    set has full column rank and v[k] is nonzero by the field's
    ``null_support``. The gains of the beams at the owner h =
    H[owners[b]] are then g = (hG)[S] - (hG)[k] r, from one product
    H @ G per parent set, and the beams divided by their gains are
    G[:, S] / g - G[:, k] shifts with shifts = r / g, which
    ``_block_beams`` forms from columns, G's columns stacked as a view
    of ``left_inverse_stack``'s G. The owner row
    is the sum of g_q times the channel row of groups[b, q], so the
    gains and -1 form the left null vector of the group plus the owner
    row, and each gain must count as nonzero by ``null_support``, as a
    parent set's null-vector entries do: in complex mode relative to the
    largest of the gains and 1, not only above the absolute floor of
    ``inv_each``. Last, every group inverse must hold by the field's
    ``inverses_hold``, one call over all parent sets, so that
    near-degenerate channels surface.
    """
    field, L = H.field, H.L
    G, v, full_rank = left_inverse_stack(field, H.H[parents])
    exists = (full_rank[:, None] & field.null_support(v)).take(skip)
    if not exists.all():
        bad = tuple(groups[int(np.argmin(exists))].tolist())
        raise DegenerateChannel(f"channel rows of served group {bad} are dependent")
    # v's entry at its own parent row is 1, so max |v| >= 1 and a
    # supported v_k is nonzero by a margin (``inv_nonzero``).
    ratio = field.mul(v.take(keep), field.inv_nonzero(v.take(skip))[:, None])
    hG = field.matmul(H.H, G)
    # keep and skip moved from parent set p's rows to its row of the
    # owner in hG, (P, K, L+1) flattened.
    owner = (skip // (L + 1) * (H.K - 1) + owners) * (L + 1)
    gains = field.reduce(hG.take(keep + owner[:, None]) - hG.take(skip + owner)[:, None] * ratio)
    # The null vector's last entry is the owner's -1, of magnitude 1.
    supported = field.null_support(gains, floor=1.0)
    if not supported.all():
        b, q = np.unravel_index(int(np.argmin(supported)), supported.shape)
        raise DegenerateChannel(
            f"row {owners[b]} channel is orthogonal to user {groups[b, q]}'s beam"
        )
    if not field.inverses_hold(H.H, parents, G, v, skip):
        raise DegenerateChannel("zero-forcing residual above tolerance")
    columns = G.swapaxes(1, 2).reshape(-1, L)
    return columns, field.mul(ratio, field.inv_nonzero(gains)), gains


def _block_beams(field, factors, keep, skip, blocks: slice) -> np.ndarray:
    """The beams (n, L, L) at unit owner gain of the n blocks ``blocks``,
    from ``_beams``' factors and gather indices keep and skip, built as
    (block, q, antenna) rows of G's columns and returned transposed.
    The blocks' gains are inverted here, not kept inverted."""
    columns, shifts, gains = factors
    beams = columns.take(keep[blocks], axis=0) * field.inv_nonzero(gains[blocks])[:, :, None]
    beams -= columns.take(skip[blocks], axis=0)[:, None, :] * shifts[blocks, :, None]
    return field.reduce(beams).swapaxes(1, 2)


def _layout_beams(H: ChannelMatrix):
    """_beams over every block of H's schedule layout, memoized by the
    channel, so the draw that accepts H and the schedule built
    on it share one computation."""

    def compute():
        layout = schedule_layout(H.K, H.L)
        return _beams(H, layout.parents, layout.owners, layout.groups, layout.keep, layout.skip)

    return H.cached("layout_beams", compute)


def draw_channel(N: int, L: int, seed: int, field: FieldContext) -> ChannelMatrix:
    """Seeded N x L channel draw, rejected until the schedule can use it.

    A draw is accepted when the beams over schedule_layout(N, L) exist
    for every served group, each with a nonzero owner gain (``_beams``).
    An unsupported (N, L) raises WrongRegime before any draw, and
    DRAW_BUDGET rejected draws raise ResamplingExhausted. The channel
    keeps the beams' factors, so build_schedule on it eliminates no
    parent set again.
    """
    schedule_layout(N, L)  # refuses an unsupported (N, L) before any draw
    rng = seeded_rng(seed)
    for _ in range(DRAW_BUDGET):
        H = ChannelMatrix(field, field.sample_channel(rng, (N, L)))
        try:
            _layout_beams(H)
        except DegenerateChannel:
            continue
        return H
    raise ResamplingExhausted(
        f"no {N}x{L} channel found in {DRAW_BUDGET} draws over {field!r} that serves "
        "every group of the schedule"
    )


def _payload(field, factors, layout: ScheduleLayout, P, d: np.ndarray, rows: range, out):
    """Signals (n, L, tau) of the n transmissions of table rows ``rows``,
    written into ``out``, from their beams (``_block_beams``).

    Signal s is beams[s] @ C[s], where row q of C[s] is the combination
    that the plan sends served user u = groups[s, q], of the minifiles
    P[d[u], i] of its subfile in row i. C comes from the layout's
    per-position matrices (``_slot_combinations``): one gather of every
    slot's own minifile, which is its combination where the position's
    matrix is the identity, and for the other positions one product of
    each matrix with the user's m minifiles, scattered into their slots.
    Entries stay below p in magnitude, which ``field.matmul`` takes.
    """
    n_tx, L = layout.transmissions, layout.groups.shape[1]
    owners = np.asarray(rows)
    blocks = slice(rows.start * n_tx, rows.stop * n_tx)
    files = d[layout.groups[blocks]].reshape(len(owners), -1)
    C = P[files.reshape(-1, n_tx, L), owners[:, None, None], layout.own]
    if len(layout.mixes):
        mixed = P[files[:, layout.mixed_slots[:, 0]], owners[:, None]]
        C.reshape(len(owners), n_tx * L, -1)[:, layout.mixed_slots] = field.matmul(
            layout.mixes, mixed
        )
    beams = _block_beams(field, factors, layout.keep, layout.skip, blocks)
    return field.matmul(beams, C.reshape(-1, L, C.shape[-1]), out=out)


def build_schedule(d, H, library: Library, cfg: LibraryConfig) -> DeliverySchedule:
    """Full delivery schedule: every row's transmissions in order, T = (N-1)/L.

    The beams' factors and the owner gains come from the channel's
    parent sets (``_beams``), once per channel. Rows are synthesized in
    blocks, each in one batched pass (``_payload``: one gather, one
    product for the telescoping positions if there are any, the block's
    beams and one beam product) written into one (B, L, tau) signal
    stack. A block holds as many rows as keep its beams, combinations,
    telescoping products and signals within CHUNK_BYTES, and at least
    one. No block object is built until ``blocks`` is read.
    """
    field = library.field
    H = _as_channel(H, field)
    if H.field != field:
        raise InconsistentInputs("channel and library use different field contexts")
    if library.N != cfg.N or library.F != cfg.F:
        raise InconsistentInputs(
            f"library shape {library.data.shape} does not match config N={cfg.N}, F={cfg.F}"
        )
    if H.K != cfg.K or H.L != cfg.L:
        raise InconsistentInputs(
            f"channel shape {H.H.shape} does not match config K={cfg.K}, L={cfg.L}"
        )
    d = _as_demand(d, cfg.N)
    layout = schedule_layout(cfg.N, cfg.L)
    n_tx, m = layout.transmissions, layout.minifiles
    factors = _layout_beams(H)
    P = library.parts(m)
    demand = np.array(d.d)
    tau = P.shape[-1]
    signals = np.empty((cfg.N * n_tx, cfg.L, tau), dtype=field.dtype)
    mixing = 2 * len(layout.mixes) * m * tau
    row_bytes = (n_tx * cfg.L * (cfg.L + 2 * tau) + mixing) * signals.itemsize
    height = max(1, CHUNK_BYTES // row_bytes)
    for r in range(0, cfg.N, height):
        rows = range(r, min(r + height, cfg.N))
        _payload(field, factors, layout, P, demand, rows, signals[r * n_tx : rows.stop * n_tx])
    total = Fraction(len(signals), cfg.N * m)
    expected = delivery_time(cfg.N, cfg.L)
    if total != expected:
        raise InconsistentInputs(f"schedule time {total} != expected {expected}")
    return DeliverySchedule(
        total_time=total,
        cfg=cfg,
        demand=tuple(d),
        channel=H,
        library=library,
        layout=layout,
        signals=signals,
        gains=factors[-1],
    )


def render_delivery_table(cfg: LibraryConfig, demand) -> str:
    """Deterministic text table: per row and transmission, who decodes what.

    Channel-independent: cells show the payload each user decodes, which
    the beamforming guarantees regardless of the drawn coefficients.
    """
    N, L = cfg.N, cfg.L
    d = _as_demand(demand, N)
    minifile_label = regime(N, L) == "reduced"
    shown = ",".join(str(x + 1) for x in d)
    lines = [f"N={N} K={cfg.K} L={L} demand=({shown}) T={delivery_time(N, L)}"]
    for i in range(N):
        lines.append(f"row {i + 1} (owner user {i + 1})")
        plan = build_row_plan(i, N, L)
        dur = Fraction(1, N * plan.minifiles)
        for t, (group, coeffs) in enumerate(zip(plan.groups.tolist(), plan.coefficients.tolist())):
            cells = []
            owner_terms = []
            for u, vec in zip(group, coeffs):
                terms = [(c, _term(d[u], i, j, minifile_label)) for j, c in enumerate(vec)]
                cells.append(f"user {u + 1} <- {_terms_to_str(terms)}")
                owner_terms.extend(terms)
            cells.append(f"user {i + 1}* <- {_terms_to_str(owner_terms)}")
            lines.append(f"  t {t + 1} dur {dur} :: " + " | ".join(cells))
    return "\n".join(lines) + "\n"
