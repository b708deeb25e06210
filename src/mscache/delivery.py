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
Every plan is verified by exact integer linear algebra before use,
including that product equal to I; a verification failure is a hard
error, never a fallback. Plan arrays are read-only: reduced plans are
cached per row, and the index layout of both regimes per (N, L).

Zero-forcing beams come from a beam bank over parent sets of L+1
channel rows: all N users in the full regime, each telescoping segment,
and each jointly served segment of L users completed by a zero row.
One batched elimination gives every parent set a left inverse G and a
left null vector v. The inverse for the group that leaves out parent
row k is G without column k minus the rank-one term G[:, k] v / v_k
there, and the beam of served user q is its column q. Beams, owner
gains (one product and one element-wise inverse) and the beams scaled
to unit owner gain are computed for every block in one pass. Each row's
payload then passes through one batched product M @ P, with the plan's
coefficients folded into the beams, written into the schedule's
(B, L, tau) signal stack. The owner gains, kept as one (B, L) stack,
let receivers descale their receptions. Block objects, each a view
into these stacks, are built only when a caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .channel import ChannelMatrix
from .content import DemandVector, Library, LibraryConfig
from .errors import (
    DegenerateChannel,
    InconsistentInputs,
    PlanVerificationError,
    WrongRegime,
)
from .linalg import left_inverse_stack

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
    """Freeze an array that cached plans or layouts share across schedules."""
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
    inverts the user's stacked coefficient vectors. Built plans at one
    (N, L) share their coefficients and A.
    """

    owner: int
    users: tuple
    groups: np.ndarray
    coefficients: np.ndarray
    A: np.ndarray

    @property
    def minifiles(self) -> int:
        return self.A.shape[0]


@lru_cache(maxsize=None)
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
    """Deterministic verified coding plan for row i at any supported (N, L).

    Reduced plans are cached; schedule_layout caches the plans of both
    regimes. Cached plans are shared, so every plan's arrays are read-only.
    """
    if regime(N, L) == "reduced":
        return build_row_plan_reduced(i, N, L)
    return _build_row_plan(i, N, L)


@lru_cache(maxsize=None)
def build_row_plan_reduced(i: int, N: int, L: int) -> RowCodePlan:
    """Deterministic verified coding plan for row i at (N, L), L < N-1."""
    if regime(N, L) != "reduced":
        raise WrongRegime(f"row plans exist only for L < N-1, got N={N}, L={L}")
    return _build_row_plan(i, N, L)


@lru_cache(maxsize=None)
def _row_pattern(N: int, L: int):
    """Served positions (into a row's users), coefficients and A of every
    row at (N, L): rows differ only in the labels of their users. Also,
    per transmission, the position of the segment member it does not
    serve, or -1 when it serves its whole segment."""
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
    return (
        _readonly(np.concatenate(served)),
        _readonly(np.concatenate(coefficients)),
        _readonly(np.concatenate(blocks, axis=1)),
        _readonly(np.concatenate(unserved)),
    )


def _build_row_plan(i: int, N: int, L: int) -> RowCodePlan:
    if not 0 <= i < N:
        raise InconsistentInputs(f"row index {i} out of range for N={N}")
    users = np.delete(np.arange(N), i)
    served, coefficients, A, _ = _row_pattern(N, L)
    plan = RowCodePlan(
        owner=i,
        users=tuple(users.tolist()),
        groups=_readonly(users[served]),
        coefficients=coefficients,
        A=A,
    )
    verify_row_plan(plan, N, L)
    return plan


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
    # Stable sort by user: user q's m (transmission, slot) pairs, t ascending.
    order = np.argsort(plan.groups.ravel(), kind="stable").reshape(n1, m)
    # Entries in {-1, 0, 1} keep every partial sum within m < 2^24, so
    # float32 BLAS computes the integer products exactly.
    stacked = plan.coefficients.reshape(n_tx * L, m).astype(np.float32)[order]
    columns = plan.A.T.astype(np.float32)[order // L]
    products = np.swapaxes(columns, 1, 2) @ stacked
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
    """Channel- and demand-free index arrays of every schedule at (N, L).

    Block b = i * transmissions + t is transmission t of row i and serves
    groups[b]. Its zero-forcing beams come from its parent set: the
    group plus one more row of the channel extended by a zero row N,
    parents[parent_ids[b]] with that row at position left_out[b]. The
    extra row is the member of the group's telescoping segment that the
    transmission skips; in the full regime it is the row owner, so that
    all N users form the one parent set; otherwise it is the zero row.
    Nothing here is per user: a user's decoder for a row is the shared A
    with the columns of the transmissions that do not serve it zeroed,
    read off groups at decode time.
    """

    plans: tuple
    transmissions: int
    groups: np.ndarray
    parents: np.ndarray
    parent_ids: np.ndarray
    left_out: np.ndarray

    @property
    def minifiles(self) -> int:
        return self.plans[0].minifiles


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


@lru_cache(maxsize=None)
def schedule_layout(N: int, L: int) -> ScheduleLayout:
    """The cached layout of every schedule at a supported (N, L)."""
    plans = tuple(build_row_plan(i, N, L) for i in range(N))
    groups = np.stack([plan.groups for plan in plans])
    i = np.arange(N)[:, None]
    users = np.arange(N - 1) + (np.arange(N - 1) >= i)  # users[i]: row i's users, ascending
    # The row that completes each group to its parent set.
    unserved = _row_pattern(N, L)[3]
    extra = np.where(unserved >= 0, users[:, unserved], i if regime(N, L) == "full" else N)
    # Groups are ascending, so dropping left_out from a sorted parent gives the group.
    parent_rows = np.concatenate([groups, extra[..., None]], axis=2).reshape(-1, L + 1)
    parents, parent_ids = _unique_rows(np.sort(parent_rows, axis=1))
    left_out = (groups < extra[..., None]).sum(axis=2)
    return ScheduleLayout(
        plans=plans,
        transmissions=groups.shape[1],
        groups=_readonly(groups.reshape(-1, L)),
        parents=_readonly(parents),
        parent_ids=_readonly(parent_ids),
        left_out=_readonly(left_out.ravel()),
    )


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

    @property
    def plans(self) -> dict:
        """Row index -> row plan."""
        return dict(enumerate(self.layout.plans))

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

    @property
    def rows(self) -> tuple:
        """Per row, the range of its block indices."""
        n_tx = self.layout.transmissions
        return tuple(range(i * n_tx, (i + 1) * n_tx) for i in range(self.cfg.N))


def _as_channel(H, field) -> ChannelMatrix:
    if isinstance(H, ChannelMatrix):
        return H
    return ChannelMatrix(field, H)


def _as_demand(d, N: int) -> DemandVector:
    dv = d if isinstance(d, DemandVector) else DemandVector(d)
    if len(dv) != N:
        raise InconsistentInputs(f"demand length {len(dv)} != K={N}")
    if any(x >= N for x in dv):
        raise InconsistentInputs(f"demand {tuple(dv)} requests files beyond N={N}")
    return dv


def _beam_bank(H: ChannelMatrix, parents, parent_ids, left_out):
    """Inverses (B, L, L) of the channel rows of B groups, and which exist.

    Group b is parent set parents[parent_ids[b]] without the row at
    position left_out[b], where row K is a zero row. One
    left_inverse_stack pass gives every parent set its G and v; the
    group's inverse is then the rank-one update G[:, S] - G[:, k] v[S] / v[k],
    with k = left_out[b] and S the other positions, and it exists when
    the parent set has full column rank and v[k] is nonzero by the
    field's ``null_support``. Column q of an inverse is the zero-forcing
    beam of the group's q-th user: unit gain at it, zero at every other
    member.
    """
    field = H.field
    L = H.L
    extended = np.concatenate([H.H, field.zeros((1, L))])
    G, v, full_rank = left_inverse_stack(field, extended[parents])
    exists = (full_rank[:, None] & field.null_support(v))[parent_ids, left_out]
    keep = np.arange(L) + (np.arange(L) >= left_out[:, None])
    vk = np.where(exists, v[parent_ids, left_out], field.coeff(1))
    ratio = field.mul(v[parent_ids[:, None], keep], field.inv_each(vk)[:, None])
    rank_one = field.mul(G[parent_ids, :, left_out][:, :, None], ratio[:, None, :])
    kept = G[parent_ids[:, None, None], np.arange(L)[:, None], keep[:, None]]
    inverses = field.sub(kept, rank_one)
    return inverses, exists


def _beams(H: ChannelMatrix, parents, parent_ids, left_out, owners, groups):
    """Zero-forcing beams (B, L, L) at unit owner gain, and the owner gains (B, L).

    Block b serves groups[b] for row owners[b], with its inverse from
    the beam bank. The gain of a beam at the owner is H[owner] @ beam;
    the returned beams are divided by their gains.
    """
    field = H.field
    inverses, exists = _beam_bank(H, parents, parent_ids, left_out)
    if not exists.all():
        bad = tuple(groups[int(np.argmin(exists))].tolist())
        raise DegenerateChannel(f"channel rows of served group {bad} are dependent")
    eye = field.convert(np.eye(H.L, dtype=np.int64))
    if not field.satisfies(H.H[groups], inverses, eye):
        raise DegenerateChannel("zero-forcing residual above tolerance")
    gains = field.matmul(H.H[owners][:, None, :], inverses)[:, 0]
    try:
        beams = field.mul(inverses, field.inv_each(gains)[:, None, :])
    except ZeroDivisionError:
        b, q = np.unravel_index(int(np.argmin(np.abs(gains))), gains.shape)
        raise DegenerateChannel(
            f"row {owners[b]} channel is orthogonal to user {groups[b, q]}'s beam"
        ) from None
    return beams, gains


def _payload(field, beams, coeffs, P, d: np.ndarray, groups, i: int, out=None):
    """Signals (n, L, tau) of n transmissions of row i from their beams.

    Signal s is beams[s] @ C[s], where row q of C[s] is served user
    u = groups[s, q]'s planned combination coeffs[s, q] of the minifiles
    P[d[u], i] of subfile (d[u], i). The combination is folded into the
    beams on the small side, M[s][:, q*m + j] = beams[s][:, q] * coeff_j,
    so the payload passes through one product M @ P over the gathered
    minifiles, written into ``out`` when it is given.
    """
    n, L, m = coeffs.shape
    M = field.mul(beams[:, :, :, None], coeffs[:, None]).reshape(n, L, L * m)
    # One gather of the row's minifiles, stacked (L*m, tau) per transmission.
    return field.matmul(M, P[d[groups], i].reshape(n, L * m, -1), out=out)


def build_schedule(d, H, library: Library, cfg: LibraryConfig) -> DeliverySchedule:
    """Full delivery schedule: every row's transmissions in order, T = (N-1)/L.

    Each row is synthesized in one batched pass, written into one
    (B, L, tau) signal stack; no block object is built until
    ``blocks`` is read.
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
    owners = np.arange(cfg.N * n_tx) // n_tx
    beams, gains = _beams(
        H, layout.parents, layout.parent_ids, layout.left_out, owners, layout.groups
    )
    P = library.parts(m)
    demand = np.array(d.d)
    # Every row's plan shares one coefficient array.
    coeffs = field.convert(layout.plans[0].coefficients)
    signals = np.empty((cfg.N * n_tx, cfg.L, P.shape[-1]), dtype=field.dtype)
    for i, plan in enumerate(layout.plans):
        rows = slice(i * n_tx, (i + 1) * n_tx)
        _payload(field, beams[rows], coeffs, P, demand, plan.groups, i, out=signals[rows])
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
        gains=gains,
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
