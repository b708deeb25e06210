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
the table's term labels know which regime is running. Every plan is
re-verified by exact integer linear algebra before use; a verification
failure is a hard error, never a fallback.

Zero-forcing beams come from a beam bank: the schedule collects the
distinct served groups of all row plans and inverts their channel rows
in one batched pass, and a block reads the beam of served user q as
column q of its group's inverse. Each block carries the gain its owner
sees on every served user's beam, which receivers use to descale their
receptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .channel import ChannelMatrix
from .content import DemandVector, Library, LibraryConfig
from .errors import (
    DegenerateChannel,
    DimensionMismatch,
    InconsistentInputs,
    PlanVerificationError,
    WrongRegime,
)
from .linalg import inverse_stack

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
# Exact integer helpers (plan-time only; L <= 8 here)


def _exact_int_det(rows) -> int:
    n = len(rows)
    m = [[Fraction(int(x)) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return int(det)


def _exact_int_inverse(rows) -> list[list[int]]:
    n = len(rows)
    aug = [
        [Fraction(int(x)) for x in row] + [Fraction(int(r == c)) for c in range(n)]
        for r, row in enumerate(rows)
    ]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            raise PlanVerificationError("segment coefficient matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        scale = aug[c][c]
        aug[c] = [x / scale for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    out = []
    for r in range(n):
        row = aug[r][n:]
        if any(x.denominator != 1 for x in row):
            raise PlanVerificationError("segment inverse is not integral")
        out.append([int(x) for x in row])
    return out


# ---------------------------------------------------------------------------
# Row plans


@dataclass(frozen=True, eq=False)
class Transmission:
    """One transmission of a row: served users and their minifile combinations."""

    served: tuple
    coeffs: dict


@dataclass(frozen=True, eq=False)
class RowCodePlan:
    """Complete minifile coding plan for one table row, m minifiles per subfile.

    transmissions: the (N-1)*m/L transmissions in order; coeffs[u] is
    the length-m integer vector applied to user u's minifiles.
    A: m x (N-1)*m/L matrix with entries in {-1, 0, 1}; row j of A
    applied to the row's receptions yields the sum over users of
    minifile j.
    serving: per user, the m transmission indices that serve it.
    """

    owner: int
    users: tuple
    transmissions: tuple
    A: np.ndarray
    serving: dict

    @property
    def minifiles(self) -> int:
        return self.A.shape[0]


def _telescoping_pattern(L: int):
    """Bidiagonal combination block B and the served/missed bijection.

    B has unit diagonal and a +/-1 superdiagonal; any column-deleted
    square submatrix is unimodular, so its inverse provides integer
    coefficient vectors. miss[u] is the one transmission (of L+1) that
    skips segment position u. The sign and miss layouts for even and
    odd L are the two orientations that make the telescoping sums come
    out with all-positive totals.
    """
    if L % 2 == 0:
        signs = [1 if j % 2 else -1 for j in range(L)]
        miss = [(u + 1) % (L + 1) for u in range(L + 1)]
    else:
        signs = [1] * L
        miss = [L - u for u in range(L + 1)]
    B = [[0] * (L + 1) for _ in range(L)]
    for j in range(L):
        B[j][j] = 1
        B[j][j + 1] = signs[j]
    return B, miss


def build_row_plan(i: int, N: int, L: int) -> RowCodePlan:
    """Deterministic verified coding plan for row i at any supported (N, L)."""
    if regime(N, L) == "reduced":
        return build_row_plan_reduced(i, N, L)
    return _build_row_plan(i, N, L)


@lru_cache(maxsize=None)
def build_row_plan_reduced(i: int, N: int, L: int) -> RowCodePlan:
    """Deterministic verified coding plan for row i at (N, L), L < N-1."""
    if regime(N, L) != "reduced":
        raise WrongRegime(f"row plans exist only for L < N-1, got N={N}, L={L}")
    return _build_row_plan(i, N, L)


def _build_row_plan(i: int, N: int, L: int) -> RowCodePlan:
    if not 0 <= i < N:
        raise InconsistentInputs(f"row index {i} out of range for N={N}")
    m = minifile_count(N, L)
    users = [u for u in range(N) if u != i]
    transmissions = []
    A = np.zeros((m, (N - 1) * m // L), dtype=np.int64)
    serving = {u: [] for u in users}
    pos = 0
    col = 0
    for size in segment_sizes(N, L):
        seg = users[pos : pos + size]
        if size == L:
            # Jointly served group: transmission t of the segment sends
            # minifile t of every member, so each member's coefficient
            # system is the identity.
            for t_local in range(m):
                t = col + t_local
                unit = tuple(int(j == t_local) for j in range(m))
                coeffs = {u: unit for u in seg}
                for u in seg:
                    serving[u].append(t)
                transmissions.append(Transmission(tuple(seg), coeffs))
                A[t_local, t] = 1
            col += m
        else:
            B, miss = _telescoping_pattern(L)
            rows_of = {}
            kept_of = {}
            for idx in range(size):
                kept = [c for c in range(size) if c != miss[idx]]
                Bu = [[B[r][c] for c in kept] for r in range(L)]
                rows_of[idx] = _exact_int_inverse(Bu)
                kept_of[idx] = kept
            for t_local in range(size):
                t = col + t_local
                served = []
                coeffs = {}
                for idx, u in enumerate(seg):
                    if miss[idx] == t_local:
                        continue
                    served.append(u)
                    r = kept_of[idx].index(t_local)
                    coeffs[u] = tuple(rows_of[idx][r])
                    serving[u].append(t)
                transmissions.append(Transmission(tuple(served), coeffs))
                for j in range(L):
                    A[j, t] = B[j][t_local]
            col += size
        pos += size
    plan = RowCodePlan(
        owner=i,
        users=tuple(users),
        transmissions=tuple(transmissions),
        A=A,
        serving={u: tuple(ts) for u, ts in serving.items()},
    )
    verify_row_plan(plan, N, L)
    return plan


def verify_row_plan(plan: RowCodePlan, N: int, L: int) -> None:
    """Certify a RowCodePlan by exact integer linear algebra.

    With m = minifile_count(N, L), checks: (N-1)*m/L transmissions of
    exactly L served users; every user served exactly m times with an
    invertible stacked coefficient system; A entries in {-1,0,1}; and A
    times the stacked reception functionals equals the per-index
    minifile-sum functionals.
    """

    def fail(msg: str):
        raise PlanVerificationError(f"row {plan.owner} plan (N={N}, L={L}): {msg}")

    n1 = N - 1
    m = minifile_count(N, L)
    n_tx = n1 * m // L
    if len(plan.users) != n1 or plan.owner in plan.users:
        fail("user set must be the N-1 non-owners")
    if len(plan.transmissions) != n_tx:
        fail(f"{len(plan.transmissions)} transmissions, expected {n_tx}")
    for t, tx in enumerate(plan.transmissions):
        if len(tx.served) != L:
            fail(f"transmission {t} serves {len(tx.served)} users, expected {L}")
        if len(set(tx.served)) != L or any(u not in plan.users for u in tx.served):
            fail(f"transmission {t} served set invalid: {tx.served}")
        for u in tx.served:
            if len(tx.coeffs[u]) != m:
                fail(f"coefficient vector of user {u} in transmission {t} not length {m}")
    for u in plan.users:
        ts = plan.serving[u]
        if len(ts) != m:
            fail(f"user {u} served in {len(ts)} transmissions, expected {m}")
        stacked = [plan.transmissions[t].coeffs[u] for t in ts]
        if _exact_int_det(stacked) == 0:
            fail(f"user {u} has a singular stacked coefficient system")
    if plan.A.shape != (m, n_tx):
        fail(f"A has shape {plan.A.shape}, expected {(m, n_tx)}")
    if not np.all(np.isin(plan.A, (-1, 0, 1))):
        fail("A has entries outside {-1, 0, 1}")
    index = {u: q for q, u in enumerate(plan.users)}
    R = np.zeros((n_tx, n1 * m), dtype=np.int64)
    for t, tx in enumerate(plan.transmissions):
        for u in tx.served:
            base = index[u] * m
            R[t, base : base + m] = tx.coeffs[u]
    S = np.zeros((m, n1 * m), dtype=np.int64)
    for j in range(m):
        for q in range(n1):
            S[j, q * m + j] = 1
    if not np.array_equal(plan.A @ R, S):
        fail("A-combined receptions do not equal the minifile sums")


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
class DeliverySchedule:
    """Ordered blocks plus everything a genie receiver may consult."""

    blocks: tuple
    total_time: Fraction
    cfg: LibraryConfig
    demand: tuple
    channel: ChannelMatrix
    library: Library
    plans: dict
    rows: tuple


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


def _beam_bank(H: ChannelMatrix, groups) -> dict:
    """inv(H[group]) for each distinct served group, from one inverse_stack call.

    Column q of a group's inverse is the zero-forcing beam of group[q]:
    unit gain at group[q], zero at every other member.
    """
    field = H.field
    groups = list(dict.fromkeys(tuple(g) for g in groups))
    stack = H.H[np.array(groups)]
    inverses, nonsingular = inverse_stack(field, stack)
    if not nonsingular.all():
        bad = groups[int(np.argmin(nonsingular))]
        raise DegenerateChannel(f"channel rows of served group {bad} are dependent")
    eye = field.convert(np.eye(stack.shape[1], dtype=np.int64))
    if not field.satisfies(stack, inverses, eye):
        raise DegenerateChannel("zero-forcing residual above tolerance")
    return dict(zip(groups, inverses))


def build_block(
    plan: RowCodePlan, t: int, d, H, library: Library, inverse=None
) -> TransmitBlock:
    """Transmission t of a verified row plan, beamformed over channel H.

    The signal is W @ C: column q of W is the zero-forcing beam of served
    user u = group[q], scaled to unit gain at the row owner, and row q of
    C is u's planned combination of the minifiles of subfile (d[u], owner).
    ``inverse`` is inv(H[group]), as build_schedule's beam bank supplies
    it; when omitted it is computed for this one group.
    """
    field = library.field
    N = library.N
    H = _as_channel(H, field)
    if H.K != N:
        raise InconsistentInputs(f"channel has {H.K} users, library has {N} files")
    if len(plan.users) != N - 1 or not 0 <= plan.owner < N:
        raise InconsistentInputs(f"plan for row {plan.owner} does not fit N={N} files")
    if not 0 <= t < len(plan.transmissions):
        raise InconsistentInputs(f"transmission index {t} out of range")
    d = _as_demand(d, N)
    tx = plan.transmissions[t]
    if len(tx.served) != H.L:
        raise DimensionMismatch(
            f"transmission serves {len(tx.served)} users, channel has L={H.L} antennas"
        )
    i = plan.owner
    if inverse is None:
        inverse = _beam_bank(H, [tx.served])[tx.served]
    gains = field.matmul(H.H[i], inverse)
    try:
        W = field.mul(inverse, field.inv_each(gains))
    except ZeroDivisionError:
        u = tx.served[int(np.argmin(np.abs(gains)))]
        raise DegenerateChannel(f"row {i} channel is orthogonal to user {u}'s beam") from None
    P = library.parts(plan.minifiles)
    # Basic indexing: P[d[u], i] is a view, not a copy of the library.
    combos = [field.matmul(field.convert(tx.coeffs[u]), P[d[u], i]) for u in tx.served]
    return TransmitBlock(
        signal=field.matmul(W, np.stack(combos)),
        duration=Fraction(1, N * plan.minifiles),
        owner=i,
        t=t,
        group=tuple(tx.served),
        gains=tuple(gains),
    )


def build_schedule(d, H, library: Library, cfg: LibraryConfig) -> DeliverySchedule:
    """Full delivery schedule: every row's transmissions in order, T = (N-1)/L."""
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
    plans = {i: build_row_plan(i, cfg.N, cfg.L) for i in range(cfg.N)}
    bank = _beam_bank(H, (tx.served for plan in plans.values() for tx in plan.transmissions))
    blocks: list[TransmitBlock] = []
    rows = []
    for plan in plans.values():
        rows.append(tuple(range(len(blocks), len(blocks) + len(plan.transmissions))))
        blocks.extend(
            build_block(plan, t, d, H, library, bank[tx.served])
            for t, tx in enumerate(plan.transmissions)
        )
    total = sum((b.duration for b in blocks), Fraction(0))
    expected = delivery_time(cfg.N, cfg.L)
    if total != expected:
        raise InconsistentInputs(f"schedule time {total} != expected {expected}")
    return DeliverySchedule(
        blocks=tuple(blocks),
        total_time=total,
        cfg=cfg,
        demand=tuple(d),
        channel=H,
        library=library,
        plans=plans,
        rows=tuple(rows),
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
        for t, tx in enumerate(plan.transmissions):
            cells = []
            owner_terms = []
            for u in tx.served:
                terms = [
                    (c, _term(d[u], i, j, minifile_label)) for j, c in enumerate(tx.coeffs[u])
                ]
                cells.append(f"user {u + 1} <- {_terms_to_str(terms)}")
                owner_terms.extend(terms)
            cells.append(f"user {i + 1}* <- {_terms_to_str(owner_terms)}")
            lines.append(f"  t {t + 1} dur {dur} :: " + " | ".join(cells))
    return "\n".join(lines) + "\n"
