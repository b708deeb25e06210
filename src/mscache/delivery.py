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
the table's term labels know which regime is running. Each plan also
carries, per user, the exact integer inverse of that user's stacked
coefficient system (the column-deleted bidiagonal for a telescoping
user, the identity otherwise), so decoding needs no elimination. Every
plan is verified by exact integer linear algebra before use, including
inverse times coefficients equal to I; a verification failure is a hard
error, never a fallback. Plan arrays are read-only: reduced plans are
cached per row, and the index layout of both regimes per (N, L).

Zero-forcing beams come from a beam bank: the schedule inverts the
channel rows of the distinct served groups of all row plans in one
batched pass, and the beam of served user q is column q of its group's
inverse. Each row is then synthesized at once: one product for the
owner gains of all its beams, one element-wise inverse, and one batched
payload product M @ P, with the plan's coefficients folded into the
beams, written into the schedule's (B, L, tau) signal stack, of which
each block's signal is a view. The owner gains, kept per block, let
receivers descale their receptions.
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
# Exact integer helpers (plan-time only)


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


def _readonly(a: np.ndarray) -> np.ndarray:
    """Freeze an array that cached plans or layouts share across schedules."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class RowCodePlan:
    """Complete minifile coding plan for one table row, m minifiles per subfile.

    transmissions: the (N-1)*m/L transmissions in order; coeffs[u] is
    the length-m integer vector applied to user u's minifiles.
    A: m x (N-1)*m/L matrix with entries in {-1, 0, 1}; row j of A
    applied to the row's receptions yields the sum over users of
    minifile j.
    serving: per user, the m transmission indices that serve it.
    inverses: (N-1, m, m) integer matrices; inverses[q] inverts the
    stacked coefficient system of users[q] (its coeffs in the
    transmissions serving[users[q]], one per row).
    """

    owner: int
    users: tuple
    transmissions: tuple
    A: np.ndarray
    serving: dict
    inverses: np.ndarray | None = None

    @property
    def minifiles(self) -> int:
        return self.A.shape[0]

    @cached_property
    def groups(self) -> np.ndarray:
        """(transmissions, L) served users of every transmission, in plan order."""
        served = [tx.served for tx in self.transmissions]
        return _readonly(np.array(served, dtype=np.int64))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """(transmissions, L, m) coefficient vector of every served user."""
        coeffs = [[tx.coeffs[u] for u in tx.served] for tx in self.transmissions]
        return _readonly(np.array(coeffs, dtype=np.int64))


@lru_cache(maxsize=None)
def _telescoping_pattern(L: int):
    """Bidiagonal combination block B, the served/missed bijection, and
    each segment position's coefficient rows and decoding inverse.

    B has unit diagonal and a +/-1 superdiagonal; any column-deleted
    square submatrix is unimodular, so its inverse provides integer
    coefficient vectors. miss[u] is the one transmission (of L+1) that
    skips segment position u. The sign and miss layouts for even and
    odd L are the two orientations that make the telescoping sums come
    out with all-positive totals. Position u is served by the
    transmissions kept[u]; Bu[u] is B with column miss[u] deleted and
    rows[u] = inv(Bu[u]) stacks u's coefficient vectors, one per kept
    transmission. The pattern depends on L only, so every row shares it.
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
    kept = [[c for c in range(L + 1) if c != miss[u]] for u in range(L + 1)]
    Bu = [[[B[r][c] for c in cols] for r in range(L)] for cols in kept]
    rows = [_exact_int_inverse(b) for b in Bu]
    return B, miss, kept, Bu, rows


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


def _build_row_plan(i: int, N: int, L: int) -> RowCodePlan:
    if not 0 <= i < N:
        raise InconsistentInputs(f"row index {i} out of range for N={N}")
    m = minifile_count(N, L)
    users = [u for u in range(N) if u != i]
    transmissions = []
    A = np.zeros((m, (N - 1) * m // L), dtype=np.int64)
    serving = {u: [] for u in users}
    # Jointly served users see the identity system; a telescoping
    # user's coefficients are inv(Bu), so Bu is its decoding inverse.
    inverses = np.tile(np.eye(m, dtype=np.int64), (N - 1, 1, 1))
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
            B, miss, kept, Bu, rows = _telescoping_pattern(L)
            inverses[pos : pos + size] = Bu
            for t_local in range(size):
                t = col + t_local
                served = []
                coeffs = {}
                for idx, u in enumerate(seg):
                    if miss[idx] == t_local:
                        continue
                    served.append(u)
                    coeffs[u] = tuple(rows[idx][kept[idx].index(t_local)])
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
        A=_readonly(A),
        serving={u: tuple(ts) for u, ts in serving.items()},
        inverses=_readonly(inverses),
    )
    verify_row_plan(plan, N, L)
    return plan


def verify_row_plan(plan: RowCodePlan, N: int, L: int) -> None:
    """Certify a RowCodePlan by exact integer linear algebra.

    With m = minifile_count(N, L), checks: (N-1)*m/L transmissions of
    exactly L served users; every user served exactly m times, with a
    stacked coefficient system that the plan's integer inverse turns
    into I (so it is invertible over every prime field); A entries in
    {-1,0,1}; and A times the stacked reception functionals equals the
    per-index minifile-sum functionals.
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
    stacked = []
    for u in plan.users:
        ts = plan.serving[u]
        if len(ts) != m:
            fail(f"user {u} served in {len(ts)} transmissions, expected {m}")
        stacked.append([plan.transmissions[t].coeffs[u] for t in ts])
    if plan.inverses is None or plan.inverses.shape != (n1, m, m):
        fail(f"decoding inverses must be one {m} x {m} integer matrix per user")
    products = plan.inverses @ np.array(stacked, dtype=np.int64)
    wrong = np.flatnonzero((products != np.eye(m, dtype=np.int64)).any(axis=(1, 2)))
    if wrong.size:
        fail(f"user {plan.users[wrong[0]]}'s decoding inverse does not invert its coefficients")
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
class ScheduleLayout:
    """Channel- and demand-free index arrays of every schedule at (N, L).

    Block b = i * transmissions + t is transmission t of row i. Row i
    takes its zero-forcing inverses from the beam bank: bank_groups
    lists the distinct served groups, bank_ids[i, t] the one of block
    (i, t). For user k, row r of serve[k], slot[k] and decoders[k]
    describes the r-th row other than k: the m blocks serving k, k's
    position in each block's group, and the integer inverse of k's
    stacked coefficient system there.
    """

    plans: tuple
    transmissions: int
    bank_groups: np.ndarray
    bank_ids: np.ndarray
    serve: np.ndarray
    slot: np.ndarray
    decoders: np.ndarray

    @property
    def minifiles(self) -> int:
        return self.plans[0].minifiles


@lru_cache(maxsize=None)
def schedule_layout(N: int, L: int) -> ScheduleLayout:
    """The cached layout of every schedule at a supported (N, L)."""
    plans = tuple(build_row_plan(i, N, L) for i in range(N))
    n_tx = len(plans[0].transmissions)
    m = plans[0].minifiles
    bank_groups, bank_ids = np.unique(
        np.concatenate([plan.groups for plan in plans]), axis=0, return_inverse=True
    )
    serve = np.empty((N, N - 1, m), dtype=np.int64)
    slot = np.empty((N, N - 1, m), dtype=np.int64)
    decoders = np.empty((N, N - 1, m, m), dtype=np.int64)
    for k in range(N):
        for r, plan in enumerate(p for p in plans if p.owner != k):
            ts = plan.serving[k]
            serve[k, r] = [plan.owner * n_tx + t for t in ts]
            slot[k, r] = [plan.transmissions[t].served.index(k) for t in ts]
            decoders[k, r] = plan.inverses[plan.users.index(k)]
    return ScheduleLayout(
        plans=plans,
        transmissions=n_tx,
        bank_groups=_readonly(bank_groups),
        bank_ids=_readonly(bank_ids.reshape(N, n_tx)),
        serve=_readonly(serve),
        slot=_readonly(slot),
        decoders=_readonly(decoders),
    )


@dataclass(frozen=True, eq=False)
class DeliverySchedule:
    """Ordered blocks plus everything a genie receiver may consult.

    signals (B, L, tau) and gains (B, L) stack every block's signal and
    owner gains; each block's signal is a view into signals.
    """

    blocks: tuple
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


def _beam_bank(H: ChannelMatrix, groups: np.ndarray) -> np.ndarray:
    """inv(H[group]) for each row of groups, from one inverse_stack call.

    Column q of a group's inverse is the zero-forcing beam of group[q]:
    unit gain at group[q], zero at every other member.
    """
    field = H.field
    stack = H.H[groups]
    inverses, nonsingular = inverse_stack(field, stack)
    if not nonsingular.all():
        bad = tuple(int(u) for u in groups[np.argmin(nonsingular)])
        raise DegenerateChannel(f"channel rows of served group {bad} are dependent")
    eye = field.convert(np.eye(stack.shape[1], dtype=np.int64))
    if not field.satisfies(stack, inverses, eye):
        raise DegenerateChannel("zero-forcing residual above tolerance")
    return inverses


def _synthesize(plan: RowCodePlan, ts, d: np.ndarray, H: ChannelMatrix, P, inverses, out=None):
    """Signals (n, L, tau) and owner gains (n, L) of transmissions ts of a row.

    Signal s is W[s] @ C[s]: column q of W[s] is the zero-forcing beam
    inverses[s][:, q] of served user u = group[q], scaled to unit gain at
    the row owner, and row q of C[s] is u's planned combination of the
    minifiles P[d[u], owner] of subfile (d[u], owner). The combination
    is folded into the beams on the small side, M[s][:, q*m + j] =
    W[s][:, q] * coeff_j, so the row's payload passes through one
    product M @ P over its gathered minifiles, written into ``out``
    when it is given.
    """
    field = H.field
    i = plan.owner
    groups = plan.groups[ts]
    gains = field.matmul(H.H[i], inverses)
    try:
        W = field.mul(inverses, field.inv_each(gains)[:, None, :])
    except ZeroDivisionError:
        u = groups.flat[int(np.argmin(np.abs(gains)))]
        raise DegenerateChannel(f"row {i} channel is orthogonal to user {u}'s beam") from None
    coeffs = field.convert(plan.coefficients[ts])
    n, L, m = coeffs.shape
    M = field.mul(W[:, :, :, None], coeffs[:, None]).reshape(n, L, L * m)
    # One gather of the row's minifiles, stacked (L*m, tau) per transmission.
    return field.matmul(M, P[d[groups], i].reshape(n, L * m, -1), out=out), gains


def build_block(plan: RowCodePlan, t: int, d, H, library: Library) -> TransmitBlock:
    """Transmission t of a verified row plan, beamformed over channel H.

    The one-transmission case of build_schedule's synthesis, with a beam
    bank of the one served group.
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
    P = library.parts(plan.minifiles)
    bank = _beam_bank(H, plan.groups[[t]])
    signal, gains = _synthesize(plan, [t], np.array(d.d), H, P, bank)
    return TransmitBlock(
        signal=signal[0],
        duration=Fraction(1, N * plan.minifiles),
        owner=plan.owner,
        t=t,
        group=tx.served,
        gains=tuple(gains[0].tolist()),
    )


def build_schedule(d, H, library: Library, cfg: LibraryConfig) -> DeliverySchedule:
    """Full delivery schedule: every row's transmissions in order, T = (N-1)/L.

    Each row is synthesized in one batched pass, written into one
    (B, L, tau) signal stack.
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
    bank = _beam_bank(H, layout.bank_groups)
    n_tx, m = layout.transmissions, layout.minifiles
    P = library.parts(m)
    demand = np.array(d.d)
    signals = np.empty((cfg.N * n_tx, cfg.L, P.shape[-1]), dtype=field.dtype)
    gains = np.empty((cfg.N * n_tx, cfg.L), dtype=field.dtype)
    for i, plan in enumerate(layout.plans):
        rows = slice(i * n_tx, (i + 1) * n_tx)
        _, gains[rows] = _synthesize(
            plan, slice(None), demand, H, P, bank[layout.bank_ids[i]], out=signals[rows]
        )
    duration = Fraction(1, cfg.N * m)
    blocks = tuple(
        TransmitBlock(
            signal=signals[plan.owner * n_tx + t],
            duration=duration,
            owner=plan.owner,
            t=t,
            group=tx.served,
            gains=tuple(gains[plan.owner * n_tx + t].tolist()),
        )
        for plan in layout.plans
        for t, tx in enumerate(plan.transmissions)
    )
    total = duration * len(blocks)
    expected = delivery_time(cfg.N, cfg.L)
    if total != expected:
        raise InconsistentInputs(f"schedule time {total} != expected {expected}")
    return DeliverySchedule(
        blocks=blocks,
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
