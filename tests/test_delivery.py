"""Row plans, transmit blocks, schedules, and the delivery table."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import mscache.delivery as delivery
from mscache import (
    ComplexField,
    DegenerateChannel,
    DemandVector,
    InconsistentInputs,
    Library,
    LibraryConfig,
    PlanVerificationError,
    PrimeField,
    WrongRegime,
    build_row_plan,
    build_row_plan_reduced,
    build_schedule,
    draw_channel,
    is_supported,
    random_library,
    regime,
    render_delivery_table,
    segment_sizes,
    verify_row_plan,
)
from mscache.channel import ChannelMatrix, _decoders
from mscache.delivery import _row_pattern, _telescoping_pattern, schedule_layout

GF = PrimeField(65537)

# Every (N, L) with L < N-1 and N <= 9 that the segment tiling covers.
SUPPORTED_REDUCED = {
    (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3),
    (6, 1), (6, 2), (6, 4), (7, 1), (7, 2), (7, 3), (7, 5),
    (8, 1), (8, 2), (8, 3), (8, 6),
    (9, 1), (9, 2), (9, 3), (9, 4), (9, 7),
}
UNSUPPORTED = {(6, 3), (7, 4), (8, 4), (8, 5), (9, 5), (9, 6)}


def test_regime_classification():
    for N in range(2, 10):
        assert regime(N, N - 1) == "full"
        for L in range(1, N - 1):
            if (N, L) in SUPPORTED_REDUCED:
                assert regime(N, L) == "reduced"
            else:
                assert (N, L) in UNSUPPORTED
                assert not is_supported(N, L)
    with pytest.raises(WrongRegime):
        regime(4, 4)
    with pytest.raises(WrongRegime):
        regime(4, 0)
    with pytest.raises(WrongRegime):
        regime(1, 1)


def test_segment_sizes_tile_the_row():
    assert segment_sizes(4, 2) == [3]
    assert segment_sizes(5, 3) == [4]
    assert segment_sizes(9, 2) == [2, 2, 2, 2]
    assert segment_sizes(8, 3) == [3, 4]
    assert segment_sizes(9, 3) == [4, 4]
    assert segment_sizes(5, 4) == [4]  # L = N-1: one jointly served segment
    for (N, L) in SUPPORTED_REDUCED:
        sizes = segment_sizes(N, L)
        assert sum(sizes) == N - 1
        assert set(sizes) <= {L, L + 1}


def _serving(plan, u) -> tuple:
    """The transmissions of a plan that serve user u, in order."""
    return tuple(np.nonzero(plan.groups == u)[0].tolist())


def _unit_gain_decoders(layout, users=slice(None)):
    """The decode's (row, user) decoders at unit owner gains, in GF."""
    return _decoders(GF, layout, np.ones(layout.groups.shape, dtype=np.int64), users)


def _zeroed_outside(plan, u):
    """A with the columns of the transmissions not serving u zeroed, in GF."""
    return GF.convert(plan.A * (plan.groups == u).any(axis=1))


def test_plan_4_2_frozen_golden():
    # Row owner 3 (0-based), users 0,1,2: the three-transmission
    # telescoping schedule with the minus sign in the middle.
    plan = build_row_plan_reduced(3, 4, 2)
    assert plan.users == (0, 1, 2)
    assert plan.groups.tolist() == [[0, 1], [1, 2], [0, 2]]
    assert plan.coefficients.tolist() == [
        [[1, 0], [1, 1]],
        [[0, 1], [-1, 0]],
        [[0, 1], [1, 1]],
    ]
    assert plan.A.tolist() == [[1, -1, 0], [0, 1, 1]]
    assert {u: _serving(plan, u) for u in plan.users} == {0: (0, 2), 1: (0, 1), 2: (1, 2)}


def test_plan_5_3_frozen_golden():
    plan = build_row_plan_reduced(4, 5, 3)
    assert plan.users == (0, 1, 2, 3)
    assert plan.groups.tolist() == [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    assert plan.coefficients.tolist() == [
        [[1, -1, 1], [1, -1, 0], [1, 0, 0]],
        [[0, 1, -1], [0, 1, 0], [1, 0, 0]],
        [[0, 0, 1], [0, 1, 0], [-1, 1, 0]],
        [[0, 0, 1], [0, -1, 1], [1, -1, 1]],
    ]
    assert plan.A.tolist() == [
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ]


def test_all_supported_plans_verify():
    for (N, L) in sorted(SUPPORTED_REDUCED):
        for i in range(N):
            plan = build_row_plan_reduced(i, N, L)
            verify_row_plan(plan, N, L)  # raises on any defect
            assert plan.groups.shape == (N - 1, L)
            for u in plan.users:
                assert len(_serving(plan, u)) == L
            flat = plan.A.ravel()
            assert set(int(x) for x in flat) <= {-1, 0, 1}
            assert build_row_plan(i, N, L) is plan
    # L = N-1: one transmission over a single minifile, coefficient one
    for N in range(2, 10):
        for i in range(N):
            plan = build_row_plan(i, N, N - 1)
            verify_row_plan(plan, N, N - 1)
            (group,) = plan.groups.tolist()
            assert tuple(group) == plan.users == tuple(u for u in range(N) if u != i)
            assert plan.coefficients.tolist() == [[[1]] * (N - 1)]
            assert plan.A.tolist() == [[1]]
            assert {u: _serving(plan, u) for u in plan.users} == {u: (0,) for u in plan.users}


def test_plan_inverses_invert_each_users_coefficients():
    # Decoders are A at the user's transmissions: a telescoping user's is
    # its column-deleted bidiagonal, a jointly served user's and every
    # full-regime user's the identity. The decode's (row, user) decoder
    # at unit gains is A with the other columns zeroed; the owner's is A.
    for (N, L) in [(4, 2), (5, 3), (8, 3), (9, 4), (5, 4)]:
        decoders = _unit_gain_decoders(schedule_layout(N, L))
        for i in range(N):
            plan = build_row_plan(i, N, L)
            m = plan.minifiles
            assert np.array_equal(decoders[i, i], GF.convert(plan.A))
            for u in plan.users:
                decoder = plan.A[:, list(_serving(plan, u))]
                stacked = plan.coefficients[plan.groups == u]
                assert (decoder @ stacked).tolist() == np.eye(m, dtype=int).tolist()
                assert np.array_equal(decoders[i, u], _zeroed_outside(plan, u))
                assert np.array_equal(decoders[i, u][:, list(_serving(plan, u))],
                                      GF.convert(decoder))
    full = build_row_plan(0, 4, 3)
    assert [full.A[:, list(_serving(full, u))].tolist() for u in full.users] == [[[1]]] * 3
    plan = build_row_plan(3, 4, 2)
    assert [plan.A[:, list(_serving(plan, u))].tolist() for u in plan.users] == [
        [[1, 0], [0, 1]], [[1, -1], [0, 1]], [[-1, 0], [1, 1]]
    ]


def test_telescoping_pattern_inverts_column_deleted_bidiagonals():
    # The closed form: position u's coefficient block inverts B without
    # the column of the one transmission that skips u, entries in {-1, 0, 1}.
    for L in range(1, 41):
        B, served, coeffs = _telescoping_pattern(L)
        assert B.shape == (L, L + 1) and served.shape == (L + 1, L)
        assert coeffs.shape == (L + 1, L, L)
        assert set(np.unique(coeffs).tolist()) <= {-1, 0, 1}
        for u in range(L + 1):
            ts, slots = np.nonzero(served == u)
            assert len(ts) == L
            product = B[:, ts] @ coeffs[ts, slots]
            assert np.array_equal(product, np.eye(L, dtype=np.int64)), (L, u)


@pytest.mark.parametrize("N, L", [(24, 11), (60, 29)])
def test_cold_layouts_at_scale_build_and_verify(N, L):
    for cache in (_telescoping_pattern, _row_pattern, build_row_plan_reduced, schedule_layout):
        cache.cache_clear()
    layout = schedule_layout(N, L)
    assert len(layout.plans) == N and layout.minifiles == L
    for plan in layout.plans:
        verify_row_plan(plan, N, L)
    for k in (0, N // 2, N - 1):
        decoders = _unit_gain_decoders(layout, slice(k, k + 1))[:, 0]
        for plan in layout.plans:
            if plan.owner == k:
                assert np.array_equal(decoders[k], GF.convert(plan.A))
                continue
            # k is served in exactly m of the row's transmissions.
            assert len(_serving(plan, k)) == layout.minifiles
            assert np.array_equal(decoders[plan.owner], _zeroed_outside(plan, k))


def test_cached_plans_are_read_only():
    # Plans of both regimes are cached in the schedule layout (reduced
    # plans also per row) and shared by every later schedule.
    assert build_row_plan(3, 4, 2) is build_row_plan(3, 4, 2)
    for i, N, L in ((0, 4, 3), (3, 4, 2)):
        plan = build_row_plan(i, N, L)
        assert schedule_layout(N, L) is schedule_layout(N, L)
        with pytest.raises(ValueError):
            schedule_layout(N, L).plans[i].A[0, 0] = 0
        with pytest.raises(ValueError):
            plan.A[0, 0] = 0
        with pytest.raises(ValueError):
            plan.groups[0, 0] = 0
        with pytest.raises(ValueError):
            plan.coefficients[0, 0, 0] = 0
        with pytest.raises(ValueError):
            schedule_layout(N, L).groups[0, 0] = 0


def _with(plan, name, index, value):
    """A copy of plan with entry ``index`` of its array ``name`` set to value."""
    a = getattr(plan, name).copy()
    a[index] = value
    return dataclasses.replace(plan, **{name: a})


def test_verify_rejects_a_wrong_decoding_inverse():
    # A is every user's decoder: corrupting A, or a coefficient vector that
    # A no longer inverts, fails the certificate at the first user it breaks.
    good = build_row_plan_reduced(3, 4, 2)
    verify_row_plan(good, 4, 2)
    with pytest.raises(PlanVerificationError, match="user 0's transmissions is not the decoding"):
        verify_row_plan(_with(good, "A", (0, 0), 0), 4, 2)
    # user 0's coefficient rows become (0, 1) and (0, 1)
    with pytest.raises(PlanVerificationError, match="user 0's transmissions is not the decoding"):
        verify_row_plan(_with(good, "coefficients", (0, 0), (0, 1)), 4, 2)
    full = build_row_plan(0, 4, 3)
    with pytest.raises(PlanVerificationError, match="user 2's transmissions is not the decoding"):
        verify_row_plan(_with(full, "coefficients", (0, 1), (0,)), 4, 3)


def test_plan_coefficients_stay_small():
    # all combination coefficients come from unimodular inverses
    for (N, L) in sorted(SUPPORTED_REDUCED):
        plan = build_row_plan_reduced(0, N, L)
        assert set(np.unique(plan.coefficients).tolist()) <= {-1, 0, 1}


def test_unsupported_pairs_raise():
    for (N, L) in sorted(UNSUPPORTED):
        with pytest.raises(WrongRegime):
            build_row_plan_reduced(0, N, L)
        with pytest.raises(WrongRegime):
            build_row_plan(0, N, L)
    with pytest.raises(WrongRegime):
        build_row_plan_reduced(0, 4, 3)  # L = N-1 has no reduced plan


def test_verify_rejects_corrupted_plan():
    good = build_row_plan_reduced(3, 4, 2)
    full = build_row_plan(0, 4, 3)
    singular = "is not the decoding inverse"
    corrupted = [
        (_with(good, "A", (0, 0), 0), 2, singular),  # break the combination matrix
        (_with(good, "coefficients", (0, 0), (0, 1)), 2, singular),  # user 0 goes singular
        (_with(full, "coefficients", (0, 1), (0,)), 3, singular),  # zero full coefficient
        (full, 2, "groups must be"),  # a full-antenna plan checked as reduced
        (_with(good, "groups", 0, (0, 0)), 2, "served set invalid"),  # repeats a user
        (_with(good, "groups", 0, (0, 3)), 2, "served set invalid"),  # names the owner
        (_with(good, "groups", 0, (0, 7)), 2, "served set invalid"),  # a user beyond N
        (_with(good, "groups", 0, (0, 2)), 2, "user 1 served in 1"),  # user 1 short
        (_with(good, "coefficients", (0, 0), (2, 0)), 2, "outside"),
        (dataclasses.replace(good, coefficients=good.coefficients[:, :, :1]), 2,
         "coefficients must be"),
        (dataclasses.replace(good, A=good.A.astype(float)), 2, "A must be an integer array"),
        (dataclasses.replace(good, users=(0, 2, 1)), 2, "user set"),
    ]
    for plan, L, match in corrupted:
        with pytest.raises(PlanVerificationError, match=match):
            verify_row_plan(plan, 4, L)


def _minifiles(lib, n, i, m):
    """Minifiles of subfile i of file n by direct slicing of the library row."""
    sub = lib.F // lib.N
    row = lib.data[n, i * sub : (i + 1) * sub]
    return [row[j * (sub // m) : (j + 1) * (sub // m)] for j in range(m)]


def _scheduled_block(d, H, lib, i, t):
    """Transmission t of row i, read from the whole schedule."""
    cfg = LibraryConfig(N=lib.N, K=lib.N, L=H.L, F=lib.F)
    sched = build_schedule(d, H, lib, cfg)
    return sched.blocks[i * sched.layout.transmissions + t]


def _proportional(field, y, ref) -> bool:
    """y == c * ref for some nonzero field scalar c (exact, cross products)."""
    y = field.convert(y)
    ref = field.convert(ref)
    if field.equal(y, field.zeros(y.shape)):
        return False
    for a in range(len(y)):
        for b in range(len(y)):
            lhs = field.mul(y[a], ref[b])
            rhs = field.mul(y[b], ref[a])
            if not field.equal(lhs, rhs):
                return False
    return True


def test_full_block_reception_contracts():
    # every non-owner hears a nonzero multiple of exactly its subfile;
    # the owner hears the plain sum, coefficient one on each term
    rng_seed = 17
    N, L, F = 5, 4, 10
    lib = random_library(GF, N, F, seed=rng_seed)
    H = draw_channel(N, L, seed=rng_seed, field=GF)
    d = DemandVector([4, 2, 0, 1, 3])
    i = 2
    block = _scheduled_block(d, H, lib, i, 0)
    assert block.duration == Fraction(1, 5)
    assert block.signal.shape == (4, 2)
    sum_expect = GF.zeros(2)
    for k in range(N):
        y = GF.matmul(H.H[k], block.signal)
        (sub,) = _minifiles(lib, d[k], i, 1)
        if k == i:
            continue
        assert _proportional(GF, y, sub), f"user {k} reception not proportional"
        sum_expect = GF.add(sum_expect, sub)
    y_owner = GF.matmul(H.H[i], block.signal)
    assert GF.equal(y_owner, sum_expect)


def test_full_block_two_user_degenerate():
    # N=2, L=1: the block carries only the other user's subfile
    lib = random_library(GF, 2, 4, seed=1)
    H = draw_channel(2, 1, seed=2, field=GF)
    d = DemandVector([1, 0])
    block = _scheduled_block(d, H, lib, 0, 0)
    y_owner = GF.matmul(H.H[0], block.signal)
    assert GF.equal(y_owner, lib.data[d[1], 0:2])


def test_full_block_wrong_regime():
    # three-user full-antenna transmissions cannot be zero-forced over
    # two antennas
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=0)
    H = draw_channel(4, 2, seed=0, field=GF)
    with pytest.raises(InconsistentInputs, match="does not match config"):
        build_schedule(DemandVector([0, 1, 2, 3]), H, lib, cfg)


def test_reduced_block_reception_contracts():
    # middle transmission of a three-signal row: the served users hear
    # scalar multiples of their planned combinations, the owner the sum.
    N, L, F = 4, 2, 8
    lib = random_library(GF, N, F, seed=23)
    H = draw_channel(N, L, seed=29, field=GF)
    d = DemandVector([0, 1, 2, 3])
    i = 3
    plan = build_row_plan_reduced(i, N, L)
    block = _scheduled_block(d, H, lib, i, 1)
    assert block.duration == Fraction(1, 8)
    assert plan.groups[1].tolist() == [1, 2] and block.group == (1, 2)
    combos = {}
    for u, coeffs in zip(plan.groups[1].tolist(), plan.coefficients[1].tolist()):
        minis = _minifiles(lib, d[u], i, L)
        combo = GF.zeros(lib.F // (N * L))
        for j, c in enumerate(coeffs):
            if c == 1:
                combo = GF.add(combo, minis[j])
            elif c == -1:
                combo = GF.sub(combo, minis[j])
        combos[u] = combo
    for u in block.group:
        y = GF.matmul(H.H[u], block.signal)
        assert _proportional(GF, y, combos[u])
    y_owner = GF.matmul(H.H[i], block.signal)
    assert GF.equal(y_owner, GF.add(combos[1], combos[2]))


def test_reduced_block_random_pair_products():
    # random (7, 2) instance: all planned receptions check out by
    # direct channel products across every row and transmission
    N, L = 7, 2
    lib = random_library(GF, N, N * L, seed=31)
    H = draw_channel(N, L, seed=37, field=GF)
    d = DemandVector([3, 5, 1, 0, 6, 2, 4])
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    sched = build_schedule(d, H, lib, cfg)
    n_tx = sched.layout.transmissions
    for i in (0, 4):
        plan = build_row_plan_reduced(i, N, L)
        for t, (group, vectors) in enumerate(zip(plan.groups.tolist(), plan.coefficients.tolist())):
            block = sched.blocks[i * n_tx + t]
            owner_sum = GF.zeros(lib.F // (N * L))
            for u, coeffs in zip(group, vectors):
                minis = _minifiles(lib, d[u], i, L)
                combo = GF.zeros(lib.F // (N * L))
                for j, c in enumerate(coeffs):
                    if c == 1:
                        combo = GF.add(combo, minis[j])
                    elif c == -1:
                        combo = GF.sub(combo, minis[j])
                owner_sum = GF.add(owner_sum, combo)
                if not GF.equal(combo, GF.zeros(combo.shape)):
                    y = GF.matmul(H.H[u], block.signal)
                    assert _proportional(GF, y, combo)
            assert GF.equal(GF.matmul(H.H[i], block.signal), owner_sum)


def test_zero_coefficient_plan_gives_zero_block():
    # all-zero coefficients put no payload on a row's beams
    N, L = 4, 2
    plan = build_row_plan(1, N, L)
    lib = random_library(GF, N, 8, seed=2)
    beams = GF.sample(np.random.default_rng(3), (len(plan.groups), L, L))
    zero = np.zeros_like(plan.coefficients)
    signals = delivery._payload(GF, beams, zero, lib.parts(L), np.arange(N), plan.groups, 1)
    assert signals.shape == (3, L, 1)
    assert GF.equal(signals, GF.zeros(signals.shape))


DEPENDENT = r"channel rows of served group \(1, 2\) are dependent"


@pytest.mark.parametrize(
    "field, row, source, scale, message",
    [
        (GF, 2, 1, 3, DEPENDENT),
        (GF, 0, 3, 7, r"row 0 channel is orthogonal to user 4's beam"),
        (ComplexField(), 2, 1, 3, DEPENDENT),
    ],
    ids=["gf-dependent", "gf-orthogonal", "complex-dependent"],
)
def test_degenerate_channels_are_refused(field, row, source, scale, message):
    # Channels that draw_channel would reject, built directly. At (5, 2)
    # each row serves its users as two jointly served pairs; H[2] = 3 H[1]
    # makes row 0's pair (1, 2) singular, and H[0] = 7 H[3] makes row 0's
    # beam for user 4, which nulls user 3, null at the owner too.
    N, L = 5, 2
    H = field.sample_channel(np.random.default_rng(5), (N, L))
    H[row] = field.mul(H[source], field.coeff(scale))
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(field, N, cfg.F, seed=5)
    with pytest.raises(DegenerateChannel, match=message):
        build_schedule(DemandVector(range(N)), ChannelMatrix(field, H), lib, cfg)


def test_schedule_block_counts_and_durations():
    cases = [
        (4, 3, 4, Fraction(1, 4), Fraction(1)),
        (4, 2, 12, Fraction(1, 8), Fraction(3, 2)),
        (5, 3, 20, Fraction(1, 15), Fraction(4, 3)),
    ]
    for N, L, blocks, dur, total in cases:
        cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
        lib = random_library(GF, N, cfg.F, seed=N * 10 + L)
        H = draw_channel(N, L, seed=N + L, field=GF)
        sched = build_schedule(DemandVector(range(N)), H, lib, cfg)
        assert len(sched.blocks) == blocks
        assert all(b.duration == dur for b in sched.blocks)
        assert sched.total_time == total
        # row-major order: block owners ascend
        owners = [b.owner for b in sched.blocks]
        assert owners == sorted(owners)


@pytest.mark.parametrize("N, L", [(16, 15), (17, 5), (7, 3)])
def test_blocks_are_built_on_first_access(monkeypatch, N, L):
    # build_schedule builds no block object; the first read of blocks
    # builds all B of them from the signal and gain stacks and the layout.
    built = []
    block_type = delivery.TransmitBlock

    def counting(**fields):
        built.append(fields["owner"])
        return block_type(**fields)

    monkeypatch.setattr(delivery, "TransmitBlock", counting)
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(GF, N, cfg.F, seed=N)
    H = draw_channel(N, L, seed=L, field=GF)
    d = DemandVector(np.random.default_rng(N).permutation(N))
    sched = build_schedule(d, H, lib, cfg)
    assert built == []
    layout = sched.layout
    n_tx = layout.transmissions
    blocks = sched.blocks
    assert len(built) == len(blocks) == N * n_tx
    assert sched.blocks is blocks
    for b, block in enumerate(blocks):
        assert (block.owner, block.t) == divmod(b, n_tx)
        assert block.group == tuple(layout.groups[b].tolist())
        assert block.gains == tuple(sched.gains[b].tolist())
        assert block.duration == Fraction(1, N * layout.minifiles)
        assert np.shares_memory(block.signal, sched.signals)
        assert np.array_equal(block.signal, sched.signals[b])


def test_schedule_determinism():
    cfg = LibraryConfig(N=5, K=5, L=3, F=15)
    lib = random_library(GF, 5, 15, seed=8)
    H = draw_channel(5, 3, seed=9, field=GF)
    d = DemandVector([2, 0, 4, 1, 3])
    s1 = build_schedule(d, H, lib, cfg)
    s2 = build_schedule(d, H, lib, cfg)
    assert len(s1.blocks) == len(s2.blocks)
    for b1, b2 in zip(s1.blocks, s2.blocks):
        assert GF.equal(b1.signal, b2.signal)
        assert b1.group == b2.group and b1.gains == b2.gains


@pytest.mark.parametrize("N, L", [(8, 7), (7, 3), (6, 4)])
def test_schedule_makes_one_payload_product_per_row(N, L):
    # The plan's coefficients fold into the beams on the small side, so
    # each row's payload passes through a single field.matmul.
    field = PrimeField(65537)
    cfg = LibraryConfig(N=N, K=N, L=L, F=16 * N * L)
    lib = random_library(field, N, cfg.F, seed=N)
    H = draw_channel(N, L, seed=L, field=field)
    tau = cfg.F // (N * schedule_layout(N, L).minifiles)
    widths = []
    inner = field.matmul

    def counting(a, b, out=None):
        widths.append(np.shape(b)[-1])
        return inner(a, b, out=out)

    field.matmul = counting
    sched = build_schedule(DemandVector(range(N)), H, lib, cfg)
    assert widths.count(tau) == N
    assert all(w < tau for w in widths if w != tau)  # the rest are beam-sized
    assert sched.signals.shape[-1] == tau


def test_schedule_input_validation():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=1)
    H = draw_channel(4, 3, seed=1, field=GF)
    with pytest.raises(InconsistentInputs):
        build_schedule(DemandVector([0, 1, 2]), H, lib, cfg)  # short demand
    with pytest.raises(InconsistentInputs):
        build_schedule(DemandVector([0, 1, 2, 5]), H, lib, cfg)  # out of range
    bad_H = draw_channel(4, 2, seed=1, field=GF)
    with pytest.raises(InconsistentInputs):
        build_schedule(DemandVector([0, 1, 2, 3]), bad_H, lib, cfg)
    other_field_lib = random_library(PrimeField(7), 4, 12, seed=1)
    with pytest.raises(InconsistentInputs):
        build_schedule(DemandVector([0, 1, 2, 3]), H, other_field_lib, cfg)


def test_render_table_full_golden():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    text = render_delivery_table(cfg, DemandVector([0, 1, 2, 3]))
    lines = text.splitlines()
    assert lines[0] == "N=4 K=4 L=3 demand=(1,2,3,4) T=1"
    assert lines[1] == "row 1 (owner user 1)"
    assert lines[2] == (
        "  t 1 dur 1/4 :: user 2 <- B1 | user 3 <- C1 | user 4 <- D1 "
        "| user 1* <- B1+C1+D1"
    )
    # four rows, one transmission each
    assert sum(1 for ln in lines if ln.startswith("row ")) == 4


def test_render_table_reduced_golden():
    # The full (4,2) table, frozen; the minus sign lands on each row's
    # middle transmission.
    cfg = LibraryConfig(N=4, K=4, L=2, F=8)
    text = render_delivery_table(cfg, DemandVector([0, 1, 2, 3]))
    lines = text.splitlines()
    assert lines[0] == "N=4 K=4 L=2 demand=(1,2,3,4) T=3/2"
    row4 = lines[lines.index("row 4 (owner user 4)") :][:4]
    assert row4[1] == (
        "  t 1 dur 1/8 :: user 1 <- A4^1 | user 2 <- B4^1+B4^2 | user 4* <- A4^1+B4^1+B4^2"
    )
    assert row4[2] == (
        "  t 2 dur 1/8 :: user 2 <- B4^2 | user 3 <- -C4^1 | user 4* <- B4^2-C4^1"
    )
    assert row4[3] == (
        "  t 3 dur 1/8 :: user 1 <- A4^2 | user 3 <- C4^1+C4^2 | user 4* <- A4^2+C4^1+C4^2"
    )


def test_render_table_smallest_instance():
    cfg = LibraryConfig(N=2, K=2, L=1, F=2)
    text = render_delivery_table(cfg, DemandVector([0, 1]))
    lines = text.splitlines()
    assert lines[0] == "N=2 K=2 L=1 demand=(1,2) T=1"
    assert lines[2] == "  t 1 dur 1/2 :: user 2 <- B1 | user 1* <- B1"


def test_render_table_5_3_shape():
    cfg = LibraryConfig(N=5, K=5, L=3, F=15)
    text = render_delivery_table(cfg, DemandVector(range(5)))
    lines = text.splitlines()
    assert lines[0].endswith("T=4/3")
    assert sum(1 for ln in lines if ln.startswith("row ")) == 5
    assert sum(1 for ln in lines if ln.lstrip().startswith("t ")) == 20
    assert all("dur 1/15" in ln for ln in lines if ln.lstrip().startswith("t "))
