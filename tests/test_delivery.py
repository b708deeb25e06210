"""Row plans, transmit blocks, schedules, and the delivery table."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from mscache import (
    DemandVector,
    DimensionMismatch,
    InconsistentInputs,
    Library,
    LibraryConfig,
    PlanVerificationError,
    PrimeField,
    WrongRegime,
    build_block,
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
from mscache.delivery import RowCodePlan, Transmission, schedule_layout

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


def test_plan_4_2_frozen_golden():
    # Row owner 3 (0-based), users 0,1,2: the three-transmission
    # telescoping schedule with the minus sign in the middle.
    plan = build_row_plan_reduced(3, 4, 2)
    assert plan.users == (0, 1, 2)
    t0, t1, t2 = plan.transmissions
    assert t0.served == (0, 1) and t0.coeffs[0] == (1, 0) and t0.coeffs[1] == (1, 1)
    assert t1.served == (1, 2) and t1.coeffs[1] == (0, 1) and t1.coeffs[2] == (-1, 0)
    assert t2.served == (0, 2) and t2.coeffs[0] == (0, 1) and t2.coeffs[2] == (1, 1)
    assert plan.A.tolist() == [[1, -1, 0], [0, 1, 1]]
    assert plan.serving == {0: (0, 2), 1: (0, 1), 2: (1, 2)}


def test_plan_5_3_frozen_golden():
    plan = build_row_plan_reduced(4, 5, 3)
    assert plan.users == (0, 1, 2, 3)
    t0, t1, t2, t3 = plan.transmissions
    assert t0.served == (0, 1, 2)
    assert t0.coeffs[0] == (1, -1, 1) and t0.coeffs[1] == (1, -1, 0) and t0.coeffs[2] == (1, 0, 0)
    assert t1.served == (0, 1, 3)
    assert t1.coeffs[0] == (0, 1, -1) and t1.coeffs[1] == (0, 1, 0) and t1.coeffs[3] == (1, 0, 0)
    assert t2.served == (0, 2, 3)
    assert t2.coeffs[0] == (0, 0, 1) and t2.coeffs[2] == (0, 1, 0) and t2.coeffs[3] == (-1, 1, 0)
    assert t3.served == (1, 2, 3)
    assert t3.coeffs[1] == (0, 0, 1) and t3.coeffs[2] == (0, -1, 1) and t3.coeffs[3] == (1, -1, 1)
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
            assert len(plan.transmissions) == N - 1
            for u in plan.users:
                assert len(plan.serving[u]) == L
            flat = plan.A.ravel()
            assert set(int(x) for x in flat) <= {-1, 0, 1}
            assert build_row_plan(i, N, L) is plan
    # L = N-1: one transmission over a single minifile, coefficient one
    for N in range(2, 10):
        for i in range(N):
            plan = build_row_plan(i, N, N - 1)
            verify_row_plan(plan, N, N - 1)
            (tx,) = plan.transmissions
            assert tx.served == plan.users == tuple(u for u in range(N) if u != i)
            assert all(tx.coeffs[u] == (1,) for u in tx.served)
            assert plan.A.tolist() == [[1]]
            assert plan.serving == {u: (0,) for u in plan.users}


def test_plan_inverses_invert_each_users_coefficients():
    # The decoder's integer inverses, straight from the build: a telescoping
    # user's is its column-deleted bidiagonal, a jointly served user's and
    # every full-regime user's the identity.
    for (N, L) in [(4, 2), (5, 3), (8, 3), (9, 4), (5, 4)]:
        for i in range(N):
            plan = build_row_plan(i, N, L)
            m = plan.minifiles
            assert plan.inverses.shape == (N - 1, m, m)
            for q, u in enumerate(plan.users):
                stacked = np.array([plan.transmissions[t].coeffs[u] for t in plan.serving[u]])
                assert (plan.inverses[q] @ stacked).tolist() == np.eye(m, dtype=int).tolist()
    assert build_row_plan(0, 4, 3).inverses.tolist() == [[[1]]] * 3
    assert build_row_plan(3, 4, 2).inverses.tolist() == [
        [[1, 0], [0, 1]], [[1, -1], [0, 1]], [[-1, 0], [1, 1]]
    ]


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
            plan.inverses[0, 0, 0] = 0
        with pytest.raises(ValueError):
            schedule_layout(N, L).decoders[0, 0, 0, 0] = 0


def test_verify_rejects_a_wrong_decoding_inverse():
    good = build_row_plan_reduced(3, 4, 2)
    verify_row_plan(good, 4, 2)
    wrong = good.inverses.copy()
    wrong[1] = np.eye(2, dtype=np.int64)
    with pytest.raises(PlanVerificationError, match="user 1's decoding inverse does not"):
        verify_row_plan(dataclasses.replace(good, inverses=wrong), 4, 2)
    with pytest.raises(PlanVerificationError, match="decoding inverses must be"):
        verify_row_plan(dataclasses.replace(good, inverses=None), 4, 2)
    # the corruptions of test_verify_rejects_corrupted_plan, with the good
    # inverses kept, fail on the check each one targets
    bad_A = good.A.copy()
    bad_A[0, 0] = 0
    with pytest.raises(PlanVerificationError, match="A-combined receptions"):
        verify_row_plan(dataclasses.replace(good, A=bad_A), 4, 2)
    txs = list(good.transmissions)
    txs[0] = Transmission(txs[0].served, {**txs[0].coeffs, 0: (0, 1)})
    with pytest.raises(PlanVerificationError, match="user 0's decoding inverse does not"):
        verify_row_plan(dataclasses.replace(good, transmissions=tuple(txs)), 4, 2)
    full = build_row_plan(0, 4, 3)
    (tx,) = full.transmissions
    zeroed = (Transmission(tx.served, {**tx.coeffs, 2: (0,)}),)
    with pytest.raises(PlanVerificationError, match="user 2's decoding inverse does not"):
        verify_row_plan(dataclasses.replace(full, transmissions=zeroed), 4, 3)


def test_plan_coefficients_stay_small():
    # all combination coefficients come from unimodular inverses
    for (N, L) in sorted(SUPPORTED_REDUCED):
        plan = build_row_plan_reduced(0, N, L)
        for tx in plan.transmissions:
            for u in tx.served:
                assert set(tx.coeffs[u]) <= {-1, 0, 1}


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
    # break the combination matrix
    bad_A = good.A.copy()
    bad_A[0, 0] = 0
    bad = RowCodePlan(
        owner=good.owner,
        users=good.users,
        transmissions=good.transmissions,
        A=bad_A,
        serving=good.serving,
    )
    with pytest.raises(PlanVerificationError):
        verify_row_plan(bad, 4, 2)
    # break a coefficient so a user's stacked system goes singular
    txs = list(good.transmissions)
    t0 = txs[0]
    coeffs = dict(t0.coeffs)
    coeffs[0] = (0, 1)  # now rows (0,1) and (0,1) for user 0
    txs[0] = Transmission(t0.served, coeffs)
    bad2 = RowCodePlan(
        owner=good.owner,
        users=good.users,
        transmissions=tuple(txs),
        A=good.A,
        serving=good.serving,
    )
    with pytest.raises(PlanVerificationError):
        verify_row_plan(bad2, 4, 2)
    # a full-antenna plan with a zero coefficient, or checked as reduced
    full = build_row_plan(0, 4, 3)
    (tx,) = full.transmissions
    zeroed = RowCodePlan(
        owner=full.owner,
        users=full.users,
        transmissions=(Transmission(tx.served, {**tx.coeffs, 2: (0,)}),),
        A=full.A,
        serving=full.serving,
    )
    with pytest.raises(PlanVerificationError):
        verify_row_plan(zeroed, 4, 3)
    with pytest.raises(PlanVerificationError):
        verify_row_plan(full, 4, 2)


def _minifiles(lib, n, i, m):
    """Minifiles of subfile i of file n by direct slicing of the library row."""
    sub = lib.F // lib.N
    row = lib.data[n, i * sub : (i + 1) * sub]
    return [row[j * (sub // m) : (j + 1) * (sub // m)] for j in range(m)]


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
    block = build_block(build_row_plan(i, N, L), 0, d, H, lib)
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
    block = build_block(build_row_plan(0, 2, 1), 0, d, H, lib)
    y_owner = GF.matmul(H.H[0], block.signal)
    assert GF.equal(y_owner, lib.data[d[1], 0:2])


def test_full_block_wrong_regime():
    # a three-user full-antenna transmission cannot be zero-forced
    # over two antennas
    lib = random_library(GF, 4, 8, seed=0)
    H = draw_channel(4, 2, seed=0, field=GF)
    with pytest.raises(DimensionMismatch):
        build_block(build_row_plan(0, 4, 3), 0, DemandVector([0, 1, 2, 3]), H, lib)


def test_reduced_block_reception_contracts():
    # middle transmission of a three-signal row: the served users hear
    # scalar multiples of their planned combinations, the owner the sum.
    N, L, F = 4, 2, 8
    lib = random_library(GF, N, F, seed=23)
    H = draw_channel(N, L, seed=29, field=GF)
    d = DemandVector([0, 1, 2, 3])
    i = 3
    plan = build_row_plan_reduced(i, N, L)
    block = build_block(plan, 1, d, H, lib)
    assert block.duration == Fraction(1, 8)
    tx = plan.transmissions[1]
    assert tx.served == (1, 2)
    combos = {}
    for u in tx.served:
        minis = _minifiles(lib, d[u], i, L)
        combo = GF.zeros(lib.F // (N * L))
        for j, c in enumerate(tx.coeffs[u]):
            if c == 1:
                combo = GF.add(combo, minis[j])
            elif c == -1:
                combo = GF.sub(combo, minis[j])
        combos[u] = combo
    for u in tx.served:
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
    for i in (0, 4):
        plan = build_row_plan_reduced(i, N, L)
        for t, tx in enumerate(plan.transmissions):
            block = build_block(plan, t, d, H, lib)
            owner_sum = GF.zeros(lib.F // (N * L))
            for u in tx.served:
                minis = _minifiles(lib, d[u], i, L)
                combo = GF.zeros(lib.F // (N * L))
                for j, c in enumerate(tx.coeffs[u]):
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
    # hand-made single-user plan with all-zero coefficients
    plan = RowCodePlan(
        owner=1,
        users=(0,),
        transmissions=(Transmission((0,), {0: (0,)}),),
        A=np.zeros((1, 1), dtype=np.int64),
        serving={0: (0,)},
    )
    lib = random_library(GF, 2, 4, seed=2)
    H = draw_channel(2, 1, seed=3, field=GF)
    block = build_block(plan, 0, DemandVector([1, 0]), H, lib)
    assert GF.equal(block.signal, GF.zeros(block.signal.shape))


def test_block_from_plan_owner_mismatch():
    # a plan for another row layout, or a transmission it does not have
    lib = random_library(GF, 4, 8, seed=4)
    H = draw_channel(4, 2, seed=5, field=GF)
    d = DemandVector([0, 1, 2, 3])
    with pytest.raises(InconsistentInputs):
        build_block(build_row_plan(0, 5, 2), 0, d, H, lib)
    with pytest.raises(InconsistentInputs):
        build_block(build_row_plan(0, 4, 2), 3, d, H, lib)


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
