"""The batched kernels against the scalar elimination.

``inverse_stack`` must make exactly the decisions of ``rank`` on every
matrix of a stack, in both field modes, and its GF inverses must be
exact; in GF the division-free kernel must give the normalized one's
bytes. The normalized kernel must also give the bytes of its earlier,
untrimmed copy in ``reference_kernels``. In the full regime the channel
draw's check, one tall elimination of all K rows, must never accept a
complex draw that the per-subset rank loop rejects.
"""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels
from reference_kernels import inverse_stack, rank

from mscache import (
    ChannelMatrix,
    ComplexField,
    DegenerateChannel,
    DimensionMismatch,
    PrimeField,
    ResamplingExhausted,
    draw_channel,
)
from mscache.delivery import DRAW_BUDGET, _layout_beams, schedule_layout
from mscache.linalg import _gauss_jordan_exact, _gauss_jordan_normalized, left_inverse_stack

CC = ComplexField()
PRIMES = (2, 3, 5, 7, 65537)
LARGEST_PRIME = 536870909
SEEDS = st.integers(0, 2**32 - 1)


def _check_against_rank(field, stack):
    n = stack.shape[1]
    inverses, nonsingular = inverse_stack(field, stack)
    assert inverses.shape == stack.shape and nonsingular.shape == stack.shape[:1]
    eye = field.convert(np.eye(n, dtype=np.int64))
    for a, x, ok in zip(stack, inverses, nonsingular):
        assert bool(ok) == (rank(field, a) == n)
        if ok and field.mode == "gf":
            assert field.equal(field.matmul(a, x), eye)
            assert field.equal(field.matmul(x, a), eye)
    return nonsingular


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(1, 9),
    L=st.integers(1, 5),
    p=st.sampled_from(PRIMES),
    seed=SEEDS,
    channel_like=st.booleans(),
)
def test_gf_mask_equals_rank_on_every_row_subset(N, L, p, seed, channel_like):
    # Every L-row subset of an N x L draw, as the channel check stacks
    # them; small primes make singular subsets common.
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    sample = field.sample_channel if channel_like else field.sample
    H = sample(rng, (max(N, L), L))
    subsets = np.array(list(combinations(range(H.shape[0]), L)))
    _check_against_rank(field, H[subsets])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    B=st.integers(1, 24),
    seed=SEEDS,
    shrink=st.sampled_from((1e-5, 3e-10, 1e-11)),
    grow=st.sampled_from((1.0, 1e4)),
)
def test_complex_mask_equals_rank_with_planted_dependent_rows(n, B, seed, shrink, grow):
    # Matrix b gets, by b mod 4: a row that is an exact combination of the
    # others (a zero row when n = 1); a row shrunk near the pivot threshold,
    # where elimination factors fall under zero_atol; a scale-up of the
    # whole matrix, which raises its own threshold but no other's; nothing.
    rng = np.random.default_rng(seed)
    stack = CC.sample(rng, (B, n, n))
    for b in range(B):
        j = int(rng.integers(n))
        others = [r for r in range(n) if r != j]
        if b % 4 == 0:
            stack[b, j] = CC.sample(rng, len(others)) @ stack[b, others]
        elif b % 4 == 1:
            stack[b, j] *= shrink
        elif b % 4 == 2:
            stack[b] *= grow
    nonsingular = _check_against_rank(CC, stack)
    inverses, _ = inverse_stack(CC, stack)
    for b in range(3, B, 4):
        assert nonsingular[b]
        assert np.max(np.abs(stack[b] @ inverses[b] - np.eye(n))) <= 1e-6


def _plant(field, rng, a, shrink=None):
    """Replace up to two rows of each (n+1) x n matrix by combinations of others.

    One planted row keeps the rank at n but zeros entries of the null
    vector; two make the matrix rank deficient. With ``shrink``, a
    planted row is a near-dependency: the combination plus noise of
    that size.
    """
    B, r, n = a.shape
    for b in range(B):
        planted = rng.permutation(r)[: int(rng.integers(0, 3))]
        base = [i for i in range(r) if i not in planted]
        for j in planted:
            others = rng.permutation(base)[: int(rng.integers(0, n))]
            row = field.matmul(field.sample(rng, len(others)), a[b, others]) if len(others) else 0
            a[b, j] = row if shrink is None else row + shrink * field.sample(rng, n)
    return a


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 7), B=st.integers(1, 6), p=st.sampled_from(PRIMES), seed=SEEDS)
def test_tall_elimination_gives_left_inverse_and_null_vector(n, B, p, seed):
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    a = _plant(field, rng, field.sample_channel(rng, (B, n + 1, n)))
    G, v, full_rank = left_inverse_stack(field, a)
    assert G.shape == (B, n, n + 1) and v.shape == (B, n + 1) and full_rank.shape == (B,)
    eye = np.eye(n, dtype=np.int64)
    for b in range(B):
        assert bool(full_rank[b]) == (rank(field, a[b]) == n)
        if full_rank[b]:
            assert field.equal(field.matmul(G[b], a[b]), eye)
            assert not field.matmul(v[b], a[b]).any()
            assert v[b].any()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), B=st.integers(1, 6), seed=SEEDS)
def test_elimination_agrees_with_rank_at_the_largest_prime(n, B, seed):
    # At p = 536870909 each product of two residues is close to 2**58, so
    # the update a - f*b, one product and one reduction, is the tightest
    # int64 fit of any prime the field accepts. Planted rows make singular
    # and rank-deficient matrices, which random ones at this p never are.
    field = PrimeField(536870909)
    rng = np.random.default_rng(seed)
    tall = _plant(field, rng, field.sample_channel(rng, (B, n + 1, n)))
    G, v, full_rank = left_inverse_stack(field, tall)
    for b in range(B):
        assert bool(full_rank[b]) == (rank(field, tall[b]) == n)
        if full_rank[b]:
            assert field.equal(field.matmul(G[b], tall[b]), np.eye(n, dtype=np.int64))
            assert not field.matmul(v[b], tall[b]).any() and v[b].any()
    square = _plant(field, rng, field.sample_channel(rng, (B, n, n)))
    _check_against_rank(field, square)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 2),
    B=st.integers(2, 6),
    p=st.sampled_from((2, 3, 7, 65537, LARGEST_PRIME)),
    seed=SEEDS,
)
def test_division_free_kernel_gives_the_normalized_bytes(n, extra, B, p, seed):
    # Member 0 has a zero first pivot, so the batch swaps rows at step 0;
    # member 1 is rank deficient (a zero column), so it runs out of pivots.
    # The others must come out as they do alone, and every member with
    # full rank as the normalized kernel makes it.
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    a = _plant(field, rng, field.sample(rng, (B, n + extra, n)))
    a[0, 0, 0] = 0
    a[1, :, int(rng.integers(n))] = 0
    E, full_rank = _gauss_jordan_exact(field, a)
    want_E, want_full_rank = _gauss_jordan_normalized(field, a)
    assert np.array_equal(full_rank, want_full_rank)
    assert not full_rank[1]
    assert np.array_equal(E[full_rank], want_E[full_rank])
    for b in range(2, B):
        alone_E, alone_full_rank = _gauss_jordan_exact(field, a[b : b + 1])
        assert alone_full_rank[0] == full_rank[b]
        if full_rank[b]:
            assert np.array_equal(alone_E[0], E[b])
    if extra == 1:
        _, v, _ = left_inverse_stack(field, a)
        assert np.array_equal(v[full_rank], want_E[full_rank, n])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 7),
    B=st.integers(1, 6),
    seed=SEEDS,
    shrink=st.sampled_from((0.0, 1e-12, 3e-10, 1e-8, 1e-5)),
)
def test_complex_tall_flag_equals_rank_on_near_dependencies(n, B, seed, shrink):
    rng = np.random.default_rng(seed)
    a = _plant(CC, rng, CC.sample(rng, (B, n + 1, n)), shrink)
    _, _, full_rank = left_inverse_stack(CC, a)
    for b in range(B):
        assert bool(full_rank[b]) == (rank(CC, a[b]) == n)


@pytest.mark.parametrize("field", (CC, PrimeField(7), PrimeField(65537)), ids=("complex", "gf7", "gf65537"))
def test_trimmed_eliminations_give_the_reference_bytes(field):
    # The normalized kernel makes fewer numpy calls per step than its
    # copy in tests/reference_kernels.py, and must give its bytes: E and
    # full_rank of square and tall stacks with planted exact and near
    # dependencies.
    # A stack of 12 matrices of 41 x 40 is updated in blocks of the
    # matrices that fit in linalg.CHUNK_BYTES (4 complex, 9 int64 ones).
    shapes = [(5, n + extra, n) for n in range(1, 8) for extra in (0, 1, 2)]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        for shape in shapes + [(12, 41, 40)] * (seed < 2):
            for shrink in (None, 1e-12, 3e-10, 1e-8, 1e-5) if field is CC else (None,):
                a = _plant(field, rng, field.sample(rng, shape), shrink)
                E, full_rank = _gauss_jordan_normalized(field, a)
                want_E, want_full_rank = reference_kernels.gauss_jordan_normalized(field, a)
                assert np.array_equal(full_rank, want_full_rank), (seed, shape, shrink)
                assert E.tobytes() == want_E.tobytes(), (seed, shape, shrink)


def test_rejects_non_square_stacks():
    with pytest.raises(DimensionMismatch):
        inverse_stack(PrimeField(7), np.ones((2, 3, 2), dtype=np.int64))
    with pytest.raises(DimensionMismatch):
        inverse_stack(PrimeField(7), np.eye(3, dtype=np.int64))


def test_one_matrix_stacks_invert_or_flag_singular():
    gf7 = PrimeField(7)
    inverses, nonsingular = inverse_stack(gf7, [[[2, 1], [1, 1]], [[1, 2], [2, 4]]])
    assert nonsingular.tolist() == [True, False]
    assert inverses[0].tolist() == [[1, 6], [6, 2]]
    _, nonsingular = inverse_stack(CC, [[[1.0, 0.0], [0.0, 1e-13]]])
    assert not nonsingular[0]


def _rank_loop_accepts(field, H, L):
    """Whether every L-row subset of H is independent: one rank call per subset."""
    return all(rank(field, H[list(rows)]) == L for rows in combinations(range(H.shape[0]), L))


def _draw_accepts(field, H) -> bool:
    """Whether ``draw_channel``'s check, the schedule's beams, accepts H."""
    try:
        _layout_beams(ChannelMatrix(field, H))
    except DegenerateChannel:
        return False
    return True


def _rank_loop_draw(K, L, seed, field, budget=DRAW_BUDGET):
    """(H, draws) as the rank loop accepts them; H is None if the budget ran out."""
    rng = np.random.default_rng(seed)
    for draws in range(1, budget + 1):
        H = field.sample_channel(rng, (K, L))
        if _rank_loop_accepts(field, H, L):
            return H, draws
    return None, budget


def _counted_draw(K, L, seed, field):
    """(H, draws) from draw_channel, counting its channel samples."""
    draws = 0
    sample = field.sample_channel

    def counting(rng, shape):
        nonlocal draws
        draws += 1
        return sample(rng, shape)

    field.sample_channel = counting
    try:
        return draw_channel(K, L, seed, field).H, draws
    except ResamplingExhausted:
        return None, draws
    finally:
        del field.sample_channel


@pytest.mark.parametrize("p", (3, 5, 7, 11, 65537, LARGEST_PRIME))
def test_draw_channel_matches_rank_loop_over_a_seed_grid(p):
    # In the full regime, L = K-1, the served groups are the channel
    # without one row each and every owner gain is a ratio of two
    # null-vector entries, so the draw's check asks exactly what the
    # rank loop asks of every L-row subset, sample by sample.
    field = PrimeField(p)
    for K in range(2, 9):
        for seed in range(4):
            want_H, want_draws = _rank_loop_draw(K, K - 1, seed, field)
            got_H, got_draws = _counted_draw(K, K - 1, seed, field)
            assert got_draws == want_draws, (p, K, seed)
            if want_H is None:
                assert got_H is None
            else:
                assert field.equal(got_H, want_H)


def test_complex_draw_channel_matches_rank_loop():
    for K in (2, 3, 4, 6, 8):
        for seed in range(3):
            want_H, want_draws = _rank_loop_draw(K, K - 1, seed, CC, budget=4)
            got_H, got_draws = _counted_draw(K, K - 1, seed, CC)
            assert got_draws == want_draws == 1
            assert CC.equal(got_H, want_H)


def test_complex_tall_check_is_never_looser_than_the_rank_loop():
    # At K = L+1 (the full regime) the draw's check reads one tall
    # elimination of all K rows; the last row is the sum of two others
    # plus noise of size eps. Over 42 seeds of this grid, the largest
    # |v_k| / max |v| on a draw the rank loop rejects was 4.6e-10,
    # against null_rtol = 1e-8.
    accepted = rejected = 0
    for L in (3, 4, 6, 8, 12):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            H = CC.sample_channel(rng, (L + 1, L))
            assert _rank_loop_accepts(CC, H, L)
            assert _draw_accepts(CC, H)
            for eps in 10.0 ** np.arange(-14, -2.5, 0.5):
                near = H.copy()
                near[-1] = H[0] + H[1] + eps * CC.sample(rng, L)
                if _rank_loop_accepts(CC, near, L):
                    accepted += 1
                else:
                    rejected += 1
                    assert not _draw_accepts(CC, near), (L, seed, eps)
    assert accepted and rejected


def test_channel_check_memory_stays_bounded():
    # At (20, 9) the draw's check eliminates the schedule's 12 parent
    # sets of 10 rows and forms 380 blocks' owner gains and shifts,
    # never a stack of C(20, 9) = 167,960 row subsets: with the layout
    # cached, a draw's traced peak stays below 1 MiB (0.17 MiB measured).
    field = PrimeField(65537)
    schedule_layout(20, 9)
    draw_channel(5, 3, 0, field)  # the field's table of inverses, built once
    tracemalloc.start()
    try:
        draw_channel(20, 9, 12, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_draw_channel_at_20_9_keeps_its_draws():
    # Seed 11 accepts its first sample; the digest pins the accepted
    # channel's bytes.
    H, draws = _counted_draw(20, 9, 11, PrimeField(65537))
    assert draws == 1
    digest = hashlib.sha256(np.ascontiguousarray(H, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "ac263fae56d6fde4eb4068721777c4ff11979f4e328f84375987fb85bb4e24bd"
