"""The batched kernels against the scalar elimination.

``inverse_stack`` must make exactly the decisions of ``rank`` on every
matrix of a stack, in both field modes, and its GF inverses must be
exact. The channel check, a sweep over null spaces of row prefixes,
must accept exactly the draws the per-subset rank loop accepts in GF,
and never a draw that loop rejects in complex mode; the loop is kept
here as the reference.
"""

import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mscache.channel as channel
from mscache import (
    ComplexField,
    DimensionMismatch,
    PrimeField,
    ResamplingExhausted,
    draw_channel,
    inverse_stack,
    rank,
)
from mscache.linalg import left_inverse_stack

CC = ComplexField()
PRIMES = (2, 3, 5, 7, 65537)
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


def _rank_loop_generic(field, H, L):
    """The channel check before the batched kernel: one rank call per subset."""
    K = H.shape[0]
    for rows in combinations(range(K), min(L, K)):
        if rank(field, H[list(rows), :]) < len(rows):
            return False
    return True


def _rank_loop_draw(K, L, seed, field, budget):
    """(H, draws) as the rank-loop check accepts them; H is None if the budget ran out."""
    rng = np.random.default_rng(seed)
    for draws in range(1, budget + 1):
        H = field.sample_channel(rng, (K, L))
        if _rank_loop_generic(field, H, L):
            return H, draws
    return None, budget


def _counted_draw(K, L, seed, field, budget):
    """(H, draws) from draw_channel, counting its channel samples."""
    draws = 0
    sample = field.sample_channel

    def counting(rng, shape):
        nonlocal draws
        draws += 1
        return sample(rng, shape)

    field.sample_channel = counting
    try:
        return draw_channel(K, L, seed, field, budget).H, draws
    except ResamplingExhausted:
        return None, draws
    finally:
        del field.sample_channel


@pytest.mark.parametrize("p", (3, 5, 7, 11, 65537))
def test_draw_channel_matches_rank_loop_over_a_seed_grid(p):
    field = PrimeField(p)
    for K in range(1, 7):
        for L in range(1, K + 2):
            for seed in range(4):
                want_H, want_draws = _rank_loop_draw(K, L, seed, field, budget=8)
                got_H, got_draws = _counted_draw(K, L, seed, field, budget=8)
                assert got_draws == want_draws, (p, K, L, seed)
                if want_H is None:
                    assert got_H is None
                else:
                    assert field.equal(got_H, want_H)


def test_complex_draw_channel_matches_rank_loop():
    for K, L in ((4, 3), (6, 2), (7, 5), (2, 3)):
        for seed in range(3):
            want_H, want_draws = _rank_loop_draw(K, L, seed, CC, budget=4)
            got_H, got_draws = _counted_draw(K, L, seed, CC, budget=4)
            assert got_draws == want_draws == 1
            assert CC.equal(got_H, want_H)


def test_channel_check_spans_several_chunks(monkeypatch):
    # A singular subset in a late chunk must still reject the draw.
    import mscache.channel as channel

    monkeypatch.setattr(channel, "CHUNK_BYTES", 4 * 3 * 3 * 8)  # one or two prefixes a chunk
    field = PrimeField(65537)
    H = field.sample_channel(np.random.default_rng(1), (7, 3))
    assert channel._generic(field, H, 3)
    H[6] = field.add(H[4], H[5])  # subset (4, 5, 6) comes last
    assert not channel._generic(field, H, 3)
    assert not _rank_loop_generic(field, H, 3)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7, 11, 65537)),
    KL=st.integers(1, 8).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K + 1))),
    plant=st.booleans(),
    seed=SEEDS,
)
def test_gf_prefix_sweep_equals_rank_loop(p, KL, plant, seed):
    # A planted row is a combination of at most L - 1 others (a zero row
    # when none), so some L-subset, or H itself if K < L, is singular.
    K, L = KL
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    H = field.sample_channel(rng, (K, L))
    if plant:
        j = int(rng.integers(K))
        others = [r for r in range(K) if r != j]
        picked = rng.choice(others, size=int(rng.integers(0, min(L - 1, K - 1) + 1)), replace=False)
        H[j] = field.matmul(field.sample(rng, len(picked)), H[picked]) if len(picked) else 0
    verdict = channel._generic(field, H, L)
    assert verdict == _rank_loop_generic(field, H, L)
    assert not (plant and verdict)


def test_complex_check_is_never_looser_than_the_rank_loop():
    # The last row is the sum of two others plus noise of size eps: the
    # rank loop rejects the small eps, and the sweep must reject them too.
    accepted = rejected = 0
    for K, L in ((4, 3), (6, 4), (7, 5), (9, 4)):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            H = CC.sample_channel(rng, (K, L))
            assert _rank_loop_generic(CC, H, L)
            assert channel._generic(CC, H, L)
            for eps in 10.0 ** np.arange(-14, -2.5, 0.5):
                near = H.copy()
                near[-1] = H[0] + H[1] + eps * CC.sample(rng, L)
                if _rank_loop_generic(CC, near, L):
                    accepted += 1
                else:
                    rejected += 1
                    assert not channel._generic(CC, near, L), (K, L, seed, eps)
    assert accepted and rejected


def test_complex_tall_check_is_never_looser_than_the_rank_loop():
    # At K = L+1 the check is one tall elimination's; the last row is the
    # sum of two others plus noise of size eps, as above. Over 42 seeds
    # of this grid, the largest |v_k| / max |v| on a draw the rank loop
    # rejects was 4.6e-10, against null_rtol = 1e-8.
    accepted = rejected = 0
    for L in (3, 4, 6, 8, 12):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            H = CC.sample_channel(rng, (L + 1, L))
            assert _rank_loop_generic(CC, H, L)
            assert channel._generic(CC, H, L)
            for eps in 10.0 ** np.arange(-14, -2.5, 0.5):
                near = H.copy()
                near[-1] = H[0] + H[1] + eps * CC.sample(rng, L)
                if _rank_loop_generic(CC, near, L):
                    accepted += 1
                else:
                    rejected += 1
                    assert not channel._generic(CC, near, L), (L, seed, eps)
    assert accepted and rejected


def test_channel_check_memory_stays_bounded():
    # One full sweep over the C(20, 9) = 167,960 subsets of a generic draw.
    field = PrimeField(65537)
    H = draw_channel(20, 9, 12, field).H
    tracemalloc.start()
    try:
        assert channel._generic(field, H, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_draw_channel_at_20_9_keeps_its_draws():
    # Seed 11 rejects its first draw and accepts its second; the digest
    # pins the accepted channel's bytes.
    H, draws = _counted_draw(20, 9, 11, PrimeField(65537), budget=channel.DRAW_BUDGET)
    assert draws == 2
    digest = hashlib.sha256(np.ascontiguousarray(H, dtype=np.int64).tobytes()).hexdigest()
    assert digest == "4aa478e7ea4939c2c1d2511011d30857ee3611bdedaddb3d7b2e96cb4ce575b5"
