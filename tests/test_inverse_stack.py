"""The batched kernels against the scalar elimination.

``inverse_stack`` must make exactly the decisions of ``rank`` on every
matrix of a stack, in both field modes, and its GF inverses must be
exact; in GF the division-free kernel must give the normalized one's
bytes. The channel check (minor condensation in GF at K >= L+2, a sweep
over null spaces of row prefixes otherwise) must accept exactly the
draws the per-subset rank loop accepts in GF, and never a draw that
loop rejects in complex mode; the loop is kept here as the reference.
The normalized kernel and the sweep must also give the bytes of their
earlier, untrimmed copies in ``reference_kernels``.
"""

import gc
import hashlib
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels

import mscache.channel as channel
from mscache import (
    CheckTooLarge,
    ComplexField,
    DimensionMismatch,
    PrimeField,
    ResamplingExhausted,
    SimulatorError,
    draw_channel,
    inverse_stack,
    rank,
)
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
    # The normalized kernel and the prefix sweep make fewer numpy calls
    # per step than the copies in tests/reference_kernels.py, and must
    # give their bytes: E and full_rank of square and tall stacks with
    # planted exact and near dependencies, and the sweep's verdict on
    # random and near-dependent channels (last row the sum of two others
    # plus noise of size eps).
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
    if field is not CC:
        return
    verdicts = set()
    for K, L in ((4, 2), (6, 4), (9, 4), (12, 5), (10, 3)):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            H = CC.sample_channel(rng, (K, L))
            for eps in (None, *10.0 ** np.arange(-14, -2.5, 0.5)):
                near = H.copy()
                if eps is not None:
                    near[-1] = H[0] + H[1] + eps * CC.sample(rng, L)
                verdict = channel._prefix_sweep(CC, near, L)
                assert verdict == reference_kernels.prefix_sweep(CC, near, L), (K, L, seed, eps)
                verdicts.add(verdict)
    assert verdicts == {True, False}


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


@pytest.mark.parametrize("p", (3, 5, 7, 11, 65537, LARGEST_PRIME))
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
    for K, L in ((4, 3), (6, 2), (7, 5), (2, 3), (2, 5), (3, 6)):
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


def _sweep_grid():
    """(field, H, L) cases of the channel check: complex mode at K >= L+2,
    where it runs the prefix sweep, and GF at K < L, where it takes the
    rank, each as drawn and, where K >= 3, with one row replaced by the
    sum of two others."""
    for field, pairs in ((CC, ((4, 2), (6, 3), (7, 4), (9, 4), (12, 5))),
                         (PrimeField(7), ((1, 3), (2, 5), (3, 5), (4, 7))),
                         (PrimeField(65537), ((2, 3), (3, 6), (5, 9)))):
        for K, L in pairs:
            for seed in range(3):
                H = field.sample_channel(np.random.default_rng(seed), (K, L))
                yield field, H, L
                if K >= 3:
                    planted = H.copy()
                    planted[seed % K] = field.add(H[(seed + 1) % K], H[(seed + 2) % K])
                    yield field, planted, L


def test_sweep_verdicts_are_the_same_with_a_cold_or_a_warm_memo():
    # The walk's channel-free steps are memoized; a verdict must not
    # depend on whether they were built for this draw or an earlier one.
    cases = list(_sweep_grid())
    channel._sweep_step.cache_clear()
    cold = []
    for field, H, L in cases:
        channel._sweep_step.cache_clear()
        cold.append(channel._generic(field, H, L))
    warm = [channel._generic(field, H, L) for field, H, L in cases]
    assert channel._sweep_step.cache_info().hits
    assert warm == cold == [_rank_loop_generic(field, H, L) for field, H, L in cases]
    assert True in cold and False in cold


def test_sweep_never_reuses_a_step_of_another_chunk_size(monkeypatch):
    # Steps built under the default chunk size are warm; under a patched
    # one every step the sweep takes must be the one built for it.
    H = CC.sample_channel(np.random.default_rng(2), (9, 4))
    assert channel._generic(CC, H, 4)
    original = channel._sweep_step
    taken = []

    def recording(*key):
        taken.append((key, original(*key)))
        return taken[-1][1]

    monkeypatch.setattr(channel, "CHUNK_BYTES", 2048)  # one to seven prefixes a pop
    monkeypatch.setattr(channel, "_sweep_step", recording)
    assert channel._generic(CC, H, 4)
    H[4] = CC.add(H[0], H[3])
    assert not channel._generic(CC, H, 4)
    assert len(taken) > 2
    for key, step in taken:
        assert key[4] == channel.CHUNK_BYTES
        fresh = original.__wrapped__(*key)
        for got, want in zip(step, fresh):
            assert np.array_equal(got, want) if isinstance(got, np.ndarray) else got == want


def _cached_steps():
    """(key, step) pairs that ``_sweep_step``'s cache holds, read from
    the references of CPython's lru_cache."""
    refs = gc.get_referents(channel._sweep_step)
    keys = [r for r in refs if type(r) is tuple and len(r) == 6 and isinstance(r[5], bytes)]
    steps = [r for r in refs if isinstance(r, channel._SweepStep)]
    assert len(keys) == len(steps) == channel._sweep_step.cache_info().currsize
    return list(zip(keys, steps))


def _step_bytes(key, step) -> int:
    """Bytes of a cached step's arrays and keys, its pop's key included."""
    arrays = sum(x.nbytes for x in step if isinstance(x, np.ndarray))
    return len(key[5]) + arrays + sum(len(x) for x in step if isinstance(x, bytes))


def test_sweep_memo_is_read_only_and_bounded():
    # Sweeps at many (K, L) hold at most SWEEP_STEPS steps, each of at
    # most 48 max(K, CHUNK_BYTES // (8 L)) bytes, as _sweep_step says.
    channel._sweep_step.cache_clear()
    pairs = [(K, L) for K in range(4, 15) for L in range(2, K - 1)]
    for K, L in pairs:
        H = CC.sample_channel(np.random.default_rng(K * L), (K, L))
        assert channel._generic(CC, H, L)
    info = channel._sweep_step.cache_info()
    assert info.misses > channel.SWEEP_STEPS
    assert info.currsize == channel.SWEEP_STEPS
    cached = _cached_steps()
    for key, step in cached:
        K, L, chunk = key[0], key[1], key[4]
        assert _step_bytes(key, step) <= 48 * max(K, chunk // (8 * L))
        for a in (step.parent, step.pick, step.first):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
    total = sum(_step_bytes(key, step) for key, step in cached)
    assert total <= channel.SWEEP_STEPS * 6 * channel.CHUNK_BYTES


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((3, 5, 7, 11, 65537, LARGEST_PRIME)),
    KL=st.integers(1, 10).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K + 3))),
    plant=st.booleans(),
    seed=SEEDS,
)
def test_gf_prefix_sweep_equals_rank_loop(p, KL, plant, seed):
    # A planted row is a combination of at most L - 1 others (a zero row
    # when none), so some L-subset, or H itself if K < L, is singular.
    # At K >= L+2 the check condenses minors, up to order 5 at K = 10.
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
    # At (20, 9) the GF check condenses the minors of A = H[9:] H[:9]^-1
    # (11 x 9), C(20, 9) - 1 = 167,959 of them, and keeps three orders at
    # a time: the largest three hold 138,600 minors (1.1 MiB), and its
    # temporaries are blocks of CHUNK_BYTES, so the traced peak of a
    # generic draw's whole check stays below 4 MiB.
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


@pytest.mark.parametrize("K, L", ((40, 36), (101, 99)))
def test_condensation_rejects_a_dependency_planted_in_one_subset(K, L):
    # The chosen subset holds every row past the first L and the rest
    # from the first L, so the minor that vanishes has the highest order,
    # K - L: the subset's last row becomes a combination of its others.
    field = PrimeField(65537)
    rng = np.random.default_rng(K)
    H = draw_channel(K, L, 0, field).H.copy()
    first = rng.choice(L, size=2 * L - K, replace=False)
    subset = np.sort(np.concatenate([first, np.arange(L, K)]))
    H[K - 1] = field.matmul(field.sample_channel(rng, L - 1), H[subset[:-1]])
    assert rank(field, H[subset]) < L
    assert not channel._generic(field, H, L)


def test_accepted_draw_at_40_36_has_invertible_subsets():
    field = PrimeField(65537)
    H = draw_channel(40, 36, 3, field).H
    rng = np.random.default_rng(3)
    for _ in range(50):
        rows = np.sort(rng.choice(40, size=36, replace=False))
        assert rank(field, H[rows]) == 36


def test_condensation_memory_stays_at_three_orders():
    # At (24, 11) the minors of A (13 x 11) of orders 5, 6 and 7 are the
    # three largest consecutive orders: 1.95M minors, 14.9 MiB in int64.
    # The check keeps only three orders at a time, and its temporaries
    # are blocks of CHUNK_BYTES, so the traced peak stays below 24 MiB.
    field = PrimeField(LARGEST_PRIME)
    H = field.sample_channel(np.random.default_rng(3), (24, 11))
    tracemalloc.start()
    try:
        assert channel._generic(field, H, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def _planted_grid(field, pairs, seeds):
    """(H, L, verdict) cases of the condensation at K >= L+2 with the
    rank loop's verdict: each draw as it is, and for each order u of A's
    minors, with a row past the first L made a combination of L - 1
    others, u - 1 of them also past the first L. That subset is
    singular, so the loop refuses the draw; on a generic draw it is the
    only singular one, and the first minor to vanish has order u."""
    for K, L in pairs:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            H = field.sample_channel(rng, (K, L))
            yield H, L, _rank_loop_generic(field, H, L)
            for u in range(1, min(K - L, L) + 1):
                first = rng.choice(L, size=L - u, replace=False)
                rest = rng.choice(np.arange(L, K), size=u, replace=False)
                planted = H.copy()
                others = np.concatenate([first, rest[1:]])
                planted[rest[0]] = field.matmul(field.sample_channel(rng, L - 1), H[others])
                assert rank(field, planted[np.append(others, rest[0])]) < L
                yield planted, L, False


@pytest.mark.parametrize("p", (3, 7, 65537, LARGEST_PRIME))
def test_condensation_routes_give_the_rank_loops_verdicts(monkeypatch, p):
    # Each order runs through its plan or through blocked gathers, by the
    # one-block bound: 0 blocks every order and 2**40 plans every order.
    # 40 and 230 switch routes inside one check: at (12, 6), whose orders
    # 2-6 hold 225, 400, 225, 36 and 1 minors, 40 plans orders 5 and 6,
    # and 230 plans orders 2, 4, 5 and 6 around a blocked order 3. The
    # blocks are 64 minors, so a blocked order takes several.
    field = PrimeField(p)
    cases = list(_planted_grid(field, ((6, 2), (8, 3), (9, 4), (10, 5), (12, 6)), range(2)))
    want = [verdict for _, _, verdict in cases]
    monkeypatch.setattr(channel, "CHUNK_BYTES", 2048)
    for bound in (0, 40, 230, 1 << 40):
        monkeypatch.setattr(channel, "PLANNED_MINORS", bound)
        assert [channel._generic(field, H, L) for H, L, _ in cases] == want, bound
    if p > 7:
        assert True in want and False in want


def test_condensation_switches_routes_inside_one_check_at_20_9(monkeypatch):
    # A is 11 x 9, condensed as 9 x 11: orders 2, 8 and 9 hold 1980, 1485
    # and 55 minors and are planned; orders 3-7 hold 11,880 to 58,212 and
    # are gathered block by block. A dependency planted in a subset of u
    # rows past the first 9 first zeroes a minor of order u: planned at 2
    # and 9, blocked at 5. Every route must refuse each.
    planned = []
    plan = channel._order_plan
    monkeypatch.setattr(channel, "_order_plan", lambda *key: planned.append(key[2]) or plan(*key))
    default = channel.PLANNED_MINORS
    for p in (65537, LARGEST_PRIME):
        field = PrimeField(p)
        H = draw_channel(20, 9, 12, field).H
        planned.clear()
        assert channel._generic(field, H, 9)
        assert planned == [2, 8, 9]
        rng = np.random.default_rng(p)
        for u in (2, 5, 9):
            rest = rng.choice(np.arange(9, 20), size=u, replace=False)
            others = np.concatenate([np.arange(9 - u), rest[1:]])
            bad = H.copy()
            bad[rest[0]] = field.matmul(field.sample_channel(rng, 8), H[others])
            assert rank(field, bad[np.append(others, rest[0])]) < 9
            for bound in (0, default, 1 << 40):
                monkeypatch.setattr(channel, "PLANNED_MINORS", bound)
                assert not channel._generic(field, bad, 9), (p, u, bound)
            monkeypatch.setattr(channel, "PLANNED_MINORS", default)
    # Plans of orders past the one-block bound leave the memo.
    plan.cache_clear()


def test_order_plan_memo_is_read_only_and_bounded():
    # Checks at many (K, L) hold at most ORDER_PLANS plans, each of an
    # order within the one-block bound at 40 bytes a minor, as
    # _order_plan says; a cold and a warm memo give the same verdicts,
    # the rank loop's where K <= 10.
    field = PrimeField(LARGEST_PRIME)
    cases = list(_planted_grid(field, [(K, L) for K in range(6, 11) for L in range(2, K - 1)], [0]))
    for K in range(11, 17):
        for L in range(2, K - 1):
            cases.append((field.sample_channel(np.random.default_rng(K * L), (K, L)), L, None))
    cold = []
    for H, L, _ in cases:
        channel._order_plan.cache_clear()
        cold.append(channel._generic(field, H, L))
    channel._order_plan.cache_clear()
    warm = [channel._generic(field, H, L) for H, L, _ in cases]
    info = channel._order_plan.cache_info()
    assert info.hits and info.misses > channel.ORDER_PLANS
    assert info.currsize == channel.ORDER_PLANS
    plans = [r for r in gc.get_referents(channel._order_plan) if isinstance(r, channel._OrderPlan)]
    assert len(plans) == info.currsize
    for plan in plans:
        n = plan.divisors.size
        assert plan.terms.shape == (4, n) and n <= channel.PLANNED_MINORS
        assert plan.terms.nbytes + plan.divisors.nbytes == 40 * n
        for a in plan:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
    assert warm == cold
    checked = [(got, want) for got, (_, _, want) in zip(cold, cases) if want is not None]
    assert all(got == want for got, want in checked)
    assert True in cold and False in cold


def _predicted(K, L):
    return channel._condensation_bytes(
        min(K - L, L), max(K - L, L), channel.CHUNK_BYTES, channel.PLANNED_MINORS
    )


def test_condensation_past_its_budget_refuses_before_any_work():
    # At (40, 13) the condensation of A (27 x 13) would keep orders of up
    # to 1.5 billion minors, about 64 GiB. The check refuses at once,
    # whatever the draw, with a typed error naming the pair, the
    # predicted bytes and the budget.
    field = PrimeField(LARGEST_PRIME)
    tracemalloc.start()
    try:
        with pytest.raises(CheckTooLarge) as refused:
            draw_channel(40, 13, 0, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert isinstance(refused.value, SimulatorError)
    budget = channel.CONDENSATION_CHUNKS * channel.CHUNK_BYTES
    need = _predicted(40, 13)
    assert need > 64 << 30
    for part in ("(40, 13)", str(need), str(budget)):
        assert part in str(refused.value)
    # (26, 12) and (30, 12) would peak near 56 and 491 MiB; the pairs that
    # the other tests condense fit.
    assert _predicted(26, 12) > budget and _predicted(30, 12) > budget
    for K, L in ((17, 5), (20, 9), (24, 11), (40, 36), (101, 99)):
        assert _predicted(K, L) <= budget


@pytest.mark.parametrize("K, L", ((20, 6), (20, 9), (22, 10), (40, 36), (60, 56)))
def test_condensation_peak_stays_within_its_prediction(K, L):
    # With its plans and index maps built cold, a passing check's traced
    # peak stays below the prediction the budget is held to.
    field = PrimeField(LARGEST_PRIME)
    H = field.sample_channel(np.random.default_rng(K), (K, L))
    channel._order_plan.cache_clear()
    channel._condensation_maps.cache_clear()
    tracemalloc.start()
    try:
        assert channel._generic(field, H, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _predicted(K, L)
