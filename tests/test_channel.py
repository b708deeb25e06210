"""Channel draws, reception, and receiver-side decoding."""

import numpy as np
import pytest

from mscache import (
    ComplexField,
    DemandVector,
    DimensionMismatch,
    InconsistentInputs,
    Library,
    LibraryConfig,
    PrimeField,
    ResamplingExhausted,
    build_schedule,
    decode_all,
    decode_user,
    draw_channel,
    place_caches,
    random_library,
    receive,
)
from mscache.content import CacheContent

GF = PrimeField(65537)
GF7 = PrimeField(7)
CC = ComplexField()


def _int_det(mat) -> int:
    """Cofactor-expansion determinant over plain Python ints."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for c in range(n):
        minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
        term = mat[0][c] * _int_det(minor)
        total += term if c % 2 == 0 else -term
    return total


def test_draw_scalar_channel():
    H = draw_channel(1, 1, seed=0, field=GF7)
    assert H.K == 1 and H.L == 1
    assert int(H.H[0, 0]) % 7 != 0


def test_draw_determinism():
    a = draw_channel(4, 3, seed=11, field=GF)
    b = draw_channel(4, 3, seed=11, field=GF)
    c = draw_channel(4, 3, seed=12, field=GF)
    assert GF.equal(a.H, b.H)
    assert not GF.equal(a.H, c.H)


def test_draw_all_row_subsets_invertible():
    # independent oracle: exact integer determinants of every 4-row minor
    from itertools import combinations

    H = draw_channel(5, 4, seed=3, field=GF)
    rows = [[int(x) for x in r] for r in H.H]
    for subset in combinations(range(5), 4):
        sub = [rows[r] for r in subset]
        assert _int_det(sub) % 65537 != 0
    Hc = draw_channel(5, 4, seed=3, field=CC)
    rc = [list(r) for r in Hc.H]
    for subset in combinations(range(5), 4):
        sub = np.array([rc[r] for r in subset])
        assert abs(np.linalg.det(sub)) > 1e-9


def test_draw_exhaustion_when_no_generic_channel_exists():
    # over GF(2) there are only three nonzero length-2 rows, so four
    # pairwise independent rows cannot exist
    with pytest.raises(ResamplingExhausted):
        draw_channel(4, 2, seed=0, field=PrimeField(2), budget=16)


def test_draw_rejects_bad_shape():
    with pytest.raises(InconsistentInputs):
        draw_channel(0, 1, seed=0, field=GF)
    with pytest.raises(InconsistentInputs):
        draw_channel(3, 0, seed=0, field=GF)


def test_receive_matches_direct_products():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=5)
    H = draw_channel(4, 3, seed=6, field=GF)
    d = DemandVector([1, 3, 0, 2])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    assert len(log.per_block) == len(sched.blocks)
    for b, block in enumerate(sched.blocks):
        for k in range(4):
            direct = GF.matmul(H.H[k], block.signal)
            assert GF.equal(log.per_block[b][k], direct)


def test_receive_zero_signal_gives_zero_reception():
    H = draw_channel(3, 2, seed=1, field=GF)

    class _Stub:
        signals = GF.zeros((1, 2, 5))

    log = receive(H, _Stub())
    assert GF.equal(log.per_block[0], GF.zeros((3, 5)))


def test_receive_dimension_mismatch():
    H = draw_channel(3, 2, seed=1, field=GF)

    class _Stub:
        signals = GF.zeros((1, 3, 5))

    with pytest.raises(DimensionMismatch):
        receive(H, _Stub())


def test_reception_is_linear_in_the_library():
    cfg = LibraryConfig(N=4, K=4, L=2, F=8)
    H = draw_channel(4, 2, seed=7, field=GF)
    d = DemandVector([3, 2, 1, 0])
    lib_a = random_library(GF, 4, 8, seed=70)
    lib_b = random_library(GF, 4, 8, seed=71)
    lib_sum = Library(GF, GF.add(lib_a.data, lib_b.data))
    logs = [
        receive(H, build_schedule(d, H, lib, cfg))
        for lib in (lib_a, lib_b, lib_sum)
    ]
    for ya, yb, ys in zip(logs[0].per_block, logs[1].per_block, logs[2].per_block):
        assert GF.equal(ys, GF.add(ya, yb))


def test_decode_full_antennas_end_to_end():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=9)
    H = draw_channel(4, 3, seed=10, field=GF)
    d = DemandVector([2, 3, 1, 0])
    sched = build_schedule(d, H, lib, cfg)
    caches = place_caches(lib, cfg)
    results = decode_all(d, caches, receive(H, sched), H, sched)
    for k, res in enumerate(results):
        assert res.user == k
        assert res.success
        assert GF.equal(res.data, lib.data[d[k]])


def test_decode_reduced_end_to_end():
    cfg = LibraryConfig(N=7, K=7, L=3, F=42)
    lib = random_library(GF, 7, 42, seed=13)
    H = draw_channel(7, 3, seed=14, field=GF)
    d = DemandVector([6, 4, 2, 0, 5, 3, 1])
    sched = build_schedule(d, H, lib, cfg)
    results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
    assert all(r.success for r in results)


def test_decode_every_supported_pair():
    # one seeded run per (N, L) the scheduler accepts, N <= 9
    pairs = [(N, N - 1) for N in range(2, 10)]
    pairs += [
        (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3),
        (6, 1), (6, 2), (6, 4), (7, 1), (7, 2), (7, 3), (7, 5),
        (8, 1), (8, 2), (8, 3), (8, 6),
        (9, 1), (9, 2), (9, 3), (9, 4), (9, 7),
    ]
    for N, L in pairs:
        F = N if L == N - 1 else N * L
        cfg = LibraryConfig(N=N, K=N, L=L, F=F)
        lib = random_library(GF, N, F, seed=N * 16 + L)
        H = draw_channel(N, L, seed=N + L, field=GF)
        d = DemandVector(np.random.default_rng(N - L).permutation(N))
        sched = build_schedule(d, H, lib, cfg)
        results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
        for k, res in enumerate(results):
            assert res.success, f"(N={N}, L={L}) user {k}"
            assert GF.equal(res.data, lib.data[d[k]])


def test_decode_complex_mode():
    cfg = LibraryConfig(N=5, K=5, L=4, F=10)
    lib = random_library(CC, 5, 10, seed=21)
    H = draw_channel(5, 4, seed=22, field=CC)
    d = DemandVector([4, 0, 3, 1, 2])
    sched = build_schedule(d, H, lib, cfg)
    results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
    for k, res in enumerate(results):
        assert res.success
        assert np.max(np.abs(res.data - lib.data[d[k]])) < 1e-6


def test_decode_inconsistent_inputs():
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=30)
    H = draw_channel(4, 3, seed=31, field=GF)
    d = DemandVector([0, 1, 2, 3])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    with pytest.raises(InconsistentInputs):
        decode_user(0, DemandVector([1, 0, 2, 3]), caches[0], log, H, sched)
    other_H = draw_channel(4, 3, seed=99, field=GF)
    with pytest.raises(InconsistentInputs):
        decode_user(0, d, caches[0], log, other_H, sched)
    truncated = type(log)(GF, log.per_block[:-1])
    with pytest.raises(InconsistentInputs):
        decode_user(0, d, caches[0], truncated, H, sched)
    with pytest.raises(InconsistentInputs):
        decode_user(7, d, caches[0], log, H, sched)
    short_cache = CacheContent(user=0, payload=caches[0].payload[:-1])
    with pytest.raises(InconsistentInputs):
        decode_user(0, d, short_cache, log, H, sched)
    # decode_all: a missing cache, a log with fewer than K user rows, and
    # caches out of user order.
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches[:-1], log, H, sched)
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches, type(log)(GF, log.per_block[:, :-1]), H, sched)
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches[::-1], log, H, sched)


def test_decode_fails_on_a_single_flipped_symbol():
    # Decoded files and library rows are canonical residues, which the
    # comparison reads without copying; one wrong symbol must still fail.
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=51)
    H = draw_channel(4, 3, seed=52, field=GF)
    d = DemandVector([1, 2, 3, 0])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    k = 2
    assert decode_user(k, d, caches[k], log, H, sched).success
    first_served = int(np.argmax((sched.layout.groups == k).any(axis=1)))
    for b in (first_served, k * sched.layout.transmissions):
        rx = log.per_block.copy()
        rx[b, k, 1] = (rx[b, k, 1] + 1) % GF.p  # a served row, then k's own row
        res = decode_user(k, d, caches[k], type(log)(GF, rx), H, sched)
        assert not res.success
        assert np.count_nonzero(res.data != lib.data[d[k]]) == 1


def test_cache_is_necessary():
    # a receiver with a blanked cache gets every row right except its
    # own, which is exactly the part only the cache can supply
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=41)
    H = draw_channel(4, 3, seed=42, field=GF)
    d = DemandVector([3, 0, 1, 2])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    k = 1
    blank = CacheContent(user=k, payload=GF.zeros(cfg.subfile_symbols))
    res = decode_user(k, d, blank, log, H, sched)
    assert not res.success
    truth = lib.data[d[k]]
    sz = cfg.subfile_symbols
    for i in range(4):
        seg_ok = GF.equal(res.data[i * sz : (i + 1) * sz], truth[i * sz : (i + 1) * sz])
        assert seg_ok == (i != k)


@pytest.mark.parametrize("N, L", [(16, 15), (17, 5)])
def test_decode_all_is_one_matmul(monkeypatch, N, L):
    # Every user of every row decodes in one product.
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(GF, N, cfg.F, seed=N)
    H = draw_channel(N, L, seed=L, field=GF)
    d = DemandVector(np.random.default_rng(N).permutation(N))
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    calls = []
    matmul = GF.matmul

    def counting(*args, **kwargs):
        calls.append(args)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(GF, "matmul", counting)
    results = decode_all(d, caches, log, H, sched)
    assert len(calls) == 1
    assert all(res.success for res in results)
