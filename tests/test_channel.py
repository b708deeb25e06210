"""Channel draws, reception, and receiver-side decoding."""

import dataclasses
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mscache.channel as channel
from mscache import (
    ChannelMatrix,
    ComplexField,
    DemandVector,
    DimensionMismatch,
    InconsistentInputs,
    Library,
    LibraryConfig,
    PrimeField,
    ResamplingExhausted,
    WrongRegime,
    build_schedule,
    decode_all,
    draw_channel,
    place_caches,
    random_library,
    receive,
)
from mscache.content import CacheContent
from mscache.delivery import schedule_layout
from reference_kernels import inverse_stack

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
    # The smallest supported pair: two users, one antenna, each user's
    # channel a nonzero scalar.
    H = draw_channel(2, 1, seed=0, field=GF7)
    assert H.K == 2 and H.L == 1
    assert all(int(h) % 7 != 0 for h in H.H[:, 0])


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


def test_draw_exhaustion_when_no_schedulable_channel_exists():
    # over GF(2) every channel entry is 1, so any two rows are equal and
    # no served pair of users is independent
    with pytest.raises(ResamplingExhausted):
        draw_channel(4, 2, seed=0, field=PrimeField(2))


def test_draw_rejects_bad_shape(monkeypatch):
    # An unsupported (N, L) is refused before any channel is sampled:
    # (30, 12) has no schedule, since its 29 users cannot be tiled by
    # segments of 12 and 13.
    field = PrimeField(65537)

    def sample(rng, shape):
        raise AssertionError(f"sampled a {shape} channel")

    monkeypatch.setattr(field, "sample_channel", sample, raising=False)
    for N, L in ((0, 1), (3, 0), (30, 12)):
        with pytest.raises(WrongRegime):
            draw_channel(N, L, seed=0, field=field)


@pytest.mark.parametrize("N, L, p", [(40, 13, 536870909), (26, 12, 65537)])
def test_draw_answers_pairs_whose_row_subsets_are_too_many_to_check(N, L, p):
    # C(40, 13) = 1.2e10 and C(26, 12) = 9.7e6 row subsets; the draw asks
    # only the schedule's groups and owner gains of its samples.
    field = PrimeField(p)
    H = draw_channel(N, L, seed=0, field=field)
    assert (H.K, H.L) == (N, L)
    layout = schedule_layout(N, L)
    assert inverse_stack(field, H.H[layout.groups])[1].all()


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


def test_array_holding_records_compare_by_identity():
    # Default dataclass equality over ndarray fields raises in ==, and a
    # frozen dataclass with it hashes those arrays; these records compare
    # and hash as objects instead.
    cfg = LibraryConfig(N=4, K=4, L=2, F=8)
    lib = random_library(GF, 4, 8, seed=3)
    H = draw_channel(4, 2, seed=4, field=GF)
    d = DemandVector([1, 0, 3, 2])
    sched = build_schedule(d, H, lib, cfg)
    caches = place_caches(lib, cfg)
    log = receive(H, sched)
    result = decode_all(d, caches, log, H, sched)[0]
    twins = [
        (H, ChannelMatrix(GF, H.H)),
        (lib, Library(GF, lib.data)),
        (log, receive(H, sched)),
        (result, decode_all(d, caches, log, H, sched)[0]),
        (caches[0], CacheContent(user=0, payload=caches[0].payload.copy())),
    ]
    for a, b in twins:
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


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
        decode_all(DemandVector([1, 0, 2, 3]), caches, log, H, sched)
    other_H = draw_channel(4, 3, seed=99, field=GF)
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches, log, other_H, sched)
    truncated = type(log)(GF, log.per_block[:-1])
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches, truncated, H, sched)
    short_cache = CacheContent(user=0, payload=caches[0].payload[:-1])
    with pytest.raises(InconsistentInputs):
        decode_all(d, [short_cache] + caches[1:], log, H, sched)
    # A missing cache, a log with fewer than K user rows, and caches out
    # of user order.
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches[:-1], log, H, sched)
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches, type(log)(GF, log.per_block[:, :-1]), H, sched)
    with pytest.raises(InconsistentInputs):
        decode_all(d, caches[::-1], log, H, sched)
    # A log over another field, complex or GF(7), whose values are
    # residues mod 65537 too: refused, not met by numpy's casting error
    # or by every user failing.
    for other in (type(log)(CC, log.per_block.astype(np.complex128)),
                  type(log)(GF7, log.per_block % GF7.p)):
        with pytest.raises(InconsistentInputs, match="reception log over"):
            decode_all(d, caches, other, H, sched)


def test_decode_refuses_caches_of_a_foreign_dtype():
    # Complex or fractional caches under a GF schedule cannot enter its
    # int64 residues: a typed refusal, not numpy's casting TypeError.
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=32)
    H = draw_channel(4, 3, seed=33, field=GF)
    d = DemandVector([3, 1, 0, 2])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    for dtype in (np.complex128, np.float64):
        foreign = [CacheContent(Z.user, Z.payload.astype(dtype)) for Z in caches]
        with pytest.raises(InconsistentInputs, match=f"cache of dtype {np.dtype(dtype)}"):
            decode_all(d, foreign, log, H, sched)
        with pytest.raises(InconsistentInputs, match=f"cache of dtype {np.dtype(dtype)}"):
            decode_all(d, caches[:2] + foreign[2:], log, H, sched)
    assert all(r.success for r in decode_all(d, caches, log, H, sched))


def test_receive_refuses_a_channel_of_another_field_or_size():
    # The schedule's beams were formed for its channel's field and users;
    # a channel with other values is applied as given.
    cfg = LibraryConfig(N=5, K=5, L=3, F=30)
    lib = random_library(GF, 5, 30, seed=34)
    H = draw_channel(5, 3, seed=35, field=GF)
    d = DemandVector([4, 2, 0, 1, 3])
    sched = build_schedule(d, H, lib, cfg)
    for other in (
        ChannelMatrix(GF7, H.H % GF7.p),
        ChannelMatrix(CC, H.H.astype(np.complex128)),
        ChannelMatrix(GF, H.H[:4]),
        ChannelMatrix(GF, np.concatenate([H.H, H.H[:1]])),
    ):
        with pytest.raises(InconsistentInputs, match="schedule's over"):
            receive(other, sched)
    moved = draw_channel(5, 3, seed=36, field=GF)
    log = receive(moved, sched)
    assert GF.equal(log.per_block, GF.matmul(moved.H, sched.signals))
    assert not GF.equal(log.per_block, receive(H, sched).per_block)


REFUSALS = {
    "library seed": (lambda: random_library(GF, 3, 4, -1), "seed -1 is not"),
    "channel seed": (lambda: draw_channel(5, 2, -1, GF), "seed -1 is not"),
    "plan channel seed": (lambda: draw_channel(5, 2, -1, CC), "seed -1 is not"),
    "library size": (lambda: random_library(GF, 3, -4, 1), "F=-4"),
    "demand None": (lambda: DemandVector(None), "demand must be a sequence"),
    "demand int": (lambda: DemandVector(5), "demand must be a sequence"),
    # A raw channel array takes its field from the schedule's channel,
    # which a stand-in schedule of signals alone does not have.
    "raw channel, stand-in schedule": (
        lambda: receive(GF.convert([[1, 2], [3, 4], [5, 6]]),
                        SimpleNamespace(signals=GF.zeros((1, 2, 1)))),
        "raw channel array",
    ),
}


@pytest.mark.parametrize("call, match", REFUSALS.values(), ids=REFUSALS.keys())
def test_bad_seeds_sizes_demands_and_channels_raise_typed_errors(call, match):
    with pytest.raises(InconsistentInputs, match=match):
        call()


@pytest.mark.parametrize("field", [GF, CC], ids=["gf", "complex"])
def test_raw_channel_arrays_receive_and_decode_over_the_schedules_field(field):
    # build_schedule takes a raw K x L array; so do receive and decoding,
    # over the schedule's field, with the same results as its channel.
    cfg = LibraryConfig(N=5, K=5, L=2, F=20)
    lib = random_library(field, 5, 20, seed=39)
    H = draw_channel(5, 2, seed=40, field=field)
    d = DemandVector([1, 3, 0, 4, 2])
    sched = build_schedule(d, H.H, lib, cfg)
    caches = place_caches(lib, cfg)
    log = receive(H.H, sched)
    assert field.equal(log.per_block, receive(sched.channel, sched).per_block)
    assert all(r.success for r in decode_all(d, caches, log, H.H, sched))
    assert all(r.success for r in decode_all(d, caches, log, H.H.tolist(), sched))
    with pytest.raises(InconsistentInputs, match="channel differs"):
        decode_all(d, caches, log, draw_channel(5, 2, seed=41, field=field).H, sched)


def test_passed_decode_results_stay_frozen():
    # A passed file's result is built without the dataclass __init__; it
    # keeps the fields, the repr and the refusal of assignment.
    cfg = LibraryConfig(N=4, K=4, L=3, F=12)
    lib = random_library(GF, 4, 12, seed=37)
    H = draw_channel(4, 3, seed=38, field=GF)
    d = DemandVector([2, 0, 3, 1])
    sched = build_schedule(d, H, lib, cfg)
    results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
    for k, res in enumerate(results):
        want = channel.DecodeResult(user=k, data=res.data, success=True)
        assert type(res) is channel.DecodeResult
        assert repr(res) == repr(want)
        assert (res.user, res.success, res.mismatch, res.residual) == (k, True, None, None)
        assert res.data is results[k].data and np.array_equal(res.data, lib.data[d[k]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.success = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.mismatch = (0, 0)
        assert res.success


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
    assert decode_all(d, caches, log, H, sched)[k].success
    first_served = int(np.argmax((sched.layout.groups == k).any(axis=1)))
    for b in (first_served, k * sched.layout.transmissions):
        rx = log.per_block.copy()
        rx[b, k, 1] = (rx[b, k, 1] + 1) % GF.p  # a served row, then k's own row
        res = decode_all(d, caches, type(log)(GF, rx), H, sched)[k]
        assert not res.success
        assert np.count_nonzero(res.data != lib.data[d[k]]) == 1


@pytest.mark.parametrize("field", [GF, CC], ids=["gf", "complex"])
def test_failed_decode_names_its_first_wrong_minifile(field):
    # (5, 3): one telescoping segment, so a reception at transmission t
    # of a row feeds minifiles t - 1 and t of it. A wrong reception at
    # t = 2 first shows in minifile 1; complex mode also reports by how
    # much, against decode_atol. Successful files carry neither.
    N, L = 5, 3
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L * 2)
    lib = random_library(field, N, cfg.F, seed=61)
    H = draw_channel(N, L, seed=62, field=field)
    d = DemandVector([2, 4, 0, 1, 3])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    k, row = 2, 3
    n_tx = sched.layout.transmissions
    assert (sched.layout.groups[row * n_tx + 2] == k).any()
    rx = log.per_block.copy()
    rx[row * n_tx + 2, k, 1] += 1
    results = decode_all(d, caches, type(log)(field, rx), H, sched)
    bad = results[k]
    assert not bad.success and bad.mismatch == (row, 1)
    if field is CC:
        want = np.max(np.abs(bad.data - lib.data[d[k]]))
        assert bad.residual == want > CC.decode_atol
    else:
        assert bad.residual is None
    for res in results[:k] + results[k + 1 :]:
        assert res.success and res.mismatch is None and res.residual is None


@pytest.mark.parametrize("N, L", [(60, 29), (100, 99)])
def test_decode_at_scale_needs_no_decoder_stack(N, L):
    # At (60, 29) a dense (N, K, m, transmissions) decoder stack took
    # 97 MiB; the taps keep decoding within a few blocks of the 0.8 MiB
    # of decoded files.
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(GF, N, cfg.F, seed=N)
    H = ChannelMatrix(GF, GF.sample_channel(np.random.default_rng(L), (N, L)))
    d = DemandVector(np.random.default_rng(N).permutation(N))
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    tracemalloc.start()
    try:
        results = decode_all(d, caches, log, H, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.success for res in results)
    if L < N - 1:
        assert peak < 10 * 2**20


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
    caches = place_caches(lib, cfg)
    caches[k] = CacheContent(user=k, payload=GF.zeros(cfg.subfile_symbols))
    res = decode_all(d, caches, log, H, sched)[k]
    assert not res.success
    truth = lib.data[d[k]]
    sz = cfg.subfile_symbols
    for i in range(4):
        seg_ok = GF.equal(res.data[i * sz : (i + 1) * sz], truth[i * sz : (i + 1) * sz])
        assert seg_ok == (i != k)


@pytest.mark.parametrize("N, L", [(16, 15), (17, 5)])
def test_decode_all_makes_no_decoder_product(monkeypatch, N, L):
    # Every user of every row decodes by the row plan's taps: scaled
    # receptions and their sums, with no matrix product and no per-user
    # or stacked decoder multiplied out through the field.
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    lib = random_library(GF, N, cfg.F, seed=N)
    H = draw_channel(N, L, seed=L, field=GF)
    d = DemandVector(np.random.default_rng(N).permutation(N))
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    calls = []
    for name in ("matmul", "mul"):
        method = getattr(GF, name)

        def counting(*args, _name=name, _method=method, **kwargs):
            calls.append(_name)
            return _method(*args, **kwargs)

        monkeypatch.setattr(GF, name, counting)
    results = decode_all(d, caches, log, H, sched)
    assert calls == []
    assert all(res.success for res in results)


def _numpy_calls(fn, *args) -> int:
    """numpy calls made by fn(*args): the sys.setprofile c_call events
    whose function is a ufunc, an ndarray or ufunc method (such as a
    reduction's), or a function of the numpy package."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or ""
            if isinstance(arg, np.ufunc) or isinstance(owner, (np.ndarray, np.ufunc)) \
                    or module.startswith("numpy"):
                count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


def test_decode_makes_no_numpy_call_per_user():
    # Each decode stage is one numpy pass over every user at once: owners
    # complete their rows by one copy and one subtraction per block, and
    # the verdicts are one comparison per block of users whose files fit
    # in CHUNK_BYTES, here one block. So doubling the users, or doubling
    # them again, adds no numpy call.
    counts = {}
    for N in (8, 16, 32):
        cfg = LibraryConfig(N=N, K=N, L=N - 1, F=N * (N - 1))
        lib = random_library(GF, N, cfg.F, seed=N)
        H = draw_channel(N, N - 1, seed=N, field=GF)
        d = DemandVector(np.random.default_rng(N).permutation(N))
        sched = build_schedule(d, H, lib, cfg)
        log = receive(H, sched)
        caches = place_caches(lib, cfg)
        assert all(res.success for res in decode_all(d, caches, log, H, sched))
        counts[N] = _numpy_calls(decode_all, d, caches, log, H, sched)
    assert counts[8] == counts[16] == counts[32], counts


def test_decode_of_files_past_chunk_bytes_copies_no_library():
    # Each file is larger than CHUNK_BYTES, as payload8's are, so each is
    # a verdict block of its own and is compared with the library's row
    # as a view. Decoding allocates its (K, F) files and temporaries of
    # about a block: no library-sized array, nor even a copy of one file.
    N, L = 4, 3
    F = N * L * -(-3 * channel.CHUNK_BYTES // (8 * N * L))  # three chunks a file
    cfg = LibraryConfig(N=N, K=N, L=L, F=F)
    lib = random_library(GF, N, F, seed=3)
    H = draw_channel(N, L, seed=3, field=GF)
    d = DemandVector([2, 0, 3, 1])
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    tracemalloc.start()
    try:
        results = decode_all(d, caches, log, H, sched)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(res.success for res in results)
    assert peak < lib.data.nbytes + 2 * channel.CHUNK_BYTES, peak


@pytest.mark.parametrize("field", [GF, CC], ids=["gf", "complex"])
@pytest.mark.parametrize("N, L", [(7, 3), (6, 5)], ids=["reduced", "full"])
def test_several_wrong_users_each_name_their_own_first_error(monkeypatch, field, N, L):
    # Four users' receptions are wrong at once, each in a different row
    # and symbol and by a different amount: every failed file reports the
    # first wrong minifile and the residual of that whole file. The
    # verdict compares a block of users' files at once: all of them in
    # one block, then two files a block, so that wrong users share a
    # block with each other (0 and 1) and with right ones; the blocks
    # change no result.
    m = 1 if L == N - 1 else L
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * m * 3)
    lib = random_library(field, N, cfg.F, seed=N + L)
    H = draw_channel(N, L, seed=N * L, field=field)
    d = DemandVector(np.random.default_rng(L).permutation(N))
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    caches = place_caches(lib, cfg)
    n_tx, tau = sched.layout.transmissions, sched.signals.shape[-1]
    rx = log.per_block.copy()
    # user: row, t, symbol
    wrong = {0: (2, 0, 1), 1: (4, 0, 2), 3: (0, n_tx - 1, 1), 4: (4, n_tx - 1, 0)}
    for k, (row, t, symbol) in wrong.items():
        if row == k or (sched.layout.groups[row * n_tx + t] == k).any():
            rx[row * n_tx + t, k, symbol] += 1 + k
        else:  # k is not served there: spoil k's own row instead
            rx[k * n_tx + t, k, symbol] += 1 + k
    if field is GF:
        rx %= GF.p
    bad = type(log)(field, rx)
    file_bytes = lib.data[0].nbytes
    assert N * file_bytes <= channel.CHUNK_BYTES
    runs = []
    for chunk in (channel.CHUNK_BYTES, 2 * file_bytes):
        monkeypatch.setattr(channel, "CHUNK_BYTES", chunk)
        results = decode_all(d, caches, bad, H, sched)
        runs.append(results)
        assert [res.success for res in results] == [k not in wrong for k in range(N)]
        for k, res in enumerate(results):
            want = lib.data[d[k]]
            assert res.success == field.close(res.data, want)
            if res.success:
                assert res.mismatch is None and res.residual is None
            else:
                index, residual = field.mismatch(res.data, want)
                assert res.mismatch == divmod(index // tau, m)
                assert res.residual == residual
                assert (residual is None) == (field is GF)
        if field is CC:
            # Each failed file keeps its own residual, not its block's largest.
            assert len({res.residual for res in results if not res.success}) == len(wrong)
    for one, two in zip(*runs):
        assert (one.user, one.success, one.mismatch, one.residual) == (
            two.user, two.success, two.mismatch, two.residual)
        assert np.array_equal(one.data, two.data)
