"""Acceptance gate: the nine headline behaviors, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
without -s pytest shows them only for failing tests.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from span_oracle import file_in_span, observation_functionals, wanted_rows

from mscache import (
    ComplexField,
    DemandVector,
    Library,
    LibraryConfig,
    PrimeField,
    achievable_time,
    assemble_report,
    build_schedule,
    converse_bound,
    decode_all,
    decode_user,
    draw_channel,
    place_caches,
    random_library,
    receive,
    uncoded_baseline,
    verify_row_plan,
)
from mscache.content import CacheContent
from mscache.delivery import _beam_bank

GF = PrimeField(65537)
CC = ComplexField()
P = 65537

FULL_PAIRS = [(N, N - 1) for N in range(2, 10)]
DIVISOR_PAIRS = [
    (N, L) for N in range(2, 10) for L in range(1, N - 1) if (N - 1) % L == 0
]
EXTRA_PAIRS = [
    (4, 2), (5, 3), (6, 2), (6, 4), (7, 5), (8, 2), (8, 3), (8, 6),
    (9, 3), (9, 7),
]
ALL_SUPPORTED = FULL_PAIRS + DIVISOR_PAIRS + EXTRA_PAIRS


@contextmanager
def _criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {desc}", flush=True)
        raise
    print(f"[criterion {num}] PASS  {desc}", flush=True)


def _cfg(N: int, L: int, scale: int = 1) -> LibraryConfig:
    F = (N if L == N - 1 else N * L) * scale
    return LibraryConfig(N=N, K=N, L=L, F=F)


def _run_once(cfg, lib_seed, chan_seed, d, field=GF):
    lib = random_library(field, cfg.N, cfg.F, seed=lib_seed)
    H = draw_channel(cfg.K, cfg.L, seed=chan_seed, field=field)
    sched = build_schedule(d, H, lib, cfg)
    results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
    return lib, sched, results


def _assert_all_exact(results, lib, d):
    for k, res in enumerate(results):
        assert res.success
        assert GF.equal(res.data, lib.data[d[k]])


def test_criterion_1_four_user_full_antenna_point():
    cfg = _cfg(4, 3)
    with _criterion(1, "4 users, 3 antennas: T=1=converse, uncoded 5/4, "
                       "124 exact decode runs under 1 s"):
        start = time.monotonic()
        for seed in range(100):
            d = DemandVector(np.random.default_rng(seed).permutation(4))
            lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
            _assert_all_exact(results, lib, d)
            rep = assemble_report(cfg, sched, results, seed=seed)
            assert rep.achieved_T == 1 and rep.converse_T == 1
            assert rep.uncoded_T == Fraction(5, 4)
            assert sched.total_time == 1
        for perm in itertools.permutations(range(4)):
            d = DemandVector(perm)
            lib, sched, results = _run_once(cfg, 1, 0, d)
            _assert_all_exact(results, lib, d)
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_five_user_full_antenna_point():
    cfg = _cfg(5, 4)
    with _criterion(2, "5 users, 4 antennas: T=1, uncoded 6/5, exact decode"):
        for seed in range(20):
            d = DemandVector(np.random.default_rng(seed).permutation(5))
            lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
            _assert_all_exact(results, lib, d)
            rep = assemble_report(cfg, sched, results, seed=seed)
            assert rep.achieved_T == 1
            assert rep.uncoded_T == Fraction(6, 5)


def test_criterion_3_four_user_two_antenna_point():
    cfg = _cfg(4, 2)
    with _criterion(3, "4 users, 2 antennas: T=3/2 via 12 blocks of 1/8, "
                       "converse 3/2, uncoded 15/8, owners' combined sums check"):
        for seed in range(20):
            d = DemandVector(np.random.default_rng(seed).permutation(4))
            lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
            _assert_all_exact(results, lib, d)
            assert len(sched.blocks) == 12
            assert all(b.duration == Fraction(1, 8) for b in sched.blocks)
            rep = assemble_report(cfg, sched, results, seed=seed)
            assert rep.achieved_T == Fraction(3, 2)
            assert rep.converse_T == Fraction(3, 2)
            assert rep.uncoded_T == Fraction(15, 8)
            # the row owner's combined sums: A-weighted receptions equal
            # the library-side minifile sums, slot by slot
            H = sched.channel
            for i in range(4):
                plan = sched.plans[i]
                ys = [
                    GF.matmul(H.H[i], sched.blocks[b].signal)
                    for b in sched.rows[i]
                ]
                for j in range(cfg.L):
                    combo = GF.zeros(cfg.minifile_symbols)
                    for t, a in enumerate(plan.A[j]):
                        if a == 1:
                            combo = GF.add(combo, ys[t])
                        elif a == -1:
                            combo = GF.sub(combo, ys[t])
                    expect = GF.zeros(cfg.minifile_symbols)
                    for u in plan.users:
                        expect = GF.add(expect, lib.parts(cfg.L)[d[u], i, j])
                    assert GF.equal(combo, expect)


def test_criterion_4_five_user_three_antenna_point():
    cfg = _cfg(5, 3)
    with _criterion(4, "5 users, 3 antennas: T=4/3 via 20 blocks of 1/15, "
                       "uncoded 8/5, exact decode"):
        for seed in range(20):
            d = DemandVector(np.random.default_rng(seed).permutation(5))
            lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
            _assert_all_exact(results, lib, d)
            assert len(sched.blocks) == 20
            assert all(b.duration == Fraction(1, 15) for b in sched.blocks)
            rep = assemble_report(cfg, sched, results, seed=seed)
            assert rep.achieved_T == Fraction(4, 3)
            assert rep.uncoded_T == Fraction(8, 5)


def test_criterion_5_full_antenna_sweep():
    with _criterion(5, "N=2..9 with L=N-1: T=converse=1, 100% decode over "
                       "20 seeds each, under 30 s"):
        start = time.monotonic()
        for N in range(2, 10):
            cfg = _cfg(N, N - 1)
            assert achievable_time(cfg) == 1
            assert converse_bound(N, N, cfg.M, N - 1) == 1
            for seed in range(20):
                d = DemandVector(np.random.default_rng(seed).permutation(N))
                lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
                assert sched.total_time == 1
                _assert_all_exact(results, lib, d)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_6_divisor_sweep():
    with _criterion(6, "every (N, L) with L dividing N-1, L<N-1, N<=9: "
                       "T=converse=(N-1)/L, plans verified, 100% decode "
                       "over 20 seeds each"):
        assert len(DIVISOR_PAIRS) == 12
        for N, L in DIVISOR_PAIRS:
            cfg = _cfg(N, L)
            want = Fraction(N - 1, L)
            assert achievable_time(cfg) == want
            assert converse_bound(N, N, cfg.M, L) == want
            for seed in range(20):
                d = DemandVector(np.random.default_rng(seed).permutation(N))
                lib, sched, results = _run_once(cfg, 2 * seed + 1, 2 * seed, d)
                assert sched.total_time == want
                _assert_all_exact(results, lib, d)
                for plan in sched.plans.values():
                    verify_row_plan(plan, N, L)


def test_criterion_7_uncoded_gap_identity():
    with _criterion(7, "uncoded - achieved = (N-1)/(N*L) exactly across the "
                       "supported sweep"):
        for N, L in ALL_SUPPORTED:
            cfg = _cfg(N, L)
            M = Fraction(1, N)
            gap = uncoded_baseline(N, N, M, L) - achievable_time(cfg)
            assert gap == Fraction(N - 1, N * L)


def test_criterion_8_property_suite():
    with _criterion(8, "beam orthogonality on 1000 triples (exact GF, <1e-9 "
                       "complex), reception linearity, cache necessity, "
                       "byte-identical reruns"):
        # 1000 random (channel, group, target) triples in each mode, the
        # beams from the schedule's beam bank with one parent set per
        # triple: the group plus the zero row K
        rng = np.random.default_rng(2024)
        done = 0
        while done < 1000:
            K = int(rng.integers(2, 8))
            L = int(rng.integers(1, K))
            Hg = draw_channel(K, L, seed=int(rng.integers(1 << 30)), field=GF)
            Hc = draw_channel(K, L, seed=int(rng.integers(1 << 30)), field=CC)
            n = min(20, 1000 - done)
            groups, targets = [], []
            for _ in range(n):
                group = sorted(rng.choice(K, size=L, replace=False).tolist())
                targets.append(group.index(int(rng.choice(group))))
                groups.append(group)
            parents = np.append(groups, np.full((n, 1), K), axis=1)
            for H, exact in ((Hg, True), (Hc, False)):
                inverses, exists = _beam_bank(H, parents, np.arange(n), np.full(n, L))
                assert exists.all()
                for group, q, inverse in zip(groups, targets, inverses):
                    got = H.field.matmul(H.H[group], inverse[:, q])
                    want = np.eye(L)[q]
                    if exact:
                        assert np.array_equal(got, want)
                    else:
                        assert np.max(np.abs(got - want)) < 1e-9
            done += n

        # receptions are linear in the library
        cfg = _cfg(4, 2)
        H = draw_channel(4, 2, seed=5, field=GF)
        d = DemandVector([1, 0, 3, 2])
        lib_a = random_library(GF, 4, 8, seed=50)
        lib_b = random_library(GF, 4, 8, seed=51)
        lib_s = Library(GF, GF.add(lib_a.data, lib_b.data))
        la, lb, ls = (
            receive(H, build_schedule(d, H, lib, cfg))
            for lib in (lib_a, lib_b, lib_s)
        )
        for ya, yb, ys in zip(la.per_block, lb.per_block, ls.per_block):
            assert GF.equal(ys, GF.add(ya, yb))

        # a blanked cache breaks exactly the owner subfile
        cfg = _cfg(4, 3)
        d = DemandVector([2, 3, 0, 1])
        lib, sched, _ = _run_once(cfg, 61, 60, d)
        log = receive(sched.channel, sched)
        k = 3
        blank = CacheContent(user=k, payload=GF.zeros(cfg.subfile_symbols))
        res = decode_user(k, d, blank, log, sched.channel, sched)
        assert not res.success
        sz = cfg.subfile_symbols
        truth = lib.data[d[k]]
        for i in range(4):
            ok = GF.equal(res.data[i * sz : (i + 1) * sz], truth[i * sz : (i + 1) * sz])
            assert ok == (i != k)

        # identical seeds give byte-identical reports and signals
        for mode_field in (GF, CC):
            rows = []
            sig0 = []
            for _ in range(2):
                cfg = _cfg(5, 3)
                d = DemandVector(np.random.default_rng(3).permutation(5))
                lib = random_library(mode_field, 5, 15, seed=7)
                H = draw_channel(5, 3, seed=6, field=mode_field)
                sched = build_schedule(d, H, lib, cfg)
                results = decode_all(
                    d, place_caches(lib, cfg), receive(H, sched), H, sched
                )
                rep = assemble_report(cfg, sched, results, seed=3)
                rows.append(rep.to_csv_row())
                sig0.append(np.concatenate([b.signal.ravel() for b in sched.blocks]))
            assert rows[0] == rows[1]
            assert sig0[0].tobytes() == sig0[1].tobytes()


def test_criterion_9_exhaustive_span_oracle():
    with _criterion(9, "independent span oracle matches the constructive "
                       "decoder for every N<=5 instance, including the "
                       "cache-ablated negatives"):
        pairs = [(N, L) for N in range(2, 6) for L in range(1, N)]
        for N, L in pairs:
            cfg = _cfg(N, L)
            d = DemandVector(np.random.default_rng(N * 8 + L).permutation(N))
            lib = random_library(GF, N, cfg.F, seed=3 * N + L)
            H = draw_channel(N, L, seed=5 * N + L, field=GF)
            sched = build_schedule(d, H, lib, cfg)
            log = receive(H, sched)
            caches = place_caches(lib, cfg)
            funcs = observation_functionals(cfg, H, d, GF)
            ablate = (N + L) % N
            for k in range(N):
                rec, cac = funcs[k]
                want = wanted_rows(cfg, d[k])
                oracle_full = file_in_span(rec + cac, want, P)
                constructive = decode_user(k, d, caches[k], log, H, sched)
                assert oracle_full == constructive.success
                assert oracle_full
                if k == ablate:
                    oracle_blank = file_in_span(rec, want, P)
                    blank = CacheContent(k, GF.zeros(cfg.subfile_symbols))
                    res = decode_user(k, d, blank, log, H, sched)
                    assert oracle_blank == res.success
                    assert not oracle_blank
