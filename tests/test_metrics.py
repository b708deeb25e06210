"""Exact rational delivery-time metrics and run reports."""

import json
from fractions import Fraction

import pytest

from mscache import (
    CSV_HEADER,
    DemandVector,
    InconsistentInputs,
    LibraryConfig,
    MetricsReport,
    PrimeField,
    WrongRegime,
    achievable_time,
    assemble_report,
    build_schedule,
    converse_bound,
    decode_all,
    draw_channel,
    place_caches,
    random_library,
    receive,
    uncoded_baseline,
)
from mscache.content import CacheContent

GF = PrimeField(65537)

SUPPORTED = [
    (N, L)
    for N in range(2, 10)
    for L in range(1, N)
    if (N, L) not in {(6, 3), (7, 4), (8, 4), (8, 5), (9, 5), (9, 6)}
]


def test_converse_frozen_values():
    # derived by enumerating the cut parameter s by hand
    assert converse_bound(4, 4, Fraction(1, 4), 3) == 1
    assert converse_bound(4, 4, Fraction(1, 4), 2) == Fraction(3, 2)
    assert converse_bound(5, 5, Fraction(1, 5), 3) == Fraction(4, 3)
    assert converse_bound(6, 6, Fraction(1, 6), 5) == 1
    # at K=N=2 the s=2 cut dominates: (2 - 1)/1 = 1 beats the s=1 term 3/4
    assert converse_bound(2, 2, Fraction(1, 2), 1) == 1


def test_converse_rejects_sizes_it_is_not_defined_for():
    with pytest.raises(InconsistentInputs):
        converse_bound(4, 4, Fraction(1, 4), 0)  # no antennas
    with pytest.raises(InconsistentInputs):
        converse_bound(5, 4, Fraction(1, 4), 3)  # more users than files


def test_converse_is_cached_but_its_errors_are_not():
    converse_bound.cache_clear()
    assert converse_bound(7, 7, Fraction(1, 7), 3) == converse_bound(7, 7, Fraction(1, 7), 3)
    assert converse_bound.cache_info().hits == 1
    for _ in range(2):
        with pytest.raises(InconsistentInputs):
            converse_bound(5, 4, Fraction(1, 4), 3)
    assert converse_bound.cache_info().currsize == 1


def test_converse_accepts_float_and_int_memory():
    assert converse_bound(4, 4, 0.25, 3) == 1
    assert converse_bound(4, 4, Fraction(1, 4), 3) == converse_bound(4, 4, 0.25, 3)


def test_uncoded_frozen_values():
    assert uncoded_baseline(4, 4, Fraction(1, 4), 3) == Fraction(5, 4)
    assert uncoded_baseline(5, 5, Fraction(1, 5), 4) == Fraction(6, 5)
    assert uncoded_baseline(5, 5, Fraction(1, 5), 3) == Fraction(8, 5)
    assert uncoded_baseline(4, 4, Fraction(1, 4), 2) == Fraction(15, 8)


def test_uncoded_rejects_sizes_it_is_not_defined_for():
    with pytest.raises(InconsistentInputs):
        uncoded_baseline(4, 4, Fraction(1, 4), 0)  # no antennas
    with pytest.raises(InconsistentInputs):
        uncoded_baseline(4, 0, Fraction(1, 4), 3)  # no files


def test_achievable_times():
    assert achievable_time(LibraryConfig(N=9, K=9, L=4, F=36)) == 2
    assert achievable_time(LibraryConfig(N=4, K=4, L=3, F=12)) == 1
    assert achievable_time(LibraryConfig(N=5, K=5, L=3, F=15)) == Fraction(4, 3)
    with pytest.raises(WrongRegime):
        achievable_time(LibraryConfig(N=6, K=6, L=3, F=18))


def test_converse_meets_achievable_everywhere_supported():
    for N, L in SUPPORTED:
        cfg = LibraryConfig(N=N, K=N, L=L, F=N if L == N - 1 else N * L)
        assert converse_bound(N, N, cfg.M, L) == achievable_time(cfg)


def test_gap_to_uncoded_identity():
    # the coding gain is exactly (N-1)/(N*L) time units
    for N, L in SUPPORTED:
        M = Fraction(1, N)
        gap = uncoded_baseline(N, N, M, L) - converse_bound(N, N, M, L)
        assert gap == Fraction(N - 1, N * L)


def test_converse_monotone_in_memory_and_antennas():
    for N in range(2, 8):
        vals_M = [converse_bound(N, N, Fraction(m, 8), 1) for m in range(0, 9)]
        assert all(a >= b for a, b in zip(vals_M, vals_M[1:]))
        vals_L = [converse_bound(N, N, Fraction(1, N), L) for L in range(1, N)]
        assert all(a >= b for a, b in zip(vals_L, vals_L[1:]))


def _run(N, L, seed=0):
    cfg = LibraryConfig(N=N, K=N, L=L, F=N if L == N - 1 else N * L)
    lib = random_library(GF, N, cfg.F, seed=2 * seed + 1)
    H = draw_channel(N, L, seed=2 * seed, field=GF)
    d = DemandVector(range(N))
    sched = build_schedule(d, H, lib, cfg)
    results = decode_all(d, place_caches(lib, cfg), receive(H, sched), H, sched)
    return cfg, sched, results


def test_report_full_antenna_case():
    cfg, sched, results = _run(4, 3)
    rep = assemble_report(cfg, sched, results, seed=0)
    assert (rep.achieved_T, rep.converse_T, rep.uncoded_T) == (
        Fraction(1),
        Fraction(1),
        Fraction(5, 4),
    )
    assert rep.decode_ok and rep.mode == "gf" and rep.M == Fraction(1, 4)


def test_report_reduced_case():
    cfg, sched, results = _run(4, 2)
    rep = assemble_report(cfg, sched, results, seed=7)
    assert (rep.achieved_T, rep.converse_T, rep.uncoded_T) == (
        Fraction(3, 2),
        Fraction(3, 2),
        Fraction(15, 8),
    )
    assert rep.seed == 7


def test_report_survives_corrupted_cache():
    cfg, sched, _ = _run(5, 4)
    d = sched.demand
    lib = sched.library
    H = sched.channel
    caches = list(place_caches(lib, cfg))
    caches[2] = CacheContent(user=2, payload=GF.zeros(cfg.subfile_symbols))
    results = decode_all(d, caches, receive(H, sched), H, sched)
    assert not results[2].success and results[0].success
    rep = assemble_report(cfg, sched, results)
    assert not rep.decode_ok
    assert rep.seed is None


def test_report_rejects_mismatched_inputs():
    cfg, sched, results = _run(4, 3)
    other = LibraryConfig(N=4, K=4, L=2, F=8)
    with pytest.raises(InconsistentInputs):
        assemble_report(other, sched, results)
    with pytest.raises(InconsistentInputs):
        assemble_report(cfg, sched, results[:-1])


def test_csv_row_golden():
    cfg, sched, results = _run(4, 2)
    rep = assemble_report(cfg, sched, results, seed=0)
    assert CSV_HEADER == (
        "K,N,L,M_num,M_den,achieved_num,achieved_den,converse_num,"
        "converse_den,uncoded_num,uncoded_den,decode_ok,seed"
    )
    assert rep.to_csv_row() == "4,4,2,1,4,3,2,3,2,15,8,true,0"
    assert len(rep.to_csv_row().split(",")) == len(CSV_HEADER.split(","))


def test_csv_row_blank_seed_and_false_flag():
    rep = MetricsReport(
        K=5, N=5, L=3, M=Fraction(1, 5),
        achieved_T=Fraction(4, 3), converse_T=Fraction(4, 3),
        uncoded_T=Fraction(8, 5), decode_ok=False, mode="gf", seed=None,
    )
    assert rep.to_csv_row() == "5,5,3,1,5,4,3,4,3,8,5,false,"


def test_json_round_trip():
    cfg, sched, results = _run(5, 3, seed=4)
    rep = assemble_report(cfg, sched, results, seed=4)
    data = json.loads(rep.to_json())
    assert data == {
        "K": 5,
        "N": 5,
        "L": 3,
        "M": "1/5",
        "achieved_T": "4/3",
        "converse_T": "4/3",
        "uncoded_T": "8/5",
        "decode_ok": True,
        "mode": "gf",
        "seed": 4,
    }
