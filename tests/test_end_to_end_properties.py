"""End-to-end properties over (N, L, prime, demand, seed).

Every drawn instance runs the whole chain: library, channel, placement,
schedule, reception and decoding. Each block's receptions must be the
channel applied to its signal, every user must decode its file exactly,
decoding one user alone must give what the batch gives (in complex mode
within decode_atol), and, at small N, the independent span oracle must
agree. Channels that cannot be drawn at a small prime (none accepted
within the draw budget) are assumed away, not counted as passes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from span_oracle import file_in_span, observation_functionals, wanted_rows

from mscache import (
    ComplexField,
    DemandVector,
    LibraryConfig,
    PrimeField,
    ResamplingExhausted,
    build_schedule,
    decode_all,
    decode_user,
    draw_channel,
    is_supported,
    place_caches,
    random_library,
    receive,
)

SUPPORTED = [(N, L) for N in range(2, 10) for L in range(1, N) if is_supported(N, L)]
PRIMES = (3, 5, 7, 11, 65537, 536870909)
# Pairs the dense reference decode covers.
DENSE_SUPPORTED = [(N, L) for N in range(2, 13) for L in range(1, N) if is_supported(N, L)]
# The oracle probes the chain once per library symbol (N * F of them)
# and row-reduces in plain Python, so it runs only up to this N.
ORACLE_MAX_N = 5


@st.composite
def instances(draw):
    N, L = draw(st.sampled_from(SUPPORTED))
    p = draw(st.sampled_from(PRIMES))
    demand = draw(st.permutations(range(N)))
    seed = draw(st.integers(0, 2**32 - 1))
    return N, L, p, demand, seed


def _run(field, N, L, demand, seed):
    cfg = LibraryConfig(N=N, K=N, L=L, F=N * L)
    H = draw_channel(N, L, seed, field)
    lib = random_library(field, N, cfg.F, seed + 1)
    d = DemandVector(demand)
    sched = build_schedule(d, H, lib, cfg)
    log = receive(H, sched)
    results = decode_all(d, place_caches(lib, cfg), log, H, sched)
    return cfg, H, lib, d, sched, log, results


@settings(max_examples=100, deadline=None)
@given(instances())
def test_receptions_decode_exactly_and_agree_with_the_span_oracle(instance):
    N, L, p, demand, seed = instance
    field = PrimeField(p)
    try:
        cfg, H, lib, d, sched, log, results = _run(field, N, L, demand, seed)
    except ResamplingExhausted:
        assume(False)
    assert len(log.per_block) == len(sched.blocks)
    for b, block in enumerate(sched.blocks):
        assert field.equal(log.per_block[b], field.matmul(H.H, block.signal))
    caches = place_caches(lib, cfg)
    for k, res in enumerate(results):
        assert res.success
        assert field.equal(res.data, lib.data[d[k]])
        # The one-user case is the batch, bit for bit.
        alone = decode_user(k, d, caches[k], log, H, sched)
        assert alone.success and np.array_equal(alone.data, res.data)
    # In complex mode, within decode_atol of the batch.
    cc = ComplexField()
    _, cH, _, _, csched, clog, cresults = _run(cc, N, L, demand, seed)
    ccaches = place_caches(csched.library, cfg)
    for k, res in enumerate(cresults):
        alone = decode_user(k, d, ccaches[k], clog, cH, csched)
        assert res.success and alone.success
        assert np.max(np.abs(alone.data - res.data)) <= cc.decode_atol
    if N <= ORACLE_MAX_N:
        obs = observation_functionals(cfg, H, d, field)
        for k in range(N):
            rec, cac = obs[k]
            assert file_in_span(rec + cac, wanted_rows(cfg, d[k]), p) == results[k].success


@st.composite
def small_prime_instances(draw):
    N, L = draw(st.sampled_from(SUPPORTED))
    p = draw(st.sampled_from((5, 7)))
    return N, L, p, draw(st.permutations(range(N))), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(small_prime_instances())
def test_small_prime_plan_draws_decode_and_agree_with_the_span_oracle(instance):
    # The draw's kernel refuses many GF(5) and GF(7) samples for a zero
    # null-vector entry (a dependent group) or a zero owner gain.
    # Every draw it accepts must decode exactly, as the oracle confirms.
    N, L, p, demand, seed = instance
    field = PrimeField(p)
    try:
        cfg, H, lib, d, sched, log, results = _run(field, N, L, demand, seed)
    except ResamplingExhausted:
        assume(False)
    assert all(res.success for res in results)
    obs = observation_functionals(cfg, H, d, field)
    for k in range(N):
        rec, cac = obs[k]
        assert file_in_span(rec + cac, wanted_rows(cfg, d[k]), p)


def _dense_decode(field, d, caches, log, sched):
    """Every user's file, (K, F), by a dense stack of (row, user) decoders.

    Row r's decoder for user u is the plan's A with column t scaled by
    u's scale in block (r, t): the owner gain of u's beam where the
    block serves u, 1 where u owns the row, 0 elsewhere. It multiplies
    u's receptions of the row; the owner subtracts what it gets from its
    cache.
    """
    layout = sched.layout
    N, n_tx = sched.cfg.N, layout.transmissions
    B, tau = len(layout.groups), log.per_block.shape[-1]
    scales = field.zeros((B, N))
    np.put_along_axis(scales, layout.groups, sched.gains, axis=1)
    scales[np.arange(B), np.arange(B) // n_tx] = field.coeff(1)
    per_row = scales.reshape(N, n_tx, N).transpose(0, 2, 1)
    decoders = field.mul(field.convert(layout.A), per_row[:, :, None, :])
    rx = log.per_block.reshape(N, n_tx, N, tau).transpose(0, 2, 1, 3)
    data = field.matmul(decoders, rx).swapaxes(0, 1).copy()
    for k, Z in enumerate(caches):
        data[k, k] = field.sub(Z.payload.reshape(data[k, k].shape), data[k, k])
    return data.reshape(N, -1)


@st.composite
def decode_instances(draw):
    N, L = draw(st.sampled_from(DENSE_SUPPORTED))
    field = draw(st.sampled_from([PrimeField(p) for p in PRIMES] + [ComplexField()]))
    demand = draw(st.permutations(range(N)))
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(0, N - 1))
    return N, L, field, demand, seed, k


@settings(max_examples=60, deadline=None)
@given(decode_instances())
def test_decode_equals_the_dense_decoder_stack(instance):
    # Decoding by the plan's taps is the dense product of every (row,
    # user) decoder: bit for bit in GF, within decode_atol in complex.
    N, L, field, demand, seed, k = instance
    try:
        cfg, H, lib, d, sched, log, results = _run(field, N, L, demand, seed)
    except ResamplingExhausted:
        assume(False)
    caches = place_caches(lib, cfg)
    dense = _dense_decode(field, d, caches, log, sched)
    alone = decode_user(k, d, caches[k], log, H, sched)
    got = np.stack([res.data for res in results])
    if field.mode == "gf":
        assert got.dtype == dense.dtype and np.array_equal(got, dense)
        assert np.array_equal(alone.data, dense[k])
    else:
        assert np.max(np.abs(got - dense)) <= field.decode_atol
        assert np.max(np.abs(alone.data - dense[k])) <= field.decode_atol
    assert all(res.success for res in results) and alone.success


@pytest.mark.parametrize("N", [32, 33, 40])
def test_decode_with_many_taps_equals_the_dense_decoder_stack(N):
    # At L = 1 every one of the N - 1 segments adds a tap to minifile 0.
    # At p = 536870909 up to 31 products of residues and a cache symbol
    # sum within int64, so (32, 1) sums its raw products and (33, 1) and
    # (40, 1) reduce them first.
    field = PrimeField(536870909)
    demand = np.random.default_rng(N).permutation(N).tolist()
    cfg, H, lib, d, sched, log, results = _run(field, N, 1, demand, N)
    dense = _dense_decode(field, d, place_caches(lib, cfg), log, sched)
    assert np.array_equal(np.stack([res.data for res in results]), dense)
    assert all(res.success for res in results)


@pytest.mark.parametrize(
    "N, L", [(12, 5), (16, 15), (24, 11), (40, 13)], ids=["12-5", "16-15", "24-11", "40-13"]
)
def test_complex_decode_error_far_below_tolerance(N, L):
    # The measured margin: about 1e-14 against decode_atol = 1e-6, and
    # 1.4e-13 at (24, 11), 5.6e-14 at (40, 13).
    cc = ComplexField()
    demand = np.random.default_rng(N).permutation(N).tolist()
    _, _, lib, d, _, _, results = _run(cc, N, L, demand, seed=0)
    err = max(float(np.max(np.abs(r.data - lib.data[d[k]]))) for k, r in enumerate(results))
    assert all(r.success for r in results)
    assert err < 1e-12


@st.composite
def full_regime_instances(draw):
    N = draw(st.integers(10, 64))
    p = draw(st.sampled_from((65537, 536870909)))
    demand = draw(st.permutations(range(N)))
    seed = draw(st.integers(0, 2**32 - 1))
    return N, p, demand, seed


@settings(max_examples=6, deadline=None)
@given(full_regime_instances())
def test_full_regime_decodes_exactly_at_scale(instance):
    # The rank-one beam bank at N in the tens; the larger prime runs the
    # int64 matmul path.
    N, p, demand, seed = instance
    field = PrimeField(p)
    _, _, lib, d, _, _, results = _run(field, N, N - 1, demand, seed)
    for k, res in enumerate(results):
        assert res.success
        assert field.equal(res.data, lib.data[d[k]])


@st.composite
def reduced_regime_instances(draw):
    N = draw(st.integers(10, 40))
    # L <= N // 2 keeps an example near 0.2 s: (40, 38) takes about 1 s,
    # nearly all of it building the schedule.
    L = draw(st.sampled_from([L for L in range(1, N // 2 + 1) if is_supported(N, L)]))
    p = draw(st.sampled_from((65537, 536870909)))
    demand = draw(st.permutations(range(N)))
    seed = draw(st.integers(0, 2**32 - 1))
    return N, L, p, demand, seed


@settings(max_examples=6, deadline=None)
@given(reduced_regime_instances())
def test_reduced_regime_decodes_exactly_at_scale(instance):
    # Reduced N in the tens: the draw checks only the schedule's groups.
    N, L, p, demand, seed = instance
    field = PrimeField(p)
    _, _, lib, d, _, _, results = _run(field, N, L, demand, seed)
    for k, res in enumerate(results):
        assert res.success
        assert field.equal(res.data, lib.data[d[k]])


def test_complex_full_regime_decode_error_at_64():
    # Measured 9.7e-13 at seed 0, against decode_atol = 1e-6.
    N = 64
    cc = ComplexField()
    demand = np.random.default_rng(N).permutation(N).tolist()
    _, _, lib, d, _, _, results = _run(cc, N, N - 1, demand, seed=0)
    err = max(float(np.max(np.abs(r.data - lib.data[d[k]]))) for k, r in enumerate(results))
    assert all(r.success for r in results)
    assert err < 1e-11
