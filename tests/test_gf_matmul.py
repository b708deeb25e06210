"""Exactness and memory of PrimeField.matmul on both of its inner routes.

A product is one loop over blocks of output columns. A block of at most
``float_terms`` terms runs in float64 BLAS; a longer one runs in int64,
reduced every ``matmul_chunk`` terms. Every product is checked against
Python integers or against an int64 product that cannot overflow.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mscache import PrimeField
from mscache import field as field_module

# 2 and 5 run every drawn length in float64, 94906249 only single terms,
# and 536870909 never: both sides of the float64 bound.
PRIMES = (2, 5, 65537, 94906249, 536870909)
# Longest inner length drawn; the object reference grows with it. The
# float64 bound at p = 65537 (2**21 terms) has its own test below.
MAX_INNER = 1100
MiB = 1 << 20

# (a shape, b shape) for inner length n, r rows, w columns, k stacked.
SHAPES = {
    "vector @ vector": lambda n, r, w, k: ((n,), (n,)),
    "matrix @ vector": lambda n, r, w, k: ((r, n), (n,)),
    "vector @ matrix": lambda n, r, w, k: ((n,), (n, w)),
    "matrix @ matrix": lambda n, r, w, k: ((r, n), (n, w)),
    "stack @ stack": lambda n, r, w, k: ((k, r, n), (k, n, w)),
    "matrix @ stack": lambda n, r, w, k: ((r, n), (k, n, w)),
    "vector @ stack": lambda n, r, w, k: ((n,), (k, n, w)),
    "stack @ matrix": lambda n, r, w, k: ((k, r, n), (n, w)),
}


def reference(a, b, p):
    """a @ b mod p over Python integers."""
    return np.matmul(a.astype(object), b.astype(object)) % p


def edges(field):
    """Inner lengths on both sides of the float64 bound and of one int64 chunk."""
    around = (field.float_terms, field.matmul_chunk)
    return sorted({n + e for n in around for e in (0, 1) if 1 <= n + e <= MAX_INNER})


@st.composite
def products(draw):
    p = draw(st.sampled_from(PRIMES))
    field = PrimeField(p)
    n = draw(st.one_of(st.integers(1, 40), st.sampled_from(edges(field) or [1])))
    r, w, k = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    a_shape, b_shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](n, r, w, k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a, b = field.sample(rng, a_shape), field.sample(rng, b_shape)
    else:
        # All p-1: the largest partial sums either regime can meet.
        a, b = np.full(a_shape, p - 1), np.full(b_shape, p - 1)
    if draw(st.booleans()):
        # Residues times -1, 0 or 1, as the payload fold leaves them; all
        # -1 times all p-1 gives the most negative partial sums.
        a = a * (rng.integers(-1, 2, a_shape) if draw(st.booleans()) else -1)
    return field, a, b


@settings(max_examples=200, deadline=None)
@given(
    case=products(),
    block_bytes=st.sampled_from([field_module._MATMUL_BLOCK_BYTES, 16, 64, 200]),
    into_view=st.booleans(),
)
def test_matmul_matches_python_integers(case, block_bytes, into_view):
    # Small column blocks make narrow products of either route cross
    # block boundaries.
    field, a, b = case
    want = reference(a, b, field.p)
    with mock.patch.object(field_module, "_MATMUL_BLOCK_BYTES", block_bytes):
        if into_view and np.ndim(want):
            # A strided view, as a slice of a larger array.
            buf = np.full(np.shape(want) + (2,), -1, dtype=np.int64)
            out = buf[..., 0]
            got = field.matmul(a, b, out=out)
            assert got is out
            assert (buf[..., 1] == -1).all()
        else:
            got = field.matmul(a, b)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.int64
    assert np.array_equal(np.asarray(got, dtype=object), want)


def test_regime_bounds():
    assert PrimeField(65537).float_terms == (1 << 21) - 1
    assert PrimeField(94906249).float_terms == 1
    assert PrimeField(94906249).matmul_chunk == 1024
    assert PrimeField(536870909).float_terms == 0  # one product (p-1)**2 passes 2**53
    for p in PRIMES:
        field = PrimeField(p)
        assert field.float_terms * (p - 1) ** 2 < 1 << 53 <= (field.float_terms + 1) * (p - 1) ** 2


def test_beam_sized_products_are_exact():
    # The control plane's products: one owner row against a bank of
    # 15 x 15 beams, and a stack of them.
    field = PrimeField(65537)
    rng = np.random.default_rng(2)
    a, b = field.sample(rng, (16, 15)), field.sample(rng, (16, 15, 15))
    assert np.array_equal(field.matmul(a[0], b), np.matmul(a[0], b) % field.p)
    assert np.array_equal(field.matmul(a, b), np.matmul(a, b) % field.p)


def test_control_plane_and_payload_products_are_exact():
    # The owner gains, the beam products of full16 and reduced17 and a
    # receive at scale 1, each one column block, and payload8's receive,
    # several.
    field = PrimeField(65537)
    rng = np.random.default_rng(5)
    for a_shape, b_shape in (((16, 15), (1, 15, 16)), ((16, 15, 15), (16, 15, 15)),
                             ((272, 5, 5), (272, 5, 1)), ((16, 15), (16, 15, 15)),
                             ((8, 7), (8, 7, 57344))):
        a, b = field.sample(rng, a_shape), field.sample(rng, b_shape)
        assert np.array_equal(field.matmul(a, b), np.matmul(a, b) % field.p)


@pytest.mark.parametrize("p", [65537, 536870909])  # float64 and int64 paths
@pytest.mark.parametrize(
    "b_shape, out_shape, dtype",
    [
        ((3, 5), (2, 4, 5), np.int64),  # extra leading axis
        ((3, 5), (4, 6), np.int64),  # wider than b
        ((3, 5), (4, 5), np.float64),
        ((3, 5), (4, 5), np.int32),
        ((3,), (4, 1), np.int64),  # vector b keeps no column axis
    ],
)
def test_matmul_refuses_a_mismatched_out(p, b_shape, out_shape, dtype):
    field = PrimeField(p)
    rng = np.random.default_rng(4)
    a, b = field.sample(rng, (4, 3)), field.sample(rng, b_shape)
    out = np.zeros(out_shape, dtype=dtype)
    with pytest.raises(ValueError, match="matmul out"):
        field.matmul(a, b, out=out)
    assert not out.any()


@pytest.mark.parametrize("n, regime", [((1 << 21) - 1, "float"), (1 << 21, "int")])
def test_float_bound_at_the_default_prime(n, regime):
    # n products (p-1)**2 = 2**32 sum to n * 2**32, the float64 limit at
    # n = 2**21; each is 1 mod p, so the product is n mod p.
    field = PrimeField(65537)
    assert (n <= field.float_terms) == (regime == "float")
    ones = np.full(n, field.p - 1)
    assert field.matmul(ones, ones[:, None]).tolist() == [n % field.p]


@pytest.mark.parametrize("p", [65537, 536870909])  # float64 and int64 routes
def test_column_blocks_cover_a_wide_stack(p):
    # 64 stacked 8 x 8 products: 8 KiB per output column, so 128-column
    # blocks, and 300 columns end inside the third block.
    field = PrimeField(p)
    rng = np.random.default_rng(3)
    a, b = field.sample(rng, (64, 8, 8)), field.sample(rng, (64, 8, 300))
    want = reference(a, b, p).astype(np.int64)
    assert np.array_equal(field.matmul(a, b), want)
    out = np.full((64, 8, 600), -1, dtype=np.int64)
    field.matmul(a, b, out=out[..., 1::2])
    assert np.array_equal(out[..., 1::2], want) and (out[..., ::2] == -1).all()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_matmul_memory_stays_near_its_output():
    # The receive product of a payload-sized schedule (N = 8, L = 7,
    # tau = 57344): numpy reports its buffers to tracemalloc, so float64
    # copies of the whole operand or result would show in the peak.
    field = PrimeField(65537)
    rng = np.random.default_rng(11)
    H = field.sample(rng, (8, 7))
    signals = field.sample(rng, (8, 7, 57344))
    result = []
    peak = _traced_peak(lambda: result.append(field.matmul(H, signals)))
    (out,) = result
    assert peak < out.nbytes + 4 * MiB
    assert np.array_equal(out, np.matmul(H, signals) % field.p)
    dest = np.empty_like(out)
    assert _traced_peak(lambda: field.matmul(H, signals, out=dest)) < 4 * MiB
    assert np.array_equal(dest, out)


def test_int64_matmul_memory_stays_near_its_output():
    # The same receive at a prime past the float64 bound: the int64 route
    # runs in the same column blocks, so its chunk products and the
    # reduction's quotient stay a block's size, not the product's.
    field = PrimeField(536870909)
    assert field.float_terms == 0
    rng = np.random.default_rng(12)
    H = field.sample(rng, (8, 7))
    signals = field.sample(rng, (8, 7, 57344))
    result = []
    peak = _traced_peak(lambda: result.append(field.matmul(H, signals)))
    (out,) = result
    assert peak < out.nbytes + 4 * MiB
    for cols in (slice(0, 256), slice(-256, None)):  # the first block and the last
        assert np.array_equal(out[..., cols], reference(H, signals[..., cols], field.p))
    dest = np.empty_like(out)
    assert _traced_peak(lambda: field.matmul(H, signals, out=dest)) < 4 * MiB
    assert np.array_equal(dest, out)
