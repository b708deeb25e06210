"""Field contexts and the elimination core.

Null vectors, solutions and zero-forcing beams are checked on the
kernels the program makes them with: ``left_inverse_stack``, its
kernel's square case (``reference_kernels.inverse_stack``), and the
schedule's beams (``delivery._beams``'
factors, formed by ``delivery._block_beams``) with each group's parent
set made of the group plus a zero row (``beam_helpers.group_beams``).
"""

import numpy as np
import pytest
from beam_helpers import group_beams
from hypothesis import given, settings
from hypothesis import strategies as st

import mscache.field
from mscache import (
    ComplexField,
    DegenerateChannel,
    PrimeField,
    SimulatorError,
    make_field,
)
from mscache.channel import ChannelMatrix
from mscache.delivery import _beam_indices, _beams
from mscache.linalg import left_inverse_stack
from reference_kernels import inverse_stack, rank

GF = PrimeField(65537)
GF7 = PrimeField(7)
CC = ComplexField()


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField((1 << 31) - 1)  # prime, but beyond the overflow-safe cap
    assert make_field("gf", 7).p == 7
    with pytest.raises(ValueError):
        make_field("nope")


def test_field_refusals_are_typed_simulator_errors():
    # Every refusal of a field context is a FieldError: a SimulatorError,
    # and still a ValueError.
    square = np.ones((2, 2), dtype=np.int64)
    refusals = [
        (lambda: PrimeField(4), "not prime"),
        (lambda: PrimeField((1 << 31) - 1), "too large"),
        (lambda: GF.convert([0.5]), "not an int64 integer"),
        (lambda: CC.convert([np.inf]), "non-finite"),
        (lambda: GF.matmul(square, square, out=np.empty((2, 2), dtype=np.int32)), "matmul out"),
        (lambda: make_field("foo"), "unknown field mode"),
    ]
    for refuse, message in refusals:
        with pytest.raises(SimulatorError, match=message) as refused:
            refuse()
        assert type(refused.value) is mscache.FieldError
        assert isinstance(refused.value, ValueError)


def test_gf_scalar_ops():
    assert GF7.coeff(-1) == 6
    assert GF7.inv_each(3) == 5  # 3*5 = 15 = 1 mod 7
    assert GF7.inv_each([3, 6]).tolist() == [5, 6]
    with pytest.raises(ZeroDivisionError):
        GF7.inv_each(0)
    assert GF7.equal(GF7.convert([-1, 8]), [6, 1])
    assert GF7.is_zero(7) and not GF7.is_zero(3)


@pytest.mark.parametrize("p", (2, 3, 7, 65537, 536870909))
def test_gf_inv_each_inverts_every_residue(p):
    # Primes up to 2^17 gather from a cached read-only table, larger ones
    # run a product tree; both must give every nonzero residue's inverse.
    field = PrimeField(p)
    x = np.arange(1, p) if p < 1 << 17 else np.random.default_rng(p).integers(1, p, 4096)
    inv = field.inv_each(x)
    assert np.array_equal(inv * x % p, np.ones_like(x))
    assert inv.flags.writeable
    if p < 1 << 17:
        assert not mscache.field._inverse_table(p).flags.writeable
    assert np.array_equal(field.inv_each(x.reshape(-1, 1))[:, 0], inv)
    with pytest.raises(ZeroDivisionError):
        field.inv_each(np.array([1, 0]))


@st.composite
def large_prime_residues(draw):
    """A prime past the inverse table's bound, nonzero residues that
    include 1 and p - 1 in drawn places, and a place for a zero."""
    p = draw(st.sampled_from((94906249, 536870909)))
    size = draw(st.integers(0, 300))
    values = draw(st.lists(st.integers(1, p - 1), min_size=size, max_size=size)) + [1, p - 1]
    order = draw(st.permutations(range(len(values))))
    return p, np.array(values, dtype=np.int64)[order], draw(st.integers(0, len(values)))


@settings(max_examples=60, deadline=None)
@given(large_prime_residues())
def test_large_prime_inverses_by_product_tree_match_fermat(case):
    # Vectors of up to 64 entries run Fermat's power directly, longer
    # ones (and odd lengths, padded) pass through the product tree.
    p, x, at = case
    field = PrimeField(p)
    inv = field.inv_each(x)
    assert np.array_equal(inv, mscache.field._fermat(x, p))
    assert np.array_equal(field.mul(inv, x), np.ones_like(x))
    assert np.array_equal(field.inv_each(x.reshape(1, -1, 1)), inv.reshape(1, -1, 1))
    with pytest.raises(ZeroDivisionError):
        field.inv_each(np.insert(x, at, 0))


@st.composite
def awkward_int64_arrays(draw):
    """A prime on each side of the inverse table's bound and two int64
    arrays holding the entries a shortcut on canonical input could
    mishandle: 0 and p, their multiples and negatives, 2**62 and the
    int64 extremes. b is sometimes a with entries moved by multiples of
    p, sometimes another shape."""
    p = draw(st.sampled_from((2, 7, 65537, 536870909)))
    special = [0, 1, p - 1, p, p + 1, 2 * p, -1, -p, -p - 1, 1 - p, 2**62, -(2**62),
               2**63 - 1, -(2**63)]
    entries = st.one_of(st.sampled_from(special), st.integers(-(2**63), 2**63 - 1),
                        st.integers(0, p - 1))
    shapes = st.sampled_from([(), (1,), (5,), (2, 3), (3, 2)])
    shape = draw(shapes)
    size = int(np.prod(shape))
    values = st.lists(entries, min_size=size, max_size=size)
    a = np.array(draw(values), dtype=np.int64).reshape(shape)
    how = draw(st.sampled_from(["shifted", "drawn", "reshaped"]))
    if how == "shifted":
        # The same residues, moved by multiples of p where that fits in int64.
        moved = draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        b = (a.ravel().astype(object) + p * np.array(moved, dtype=object)).reshape(shape)
        b = np.where((b >= -(2**63)) & (b < 2**63), b, a).astype(np.int64)
    elif how == "drawn":
        b = np.array(draw(values), dtype=np.int64).reshape(shape)
    else:
        b = a.reshape(-1) if a.ndim != 1 else a.reshape(1, -1)
    return PrimeField(p), a, b


@settings(max_examples=300, deadline=None)
@given(awkward_int64_arrays())
def test_lean_gf_kernels_keep_their_residue_semantics(case):
    # inv_each gathers int64 input straight from the table and equal
    # compares two int64 arrays of one shape in one pass; each must still
    # answer for the residues, as after convert.
    field, a, b = case
    residues = field.convert(a)
    if (residues == 0).any():
        with pytest.raises(ZeroDivisionError):
            field.inv_each(a)
    else:
        inv = field.inv_each(a)
        assert np.shape(inv) == a.shape
        assert np.array_equal(inv, mscache.field._fermat(residues, field.p))
    want = bool(np.array_equal(residues, field.convert(b)))
    assert field.equal(a, b) is want
    assert field.equal(b, a) is want
    assert bool(field.close(a, b)) is want
    if a.ndim and a.shape == b.shape:
        # One flag per slice along the last axis, as decode's verdict asks.
        flags = field.close(a, b, axis=-1)
        assert np.array_equal(flags, np.all(residues == field.convert(b), axis=-1))


@st.composite
def complex_arrays_with_planted_parts(draw):
    """A complex128 array, and where to plant nan or +-inf in it: in the
    real part, the imaginary part, or nowhere."""
    shape = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    size = int(np.prod(shape))
    parts = draw(st.lists(st.tuples(finite, finite), min_size=size, max_size=size))
    a = np.array([complex(re, im) for re, im in parts], dtype=np.complex128).reshape(shape)
    where = draw(st.sampled_from(["real", "imag", "none"]))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    index = draw(st.integers(0, size - 1))
    return a, where, bad, index


@settings(max_examples=300, deadline=None)
@given(complex_arrays_with_planted_parts())
def test_complex_convert_refuses_any_non_finite_part(case):
    # convert makes one finiteness test over the complex values; it must
    # still refuse nan or +-inf in either part and hand finite input back.
    a, where, bad, index = case
    if where == "none":
        assert CC.convert(a) is a
        assert np.array_equal(CC.convert(a.tolist()), a)
        return
    flat = a.reshape(-1)
    if where == "real":
        flat[index] = complex(bad, flat[index].imag)
    else:
        flat[index] = complex(flat[index].real, bad)
    assert np.isnan(getattr(flat[index], where)) or np.isinf(getattr(flat[index], where))
    with pytest.raises(ValueError):
        CC.convert(a)
    with pytest.raises(ValueError):
        CC.convert(a.tolist())


def test_gf_matmul_exact_past_one_int64_chunk():
    p = 536870909  # the largest allowed prime: 32 products (p-1)**2 fit in int64
    big = PrimeField(p)
    ones = big.matmul(np.full((1, 40), p - 1), np.full((40, 1), p - 1))
    assert ones.tolist() == [[40]]  # (p-1)**2 = 1 mod p
    assert big.matmul_chunk == 32
    assert GF.matmul_chunk == (1 << 31) - 1  # a single chunk at the default prime
    rng = np.random.default_rng(5)
    for n in (31, 32, 33, 64, 100):
        a = big.sample(rng, (3, n))
        b = big.sample(rng, (n, 2))
        want = [
            [sum(int(a[r, q]) * int(b[q, c]) for q in range(n)) % p for c in range(2)]
            for r in range(3)
        ]
        assert big.matmul(a, b).tolist() == want
        assert int(big.matmul(a[0], b[:, 0])) == want[0][0]


def test_gf_matmul_chunks_the_contraction_axis_of_stacks():
    # A vector or a stack against a stack, as a row's owner gains against
    # its beam-bank inverses: the chunks must run over the inner axis (40,
    # longer than one 32-term chunk), not over the batch axis.
    p = 536870909
    big = PrimeField(p)
    a = np.full(40, p - 1)
    b = np.full((3, 40, 5), p - 1)
    out = big.matmul(a, b)
    assert out.shape == (3, 5)
    assert out.tolist() == [big.matmul(a, b[j]).tolist() for j in range(3)]
    assert out.tolist() == [[40] * 5] * 3  # (p-1)**2 = 1 mod p
    rng = np.random.default_rng(6)
    a2 = big.sample(rng, (2, 4, 40))
    b2 = big.sample(rng, (2, 40, 3))
    want = [[[sum(int(a2[j, r, q]) * int(b2[j, q, c]) for q in range(40)) % p
              for c in range(3)] for r in range(4)] for j in range(2)]
    assert big.matmul(a2, b2).tolist() == want


def test_gf_samples_in_range():
    rng = np.random.default_rng(0)
    sym = GF7.sample(rng, 1000)
    chan = GF7.sample_channel(rng, 1000)
    assert sym.min() >= 0 and sym.max() < 7
    assert chan.min() >= 1 and chan.max() < 7


def test_gf_convert_returns_canonical_int64_input_as_is():
    x = np.array([[0, 3], [6, 1]], dtype=np.int64)
    assert GF7.convert(x) is x
    frozen = np.arange(7, dtype=np.int64)
    frozen.setflags(write=False)
    assert GF7.convert(frozen) is frozen


def test_gf_convert_reduces_other_input_into_a_new_array():
    for raw in ([-1, 2, 3], [0, 7, 15]):
        x = np.array(raw, dtype=np.int64)
        y = GF7.convert(x)
        assert y is not x and not np.shares_memory(x, y)
        assert y.tolist() == [v % 7 for v in raw]
        assert x.tolist() == raw  # the input is left as it was
    # Other integer dtypes come back as int64 residues.
    assert GF7.convert(np.array([1, 9], dtype=np.int32)).dtype == np.int64
    assert GF7.convert([]).shape == (0,)


def test_gf_equal_compares_residues():
    assert GF7.equal([8], [1])  # p + 1 and 1
    assert GF7.equal(np.array([[8, -1]]), np.array([[1, 6]]))
    assert not GF7.equal([2], [1])
    assert GF7.close([8, 0], [1, 7]) and not GF7.close([1, 0], [1, 1])


@pytest.mark.parametrize("p", [7, 65537, 536870909])
def test_gf_reductions_give_residues_and_keep_sums_within_int64(p):
    # reduce maps any int64 to its residue; reduce_products leaves
    # products of residues as they are only while `terms` of them plus
    # one residue still sum within int64.
    field = PrimeField(p)
    x = np.array([-(2**62), -p - 1, -1, 0, p, 2**62 + 5], dtype=np.int64)
    assert field.reduce(x.copy()).tolist() == [int(v) % p for v in x]
    top = (p - 1) ** 2
    chunk = field.matmul_chunk
    for terms in (1, chunk - 1, chunk, chunk + 1):
        out = field.reduce_products(np.full(3, top, dtype=np.int64), terms)
        kept = out[0] == top
        assert kept == (terms < chunk)
        if kept:
            assert terms * top + p - 1 < 2**63
        else:
            assert out.tolist() == [top % p] * 3
    z = np.array([1 + 2j])
    assert CC.reduce(z) is z and CC.reduce_products(z, 2**40) is z


@pytest.mark.parametrize("p", (2, 3, 65537, 536870909))
def test_gf_elementwise_ops_equal_python_remainder(p):
    # add, sub, mul and neg reduce one numpy expression by floor division.
    # On every pair of these residues they equal Python's %, also where
    # sub and neg reach -(p-1) before the reduction, and they leave their
    # operands as they were.
    field = PrimeField(p)
    drawn = np.random.default_rng(p).integers(0, p, 6).tolist()
    picks = sorted({0, 1, p // 2, p - 2, p - 1, *drawn})
    a, b = (np.array(x, dtype=np.int64) for x in np.meshgrid(picks, picks, indexing="ij"))
    before = a.copy(), b.copy()
    pairs = [(x, y) for x in picks for y in picks]
    for name, op in (("add", int.__add__), ("sub", int.__sub__), ("mul", int.__mul__)):
        got = getattr(field, name)(a, b)
        assert got.dtype == np.int64
        assert got.ravel().tolist() == [op(x, y) % p for x, y in pairs], name
    assert field.neg(a[:, 0]).tolist() == [(-x) % p for x in picks]
    assert field.sub(0, p - 1) == 1 and field.neg(p - 1) == 1
    assert field.mul(p - 1, p - 1) == 1
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


def test_gf_convert_rejects_non_integral_floats():
    assert GF7.convert(np.array([1.0, -1.0, 8.0])).tolist() == [1, 6, 1]
    assert GF7.convert(3.0).tolist() == 3
    for bad in ([1.5], [2.0, -0.25], [np.nan], [np.inf], [-np.inf], [1e30]):
        with pytest.raises(ValueError, match="not an int64 integer"):
            GF7.convert(np.array(bad))
    with pytest.raises(ValueError, match="not an int64 integer"):
        GF.convert(0.5)


def test_gf_convert_refuses_what_an_int64_cast_would_change():
    # A plain int64 cast would wrap, truncate or overflow on each of these.
    for bad in (
        [2**64 - 1],  # residue 0; the cast gives 65536
        [2**63],  # residue 32769; the cast gives 32768
        np.array([2**63, 1], dtype=np.uint64),
        np.array([2**64 - 1], dtype=np.uint64),
        [2**64],
        [-(2**63) - 1],
        [3, 2**70],
        [1 + 2j],  # the cast keeps only the real part
        np.array([3 + 0j]),
        ["3"],
    ):
        with pytest.raises(ValueError, match="not an int64 integer"):
            GF.convert(bad)
    # At the int64 edges, and for unsigned input below 2**63, residues are exact.
    edges = [2**63 - 1, -(2**63)]
    assert GF.convert(edges).tolist() == [x % GF.p for x in edges]
    unsigned = [5, 70000, 2**63 - 1]
    got = GF.convert(np.array(unsigned, dtype=np.uint64))
    assert got.tolist() == [x % GF.p for x in unsigned]


def test_complex_guards():
    with pytest.raises(ValueError):
        CC.convert([np.inf, 0.0])
    with pytest.raises(ZeroDivisionError):
        CC.inv_each(0.0)
    with pytest.raises(ZeroDivisionError):
        CC.inv_each([1.0, 1e-13])
    assert CC.inv_each([2.0, 1j]).tolist() == [0.5, -1j]
    assert CC.close([1.0 + 0j], [1.0 + 5e-7j])
    assert not CC.close([1.0 + 0j], [1.0 + 1e-3j])
    files = [[1.0, 2.0], [1.0, 2.0 + 1e-3j]]
    assert CC.close(files, [[1.0, 2.0 + 5e-7j], [1.0, 2.0]], axis=1).tolist() == [True, False]


def test_rank_identity_and_zero():
    assert rank(GF, np.eye(3, dtype=np.int64)) == 3
    assert rank(GF, np.zeros((2, 4), dtype=np.int64)) == 0


def test_rank_seeded_tall_matrix():
    # 4x2 channel-shaped draw; full column rank confirmed by a direct
    # 2x2 minor determinant, independent of the elimination under test.
    rng = np.random.default_rng(42)
    H = GF.sample_channel(rng, (4, 2))
    det = int(H[0, 0] * H[1, 1] - H[0, 1] * H[1, 0]) % GF.p
    assert det != 0
    assert rank(GF, H) == 2


def test_rank_row_permutation_and_scaling_invariance():
    rng = np.random.default_rng(7)
    for trial in range(25):
        A = GF.sample(rng, (4, 5))
        r = rank(GF, A)
        perm = rng.permutation(4)
        assert rank(GF, A[perm]) == r
        scales = GF.sample_channel(rng, (4, 1))
        assert rank(GF, GF.mul(A, scales)) == r


def test_rank_complex_tolerance():
    assert rank(CC, [[1.0, 0.0], [1e-13, 0.0]]) == 1
    assert rank(CC, [[1.0, 0.0], [0.0, 1e-13]]) == 1
    assert rank(CC, [[1.0, 0.0], [0.0, 1.0]]) == 2


def _zero_padded(field, H):
    """H with a zero row K appended, so that a group plus row K is a parent
    set whose left null vector lives on that row alone."""
    H = ChannelMatrix(field, H)
    return ChannelMatrix(field, np.concatenate([H.H, field.zeros((1, H.L))]))


def test_nullspace_trivial():
    # A nonsingular block has no left null vector of its own: with the
    # zero row appended, as the beam tests (beam_helpers) do, the
    # null vector lives on the zero row alone and G begins with the inverse.
    a = np.concatenate([np.eye(2, dtype=np.int64), np.zeros((1, 2), dtype=np.int64)])
    G, v, full_rank = left_inverse_stack(GF, a[None])
    assert full_rank[0]
    assert GF.null_support(v[0]).tolist() == [False, False, True]
    assert GF.equal(G[0][:, :2], np.eye(2, dtype=np.int64))


def test_nullspace_single_row_gf7():
    _, v, full_rank = left_inverse_stack(GF7, [[[1], [1]]])
    assert full_rank[0]
    v = v[0]
    assert GF7.null_support(v).all()
    assert int(v[0] + v[1]) % 7 == 0  # forced: v2 = -v1, i.e. (1, 6) up to scale


def test_nullspace_annihilation_seeded():
    rng = np.random.default_rng(3)
    A = GF.sample(rng, (25, 3, 2))
    G, v, full_rank = left_inverse_stack(GF, A)
    for a, g, vb, ok in zip(A, G, v, full_rank):
        assert bool(ok) == (rank(GF, a) == 2)
        if not ok:
            continue
        assert vb.any()
        assert GF.equal(GF.matmul(vb, a), GF.zeros(2))
        assert GF.equal(GF.matmul(g, a), np.eye(2, dtype=np.int64))


def test_nullspace_dimension_counts():
    # An (n+1) x n matrix of rank r has a left null space of dimension
    # n + 1 - r: a single vector, the one the tall elimination returns,
    # exactly when it reports full rank.
    rng = np.random.default_rng(11)
    for trial in range(25):
        r = int(rng.integers(1, 4))
        a = GF.matmul(GF.sample_channel(rng, (4, r)), GF.sample_channel(rng, (r, 3)))
        _, v, full_rank = left_inverse_stack(GF, a[None])
        assert bool(full_rank[0]) == (rank(GF, a) == 3)
        if full_rank[0]:
            assert v[0].any() and GF.equal(GF.matmul(v[0], a), GF.zeros(3))


def test_solve_roundtrip():
    rng = np.random.default_rng(9)
    A = GF.sample(rng, (25, 4, 4))
    x = GF.sample(rng, (25, 4, 1))
    inverses, nonsingular = inverse_stack(GF, A)
    got = GF.matmul(inverses, GF.matmul(A, x))
    for b in range(25):
        assert bool(nonsingular[b]) == (rank(GF, A[b]) == 4)
        if nonsingular[b]:
            assert GF.equal(got[b], x[b])


def test_solve_inconsistent_raises():
    # x + y = 1 and 2x + 2y = 3 cannot both hold: users 0 and 1 of this
    # channel cannot be served together, and the schedule's beams refuse.
    H = ChannelMatrix(GF7, [[1, 1], [2, 2], [1, 3]])
    group_beams(GF7, H.H, [[0, 2]])
    with pytest.raises(DegenerateChannel, match=r"served group \(0, 1\) are dependent"):
        group_beams(GF7, H.H, [[0, 2], [0, 1]])
    group = np.array([[0, 1]])
    with pytest.raises(DegenerateChannel, match=r"served group \(0, 1\) are dependent"):
        _beams(_zero_padded(GF7, H.H), np.array([[0, 1, 3]]), [2], group,
               **_beam_indices(np.array([0]), np.array([2]), 2))


def test_zf_no_interferers():
    H = GF.convert([[3], [2]])
    inverses, gains, weights = group_beams(GF, H, [[0]])
    assert np.array_equal(gains, weights)
    assert int(GF.matmul(H[0], inverses[0][:, 0])) == 1


def test_zf_axis_aligned():
    inverses, _, _ = group_beams(GF, [[1, 0], [0, 1]], [[0, 1]])
    assert GF.equal(inverses[0][:, 0], [1, 0])


def test_zf_seeded_triple_products():
    rng = np.random.default_rng(21)
    H = GF.sample_channel(rng, (3, 3))
    assert rank(GF, H) == 3
    inverses, gains, weights = group_beams(GF, H, [[0, 1, 2]])
    assert np.array_equal(gains, weights)
    w = inverses[0][:, 1]
    assert GF.is_zero(GF.matmul(H[0], w))
    assert GF.is_zero(GF.matmul(H[2], w))
    assert int(GF.matmul(H[1], w)) == 1


def test_zf_degenerate_raises():
    # second row is twice the first, so user 0 cannot null user 1
    for field, rows in ((GF7, [[1, 2], [2, 4], [1, 1]]), (CC, [[1, 2], [2, 4], [1, 1j]])):
        H = ChannelMatrix(field, rows)
        with pytest.raises(DegenerateChannel, match="are dependent"):
            group_beams(field, H.H, [[0, 1]])
        with pytest.raises(DegenerateChannel):
            _beams(_zero_padded(field, H.H), np.array([[0, 1, 3]]), [2], np.array([[0, 1]]),
                   **_beam_indices(np.array([0]), np.array([2]), 2))


def test_zf_orthogonality_seeded_sweep():
    for mode, field in (("gf", GF), ("complex", CC)):
        rng = np.random.default_rng(100)
        for trial in range(200):
            L = int(rng.integers(1, 5))
            K = int(rng.integers(L, L + 3))
            H = field.sample_channel(rng, (K, L))
            users = list(rng.permutation(K)[:L])
            if rank(field, np.asarray(H)[users, :]) < len(users):
                continue
            k = int(users[0])
            inverses, gains, weights = group_beams(field, H, [users], seed=trial)
            if mode == "gf":
                assert np.array_equal(gains, weights)
            else:
                assert np.max(np.abs(gains - weights)) < 1e-9
            w = inverses[0][:, 0]
            for j in users:
                got = field.matmul(field.convert(H)[j], w)
                if j == k:
                    if mode == "gf":
                        assert int(got) == 1
                    else:
                        assert abs(got - 1.0) < 1e-9
                else:
                    if mode == "gf":
                        assert int(got) == 0
                    else:
                        assert abs(got) < 1e-9
