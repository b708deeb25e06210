"""Field contexts and the elimination core."""

import numpy as np
import pytest

import mscache.field
from mscache import (
    ComplexField,
    DegenerateChannel,
    PrimeField,
    make_field,
    nullspace_basis,
    rank,
    solve,
    zero_forcing_vector,
)

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


def test_gf_scalar_ops():
    assert GF7.coeff(-1) == 6
    assert GF7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    with pytest.raises(ZeroDivisionError):
        GF7.inv(0)
    assert GF7.equal(GF7.convert([-1, 8]), [6, 1])
    assert GF7.is_zero(7) and not GF7.is_zero(3)


@pytest.mark.parametrize("p", (2, 3, 7, 65537, 536870909))
def test_gf_inv_each_inverts_every_residue(p):
    # Primes up to 2^17 gather from a cached read-only table, larger ones
    # run Fermat's loop; both must give every nonzero residue's inverse.
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


def test_gf_convert_rejects_non_integral_floats():
    assert GF7.convert(np.array([1.0, -1.0, 8.0])).tolist() == [1, 6, 1]
    assert GF7.convert(3.0).tolist() == 3
    for bad in ([1.5], [2.0, -0.25], [np.nan], [np.inf], [-np.inf], [1e30]):
        with pytest.raises(ValueError, match="not an int64 integer"):
            GF7.convert(np.array(bad))
    with pytest.raises(ValueError, match="not an int64 integer"):
        GF.convert(0.5)


def test_complex_guards():
    with pytest.raises(ValueError):
        CC.convert([np.inf, 0.0])
    with pytest.raises(ZeroDivisionError):
        CC.inv(0.0)
    assert CC.close([1.0 + 0j], [1.0 + 5e-7j])
    assert not CC.close([1.0 + 0j], [1.0 + 1e-3j])


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


def test_nullspace_trivial():
    assert nullspace_basis(GF, np.eye(2, dtype=np.int64)) == []


def test_nullspace_single_row_gf7():
    basis = nullspace_basis(GF7, [[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert not GF7.is_zero(v[0]) or not GF7.is_zero(v[1])
    assert int(v[0] + v[1]) % 7 == 0  # forced: v2 = -v1, i.e. (1, 6) up to scale


def test_nullspace_annihilation_seeded():
    rng = np.random.default_rng(3)
    for trial in range(25):
        A = GF.sample(rng, (2, 3))
        if rank(GF, A) < 2:
            continue
        basis = nullspace_basis(GF, A)
        assert len(basis) == 1
        prod = GF.matmul(A, basis[0])
        assert GF.equal(prod, GF.zeros(2))


def test_nullspace_dimension_counts():
    rng = np.random.default_rng(11)
    for trial in range(25):
        A = GF.sample(rng, (3, 5))
        assert len(nullspace_basis(GF, A)) == 5 - rank(GF, A)


def test_solve_roundtrip():
    rng = np.random.default_rng(9)
    for trial in range(25):
        A = GF.sample(rng, (4, 4))
        if rank(GF, A) < 4:
            continue
        x = GF.sample(rng, 4)
        b = GF.matmul(A, x)
        got = solve(GF, A, b)
        assert GF.equal(got, x)


def test_solve_inconsistent_raises():
    # x + y = 1 and 2x + 2y = 3 cannot both hold
    with pytest.raises(DegenerateChannel):
        solve(GF7, [[1, 1], [2, 2]], [1, 3])


def test_zf_no_interferers():
    H = GF.convert([[3, 5], [2, 9]])
    w = zero_forcing_vector(GF, H, 0, [0])
    assert int(GF.matmul(H[0], w)) == 1


def test_zf_axis_aligned():
    H = [[1, 0], [0, 1]]
    w = zero_forcing_vector(GF, H, 0, [0, 1])
    assert GF.equal(w, [1, 0])


def test_zf_seeded_triple_products():
    rng = np.random.default_rng(21)
    H = GF.sample_channel(rng, (3, 3))
    assert rank(GF, H) == 3
    w = zero_forcing_vector(GF, H, 1, [0, 1, 2])
    assert GF.is_zero(GF.matmul(H[0], w))
    assert GF.is_zero(GF.matmul(H[2], w))
    assert int(GF.matmul(H[1], w)) == 1


def test_zf_degenerate_raises():
    # second row is twice the first, so user 0 cannot null user 1
    H = GF7.convert([[1, 2], [2, 4]])
    with pytest.raises(DegenerateChannel):
        zero_forcing_vector(GF7, H, 0, [0, 1])


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
            w = zero_forcing_vector(field, H, k, users)
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
