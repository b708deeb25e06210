"""Scalar field contexts backing all payload and beamforming arithmetic.

Two interchangeable contexts are provided. ``PrimeField`` does exact
arithmetic on integers modulo a prime, so every delivery claim can be
checked as a plain equality. ``ComplexField`` models the same linear
network over complex floating point, with explicit tolerances standing
in for exactness. A context owns every arithmetic decision (dtype,
inversion, zero tests, equality), so no other module branches on the
mode. Values are plain numpy arrays; a single computation must stay
within one context.

``PrimeField.matmul`` is exact in one of two regimes, chosen by the
context from p and the inner length n. While n*(p-1)**2 < 2**53 every
partial sum is an integer that float64 represents exactly, so the
product runs through float64 BLAS, one block of output columns at a
time, and is reduced mod p in int64. Past that bound it runs numpy's
int64 product, reduced mod p every ``matmul_chunk`` terms so that no
sum overflows.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Largest allowed prime. Keeps every product a*b of two residues below
# 2**58, so an int64 product sum overflows only past 32 terms; matmul
# reduces in chunks short enough for the actual p. Float64 sums are
# exact only below 2**53: for a single term that holds up to
# p = 94,906,249, and at p = 65537 for inner lengths below 2**21.
_MAX_PRIME = (1 << 29) - 1

# Bytes of float64 operand plus result per column block of a float64
# matmul: the block's temporaries stay this small whatever the width.
_FLOAT_BLOCK_BYTES = 1 << 20

# Primes up to this size invert element-wise by one gather from a
# cached table of all p inverses (512 KiB at p = 65537); larger ones
# by Fermat's x**(p-2).
_TABLE_MAX_PRIME = 1 << 17

# Residues per step of a table build. Its 64 KiB temporaries stay below
# the allocator's mmap threshold; larger ones, once freed, raise that
# threshold and change how the process allocates its later large arrays.
_TABLE_CHUNK = 8192


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _fermat(x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2) mod p element-wise, by square and multiply."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    """Read-only table t of length p with t[x] = x**(p-2) mod p, the
    inverse of every nonzero x, built _TABLE_CHUNK residues at a time."""
    table = np.empty(p, dtype=np.int64)
    for s in range(0, p, _TABLE_CHUNK):
        x = np.arange(s, min(s + _TABLE_CHUNK, p), dtype=np.int64)
        table[s : s + len(x)] = _fermat(x, p)
    table.setflags(write=False)
    return table


def _product_shape(a, b) -> tuple:
    """Shape of np.matmul(a, b) for operands of at least one axis."""
    if b.ndim == 1:
        return a.shape[:-1]
    return np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + a.shape[-2:-1] + b.shape[-1:]


class PrimeField:
    """Arithmetic modulo a prime p, on int64 numpy arrays.

    Elements are canonical residues in [0, p). Matrix products of any
    inner dimension are exact. Up to ``float_terms`` terms, the most
    whose sum of (p-1)**2 products stays below 2**53, they run in
    float64 BLAS; longer ones run in int64 and are reduced mod p every
    ``matmul_chunk`` terms, the most whose sum still fits in int64.
    """

    mode = "gf"
    dtype = np.int64

    def __init__(self, p: int = 65537):
        # Size first: trial division of a 64-bit modulus would not finish.
        if p > _MAX_PRIME:
            raise ValueError(f"modulus {p} too large for exact int64 arithmetic")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.matmul_chunk = ((1 << 63) - 1) // (p - 1) ** 2
        self.float_terms = ((1 << 53) - 1) // (p - 1) ** 2

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("gf", self.p))

    def convert(self, a) -> np.ndarray:
        """Canonical residues of a; canonical int64 input comes back as is.

        Integral floats are accepted. Any other float (fractional,
        non-finite or beyond int64), any integer beyond int64 and any
        non-numeric or complex input raises ValueError instead of being
        truncated or wrapped.
        """
        a = np.asarray(a)
        kind = a.dtype.kind
        if kind == "f":
            fits = np.all((a == np.floor(a)) & (np.abs(a) < 2.0**63))
        else:
            # Only these kinds cast exactly: a uint64 of 2**63 or more
            # would wrap, a complex value lose its imaginary part, and
            # numpy keeps Python ints beyond int64 as objects.
            fits = kind in "biu" and (kind != "u" or not a.size or a.max() < 1 << 63)
        if not fits:
            raise ValueError("value entering prime field context is not an int64 integer")
        a = np.asarray(a, dtype=np.int64)
        # One pass: read as uint64, a negative entry exceeds every p.
        if a.size and a.view(np.uint64).max() < self.p:
            return a
        return a % self.p

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def coeff(self, c: int) -> int:
        """Map a small signed integer coefficient into the field."""
        return c % self.p

    def add(self, a, b) -> np.ndarray:
        return (np.asarray(a) + np.asarray(b)) % self.p

    def sub(self, a, b) -> np.ndarray:
        return (np.asarray(a) - np.asarray(b)) % self.p

    def neg(self, a) -> np.ndarray:
        return (-np.asarray(a)) % self.p

    def mul(self, a, b) -> np.ndarray:
        return (np.asarray(a) * np.asarray(b)) % self.p

    def matmul(self, a, b, out=None) -> np.ndarray:
        """a @ b mod p, with numpy's stacking rules; reduced in place.

        The contraction runs over the last axis of a and the first axis
        of a vector b, or the second-to-last axis of a matrix or stack b.
        ``out``, if given, receives the product; it must be an int64
        array (a strided view is fine) of exactly the product's shape,
        else ValueError, where np.matmul would broadcast or cast.
        Products of at most ``float_terms`` terms run in float64 BLAS;
        longer ones run in int64, ``matmul_chunk`` terms at a time.
        """
        a, b = np.asarray(a), np.asarray(b)
        shape = _product_shape(a, b)
        if out is not None and (out.shape != shape or out.dtype != np.int64):
            raise ValueError(
                f"matmul out must be int64 of shape {shape}, not {out.dtype} of shape {out.shape}"
            )
        if a.shape[-1] <= self.float_terms:
            return self._matmul_float(a, b, shape, out)
        n, step = a.shape[-1], self.matmul_chunk

        def terms(s):
            return b[s : s + step] if b.ndim == 1 else b[..., s : s + step, :]

        out = np.matmul(a[..., :step], terms(0), out=out)
        out %= self.p
        for s in range(step, n, step):
            part = a[..., s : s + step] @ terms(s)
            part %= self.p
            out += part
            out %= self.p
        return out

    def _matmul_float(self, a, b, shape, out) -> np.ndarray:
        """Exact a @ b mod p in float64, one block of output columns at a time.

        Each block casts its columns of b, multiplies, and reduces its
        columns of ``out`` in place, so the float64 temporaries stay
        near _FLOAT_BLOCK_BYTES however wide b is. The reduction
        subtracts (x // p) * p, the same residue as x % p at a
        fraction of the cost: numpy divides by a scalar fast in
        floor_divide but not in remainder.
        """
        if b.ndim == 1:
            # A vector b is one column; its output has no column axis.
            col_out = None if out is None else out[..., None]
            col = self._matmul_float(a, b[:, None], shape + (1,), col_out)
            return col[..., 0] if out is None else out
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        width = shape[-1]
        per_column = 8 * (math.prod(b.shape[:-1]) + math.prod(shape[:-1]))
        step = max(1, _FLOAT_BLOCK_BYTES // per_column)
        af = a.astype(np.float64)
        for s in range(0, width, step):
            r = np.matmul(af, b[..., s : s + step].astype(np.float64))
            block = out[..., s : s + step]
            np.copyto(block, r, casting="unsafe")
            q = block // self.p
            q *= self.p
            block -= q
        return out

    def inv_each(self, x) -> np.ndarray:
        """Element-wise inverse; ZeroDivisionError if any x is 0.

        One gather from the cached inverse table for p up to
        _TABLE_MAX_PRIME, Fermat's x**(p-2) beyond it.
        """
        x = self.convert(x)
        if not np.all(x):
            raise ZeroDivisionError("inverse of zero in GF(p)")
        if self.p <= _TABLE_MAX_PRIME:
            return _inverse_table(self.p)[x]
        return _fermat(x, self.p)

    def is_zero(self, x):
        """Element-wise test for x = 0 mod p."""
        return np.asarray(x) % self.p == 0

    def equal(self, a, b) -> bool:
        """Exact element-wise equality of two arrays."""
        return bool(np.array_equal(self.convert(a), self.convert(b)))

    # Exactness makes the decode-success test identical to equality.
    close = equal

    # Elimination decisions: any nonzero entry is a usable pivot. Pivot
    # choice works on a single column or on a stack of columns (leading
    # axes).

    def pivot_threshold(self, m) -> float:
        return 0.0

    def select_pivot(self, cols, threshold):
        """(index, found) along the last axis: the first nonzero entry."""
        nz = np.asarray(cols) != 0
        return nz.argmax(axis=-1), nz.any(axis=-1)

    def null_support(self, v) -> np.ndarray:
        """Which entries of null vectors (along the last axis) are nonzero."""
        return np.asarray(v) != 0

    def satisfies(self, a, x, b) -> bool:
        """Whether a @ x == b for x from an exact elimination, as the beam
        bank's inverses are; exactness guarantees it, so the product is
        skipped.
        """
        return True

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform symbols in [0, p), e.g. library contents."""
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def sample_channel(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Uniform nonzero coefficients in [1, p), e.g. channel entries."""
        return rng.integers(1, self.p, size=shape, dtype=np.int64)


class ComplexField:
    """Complex floating-point arithmetic with explicit tolerances.

    pivot_rtol: relative pivot threshold for rank decisions.
    null_rtol:  relative threshold for nonzero null-vector entries.
    zero_atol:  residual bound accepted as zero (beamformer contracts).
    decode_atol: max-abs deviation accepted as a successful decode.
    Sized for well-conditioned random channels at desk-scale dimensions.
    """

    mode = "complex"
    dtype = np.complex128

    pivot_rtol = 1e-10
    zero_atol = 1e-9
    decode_atol = 1e-6
    null_rtol = 1e-8

    # Below this magnitude a scalar is treated as not invertible.
    _inv_floor = 1e-12

    def __repr__(self) -> str:
        return "ComplexField()"

    def __eq__(self, other) -> bool:
        return isinstance(other, ComplexField)

    def __hash__(self) -> int:
        return hash("complex")

    def convert(self, a) -> np.ndarray:
        out = np.asarray(a, dtype=np.complex128)
        if not (np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))):
            raise ValueError("non-finite value entering complex field context")
        return out

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.complex128)

    def coeff(self, c: int) -> complex:
        return complex(c)

    def add(self, a, b) -> np.ndarray:
        return np.asarray(a) + np.asarray(b)

    def sub(self, a, b) -> np.ndarray:
        return np.asarray(a) - np.asarray(b)

    def neg(self, a) -> np.ndarray:
        return -np.asarray(a)

    def mul(self, a, b) -> np.ndarray:
        return np.asarray(a) * np.asarray(b)

    def matmul(self, a, b, out=None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def inv_each(self, x) -> np.ndarray:
        """Element-wise 1/x; ZeroDivisionError if any |x| is below the floor."""
        x = np.asarray(x)
        if np.any(np.abs(x) < self._inv_floor):
            raise ZeroDivisionError("inverse of (numerically) zero scalar")
        return 1.0 / x

    def is_zero(self, x):
        """Element-wise test for |x| <= zero_atol."""
        return np.abs(x) <= self.zero_atol

    def equal(self, a, b) -> bool:
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))

    def pivot_threshold(self, m):
        """Pivot magnitudes at or below this count as zero in ``m``.

        One threshold per matrix: a scalar for one matrix, shape (B,)
        for a (B, rows, cols) stack.
        """
        scale = np.max(np.abs(m), axis=(-2, -1), initial=0.0)
        return self.pivot_rtol * np.maximum(1.0, scale)

    def select_pivot(self, cols, threshold):
        """(index, found) along the last axis: the largest entry, found if above threshold."""
        mag = np.abs(cols)
        return mag.argmax(axis=-1), mag.max(axis=-1) > threshold

    def null_support(self, v) -> np.ndarray:
        """Which entries of null vectors (along the last axis) count as nonzero.

        An entry counts when it exceeds null_rtol times the largest
        magnitude in its vector. For the left null vector of an
        (n+1) x n matrix, |v_k| / max |v| is the ratio of the
        determinant without row k to the largest such determinant. On
        near-dependent CN(0,1) draws that the per-subset rank test
        rejects, it stayed below 5e-10, 20 times under null_rtol.
        """
        mag = np.abs(v)
        return mag > self.null_rtol * mag.max(axis=-1, keepdims=True)

    def satisfies(self, a, x, b) -> bool:
        """Whether a @ x matches b within zero_atol, max-abs.

        Rechecks the beam bank's inverses so that near-degenerate
        channels surface.
        """
        return float(np.max(np.abs(self.matmul(a, x) - b))) <= self.zero_atol

    def close(self, a, b) -> bool:
        """Decode-success comparison at decode_atol, max-abs."""
        diff = np.asarray(a) - np.asarray(b)
        return bool(np.max(np.abs(diff), initial=0.0) <= self.decode_atol)

    def sample(self, rng: np.random.Generator, shape) -> np.ndarray:
        re = rng.standard_normal(shape)
        im = rng.standard_normal(shape)
        return (re + 1j * im) / np.sqrt(2.0)

    # Channel entries and payload symbols share the CN(0,1) draw.
    sample_channel = sample


FieldContext = PrimeField | ComplexField


def make_field(mode: str, prime: int = 65537) -> FieldContext:
    """Build a field context from a CLI-style mode tag."""
    if mode == "gf":
        return PrimeField(prime)
    if mode == "complex":
        return ComplexField()
    raise ValueError(f"unknown field mode {mode!r} (expected 'gf' or 'complex')")
