"""Scalar field contexts backing all payload and beamforming arithmetic.

Two interchangeable contexts are provided. ``PrimeField`` does exact
arithmetic on integers modulo a prime, so every delivery claim can be
checked as a plain equality. ``ComplexField`` models the same linear
network over complex floating point, with explicit tolerances standing
in for exactness. A context owns every arithmetic decision (dtype,
inversion, zero tests, equality, reduction), so no other module
branches on the mode; ``exact`` tells the kernel that can use exact
arithmetic (``linalg._gauss_jordan``) whether it may. Values are plain
numpy arrays; a single computation must stay within one context. Code
that combines values with plain numpy arithmetic (products, sums and
differences of at most 2**63 in magnitude) passes the result through
``reduce``, and products that it will sum further through
``reduce_products``.

``PrimeField.reduce`` subtracts (x // p) * p, so every reduction,
including those of ``add``, ``sub``, ``mul`` and ``neg``, is a floor
division by a scalar, which numpy runs about four times faster per
element than ``x % p``. A division-free elimination update d*a - f*b
is one int64 expression (two products of residues, each below 2**58 at
the largest prime, so their difference fits) and one reduction.

``PrimeField.matmul`` is one loop over blocks of output columns, each
block's product exact by an inner route that the context picks from p
and the inner length n. While n*(p-1)**2 < 2**53 every partial sum is
an integer that float64 represents exactly, so the block runs through
float64 BLAS; past that bound it runs numpy's int64 product, reduced
mod p every ``matmul_chunk`` terms so that no sum overflows. Either
way the block's product is reduced mod p where it was made, a
contiguous int64 array, and then copied into the output, so the
temporaries of both routes stay near one block. Both bounds hold
for any operands of magnitude below p, so a residue times -1, 0 or 1
enters a product unreduced.

The control plane makes a few small products, inverses and comparisons
per trial, so their fixed cost per call is what it pays. A product
small enough for one column block, as every control-plane product is,
is the loop's one iteration: three casts, the product and a
reduction, with no shape arithmetic, slicing or copy. ``inv_each`` gathers
int64 input straight from its table and finds a zero entry by one check
of the inverses, and ``equal`` and ``close`` (the decode verdict, one
flag per file of a block given an axis) compare two int64 arrays of one
shape in one pass; only other input pays for ``convert``. Complex mode
calls the ufuncs directly, and its ``convert`` tests the finiteness of
the complex values in one pass.

An elimination step asks where the pivot is (``select_pivot``),
whether it is usable (``pivot_found``, on the pivots the kernel gathers
anyway) and its inverse (``inv_nonzero``, one reciprocal in complex
mode). The beams ask once per channel whether the group inverses formed
from the parent sets' eliminations hold (``inverses_hold``): True in
GF, and in complex mode a bound from each parent elimination's own
residuals, so the verdict does not depend on how the beams are formed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import FieldError, InconsistentInputs

# Largest allowed prime. Keeps every product a*b of two residues below
# 2**58, so an int64 product sum overflows only past 32 terms; matmul
# reduces in chunks short enough for the actual p. Float64 sums are
# exact only below 2**53: for a single term that holds up to
# p = 94,906,249, and at p = 65537 for inner lengths below 2**21.
_MAX_PRIME = (1 << 29) - 1

# Bytes of b's columns plus the product's per column block of
# ``PrimeField.matmul``, on either inner route, so that a block's
# temporaries stay this small whatever the width.
_MATMUL_BLOCK_BYTES = 1 << 20

# Primes up to this size invert element-wise by one gather from a
# cached table of all p inverses (512 KiB at p = 65537); larger ones
# by a product tree (``PrimeField._tree_inverse``).
_TABLE_MAX_PRIME = 1 << 17

# The product tree stops halving at this many entries and inverts them
# by Fermat's x**(p-2).
_TREE_LEAVES = 64

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
    inverse of every nonzero x, and t[0] = 0, built _TABLE_CHUNK
    residues at a time."""
    table = np.empty(p, dtype=np.int64)
    for s in range(0, p, _TABLE_CHUNK):
        x = np.arange(s, min(s + _TABLE_CHUNK, p), dtype=np.int64)
        table[s : s + len(x)] = _fermat(x, p)
    table[0] = 0  # 0**0 is 1 at p = 2
    table.setflags(write=False)
    return table


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
    # A nonzero test is a true one and division by a nonzero value is
    # exact, so eliminations need neither thresholds nor per-step division.
    exact = True

    def __init__(self, p: int = 65537):
        # Size first: trial division of a 64-bit modulus would not finish.
        if p > _MAX_PRIME:
            raise FieldError(f"modulus {p} too large for exact int64 arithmetic")
        if not _is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        # numpy takes a scalar of its own type faster than a Python int.
        self._modulus = np.int64(p)
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
        non-numeric or complex input raises FieldError instead of being
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
            raise FieldError("value entering prime field context is not an int64 integer")
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
        return self.reduce(np.add(a, b))

    def sub(self, a, b) -> np.ndarray:
        return self.reduce(np.subtract(a, b))

    def neg(self, a) -> np.ndarray:
        return self.reduce(np.negative(a))

    def mul(self, a, b) -> np.ndarray:
        return self.reduce(np.multiply(a, b))

    def matmul(self, a, b, out=None) -> np.ndarray:
        """a @ b mod p, with numpy's stacking rules; reduced in place.

        The operands are integers of magnitude below p: canonical
        residues, or residues times -1, 0 or 1. The contraction runs
        over the last axis of a and the first axis of a vector b, or the
        second-to-last axis of a matrix or stack b.
        ``out``, if given, receives the product; it must be an int64
        array (a strided view is fine) of exactly the product's shape,
        else FieldError, where np.matmul would broadcast or cast.

        One loop over blocks of output columns that fit in
        _MATMUL_BLOCK_BYTES: each block's product runs in float64 BLAS
        up to ``float_terms`` terms, else in int64, ``matmul_chunk``
        terms at a time, and is reduced and copied into ``out``, which
        is checked, or made, from the first block's product. A product
        of one block is returned as it is when no ``out`` is given.
        """
        a, b = np.asarray(a), np.asarray(b)
        if b.ndim == 1:
            # A vector b is one column; its output has no column axis.
            out = self._int64_out(a.shape[:-1], out)
            self.matmul(a, b[:, None], out[..., None])
            return out
        n, width = a.shape[-1], b.shape[-1]
        # The product's rows: a's, or at most a's times b's stacked
        # matrices where the two stacks differ.
        rows = a.size // max(n, 1)
        if a.shape[:-2] != b.shape[:-2]:
            rows *= b.size // max(b.shape[-2] * width, 1)
        per_column = 8 * (b.size // max(width, 1) + rows)
        whole = per_column * width <= _MATMUL_BLOCK_BYTES
        step = max(width, 1) if whole else max(1, _MATMUL_BLOCK_BYTES // per_column)
        in_float = n <= self.float_terms
        if in_float:
            a = a.astype(np.float64)
        for s in range(0, max(width, 1), step):
            cols = b if whole else b[..., s : s + step]
            if in_float:
                r = np.matmul(a, cols.astype(np.float64)).astype(np.int64)
            else:
                chunk = self.matmul_chunk
                r = np.matmul(a[..., :chunk], cols[..., :chunk, :])
                for t in range(chunk, n, chunk):
                    self.reduce(r)
                    r += self.reduce(np.matmul(a[..., t : t + chunk], cols[..., t : t + chunk, :]))
            self.reduce(r)
            if whole and out is None:
                return r
            if s == 0:
                out = self._int64_out(r.shape[:-1] + (width,), out)
            np.copyto(out if whole else out[..., s : s + step], r)
        return out

    @staticmethod
    def _int64_out(shape, out) -> np.ndarray:
        """``out`` checked to be int64 of exactly ``shape``, or a new one."""
        if out is None:
            return np.empty(shape, dtype=np.int64)
        if out.shape != shape or out.dtype != np.int64:
            raise FieldError(
                f"matmul out must be int64 of shape {shape}, not {out.dtype} of shape {out.shape}"
            )
        return out

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x, an int64 array of any integers, reduced in place to canonical
        residues, and returned.

        Subtracts (x // p) * p: the same residue as x % p at a fraction
        of the cost, since numpy divides by a scalar fast in floor_divide
        but not in remainder. Callers that sum or subtract residues with
        plain numpy arithmetic reduce once at the end through this.
        """
        q = x // self._modulus
        q *= self._modulus
        x -= q
        return x

    def reduce_products(self, x: np.ndarray, terms: int) -> np.ndarray:
        """x, int64 products of two residues each, made safe to add or
        subtract ``terms`` at a time, plus one residue, with plain numpy
        arithmetic; returned.

        Each product is below (p-1)**2, so x is reduced in place only
        when ``terms`` such products could overflow int64.
        """
        return x if terms < self.matmul_chunk else self.reduce(x)

    def inv_each(self, x) -> np.ndarray:
        """Element-wise inverse; ZeroDivisionError if any x is 0 mod p.

        For p up to _TABLE_MAX_PRIME, one gather from the cached table of
        inverses, whose entry 0 is 0. int64 input indexes it as it
        stands: an entry in [-p, 0) reads entry p + x, its residue, and
        one outside [-p, p) makes the gather fail and the input be
        converted first, as any other dtype is. Larger primes invert by
        a product tree, where a zero entry likewise leaves zeros, so
        one check of the inverses finds a zero entry in both.
        """
        x = np.asarray(x)
        if self.p <= _TABLE_MAX_PRIME:
            table = _inverse_table(self.p)
            if x.dtype != np.int64:
                x = self.convert(x)
            try:
                inv = table[x]
            except IndexError:
                inv = table[self.convert(x)]
        else:
            x = self.convert(x)
            inv = self._tree_inverse(x.ravel()).reshape(x.shape)
        if not inv.all():
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return inv

    def _tree_inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverses of a vector of nonzero residues, Montgomery's batch
        inversion in vector form.

        Pairwise products halve the vector, padded with a 1 where its
        length is odd, down to _TREE_LEAVES entries, which are inverted
        by Fermat's x**(p-2). Going back down, the inverse of each entry
        is the inverse of its pair's product times its sibling: about
        three products per entry in all, where Fermat's power takes one
        per bit of p and one per set bit, near 56 at p = 536870909.
        """
        n = x.size
        if n <= _TREE_LEAVES:
            return _fermat(x, self.p)
        if n % 2:
            x = np.append(x, 1)
        pairs = self._tree_inverse(self.mul(x[0::2], x[1::2]))
        out = np.empty_like(x)
        out[0::2] = self.mul(pairs, x[1::2])
        out[1::2] = self.mul(pairs, x[0::2])
        return out[:n]

    def is_zero(self, x):
        """Element-wise test for x = 0 mod p."""
        return np.asarray(x) % self.p == 0

    def equal(self, a, b) -> bool:
        """Exact element-wise equality of two arrays, as residues.

        Two int64 arrays of one shape with the same entries are equal as
        they stand, so that case costs one comparison; any other pair is
        compared after ``convert``.
        """
        if (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype == np.int64
            and a.shape == b.shape
            and np.logical_and.reduce(np.equal(a, b), axis=None)
        ):
            return True
        return bool(np.array_equal(self.convert(a), self.convert(b)))

    def close(self, a, b, axis=None):
        """Decode-success comparison, which exactness makes ``equal``.

        Given an axis, one flag per slice along it, as
        ``np.all(a == b, axis)`` on residues: int64 arrays of one shape
        are compared as they stand, and converted only when some flag
        fails.
        """
        if axis is None:
            return self.equal(a, b)
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype == b.dtype == np.int64 and a.shape == b.shape:
            same = np.logical_and.reduce(np.equal(a, b), axis=axis)
            if same.all():
                return same
        return np.logical_and.reduce(np.equal(self.convert(a), self.convert(b)), axis=axis)

    def mismatch(self, a, b) -> tuple[int, None]:
        """Where ``close`` fails on two arrays of one shape: the flat index
        of their first differing residue, and no residual (exact mode).
        """
        return int(np.argmax(self.convert(a) != self.convert(b))), None

    # Elimination decisions: any nonzero entry is a usable pivot. Pivot
    # choice works on a single column or on a stack of columns (leading
    # axes).

    def pivot_threshold(self, m) -> float:
        return 0.0

    def select_pivot(self, cols):
        """Index along the last axis of the first nonzero entry, 0 if none."""
        return (np.asarray(cols) != 0).argmax(axis=-1)

    def pivot_found(self, pivots, threshold):
        """Which selected pivots are usable: the nonzero ones."""
        return np.asarray(pivots) != 0

    # Entries already counted as nonzero invert as any others do, by one
    # table gather or the product tree.
    inv_nonzero = inv_each

    def null_support(self, v, floor=0.0) -> np.ndarray:
        """Which entries of null vectors (along the last axis) are nonzero."""
        return np.asarray(v) != 0

    def inverses_hold(self, H, parents, G, v, skip) -> bool:
        """Whether every group inverse formed from the parent sets'
        eliminations inverts its group: the exact elimination guarantees
        it, so nothing is computed, nor the parent rows gathered."""
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
    zero_atol:  bound on the group inverses' residual (``inverses_hold``),
                and elimination factors at or below it count as zero.
    decode_atol: max-abs deviation accepted as a successful decode.
    Sized for well-conditioned random channels at desk-scale dimensions.
    """

    mode = "complex"
    dtype = np.complex128
    exact = False

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
        # A complex entry is finite when both its parts are.
        if not np.isfinite(out).all():
            raise FieldError("non-finite value entering complex field context")
        return out

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.complex128)

    def coeff(self, c: int) -> complex:
        return complex(c)

    def add(self, a, b) -> np.ndarray:
        return np.add(a, b)

    def sub(self, a, b) -> np.ndarray:
        return np.subtract(a, b)

    def neg(self, a) -> np.ndarray:
        return np.negative(a)

    def mul(self, a, b) -> np.ndarray:
        return np.multiply(a, b)

    def matmul(self, a, b, out=None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def inv_each(self, x) -> np.ndarray:
        """Element-wise 1/x; ZeroDivisionError if any |x| is below the floor."""
        x = np.asarray(x)
        if (np.abs(x) < self._inv_floor).any():
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
        scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
        return self.pivot_rtol * np.maximum(1.0, scale)

    def select_pivot(self, cols):
        """Index along the last axis of the entry of largest magnitude."""
        return np.abs(cols).argmax(axis=-1)

    def pivot_found(self, pivots, threshold):
        """Which selected pivots are usable: those above the threshold. The
        caller gathers them anyway, so no second reduction is made."""
        return np.abs(pivots) > threshold

    def null_support(self, v, floor=0.0) -> np.ndarray:
        """Which entries of null vectors (along the last axis) count as nonzero.

        An entry counts when it exceeds null_rtol times the largest
        magnitude in its vector, or floor if that is larger: a vector
        that also holds an entry of magnitude floor, which need not be
        stored. For the left null vector of an (n+1) x n matrix,
        |v_k| / max |v| is the ratio of the determinant without row k to
        the largest such determinant. On near-dependent CN(0,1) draws
        that the per-subset rank test rejects, it stayed below 5e-10, 20
        times under null_rtol.
        """
        mag = np.abs(v)
        return mag > self.null_rtol * np.maximum(mag.max(axis=-1, keepdims=True), floor)

    def inv_nonzero(self, x) -> np.ndarray:
        """1/x, one plain reciprocal, for entries already counted as
        nonzero: units, found pivots (above at least pivot_rtol) and
        entries ``null_support`` counts in a vector whose largest
        magnitude, or floor, is at least 1. Each clears the floor of
        ``inv_each`` by a factor of 100 or more."""
        return 1.0 / x

    def inverses_hold(self, H, parents, G, v, skip) -> bool:
        """Whether every group inverse taken from the parent sets'
        eliminations inverts its group within zero_atol, max-abs, by a
        bound read from each elimination's own residuals.

        H is the K x L channel and parents (P, L+1) the rows of its
        parent sets, gathered here as the stack H_p, (P, L+1, L); G
        (P, L, L+1) and v (P, L+1) their left inverses and left null
        vectors, and skip the flat indices, among the P (L+1) rows, of
        the row k that each group S leaves out of its parent set. The
        group's inverse is X = G[:, S] - G[:, k] v_S / v_k. With the
        parent's residuals R = G H_p - I and r = v H_p, split by rows
        as G[:, S] H_S + G[:, k] h_k = I + R and v_S H_S + v_k h_k = r,
        X H_S - I = R - G[:, k] r / v_k, so entry by entry

            |X H_S - I| <= max |R| + max |G[:, k]| max |r| / |v_k|.

        The two residuals cost one product per parent set, O(P L^3),
        not one per group. The group's term is max |G[:, k]| times the
        relative residual max |r| / max |v|, amplified by max |v| /
        |v_k|, the ratio that ``null_support`` bounds; so the bound
        does not depend on v's scale, and since it reads only the
        parent's elimination, not on how the beams are formed from X.
        A group passes when the bound is at most zero_atol. The bound
        is exact for X computed without rounding from the computed G and
        v; forming X in floating point adds rounding of the order of its
        second term. On near-dependent CN(0,1) channels (the last row the
        sum of two others plus noise of size 1e-14 to 1e-3, N <= 12) the
        bound alone refused every draw with a group that the per-subset
        rank test rejects at any constant up to 1e-6, so zero_atol leaves
        a margin of 1000; on the draws it accepted, the formed inverses'
        residual stayed below 2.1e-9 and the decode errors below 2.5e-7,
        under decode_atol.
        """
        rows = H.take(parents, axis=0)
        residual = np.matmul(G, rows)
        residual.reshape(len(residual), -1)[:, :: residual.shape[-1] + 1] -= 1
        rho = np.abs(residual).max(axis=(1, 2))
        sigma = np.abs(np.matmul(v[:, None, :], rows)).max(axis=(1, 2))
        # rho + |G[:, k]| sigma / |v_k| <= zero_atol, times |v_k| > 0.
        slack = (self.zero_atol - rho)[:, None] * np.abs(v) - np.abs(G).max(axis=1) * sigma[:, None]
        return bool((slack.take(skip) >= 0).all())

    def close(self, a, b, axis=None):
        """Decode-success comparison at decode_atol, max-abs: one bool, or
        given an axis one flag per slice along it."""
        within = np.abs(np.subtract(a, b)).max(axis=axis, initial=0.0) <= self.decode_atol
        return bool(within) if axis is None else within

    def mismatch(self, a, b) -> tuple[int, float]:
        """Where ``close`` fails on two arrays of one shape: the flat index
        of the first entry off by more than decode_atol, and the max-abs
        residual.
        """
        dev = np.abs(np.asarray(a) - np.asarray(b))
        return int(np.argmax(dev > self.decode_atol)), float(dev.max(initial=0.0))

    def reduce(self, x: np.ndarray) -> np.ndarray:
        """x itself: complex values need no reduction."""
        return x

    def reduce_products(self, x: np.ndarray, terms: int) -> np.ndarray:
        """x itself: complex values need no reduction."""
        return x

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
    raise FieldError(f"unknown field mode {mode!r} (expected 'gf' or 'complex')")


def seeded_rng(seed) -> np.random.Generator:
    """numpy's default generator for a seeded draw; InconsistentInputs,
    naming the seed, for one that numpy refuses, such as a negative one."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InconsistentInputs(f"seed {seed!r} is not a non-negative integer") from None
