"""Dense linear algebra over a field context.

The eliminations share the field context's decisions: the pivot
threshold and choice (first nonzero in the exact prime field, largest
magnitude above a per-matrix relative threshold in complex mode), read
as the pivot's index and then whether the gathered pivot is usable, the
pivot's inverse, and when an elimination factor counts as zero.

``rank`` is plain row-by-row Gaussian elimination on one matrix of any
shape, the tests' reference. ``_gauss_jordan`` is a batched Gauss-Jordan
on a (B, r, n) stack with r >= n: each column step is a few numpy
operations over the whole stack, not one Python elimination per
matrix. It has two kernels, chosen by the field's ``exact``. In an
exact field a step divides nothing: every row is scaled by the pivot
and loses the pivot row times its own entry, one int64 expression and
one reduction; rows are swapped only at a step where some diagonal
entry is zero, and the rows are normalized once at the end, which gives
the normalized kernel's bytes. In complex mode each step normalizes its
pivot row against a threshold and swaps rows by one take and one
scatter along the flat stack of rows, and that kernel is also the
tests' reference for the exact one. ``inverse_stack`` is its square
case. ``left_inverse_stack`` is its tall case, r = n+1: one pass gives
every matrix a left inverse G and a left null vector v, and the inverse
of the matrix without any one row k is then a rank-one update of G.
The schedule's beams, which are also the channel draw's check, use
the tall case, one elimination per parent set of rows, which the
channel memoizes (``ChannelMatrix.left_inverses``).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .field import FieldContext

# Bytes of the temporaries of one step of a batched pass, which keeps
# them in cache. The normalized kernel updates its stack this many bytes
# of matrices at a time: at complex (64, 63, 62), two matrices a block,
# a step's update took 1.7 ms against 2.6 ms for the whole stack.
CHUNK_BYTES = 1 << 18


def rank(field: FieldContext, a) -> int:
    """Rank of a matrix over the field (tolerance-based in complex mode)."""
    m = field.convert(a)
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(f"rank needs a nonempty 2-d matrix, got shape {m.shape}")
    m = m.copy()
    rows, cols = m.shape
    threshold = field.pivot_threshold(m)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        k = int(field.select_pivot(m[r:, c])) + r
        if not field.pivot_found(m[k, c], threshold):
            continue
        m[[r, k]] = m[[k, r]]
        m[r] = field.mul(m[r], field.inv_nonzero(m[r, c]))
        # Only the rows below steer later pivots. Rows whose factor is
        # zero are left alone (its update changes nothing but the sign
        # of a zero).
        factors = m[r + 1 :, c].copy()
        factors[field.is_zero(factors)] = 0
        m[r + 1 :] = field.sub(m[r + 1 :], field.mul(factors[:, None], m[r]))
        r += 1
    return r


def _gauss_jordan(field: FieldContext, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gauss-Jordan on a (B, r, n) stack with r >= n: (E, full_rank).

    full_rank[b] equals ``rank(field, a[b]) == n``. E[b] (r x r) holds
    the row operations, so that where full_rank[b], E[b] @ a[b] is I_n
    on top of r - n zero rows. In an exact field the division-free
    kernel runs, else the normalized one; where full_rank holds, their
    E are the same bytes in GF.
    """
    if field.exact:
        return _gauss_jordan_exact(field, a)
    return _gauss_jordan_normalized(field, a)


def _gauss_jordan_normalized(field: FieldContext, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan that normalizes each pivot row: the complex kernel,
    and the reference for the exact one.

    Column c of every matrix takes the pivot ``rank`` would take,
    against that matrix's own threshold, and a row whose elimination
    factor is zero is left alone, as ``rank`` leaves it. A matrix that
    runs out of pivots carries on with a unit pivot so that the others
    are not disturbed.
    """
    B, r, n = a.shape
    m = np.empty((B, r, n + r), dtype=field.dtype)
    m[:, :, :n] = a
    m[:, :, n:] = np.eye(r, dtype=field.dtype)
    threshold = field.pivot_threshold(a)
    full_rank = np.ones(B, dtype=bool)
    # Row i of matrix b is row b r + i of the flat stack, so a swap is a
    # take and a scatter along one axis.
    rows = m.reshape(B * r, n + r)
    first = np.arange(0, B * r, r)
    per = max(1, CHUNK_BYTES * B // max(m.nbytes, 1))  # matrices per block of the update
    for c in range(n):
        # Whole rows are swapped and updated: what they change left of
        # column c no longer steers a pivot or reaches E.
        at = first + field.select_pivot(m[:, c:, c]) + c
        pivot_rows = rows.take(at, axis=0)
        rows[at] = m[:, c]
        pivot = pivot_rows[:, c]
        full_rank &= field.pivot_found(pivot, threshold)
        pivot = np.where(full_rank, pivot, field.coeff(1))
        pivot_rows = field.mul(pivot_rows, field.inv_nonzero(pivot)[:, None])
        m[:, c] = pivot_rows
        factors = m[:, :, c].copy()
        factors[:, c] = 0
        factors[field.is_zero(factors)] = 0
        # One product per entry, so one reduction keeps it exact.
        for s in range(0, B, per):
            block = m[s : s + per]
            block -= factors[s : s + per, :, None] * pivot_rows[s : s + per, None, :]
        field.reduce(m)
    return m[:, :, n:], full_rank


def _gauss_jordan_exact(field: FieldContext, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Division-free Gauss-Jordan over an exact field, normalized once at
    the end.

    Step c scales every row by the pivot d and subtracts the pivot row
    times the row's entry in column c: m <- d m - f (x) row_c, with
    f_c = 0. Each term is a product of two residues, below 2**58, so
    the update is one int64 expression and one reduction. Every row
    stays a nonzero multiple of the normalized kernel's, so the pivots
    are found where that kernel finds them (the first nonzero entry),
    and rows are swapped only at a step where some diagonal entry is
    zero. A matrix that runs out of pivots carries on with d = 1.
    Finally row i < n is divided by its diagonal entry and each null
    row, which no step used as a pivot, by its entry at the row's
    original index, which the normalized kernel leaves at 1.
    """
    B, r, n = a.shape
    m = np.empty((B, r, n + r), dtype=np.int64)
    m[:, :, :n] = a
    m[:, :, n:] = np.eye(r, dtype=np.int64)
    full_rank = np.ones(B, dtype=bool)
    origin = None  # each row's original index, once a step swaps rows
    for c in range(n):
        d = m[:, c, c].copy()
        if np.count_nonzero(d) < B:
            k = field.select_pivot(m[:, c:, c])
            batch = np.arange(B)
            if origin is None:
                origin = np.tile(np.arange(r), (B, 1))
            for rows in (m, origin):
                pivot_rows = rows[batch, k + c]
                rows[batch, k + c] = rows[:, c]
                rows[:, c] = pivot_rows
            found = field.pivot_found(m[:, c, c], 0)
            full_rank &= found
            d = np.where(found, m[:, c, c], 1)
        update = m[:, :, c, None] * m[:, None, c]
        update[:, c] = 0
        m *= d[:, None, None]
        m -= update
        field.reduce(m)
    E = m[:, :, n:]
    scale = np.empty((B, r), dtype=np.int64)
    scale[:, :n] = np.diagonal(m[:, :n, :n], axis1=1, axis2=2)
    null = E[:, n:]
    if origin is None:
        scale[:, n:] = np.diagonal(null[:, :, n:], axis1=1, axis2=2)
    else:
        scale[:, n:] = np.take_along_axis(null, origin[:, n:, None], axis=2)[:, :, 0]
    scale[scale == 0] = 1  # only where a matrix ran out of pivots
    return field.mul(E, field.inv_each(scale)[:, :, None]), full_rank


def inverse_stack(field: FieldContext, a) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (B, n, n) stack by one batched Gauss-Jordan pass.

    Returns (inverses, nonsingular). nonsingular[b] equals
    ``rank(field, a[b]) == n``; inverses[b] is meaningful only where
    nonsingular[b].
    """
    a = field.convert(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"inverse_stack needs a (B, n, n) stack, got {a.shape}")
    return _gauss_jordan(field, a)


def left_inverse_stack(field: FieldContext, a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left inverses and left null vectors of a (B, n+1, n) stack, in one pass.

    Returns (G, v, full_rank): where full_rank[b], which equals
    ``rank(field, a[b]) == n``, G[b] @ a[b] = I_n and v[b] @ a[b] = 0
    with v[b] != 0. Then a[b] without row k is invertible exactly when
    v[b, k] is nonzero, and its inverse is G[b] without column k minus
    the rank-one term G[b][:, k] v[b] / v[b, k] without column k. G is
    a view of its own contiguous transpose, so G's columns are rows,
    and neither G nor v keeps the kernel's working matrix alive.
    """
    a = field.convert(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2] + 1:
        raise DimensionMismatch(f"left_inverse_stack needs a (B, n+1, n) stack, got {a.shape}")
    E, full_rank = _gauss_jordan(field, a)
    n = a.shape[2]
    G = np.ascontiguousarray(E[:, :n].swapaxes(1, 2)).swapaxes(1, 2)
    return G, E[:, n].copy(), full_rank
