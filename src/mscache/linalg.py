"""Dense linear algebra over a field context.

The eliminations share the field context's decisions: the pivot
threshold and choice (first nonzero in the exact prime field, largest
magnitude above a per-matrix relative threshold in complex mode) and
when an elimination factor counts as zero.

``rank`` is plain row-by-row Gaussian elimination on one matrix of any
shape; it counts pivots. ``_gauss_jordan`` is a batched Gauss-Jordan on
a (B, r, n) stack with r >= n: each column step is a few numpy
operations over the whole stack, not one Python elimination per
matrix. ``inverse_stack`` is its square case. ``left_inverse_stack``
is its tall case, r = n+1: one pass gives every matrix a left inverse G
and a left null vector v, and the inverse of the matrix without any one
row k is then a rank-one update of G. The schedule's beam bank and the
channel check at K = L+1 use the tall case; the channel check at larger
K carries null spaces of row prefixes instead (``channel._generic``),
and at K < L it calls ``rank``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .field import FieldContext


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
        k, found = field.select_pivot(m[r:, c], threshold)
        if not found:
            continue
        k = int(k) + r
        m[[r, k]] = m[[k, r]]
        m[r] = field.mul(m[r], field.inv_each(m[r, c]))
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

    full_rank[b] equals ``rank(field, a[b]) == n``: column c of every
    matrix takes the pivot ``rank`` would take, against that matrix's
    own threshold, and a row whose elimination factor is zero is left
    alone, as ``rank`` leaves it. E[b] (r x r) holds the row
    operations, so that where full_rank[b], E[b] @ a[b] is I_n on top of
    r - n zero rows. A matrix that runs out of pivots carries on with a
    unit pivot so that the others are not disturbed.
    """
    B, r, n = a.shape
    eye = field.convert(np.eye(r, dtype=np.int64))
    m = np.concatenate([a, np.broadcast_to(eye, (B, r, r))], axis=2)
    threshold = field.pivot_threshold(a)
    full_rank = np.ones(B, dtype=bool)
    batch = np.arange(B)
    for c in range(n):
        k, found = field.select_pivot(m[:, c:, c], threshold)
        full_rank &= found
        # Columns left of c no longer steer a pivot or reach E.
        pivot_rows = m[batch, k + c, c:]
        m[batch, k + c, c:] = m[:, c, c:]
        pivot = np.where(full_rank, pivot_rows[:, 0], field.coeff(1))
        pivot_rows = field.mul(pivot_rows, field.inv_each(pivot)[:, None])
        m[:, c, c:] = pivot_rows
        factors = m[:, :, c].copy()
        factors[:, c] = 0
        factors[field.is_zero(factors)] = 0
        update = field.mul(factors[:, :, None], pivot_rows[:, None, :])
        m[:, :, c:] = field.sub(m[:, :, c:], update)
    return m[:, :, n:], full_rank


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
    the rank-one term G[b][:, k] v[b] / v[b, k] without column k.
    """
    a = field.convert(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2] + 1:
        raise DimensionMismatch(f"left_inverse_stack needs a (B, n+1, n) stack, got {a.shape}")
    E, full_rank = _gauss_jordan(field, a)
    n = a.shape[2]
    return E[:, :n], E[:, n], full_rank
