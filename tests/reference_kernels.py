"""Reference kernels that the tests compare ``mscache.linalg`` against.

``rank`` is plain row-by-row Gaussian elimination on one matrix of any
shape, the judge of every full-rank verdict. ``inverse_stack`` is the
batched Gauss-Jordan's square case, (B, n, n), which the tests check
against ``rank`` and use to invert a schedule's groups directly.

``gauss_jordan_normalized`` is a copy of the normalized Gauss-Jordan
kernel as it stood before its per-step numpy calls were trimmed. The
trimmed kernel in ``mscache.linalg`` must give it the same bytes. The
copy reads only field methods whose values the trim left alone
(``mul``, ``is_zero``, ``reduce``, ``coeff``, ``pivot_threshold``,
``inv_each``); the pivot choice of the time is copied into
``_select_pivot``.
"""

import numpy as np

from mscache.errors import DimensionMismatch
from mscache.linalg import _gauss_jordan


def rank(field, a) -> int:
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


def inverse_stack(field, a) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (B, n, n) stack by one batched Gauss-Jordan pass.

    Returns (inverses, nonsingular). nonsingular[b] equals
    ``rank(field, a[b]) == n``; inverses[b] is meaningful only where
    nonsingular[b].
    """
    a = field.convert(a)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"inverse_stack needs a (B, n, n) stack, got {a.shape}")
    return _gauss_jordan(field, a)


def _select_pivot(field, cols, threshold):
    """(index, found) along the last axis: the first nonzero entry in an
    exact field, else the largest magnitude, found if above threshold."""
    if field.exact:
        nz = np.asarray(cols) != 0
        return nz.argmax(axis=-1), nz.any(axis=-1)
    mag = np.abs(cols)
    return mag.argmax(axis=-1), mag.max(axis=-1) > threshold


def gauss_jordan_normalized(field, a):
    """(E, full_rank) of a (B, r, n) stack, r >= n, pivot rows normalized."""
    B, r, n = a.shape
    m = np.empty((B, r, n + r), dtype=field.dtype)
    m[:, :, :n] = a
    m[:, :, n:] = np.eye(r, dtype=field.dtype)
    threshold = field.pivot_threshold(a)
    full_rank = np.ones(B, dtype=bool)
    rows = m.reshape(B * r, n + r)
    first = np.arange(0, B * r, r)
    for c in range(n):
        k, found = _select_pivot(field, m[:, c:, c], threshold)
        full_rank &= found
        at = first + k + c
        pivot_rows = rows.take(at, axis=0)
        rows[at] = m[:, c]
        pivot = np.where(full_rank, pivot_rows[:, c], field.coeff(1))
        pivot_rows = field.mul(pivot_rows, field.inv_each(pivot)[:, None])
        m[:, c] = pivot_rows
        factors = m[:, :, c].copy()
        factors[:, c] = 0
        factors[field.is_zero(factors)] = 0
        m -= factors[:, :, None] * pivot_rows[:, None, :]
        field.reduce(m)
    return m[:, :, n:], full_rank
