"""A reference copy of the normalized Gauss-Jordan kernel as it stood
before its per-step numpy calls were trimmed.

The trimmed kernel in ``mscache.linalg`` must give it the same bytes.
The copy reads only field methods whose values the trim left alone
(``mul``, ``is_zero``, ``reduce``, ``coeff``, ``pivot_threshold``,
``inv_each``); the pivot choice of the time is copied into
``_select_pivot``.
"""

import numpy as np


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
