"""Reference copies of the complex-mode eliminations as they stood before
their per-step numpy calls were trimmed: the normalized Gauss-Jordan
kernel and the prefix sweep of the channel check.

The trimmed kernels in ``mscache.linalg`` and ``mscache.channel`` must
give these the same bytes. Each copy reads only field methods whose
values the trim left alone (``mul``, ``is_zero``, ``reduce``, ``coeff``,
``pivot_threshold``, ``matmul``, ``inv_each``) and the channel-free
walk ``channel._sweep_step``; the pivot choice of the time is copied
into ``_select_pivot``.
"""

import numpy as np

from mscache.channel import CHUNK_BYTES, PIVOT_MARGIN, _sweep_step


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


def prefix_sweep(field, H, L):
    """Whether no sorted row prefix of H, up to depth L, gains a row that
    its null space annihilates (complex mode at K >= L+2)."""
    K = H.shape[0]
    threshold = PIVOT_MARGIN * field.pivot_threshold(H)
    pending = [(np.eye(L, dtype=field.dtype)[None], np.int64(-1).tobytes())]
    while pending:
        N, last = pending.pop()
        w = N.shape[1]
        step = _sweep_step(K, L, w, N.itemsize, CHUNK_BYTES, last)
        if step.rest is not None:
            pending.append((N[step.stop :].copy(), step.rest))
        N = N[: step.stop]
        products = field.matmul(H[step.low : step.top + 1], N.reshape(-1, L).T)
        c = products.reshape(-1, w).take(step.pick, axis=0)
        t, found = _select_pivot(field, c, threshold)
        if not found.all():
            return False
        if w > 1:
            at = step.first + t
            factors = field.mul(c, field.inv_each(c.reshape(-1).take(at))[:, None])
            children = N.take(step.parent, axis=0)
            bases = children.reshape(-1, L)
            children -= factors[:, :, None] * bases.take(at, axis=0)[:, None, :]
            field.reduce(children)
            bases[at] = children[:, -1]
            pending.append((children[:, :-1], step.rows))
    return True
