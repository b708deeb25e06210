"""Dense linear algebra over a field context.

Two eliminations share the field context's decisions: the pivot
threshold and choice (first nonzero in the exact prime field, largest
magnitude above a per-matrix relative threshold in complex mode), when
an elimination factor counts as zero, when a residual counts as zero,
and whether a solution needs a second check.

``_rref`` is plain row-by-row Gaussian elimination on one matrix of any
shape; rank, nullspace and solve use it. ``_gauss_jordan`` is a batched
Gauss-Jordan on a (B, r, n) stack with r >= n: each column step is a
few numpy operations over the whole stack, not one Python elimination
per matrix. ``inverse_stack`` is its square case. ``left_inverse_stack``
is its tall case, r = n+1: one pass gives every matrix a left inverse G
and a left null vector v, and the inverse of the matrix without any one
row k is then a rank-one update of G. The schedule's beam bank and the
channel check at K = L+1 use the tall case; the channel check at larger
K carries null spaces of row prefixes instead (``channel._generic``).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannel, DimensionMismatch
from .field import FieldContext


def _rref(field: FieldContext, a: np.ndarray):
    """Reduced row-echelon form; returns (R, pivot_columns)."""
    m = field.convert(a).copy()
    rows, cols = m.shape
    threshold = field.pivot_threshold(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        k, found = field.select_pivot(m[r:, c], threshold)
        if not found:
            continue
        k = int(k) + r
        if k != r:
            m[[r, k]] = m[[k, r]]
        m[r] = field.mul(m[r], field.inv(m[r, c]))
        # Rows whose factor is zero are left alone (a zero factor's update
        # changes nothing but the sign of a zero).
        factors = m[:, c].copy()
        factors[r] = 0
        factors[field.is_zero(factors)] = 0
        m = field.sub(m, field.mul(factors[:, None], m[r]))
        pivots.append(c)
        r += 1
    return m, pivots


def rank(field: FieldContext, a) -> int:
    """Rank of a matrix over the field (tolerance-based in complex mode)."""
    a = field.convert(a)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"rank needs a nonempty 2-d matrix, got shape {a.shape}")
    _, pivots = _rref(field, a)
    return len(pivots)


def nullspace_basis(field: FieldContext, a) -> list[np.ndarray]:
    """Basis of {v : a @ v = 0}; empty list when the nullspace is trivial.

    Basis vectors follow the standard free-column construction from the
    reduced echelon form, so they are linearly independent by shape.
    """
    a = field.convert(a)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"nullspace needs a nonempty 2-d matrix, got shape {a.shape}")
    r, pivots = _rref(field, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = field.zeros(cols)
        v[f] = field.coeff(1)
        for row, pc in enumerate(pivots):
            v[pc] = field.neg(r[row, f])
        basis.append(v)
    return basis


def solve(field: FieldContext, a, b) -> np.ndarray:
    """One solution of a @ x = b (free variables set to zero).

    Raises DegenerateChannel when the system is inconsistent. ``b`` may
    be a vector or a matrix of stacked right-hand sides.
    """
    a = field.convert(a)
    b = field.convert(b)
    vector_rhs = b.ndim == 1
    if vector_rhs:
        b = b.reshape(-1, 1)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"solve: {a.shape} vs rhs {b.shape}")
    n = a.shape[1]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = _rref(field, aug)
    threshold = field.pivot_threshold(aug)
    for row in range(len(pivots), r.shape[0]):
        # Zero coefficient row: any surviving rhs mass means no solution.
        if not field.negligible(r[row, n:], threshold):
            raise DegenerateChannel("linear system is inconsistent")
    if any(pc >= n for pc in pivots):
        raise DegenerateChannel("linear system is inconsistent")
    x = field.zeros((n, b.shape[1]))
    for row, pc in enumerate(pivots):
        x[pc] = r[row, n:]
    return x[:, 0] if vector_rhs else x


def _gauss_jordan(field: FieldContext, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gauss-Jordan on a (B, r, n) stack with r >= n: (E, full_rank).

    full_rank[b] equals ``rank(field, a[b]) == n``: column c of every
    matrix takes the pivot ``_rref`` would take, against that matrix's
    own threshold, and a row whose elimination factor is zero is left
    alone, as ``_rref`` leaves it. E[b] (r x r) holds the row
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


def invert(field: FieldContext, a) -> np.ndarray:
    """Inverse of a square matrix; DegenerateChannel if singular."""
    a = field.convert(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"invert needs a square matrix, got {a.shape}")
    inverses, nonsingular = inverse_stack(field, a[None])
    if not nonsingular[0]:
        raise DegenerateChannel("matrix is singular")
    return inverses[0]


def zero_forcing_vector(field: FieldContext, h_rows, k: int, group) -> np.ndarray:
    """Beamforming vector for user k within the served group.

    ``h_rows`` holds one channel functional per user (row k applied to a
    transmit vector gives user k's reception). The returned w satisfies
    h_j @ w = 0 for every other group member j and h_k @ w = 1; the unit
    response at k fixes the otherwise arbitrary scale.

    Raises DegenerateChannel when h_k lies in the span of the other
    members' rows, in which case no such vector exists.
    """
    h_rows = field.convert(h_rows)
    group = sorted(set(int(u) for u in group))
    if k not in group:
        raise DimensionMismatch(f"user {k} not in served group {group}")
    n_antennas = h_rows.shape[1]
    if len(group) > n_antennas:
        raise DimensionMismatch(
            f"group of {len(group)} users exceeds {n_antennas} antennas"
        )
    others = [u for u in group if u != k]
    m = h_rows[others + [k], :]
    rhs = field.zeros(len(group))
    rhs[-1] = field.coeff(1)
    try:
        w = solve(field, m, rhs)
    except DegenerateChannel:
        raise DegenerateChannel(
            f"channel row {k} lies in the span of rows {others}"
        ) from None
    if not field.satisfies(m, w, rhs):
        raise DegenerateChannel("zero-forcing residual above tolerance")
    return w
