"""Linear network simulation and per-user decoding.

Every user k observes y_k = h_k^H x for each transmitted column x, with
h_k a fixed row of the channel matrix H. Channels are drawn seeded and
rejection-sampled by ``delivery.draw_channel``, which accepts a draw when
the schedule's own beams serve every group: each served group's rows
invertible and each beam reaching its row owner with a nonzero gain.

A ``ChannelMatrix`` keeps a read-only copy of H and memoizes the
factors that its schedule forms its beams from (``cached``), one copy.
The draw's check computes those factors, from one tall elimination of
each parent set of rows, and the schedule built on the accepted channel
reads them, so a trial eliminates each parent set once and computes
the factors once.

Reception reads only the schedule's (B, L, tau) signal stack, never its
block objects: one product H @ S gives every user's receptions of every
block as one (B, K, tau) array. Decoding assumes the standard genie
model: receivers know H, the demand vector, and the schedule's metadata
(row plans with their integer decoding inverses and, per block, the
owner gain of every served user's beam), and read the beamformer
scalings from the schedule rather than estimating them. Every user of a
row decodes with the row plan's one combination matrix A: its
receptions, each scaled by the user's owner gain in that block, go
through A's few nonzero diagonals, the layout's taps. A jointly served
user's minifile j is its scaled reception at transmission j of its
segment, a telescoping user's that plus s_j times the next one, and the
row owner takes the same taps at unit scale. So all users decode in one
element-wise pass over the reception stack, with no decoder matrix, no
product and no elimination; in the full regime (A = [1]) the scaled
receptions are the decoded files.

Each decoding step is a numpy call per block of rows for every user at
once, not one per user: the scales come from two scatters at the
layout's groups and owners, every cache enters the decoded files in one
copy, and the row owners of a block complete their rows by one copy
and one subtraction on a strided view of their own rows. The verdicts
are one comparison per block of users whose requested files fit
together in CHUNK_BYTES, one flag per file; only such small files are
gathered, and a larger file is compared with the library's row as a
view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InconsistentInputs
from .field import FieldContext
from .linalg import CHUNK_BYTES

# CHUNK_BYTES (``linalg``'s) bounds the blocks that decoding takes its
# receptions in, and its verdicts the requested files, as synthesis
# (``delivery.build_schedule``) does its rows, which keeps their
# temporaries in cache.


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """K x L channel; row k is user k's receive functional h_k^H.

    H is a private read-only copy of the given matrix, so what the
    channel memoizes (``cached``) stays valid: its schedule's beam
    factors, G's columns and the shifts and gains.
    """

    field: FieldContext
    H: np.ndarray

    def __post_init__(self):
        H = np.array(self.field.convert(self.H))
        if H.ndim != 2:
            raise DimensionMismatch(f"channel needs a K x L matrix, got {H.shape}")
        H.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "_memo", {})

    def cached(self, key, compute) -> tuple:
        """compute()'s tuple of arrays, computed once per key and read-only.

        Every caller that asks for the same key of this channel shares
        the arrays. An exception is not cached.
        """
        if key not in self._memo:
            result = compute()
            for a in result:
                a.setflags(write=False)
            self._memo[key] = result
        return self._memo[key]

    @property
    def K(self) -> int:
        return self.H.shape[0]

    @property
    def L(self) -> int:
        return self.H.shape[1]


def _as_channel(H, field: FieldContext) -> ChannelMatrix:
    """H itself if it is a ChannelMatrix, else a channel over field made from it."""
    if isinstance(H, ChannelMatrix):
        return H
    return ChannelMatrix(field, H)


@dataclass(frozen=True, eq=False)
class ReceptionLog:
    """Per-block K x tau reception matrices, one row per user.

    receive stores them as one (B, K, tau) array, so per_block[b] is a
    view.
    """

    field: FieldContext
    per_block: np.ndarray


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """One user's reconstructed file and its verification flag.

    When the file fails its check, mismatch names the first (row,
    minifile) of it that differs from the library file; in complex mode
    residual is the file's max-abs deviation, against decode_atol. Both
    stay None on success.
    """

    user: int
    data: np.ndarray
    success: bool
    mismatch: tuple[int, int] | None = None
    residual: float | None = None


def receive(H: ChannelMatrix, schedule) -> ReceptionLog:
    """Apply the channel to every block at once: y[b] = H @ signals[b].

    H may differ from the schedule's channel in its values, which
    simulates a channel that moved after the beams were formed, but not
    in its field or its number of users K (InconsistentInputs). A raw
    array is taken over the schedule's field. A stand-in schedule with no
    channel, only signals, is applied as given, to a ChannelMatrix.
    """
    scheduled = getattr(schedule, "channel", None)
    if not isinstance(H, ChannelMatrix):
        if scheduled is None:
            raise InconsistentInputs("a raw channel array needs a schedule with a channel")
        H = ChannelMatrix(scheduled.field, H)
    if scheduled is not None and (H.field != scheduled.field or H.K != scheduled.K):
        raise InconsistentInputs(
            f"channel over {H.field!r} with K={H.K}, schedule's over {scheduled.field!r} "
            f"with K={scheduled.K}"
        )
    signals = schedule.signals
    if signals.shape[1] != H.L:
        raise DimensionMismatch(
            f"block has {signals.shape[1]} antenna rows, channel expects {H.L}"
        )
    rx = H.field.matmul(H.H, signals)
    return ReceptionLog(H.field, rx)


def _check_consistent(d, caches, log, H: ChannelMatrix, schedule) -> None:
    cfg = schedule.cfg
    if tuple(d) != tuple(schedule.demand):
        raise InconsistentInputs("demand vector differs from the one scheduled")
    if H is not schedule.channel and (
        H.field != schedule.channel.field or not H.field.equal(H.H, schedule.channel.H)
    ):
        raise InconsistentInputs("channel differs from the one scheduled")
    if log.field != H.field:
        raise InconsistentInputs(f"reception log over {log.field!r}, channel over {H.field!r}")
    B, _, tau = schedule.signals.shape
    if np.shape(log.per_block) != (B, cfg.K, tau):
        raise InconsistentInputs(
            f"reception log of shape {np.shape(log.per_block)} does not cover the "
            f"schedule's (B, K, tau) = {(B, cfg.K, tau)}"
        )
    if len(caches) != cfg.K:
        raise InconsistentInputs(f"{len(caches)} caches for {cfg.K} users")
    owners = [Z.user for Z in caches]
    if owners != list(range(cfg.K)):
        k, owner = next((k, u) for k, u in enumerate(owners) if k != u)
        raise InconsistentInputs(f"cache of user {owner} given for user {k}")


def _scales(field: FieldContext, layout, gains, rows: slice) -> np.ndarray:
    """Every user's scale in every block of a slice of rows, (rows, transmissions, K).

    User u's scale in block b is the owner gain of u's beam where b
    serves u, 1 where u owns b's row, and 0 elsewhere: two scatters into
    block b's row at the layout's groups[b] and owners[b].
    """
    n_tx = layout.transmissions
    K = len(layout.owners) // n_tx
    blocks = slice(rows.start * n_tx, rows.stop * n_tx)
    at = np.arange(blocks.stop - blocks.start) * K
    scales = field.zeros(len(at) * K)
    scales[at[:, None] + layout.groups[blocks]] = gains[blocks]
    scales[at + layout.owners[blocks]] = field.coeff(1)
    return scales.reshape(-1, n_tx, K)


def decode_all(d, caches, log: ReceptionLog, H: ChannelMatrix, schedule) -> list[DecodeResult]:
    """Every user's file from receptions plus caches[k], user k's cache;
    a raw channel array is taken over the schedule's field.

    All K users decode into one (K, N, m, tau) buffer; each file is a
    contiguous view of it.

    User u's receptions in row i, times its scales there, are z. Its
    minifile j is row j of A applied to z, read from the layout's taps:
    z at transmission j of u's segment, plus s_j times z at j + 1 if the
    segment telescopes. z is 0 at the transmissions that do not serve
    u, so the taps of the other segments add nothing. The owner's scales
    are 1, so its row holds the received sums, which it subtracts from
    its cache. In the full regime A = [1], and the scaled receptions are
    the decoded files.

    Every cache is first copied, in one call, into the buffer at its
    owner's own row; those rows, every (N+1)-th of the buffer, are one
    strided view. The work then runs in blocks of rows and symbols of
    about CHUNK_BYTES of receptions each: one copy of the block's
    owners' cached cells, before anything overwrites them, one
    element-wise product, written straight into the files when A = [1],
    one add per further tap, one subtraction of the received sums from
    the copied caches into the owners' cells, and one reduction (two in
    GF when the taps' raw sums of products could overflow int64). So no
    step loops over users, and no temporary of the loop is larger than a
    block. The verdicts then take one comparison (``field.close``) per
    block of users whose requested files fit together in CHUNK_BYTES,
    and only a failed file is read again, for its first wrong minifile.
    """
    H = _as_channel(H, schedule.channel.field)
    field = H.field
    layout = schedule.layout
    N, K = schedule.cfg.N, schedule.cfg.K
    users = range(K)
    _check_consistent(d, caches, log, H, schedule)
    n_tx, m, taps = layout.transmissions, layout.minifiles, layout.taps
    tau = schedule.signals.shape[-1]
    rx = np.asarray(log.per_block).reshape(N, n_tx, K, tau)
    data = np.empty((K, N, m, tau), dtype=field.dtype)
    # Decoded file k's own row, row k, is every (N+1)-th row of the buffer.
    mine = data.reshape(K * N, m, tau)[:: N + 1]
    try:
        np.concatenate([Z.payload[None] for Z in caches], out=mine.reshape(K, m * tau))
    except ValueError:
        shape = next(Z.payload.shape for Z in caches if Z.payload.shape != (m * tau,))
        raise InconsistentInputs(f"cache of shape {shape}, expected {m * tau} symbols") from None
    except TypeError:
        # numpy's refusal to cast complex or float caches into GF's int64.
        dtype = next((Z.payload.dtype for Z in caches if Z.payload.dtype != data.dtype), None)
        raise InconsistentInputs(f"cache of dtype {dtype} under a {field!r} schedule") from None
    out = data.transpose(1, 2, 0, 3)  # (row, minifile, user, symbol)
    # Whole rows per block while a row's receptions fit in CHUNK_BYTES,
    # else one row per block in equal runs of symbols.
    symbol_bytes = n_tx * K * data.itemsize
    pieces = -(-tau * symbol_bytes // CHUNK_BYTES)
    width = -(-tau // pieces)
    height = max(1, CHUNK_BYTES // (symbol_bytes * width))
    for r in range(0, N, height):
        rows = slice(r, min(r + height, N))
        scales = _scales(field, layout, schedule.gains, rows)[..., None]
        for c in range(0, tau, width):
            cols = slice(c, c + width)
            o = out[rows, :, :, cols]
            cached = mine[rows, :, cols].copy()
            z = o if len(taps) == 1 else np.empty(o.shape[:1] + (n_tx,) + o.shape[2:], o.dtype)
            np.multiply(scales, rx[rows, :, :, cols], out=z)
            if len(taps) > 1:
                field.reduce_products(z, len(taps))
                np.copyto(o, z[:, taps[0][1]])
                for j, t, sign in taps[1:]:
                    (np.add if sign > 0 else np.subtract)(o[:, j], z[:, t], out=o[:, j])
            np.subtract(cached, mine[rows, :, cols], out=mine[rows, :, cols])
            field.reduce(o)
    # One verdict per block of users whose requested files fit together
    # in CHUNK_BYTES: a gather of those files and one comparison, one flag
    # per file. A block of one file compares the library's row as a view.
    library = schedule.library.data
    files = data.reshape(K, -1)
    height = max(1, CHUNK_BYTES // files[0].nbytes)
    success = np.empty(K, dtype=bool)
    for b in range(0, K, height):
        want = [d[k] for k in users[b : b + height]]
        rows = library[want[0] : want[0] + 1] if len(want) == 1 else library[want]
        success[b : b + height] = field.close(files[b : b + height], rows, axis=1)
    results = []
    new = object.__new__
    for k, flat, ok in zip(users, files, success.tolist()):
        if ok:
            # The frozen __init__ sets each field by its own
            # object.__setattr__; a passed file's result fills its instance
            # dict in one update, and stays frozen to assignment.
            result = new(DecodeResult)
            result.__dict__.update(user=k, data=flat, success=True, mismatch=None, residual=None)
            results.append(result)
            continue
        index, residual = field.mismatch(flat, library[d[k]])
        results.append(DecodeResult(user=k, data=flat, success=False,
                                    mismatch=divmod(index // tau, m), residual=residual))
    return results

