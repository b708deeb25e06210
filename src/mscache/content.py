"""File library, subfile/minifile decomposition, and coded cache placement.

The regime fixes K = N users/files and per-user cache size M = 1/N of a
file. Each file splits into N equal contiguous subfiles; user k caches
the sum of the k-th subfile of every file. Delivery further splits each
subfile into m equal contiguous minifiles (m = 1 with L = N-1 antennas,
m = L with fewer).

A library is drawn from its seed (``random_library``) and lives only in
memory: a trial is reproduced from its seed, never from a saved file.

All indices in this API are 0-based; human-facing renderings elsewhere
use 1-based labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, IndivisibleFile, InconsistentInputs, WrongRegime
from .field import FieldContext, seeded_rng
from .linalg import CHUNK_BYTES


@dataclass(frozen=True)
class LibraryConfig:
    """Instance parameters: N files, K users, L antennas, F symbols per file."""

    N: int
    K: int
    L: int
    F: int

    def __post_init__(self):
        if self.N < 1 or self.K < 1 or self.L < 1 or self.F < 1:
            raise InconsistentInputs("all of N, K, L, F must be positive")
        if self.K != self.N:
            raise WrongRegime(f"this scheme needs K = N, got K={self.K}, N={self.N}")
        # N=1 is allowed for the degenerate placement-only case.
        if self.N > 1 and self.L > self.N - 1:
            raise WrongRegime(f"L={self.L} exceeds the N-1={self.N - 1} usable antennas")
        if self.F % self.N != 0:
            raise IndivisibleFile(f"file size {self.F} not divisible by N={self.N}")
        if self.F % (self.N * self.minifiles) != 0:
            raise IndivisibleFile(
                f"file size {self.F} not divisible by N*L={self.N * self.L} "
                "(minifile granularity)"
            )

    @property
    def M(self) -> Fraction:
        """Cache size in files; pinned to 1/N in this regime."""
        return Fraction(1, self.N)

    @property
    def subfile_symbols(self) -> int:
        return self.F // self.N

    @property
    def minifiles(self) -> int:
        """Minifiles per subfile, m: 1 with L = N-1 antennas, L with fewer."""
        return 1 if self.L >= self.N - 1 else self.L

    @property
    def minifile_symbols(self) -> int:
        return self.F // (self.N * self.minifiles)


@dataclass(frozen=True, eq=False)
class Library:
    """The N files as an N x F symbol matrix, one row per file."""

    field: FieldContext
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", self.field.convert(self.data))
        if self.data.ndim != 2:
            raise DimensionMismatch(f"library needs an N x F matrix, got {self.data.shape}")

    @property
    def N(self) -> int:
        return self.data.shape[0]

    @property
    def F(self) -> int:
        return self.data.shape[1]

    def parts(self, m: int) -> np.ndarray:
        """N x N x m x tau view: [n, i, j] is minifile j of subfile i of file n.

        Subfiles are the N equal contiguous slices of a file, minifiles
        the m equal contiguous slices of a subfile (all 0-based).
        """
        N, F = self.N, self.F
        if F % (N * m) != 0:
            raise IndivisibleFile(f"file size {F} not divisible by N*m={N * m}")
        return self.data.reshape(N, N, m, F // (N * m))


@dataclass(frozen=True, eq=False)
class CacheContent:
    """User k's cache Z_k: the sum over n of subfile (n, k)."""

    user: int
    payload: np.ndarray


@dataclass(frozen=True)
class DemandVector:
    """Per-user requested file indices; must be pairwise distinct.

    Integral floats such as 1.0 are accepted; 1.7, nan or inf are
    refused, not truncated.
    """

    d: tuple

    def __init__(self, d):
        try:
            raw = tuple(d)
        except TypeError:
            raise InconsistentInputs(f"demand must be a sequence of indices, got {d!r}") from None
        try:
            ints = tuple(int(x) for x in raw)
        except (ValueError, OverflowError):  # nan, inf
            ints = None
        if ints != raw:
            raise InconsistentInputs(f"demand indices must be integers, got {raw}")
        object.__setattr__(self, "d", ints)
        if len(set(self.d)) != len(self.d):
            raise InconsistentInputs(f"demands must be pairwise distinct, got {self.d}")
        if any(x < 0 for x in self.d):
            raise InconsistentInputs(f"demand indices must be non-negative, got {self.d}")

    def __len__(self) -> int:
        return len(self.d)

    def __iter__(self):
        return iter(self.d)

    def __getitem__(self, k: int) -> int:
        return self.d[k]


def place_caches(library: Library, cfg: LibraryConfig) -> list[CacheContent]:
    """Coded placement: Z_k = sum over n of subfile (n, k).

    Demand-oblivious by construction: no demand argument exists. Each
    cache holds exactly F/N symbols, meeting M = 1/N with equality.
    """
    if library.N != cfg.N or library.F != cfg.F:
        raise InconsistentInputs(
            f"library shape {library.data.shape} does not match config "
            f"N={cfg.N}, F={cfg.F}"
        )
    # One pass over the files, and the fresh sum of N residues, which fits
    # in int64, reduced in place a CHUNK_BYTES slice at a time, so that
    # the reduction's temporaries stay one slice each.
    z = library.parts(1)[:, :, 0].sum(axis=0)
    flat = z.reshape(-1)
    step = max(1, CHUNK_BYTES // flat.itemsize)
    for s in range(0, flat.size, step):
        library.field.reduce(flat[s : s + step])
    return [CacheContent(k, z[k]) for k in range(cfg.K)]


def random_library(field: FieldContext, N: int, F: int, seed: int) -> Library:
    """Seeded library with symbols uniform over the field."""
    if N < 0 or F < 0:
        raise InconsistentInputs(f"library needs N, F >= 0, got N={N}, F={F}")
    return Library(field, field.sample(seeded_rng(seed), (N, F)))

