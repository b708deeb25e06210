"""Delivery-time metrics: achieved time, converse bound, uncoded baseline.

Every quantity here is an exact rational. The headline property of the
scheme is the equality converse = achieved in both supported regimes;
keeping Fractions end to end turns that claim into `==`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .content import LibraryConfig
from .delivery import delivery_time
from .errors import InconsistentInputs

CSV_HEADER = (
    "K,N,L,M_num,M_den,achieved_num,achieved_den,converse_num,converse_den,"
    "uncoded_num,uncoded_den,decode_ok,seed"
)


def csv_cells(K, N, L, M: Fraction, achieved, converse: Fraction, uncoded: Fraction,
              decode_ok, seed) -> dict:
    """The CSV_HEADER columns of one row, as strings in header order.

    achieved None (an unsupported (N, L)) and seed None read empty.
    decode_ok None (no run) reads empty, or "unsupported-regime" when
    achieved is None too.
    """
    if decode_ok is None:
        ok = "unsupported-regime" if achieved is None else ""
    else:
        ok = "true" if decode_ok else "false"
    ratio = ("", "") if achieved is None else (achieved.numerator, achieved.denominator)
    values = (K, N, L, M.numerator, M.denominator, *ratio, converse.numerator,
              converse.denominator, uncoded.numerator, uncoded.denominator, ok,
              "" if seed is None else seed)
    return dict(zip(CSV_HEADER.split(","), map(str, values)))


@lru_cache(maxsize=None)
def converse_bound(K: int, N: int, M, L: int) -> Fraction:
    """Lower bound on T: max over s in 1..K of (s - sM/floor(N/s)) / min(s, L).

    Defined for 1 <= K <= N and L >= 1; InconsistentInputs otherwise.
    A pure function of its arguments, so results are cached (errors are
    not).
    """
    if L < 1 or not 1 <= K <= N:
        raise InconsistentInputs(f"converse needs 1 <= K <= N and L >= 1, got K={K} N={N} L={L}")
    M = Fraction(M)
    best = Fraction(0)
    for s in range(1, K + 1):
        term = Fraction(s - Fraction(s, N // s) * M, min(s, L))
        if term > best:
            best = term
    return best


def uncoded_baseline(K: int, N: int, M, L: int) -> Fraction:
    """Per-user caching plus L parallel zero-forced streams: K(1 - M/N)/L.

    Defined for N >= 1 and L >= 1; InconsistentInputs otherwise.
    """
    if L < 1 or N < 1:
        raise InconsistentInputs(f"uncoded baseline needs N >= 1 and L >= 1, got N={N} L={L}")
    M = Fraction(M)
    return Fraction(K, L) * (1 - M / N)


def achievable_time(cfg: LibraryConfig) -> Fraction:
    """Scheme delivery time (N-1)/L of a configuration; 1 when L = N-1."""
    return delivery_time(cfg.N, cfg.L)


@lru_cache(maxsize=None)
def _analytic_times(cfg: LibraryConfig) -> tuple[Fraction, Fraction, Fraction]:
    """(achievable, converse, uncoded) times of a configuration, which
    every trial at it reports; pure, so cached (errors are not)."""
    return (
        achievable_time(cfg),
        converse_bound(cfg.K, cfg.N, cfg.M, cfg.L),
        uncoded_baseline(cfg.K, cfg.N, cfg.M, cfg.L),
    )


@dataclass(frozen=True)
class MetricsReport:
    """One run's exact delivery-time comparison plus its parameters."""

    K: int
    N: int
    L: int
    M: Fraction
    achieved_T: Fraction
    converse_T: Fraction
    uncoded_T: Fraction
    decode_ok: bool
    mode: str
    seed: int | None

    def to_csv_row(self) -> str:
        cells = csv_cells(self.K, self.N, self.L, self.M, self.achieved_T, self.converse_T,
                          self.uncoded_T, self.decode_ok, self.seed)
        return ",".join(cells.values())

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "N": self.N,
            "L": self.L,
            "M": str(self.M),
            "achieved_T": str(self.achieved_T),
            "converse_T": str(self.converse_T),
            "uncoded_T": str(self.uncoded_T),
            "decode_ok": self.decode_ok,
            "mode": self.mode,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def assemble_report(cfg: LibraryConfig, schedule, results, seed: int | None = None) -> MetricsReport:
    """Combine one run's schedule and decode results into a report.

    Verifies the bound chain converse <= achieved <= uncoded whenever
    all users decoded; a corrupted run still assembles, with decode_ok
    false.
    """
    if schedule.cfg != cfg:
        raise InconsistentInputs("schedule was built for a different configuration")
    if len(results) != cfg.K:
        raise InconsistentInputs(f"{len(results)} decode results for K={cfg.K} users")
    achieved = schedule.total_time
    expected, converse, uncoded = _analytic_times(cfg)
    if achieved != expected:
        raise InconsistentInputs(f"schedule time {achieved} differs from the analytic {expected}")
    ok = all(r.success for r in results)
    if ok and not converse <= achieved <= uncoded:
        raise InconsistentInputs(
            f"bound chain violated: {converse} <= {achieved} <= {uncoded} is false"
        )
    return MetricsReport(
        K=cfg.K,
        N=cfg.N,
        L=cfg.L,
        M=cfg.M,
        achieved_T=achieved,
        converse_T=converse,
        uncoded_T=uncoded,
        decode_ok=ok,
        mode=schedule.library.field.mode,
        seed=seed,
    )
