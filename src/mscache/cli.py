"""Command-line experiment runner.

Subcommands: verify (seeded end-to-end trials), sweep (CSV comparison
table across N and L), table (symbolic delivery table), bounds (the
three analytic formulas without simulating). Output is deterministic
for a given argument vector, so goldens can pin exact bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .channel import decode_all, receive
from .content import DemandVector, LibraryConfig, place_caches, random_library
from .delivery import (
    build_schedule,
    delivery_time,
    draw_channel,
    is_supported,
    render_delivery_table,
)
from .errors import InconsistentInputs, SimulatorError
from .field import make_field, seeded_rng
from .metrics import (
    CSV_HEADER,
    achievable_time,
    assemble_report,
    converse_bound,
    csv_cells,
    uncoded_baseline,
)

DEFAULT_PRIME = 65537
PRIME_ENV = "MSCACHE_PRIME"


def _default_prime() -> int:
    raw = os.environ.get(PRIME_ENV)
    return int(raw) if raw else DEFAULT_PRIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscache",
        description="Coded-caching delivery simulator for the small-cache regime",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(sp: argparse.ArgumentParser, n_help: str) -> None:
        sp.add_argument("--N", default="4", help=n_help)
        sp.add_argument("--K", type=int, default=None, help="user count (default: N)")
        sp.add_argument(
            "--L", type=int, default=None, help="antenna count (default: N-1)"
        )
        sp.add_argument(
            "--prime",
            type=int,
            default=None,
            help=f"GF modulus (default: ${PRIME_ENV} or {DEFAULT_PRIME})",
        )
        sp.add_argument("--mode", choices=("gf", "complex"), default="gf")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--trials", type=int, default=10)
        sp.add_argument(
            "--demand",
            default="random",
            help='1-based permutation like "2,1,4,3", or "random"',
        )
        sp.add_argument(
            "--scale",
            type=int,
            default=1,
            help="symbols per minifile; file size is scale*N*L",
        )
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument(
            "--format", dest="fmt", choices=("csv", "json", "table"), default=None
        )

    add_common(sub.add_parser("verify", help="run seeded end-to-end trials"), "file count")
    sweep = sub.add_parser("sweep", help="tabulate bounds and decode checks over N, L")
    add_common(sweep, 'file count or range like "2..9"')
    sweep.set_defaults(trials=1)
    add_common(sub.add_parser("table", help="render the symbolic delivery table"), "file count")
    add_common(sub.add_parser("bounds", help="print the analytic formulas only"), "file count")
    return parser


def parse_range(text: str) -> list[int]:
    """Parse "4" or a "2..9" inclusive range."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _single_n(args) -> int:
    values = parse_range(args.N)
    if len(values) != 1:
        raise SimulatorError(f"subcommand {args.cmd} needs a single N, got {args.N!r}")
    return values[0]


def _resolve(args, N: int) -> LibraryConfig:
    K = args.K if args.K is not None else N
    L = args.L if args.L is not None else N - 1
    return LibraryConfig(N=N, K=K, L=L, F=args.scale * N * L)


def _demand_for(args, cfg: LibraryConfig, seed: int) -> DemandVector:
    if args.demand == "random":
        rng = seeded_rng(seed)
        return DemandVector(int(x) for x in rng.permutation(cfg.N))
    labels = [int(x) for x in args.demand.split(",")]
    return DemandVector(x - 1 for x in labels)


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SimulatorError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _run_trial(cfg: LibraryConfig, field, args, seed: int):
    library = random_library(field, cfg.N, cfg.F, 2 * seed + 1)
    H = draw_channel(cfg.N, cfg.L, 2 * seed, field)
    d = _demand_for(args, cfg, seed)
    caches = place_caches(library, cfg)
    schedule = build_schedule(d, H, library, cfg)
    log = receive(H, schedule)
    results = decode_all(d, caches, log, H, schedule)
    return assemble_report(cfg, schedule, results, seed=seed)


def _check_report(rep, cfg: LibraryConfig, label: str) -> str | None:
    """First failed invariant of one run, or None."""
    if not rep.decode_ok:
        return f"{label}: decode failed"
    expected = achievable_time(cfg)
    if rep.achieved_T != expected:
        return f"{label}: achieved T {rep.achieved_T} != {expected}"
    if rep.converse_T != rep.achieved_T:
        return f"{label}: converse {rep.converse_T} != achieved {rep.achieved_T}"
    return None


_TABLE_HEADER = "trial  K  N  L  M     achieved  converse  uncoded  decode_ok  seed"


def _table_line(idx: int, rep) -> str:
    return (
        f"{idx:<5}  {rep.K}  {rep.N}  {rep.L}  {str(rep.M):<4}  "
        f"{str(rep.achieved_T):<8}  {str(rep.converse_T):<8}  {str(rep.uncoded_T):<7}  "
        f"{str(rep.decode_ok).lower():<9}  {rep.seed}"
    )


def _check_trials(args) -> None:
    if args.trials < 1:
        raise SimulatorError(f"--trials must be at least 1, got {args.trials}")
    # Trial s draws from seeds 2s and 2s + 1: name the seed given, not those.
    if args.seed < 0:
        raise InconsistentInputs(f"seed {args.seed} is not a non-negative integer")


def cmd_verify(args) -> int:
    _check_trials(args)
    N = _single_n(args)
    cfg = _resolve(args, N)
    field = make_field(args.mode, args.prime)
    reports = []
    failure = None
    for trial in range(args.trials):
        rep = _run_trial(cfg, field, args, args.seed + trial)
        reports.append(rep)
        if failure is None:
            failure = _check_report(rep, cfg, f"trial {trial}")
    fmt = args.fmt or "table"
    if fmt == "csv":
        text = "\n".join([CSV_HEADER] + [r.to_csv_row() for r in reports]) + "\n"
    elif fmt == "json":
        text = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    else:
        lines = [_TABLE_HEADER]
        lines += [_table_line(i, r) for i, r in enumerate(reports)]
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    if failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def _sweep_cells(args, N: int, L: int, field):
    """One sweep row as a dict of schema-column strings.

    A supported cell runs ``args.trials`` trials at seeds seed, seed+1,
    ...; decode_ok is true only if every one of them decodes.
    """
    M = Fraction(1, N)
    conv = converse_bound(N, N, M, L)
    unc = uncoded_baseline(N, N, M, L)
    if not is_supported(N, L):
        return csv_cells(N, N, L, M, None, conv, unc, None, args.seed), None
    cfg = LibraryConfig(N=N, K=N, L=L, F=args.scale * N * L)
    reps = [_run_trial(cfg, field, args, args.seed + trial) for trial in range(args.trials)]
    ok = all(r.decode_ok for r in reps)
    cells = csv_cells(N, N, L, M, reps[0].achieved_T, conv, unc, ok, args.seed)
    failures = (_check_report(r, cfg, f"N={N} L={L} seed={r.seed}") for r in reps)
    return cells, next((f for f in failures if f), None)


def cmd_sweep(args) -> int:
    _check_trials(args)
    if args.K is not None or args.L is not None:
        raise SimulatorError("sweep runs K = N and every L from 1 to N-1; it takes no --K or --L")
    field = make_field(args.mode, args.prime)
    rows = []
    failure = None
    for N in parse_range(args.N):
        for L in range(1, N):
            cells, err = _sweep_cells(args, N, L, field)
            rows.append(cells)
            if failure is None:
                failure = err
    fmt = args.fmt or "csv"
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    elif fmt == "table":
        lines = ["  ".join(CSV_HEADER.split(","))]
        lines += ["  ".join(v or "-" for v in r.values()) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        lines = [CSV_HEADER]
        lines += [",".join(r.values()) for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(args, text)
    if failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_table(args) -> int:
    N = _single_n(args)
    cfg = _resolve(args, N)
    if args.demand == "random":
        demand = DemandVector(range(cfg.N))
    else:
        demand = _demand_for(args, cfg, args.seed)
    _emit(args, render_delivery_table(cfg, demand))
    return 0


def cmd_bounds(args) -> int:
    N = _single_n(args)
    K = args.K if args.K is not None else N
    L = args.L if args.L is not None else N - 1
    if N < 1 or L < 1 or not 1 <= K <= N:
        raise SimulatorError(f"bounds need N >= 1, 1 <= K <= N and L >= 1, got N={N} K={K} L={L}")
    M = Fraction(1, N)
    conv = converse_bound(K, N, M, L)
    unc = uncoded_baseline(K, N, M, L)
    # The scheme serves exactly K = N users.
    achieved = delivery_time(N, L) if K == N and is_supported(N, L) else None
    shown = "unsupported-regime" if achieved is None else str(achieved)
    fmt = args.fmt or "table"
    if fmt == "json":
        text = (
            json.dumps(
                {
                    "K": K,
                    "N": N,
                    "L": L,
                    "M": str(M),
                    "converse_T": str(conv),
                    "achieved_T": shown,
                    "uncoded_T": str(unc),
                }
            )
            + "\n"
        )
    elif fmt == "csv":
        cells = csv_cells(K, N, L, M, achieved, conv, unc, None, None)
        text = CSV_HEADER + "\n" + ",".join(cells.values()) + "\n"
    else:
        text = (
            f"K={K} N={N} L={L} M={M}\n"
            f"converse_T = {conv}\n"
            f"achieved_T = {shown}\n"
            f"uncoded_T  = {unc}\n"
        )
    _emit(args, text)
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "table": cmd_table,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.prime is None:
            args.prime = _default_prime()
        return _COMMANDS[args.cmd](args)
    except (SimulatorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
