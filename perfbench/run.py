"""mscache benchmark: seeded end-to-end trials from one closed-loop client.

A trial is exactly ``mscache verify --seed s --trials 1`` at the
workload's (N, L, scale, mode), made through the public API with one
call per stage: random_library, draw_channel, place_caches,
build_schedule, receive, decode_all, assemble_report. Trial seed s uses
library seed 2s+1, channel seed 2s and demand
default_rng(s).permutation(N), as the CLI does. A run with ``--seed n``
uses trial seeds 1000n, 1000n+1, ... . The CLI's own trial at seed 1000n
is an untimed warm-up, and the first timed trial must give its CSV row.

    python3 perfbench/run.py --workload full16 --seed 0 --seconds 30 --trace 0

``--trace 0`` times untraced trials for ``--seconds`` and prints the
end-to-end metrics, with times normalized to machine speed (speed.py)
and the raw wall-clock figures beside them. ``--trace 1`` alternates
untraced and traced trials for ``--seconds`` and prints the per-layer
metrics. Metric names and units come from BENCHMARK.json. Every trial's
decoded files and delivery times are checked. The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics;
the exit code is 1 if any trial failed.
"""

import os

# One BLAS thread: the benchmark is a single client, and complex-mode
# matmuls are too small to gain from more.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PRIME = 65537
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    L: int
    scale: int
    mode: str
    # Reference kernel for normalizing its times (speed.KERNELS): where the
    # trial time goes, interpreter loops or bulk array arithmetic.
    speed: str = "interpreter"

    @property
    def F(self) -> int:
        return self.scale * self.N * self.L


# Why each workload exists, and which layer it loads: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full16", 16, 15, 1, "gf"),
        Workload("reduced17", 17, 5, 1, "gf"),
        Workload("payload8", 8, 7, 8192, "gf", speed="array"),
        Workload("complex12", 12, 5, 1, "complex"),
    )
}


def load_mscache():
    """Import mscache from this checkout's src/, never from elsewhere."""
    if not (SRC / "mscache" / "__init__.py").is_file():
        raise SystemExit(f"error: no mscache package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import mscache
    import mscache.cli

    return mscache


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, for the section of BENCHMARK.json this run prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def plain(name, fn, *args, **kwargs):
    """Untraced stage call."""
    return fn(*args, **kwargs)


@dataclass
class Trial:
    seed: int
    library: object
    demand: object
    schedule: object
    log: object
    results: list
    report: object


def run_trial(ms, field, cfg, s: int, stage) -> Trial:
    """One trial at trial seed s; ``stage(name, fn, *args)`` makes each API call."""
    library = stage("content.library", ms.random_library, field, cfg.N, cfg.F, 2 * s + 1)
    H = stage("channel.draw", ms.draw_channel, cfg.K, cfg.L, 2 * s, field)
    d = ms.DemandVector(int(x) for x in np.random.default_rng(s).permutation(cfg.N))
    caches = stage("content.place", ms.place_caches, library, cfg)
    schedule = stage("delivery.schedule", ms.build_schedule, d, H, library, cfg)
    log = stage("channel.receive", ms.receive, H, schedule)
    results = stage("channel.decode", ms.decode_all, d, caches, log, H, schedule)
    report = stage("metrics.report", ms.assemble_report, cfg, schedule, results, seed=s)
    return Trial(s, library, d, schedule, log, results, report)


def check_trial(wl: Workload, field, trial: Trial) -> tuple[list, float]:
    """Failures found without trusting DecodeResult.success, and max decode error."""
    fails = []
    err = 0.0
    for k, res in enumerate(trial.results):
        want = trial.library.data[trial.demand[k]]
        if res.data.shape != want.shape:
            fails.append(f"user {k}: decoded shape {res.data.shape} != {want.shape}")
            continue
        err = max(err, float(np.max(np.abs(res.data - want), initial=0)))
    tol = field.decode_atol if wl.mode == "complex" else 0.0
    if err > tol:
        fails.append(f"decoded files differ from the library by {err} > {tol}")
    rep = trial.report
    if not rep.decode_ok:
        fails.append("report says decode_ok false")
    analytic = Fraction(1) if wl.L == wl.N - 1 else Fraction(wl.N - 1, wl.L)
    if not rep.achieved_T == rep.converse_T == analytic:
        fails.append(f"T achieved {rep.achieved_T}, converse {rep.converse_T}, analytic {analytic}")
    return fails, err


def cli_csv_row(ms, wl: Workload, s: int) -> str:
    """The data row `mscache verify --trials 1 --format csv` prints for seed s."""
    argv = [
        "verify", "--N", str(wl.N), "--L", str(wl.L), "--scale", str(wl.scale),
        "--mode", wl.mode, "--prime", str(PRIME), "--seed", str(s),
        "--trials", "1", "--format", "csv",
    ]
    buf = io.StringIO()
    with redirect_stdout(buf):
        ms.cli.main(argv)
    lines = buf.getvalue().splitlines()
    return lines[-1] if lines else ""


def reception_sha256(log) -> str:
    h = hashlib.sha256()
    for y in log.per_block:
        h.update(np.ascontiguousarray(y).tobytes())
    return h.hexdigest()


class Run:
    """Trials of one workload in one process, with their failure count."""

    def __init__(self, ms, wl: Workload, seed: int):
        self.ms = ms
        self.wl = wl
        self.field = ms.make_field(wl.mode, PRIME)
        self.cfg = ms.LibraryConfig(N=wl.N, K=wl.N, L=wl.L, F=wl.F)
        self.next_seed = 1000 * seed
        self.attempted = 0
        self.failed = 0
        self.err_max = 0.0
        # Untimed warm-up: the CLI's own trial at the first trial seed.
        # Trial code paths, plan caches and numpy are warm afterwards.
        self.cli_seed = self.next_seed
        self.cli_row = cli_csv_row(ms, wl, self.cli_seed)

    def trial(self, stage=plain, on_trial=None):
        """Run and check one trial; returns its wall seconds, or None if it failed.

        ``on_trial(trial)`` sees each passing trial; nothing else keeps it,
        so at most one trial's arrays are alive at a time.
        """
        s = self.next_seed
        self.next_seed += 1
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            trial = stage("trial", run_trial, self.ms, self.field, self.cfg, s, stage)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        dt = time.perf_counter() - t0
        fails, err = check_trial(self.wl, self.field, trial)
        self.err_max = max(self.err_max, err)
        if s == self.cli_seed:
            row = trial.report.to_csv_row()
            if row != self.cli_row:
                fails.append(f"CSV row {row!r} != CLI row {self.cli_row!r}")
            if self.wl.mode == "gf":
                print(f"info: reception sha256 at trial seed {s}: {reception_sha256(trial.log)}")
        if fails:
            print(f"FAIL trial seed {s}: " + "; ".join(fails), file=sys.stderr)
            self.failed += 1
            return None
        if on_trial is not None:
            on_trial(trial)
        return dt



def setup_seconds(wl: Workload) -> tuple[float, float]:
    """Median cold set-up time over fresh interpreters: (normalized, wall)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(wl.N), str(wl.L), wl.mode]
    bracket = speed.Bracket("interpreter")
    wall, norm = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        wall.append(float(out.stdout))
        norm.append(bracket.normalize(wall[-1]))
    return statistics.median(norm), statistics.median(wall)


def print_tail(times: list) -> None:
    """The highest percentile with at least ten trials beyond it; reported, not gated."""
    n = len(times)
    if n <= 10:
        print(f"info: trial_s tail: no percentile has 10 trials beyond it (n={n})")
        return
    k = n - 10
    print(f"info: trial_s tail: p{100 * k / n:.0f} = {sorted(times)[k - 1]:.6f} s (n={n})")


def end_to_end(ms, wl: Workload, seed: int, seconds: float) -> tuple[dict, Run]:
    """Untraced trials back to back for ``seconds``; times are speed-normalized."""
    setup, setup_wall = setup_seconds(wl)
    run = Run(ms, wl, seed)
    targets = spans.module_targets(ms) + spans.field_targets(run.field)
    if spans.is_traced(targets):
        raise RuntimeError("tracer wrappers present during the timed end-to-end phase")
    bracket = speed.Bracket(wl.speed)
    wall, norm = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        dt = run.trial()
        # Called for failed trials too, so each bracket spans one trial.
        normalized = bracket.normalize(dt or 0.0)
        if dt is not None:
            wall.append(dt)
            norm.append(normalized)
    if not norm:
        raise RuntimeError("no trial completed")
    print_tail(norm)
    print(
        f"info: wall clock: trial_s_p50 = {statistics.median(wall):.6f} s, trials_per_s = "
        f"{len(wall) / sum(wall):.6f} trials/s, setup_s = {setup_wall:.6f} s; "
        f"median {wl.speed} speed factor {statistics.median(bracket.factors):.4f}"
    )
    metrics = {
        "trials_per_s": len(norm) / sum(norm),
        "trial_s_p50": statistics.median(norm),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, run


def build_plans(ms, wl: Workload) -> tuple[float, int]:
    """Cold build of every row plan: (seconds, plans built)."""
    build = ms.delivery.build_row_plan_reduced
    if ms.regime(wl.N, wl.L) != "reduced":
        return 0.0, 0
    if hasattr(build, "cache_clear"):
        build.cache_clear()
    t0 = time.perf_counter()
    for i in range(wl.N):
        build(i, wl.N, wl.L)
    dt = time.perf_counter() - t0
    built = build.cache_info().misses if hasattr(build, "cache_info") else wl.N
    return dt, built


def trial_sizes(trial: Trial) -> dict:
    """Per-layer numbers read from a trial's outputs; sizes are computed, not measured."""
    return {
        "delivery.blocks": len(trial.schedule.blocks),
        "content.library_bytes": trial.library.data.nbytes,
        "delivery.signal_bytes": sum(b.signal.nbytes for b in trial.schedule.blocks),
        "channel.rx_bytes": sum(y.nbytes for y in trial.log.per_block),
    }


def trial_layers(rows: list) -> dict:
    """Per-layer numbers of one traced trial from its spans."""
    dur = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    beams = set()
    for name, d, s, key in rows:
        dur[name] += d
        own[name] += s
        calls[name] += 1
        if key is not None:
            beams.add(key)

    def across(func: str, table) -> float:
        return sum(table[f"{site}.{func}"] for site in ("channel", "delivery", "linalg"))

    zf_calls = across("zero_forcing_vector", calls)
    return {
        "content.library_s": dur["content.library"],
        "content.place_s": dur["content.place"],
        "channel.draw_s": dur["channel.draw"],
        "channel.draws": calls["field.sample_channel"],
        "channel.rank_calls": calls["channel.rank"],
        "channel.receive_s": dur["channel.receive"],
        "field.matmul_s": dur["field.matmul"],
        "field.matmul_calls": calls["field.matmul"],
        "channel.decode_s": dur["channel.decode"],
        "channel.decode_self_s": own["channel.decode"],
        "channel.decode_zf_calls": calls["channel.zero_forcing_vector"],
        "channel.decode_solve_calls": calls["channel.solve"],
        "delivery.schedule_s": dur["delivery.schedule"],
        "delivery.self_s": own["delivery.schedule"],
        "delivery.zf_calls": calls["delivery.zero_forcing_vector"],
        "linalg.zf_s": across("zero_forcing_vector", dur),
        "linalg.zf_calls": zf_calls,
        "linalg.rank_s": across("rank", dur),
        "linalg.solve_s": across("solve", dur),
        # No ZF calls means no wasted ones.
        "linalg.zf_unique_ratio": len(beams) / zf_calls if zf_calls else 1.0,
        "metrics.report_s": dur["metrics.report"],
        "trace.layer_self_s": sum(s for name, _, s, _ in rows if name != "trial"),
    }


def layers(ms, wl: Workload, seed: int, seconds: float, spans_path=None) -> tuple[dict, Run]:
    """Untraced and traced trials in turn for ``seconds``; per-layer numbers.

    Alternating, rather than timing two halves, keeps the drift in machine
    speed out of trace.overhead_ratio.
    """
    run = Run(ms, wl, seed)
    plan_s, plans_built = build_plans(ms, wl)
    targets = spans.module_targets(ms) + spans.field_targets(run.field)
    tracer = spans.Tracer()
    sizes = {}

    def stage(name, fn, *args, **kwargs):
        if fn is run_trial:
            # run_trial(ms, field, cfg, s, stage): a trial's spans share its seed.
            tracer.trial = args[3]
        return tracer.span(name, fn, *args, **kwargs)

    def keep_sizes(trial):
        sizes[trial.seed] = trial_sizes(trial)

    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if spans.is_traced(targets):
            raise RuntimeError("tracer wrappers present during an untraced trial")
        dt = run.trial()
        if dt is not None:
            untraced.append(dt)
        with tracer.installed(targets):
            dt = run.trial(stage, keep_sizes)
        if dt is not None:
            traced.append(dt)
    if not untraced or not traced:
        raise RuntimeError("no trial completed")
    by_trial = tracer.by_trial()
    per = [{**trial_layers(by_trial[s]), **sizes[s]} for s in sizes]
    metrics = {name: statistics.median_low(p[name] for p in per) for name in per[0]}
    untraced_p50 = statistics.median(untraced)
    self_sum = metrics.pop("trace.layer_self_s")
    metrics["delivery.plan_s"] = plan_s
    metrics["delivery.plans_built"] = plans_built
    metrics["channel.decode_err_max"] = run.err_max
    metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced_p50
    print(
        f"info: per-layer self times sum to {self_sum / untraced_p50:.4f} of the untraced "
        f"trial_s_p50 (traced n={len(traced)}, untraced n={len(untraced)})"
    )
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
        print(f"info: {len(tracer.spans)} spans written to {spans_path}")
    return metrics, run


def emit(metrics: dict, units: dict, run: Run) -> None:
    """Print every metric with its unit, then the result line."""
    if set(metrics) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}"
        )
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"fail_share = {run.failed / run.attempted:.6g} failed/attempted")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mscache benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ms = load_mscache()
    units = declared_units(bool(args.trace))
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name}: N={wl.N} L={wl.L} F={wl.F} mode={wl.mode} seed={args.seed}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        metrics, run = layers(ms, wl, args.seed, args.seconds, path)
    else:
        metrics, run = end_to_end(ms, wl, args.seed, args.seconds)
    emit(metrics, units, run)
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
