"""Record one trajectory point: every workload over several seeds.

For each workload, runs ``run.py --trace 0`` once per seed and
``run.py --trace 1`` once at the first seed, one process at a time, then
appends medians, quartiles and spreads (interquartile range over median)
of the end-to-end metrics, and of the raw wall-clock trial figures, to
perfbench/trajectory.json and prints them.

    python3 perfbench/trajectory.py --label "<commit>" --seeds 0-9
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
FILE = HERE / "trajectory.json"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


WALL = re.compile(r"info: wall clock: trial_s_p50 = (\S+) s, trials_per_s = (\S+) trials/s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Metrics of one run, plus its wall-clock trial figures as wall.* entries."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    wall = WALL.search(proc.stdout)
    if wall:
        values["wall.trial_s_p50"], values["wall.trials_per_s"] = map(float, wall.groups())
    return values


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. a commit")
    parser.add_argument("--seeds", default="0-9", help="inclusive range like 0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    point = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "blas_threads": 1},
        "workloads": {},
    }
    for wl in args.workloads.split(","):
        runs = [run_once(wl, s, args.seconds, 0) for s in seeds]
        e2e = {name: summary([r[name] for r in runs]) for name in runs[0]}
        for name, s in e2e.items():
            print(f"{wl} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.4f}", flush=True)
        layers = run_once(wl, seeds[0], args.seconds, 1)
        print(f"{wl} per-layer at seed {seeds[0]}: {json.dumps(layers)}", flush=True)
        point["workloads"][wl] = {"end_to_end": e2e, "per_layer": layers}
    history = json.loads(FILE.read_text()) if FILE.exists() else {"points": []}
    history["points"].append(point)
    FILE.write_text(json.dumps(history, indent=1) + "\n")


if __name__ == "__main__":
    main()
