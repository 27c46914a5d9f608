"""Runs the benchmark over several seeds and summarises each metric's spread.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10                  # every workload
    python3 perfbench/baseline.py --seeds 1-5 --workload simulate
    python3 perfbench/baseline.py --seeds 1-10 --trace --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed with BENCHMARK.json's
``run_seconds``, and prints every end-to-end metric's median, quartiles and
spread (interquartile range over the median, as ``statistics.quantiles``
gives them) next to the metric's bound. ``--trace`` adds one traced run per
workload, on the first seed, for the per-layer numbers. ``--out`` writes it
all as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS, parse_seeds

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, timeout=900,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n"
                         f"{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed:\n{out.stdout}")
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--trace", action="store_true",
                        help="also run one traced run per workload")
    parser.add_argument("--out", help="write the baseline JSON here")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    baseline = {"run_seconds": seconds, "seeds": seeds, "end_to_end": {}, "per_layer": {}}
    for workload in args.workload or WORKLOADS:
        runs = [run_once(workload, seed, seconds, False) for seed in seeds]
        table = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            table[name] = summary([r["metrics"][name]["value"] for r in runs])
            table[name]["unit"] = metric["unit"]
            row = table[name]
            print(f"{workload:<12} {name:<12} median {row['median']:>12.6g} {metric['unit']:<8}"
                  f" q1 {row['q1']:>10.6g} q3 {row['q3']:>10.6g} spread {row['spread']:.4f}"
                  f" bound {metric['bound']} ({row['spread'] / metric['bound']:.2f} of it)",
                  flush=True)
        baseline["end_to_end"][workload] = table
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, True)
            baseline["per_layer"][workload] = {
                name: m["value"] for name, m in traced["metrics"].items()
            }
    if args.out:
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
