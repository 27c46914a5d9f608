"""zps benchmark: runs a workload through zps, checks every output, prints metrics.

Run from the repository root:

    python3 perfbench/run.py --workload select-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn
    python3 perfbench/run.py --record-references 0-63       # reference digests

zps is imported from ``src`` of the current directory, in worker processes
(``worker.py``) that run one workload each. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
with the end-to-end metrics of BENCHMARK.json for ``--trace 0`` and its
per-layer metrics for ``--trace 1``. The exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("select-cold", "select-warm", "remote-stub", "simulate", "analyze")
SETUP_SAMPLES = 3
STUB_LATENCY_S = 0.01
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


def parse_seeds(text: str) -> list[int]:
    """'0-63' or '1,2,5' -> seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def make_inputs(workload: str, seed: int, work: Path) -> None:
    if workload == "simulate":
        gen.make_spec(seed, work)
    elif workload != "analyze":
        gen.make_task(workload, seed, work)
    else:
        work.mkdir(parents=True, exist_ok=True)


def zps_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(env: dict[str, str]) -> float:
    """Seconds from starting a fresh interpreter until ``import zps.cli`` returns."""
    code = "import zps.cli\nimport time\nprint(repr(time.monotonic()))"
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip()) - start


class Stub:
    """The scoring stub in its own process, stopped and reaped on exit."""

    def __enter__(self) -> str:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--latency", str(STUB_LATENCY_S)],
            stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "PORT":
            self.__exit__()
            raise RuntimeError("scoring stub did not start")
        return f"http://127.0.0.1:{line[1]}/score"

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_worker(argv: list[str], env: dict[str, str], timeout: float) -> None:
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")


def fill_warm_cache(work: Path, seed: int, env: dict[str, str]) -> None:
    """Fill select-warm's cache untimed, with the code under test, in its own process."""
    argv = ["select", "--catalog", str(work / "catalog.json"),
            "--examples", str(work / "examples.jsonl"), "--seed", str(seed),
            "--cache", str(work / "warm-cache.jsonl"), "--out", str(work / "fill.json")]
    subprocess.run([sys.executable, "-m", "zps.cli", *argv], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, timeout=120, check=True)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest percentile with at least TAIL_BEYOND samples beyond it
    (the slowest time when there are too few samples for that), the percentile,
    and the number of samples beyond it."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 deadline: float) -> dict:
    """Set up, run the worker, clean up; returns the worker's result plus set-up times."""
    env = zps_env()
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    expect = references.get(workload, {}).get(str(seed))
    try:
        make_inputs(workload, seed, work)
        setup = [setup_seconds(env) for _ in range(SETUP_SAMPLES)]
        if workload == "select-warm":
            fill_warm_cache(work, seed, env)
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(int(traced)), "--dir", str(work), "--src", str(ROOT / "src"),
                "--trace-out", str(WORK_DIR / "traces" / f"trace-{workload}.tsv")]
        if expect:
            argv += ["--expect", expect]
        if workload == "remote-stub":
            with Stub() as endpoint:
                run_worker(argv + ["--endpoint", endpoint], env, deadline - time.monotonic())
        else:
            run_worker(argv, env, deadline - time.monotonic())
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup"] = setup
    result["reference"] = expect is not None
    return result


def end_to_end(workload: str, result: dict) -> tuple[dict[str, float], list[str]]:
    """The eight end-to-end metrics and their report lines."""
    times = result["op_times"]
    cells = gen.cells_per_op(workload)
    median = statistics.median(times)
    tail_s, percentile, beyond = tail(times)
    attempted = len(times)
    values = {
        "cells_per_s": cells / median,
        "op_tail_s": tail_s,
        "setup_s": statistics.median(result["setup"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "backend_cells": result["backend_cells"],
        "backend_requests": result["backend_requests"],
        "cache_file_bytes": result["cache_file_bytes"],
        "op_failure_ratio": result["failed"] / attempted,
    }
    notes = {
        "cells_per_s": f"{cells} cells per op / median op {median:.4f} s",
        "op_tail_s": f"p{percentile:.0f} of {attempted} ops, {beyond} beyond it",
        "setup_s": f"median of {len(result['setup'])} fresh interpreters",
        "peak_rss_mb": "worker process running only this workload",
        "backend_cells": "cells sent to the scorer per op",
        "backend_requests": "scorer calls per op",
        "cache_file_bytes": "score cache file after the op",
        "op_failure_ratio": f"{result['failed']} of {attempted} ops failed",
    }
    units = {"cells_per_s": "cells/s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "backend_cells": "cells", "backend_requests": "requests",
             "cache_file_bytes": "B", "op_failure_ratio": "ratio"}
    lines = [f"  {name:<18} {value:>14.6g} {units[name]:<9} {notes[name]}"
             for name, value in values.items()]
    return values, lines


def report(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    result = run_workload(workload, seed, seconds, traced, deadline)
    attempted = len(result["op_times"])
    print(f"workload {workload} seed {seed}: {gen.describe(workload)}, "
          f"{attempted} ops in about {seconds:g} s" + (" (traced)" if traced else ""))
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    if traced:
        values = result["per_layer"]
        spans = (WORK_DIR / "traces" / f"trace-{workload}.tsv").relative_to(ROOT)
        lines = [f"  trace: {result['traced_ops']} traced ops; per-op medians; overhead "
                 f"{values['trace.overhead_s']:.4f} s per op; spans in {spans}"]
        lines += [f"  {item['name']:<28} {values.get(item['name'], float('nan')):>14.6g} "
                  f"{item['unit']}" for item in declared]
    else:
        values, lines = end_to_end(workload, result)
    print("\n".join(lines))
    missing = [item["name"] for item in declared if item["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    checks = ("reference digest for this seed" if result["reference"]
              else "no reference digest for this seed; invariants and cross-op checks only")
    print(f"  checks: {checks}; {result['failed']} of {attempted} ops failed")
    for failure in result["failures"]:
        print(f"    {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
                    for item in declared},
    }


def record_references(seeds: str, workloads: list[str]) -> None:
    env = zps_env()
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for workload in workloads:
        work = WORK_DIR / f"record-{workload}-{os.getpid()}"
        argv = ["--workload", workload, "--dir", str(work), "--src", str(ROOT / "src"),
                "--record", seeds]
        try:
            if workload == "remote-stub":
                with Stub() as endpoint:
                    run_worker(argv + ["--endpoint", endpoint], env, 3600)
            else:
                run_worker(argv, env, 3600)
            digests = json.loads((work / "result.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        references.setdefault(workload, {}).update(digests)
        print(f"{workload}: recorded {len(digests)} seeds")
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", metavar="SEEDS",
                        help="record reference digests for seeds such as 0-63")
    args = parser.parse_args()

    if not (ROOT / "src" / "zps" / "__init__.py").is_file():
        print(f"error: no zps sources at {ROOT / 'src' / 'zps'}; run from the repository root",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_references:
        record_references(args.record_references, workloads)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    correct = True
    for workload in workloads:
        try:
            outcome = report(workload, args.seed, args.seconds, bool(args.trace), spec)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"error: workload {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(outcome), flush=True)
        correct = correct and outcome["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
