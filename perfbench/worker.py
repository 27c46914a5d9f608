"""Runs one workload's operations in a fresh interpreter and records them.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``,
so this process holds only zps and the workload: its peak RSS is the
workload's. Inputs are already on disk in ``--dir``; the result goes to
``--dir/result.json``.

Each operation is timed around a single call into zps and checked after the
clock stops: exit code, a digest of its decision fields, and the workload's
own invariants. In a traced run the first half of the time runs untraced,
the second half with ``tracing.Tracer`` installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import urllib.request
from pathlib import Path

import gen
import tracing
from stub import stub_score

MIN_OPS = 20          # so the tail percentile sits at or above the median
MIN_TRACED_OPS = 3
MAX_SPANS = 400_000   # bounds the traced run's memory
HARD_CAP_S = 130.0    # the whole run must end within 180 s
PSEUDO_VAL_SIZE = 1000


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _tensor_digest(tensor) -> str:
    doc = [list(tensor.prompt_ids), list(tensor.example_ids), list(tensor.choices),
           bool(tensor.normalized), list(tensor.shape)]
    return hashlib.sha256(json.dumps(doc).encode() + tensor.logprobs.tobytes()).hexdigest()


def _report_decision(report: dict) -> dict:
    """The fields of a selection report that record decisions."""
    return {
        "selected": report["selected"],
        "kept": report["confidence"]["kept"],
        "discarded": report["confidence"]["discarded"],
        "pseudo_labels": report["pseudo_labels"],
        "pseudo_acc": report["pseudo_acc"],
    }


def _select_invariants(report: dict, prompt_ids: list[str], n_examples: int) -> list[str]:
    problems = []
    kept, discarded = report["kept"], report["discarded"]
    if sorted(kept + discarded) != sorted(prompt_ids):
        problems.append("kept and discarded do not partition the prompts")
    if report["selected"] not in kept:
        problems.append("selected prompt is not kept")
    elif report["pseudo_acc"][report["selected"]] != max(report["pseudo_acc"][p] for p in kept):
        problems.append("selected prompt does not have the highest pseudo accuracy")
    if len(report["pseudo_labels"]) != n_examples:
        problems.append("pseudo-label count differs from the example count")
    return problems


ROBUSTNESS_FIELDS = ("ratio", "zps_accuracy_mean", "zps_accuracy_std",
                     "candidate_accuracy_mean", "candidate_accuracy_std", "n_seeds")
STRATEGY_FIELDS = ("strategy", "pseudo_label_accuracy_mean", "pseudo_label_accuracy_std",
                   "selected_accuracy_mean", "selected_accuracy_std", "n_cells")


def _stub_stats(endpoint: str) -> dict:
    base = endpoint.rsplit("/", 1)[0]
    with urllib.request.urlopen(base + "/stats", timeout=10) as response:
        return json.loads(response.read())


def analyze_inputs(seed: int):
    """A pre-normalized p x n x c ScoreTensor with planted labels, and its gold map."""
    import numpy as np
    from scipy.special import log_softmax
    from zps import ScoreTensor

    size = gen.SIZES["analyze"]
    p, n, c = size["prompts"], size["examples"], size["choices"]
    rng = np.random.default_rng(seed)
    planted = rng.integers(0, c, size=n)
    strength = rng.uniform(0.2, 2.5, size=p)
    logits = rng.standard_normal((p, n, c))
    logits[:, np.arange(n), planted] += strength[:, None]
    choices = tuple(gen.CHOICES[:c])
    example_ids = tuple(f"x{k:05d}" for k in range(n))
    tensor = ScoreTensor(
        prompt_ids=tuple(f"p{i:03d}" for i in range(p)),
        example_ids=example_ids,
        choices=choices,
        logprobs=log_softmax(logits, axis=2),
        normalized=True,
    )
    gold = {eid: choices[j] for eid, j in zip(example_ids, planted.tolist())}
    return tensor, gold


class Probe:
    """Captures the tensor the CLI scores and counts synthetic backend calls.

    Two cheap hooks, one call each per operation or batch. They are installed
    in untraced runs too, because the output checks need them.
    """

    def __init__(self):
        import zps.backends
        import zps.cli

        self.tensor = None
        self.requests = 0
        self.cells = 0
        cli, synthetic = zps.cli, zps.backends.SyntheticBackend
        score_all, score_batch = cli.score_all, synthetic.score_batch
        probe = self

        def capture(*args, **kwargs):
            probe.tensor = score_all(*args, **kwargs)
            return probe.tensor

        def counted(backend, batch):
            probe.requests += 1
            probe.cells += len(batch)
            return score_batch(backend, batch)

        cli.score_all = capture
        synthetic.score_batch = counted

    def reset(self) -> None:
        self.tensor = None
        self.requests = 0
        self.cells = 0


class Workload:
    """One workload's set-up, timed call, and post-call inspection."""

    def __init__(self, name: str, seed: int, work: Path, endpoint: str | None, probe: Probe):
        import zps.cli
        import zps.evalsim
        import zps.fewshot
        import zps.scoring
        import zps.selection

        # Modules, not functions: a traced run replaces their attributes.
        self.zps = zps
        self.probe = probe
        self.name, self.seed, self.work, self.endpoint = name, seed, work, endpoint
        self.artifact = work / "artifact.json"
        self.cache = work / ("warm-cache.jsonl" if name == "select-warm" else "cold-cache.jsonl")
        self.stub_before = None
        if name == "analyze":
            self.tensor, self.gold = analyze_inputs(seed)
            self.argv = None
        elif name == "simulate":
            self.argv = ["simulate", "--spec", str(work / "spec.json"),
                         "--seed", str(seed), "--out", str(self.artifact)]
        else:
            self.catalog = json.loads((work / "catalog.json").read_text(encoding="utf-8"))
            self.n_examples = gen.SIZES[name]["examples"]
            self.argv = ["select", "--catalog", str(work / "catalog.json"),
                         "--examples", str(work / "examples.jsonl"),
                         "--seed", str(seed), "--out", str(self.artifact)]
            if name == "remote-stub":
                self.argv += ["--backend", "remote", "--endpoint", endpoint,
                              "--model", "bench-stub", "--jobs", "2"]
            else:
                self.argv += ["--cache", str(self.cache)]

    def fill_warm_cache(self) -> None:
        """Record-mode set-up: fill the warm cache with the code under test."""
        with contextlib.redirect_stdout(io.StringIO()):
            if self.zps.cli.main(self.argv) != 0:
                raise RuntimeError("filling the warm cache failed")

    def prepare(self) -> None:
        if self.name == "select-cold" and self.cache.exists():
            self.cache.unlink()
        if self.artifact.exists():
            self.artifact.unlink()
        self.probe.reset()
        self.cache_before = self.cache.stat().st_size if self.cache.exists() else 0
        if self.endpoint:
            self.stub_before = _stub_stats(self.endpoint)

    def run(self):
        """The timed call. Returns its exit code (analyze: its result objects)."""
        zps = self.zps
        if self.name == "analyze":
            reports = [zps.selection.select(self.tensor, zps.EnsembleConfig(strategy=s),
                                            score_all_prompts=True)
                       for s in zps.STRATEGIES]
            pseudo = zps.fewshot.build_pseudo_val(self.tensor, size=PSEUDO_VAL_SIZE)
            evaluation = zps.evalsim.evaluate(
                reports[0], zps.scoring.predict(self.tensor), self.gold
            )
            return reports, pseudo, evaluation
        with contextlib.redirect_stdout(io.StringIO()):
            return zps.cli.main(self.argv)

    def inspect(self, outcome) -> dict:
        """Decision digest, counts and invariant problems of one finished operation."""
        info = {"problems": [], "report_digest": None, "tensor_digest": None,
                "artifact_bytes": 0, "cache_file_bytes": 0, "cache_bytes_appended": 0,
                "backend_requests": self.probe.requests,
                "backend_cells": self.probe.cells}
        if isinstance(outcome, Exception):
            info["problems"].append(f"raised {type(outcome).__name__}: {outcome}")
            return info
        if self.name == "analyze":
            reports, pseudo, evaluation = outcome
            ev = evaluation.to_json_dict()
            info["report_digest"] = _digest({
                "reports": [_report_decision(r.to_json_dict()) for r in reports],
                "pseudo_val": pseudo.to_jsonl(),
                "evaluation": {k: ev[k] for k in (
                    "selected", "selected_accuracy", "mean_candidate_accuracy",
                    "median_candidate_accuracy", "pseudo_label_accuracy",
                    "spearman_pseudo_vs_true", "per_prompt_accuracy")},
            })
            for r in reports:
                info["problems"] += _select_invariants(
                    _report_decision(r.to_json_dict()), list(self.tensor.prompt_ids),
                    len(self.tensor.example_ids))
            if len(pseudo) != PSEUDO_VAL_SIZE:
                info["problems"].append("pseudo-val set has the wrong size")
            return info
        if outcome != 0:
            info["problems"].append(f"zps exited with code {outcome}")
            return info
        artifact = json.loads(self.artifact.read_text(encoding="utf-8"))
        info["artifact_bytes"] = self.artifact.stat().st_size
        if self.name == "simulate":
            info["report_digest"] = _digest({
                "robustness": [{k: r[k] for k in ROBUSTNESS_FIELDS}
                               for r in artifact["robustness"]["rows"]],
                "strategies": [{k: r[k] for k in STRATEGY_FIELDS}
                               for r in artifact["strategies"]["strategies"]],
            })
            spec = json.loads((self.work / "spec.json").read_text(encoding="utf-8"))
            if len(artifact["robustness"]["rows"]) != len(spec["ratios"]):
                info["problems"].append("robustness table has the wrong row count")
        else:
            decision = _report_decision(artifact["report"])
            info["report_digest"] = _digest(decision)
            info["problems"] += _select_invariants(
                decision, [p["prompt_id"] for p in self.catalog["prompts"]], self.n_examples)
            if self.probe.tensor is None:
                info["problems"].append("no score tensor was captured")
            else:
                info["tensor_digest"] = _tensor_digest(self.probe.tensor)
        if self.cache.exists():
            info["cache_file_bytes"] = self.cache.stat().st_size
            info["cache_bytes_appended"] = info["cache_file_bytes"] - self.cache_before
        if self.endpoint:
            after = _stub_stats(self.endpoint)
            for key, field in (("backend_requests", "requests"), ("backend_cells", "items"),
                               ("http_bytes", "bytes_received"), ("server_s", "busy_s")):
                info[key] = after[field] - self.stub_before[field]
        return info

    def expected_remote_tensor_digest(self) -> str:
        """The tensor the stub's scores must give, computed without zps."""
        import numpy as np
        from scipy.special import log_softmax
        from zps import ScoreTensor

        examples = [json.loads(line) for line in
                    (self.work / "examples.jsonl").read_text(encoding="utf-8").splitlines()]
        choices = self.catalog["task"]["choices"]
        raw = np.array([
            [[stub_score(gen.render_text(p["template"], e["fields"]), p["verbalizer"][c])
              for c in choices] for e in examples]
            for p in self.catalog["prompts"]
        ])
        return _tensor_digest(ScoreTensor(
            prompt_ids=tuple(p["prompt_id"] for p in self.catalog["prompts"]),
            example_ids=tuple(e["example_id"] for e in examples),
            choices=tuple(choices), logprobs=log_softmax(raw, axis=2), normalized=True,
        ))


def combined_digest(info: dict) -> str:
    return _digest([info["report_digest"], info["tensor_digest"]])


class Checker:
    """Holds what every operation must reproduce and counts the failures."""

    def __init__(self, workload: Workload, expect: str | None, fill_digest: str | None):
        self.workload = workload
        self.expect = expect
        self.fill_digest = fill_digest
        self.remote_tensor = (workload.expected_remote_tensor_digest()
                              if workload.name == "remote-stub" else None)
        self.first: str | None = None
        self.failures: list[str] = []
        self.failed = 0
        self.ops = 0

    def check(self, info: dict) -> None:
        op = self.ops
        self.ops += 1
        problems = list(info["problems"])
        if info["report_digest"] is not None:
            digest = combined_digest(info)
            if self.expect and digest != self.expect:
                problems.append("decision digest differs from the recorded reference")
            if self.first is None:
                self.first = digest
            elif digest != self.first:
                problems.append("decision digest differs from the run's first operation")
            if self.fill_digest and info["report_digest"] != self.fill_digest:
                problems.append("warm-cache report differs from the cold run that filled it")
            if self.remote_tensor and info["tensor_digest"] != self.remote_tensor:
                problems.append("tensor differs from the stub's scores")
        if self.workload.name == "select-warm":
            if info["cache_bytes_appended"] != 0:
                problems.append(f"warm run appended {info['cache_bytes_appended']} cache bytes")
            if info["backend_cells"] != 0:
                problems.append(f"warm run sent {info['backend_cells']} cells to the backend")
        if problems:
            self.failed += 1
            self.failures += [f"op {op}: {p}" for p in problems]


def run_ops(workload: Workload, checker: Checker, until: float, min_ops: int,
            hard_stop: float, tracer=None, max_spans: int | None = None):
    times, infos = [], []
    while True:
        workload.prepare()
        if tracer is not None:
            tracer.start_op(len(times))
        start = time.perf_counter()
        try:
            outcome = workload.run()
        except Exception as exc:  # noqa: BLE001 - a library call failing is a failed op
            outcome = exc
        elapsed = time.perf_counter() - start
        info = workload.inspect(outcome)
        if tracer is not None:
            info["retries"] = sum(tracer.retries.values())
        checker.check(info)
        times.append(elapsed)
        infos.append(info)
        now = time.perf_counter()
        if now >= hard_stop:
            break
        if len(times) >= min_ops and now >= until:
            break
        if max_spans is not None and len(times) >= min_ops and len(tracer.spans) > max_spans:
            break
    return times, infos


def _per_op(infos: list[dict], key: str) -> float:
    return float(statistics.median(i.get(key) or 0 for i in infos))


def measure(args) -> dict:
    import zps

    src = Path(args.src).resolve()
    if Path(zps.__file__).resolve().parent.parent != src:
        raise SystemExit(f"zps imported from {zps.__file__}, not from {src}")
    work = Path(args.dir)
    workload = Workload(args.workload, args.seed, work, args.endpoint, Probe())
    fill_digest = None
    if args.workload == "select-warm":
        fill = json.loads((work / "fill.json").read_text(encoding="utf-8"))
        fill_digest = _digest(_report_decision(fill["report"]))
    checker = Checker(workload, args.expect, fill_digest)

    start = time.perf_counter()
    hard_stop = start + HARD_CAP_S
    result = {}
    if not args.trace:
        times, infos = run_ops(workload, checker, start + args.seconds, MIN_OPS, hard_stop)
        result["op_times"] = times
        for key in ("backend_cells", "backend_requests", "cache_file_bytes"):
            result[key] = _per_op(infos, key)
    else:
        half = start + args.seconds / 2
        plain, _ = run_ops(workload, checker, half, MIN_TRACED_OPS, hard_stop)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, infos = run_ops(workload, checker, start + args.seconds, MIN_TRACED_OPS,
                                    hard_stop, tracer=tracer, max_spans=MAX_SPANS)
        finally:
            tracer.uninstall()
        per_op = tracing.op_layer_stats(tracer.spans)
        layers = tracing.median_metrics(
            [tracing.layer_metrics(per_op[i], infos[i]) for i in range(len(traced))]
        )
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = layers
        result["op_times"] = plain + traced
        result["traced_ops"] = len(traced)
        tracer.write(Path(args.trace_out), start)
    result["failed"] = checker.failed
    result["failures"] = checker.failures[:20]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def record(args) -> dict:
    """One operation per seed; returns seed -> decision digest."""
    import run as runner

    digests = {}
    probe = Probe()
    for seed in runner.parse_seeds(args.record):
        work = Path(args.dir) / f"seed-{seed}"
        runner.make_inputs(args.workload, seed, work)
        workload = Workload(args.workload, seed, work, args.endpoint, probe)
        if args.workload == "select-warm":
            workload.fill_warm_cache()
        checker = Checker(workload, None, None)
        workload.prepare()
        info = workload.inspect(workload.run())
        checker.check(info)
        if checker.failed:
            raise SystemExit(f"seed {seed}: {checker.failures}")
        digests[str(seed)] = combined_digest(info)
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True, help="this run's work directory")
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--endpoint", help="scoring stub URL (remote-stub)")
    parser.add_argument("--expect", help="reference decision digest for this seed")
    parser.add_argument("--trace-out", help="where a traced run writes its spans")
    parser.add_argument("--record", help="record reference digests for these seeds")
    args = parser.parse_args()
    result = record(args) if args.record else measure(args)
    out = Path(args.dir) / "result.json"
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
