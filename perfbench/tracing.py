"""Span tracing of zps from the outside, and the per-layer metrics it yields.

``Tracer.install`` replaces the functions each zps layer calls through module
globals (and a few methods) with wrappers that record a span: name, start,
end, parent span and operation id. Spans live in memory and are written out
once, after the run. Nothing inside ``src/zps`` is changed.

A layer's self time is a span's duration minus the part of it that child
spans cover. Spans opened on worker threads (the remote backend's pool) take
the main thread's innermost open span as their parent.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

# Value functions get a call's (args, result) and return the number recorded
# with its span.
def _cells(args, result):
    return result.shape[0] * result.shape[1]


def _batch(args, result):
    return len(args[1])


def _length(args, result):
    return len(result)


def _hit(args, result):
    return 0 if result is None else 1


def _loaded(args, result):
    return len(args[0])


# (module or "module:Class", attribute, span name, value function). Each layer
# is wrapped where its caller looks it up, so e.g. zps.cli's and zps.evalsim's
# own bindings of score_all are both replaced.
HOOKS = (
    ("zps.cli", "main", "cli.main", None),
    ("zps.cli", "load_catalog", "catalog.load_catalog", None),
    ("zps.cli", "load_examples", "catalog.load_examples", None),
    ("zps.cli", "score_all", "scoring.score_all", _cells),
    ("zps.cli", "select", "selection.select", None),
    ("zps.cli", "evaluate", "evalsim.evaluate", None),
    ("zps.cli", "simulate_robustness", "evalsim.simulate_robustness", None),
    ("zps.cli", "compare_strategies", "evalsim.compare_strategies", None),
    ("zps.scoring", "render", "catalog.render", None),
    ("zps.scoring", "make_cache_key", "cache.make_cache_key", None),
    ("zps.scoring", "log_softmax", "scoring.log_softmax", None),
    ("zps.scoring", "_chunk", "scoring.chunk", _length),
    ("zps.evalsim", "score_all", "scoring.score_all", _cells),
    ("zps.evalsim", "select", "selection.select", None),
    ("zps.evalsim", "evaluate", "evalsim.evaluate", None),
    ("zps.selection", "select", "selection.select", None),
    ("zps.selection", "confidence_scores", "selection.confidence_scores", None),
    ("zps.selection", "filter_prompts", "selection.filter_prompts", None),
    ("zps.selection", "ensemble_predict", "selection.ensemble_predict", None),
    ("zps.selection", "pseudo_accuracy", "selection.pseudo_accuracy", None),
    ("zps.fewshot", "build_pseudo_val", "fewshot.build_pseudo_val", None),
    ("zps.cache:ScoreCache", "__init__", "cache.open", _loaded),
    ("zps.cache:ScoreCache", "get", "cache.get", _hit),
    ("zps.cache:ScoreCache", "put", "cache.put", None),
    ("zps.backends:SyntheticBackend", "score_batch", "backends.score_batch", _batch),
    ("zps.backends:RemoteBackend", "score_batch", "backends.score_batch", _batch),
)


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """In-memory span recorder. A span is (id, parent, op, name, start, end, value, error)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.retries: dict[int, int] = {}  # id(RemoteBackend) -> retry_count
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = False
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                recorded = 0
                if value is not None and not error:
                    recorded = value(args, result)
                if name == "backends.score_batch" and hasattr(args[0], "retry_count"):
                    tracer.retries[id(args[0])] = args[0].retry_count
                tracer.spans.append(
                    (span_id, parent, tracer.op, name, start, end, recorded, error)
                )

        return traced

    def install(self) -> None:
        for path, attr, name, value in HOOKS:
            target = _resolve(path)
            original = getattr(target, attr)
            self._undo.append((target, attr, original))
            setattr(target, attr, self.wrap(name, original, value))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def start_op(self, op: int) -> None:
        self.op = op
        self.retries.clear()

    def write(self, path: Path, t0: float) -> None:
        """Write every span as tab-separated text, times relative to ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart_s\tend_s\tvalue\terror\n")
            for span_id, parent, op, name, start, end, value, error in self.spans:
                fh.write(f"{op}\t{span_id}\t{parent}\t{name}\t{start - t0:.9f}\t"
                         f"{end - t0:.9f}\t{value}\t{int(error)}\n")


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def op_layer_stats(spans: list[tuple]) -> dict[int, dict]:
    """Per operation: count, total duration, value sum, errors and self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    names = {}
    for span_id, parent, _, name, start, end, _, _ in spans:
        names[span_id] = name
        if parent >= 0:
            children[parent].append((start, end))
    per_op: dict[int, dict] = defaultdict(
        lambda: {"count": defaultdict(int), "total": defaultdict(float),
                 "value": defaultdict(float), "errors": defaultdict(int),
                 "self": defaultdict(float), "from_evalsim": [0, 0]}
    )
    for span_id, parent, op, name, start, end, value, error in spans:
        stats = per_op[op]
        stats["count"][name] += 1
        stats["total"][name] += end - start
        stats["value"][name] += value
        stats["errors"][name] += int(error)
        stats["self"][name] += (end - start) - _covered(start, end, children.get(span_id, []))
        if name == "scoring.score_all" and names.get(parent, "").startswith("evalsim."):
            stats["from_evalsim"][0] += 1
            stats["from_evalsim"][1] += value
    return per_op


def layer_metrics(stats: dict, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``extra`` carries what the worker measured around the operation: cache
    file size and bytes appended, artifact size, retries, and the stub's
    counters (``server_s`` is present only on remote runs).
    """
    count, total, value = stats["count"], stats["total"], stats["value"]
    self_s = stats["self"]
    gets = count["cache.get"]
    requests = count["backends.score_batch"]
    cells = value["backends.score_batch"]
    remote = extra.get("server_s") is not None
    busy = total["backends.score_batch"]
    server = extra["server_s"] if remote else 0.0
    return {
        "cache.key_calls": count["cache.make_cache_key"],
        "cache.key_s": total["cache.make_cache_key"],
        "cache.put_calls": count["cache.put"],
        "cache.put_s": total["cache.put"],
        "cache.bytes_appended": extra.get("cache_bytes_appended", 0),
        "cache.file_bytes": extra.get("cache_file_bytes", 0),
        "cache.open_s": total["cache.open"],
        "cache.entries_loaded": value["cache.open"],
        "cache.get_calls": gets,
        "cache.hit_ratio": value["cache.get"] / gets if gets else 0.0,
        "catalog.load_s": total["catalog.load_catalog"] + total["catalog.load_examples"],
        "catalog.render_calls": count["catalog.render"],
        "catalog.render_s": total["catalog.render"],
        "scoring.score_all_s": total["scoring.score_all"],
        "scoring.self_s": self_s["scoring.score_all"],
        "scoring.normalize_s": total["scoring.log_softmax"],
        "scoring.chunks": value["scoring.chunk"],
        "backends.requests": requests,
        "backends.cells": cells,
        "backends.cells_per_request": cells / requests if requests else 0.0,
        "backends.busy_s": busy,
        "backends.server_s": server,
        "backends.client_overhead_s": busy - server if remote else 0.0,
        "backends.retries": extra.get("retries", 0),
        "backends.failed_requests": stats["errors"]["backends.score_batch"],
        "backends.http_bytes_sent": extra.get("http_bytes", 0),
        "selection.select_calls": count["selection.select"],
        "selection.select_s": total["selection.select"],
        "selection.confidence_s": total["selection.confidence_scores"],
        "selection.filter_s": total["selection.filter_prompts"],
        "selection.ensemble_s": total["selection.ensemble_predict"],
        "selection.pseudo_acc_s": total["selection.pseudo_accuracy"],
        "fewshot.pseudo_val_s": total["fewshot.build_pseudo_val"],
        "evalsim.score_all_calls": stats["from_evalsim"][0],
        "evalsim.cells_scored": stats["from_evalsim"][1],
        "evalsim.self_s": sum(v for k, v in self_s.items() if k.startswith("evalsim.")),
        "cli.self_s": self_s["cli.main"],
        "cli.artifact_bytes": extra.get("artifact_bytes", 0),
    }


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over operations of each per-layer metric."""
    return {name: float(statistics.median(m[name] for m in per_op)) for name in per_op[0]}
