"""The benchmark's tracing hooks keep resolving against the zps package.

``perfbench/tracing.py`` wraps zps functions by module and attribute name, and
``perfbench/worker.py``'s probe wraps ``zps.cli.score_all`` and
``SyntheticBackend.score_batch``. A rename or deletion in ``src/zps`` that
misses them would otherwise only show up as a failed ``perfbench/run.py
--trace 1`` run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import zps.backends
import zps.cli
import zps.fewshot
import zps.selection
from zps import STRATEGIES, EnsembleConfig, ScoreCache, SyntheticBackend, score_all

from .helpers import make_examples, make_prompts, make_task, plant_labels, synthetic_tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # tracing.py imports only the standard library, so it loads on its own.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_hook_resolves():
    tracing = load_tracing()
    assert tracing.HOOKS
    missing = [
        f"{path}.{attr}"
        for path, attr, _, _ in tracing.HOOKS
        if not callable(getattr(tracing._resolve(path), attr, None))
    ]
    assert missing == []


def test_worker_probe_targets_exist():
    assert callable(zps.cli.score_all)
    assert callable(zps.backends.SyntheticBackend.score_batch)


@pytest.mark.parametrize("jobs", [1, 4])
def test_traced_counts_match_the_work_done(tmp_path, jobs):
    # The per-layer counts come from wrapping names zps calls through: one
    # render per cell, one backend call per chunk, and one cache key per cell
    # to look it up and one more per scored cell to append it. score_all looks
    # a prompt's keys up in one ScoreCache.find, so get is never called. At
    # jobs > 1 a chunk is rendered on the pool thread that scores it, and the
    # counts are the same.
    tracing = load_tracing()
    task = make_task(3)
    prompts, examples = make_prompts(task, 4), make_examples(30)
    backend = SyntheticBackend(seed=0, prompt_quality={p.prompt_id: 0.8 for p in prompts},
                               planted_labels=plant_labels(task, examples),
                               max_batch_size=16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op(0)
        with ScoreCache(tmp_path / "cache.jsonl") as cache:
            score_all(task, prompts, examples, backend, cache, jobs=jobs)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracing.op_layer_stats(tracer.spans)[0], {})
    cells, chunks = 4 * 30, -(-4 * 30 // 16)
    assert metrics["catalog.render_calls"] == cells
    assert metrics["cache.key_calls"] == 2 * cells
    assert metrics["cache.get_calls"] == 0
    assert metrics["scoring.chunks"] == chunks
    assert metrics["backends.requests"] == chunks == backend.calls
    assert metrics["backends.cells"] == cells == backend.cells_scored


def test_traced_warm_run_renders_no_cell(tmp_path):
    # A warm run builds each cell's key from its prompt's and its example's key
    # parts: one key per cell, one batched lookup per prompt that finds every
    # cell, and no cell rendered. The tracer reads hit_ratio from get calls
    # alone, so the hits are read off the cache itself.
    tracing = load_tracing()
    task = make_task(3)
    prompts, examples = make_prompts(task, 4), make_examples(30)
    backend = SyntheticBackend(seed=0, prompt_quality={p.prompt_id: 0.8 for p in prompts},
                               planted_labels=plant_labels(task, examples),
                               max_batch_size=16)
    with ScoreCache(tmp_path / "cache") as cache:
        score_all(task, prompts, examples, backend, cache)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op(0)
        with ScoreCache(tmp_path / "cache") as cache:
            score_all(task, prompts, examples, backend, cache)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracing.op_layer_stats(tracer.spans)[0], {})
    cells = 4 * 30
    assert metrics["catalog.render_calls"] == 0
    assert metrics["cache.key_calls"] == cells
    assert metrics["cache.get_calls"] == 0
    assert (cache.hits, cache.misses) == (cells, 0)
    assert metrics["backends.requests"] == 0


def test_traced_selection_records_one_span_per_stage():
    # select must reach each stage through the zps.selection module globals,
    # or the per-layer selection metrics silently read zero.
    tracing = load_tracing()
    tensor = synthetic_tensor(p=6, n=40, c=3, seed=1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_op(0)
        for strategy in STRATEGIES:
            zps.selection.select(tensor, EnsembleConfig(strategy), score_all_prompts=True)
        zps.fewshot.build_pseudo_val(tensor, size=10)
    finally:
        tracer.uninstall()
    counts = Counter(span[3] for span in tracer.spans)
    stages = ("selection.select", "selection.confidence_scores", "selection.filter_prompts",
              "selection.ensemble_predict", "selection.pseudo_accuracy")
    assert {name: counts[name] for name in stages} == dict.fromkeys(stages, len(STRATEGIES))
    assert counts["fewshot.build_pseudo_val"] == 1
    metrics = tracing.layer_metrics(tracing.op_layer_stats(tracer.spans)[0], {})
    assert metrics["selection.select_calls"] == len(STRATEGIES)
    assert metrics["selection.ensemble_s"] > 0 and metrics["fewshot.pseudo_val_s"] > 0
