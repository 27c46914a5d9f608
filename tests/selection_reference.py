"""Selection's stacked formulas, as a reference.

These are the reductions ``zps.selection`` replaced with in-place row sums:
each ensemble copies the ensemble's rows with ``tensor.restrict`` in
ascending prompt_id order and reduces the stacked copy with ``np.mean`` or
``np.sum``, and agreement is a bool mean over a gathered copy of the
prediction rows. ``zps.selection`` and ``zps.fewshot`` must give exactly
these bytes.
"""

from __future__ import annotations

import numpy as np

from zps import EnsembleConfig, PseudoLabeledSet, ScoreTensor, SelectionReport, ValidationError
from zps.scoring import PredictionMatrix, prompt_rows, top2_gap
from zps.selection import _keep_all, filter_prompts


def _stacked(tensor: ScoreTensor, prompt_ids) -> np.ndarray:
    ids = tensor.prompt_ids if prompt_ids is None else prompt_ids
    if not ids:
        raise ValidationError("ensemble needs at least one prompt")
    return tensor.restrict(sorted(ids)).logprobs


def reference_ensemble_scores(tensor, config, prompt_ids=None) -> np.ndarray:
    logprobs = _stacked(tensor, prompt_ids)
    if config.strategy == "logprob_mean":
        return logprobs.mean(axis=0)
    if config.strategy == "prob_mean":
        return np.exp(logprobs).mean(axis=0)
    preds = np.argmax(logprobs, axis=2)
    votes = [(preds == j).sum(axis=0) for j in range(len(tensor.choices))]
    return np.stack(votes, axis=1).astype(np.float64)


def reference_ensemble_vote(tensor, config, prompt_ids=None):
    scores = reference_ensemble_scores(tensor, config, prompt_ids)
    if config.strategy != "majority_vote":
        return scores, np.argmax(scores, axis=1)
    sum_logp = _stacked(tensor, prompt_ids).sum(axis=0)
    at_top = scores == scores.max(axis=1, keepdims=True)
    broken = np.argmax(np.where(at_top, sum_logp, -np.inf), axis=1)
    # Summed log-probabilities break a tie for the top vote and decide nothing
    # else: an untied winner stands even where its sum overflows to -inf.
    return scores, np.where(at_top.sum(axis=1) > 1, broken, np.argmax(scores, axis=1))


def reference_pseudo_accuracy(
    preds: PredictionMatrix, targets: np.ndarray, prompt_ids=None
) -> dict[str, float]:
    ids = list(preds.prompt_ids if prompt_ids is None else prompt_ids)
    agreement = (preds.indices[prompt_rows(preds.prompt_ids, ids)] == targets).mean(axis=1)
    return {pid: float(a) for pid, a in zip(ids, agreement)}


def reference_select(tensor, config=None, *, no_filter=False, score_all_prompts=False):
    config = config or EnsembleConfig()
    report = (_keep_all if no_filter else filter_prompts)(tensor.prompt_ids, tensor.confidences)
    pseudo_idx = reference_ensemble_vote(tensor, config, report.kept)[1]
    scored = list(report.kept) + (list(report.discarded) if score_all_prompts else [])
    acc = reference_pseudo_accuracy(tensor.predictions, pseudo_idx, scored)
    selected = min(report.kept, key=lambda pid: (-acc[pid], -report.confidences[pid], pid))
    return SelectionReport(
        confidence=report,
        pseudo_labels=tuple(tensor.choices[j] for j in pseudo_idx.tolist()),
        pseudo_acc=acc,
        selected=selected,
        strategy=config.strategy,
        example_ids=tensor.example_ids,
    )


def reference_pseudo_val(tensor, config=None, size=None) -> PseudoLabeledSet:
    """Every example ranked by ensemble gap, then cut to ``size``."""
    config = config or EnsembleConfig()
    scores, pseudo_idx = reference_ensemble_vote(tensor, config)
    gaps = top2_gap(scores)
    order = np.argsort(-gaps, kind="stable")
    labels, gap_values = pseudo_idx.tolist(), gaps.tolist()
    entries = [(tensor.example_ids[k], tensor.choices[labels[k]], gap_values[k])
               for k in order.tolist()]
    if size is not None:
        entries = entries[:size]
    return PseudoLabeledSet(
        entries=tuple(entries),
        provenance=f"pseudo_val:strategy={config.strategy};size={len(entries)}",
    )
