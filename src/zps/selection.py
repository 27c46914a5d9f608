"""Prompt selection with unlabeled data only.

The pipeline: score each candidate prompt's confidence (summed gap between
its top two choice probabilities over all examples), drop the low-confidence
cluster found by an exact two-cluster 1-D k-means, pseudo-label every example
with an ensemble of the kept prompts, and select the prompt whose own
predictions agree most with the pseudo-labels.

Everything here is a pure function over immutable inputs. Ensemble
reductions run in ascending prompt_id order, so floating-point sums are
reproducible and the selected prompt never depends on how the candidate list
was permuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .catalog import json_text
from .errors import ValidationError
from .scoring import (PredictionMatrix, ScoreTensor, _refuse_duplicate_ids, label_indices,
                      predict, prompt_rows)

STRATEGIES = ("logprob_mean", "prob_mean", "majority_vote")


@dataclass(frozen=True)
class EnsembleConfig:
    """Which ensemble combines the kept prompts into pseudo-labels."""

    strategy: str = "logprob_mean"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValidationError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )


@dataclass(frozen=True)
class ConfidenceReport:
    """Per-prompt confidence scores and the kept/discarded split."""

    confidences: Mapping[str, float]
    kept: tuple[str, ...]
    discarded: tuple[str, ...]
    cluster_means: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "confidences", dict(self.confidences))
        if not self.kept:
            raise ValidationError("kept prompt set must not be empty")
        overlap = set(self.kept) & set(self.discarded)
        if overlap:
            raise ValidationError(f"prompts both kept and discarded: {sorted(overlap)}")
        if self.discarded:
            if min(self.confidences[p] for p in self.kept) < max(
                self.confidences[p] for p in self.discarded
            ):
                raise ValidationError("kept/discarded sets interleave in confidence")

    def to_json_dict(self) -> dict:
        return {
            "confidences": {p: float(c) for p, c in self.confidences.items()},
            "kept": list(self.kept),
            "discarded": list(self.discarded),
            "cluster_means": [float(m) for m in self.cluster_means],
        }


@dataclass(frozen=True)
class SelectionReport:
    """Full audit trail of one selection run."""

    confidence: ConfidenceReport
    pseudo_labels: tuple[str, ...]
    pseudo_acc: Mapping[str, float]
    selected: str
    strategy: str
    example_ids: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "pseudo_labels", tuple(self.pseudo_labels))
        object.__setattr__(self, "pseudo_acc", dict(self.pseudo_acc))
        object.__setattr__(self, "example_ids", tuple(self.example_ids))
        if self.selected not in self.confidence.kept:
            raise ValidationError(
                f"selected prompt {self.selected!r} is not in the kept set"
            )
        for pid, acc in self.pseudo_acc.items():
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"pseudo accuracy for {pid!r} out of [0,1]: {acc}")

    def to_json_dict(self) -> dict:
        return {
            "selected": self.selected,
            "strategy": self.strategy,
            "confidence": self.confidence.to_json_dict(),
            "pseudo_acc": {p: float(a) for p, a in self.pseudo_acc.items()},
            "pseudo_labels": list(self.pseudo_labels),
            "example_ids": list(self.example_ids),
        }

    def to_json(self) -> str:
        """Deterministic byte representation (keys sorted)."""
        return json_text(self.to_json_dict())


def confidence_scores(tensor: ScoreTensor) -> np.ndarray:
    """Per-prompt decisiveness: summed top-1 minus top-2 choice probability.

    Under softmax normalization each per-example gap is in [0, 1], so a
    prompt's score lies in [0, n]. The vector is the tensor's read-only
    ``confidences``, computed once per tensor.
    """
    return tensor.confidences


def _keep_all(prompt_ids: Sequence[str], values: np.ndarray) -> ConfidenceReport:
    """The unfiltered split: every prompt kept, both cluster means the overall mean."""
    mean = float(values.mean())
    return ConfidenceReport(
        confidences={pid: float(c) for pid, c in zip(prompt_ids, values)},
        kept=tuple(sorted(prompt_ids)),
        discarded=(),
        cluster_means=(mean, mean),
    )


def filter_prompts(
    prompt_ids: Sequence[str], confidences: Sequence[float]
) -> ConfidenceReport:
    """Exact two-cluster 1-D k-means over confidence scores; keep the upper cluster.

    Scans every split point of the sorted scores and takes the one minimizing
    the within-cluster sum of squared deviations -- optimal and deterministic,
    with no initialization sensitivity. With two or fewer prompts, or all
    scores equal, nothing is filtered.
    """
    if len(prompt_ids) != len(confidences):
        raise ValidationError("prompt_ids and confidences differ in length")
    if not prompt_ids:
        raise ValidationError("filter_prompts needs at least one prompt")
    values = np.asarray(confidences, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValidationError("confidence scores must be finite")
    p = len(prompt_ids)
    if p <= 2 or np.all(values == values[0]):
        return _keep_all(prompt_ids, values)

    # Sort by (confidence, prompt_id) so equal scores split deterministically
    # regardless of input order.
    order = sorted(range(p), key=lambda i: (values[i], prompt_ids[i]))
    sorted_values = values[order]
    prefix = np.concatenate(([0.0], np.cumsum(sorted_values)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(sorted_values**2)))

    # Within-cluster SSE of sorted[:split] plus sorted[split:] for every split,
    # each as sum of squares minus total * total / count; argmin takes the
    # first minimum.
    splits = np.arange(1, p)
    low_total, high_total = prefix[splits], prefix[p] - prefix[splits]
    sse = (prefix_sq[splits] - low_total * low_total / splits) + (
        (prefix_sq[p] - prefix_sq[splits]) - high_total * high_total / (p - splits)
    )
    best_split = int(np.argmin(sse)) + 1

    low = [prompt_ids[i] for i in order[:best_split]]
    high = [prompt_ids[i] for i in order[best_split:]]
    return ConfidenceReport(
        confidences={pid: float(c) for pid, c in zip(prompt_ids, values)},
        kept=tuple(sorted(high)),
        discarded=tuple(sorted(low)),
        cluster_means=(
            float(sorted_values[:best_split].mean()),
            float(sorted_values[best_split:].mean()),
        ),
    )


def _row_sum(rows: Iterator[np.ndarray]) -> np.ndarray:
    """``np.sum(axis=0)`` over the rows' stack, in its order and rounding, with no
    stack (numpy reduces the first row too, which sets the sign of its zeros)."""
    total = np.add.reduce(next(rows)[np.newaxis], axis=0)
    for row in rows:
        total += row
    return total


def _counts(hits: np.ndarray, axis: int) -> np.ndarray:
    """True entries along ``axis``, summed in the narrowest dtype that holds them."""
    return hits.view(np.uint8).sum(axis=axis, dtype=np.min_scalar_type(hits.shape[axis]))


def ensemble_vote(tensor: ScoreTensor, config: EnsembleConfig,
                  prompt_ids: Sequence[str] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The n x c ensemble score matrix s(x_k, y) of the given prompts (default:
    all) for the configured strategy, read from the tensor's rows in place, and
    the pseudo-label index per example it gives.

    Rows reduce in ascending prompt_id order, and a repeated prompt id is
    refused. Score ties resolve to the earliest choice in task order;
    majority-vote ties are first broken by summed per-prompt log-probability.
    """
    ids = sorted(tensor.prompt_ids if prompt_ids is None else prompt_ids)
    if not ids:
        raise ValidationError("ensemble needs at least one prompt")
    rows = prompt_rows(tensor.prompt_ids, ids)
    _refuse_duplicate_ids(prompt_id=ids)
    if config.strategy != "majority_vote":
        cells = tensor.probabilities if config.strategy == "prob_mean" else tensor.logprobs
        scores = _row_sum(cells[r] for r in rows) / len(rows)
        return scores, np.argmax(scores, axis=1)
    # Each prompt's argmax prediction is one vote for its choice.
    kept = predict(tensor).indices[rows]
    scores = np.stack([_counts(kept == j, 0) for j in range(len(tensor.choices))],
                      axis=1).astype(np.float64)
    pseudo_idx = np.argmax(scores, axis=1)
    top = scores.max(axis=1, keepdims=True)
    tied = np.flatnonzero(np.count_nonzero(scores == top, axis=1) > 1)
    sum_logp = _row_sum(tensor.logprobs[r, tied] for r in rows)
    pseudo_idx[tied] = np.argmax(np.where(scores[tied] == top[tied], sum_logp, -np.inf), axis=1)
    return scores, pseudo_idx


def ensemble_predict(tensor: ScoreTensor, config: EnsembleConfig,
                     prompt_ids: Sequence[str] | None = None) -> np.ndarray:
    """The pseudo-label index per example that ``ensemble_vote`` gives."""
    return ensemble_vote(tensor, config, prompt_ids)[1]


def pseudo_accuracy(
    preds: PredictionMatrix,
    pseudo_labels: Sequence[str] | np.ndarray,
    prompt_ids: Sequence[str] | None = None,
) -> dict[str, float]:
    """Per-prompt agreement with a label row: the share of examples where the
    prompt predicts the row's label.

    The row holds pseudo-labels when selecting prompts or checkpoints and
    gold labels when evaluating. It may be label ids or choice indices and
    must cover the prediction matrix's examples in the same order.
    """
    if isinstance(pseudo_labels, np.ndarray) and np.issubdtype(pseudo_labels.dtype, np.integer):
        targets = pseudo_labels
    else:
        targets = label_indices(pseudo_labels, preds.choices)
    if targets.shape != (len(preds.example_ids),):
        raise ValidationError(
            f"pseudo-label length {targets.shape} does not match "
            f"{len(preds.example_ids)} examples"
        )
    if not targets.size:
        raise ValidationError("agreement needs at least one labeled example")
    # Exact counts in the predictions' narrow dtype, so the shares equal a bool
    # mean; a target outside [0, c) becomes c there, which no prediction equals.
    indices, c = preds.indices, len(preds.choices)
    targets = np.where((targets >= 0) & (targets < c), targets, c).astype(indices.dtype)
    agreement = _counts(indices == targets, 1) / targets.size
    ids = preds.prompt_ids if prompt_ids is None else prompt_ids
    return dict(zip(ids, agreement[prompt_rows(preds.prompt_ids, ids)].tolist()))


def select(
    tensor: ScoreTensor,
    config: EnsembleConfig | None = None,
    *,
    no_filter: bool = False,
    score_all_prompts: bool = False,
) -> SelectionReport:
    """Run the full pipeline and return the audit report.

    Only kept prompts are eligible for selection; ``score_all_prompts``
    additionally reports pseudo accuracies of discarded prompts without
    making them eligible. Ties on pseudo accuracy are broken by higher
    confidence, then lexicographically smallest prompt_id, which makes the
    outcome invariant to permutations of the candidate list.
    """
    config = config or EnsembleConfig()
    conf = confidence_scores(tensor)
    report = (_keep_all if no_filter else filter_prompts)(tensor.prompt_ids, conf)

    pseudo_idx = ensemble_predict(tensor, config, prompt_ids=report.kept)
    scored = list(report.kept) + (list(report.discarded) if score_all_prompts else [])
    acc = pseudo_accuracy(predict(tensor), pseudo_idx, prompt_ids=scored)

    selected = min(report.kept, key=lambda pid: (-acc[pid], -report.confidences[pid], pid))
    return SelectionReport(
        confidence=report,
        pseudo_labels=tuple(np.array(tensor.choices, dtype=object)[pseudo_idx].tolist()),
        pseudo_acc=acc,
        selected=selected,
        strategy=config.strategy,
        example_ids=tensor.example_ids,
    )
