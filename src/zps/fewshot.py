"""Pseudo-labeled data in the few-shot regime.

Builds pseudo-validation sets (and, truncated to the top k, pseudo-training
sets) from a score tensor, and selects among externally trained checkpoints
by their agreement with a pseudo-validation set. No training happens here; checkpoint
predictions arrive as JSON Lines files produced by whatever trainer the user
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .catalog import canon_label, check_fields, read_jsonl, write_text
from .errors import ValidationError
from .scoring import (PredictionMatrix, ScoreTensor, _refuse_duplicate_ids, label_indices,
                      top2_gap)
from .selection import EnsembleConfig, ensemble_vote, pseudo_accuracy


@dataclass(frozen=True)
class PseudoLabeledSet:
    """Examples with ensemble pseudo-labels, ranked by confidence gap.

    Entries are (example_id, label, gap) with gap = top-1 minus top-2
    ensemble score for that example, so gap >= 0 always.
    """

    entries: tuple[tuple[str, str, float], ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            tuple((canon_label(e), canon_label(lab), float(g)) for e, lab, g in self.entries),
        )
        _refuse_duplicate_ids(example_id=self.example_ids)
        _refuse_bad_gaps(self.example_ids, np.array([g for _, _, g in self.entries]))

    @classmethod
    def _trusted(cls, entries: tuple, provenance: str) -> "PseudoLabeledSet":
        """A set of entries that are already canonical, unique and checked."""
        self = object.__new__(cls)
        self.__dict__.update(entries=entries, provenance=provenance)
        return self

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def example_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _, _ in self.entries)

    def labels(self) -> dict[str, str]:
        return {e: lab for e, lab, _ in self.entries}

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"example_id": e, "label": lab, "gap": g}, sort_keys=True)
            for e, lab, g in self.entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def save(self, path: str | Path) -> None:
        write_text(path, self.to_jsonl())


def _refuse_bad_gaps(example_ids: Sequence[str], gaps: np.ndarray) -> None:
    """Refuse the first gap that is not finite and >= 0, naming its example."""
    bad = np.flatnonzero(~(np.isfinite(gaps) & (gaps >= 0)))
    if bad.size:
        k = bad[0]
        raise ValidationError(
            f"confidence gap for {example_ids[k]!r} must be finite and >= 0, got {gaps[k]}")


def load_pseudo_labeled(path: str | Path, text: str | None = None) -> PseudoLabeledSet:
    """Read a non-empty pseudo-val JSON Lines file as ``PseudoLabeledSet.save`` writes it."""
    entries = []
    for where, row in read_jsonl(path, text):
        check_fields(row, where, {"example_id": "label", "label": "label", "gap": "number"})
        entries.append((row["example_id"], row["label"], row["gap"]))
    if not entries:
        raise ValidationError(f"{path}: no pseudo-labeled examples found")
    try:
        return PseudoLabeledSet(entries=tuple(entries), provenance=f"file:{Path(path).name}")
    except ValidationError as exc:  # a negative gap or a repeated example id
        raise ValidationError(f"{path}: {exc}") from None


def build_pseudo_val(
    tensor: ScoreTensor,
    config: EnsembleConfig | None = None,
    size: int | None = None,
) -> PseudoLabeledSet:
    """Pseudo-validation set: the ``size`` (default: all) examples with the
    largest ensemble gap, pseudo-labeled, in descending gap order.

    The sort is stable with ties kept in original example order, so any
    prefix of the ranking is reproducible and top-k sets nest. A gap that is
    not finite and >= 0 (an overflowing ``prob_mean``) is refused.
    """
    config = config or EnsembleConfig()
    n = len(tensor.example_ids)
    if size is not None and (isinstance(size, bool) or not isinstance(size, (int, np.integer))):
        raise ValidationError(f"size must be an int, not {size!r}")
    if size is not None and not 1 <= size <= n:
        raise ValidationError(f"size must be in [1, {n}], got {size}")
    scores, pseudo_idx = ensemble_vote(tensor, config)
    gaps = top2_gap(scores)
    order = np.argsort(-gaps, kind="stable")[:size]
    example_ids = list(map(tensor.example_ids.__getitem__, order.tolist()))
    gaps = gaps[order]
    _refuse_bad_gaps(example_ids, gaps)
    labels = [canon_label(choice) for choice in tensor.choices]
    entries = tuple(zip(example_ids, map(labels.__getitem__, pseudo_idx[order].tolist()),
                        gaps.tolist()))
    return PseudoLabeledSet._trusted(
        entries, f"pseudo_val:strategy={config.strategy};size={len(entries)}")


def top_confidence_pseudo_train(
    tensor: ScoreTensor,
    k: int,
    config: EnsembleConfig | None = None,
) -> PseudoLabeledSet:
    """The k examples with the largest ensemble confidence gap, pseudo-labeled:
    ``build_pseudo_val(size=k)``, for export to an external trainer as extra
    training data."""
    return build_pseudo_val(tensor, config, size=k)


@dataclass(frozen=True)
class CheckpointPredictions:
    """One trained checkpoint's predictions over a fixed validation list."""

    checkpoint_id: str
    preds: PredictionMatrix


def load_checkpoint_predictions(
    path: str | Path, choices: Sequence[str], text: str | None = None
) -> list[CheckpointPredictions]:
    """Read `{"checkpoint_id","prompt_id","example_id","pred"}` JSON Lines.

    Checkpoints appear in file order (assumed to be training order). Each
    checkpoint's prompts must cover one example list; that every checkpoint
    covers the same list is checked by ``checkpoint_agreements``.
    """
    choices = tuple(canon_label(c) for c in choices)
    # checkpoint -> prompt -> [(example_id, predicted label)]
    rows: dict[str, dict[str, list[tuple[str, str]]]] = {}
    keys = dict.fromkeys(("checkpoint_id", "prompt_id", "example_id", "pred"), "label")
    for where, row in read_jsonl(path, text):
        check_fields(row, where, keys)
        ckpt, prompt, example_id, pred = (canon_label(row[key]) for key in keys)
        rows.setdefault(ckpt, {}).setdefault(prompt, []).append((example_id, pred))

    if not rows:
        raise ValidationError(f"{path}: no checkpoint predictions found")

    candidates = []
    for ckpt, per_prompt in rows.items():
        example_lists = {tuple(e for e, _ in pairs) for pairs in per_prompt.values()}
        if len(example_lists) != 1:
            raise ValidationError(
                f"checkpoint {ckpt!r}: prompts cover different example lists"
            )
        example_ids = next(iter(example_lists))
        prompt_ids = tuple(per_prompt)
        preds = [pred for p in prompt_ids for _, pred in per_prompt[p]]
        try:
            indices = label_indices(preds, choices).reshape(len(prompt_ids), -1)
            matrix = PredictionMatrix(prompt_ids, example_ids, choices, indices)
        except ValidationError as exc:
            raise ValidationError(f"{path}: checkpoint {ckpt!r}: {exc}") from None
        candidates.append(CheckpointPredictions(checkpoint_id=ckpt, preds=matrix))
    return candidates


def checkpoint_agreement(
    candidate: CheckpointPredictions, pseudo_val: PseudoLabeledSet
) -> float:
    """Fraction of pseudo-val labels the checkpoint reproduces, averaged over
    its prompts."""
    preds = candidate.preds
    columns = {e: k for k, e in enumerate(preds.example_ids)}
    missing = [e for e in pseudo_val.example_ids if e not in columns]
    if missing:
        raise ValidationError(
            f"checkpoint {candidate.checkpoint_id!r} lacks predictions for "
            f"examples {missing[:5]}"
        )
    on_pseudo_val = PredictionMatrix(
        prompt_ids=preds.prompt_ids,
        example_ids=pseudo_val.example_ids,
        choices=preds.choices,
        indices=preds.indices[:, [columns[e] for e in pseudo_val.example_ids]],
    )
    labels = [lab for _, lab, _ in pseudo_val.entries]
    return float(np.mean(list(pseudo_accuracy(on_pseudo_val, labels).values())))


def checkpoint_agreements(
    candidates: Sequence[CheckpointPredictions], pseudo_val: PseudoLabeledSet
) -> dict[str, float]:
    """Each candidate's agreement with the pseudo-validation labels, in
    candidate order."""
    if not candidates:
        raise ValidationError("checkpoint selection needs at least one candidate")
    if len({c.checkpoint_id for c in candidates}) != len(candidates):
        raise ValidationError("checkpoint ids must be unique")
    reference = candidates[0].preds.example_ids
    for cand in candidates[1:]:
        if cand.preds.example_ids != reference:
            raise ValidationError(
                f"checkpoint {cand.checkpoint_id!r} covers a different example "
                "list than the first candidate"
            )
    return {c.checkpoint_id: checkpoint_agreement(c, pseudo_val) for c in candidates}


def select_checkpoint(
    candidates: Sequence[CheckpointPredictions], pseudo_val: PseudoLabeledSet
) -> str:
    """The checkpoint agreeing most with the pseudo-validation labels.

    Ties go to the earliest candidate in the provided order, taken to be
    training order.
    """
    return best_checkpoint(checkpoint_agreements(candidates, pseudo_val))


def best_checkpoint(agreements: Mapping[str, float]) -> str:
    """The checkpoint with the highest agreement; ties go to the earliest."""
    return max(agreements, key=agreements.__getitem__)
