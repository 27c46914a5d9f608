"""Gold-label evaluation and synthetic-population simulations.

`evaluate` scores a finished selection run against gold labels. The
simulations rebuild, at desk scale, the structure of the ablations the
selection pipeline is meant to survive: populations where a fraction of the
candidate prompts is adversarially bad, and head-to-head comparisons of the
three ensemble strategies. Adversarial prompts are modeled as low-quality
synthetic scorer profiles; the contrast (good vs bad candidates at ratio r)
is what matters, not the mechanism of badness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .backends import SyntheticBackend
from .catalog import (Prompt, PromptTemplate, TaskSpec, UnlabeledExample, Verbalizer,
                      check_fields, read_json)
from .errors import ValidationError
from .scoring import PredictionMatrix, ScoreTensor, label_indices, predict, score_all
from .selection import STRATEGIES, EnsembleConfig, SelectionReport, pseudo_accuracy, select

# Cap on len(base_qualities) x n_examples x choices: 1,000x the default spec.
MAX_POPULATION_VALUES = 10_000_000


@dataclass(frozen=True)
class EvalReport:
    """True-accuracy view of one selection run."""

    per_prompt_accuracy: Mapping[str, float]
    pseudo_acc: Mapping[str, float]
    mean_candidate_accuracy: float
    median_candidate_accuracy: float
    selected: str
    selected_accuracy: float
    pseudo_label_accuracy: float
    spearman_pseudo_vs_true: float | None

    def __post_init__(self):
        object.__setattr__(self, "per_prompt_accuracy", dict(self.per_prompt_accuracy))
        object.__setattr__(self, "pseudo_acc", dict(self.pseudo_acc))
        for name, acc in [
            *self.per_prompt_accuracy.items(),
            ("pseudo labels", self.pseudo_label_accuracy),
        ]:
            if not 0.0 <= acc <= 1.0:
                raise ValidationError(f"accuracy for {name!r} out of [0,1]: {acc}")
        if self.selected not in self.per_prompt_accuracy:
            raise ValidationError(f"selected prompt {self.selected!r} has no accuracy")
        if self.selected_accuracy != self.per_prompt_accuracy[self.selected]:
            raise ValidationError("selected_accuracy disagrees with per-prompt table")

    def ranking(self) -> list[tuple[str, float, float]]:
        """(prompt_id, pseudo accuracy, true accuracy), best pseudo accuracy
        first; covers the prompts that have a pseudo accuracy."""
        return sorted(
            (
                (pid, self.pseudo_acc[pid], self.per_prompt_accuracy[pid])
                for pid in self.pseudo_acc
            ),
            key=lambda row: (-row[1], row[0]),
        )

    def to_json_dict(self) -> dict:
        return {
            "selected": self.selected,
            "selected_accuracy": self.selected_accuracy,
            "mean_candidate_accuracy": self.mean_candidate_accuracy,
            "median_candidate_accuracy": self.median_candidate_accuracy,
            "pseudo_label_accuracy": self.pseudo_label_accuracy,
            "spearman_pseudo_vs_true": self.spearman_pseudo_vs_true,
            "per_prompt_accuracy": {
                p: float(a) for p, a in self.per_prompt_accuracy.items()
            },
            "ranking": [
                {"prompt_id": pid, "pseudo_accuracy": pa, "true_accuracy": ta}
                for pid, pa, ta in self.ranking()
            ],
        }


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    v = np.asarray(values, dtype=np.float64)
    below = (v[None, :] < v[:, None]).sum(axis=1)
    tied = (v[None, :] == v[:, None]).sum(axis=1)
    return below + (tied + 1) / 2


def _spearman(pseudo: Sequence[float], true: Sequence[float]) -> float | None:
    """Pearson correlation of the average ranks; None for constant input."""
    if len(pseudo) < 2:
        return None
    ranks = np.column_stack([_average_ranks(pseudo), _average_ranks(true)])
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.corrcoef(ranks, rowvar=False)[1, 0]
    return None if np.isnan(rho) else float(rho)


def evaluate(
    selection: SelectionReport,
    preds: PredictionMatrix,
    gold_labels: Mapping[str, str],
) -> EvalReport:
    """Score a selection run against gold labels covering all its examples."""
    if (tuple(selection.example_ids) != tuple(preds.example_ids)
            or len(selection.pseudo_labels) != len(preds.example_ids)):
        raise ValidationError("selection and predictions cover different examples")
    if selection.selected not in preds.prompt_ids:
        raise ValidationError(f"selected prompt {selection.selected!r} has no predictions")
    try:
        gold = [gold_labels[e] for e in preds.example_ids]
    except KeyError:
        missing = [e for e in preds.example_ids if e not in gold_labels]
        raise ValidationError(f"gold labels missing for examples: {missing[:5]}") from None
    per_prompt = pseudo_accuracy(preds, label_indices(gold, preds.choices))
    # Gold labels are choices, so only a pseudo-label unlike its gold one can be outside.
    misses = [p for p, g in zip(selection.pseudo_labels, gold) if p != g]
    label_indices(misses, preds.choices)
    # The middle one or two accuracies; np.median would import numpy.ma (~13 ms).
    accuracies = sorted(per_prompt.values())
    middle = accuracies[(len(accuracies) - 1) // 2 : len(accuracies) // 2 + 1]
    common = sorted(set(selection.pseudo_acc) & set(per_prompt))
    return EvalReport(
        per_prompt_accuracy=per_prompt,
        pseudo_acc=dict(selection.pseudo_acc),
        mean_candidate_accuracy=float(np.mean(list(per_prompt.values()))),
        median_candidate_accuracy=sum(middle) / len(middle),
        selected=selection.selected,
        selected_accuracy=per_prompt[selection.selected],
        pseudo_label_accuracy=(len(gold) - len(misses)) / len(gold),
        spearman_pseudo_vs_true=_spearman(
            [selection.pseudo_acc[p] for p in common],
            [per_prompt[p] for p in common],
        ),
    )


def _whole(name: str, value) -> int:
    if int(value) != value:
        raise ValidationError(f"{name} must be whole numbers, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RobustnessSpec:
    """Synthetic population for the adversarial-prompt simulations."""

    base_qualities: tuple[float, ...]
    adversarial_quality: tuple[float, float]
    ratios: tuple[float, ...]
    seeds: tuple[int, ...]
    n_examples: int
    strategy: str = "logprob_mean"
    choices: int = 2

    def __post_init__(self):
        object.__setattr__(self, "base_qualities", tuple(float(q) for q in self.base_qualities))
        object.__setattr__(self, "adversarial_quality", tuple(float(q) for q in self.adversarial_quality))
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        object.__setattr__(self, "seeds", tuple(_whole("seeds", s) for s in self.seeds))
        object.__setattr__(self, "n_examples", _whole("n_examples", self.n_examples))
        object.__setattr__(self, "choices", _whole("choices", self.choices))
        if not self.base_qualities:
            raise ValidationError("base_qualities must not be empty")
        if any(not 0.0 <= q <= 1.0 for q in self.base_qualities):
            raise ValidationError("base qualities must lie in [0,1]")
        lo, hi = self.adversarial_quality
        if not (0.0 <= lo <= hi <= 1.0):
            raise ValidationError(f"adversarial_quality range invalid: ({lo}, {hi})")
        # Ratio 0 is allowed as the degenerate no-adversary population.
        if not self.ratios or any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ValidationError("ratios must be a non-empty list of fractions in [0,1]")
        if not self.seeds or min(self.seeds) < 0:
            raise ValidationError("seeds must be a non-empty list of whole numbers >= 0")
        if self.n_examples < 1:
            raise ValidationError("n_examples must be >= 1")
        EnsembleConfig(self.strategy)  # refuses an unknown strategy
        if self.choices < 2:
            raise ValidationError("choices must be >= 2")
        if len(self.base_qualities) * self.n_examples * self.choices > MAX_POPULATION_VALUES:
            raise ValidationError("len(base_qualities) x n_examples x choices must be at most "
                                  f"{MAX_POPULATION_VALUES}")

    def to_json_dict(self) -> dict:
        return {
            "base_qualities": list(self.base_qualities),
            "adversarial_quality": list(self.adversarial_quality),
            "ratios": list(self.ratios),
            "seeds": list(self.seeds),
            "n_examples": self.n_examples,
            "strategy": self.strategy,
            "choices": self.choices,
        }


def default_robustness_spec() -> RobustnessSpec:
    return RobustnessSpec(
        base_qualities=(0.72, 0.73, 0.74, 0.74, 0.75, 0.75, 0.76, 0.76, 0.77, 0.78),
        adversarial_quality=(0.45, 0.55),
        ratios=(0.1, 0.2, 0.5, 0.8),
        seeds=(0, 1, 2, 3, 4),
        n_examples=500,
        strategy="logprob_mean",
        choices=2,
    )


_SPEC_KEYS = {"base_qualities": "list of number", "adversarial_quality": "list of number",
              "ratios": "list of number", "seeds": "list of number", "n_examples": "number"}
_SPEC_OPTIONAL = {"strategy": "string", "choices": "number"}


def load_robustness_spec(path: str | Path, text: str | None = None) -> RobustnessSpec:
    doc = check_fields(read_json(path, text), str(path), {})
    unknown = doc.keys() - _SPEC_KEYS.keys() - _SPEC_OPTIONAL.keys()
    if unknown:
        raise ValidationError(f"{path}: unknown spec fields {sorted(unknown)}")
    check_fields(doc, str(path), _SPEC_KEYS, _SPEC_OPTIONAL)
    try:
        return RobustnessSpec(**{key: value for key, value in doc.items() if value is not None})
    except (ValueError, ValidationError) as exc:  # ValueError: adversarial_quality not a pair
        raise ValidationError(f"{path}: malformed spec: {exc}") from None


@dataclass(frozen=True)
class SimulationCell:
    """One (ratio, seed, strategy) run with its full audit trail."""

    ratio: float
    seed: int
    strategy: str
    report: SelectionReport
    per_prompt_accuracy: Mapping[str, float]
    pseudo_label_accuracy: float
    zps_accuracy: float
    mean_candidate_accuracy: float

    def __post_init__(self):
        object.__setattr__(self, "per_prompt_accuracy", dict(self.per_prompt_accuracy))


@dataclass(frozen=True)
class RobustnessRow:
    ratio: float
    zps_mean: float
    zps_std: float
    candidate_mean: float
    candidate_std: float
    n_seeds: int

    def to_json_dict(self) -> dict:
        return {
            "ratio": self.ratio,
            "zps_accuracy_mean": self.zps_mean,
            "zps_accuracy_std": self.zps_std,
            "candidate_accuracy_mean": self.candidate_mean,
            "candidate_accuracy_std": self.candidate_std,
            "n_seeds": self.n_seeds,
        }


@dataclass(frozen=True)
class StrategyRow:
    strategy: str
    pseudo_label_mean: float
    pseudo_label_std: float
    selected_mean: float
    selected_std: float
    n_cells: int

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "pseudo_label_accuracy_mean": self.pseudo_label_mean,
            "pseudo_label_accuracy_std": self.pseudo_label_std,
            "selected_accuracy_mean": self.selected_mean,
            "selected_accuracy_std": self.selected_std,
            "n_cells": self.n_cells,
        }


@dataclass(frozen=True)
class SimulationResult:
    spec: RobustnessSpec
    rows: tuple[RobustnessRow, ...] = ()
    strategy_rows: tuple[StrategyRow, ...] = ()
    cells: tuple[SimulationCell, ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict:
        doc: dict = {"spec": self.spec.to_json_dict()}
        if self.rows:
            doc["rows"] = [r.to_json_dict() for r in self.rows]
        if self.strategy_rows:
            doc["strategies"] = [r.to_json_dict() for r in self.strategy_rows]
        return doc


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
    return mean, std


def _population(
    spec: RobustnessSpec, ratio: float, seed: int
) -> tuple[TaskSpec, list[Prompt], list[UnlabeledExample], SyntheticBackend, dict[str, str]]:
    """Build the synthetic task for one (ratio, seed) cell.

    All randomness flows from a generator seeded by (seed, ratio), so a cell
    is reproducible bit-for-bit regardless of which cells ran before it.
    """
    ratio_key = int(round(ratio * 1000))
    rng = np.random.default_rng([seed, ratio_key])
    p = len(spec.base_qualities)
    n_adv = int(round(ratio * p))
    adv_positions = sorted(rng.choice(p, size=n_adv, replace=False).tolist()) if n_adv else []
    lo, hi = spec.adversarial_quality
    qualities = list(spec.base_qualities)
    for pos in adv_positions:
        qualities[pos] = float(rng.uniform(lo, hi))

    choice_labels = tuple(str(j) for j in range(spec.choices))
    task = TaskSpec(task_id="sim", field_schema=("text",), choices=choice_labels)
    verbalizer = Verbalizer({lab: f"choice {lab}" for lab in choice_labels})
    template = PromptTemplate("{{text}}")
    prompt_ids = [f"p{i:02d}" for i in range(p)]
    prompts = [Prompt(pid, template, verbalizer) for pid in prompt_ids]

    example_ids = [f"e{k:04d}" for k in range(spec.n_examples)]
    examples = [UnlabeledExample(eid, {"text": f"x{k}"}) for k, eid in enumerate(example_ids)]
    planted_idx = rng.integers(0, spec.choices, size=spec.n_examples)
    planted = {eid: choice_labels[int(j)] for eid, j in zip(example_ids, planted_idx)}

    backend = SyntheticBackend(
        seed=f"sim:{seed}:{ratio_key}",
        prompt_quality={pid: q for pid, q in zip(prompt_ids, qualities)},
        planted_labels=planted,
    )
    return task, prompts, examples, backend, planted


def _cell_from_tensor(
    tensor: ScoreTensor,
    planted: Mapping[str, str],
    ratio: float,
    seed: int,
    strategy: str,
) -> SimulationCell:
    report = select(tensor, EnsembleConfig(strategy=strategy))
    truth = evaluate(report, predict(tensor), planted)
    return SimulationCell(
        ratio=ratio,
        seed=seed,
        strategy=strategy,
        report=report,
        per_prompt_accuracy=truth.per_prompt_accuracy,
        pseudo_label_accuracy=truth.pseudo_label_accuracy,
        zps_accuracy=truth.selected_accuracy,
        mean_candidate_accuracy=truth.mean_candidate_accuracy,
    )


def _run_populations(
    spec: RobustnessSpec, strategies: Sequence[str]
) -> list[SimulationCell]:
    """Score each (ratio, seed) population once and run every strategy on
    it; cells in ratios x seeds order, strategies innermost."""
    cells = []
    for ratio, seed in product(spec.ratios, spec.seeds):
        task, prompts, examples, backend, planted = _population(spec, ratio, seed)
        tensor = score_all(task, prompts, examples, backend)
        for strategy in strategies:
            cells.append(_cell_from_tensor(tensor, planted, ratio, seed, strategy))
    return cells


def simulate_robustness(
    spec: RobustnessSpec, cells: Sequence[SimulationCell] | None = None
) -> SimulationResult:
    """For each ratio, corrupt that fraction of the prompt population and
    measure the selected prompt's true accuracy against the candidate mean,
    aggregated as mean +/- sample stddev over seeds.

    ``cells`` reuses populations already run, such as
    ``compare_strategies(spec).cells``: its ``spec.strategy`` cells must
    cover ``spec.ratios`` x ``spec.seeds`` in order. Without it every
    population is scored here.
    """
    if cells is None:
        cells = _run_populations(spec, (spec.strategy,))
    else:
        cells = [c for c in cells if c.strategy == spec.strategy]
        if [(c.ratio, c.seed) for c in cells] != list(product(spec.ratios, spec.seeds)):
            raise ValidationError(
                f"{spec.strategy} cells do not cover the spec's ratios x seeds in order"
            )
    n = len(spec.seeds)
    rows = []
    for i, ratio in enumerate(spec.ratios):
        ratio_cells = cells[i * n:(i + 1) * n]
        zps_mean, zps_std = _mean_std([c.zps_accuracy for c in ratio_cells])
        cand_mean, cand_std = _mean_std([c.mean_candidate_accuracy for c in ratio_cells])
        rows.append(
            RobustnessRow(
                ratio=ratio,
                zps_mean=zps_mean,
                zps_std=zps_std,
                candidate_mean=cand_mean,
                candidate_std=cand_std,
                n_seeds=n,
            )
        )
    return SimulationResult(spec=spec, rows=tuple(rows), cells=tuple(cells))


def compare_strategies(spec: RobustnessSpec) -> SimulationResult:
    """Run every (ratio, seed) population once and pseudo-label it under all
    three ensemble strategies; one aggregate row per strategy."""
    cells = _run_populations(spec, STRATEGIES)
    rows = []
    for strategy in STRATEGIES:
        group = [c for c in cells if c.strategy == strategy]
        pl_mean, pl_std = _mean_std([c.pseudo_label_accuracy for c in group])
        sel_mean, sel_std = _mean_std([c.zps_accuracy for c in group])
        rows.append(
            StrategyRow(
                strategy=strategy,
                pseudo_label_mean=pl_mean,
                pseudo_label_std=pl_std,
                selected_mean=sel_mean,
                selected_std=sel_std,
                n_cells=len(group),
            )
        )
    return SimulationResult(spec=spec, strategy_rows=tuple(rows), cells=tuple(cells))


def format_robustness_table(result: SimulationResult) -> str:
    header = f"{'ratio':>6} {'zps acc':>16} {'candidate mean':>16}"
    lines = [header, "-" * len(header)]
    for row in result.rows:
        lines.append(
            f"{row.ratio:>6.2f} {row.zps_mean:>8.4f}±{row.zps_std:<7.4f} "
            f"{row.candidate_mean:>8.4f}±{row.candidate_std:<7.4f}".rstrip()
        )
    return "\n".join(lines)


def format_strategy_table(result: SimulationResult) -> str:
    header = f"{'strategy':<14} {'pseudo-label acc':>18} {'selected acc':>18}"
    lines = [header, "-" * len(header)]
    for row in result.strategy_rows:
        lines.append(
            f"{row.strategy:<14} {row.pseudo_label_mean:>9.4f}±{row.pseudo_label_std:<8.4f} "
            f"{row.selected_mean:>9.4f}±{row.selected_std:<8.4f}".rstrip()
        )
    return "\n".join(lines)
