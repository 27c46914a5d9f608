"""Score tensors and the batch scoring driver.

``score_all`` asks the backend for the log-likelihood of each verbalized
choice of every (prompt, example) pair its cache lacks, and assembles the dense
prompt x example x choice tensor everything downstream consumes. Results are
written position-addressed, so the tensor is bit-identical no matter how
requests are batched, parallelized, or served from cache.

Phrase scores are the sum of token log-likelihoods as returned by the
backend; ``length_norm`` divides each by the phrase's whitespace token count.
``normalize="softmax"`` renormalizes over the choice set so per-cell
probabilities sum to one -- the default, since confidence gaps are only
comparable across prompts on a normalized scale. ``normalize="none"`` keeps
raw likelihoods for raw-likelihood studies.
"""

from __future__ import annotations

import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

import numpy as np

from .backends import ScoreRequest, ScorerBackend
from .cache import ScoreCache, example_key_parts, make_cache_key, prompt_key_part, score_matrix
from .catalog import Prompt, TaskSpec, UnlabeledExample, candidate_phrases, render
from .errors import BackendError, ProtocolError, ScoringFailedError, ValidationError

logger = logging.getLogger(__name__)

NORMALIZE_MODES = ("softmax", "none")


def label_indices(labels: Sequence[str], choices: Sequence[str]) -> np.ndarray:
    """Choice index of each label; a label outside ``choices`` is a ValidationError."""
    lookup = {c: j for j, c in enumerate(choices)}
    try:
        return np.fromiter(map(lookup.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        raise ValidationError(f"label {exc} is not among the choices {list(choices)}") from None


def prompt_rows(prompt_ids: Sequence[str], wanted: Sequence[str]) -> list[int]:
    """Row of each wanted prompt id in ``prompt_ids``; an unknown id is a
    ValidationError."""
    lookup = {pid: i for i, pid in enumerate(prompt_ids)}
    try:
        return [lookup[pid] for pid in wanted]
    except KeyError as exc:
        raise ValidationError(f"unknown prompt_id {exc.args[0]!r}") from None


def _refuse_duplicate_ids(**axes: Sequence[str]) -> None:
    """Refuse an axis of ids that repeats one, naming the axis and its first
    repeat; axes are checked in the order given."""
    for name, ids in axes.items():
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            repeat = next(i for i in ids if i in seen or seen.add(i))
            raise ValidationError(f"duplicate {name} {repeat!r}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _set_axes(obj, field: str, arr: np.ndarray) -> None:
    """Freeze ``arr`` as ``obj.<field>`` and the three id axes as tuples; refuse a repeat."""
    object.__setattr__(obj, field, _read_only(arr))
    for axis in ("prompt_ids", "example_ids", "choices"):
        object.__setattr__(obj, axis, tuple(getattr(obj, axis)))
    _refuse_duplicate_ids(prompt_id=obj.prompt_ids, example_id=obj.example_ids, choice=obj.choices)


def top2_gap(values: np.ndarray) -> np.ndarray:
    """Largest minus second-largest entry along the last axis; 0 on a tie.

    One running max/second-max pass over the columns, which gives the same
    two values as sorting the axis without sorting it.
    """
    if values.shape[-1] < 2:
        raise ValidationError("a top-2 gap needs at least 2 choices")
    first, second = values[..., 0], values[..., 1]
    top, runner_up = np.maximum(first, second), np.minimum(first, second)
    for j in range(2, values.shape[-1]):
        column = values[..., j]
        np.maximum(runner_up, np.minimum(top, column), out=runner_up)
        np.maximum(top, column, out=top)
    return np.subtract(top, runner_up, out=top)


@dataclass(frozen=True)
class ScoreTensor:
    """Dense p x n x c array of finite natural-log scores.

    Axis order matches the catalog's prompt order, the dataset's example
    order, and the task's choice order. When ``normalized`` is True the
    per-cell scores are log-probabilities over the choice set (all <= 0).
    No axis repeats an id. Immutable after construction; safe to share
    across workers.

    Three read-only views are computed on first use and kept on the instance:
    ``probabilities`` (exp of ``logprobs``: one more array of the tensor's size,
    16 MB for 100 x 5,000 x 4, for as long as the tensor lives), ``predictions``
    (the argmax ``PredictionMatrix``) and ``confidences`` (each prompt's summed
    top-1 minus top-2 choice probability). All depend on ``logprobs`` alone,
    which never changes, so every caller may share them.
    """

    prompt_ids: tuple[str, ...]
    example_ids: tuple[str, ...]
    choices: tuple[str, ...]
    logprobs: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        arr = np.array(self.logprobs, dtype=np.float64, order="C")
        expected = (len(self.prompt_ids), len(self.example_ids), len(self.choices))
        if arr.shape != expected:
            raise ValidationError(f"tensor shape {arr.shape} != {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tensor contains NaN or infinite entries")
        if self.normalized and np.any(arr > 1e-9):
            raise ValidationError("normalized tensor has log-probabilities above 0")
        _set_axes(self, "logprobs", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.logprobs.shape  # type: ignore[return-value]

    @cached_property
    def probabilities(self) -> np.ndarray:
        """Per-cell choice probabilities, exp of the stored log scores (read-only)."""
        return _read_only(np.exp(self.logprobs))

    @cached_property
    def predictions(self) -> "PredictionMatrix":
        """Argmax choice per (prompt, example); ties go to the earliest choice."""
        return PredictionMatrix(self.prompt_ids, self.example_ids, self.choices,
                                np.argmax(self.logprobs, axis=2))

    @cached_property
    def confidences(self) -> np.ndarray:
        """Per-prompt summed top-1 minus top-2 choice probability (read-only)."""
        return _read_only(top2_gap(self.probabilities).sum(axis=1))

    def restrict(self, prompt_ids: Sequence[str]) -> "ScoreTensor":
        """Sub-tensor over the given prompts, in the given order."""
        rows = prompt_rows(self.prompt_ids, prompt_ids)
        return ScoreTensor(tuple(prompt_ids), self.example_ids, self.choices,
                           self.logprobs[rows], self.normalized)


@dataclass(frozen=True)
class PredictionMatrix:
    """Argmax choice indices, p x n, read-only, in ``np.min_scalar_type(len(choices))``."""

    prompt_ids: tuple[str, ...]
    example_ids: tuple[str, ...]
    choices: tuple[str, ...]
    indices: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.indices, dtype=np.int64)
        expected = (len(self.prompt_ids), len(self.example_ids))
        if arr.shape != expected:
            raise ValidationError(f"prediction shape {arr.shape} != {expected}")
        if arr.size and (arr.min() < 0 or arr.max() >= len(self.choices)):
            raise ValidationError("prediction index outside the choice set")
        _set_axes(self, "indices", arr.astype(np.min_scalar_type(len(self.choices)), order="C"))

    def labels_row(self, prompt_id: str) -> list[str]:
        row, = prompt_rows(self.prompt_ids, [prompt_id])
        return [self.choices[j] for j in self.indices[row]]

    def restrict(self, prompt_ids: Sequence[str]) -> "PredictionMatrix":
        rows = prompt_rows(self.prompt_ids, prompt_ids)
        return PredictionMatrix(tuple(prompt_ids), self.example_ids, self.choices,
                                self.indices[rows])


def predict(tensor: ScoreTensor) -> PredictionMatrix:
    """Argmax choice per (prompt, example); ties go to the earliest choice.
    Computed once per tensor: this returns the tensor's ``predictions``."""
    return tensor.predictions


def log_softmax(raw: np.ndarray, axis: int) -> np.ndarray:
    """Log-probabilities over ``axis``, shifted by the max for stability. ``raw``
    must be finite, which ``score_all``'s check and the cache guarantee."""
    shifted = raw - raw.max(axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis, keepdims=True))


def _chunk(seq: Sequence, size: int) -> list[Sequence]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def score_all(task: TaskSpec, prompts: Sequence[Prompt], examples: Sequence[UnlabeledExample],
              backend: ScorerBackend, cache: ScoreCache | None = None, *,
              normalize: str = "softmax", length_norm: bool = False, jobs: int = 1) -> ScoreTensor:
    """Fill the full p x n x c score tensor.

    Every cell is looked up before any is scored: one ``ScoreCache.find`` per
    prompt by its cells' keys (see ``zps.cache``; no cell is rendered to be
    found), then one ``gather`` of every hit, so two cells of one key are both
    misses if the cache lacks it. The misses, each named by its row ``i * n +
    k`` in (prompt, example) order, are cut into chunks of ``max_batch_size``,
    and a chunk is rendered when it is scored: inline with ``jobs == 1``, else
    on one of ``jobs`` threads, so at most ``jobs`` chunks of rendered inputs
    are alive. The calling thread takes the scores back in walk order and is
    the cache's one writer, one ``put_many`` per scored chunk, so the file is
    the same at any ``jobs``. It retries a chunk the backend fails, or answers
    with other than c finite scores per cell, cell by cell, rendering each
    cell again; cells that still fail are reported by (prompt_id, example_id).

    Refused before any cell is scored, in this order: a ``jobs`` or backend
    ``max_batch_size`` that is not an int >= 1 (a bool is not), repeated ids,
    per prompt a verbalizer missing a choice and an example missing a field
    the template renders, then a cached cell that does not hold c values.
    """
    if not prompts or not examples:
        raise ValidationError("score_all needs at least one prompt and one example")
    if normalize not in NORMALIZE_MODES:
        raise ValidationError(f"normalize must be one of {NORMALIZE_MODES}")
    size = backend.max_batch_size
    for name, value in (("jobs", jobs), ("backend max_batch_size", size)):
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
            raise ValidationError(f"{name} must be an int >= 1, not {value!r}")
    example_ids = [e.example_id for e in examples]
    _refuse_duplicate_ids(prompt_id=[p.prompt_id for p in prompts], example_id=example_ids)

    n, c = len(examples), len(task.choices)
    raw = np.empty((len(prompts), n, c), dtype=np.float64)
    flat = raw.reshape(-1, c)  # row i * n + k is cell (i, k)
    tokens = np.empty((len(prompts), c))  # each phrase's whitespace token count
    model_id, choices = backend.model_id, task.choices
    content_addressed = backend.content_addressed

    # Phrases, and every example's fields, before the walk, so that a cell that
    # cannot render is refused before any chunk is scored.
    needed = set().union(*(p.template.placeholders() for p in prompts))
    gaps = [e for e in examples if not needed <= e.fields.keys()]
    phrase_sets = []
    for i, prompt in enumerate(prompts):
        phrases = candidate_phrases(task, prompt)
        phrase_sets.append(phrases)
        tokens[i] = [max(1, len(phrase.split())) for phrase in phrases]
        for example in gaps:
            render(prompt, example)  # raises for the first cell this prompt cannot fill

    # An example's key part holds only the values its prompt's template reads,
    # so the parts are built once per tuple of placeholders. A miss's key is
    # built again to append it, so that no run holds every cell's key.
    found = np.full((len(prompts), n), -1, np.intp)  # each cell's number in the cache, or -1
    if cache is not None:
        by_names: dict[tuple[str, ...], list[bytes]] = {}
        prompt_parts, example_parts = [], []  # per prompt
        for i, prompt in enumerate(prompts):
            names = prompt.template.placeholders()
            if names not in by_names:
                by_names[names] = example_key_parts([e.fields for e in examples], names,
                                                    None if content_addressed else example_ids)
            part = prompt_key_part(model_id, length_norm, prompt.template.template_text,
                                   phrase_sets[i], None if content_addressed else prompt.prompt_id)
            prompt_parts.append(part)
            example_parts.append(by_names[names])
            found[i] = cache.find(list(map(make_cache_key, repeat(part, n), by_names[names])))
        hit = found >= 0
        raw[hit] = cache.gather(found[hit], c)  # refuses a cell of another width

    def score(rows: np.ndarray) -> np.ndarray | None:
        """Render and score the cells of these rows into raw: their values, or
        None if the backend fails them."""
        batch = [ScoreRequest(render(prompts[i], examples[k]), phrase_sets[i],
                              prompts[i].prompt_id, example_ids[k], choices)
                 for i, k in zip((rows // n).tolist(), (rows % n).tolist())]
        try:
            reply = backend.score_batch(batch)
            values = score_matrix(reply)
            if values is None or values.shape != (len(batch), c):
                raise ProtocolError(f"scores are not {len(batch)} rows of {c} finite numbers",
                                    payload_excerpt=repr(reply)[:200])
        except BackendError as exc:
            if len(batch) == 1:
                # str(exc): a kept record must not hold the traceback's frames alive.
                logger.error("cell (%s, %s) failed: %s",
                             batch[0].prompt_id, batch[0].example_id, str(exc))
            return None
        if length_norm:
            values /= tokens[rows // n]
        flat[rows] = values
        return values

    failed: list[tuple[str, str]] = []

    def finish(rows: np.ndarray, values: np.ndarray | None) -> None:
        """Append a scored chunk; retry a failed one cell by cell, appending each
        cell that scores and recording each that fails again."""
        parts = [(rows, values)]
        if values is None and len(rows) > 1:
            parts = ((cell, score(cell)) for cell in rows.reshape(-1, 1))
        for part, scored in parts:
            cells = zip((part // n).tolist(), (part % n).tolist())
            if scored is None:
                failed.extend((prompts[i].prompt_id, example_ids[k]) for i, k in cells)
            elif cache is not None:
                cache.put_many([make_cache_key(prompt_parts[i], example_parts[i][k])
                                for i, k in cells], scored)

    chunks = _chunk(np.flatnonzero(found.ravel() < 0), size)  # misses by row, in walk order
    if jobs == 1:
        for rows in chunks:
            finish(rows, score(rows))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pending: deque[tuple[np.ndarray, Future]] = deque()
            for rows in chunks:
                pending.append((rows, pool.submit(score, rows)))
                if len(pending) > jobs:
                    rows, future = pending.popleft()
                    finish(rows, future.result())
            for rows, future in pending:
                finish(rows, future.result())
    if failed:
        raise ScoringFailedError(failed)

    logprobs = log_softmax(raw, axis=2) if normalize == "softmax" else raw
    return ScoreTensor(tuple(p.prompt_id for p in prompts), tuple(example_ids), task.choices,
                       logprobs, normalize == "softmax")
