"""Score tensors and the batch scoring driver.

``score_all`` renders every (prompt, example) pair, asks the backend for the
log-likelihood of each verbalized choice, and assembles the dense
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
from itertools import count, repeat
from typing import Sequence

import numpy as np

from .backends import ScoreRequest, ScorerBackend
from .cache import ScoreCache, ids_digest, make_block_key, make_cache_key, score_matrix
from .catalog import Prompt, TaskSpec, UnlabeledExample, candidate_phrases, render
from .errors import (BackendError, CacheCorruptionError, ProtocolError, ScoringFailedError,
                     ValidationError)

logger = logging.getLogger(__name__)

NORMALIZE_MODES = ("softmax", "none")

# Cells per block record: the walk takes each prompt's examples in windows of
# this many, and with a cache a warm run finds a window's cell keys with one
# hash. A window's rendered inputs are alive together.
BLOCK_CELLS = 512


def label_indices(labels: Sequence[str], choices: Sequence[str]) -> np.ndarray:
    """Choice index of each label; a label outside ``choices`` is a ValidationError."""
    lookup = {c: j for j, c in enumerate(choices)}
    try:
        return np.fromiter(map(lookup.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        raise ValidationError(
            f"label {exc} is not among the choices {list(choices)}"
        ) from None


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
        return PredictionMatrix(
            prompt_ids=self.prompt_ids,
            example_ids=self.example_ids,
            choices=self.choices,
            indices=np.argmax(self.logprobs, axis=2),
        )

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
        return PredictionMatrix(
            prompt_ids=tuple(prompt_ids),
            example_ids=self.example_ids,
            choices=self.choices,
            indices=self.indices[rows],
        )


def predict(tensor: ScoreTensor) -> PredictionMatrix:
    """Argmax choice per (prompt, example); ties go to the earliest choice.

    Computed once per tensor: this returns the tensor's ``predictions``.
    """
    return tensor.predictions


def log_softmax(raw: np.ndarray, axis: int) -> np.ndarray:
    """Log-probabilities over ``axis``, shifted by the max for stability.

    ``raw`` must be finite, which ``score_all``'s check and the cache guarantee.
    """
    shifted = raw - raw.max(axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis, keepdims=True))


def _chunk(seq: Sequence, size: int) -> list[Sequence]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]


def score_all(
    task: TaskSpec,
    prompts: Sequence[Prompt],
    examples: Sequence[UnlabeledExample],
    backend: ScorerBackend,
    cache: ScoreCache | None = None,
    *,
    normalize: str = "softmax",
    length_norm: bool = False,
    jobs: int = 1,
) -> ScoreTensor:
    """Fill the full p x n x c score tensor.

    One walk in (prompt, example) order takes each prompt's examples in
    windows of ``BLOCK_CELLS`` and renders each cell once. With a cache, one
    block key per window finds the block record listing the window's cell
    keys; a window whose block is missing, or lists other than one key per
    cell, has each cell hashed into its key instead. Every key is then looked
    up, so a listed key the cache lacks is one miss, and a window gets its
    block once every cell is cached. Hits need no backend call; misses gather
    into chunks of ``max_batch_size``, each sent to the backend as soon as it
    is full: inline with ``jobs == 1``, else on ``jobs`` threads, so at most
    ``jobs + 1`` chunks, and one window, of rendered inputs are alive. The
    calling thread takes them back in walk order and is the cache's one
    writer, one ``put_many`` per scored chunk, each followed by the blocks of
    the windows closed before it, so the file is the same at any ``jobs``. It
    retries a chunk the backend fails, or answers with other than c finite
    scores per cell, cell by cell; cells that still fail are reported by
    (prompt_id, example_id), and their windows get no block.

    Refused before any cell is scored, in this order: a ``jobs`` or backend
    ``max_batch_size`` that is not an int >= 1 (a bool is not), repeated ids,
    then per prompt a verbalizer missing a choice and an example missing a
    field the template renders. A cached row whose width is not c is refused when the walk
    reaches it, after the chunks scored before it are appended.
    """
    if not prompts or not examples:
        raise ValidationError("score_all needs at least one prompt and one example")
    if normalize not in NORMALIZE_MODES:
        raise ValidationError(f"normalize must be one of {NORMALIZE_MODES}")
    if not (isinstance(jobs, int) and not isinstance(jobs, bool) and jobs >= 1):
        raise ValidationError(f"jobs must be an int >= 1, not {jobs!r}")
    size = backend.max_batch_size
    if not (isinstance(size, int) and not isinstance(size, bool) and size >= 1):
        raise ValidationError(f"backend max_batch_size must be an int >= 1, not {size!r}")
    _refuse_duplicate_ids(prompt_id=[p.prompt_id for p in prompts],
                          example_id=[e.example_id for e in examples])

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

    # Each window's example ids are hashed once, for every prompt.
    starts = range(0, n, BLOCK_CELLS)
    ids = {}
    if cache is not None and not content_addressed:
        ids = {s: ids_digest([e.example_id for e in examples[s : s + BLOCK_CELLS]])
               for s in starts}

    def walk():
        """(chunk, blocks) pairs in walk order. A chunk is a list of misses, each
        (request, row in flat, cache key); blocks, each (block key, cell keys),
        are the windows closed while its cells were gathered, and a window
        closed with no miss pending goes out with an empty chunk. Cache hits
        (rows, and their values end to end) go into raw at the end."""
        misses, blocks, hit_rows, hits = [], [], [], []
        # Only a content-addressed backend gives two cells one key. A key queued in
        # this run is a miss again, as if every lookup came before every append.
        queued: set[bytes] = set()
        keys = repeat(None)  # without a cache, no cell has a key
        for i, prompt in enumerate(prompts):
            prompt_id, phrases = prompt.prompt_id, phrase_sets[i]
            for start in starts:
                window = examples[start : start + BLOCK_CELLS]
                first = i * n + start
                texts = [render(prompt, example) for example in window]
                if cache is not None:
                    block = make_block_key(model_id, texts, phrases, length_norm,
                                           None if content_addressed else (prompt_id, ids[start]))
                    keys = cache.block(block)
                    if keys is None or len(keys) != len(texts):
                        keys = [make_cache_key(model_id, text, phrases, length_norm,
                                               None if content_addressed
                                               else (prompt_id, example.example_id))
                                for example, text in zip(window, texts)]
                for row, example, text, key in zip(count(first), window, texts, keys):
                    if cache is not None:
                        cached = cache.get(key)
                        if cached is not None:
                            if key not in queued:
                                if len(cached) != c:
                                    raise CacheCorruptionError(
                                        f"cache {cache.path} holds {len(cached)} values for a "
                                        f"cell with {c} candidates; delete or move the file "
                                        "to reset it")
                                hit_rows.append(row)
                                hits.extend(cached)
                                continue
                            cache.hits -= 1  # this run's own append
                            cache.misses += 1
                        if content_addressed:
                            queued.add(key)
                    misses.append((ScoreRequest(text, phrases, prompt_id, example.example_id,
                                                choices), row, key))
                    if len(misses) == size:  # one chunk, with the blocks closed meanwhile
                        yield from zip(_chunk(misses, size), [blocks])
                        misses, blocks = [], []
                if cache is not None:
                    blocks.append((block, keys))
                    if not misses:
                        yield [], blocks
                        blocks = []
        yield from zip(_chunk(misses, size), [blocks])
        if hits:
            flat[hit_rows] = np.reshape(hits, (-1, c))

    def score(chunk: Sequence[tuple]) -> np.ndarray | None:
        """Score a chunk's cells into raw: their values, or None if the backend
        fails them or the chunk is empty."""
        if not chunk:
            return None
        batch, rows, _ = zip(*chunk)
        try:
            reply = backend.score_batch(list(batch))
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
        cells = np.array(rows, dtype=np.intp)
        if length_norm:
            values /= tokens[cells // n]
        flat[cells] = values
        return values

    failed: list[tuple[str, str]] = []

    def finish(chunk: Sequence[tuple], blocks: list[tuple], values: np.ndarray | None) -> None:
        """Append a scored chunk, then its blocks; retry a failed chunk cell by
        cell, appending each cell that scores and recording each that fails
        again. ``put_block`` writes no block that lists a failed cell."""
        parts = [(chunk, values)] if chunk else []
        if values is None and len(chunk) > 1:
            parts = (([miss], score([miss])) for miss in chunk)
        for part, scored in parts:
            if scored is None:
                failed.append((part[0][0].prompt_id, part[0][0].example_id))
            elif cache is not None:
                cache.put_many([key for _, _, key in part], scored)
        for block, keys in blocks:
            cache.put_block(block, keys)

    if jobs == 1:
        for chunk, blocks in walk():
            finish(chunk, blocks, score(chunk))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pending: deque[tuple[Sequence[tuple], list[tuple], Future]] = deque()
            try:
                for chunk, blocks in walk():
                    pending.append((chunk, blocks, pool.submit(score, chunk)))
                    if len(pending) > jobs:
                        chunk, blocks, future = pending.popleft()
                        finish(chunk, blocks, future.result())
            except CacheCorruptionError:  # met by the walk: cache what was scored before it
                for chunk, blocks, future in pending:
                    finish(chunk, blocks, future.result())
                raise
            for chunk, blocks, future in pending:
                finish(chunk, blocks, future.result())
    if failed:
        raise ScoringFailedError(failed)

    logprobs = log_softmax(raw, axis=2) if normalize == "softmax" else raw
    return ScoreTensor(
        prompt_ids=tuple(p.prompt_id for p in prompts),
        example_ids=tuple(e.example_id for e in examples),
        choices=task.choices,
        logprobs=logprobs,
        normalized=normalize == "softmax",
    )
