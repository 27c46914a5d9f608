"""Score tensor container and the batch scoring driver."""

import gc
import hashlib
import random
import re
import sys
import threading
import time
import tracemalloc
import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from scipy.special import log_softmax as scipy_log_softmax

import zps.scoring
from zps import (
    BackendError,
    CacheCorruptionError,
    PredictionMatrix,
    Prompt,
    PromptTemplate,
    RemoteBackend,
    ScoreCache,
    ScorerBackend,
    ScoreTensor,
    ScoringFailedError,
    SyntheticBackend,
    TaskSpec,
    UnlabeledExample,
    ValidationError,
    Verbalizer,
    make_cache_key,
    predict,
    score_all,
)
from zps.scoring import log_softmax

from .helpers import (
    StubScorer,
    cell_key,
    make_examples,
    make_prompts,
    make_task,
    plant_labels,
    raw_tensor,
    read_segments,
    segment_bytes,
    stub_score,
    synthetic_setup,
)
from .synthetic_reference import hash01


class _CountingHandle:
    """File handle stand-in that counts writes and flushes."""

    def __init__(self, inner):
        self.inner = inner
        self.writes = self.flushes = 0

    def write(self, text):
        self.writes += 1
        return self.inner.write(text)

    def flush(self):
        self.flushes += 1
        self.inner.flush()

    def close(self):
        self.inner.close()


class TestScoreTensor:
    def test_shape_and_finiteness_enforced(self):
        with pytest.raises(ValidationError, match="shape"):
            ScoreTensor(("p0",), ("e0",), ("0", "1"), np.zeros((1, 2, 2)), normalized=False)
        bad = np.zeros((1, 1, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            ScoreTensor(("p0",), ("e0",), ("0", "1"), bad, normalized=False)
        with pytest.raises(ValidationError, match="above 0"):
            ScoreTensor(("p0",), ("e0",), ("0", "1"), np.array([[[0.5, -1.0]]]),
                        normalized=True)

    def test_read_only(self):
        tensor = raw_tensor(np.zeros((1, 1, 2)))
        with pytest.raises(ValueError):
            tensor.logprobs[0, 0, 0] = 1.0

    @pytest.mark.parametrize("layout", ["same-dtype", "int32", "fortran", "list"])
    def test_holds_its_own_c_ordered_copy(self, layout):
        def given(arr):
            return {"same-dtype": arr.copy(), "int32": arr.astype(np.int32),
                    "fortran": np.asfortranarray(arr), "list": arr.tolist()}[layout]

        ids = (("p0", "p1"), ("e0", "e1"), ("0", "1"))
        logprobs, indices = np.arange(8.0).reshape(2, 2, 2), np.array([[0, 1], [1, 0]])
        tensor_in, matrix_in = given(logprobs), given(indices)
        tensor = ScoreTensor(*ids, tensor_in, normalized=False)
        matrix = PredictionMatrix(*ids, matrix_in)
        for held, dtype, expected, source in ((tensor.logprobs, np.float64, logprobs, tensor_in),
                                              (matrix.indices, np.uint8, indices, matrix_in)):
            assert held.dtype == dtype and np.array_equal(held, expected)
            assert held.flags.c_contiguous and not held.flags.writeable
            assert not np.shares_memory(held, np.asarray(source))

    def test_probabilities_is_exp(self):
        tensor = raw_tensor(np.log([[[0.25, 0.75]]]), normalized=True)
        assert np.allclose(tensor.probabilities, [[[0.25, 0.75]]])

    def test_restrict_order_and_unknown(self):
        tensor = raw_tensor(np.arange(12, dtype=float).reshape(3, 2, 2))
        sub = tensor.restrict(["p02", "p00"])
        assert sub.prompt_ids == ("p02", "p00")
        assert np.array_equal(sub.logprobs[0], tensor.logprobs[2])
        assert np.array_equal(sub.logprobs[1], tensor.logprobs[0])
        with pytest.raises(ValidationError, match="p99"):
            tensor.restrict(["p99"])

    @pytest.mark.parametrize("axis", ["prompt_id", "example_id", "choice"])
    def test_duplicate_ids_refused_naming_the_first_repeat(self, axis):
        ids = {"prompt_id": ("a", "b"), "example_id": ("e0", "e1"), "choice": ("0", "1")}
        ids[axis] = ("a", "b", "b", "a")
        shape = tuple(len(v) for v in ids.values())
        with pytest.raises(ValidationError, match=f"duplicate {axis} 'b'"):
            ScoreTensor(*ids.values(), np.zeros(shape), normalized=False)
        with pytest.raises(ValidationError, match=f"duplicate {axis} 'b'"):
            PredictionMatrix(*ids.values(), np.zeros(shape[:2], dtype=np.int64))

    def test_restrict_refuses_a_repeated_prompt(self):
        tensor = raw_tensor(np.zeros((2, 1, 2)))
        with pytest.raises(ValidationError, match="duplicate prompt_id 'p01'"):
            tensor.restrict(["p01", "p00", "p01"])
        with pytest.raises(ValidationError, match="duplicate prompt_id 'p00'"):
            predict(tensor).restrict(["p00", "p00"])


class TestPredictionMatrix:
    def test_index_range_checked(self):
        with pytest.raises(ValidationError, match="choice set"):
            PredictionMatrix(("p0",), ("e0",), ("0", "1"), np.array([[2]]))
        with pytest.raises(ValidationError, match="shape"):
            PredictionMatrix(("p0",), ("e0",), ("0", "1"), np.array([[0, 1]]))

    def test_rows_and_labels(self):
        matrix = PredictionMatrix(
            ("p0", "p1"), ("e0", "e1"), ("no", "yes"), np.array([[0, 1], [1, 1]])
        )
        assert matrix.labels_row("p0") == ["no", "yes"]
        assert matrix.labels_row("p1") == ["yes", "yes"]
        sub = matrix.restrict(["p1"])
        assert sub.prompt_ids == ("p1",)
        assert np.array_equal(sub.indices, [[1, 1]])

    def test_labels_row_of_unknown_prompt_is_validation_error(self):
        matrix = PredictionMatrix(("p0",), ("e0",), ("0", "1"), np.array([[1]]))
        with pytest.raises(ValidationError, match="p9"):
            matrix.labels_row("p9")

    def test_restrict_to_unknown_prompt_is_validation_error(self):
        matrix = PredictionMatrix(("p0",), ("e0",), ("0", "1"), np.array([[1]]))
        with pytest.raises(ValidationError, match="p9"):
            matrix.restrict(["p0", "p9"])


class TestPredict:
    def test_ties_go_to_earliest_choice(self):
        tensor = raw_tensor(np.array([[[-1.0, -1.0, -2.0]]]))
        assert predict(tensor).indices[0, 0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(4, 7, 3))
        tensor = raw_tensor(arr)
        got = predict(tensor).indices
        for i in range(4):
            for k in range(7):
                assert got[i, k] == max(range(3), key=lambda j: (arr[i, k, j], -j))


class TestScoreAll:
    def test_single_cell_closed_form(self):
        # replicate the synthetic score formula independently
        task = make_task(2)
        prompts = make_prompts(task, 1)
        examples = make_examples(1)
        quality = 0.8
        backend = SyntheticBackend(
            seed=5, prompt_quality={"p00": quality}, planted_labels={"e0000": "1"}
        )
        tensor = score_all(task, prompts, examples, backend, normalize="none")

        s = "5"
        correct = hash01(s, "flip", "p00", "e0000") < quality
        winner = 1 if correct else 0
        wobble = 0.25 + 0.75 * hash01(s, "conf", "p00", "e0000")
        margin = 0.2 + 3.0 * quality * wobble
        if not correct:
            margin *= 0.35
        base = -(0.5 + 2.5 * hash01(s, "base", "p00", "e0000"))
        loser = base - margin - (
            0.05 + 0.5 * hash01(s, "loser", "p00", "e0000", str(1 - winner))
        )
        expected = [base, loser] if winner == 0 else [loser, base]
        assert tensor.logprobs[0, 0].tolist() == expected

    def test_axis_order_matches_inputs(self):
        task, prompts, examples, backend, _ = synthetic_setup(p=3, n=4)
        tensor = score_all(task, prompts, examples, backend)
        assert tensor.prompt_ids == tuple(p.prompt_id for p in prompts)
        assert tensor.example_ids == tuple(e.example_id for e in examples)
        assert tensor.choices == task.choices
        assert tensor.shape == (3, 4, 2)
        assert tensor.normalized

    def test_softmax_matches_manual_normalization(self):
        task, prompts, examples, backend, _ = synthetic_setup(p=2, n=3)
        raw = score_all(task, prompts, examples, backend, normalize="none")
        soft = score_all(task, prompts, examples, backend, normalize="softmax")
        assert np.array_equal(scipy_log_softmax(raw.logprobs, axis=2), soft.logprobs)
        assert not raw.normalized and soft.normalized
        assert np.allclose(soft.probabilities.sum(axis=2), 1.0)

    def test_log_softmax_matches_scipy(self):
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 50.0, 1e3):
            for _ in range(20):
                raw = rng.standard_normal(tuple(rng.integers(1, 6, size=3))) * scale
                assert np.array_equal(log_softmax(raw, 2), scipy_log_softmax(raw, axis=2))

    def test_warm_cache_serves_everything(self, tmp_path):
        task, prompts, examples, backend, _ = synthetic_setup(p=3, n=5)
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            first = score_all(task, prompts, examples, backend, cache)
            assert (cache.hits, cache.misses) == (0, 3 * 5)
        fresh = SyntheticBackend(
            seed=backend.seed,
            prompt_quality=backend.prompt_quality,
            planted_labels=backend.planted_labels,
        )
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            second = score_all(task, prompts, examples, fresh, cache)
            # one lookup per cell
            assert (cache.hits, cache.misses) == (3 * 5, 0)
        assert fresh.calls == 0
        assert np.array_equal(first.logprobs, second.logprobs)

    def test_partially_warm_cache_scores_only_missing_cells(self, tmp_path):
        task, prompts, examples, backend, planted = synthetic_setup(p=2, n=4)
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            score_all(task, prompts, examples[:2], backend, cache)
        fresh = SyntheticBackend(
            seed=backend.seed,
            prompt_quality=backend.prompt_quality,
            planted_labels=planted,
        )
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            score_all(task, prompts, examples, fresh, cache)
        # 2 prompts x 2 new examples
        assert fresh.cells_scored == 4

    @pytest.mark.parametrize("normalize", ["none", "softmax"])
    def test_every_other_cell_cached_gives_the_uncached_tensor(self, tmp_path, monkeypatch,
                                                               normalize):
        task, prompts, examples, backend, _ = synthetic_setup(p=3, n=7, c=3)
        raw = score_all(task, prompts, examples, backend, normalize="none").logprobs
        plain = score_all(task, prompts, examples, backend, normalize=normalize)
        cells = [(i, k) for i in range(len(prompts)) for k in range(len(examples))]
        with ScoreCache(tmp_path / "c") as cache:
            for i, k in cells[::2]:
                cache.put(cell_key(backend.model_id, task, prompts[i], examples[k], ids=True),
                          raw[i, k])
        asked = []

        def recorded(batch):
            asked.extend((req.prompt_id, req.example_id) for req in batch)
            return SyntheticBackend.score_batch(backend, batch)

        monkeypatch.setattr(backend, "score_batch", recorded)
        with ScoreCache(tmp_path / "c") as cache:
            mixed = score_all(task, prompts, examples, backend, cache, normalize=normalize)
            assert (cache.hits, cache.misses) == (len(cells[::2]), len(cells[1::2]))
        assert mixed.logprobs.tobytes() == plain.logprobs.tobytes()
        assert asked == [(prompts[i].prompt_id, examples[k].example_id)
                         for i, k in cells[1::2]]

    def test_one_cache_key_per_cell_and_one_per_appended_cell(self, tmp_path, monkeypatch):
        # One key per cell to look it up, on every run, in walk order: the cell's
        # prompt part, with every candidate, and its example part. A cold run
        # builds each scored cell's key again to append it, in walk order too.
        task, prompts, examples, backend, _ = synthetic_setup(p=3, n=5, c=3)
        hashed = []

        def counted(*args):
            hashed.append(make_cache_key(*args))
            return hashed[-1]

        monkeypatch.setattr(zps.scoring, "make_cache_key", counted)
        for _ in range(2):  # cold, then warm
            with ScoreCache(tmp_path / "c.jsonl") as cache:
                score_all(task, prompts, examples, backend, cache)
        walked = [cell_key(backend.model_id, task, prompt, example, ids=True)
                  for prompt in prompts for example in examples]
        assert hashed == walked + walked + walked  # cold lookups, cold appends, warm lookups

    @pytest.mark.parametrize("axis", ["prompt_id", "example_id"])
    def test_repeated_ids_refused_before_anything_is_scored(self, tmp_path, axis):
        task, prompts, examples, backend, _ = synthetic_setup(p=3, n=3)
        repeat = "p00" if axis == "prompt_id" else "e0000"
        if axis == "prompt_id":
            prompts = prompts + [prompts[0]]
        else:
            examples = examples + [examples[0]]
        with ScoreCache(tmp_path / "c") as cache:
            with pytest.raises(ValidationError, match=f"duplicate {axis} '{repeat}'"):
                score_all(task, prompts, examples, backend, cache)
        assert backend.calls == 0
        assert (tmp_path / "c").stat().st_size == 0

    def test_cached_cell_with_wrong_value_count_is_corruption(self, tmp_path):
        task, prompts, examples, backend, _ = synthetic_setup(p=1, n=2, c=3)
        key = cell_key(backend.model_id, task, prompts[0], examples[1], ids=True)
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            cache.put(key, [-1.0, -2.0])
            with pytest.raises(CacheCorruptionError, match="delete or move"):
                score_all(task, prompts, examples, backend, cache)

    def test_cache_distinguishes_prompts_for_id_addressed_backend(self, tmp_path):
        # same rendered input for every prompt, but the synthetic backend is
        # keyed by ids, so each prompt's cells must be cached separately
        task, prompts, examples, backend, _ = synthetic_setup(p=2, n=2)
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            tensor = score_all(task, prompts, examples, backend, cache, normalize="none")
            assert len(cache) == 2 * 2  # one entry per cell
        assert not np.array_equal(tensor.logprobs[0], tensor.logprobs[1])

    def test_failed_cells_reported_exactly(self):
        task = make_task(2)
        prompts = make_prompts(task, 2)
        examples = make_examples(3)
        planted = {"e0000": "0", "e0001": "intruder", "e0002": "1"}
        backend = SyntheticBackend(
            seed=0,
            prompt_quality={p.prompt_id: 0.7 for p in prompts},
            planted_labels=planted,
        )
        with pytest.raises(ScoringFailedError) as excinfo:
            score_all(task, prompts, examples, backend)
        assert excinfo.value.failed == [("p00", "e0001"), ("p01", "e0001")]
        assert "e0001" in str(excinfo.value)

    def test_parallel_jobs_bit_identical(self):
        task = make_task(3)
        prompts = make_prompts(task, 3)
        examples = make_examples(7)
        planted = plant_labels(task, examples)
        qualities = {p.prompt_id: 0.7 for p in prompts}

        def run(jobs):
            backend = SyntheticBackend(
                seed=2, prompt_quality=qualities, planted_labels=planted,
                max_batch_size=4,
            )
            return score_all(task, prompts, examples, backend, jobs=jobs)

        assert np.array_equal(run(1).logprobs, run(4).logprobs)

    def test_cold_cache_gets_one_write_per_scored_chunk(self, tmp_path):
        task, prompts, examples, _, planted = synthetic_setup(p=3, n=10)
        backend = SyntheticBackend(
            seed=0, prompt_quality={p.prompt_id: 0.7 for p in prompts},
            planted_labels=planted, max_batch_size=4,
        )
        with ScoreCache(tmp_path / "c.jsonl") as cache:
            handle = cache._handle = _CountingHandle(cache._handle)
            score_all(task, prompts, examples, backend, cache)
            assert backend.calls == 8  # 30 cells in chunks of 4
            # one segment per chunk, each in one write to the unbuffered handle
            assert (handle.writes, handle.flushes) == (8, 0)
            assert len(cache) == 30

    def test_parallel_jobs_write_the_same_cache(self, tmp_path):
        task = make_task(3)
        prompts = make_prompts(task, 3)
        examples = make_examples(11)
        planted = plant_labels(task, examples)

        def run(jobs):
            backend = SyntheticBackend(
                seed=2, prompt_quality={p.prompt_id: 0.7 for p in prompts},
                planted_labels=planted, max_batch_size=2,
            )
            path = tmp_path / f"jobs{jobs}.jsonl"
            with ScoreCache(path) as cache:
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
            return path

        serial, parallel = run(1), run(3)
        segments = read_segments(serial)
        assert len(segments) == 17  # one segment per chunk of 2
        assert sum(map(len, segments)) == 3 * 11  # one cell per (prompt, example)
        assert parallel.read_bytes() == serial.read_bytes()

    def test_isolated_cells_stay_cached_after_a_failure(self, tmp_path):
        task = make_task(2)
        prompts = make_prompts(task, 2)
        examples = make_examples(3)
        backend = SyntheticBackend(
            seed=0, prompt_quality={p.prompt_id: 0.7 for p in prompts},
            planted_labels={"e0000": "0", "e0001": "intruder", "e0002": "1"},
            max_batch_size=4,
        )
        path = tmp_path / "c.jsonl"
        with ScoreCache(path) as cache:
            with pytest.raises(ScoringFailedError):
                score_all(task, prompts, examples, backend, cache)
        # the four good cells, from both chunks
        with ScoreCache(path) as cache:
            assert len(cache) == 4

    def test_length_norm_divides_by_token_count(self):
        task = make_task(2)
        verb = Verbalizer({"0": "no", "1": "definitely yes indeed"})
        prompts = [Prompt("p00", PromptTemplate("{{text}}"), verb)]
        examples = make_examples(2)
        backend_kwargs = dict(
            seed=1, prompt_quality={"p00": 0.8},
            planted_labels=plant_labels(task, examples),
        )
        plain = score_all(
            task, prompts, examples, SyntheticBackend(**backend_kwargs),
            normalize="none",
        )
        normed = score_all(
            task, prompts, examples, SyntheticBackend(**backend_kwargs),
            normalize="none", length_norm=True,
        )
        assert np.array_equal(normed.logprobs[..., 0], plain.logprobs[..., 0] / 1)
        assert np.array_equal(normed.logprobs[..., 1], plain.logprobs[..., 1] / 3)

    def test_validation_errors(self):
        task, prompts, examples, backend, _ = synthetic_setup(p=1, n=1)
        with pytest.raises(ValidationError):
            score_all(task, [], examples, backend)
        with pytest.raises(ValidationError):
            score_all(task, prompts, [], backend)
        with pytest.raises(ValidationError, match="normalize"):
            score_all(task, prompts, examples, backend, normalize="l2")
        with pytest.raises(ValidationError, match="jobs"):
            score_all(task, prompts, examples, backend, jobs=0)

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, "2", None, 1.0, True])
    def test_jobs_that_is_not_an_int_of_at_least_one_is_refused(self, jobs):
        task, prompts, examples, backend, _ = synthetic_setup(p=2, n=3)
        with pytest.raises(ValidationError) as excinfo:
            score_all(task, prompts, examples, backend, jobs=jobs)
        assert str(excinfo.value) == f"jobs must be an int >= 1, not {jobs!r}"
        assert backend.calls == 0

    def test_length_norm_divides_by_each_prompts_token_counts(self, tmp_path):
        # chunks of 3 over 2 prompts x 4 examples span both prompts
        task = make_task(2)
        prompts = [Prompt("p00", PromptTemplate("{{text}}"),
                          Verbalizer({"0": "no", "1": "definitely yes indeed"})),
                   Prompt("p01", PromptTemplate("q: {{text}}"),
                          Verbalizer({"0": "not at all", "1": "yes"}))]
        examples = make_examples(4)
        backend_kwargs = dict(seed=1, prompt_quality={"p00": 0.8, "p01": 0.6},
                              planted_labels=plant_labels(task, examples), max_batch_size=3)
        plain = score_all(task, prompts, examples, SyntheticBackend(**backend_kwargs),
                          normalize="none").logprobs
        expected = plain / np.array([[1, 3], [3, 1]])[:, None, :]
        with ScoreCache(tmp_path / "c") as cache:
            cold = score_all(task, prompts, examples, SyntheticBackend(**backend_kwargs),
                             cache, normalize="none", length_norm=True)
        with ScoreCache(tmp_path / "c") as cache:
            warm = score_all(task, prompts, examples, SyntheticBackend(**backend_kwargs),
                             cache, normalize="none", length_norm=True)
        assert np.array_equal(cold.logprobs, expected)
        assert np.array_equal(warm.logprobs, expected)

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_cached_row_one_value_too_wide_is_refused_before_any_request(
            self, tmp_path, monkeypatch, jobs):
        # The bad row is the last cell's, behind four misses, two chunks of 2.
        # Every cell is looked up before any is scored, so the refusal comes
        # before the first request and the file is left as it was.
        task, prompts, examples, _, planted = synthetic_setup(p=2, n=3, c=3)
        backend = SyntheticBackend(seed=0, prompt_quality={p.prompt_id: 0.7 for p in prompts},
                                   planted_labels=planted, max_batch_size=2)
        key = cell_key(backend.model_id, task, prompts[1], examples[2], ids=True)
        path = tmp_path / "c"
        with ScoreCache(path) as cache:
            cache.put_many([key], [[-1.0] * 4])
        before = path.read_bytes()
        with ScoreCache(path) as cache:
            appends = _spy_on_appends(monkeypatch)
            with pytest.raises(CacheCorruptionError) as excinfo:
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
        assert str(excinfo.value) == (f"cache {path} holds 4 values for a cell with 3 "
                                      "candidates; delete or move the file to reset it")
        assert backend.calls == 0
        assert appends == []
        assert path.read_bytes() == before


def test_one_file_holds_the_cells_of_a_two_and_a_three_choice_task(tmp_path):
    # Each cell keeps its own width in the store: two tasks fill one file cold,
    # then a warm run of each, after a reopen, finds every cell.
    setups = [synthetic_setup(p=2, n=6, c=c) for c in (2, 3)]
    path = tmp_path / "c"
    with ScoreCache(path) as cache:
        cold = [score_all(task, prompts, examples[:5], backend, cache)
                for task, prompts, examples, backend, _ in setups]
    with ScoreCache(path) as cache:
        for (task, prompts, examples, backend, _), tensor in zip(setups, cold):
            calls, hits = backend.calls, cache.hits
            warm = score_all(task, prompts, examples[:5], backend, cache)
            assert (backend.calls, cache.hits - hits, cache.misses) == (calls, 10, 0)
            assert warm.logprobs.tobytes() == tensor.logprobs.tobytes()
            widths = {len(cache.get(cell_key(backend.model_id, task, prompt, example, ids=True)))
                      for prompt in prompts for example in examples[:5]}
            assert widths == {len(task.choices)}
        # A 3-choice cell recorded with 2 values, (p01, e0005), is refused before
        # any cell is scored: the miss before it in the walk, (p00, e0005), is
        # neither sent nor appended.
        task, prompts, examples, backend, _ = setups[1]
        backend.max_batch_size = 1
        cache.put(cell_key(backend.model_id, task, prompts[1], examples[5], ids=True),
                  [-1.0, -2.0])
        calls, before = backend.calls, path.read_bytes()
        with pytest.raises(CacheCorruptionError, match=re.escape(
                f"cache {path} holds 2 values for a cell with 3 candidates")):
            score_all(task, prompts, examples, backend, cache)
        assert backend.calls == calls
        assert cell_key(backend.model_id, task, prompts[0], examples[5], ids=True) not in cache
    assert path.read_bytes() == before
    assert len(read_segments(path)[-1]) == 1


def _yes_no_task():
    task = TaskSpec("t", ("text", "extra"), ("0", "1"))
    verb = Verbalizer({"0": "no", "1": "yes"})
    return task, verb


def _remote_score(path, task, prompts, examples, jobs):
    """score_all through RemoteBackend(max_batch_size=4) against a StubScorer, on a
    fresh cache at ``path``; returns (tensor or the raised error, stub, cache)."""
    with StubScorer() as stub, ScoreCache(path) as cache:
        backend = RemoteBackend(stub.url, model="m", max_batch_size=4)
        try:
            result = score_all(task, prompts, examples, backend, cache, jobs=jobs)
        except ValidationError as exc:
            result = exc
        finally:
            backend.close()
    return result, stub, cache


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _TextBackend(ScorerBackend):
    """Content-addressed in-process scorer: ``stub_score`` of each (input, candidate)."""

    model_id, max_batch_size = "text", 3

    def score_batch(self, batch):
        return [[stub_score(r.input, cand) for cand in r.candidates] for r in batch]


# The repeated-key grid below through _remote_score: the sha256 of each request body,
# sorted; of the tensor's logprobs; of the cache file, the same at any jobs; and of
# one segment holding the file's cells in sorted order.
REPEATED_KEY_BODIES = [
    "205f1b49926090a3b05aff7e38205fb09675ad41dfdc05d3938f990fafc6beb5",
    "40b863a5b174d4872e3e120a384a891c50d65a34636a54845aee05702d6297e5",
    "cb70d810536868721b70192d0dfc19f8d8deb7f2c9e1aa67565f3f3553c4fe2e",
    "d918b9b302667df7b8206fa16e580a30b231cf2d0636c94b4aad04afe4c85674",
    "e9e49fe139e3a4d656d660b655d970ef315ce757dcd6f41a04f8011c76417ffa",
    "fd69ec9c12508e546c6de3c6c7d1801cd0ed2813115bed95f22f83751057fcaf",
]
REPEATED_KEY_TENSOR = "ea5ded3fe12ccba83eacc05129db3c06866e7b3f7758651a4a265300c64eb0e2"
REPEATED_KEY_FILE = "a75866708b33f352e468f6dd18e449d6a8ed65fd29a3b053c230db5e9365e3a3"
REPEATED_KEY_CELLS = "f68179657171f2f1b06f2e393bc5e7b0bd279ae68958f115109314a1a06cd9a9"


class TestStreamingWalk:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_field_is_refused_before_any_request(self, tmp_path, jobs):
        task, verb = _yes_no_task()
        prompts = [Prompt("p0", PromptTemplate("{{text}}"), verb),
                   Prompt("p1", PromptTemplate("{{text}} {{extra}}"), verb)]
        examples = [UnlabeledExample(f"e{k}", {"text": f"x{k}", "extra": f"y{k}"})
                    for k in range(9)] + [UnlabeledExample("e9", {"text": "x9"})]
        path = tmp_path / "c"
        error, stub, _ = _remote_score(path, task, prompts, examples, jobs)
        assert isinstance(error, ValidationError)
        assert str(error) == "prompt 'p1', example 'e9': missing fields ['extra']"
        assert stub.bodies == []
        assert path.stat().st_size == 0

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_a_key_repeated_within_a_run_is_a_miss_each_time(self, tmp_path, jobs):
        # Two prompts render the same text, and the examples' fields repeat every 3:
        # 21 cells over 6 keys, every one sent and counted a miss, since every
        # lookup comes before every append.
        task, verb = _yes_no_task()
        prompts = [Prompt("p0", PromptTemplate("A: {{text}}"), verb),
                   Prompt("p1", PromptTemplate("A: {{text}}"), verb),
                   Prompt("p2", PromptTemplate("B: {{text}}"), verb)]
        examples = [UnlabeledExample(f"e{k}", {"text": f"x{k % 3}"}) for k in range(7)]
        path = tmp_path / "c"
        tensor, stub, cache = _remote_score(path, task, prompts, examples, jobs)
        assert sorted(map(_sha256, stub.bodies)) == REPEATED_KEY_BODIES
        assert _sha256(tensor.logprobs.tobytes()) == REPEATED_KEY_TENSOR
        cells = sorted(cell for segment in read_segments(path) for cell in segment)
        assert _sha256(segment_bytes(cells)) == REPEATED_KEY_CELLS
        assert _sha256(path.read_bytes()) == REPEATED_KEY_FILE
        assert (cache.hits, cache.misses) == (0, 21)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("addressed", ["ids", "content"])
    def test_warm_run_renders_nothing_and_calls_no_backend(self, tmp_path, monkeypatch,
                                                           addressed, jobs):
        # Every key is built from key parts, so a warm run renders no cell.
        if addressed == "ids":
            task, prompts, examples, backend, _ = synthetic_setup(p=3, n=10, c=3)
        else:
            task, verb = _yes_no_task()
            prompts = [Prompt(f"p{i}", PromptTemplate(text), verb) for i, text in
                       enumerate(["{{text}} {{extra}}", "{{extra}}: {{text}}", "{{text}}"])]
            examples = [UnlabeledExample(f"e{k}", {"text": f"x{k}", "extra": f"y{k % 4}"})
                        for k in range(10)]
            backend = _TextBackend()
        sent = []
        score_batch = backend.score_batch

        def spy(batch):
            sent.append(batch)
            return score_batch(batch)

        monkeypatch.setattr(backend, "score_batch", spy)
        with ScoreCache(tmp_path / "c") as cache:
            cold = score_all(task, prompts, examples, backend, cache)
        assert sum(map(len, sent)) == 30
        calls = _count_calls(monkeypatch)
        with ScoreCache(tmp_path / "c") as cache:
            warm = score_all(task, prompts, examples, backend, cache, jobs=jobs)
            assert (cache.hits, cache.misses) == (30, 0)
        assert calls == {"make_cache_key": 30, "render": 0, "get": 0}
        assert sum(map(len, sent)) == 30
        assert warm.logprobs.tobytes() == cold.logprobs.tobytes()

    def test_repeated_keys_under_many_threads(self, tmp_path):
        # More workers than cores and a short switch interval, so appends land
        # while the walk is still looking keys up: every cell stays a miss.
        task, verb = _yes_no_task()
        prompts = [Prompt(f"p{i}", PromptTemplate("A: {{text}}" if i < 2 else "B: {{text}}"),
                          verb) for i in range(3)]
        examples = [UnlabeledExample(f"e{k}", {"text": f"x{k % 5}"}) for k in range(60)]

        def run(jobs):
            path = tmp_path / f"jobs{jobs}"
            with ScoreCache(path) as cache:
                tensor = score_all(task, prompts, examples, _TextBackend(), cache, jobs=jobs)
                return tensor.logprobs, (cache.hits, cache.misses), len(cache), path.read_bytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, parallel = run(1), run(8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(parallel[0], serial[0])
        assert parallel[1:3] == serial[1:3] == ((0, 180), 10)
        assert parallel[3] == serial[3]

    def test_peak_memory_follows_the_chunks_in_flight(self):
        # tracemalloc counts bytes, so this does not depend on timing. A score_all
        # that held every cell's rendered input at once peaked at 34.8 MiB at
        # n = 2,000 and 8.7 MiB at n = 500.
        def peak(n):
            task = make_task(3)
            verb = Verbalizer({"0": "no", "1": "maybe", "2": "yes"})
            prompts = [Prompt(f"p{i}", PromptTemplate(f"{i}: {{{{text}}}}"), verb)
                       for i in range(8)]
            examples = [UnlabeledExample(f"e{k:04d}", {"text": f"{k:04d}" * 500})
                        for k in range(n)]  # 2,000-character fields
            backend = SyntheticBackend(seed=0,
                                       prompt_quality={p.prompt_id: 0.7 for p in prompts},
                                       planted_labels=plant_labels(task, examples))
            tracemalloc.start()
            try:
                score_all(task, prompts, examples, backend)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(500), peak(2000)
        assert large < 4 * 2**20
        assert large < 2 * small


def _spy_on_appends(monkeypatch, fail_at=None):
    """The thread of each ``ScoreCache.put_many`` call from now on, in call order;
    call number ``fail_at`` raises OSError instead of writing."""
    threads = []
    put_many = ScoreCache.put_many

    def spy(cache, keys, values):
        threads.append(threading.get_ident())
        if len(threads) == fail_at:
            raise OSError("disk full")
        return put_many(cache, keys, values)

    monkeypatch.setattr(ScoreCache, "put_many", spy)
    return threads


class _DelayedBackend(_TextBackend):
    """``_TextBackend`` scores in chunks of 8, each after a delay of 0-3 ms that the
    seed and the chunk's first cell set, so chunks sent together finish out of walk
    order; a chunk holding a cell in ``fail`` raises BackendError instead."""

    max_batch_size = 8

    def __init__(self, seed, fail=()):
        self.seed, self.fail = seed, set(fail)
        self.calls: list[tuple[int, int]] = []  # (cells, thread) per call

    def score_batch(self, batch):
        self.calls.append((len(batch), threading.get_ident()))
        first = f"{self.seed}:{batch[0].prompt_id}:{batch[0].example_id}"
        time.sleep(random.Random(first).uniform(0, 0.003))
        if any((r.prompt_id, r.example_id) in self.fail for r in batch):
            raise BackendError("refused")
        return super().score_batch(batch)


def _delay_grid():
    """4 prompts x 40 examples, 20 chunks of 8: p0 and p1 render the same text and
    the fields repeat every 10 examples, so 160 cells share 30 keys."""
    task, verb = _yes_no_task()
    prompts = [Prompt(f"p{i}", PromptTemplate(f"{'AABC'[i]}: {{{{text}}}}"), verb)
               for i in range(4)]
    examples = [UnlabeledExample(f"e{k:02d}", {"text": f"x{k % 10}"}) for k in range(40)]
    return task, prompts, examples


class TestOneWriter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delayed_chunks_write_the_same_file_at_any_jobs(self, tmp_path, seed):
        task, prompts, examples = _delay_grid()

        def run(jobs):
            path = tmp_path / f"jobs{jobs}"
            with ScoreCache(path) as cache:
                tensor = score_all(task, prompts, examples, _DelayedBackend(seed), cache,
                                   jobs=jobs)
            return tensor.logprobs.tobytes(), path.read_bytes()

        serial = run(1)
        assert len(read_segments(tmp_path / "jobs1")) == 6  # the chunks with a new key
        assert run(2) == serial
        assert run(4) == serial

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_only_the_calling_thread_appends_and_retries(self, tmp_path, monkeypatch, jobs):
        # The chunk holding (p2, e13) fails whole on a pool thread; its 8 cells are
        # then sent one by one from the calling thread, and 7 of them score.
        task, prompts, examples = _delay_grid()
        backend = _DelayedBackend(0, fail={("p2", "e13")})
        appends = _spy_on_appends(monkeypatch)
        with ScoreCache(tmp_path / "c") as cache:
            with pytest.raises(ScoringFailedError) as excinfo:
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
        assert excinfo.value.failed == [("p2", "e13")]
        me = threading.get_ident()
        assert appends == [me] * (19 + 7)
        assert sorted(cells for cells, thread in backend.calls if thread == me) == [1] * 8
        assert sorted(cells for cells, thread in backend.calls if thread != me) == [8] * 20

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_nothing_is_appended_after_an_append_fails(self, tmp_path, monkeypatch, jobs):
        task, prompts, examples = _delay_grid()
        appends = _spy_on_appends(monkeypatch, fail_at=3)
        path = tmp_path / "c"
        with ScoreCache(path) as cache:
            with pytest.raises(OSError, match="disk full"):
                score_all(task, prompts, examples, _DelayedBackend(0), cache, jobs=jobs)
        assert len(appends) == 3
        # the first two chunks, e00-e07 and e08-e15 of p0, hold 8 and 2 new keys
        assert [len(segment) for segment in read_segments(path)] == [8, 2]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_each_miss_is_rendered_once_and_each_retried_cell_once_more(
            self, tmp_path, monkeypatch, jobs):
        # A chunk is rendered when it is scored, on whichever thread scores it.
        # The chunk holding (p2, e13) fails whole, and each of its 8 cells is
        # rendered again for its own retry.
        task, prompts, examples = _delay_grid()
        calls = _count_calls(monkeypatch)
        with ScoreCache(tmp_path / "cold") as cache:
            score_all(task, prompts, examples, _DelayedBackend(0), cache, jobs=jobs)
        assert calls["render"] == 160
        backend = _DelayedBackend(0, fail={("p2", "e13")})
        with ScoreCache(tmp_path / "failing") as cache:
            with pytest.raises(ScoringFailedError):
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
        assert calls["render"] == 160 + 160 + 8
        assert sorted(cells for cells, _ in backend.calls) == [1] * 8 + [8] * 20


def _count_calls(monkeypatch):
    """Calls of ``make_cache_key`` and ``render`` through zps.scoring and of
    ``ScoreCache.get`` from now on, by name, from any thread."""
    calls = {"make_cache_key": 0, "render": 0, "get": 0}
    lock = threading.Lock()  # pool threads render too

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("make_cache_key", "render"):
        monkeypatch.setattr(zps.scoring, name, counted(name, getattr(zps.scoring, name)))
    monkeypatch.setattr(ScoreCache, "get", counted("get", ScoreCache.get))
    return calls


class _SpoilingBackend(ScorerBackend):
    """The synthetic scores, with some rows of each reply spoiled."""

    content_addressed = False

    def __init__(self, inner: SyntheticBackend, spoil):
        self.inner, self.spoil = inner, spoil
        self.model_id = inner.model_id
        self.max_batch_size = inner.max_batch_size

    def score_batch(self, batch):
        rows = self.inner.score_batch(batch)
        return [self.spoil(req.example_id, row) for req, row in zip(batch, rows)]


# (spoil one reply row, the example ids whose cells fail)
_SPOILS = {
    "one score per cell": (lambda eid, row: row[:1], {"e0000", "e0001", "e0002"}),
    "ragged rows": (lambda eid, row: row[:1] if eid == "e0001" else row, {"e0001"}),
    "a string": (lambda eid, row: ["-1.0", *row[1:]] if eid == "e0001" else row, {"e0001"}),
    "a bool": (lambda eid, row: [True, *row[1:]] if eid == "e0001" else row, {"e0001"}),
    "NaN": (lambda eid, row: [float("nan"), *row[1:]] if eid == "e0001" else row, {"e0001"}),
    "infinity": (lambda eid, row: [*row[:-1], -float("inf")] if eid == "e0002" else row,
                 {"e0002"}),
}


class TestMalformedReplies:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("spoil", sorted(_SPOILS))
    def test_bad_cells_fail_and_stay_out_of_the_cache(self, tmp_path, spoil, cached, jobs):
        spoil_row, bad = _SPOILS[spoil]
        task, prompts, examples, _, planted = synthetic_setup(p=2, n=3)
        inner = SyntheticBackend(seed=0, prompt_quality={p.prompt_id: 0.7 for p in prompts},
                                 planted_labels=planted, max_batch_size=4)
        backend = _SpoilingBackend(inner, spoil_row)
        path = tmp_path / "c"
        with ScoreCache(path) if cached else nullcontext() as cache:
            with pytest.raises(ScoringFailedError) as excinfo:
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
        assert excinfo.value.failed == sorted(
            (p.prompt_id, eid) for p in prompts for eid in bad)
        if cached:
            # only the good cells, each with c values, and they read back warm
            with ScoreCache(path) as cache:
                assert len(cache) == 2 * (3 - len(bad))
            assert all(len(values) == 2 for segment in read_segments(path)
                       for _, values in segment)
            good = [e for e in examples if e.example_id not in bad]
            if good:
                calls = inner.calls
                with ScoreCache(path) as cache:
                    warm = score_all(task, prompts, good, backend, cache, normalize="none")
                assert inner.calls == calls
                fresh = score_all(task, prompts, good, inner, normalize="none")
                assert np.array_equal(warm.logprobs, fresh.logprobs)


class TestNoReferenceCycle:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fails", [False, True])
    def test_cache_and_backend_die_with_their_last_reference(self, tmp_path, fails, jobs):
        # With the cyclic collector off, only reference counting frees
        # objects: a cycle through score_all's closures would keep them.
        task = make_task(2)
        prompts, examples = make_prompts(task, 2), make_examples(3)
        planted = {"e0000": "0", "e0001": "intruder" if fails else "1", "e0002": "1"}
        gc.collect()
        gc.disable()
        try:
            backend = SyntheticBackend(seed=0, prompt_quality={p.prompt_id: 0.7 for p in prompts},
                                       planted_labels=planted, max_batch_size=4)
            cache = ScoreCache(tmp_path / "c")
            refs = [weakref.ref(backend), weakref.ref(cache)]
            try:
                score_all(task, prompts, examples, backend, cache, jobs=jobs)
                raised = False
            except ScoringFailedError:
                raised = True
            assert raised == fails
            cache.close()
            del backend, cache
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()
