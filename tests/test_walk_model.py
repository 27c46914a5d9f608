"""A model-based test of ``score_all`` over one ``ScoreCache`` file.

A plain model predicts each run: which cells the cache already holds, which
the backend is asked for, which fail, and the exact segments appended in walk
order. Runs on drawn sub-grids, at drawn ``jobs`` and batch sizes, against a
backend that fails drawn cells or answers a chunk with a wrong-width row, are
interleaved with cuts of the file at drawn offsets and reopens, and with runs
refused before any cell is scored, because their grid looks up a cell of
another width planted in the file. Each rule records a ``hypothesis.event``,
so ``pytest --hypothesis-show-statistics`` shows how often each one ran.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from zps import (BackendError, CacheCorruptionError, Prompt, PromptTemplate, ScoreCache,
                 ScorerBackend, ScoringFailedError, TaskSpec, UnlabeledExample, Verbalizer, render,
                 score_all)

from .helpers import CACHE_HEADER, cell_key, read_segments, stub_score

TASK = TaskSpec("t", ("text", "extra"), ("0", "1"))
_VERB = Verbalizer({"0": "no", "1": "yes"})
# p0 and p1 render the same inputs, and examples repeat their values, so a
# content-addressed backend gives many cells one key.
PROMPTS = [Prompt("p0", PromptTemplate("A {{text}}"), _VERB),
           Prompt("p1", PromptTemplate("A {{text}}"), _VERB),
           Prompt("p2", PromptTemplate("{{extra}} B {{text}}"), _VERB)]
EXAMPLES = [UnlabeledExample(f"e{k}", {"text": f"x{k % 3}", "extra": f"y{k % 2}"})
            for k in range(6)]


class _ModelBackend(ScorerBackend):
    """Scores from the input text, or from the ids when not content-addressed.

    A batch holding a cell of ``fail`` raises; a batch of more than one cell
    answers each cell of ``spoil`` with one value too many.
    """

    model_id = "model"

    def __init__(self, content_addressed, size, fail, spoil):
        self.content_addressed, self.max_batch_size = content_addressed, size
        self.fail, self.spoil = fail, spoil
        self.calls = 0

    def score_batch(self, batch):
        self.calls += 1
        if any((r.prompt_id, r.example_id) in self.fail for r in batch):
            raise BackendError("drawn failure")
        return [truth(self.content_addressed, r.input, r.prompt_id, r.example_id)
                + ([-1.0] if len(batch) > 1 and (r.prompt_id, r.example_id) in self.spoil
                   else []) for r in batch]


def truth(content_addressed, text, prompt_id, example_id):
    source = text if content_addressed else f"{prompt_id}/{example_id}"
    return [stub_score(source, phrase) for phrase in ("no", "yes")]


def segment_size(cells):
    return CACHE_HEADER.size + cells * (64 + 8 * len(TASK.choices))


class WalkAndCache(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.path = self.dir / "cache"
        self.cache = ScoreCache(self.path)
        self.held: dict[bytes, list[float]] = {}  # what the file holds, first value kept
        self.segments: list[list[bytes]] = []  # the keys of each segment, in file order

    def teardown(self):
        self.cache.close()
        shutil.rmtree(self.dir)

    @initialize(content_addressed=st.booleans())
    def choose_backend(self, content_addressed):
        self.content_addressed = content_addressed

    def key(self, prompt, example):
        return cell_key("model", TASK, prompt, example, ids=not self.content_addressed)

    def predict(self, prompts, examples, size, fail, spoil):
        """Predict one run: add the segments it appends to the model's file, and
        return its hit count, its miss count and its failing cells."""
        walk = [(p, e, self.key(p, e)) for p in prompts for e in examples]
        misses = [(p, e, key) for p, e, key in walk if key not in self.held]
        failed, appended = [], []
        for start in range(0, len(misses), size):
            chunk = misses[start : start + size]
            cells = [(p.prompt_id, e.example_id) for p, e, _ in chunk]
            parts = [chunk]
            if not fail.isdisjoint(cells) or (len(chunk) > 1 and not spoil.isdisjoint(cells)):
                parts = [[cell] for cell in chunk]  # retried cell by cell
            for part in parts:
                if (part[0][0].prompt_id, part[0][1].example_id) in fail:
                    failed.append((part[0][0].prompt_id, part[0][1].example_id))
                    continue
                fresh = []
                for p, e, key in part:
                    if key not in self.held:
                        self.held[key] = truth(self.content_addressed, render(p, e),
                                               p.prompt_id, e.example_id)
                        fresh.append(key)
                if fresh:
                    appended.append(fresh)
        self.segments += appended
        return len(walk) - len(misses), len(misses), sorted(failed)

    @staticmethod
    def draw_grid(data):
        return ([items[i] for i in data.draw(st.lists(
            st.sampled_from(range(len(items))), min_size=1, unique=True))]
            for items in (PROMPTS, EXAMPLES))

    @rule(data=st.data(), jobs=st.sampled_from([1, 2, 4]), size=st.integers(1, 7))
    def score(self, data, jobs, size):
        event("rule: score")
        prompts, examples = self.draw_grid(data)
        grid = [(p.prompt_id, e.example_id) for p in prompts for e in examples]
        fail = set(data.draw(st.lists(st.sampled_from(grid), max_size=2)))
        spoil = set(data.draw(st.lists(st.sampled_from(grid), max_size=2)))
        backend = _ModelBackend(self.content_addressed, size, fail, spoil)
        before = (self.cache.hits, self.cache.misses)
        hits, misses, failed = self.predict(prompts, examples, size, fail, spoil)
        try:
            tensor = score_all(TASK, prompts, examples, backend, self.cache,
                               normalize="none", jobs=jobs)
        except ScoringFailedError as exc:
            assert exc.failed == failed
            tensor = None
        else:
            assert failed == []
        assert (self.cache.hits - before[0], self.cache.misses - before[1]) == (hits, misses)
        if tensor is None:
            return
        expected = [[truth(self.content_addressed, render(p, e), p.prompt_id,
                           e.example_id) for e in examples] for p in prompts]
        assert tensor.logprobs.tolist() == expected
        # A repeat run finds every cell: no backend call, nothing appended.
        size_before, calls = self.path.stat().st_size, backend.calls
        again = score_all(TASK, prompts, examples, backend, self.cache, normalize="none",
                          jobs=jobs)
        assert backend.calls == calls and self.path.stat().st_size == size_before
        assert again.logprobs.tobytes() == tensor.logprobs.tobytes()

    def free_cells(self):
        return [(p, e) for p in PROMPTS for e in EXAMPLES if self.key(p, e) not in self.held]

    @precondition(free_cells)
    @rule(data=st.data(), jobs=st.sampled_from([1, 2, 4]), size=st.integers(1, 7))
    def score_refused_by_a_planted_cell_of_another_width(self, data, jobs, size):
        # A 3-value cell under a key the file lacks refuses a run whose grid looks
        # it up, before any cell is scored; then its segment is cut off again.
        event("rule: score_refused_by_a_planted_cell_of_another_width")
        prompt, example = data.draw(st.sampled_from(self.free_cells()))
        planted, sound = self.key(prompt, example), self.path.stat().st_size
        self.cache.put(planted, [-1.0, -2.0, -3.0])
        prompts, examples = self.draw_grid(data)
        prompts = [p for p in PROMPTS if p in prompts or p is prompt]
        examples = [e for e in EXAMPLES if e in examples or e is example]
        keys = [self.key(p, e) for p in prompts for e in examples]
        hits = sum(key in self.held or key == planted for key in keys)
        backend = _ModelBackend(self.content_addressed, size, set(), set())
        before, file_before = (self.cache.hits, self.cache.misses), self.path.read_bytes()
        with pytest.raises(CacheCorruptionError) as excinfo:
            score_all(TASK, prompts, examples, backend, self.cache, normalize="none", jobs=jobs)
        assert str(excinfo.value) == (f"cache {self.path} holds 3 values for a cell with 2 "
                                      "candidates; delete or move the file to reset it")
        assert backend.calls == 0 and self.path.read_bytes() == file_before
        assert (self.cache.hits - before[0], self.cache.misses - before[1]) == \
            (hits, len(keys) - hits)
        self.cache.close()
        with open(self.path, "r+b") as out:
            out.truncate(sound)
        self.cache = ScoreCache(self.path)

    @precondition(lambda self: self.segments)
    @rule(data=st.data())
    def cut_and_reopen(self, data):
        event("rule: cut_and_reopen")
        self.cache.close()
        size = self.path.stat().st_size
        offset = data.draw(st.integers(0, size))
        with open(self.path, "r+b") as out:
            out.truncate(offset)
        kept, end = [], 0
        for keys in self.segments:
            end += segment_size(len(keys))
            if end > offset:
                break
            kept.append(keys)
        held = {key for keys in kept for key in keys}
        self.segments, self.held = kept, {k: v for k, v in self.held.items() if k in held}
        self.cache = ScoreCache(self.path)

    @invariant()
    def file_holds_the_model(self):
        assert [[key for key, _ in segment] for segment in read_segments(self.path)] == \
            self.segments
        with ScoreCache(self.path) as reopened:
            assert len(reopened) == len(self.held)
            assert all(list(reopened.get(k)) == v for k, v in self.held.items())


WalkAndCache.TestCase.settings = settings(
    derandomize=True, max_examples=100, stateful_step_count=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestWalkAndCache = WalkAndCache.TestCase
