"""The batched synthetic scorer against its per-cell formula.

``SyntheticBackend.score_batch`` computes a whole batch with array
operations; ``tests/synthetic_reference.py`` holds the one-cell-at-a-time
formula it must reproduce exactly, float for float.
"""

import hashlib
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zps.backends
from zps import BackendError, ScoreRequest, SyntheticBackend, ValidationError, derived_profile

from . import synthetic_reference
from .synthetic_reference import reference_profile, reference_scores

# Any text UTF-8 can encode, without the draw separator.
_ids = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x1f"),
               max_size=6)
_seeds = st.one_of(st.integers(-10**9, 10**9), _ids)
_qualities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_label_sets = st.lists(_ids, min_size=2, max_size=5, unique=True)


@st.composite
def _batches(draw):
    """A backend and a batch whose cells share one label set."""
    prompt_ids = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    example_ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    labels = tuple(draw(_label_sets))
    planted = {eid: draw(st.sampled_from(labels)) for eid in example_ids}
    qualities = {pid: draw(_qualities) for pid in prompt_ids}
    default = draw(st.one_of(st.none(), _qualities))
    if default is not None:  # a prompt the profile leaves out
        qualities.pop(prompt_ids[0])
    backend = SyntheticBackend(
        seed=draw(_seeds),
        prompt_quality=qualities,
        planted_labels=planted,
        default_quality=default,
        miss_margin_scale=draw(st.sampled_from([0.35, 1.0, 0.0, 1.7])),
    )
    size = draw(st.one_of(st.sampled_from([0, 1, 300]), st.integers(0, 40)))
    cells = [(prompt_ids[n % len(prompt_ids)],
              example_ids[n // len(prompt_ids) % len(example_ids)]) for n in range(size)]
    batch = [ScoreRequest(f"{pid}|{eid}", labels, pid, eid, labels) for pid, eid in cells]
    return backend, batch


@settings(max_examples=80, deadline=None)
@given(_batches())
def test_batch_equals_the_per_cell_formula(case):
    backend, batch = case
    scores = backend.score_batch(batch)
    expected = [reference_scores(backend, req) for req in batch]
    # one (b, c) float64 array, bit-equal to the formula; no cells give (0, 0)
    c = len(batch[0].choice_labels) if batch else 0
    assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
    assert scores.shape == (len(batch), c)
    assert scores.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()
    assert backend.calls == 1 and backend.cells_scored == len(batch)


def test_a_batch_that_mixes_choice_labels_is_refused():
    backend = SyntheticBackend(seed=5, prompt_quality={"p": 0.6},
                               planted_labels={"e0": "a", "e1": "b"})
    first = ScoreRequest("x", ("a", "b"), "p", "e0", ("a", "b"))
    for other in (("a", "b", "c"), ("b", "a"), ("a", "c")):  # more, reordered, other
        with pytest.raises(BackendError, match="share one set of choice labels"):
            backend.score_batch([first, ScoreRequest("y", other, "p", "e1", other)])
    alone = backend.score_batch([first])
    assert alone.tobytes() == np.asarray([reference_scores(backend, first)]).tobytes()


@settings(max_examples=40, deadline=None)
@given(_seeds, st.lists(_ids, max_size=8), st.lists(_ids, max_size=8), _label_sets)
def test_derived_profile_equals_the_per_id_formula(seed, prompt_ids, example_ids, choices):
    assert derived_profile(seed, prompt_ids, example_ids, choices) == \
        reference_profile(seed, prompt_ids, example_ids, choices)


GOLDEN_CHOICES = ("neg", "neu", "pos")


def test_golden_grid_digest():
    # sha256 of the raw scores of a fixed 8 x 50 x 3 grid, recorded from the
    # per-cell scorer; any drift in the synthetic scores changes it.
    prompt_ids = [f"p{i:02d}" for i in range(8)]
    example_ids = [f"e{k:04d}" for k in range(50)]
    backend = SyntheticBackend(
        seed="golden",
        prompt_quality={pid: i / 7 for i, pid in enumerate(prompt_ids)},
        planted_labels={eid: GOLDEN_CHOICES[k % 3] for k, eid in enumerate(example_ids)},
    )
    reqs = [ScoreRequest(f"{pid} {eid}", GOLDEN_CHOICES, pid, eid, GOLDEN_CHOICES)
            for pid in prompt_ids for eid in example_ids]
    scores = backend.score_batch(reqs)
    assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
    assert scores.shape == (len(reqs), len(GOLDEN_CHOICES))
    digest = hashlib.sha256(np.asarray(scores, dtype=np.float64).tobytes()).hexdigest()
    assert digest == "831f06bdb8c88e6695dd06ce4a4e19b5131ce6c181edf9efdba590f50e3d81b2"
    chunked = np.concatenate([backend.score_batch(reqs[n:n + 7])
                              for n in range(0, len(reqs), 7)])
    assert chunked.tobytes() == scores.tobytes()


def _request(pid, eid, labels=("0", "1")):
    return ScoreRequest(f"{pid}|{eid}", labels, pid, eid, labels)


@pytest.mark.parametrize("req", [
    _request("p", "unplanted"),
    _request("p", "e", ("x", "y")),
    _request("unknown", "e"),
])
def test_errors_keep_their_messages(req):
    backend = SyntheticBackend(seed=0, prompt_quality={"p": 0.5},
                               planted_labels={"e": "1", "g": req.choice_labels[0]})
    with pytest.raises(BackendError) as expected:
        reference_scores(backend, req)
    # a good cell with the same labels ahead of the bad one does not change
    # which error is raised
    good = _request("p", "g", req.choice_labels)
    backend.score_batch([good])
    with pytest.raises(BackendError, match=re.escape(str(expected.value))):
        backend.score_batch([good, req])


def test_ids_with_the_separator_are_refused():
    with pytest.raises(ValidationError, match=re.escape(repr("a\x1fb"))):
        SyntheticBackend(seed=0, prompt_quality={"a\x1fb": 0.5}, planted_labels={})
    with pytest.raises(ValidationError, match=re.escape(repr("b\x1fc"))):
        SyntheticBackend(seed=0, prompt_quality={}, planted_labels={"b\x1fc": "0"})
    backend = SyntheticBackend(seed=0, prompt_quality={}, planted_labels={"e": "0"},
                               default_quality=0.5)
    with pytest.raises(BackendError, match=re.escape(repr("a\x1fb"))):
        backend.score_batch([_request("a\x1fb", "e")])
    for prompt_ids, example_ids in ((["a\x1fb"], []), ([], ["b\x1fc"])):
        with pytest.raises(ValidationError, match="separator"):
            derived_profile(0, prompt_ids, example_ids, ("0", "1"))


def test_duplicate_choice_labels_are_refused():
    backend = SyntheticBackend(seed=0, prompt_quality={"p": 0.5}, planted_labels={"e": "1"})
    with pytest.raises(BackendError, match="duplicate choice labels"):
        backend.score_batch([_request("p", "e", ("0", "1", "0"))])
    with pytest.raises(BackendError, match="fewer than two choice labels"):
        backend.score_batch([_request("p", "e", ("1",))])


class _TopDigest:
    """A sha256 stand-in whose every digest is all 0xff: the draw that rounds to 1."""

    def __init__(self, data=b""):
        pass

    def copy(self):
        return self

    def update(self, data):
        pass

    def digest(self):
        return b"\xff" * 32


def test_the_top_draw_stays_below_one(monkeypatch):
    labels = ("a", "b", "c")
    backend = SyntheticBackend(seed=0, prompt_quality={"p": 1.0, "q": 0.5},
                               planted_labels={"e": "a"})
    batch = [ScoreRequest(f"{pid}|e", labels, pid, "e", labels) for pid in ("p", "q")]
    monkeypatch.setattr(zps.backends, "hashlib", types.SimpleNamespace(sha256=_TopDigest))
    monkeypatch.setattr(synthetic_reference, "hashlib", types.SimpleNamespace(sha256=_TopDigest))
    assert zps.backends._uniforms("x", [b"e", b"f"]).tolist() == [1 - 2**-53] * 2
    assert synthetic_reference.hash01("x") == 1 - 2**-53
    # the last choice, and the top of the quality range
    assert derived_profile(0, ["p"], ["e"], labels) == ({"p": 0.55 + 0.4 * (1 - 2**-53)},
                                                        {"e": "c"})
    assert derived_profile(0, ["p"], ["e"], labels) == reference_profile(0, ["p"], ["e"], labels)
    scores = backend.score_batch(batch)
    assert scores.tolist() == [reference_scores(backend, req) for req in batch]
    # quality 1.0 always hits; a miss has one winner, the last wrong choice
    assert np.argmax(scores, axis=1).tolist() == [0, 2]
    for row, winner in zip(scores, [0, 2]):
        assert (np.delete(row, winner) < row[winner]).all()
