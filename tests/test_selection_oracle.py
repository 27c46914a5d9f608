"""Selection reads the score tensor in place, bit for bit like the stacked formulas.

``tests/selection_reference.py`` keeps the copy-then-reduce formulas; every
ensemble, agreement, report and pseudo-val set here must match its bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zps import STRATEGIES, EnsembleConfig, ScoreTensor, ValidationError, build_pseudo_val, select
from zps.selection import ensemble_predict, ensemble_vote, pseudo_accuracy

from .helpers import raw_tensor, synthetic_tensor
from .selection_reference import (
    reference_ensemble_scores,
    reference_ensemble_vote,
    reference_pseudo_accuracy,
    reference_pseudo_val,
    reference_select,
)

# Few distinct values, exact zeros of both signs, and coarse roundings, so
# scores, votes and gaps tie often.
CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, -0.5, -1.0, -2.25]),
    st.floats(-6.0, 0.0).map(lambda v: round(v, 1)),
    st.floats(-6.0, 0.0),
)


@st.composite
def tensors(draw) -> ScoreTensor:
    p, n, c = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(2, 4))
    order = draw(st.permutations(range(p)))
    return ScoreTensor(
        prompt_ids=tuple(f"p{i}" for i in order),
        example_ids=tuple(f"x{k}" for k in range(n)),
        choices=tuple(f"c{j}" for j in range(c)),
        logprobs=draw(arrays(np.float64, (p, n, c), elements=CELLS)),
        normalized=draw(st.booleans()),
    )


def same_array(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def same_floats(got: dict, want: dict) -> bool:
    return list(got) == list(want) and all(
        type(got[k]) is float and got[k].hex() == want[k].hex() for k in want
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ensembles_match_the_stacked_reference(data):
    tensor = data.draw(tensors())
    subset = data.draw(st.lists(st.sampled_from(tensor.prompt_ids), min_size=1, unique=True))
    for strategy in STRATEGIES:
        config = EnsembleConfig(strategy)
        for ids in (None, subset):
            got, want = ensemble_vote(tensor, config, ids), \
                reference_ensemble_vote(tensor, config, ids)
            assert same_array(got[0], want[0]) and same_array(got[1], want[1])


@pytest.mark.parametrize("cells", [
    # both prompts vote for choice 1, whose summed log-score overflows to -inf
    [[[-1.5e308, -1e308, -1.6e308]]] * 2,
    # a 1-1 tie whose two summed log-scores both overflow
    [[[-1.5e308, -1e308, -1.6e308]], [[-1e308, -1.5e308, -1.6e308]]],
    # three prompts vote for the last choice, and every summed log-score overflows
    [[[-1.6e308, -1.5e308, -1e308]]] * 3,
], ids=["untied", "tied", "untied-last-choice"])
def test_overflowing_votes_match_the_reference(cells):
    tensor = raw_tensor(cells)
    with np.errstate(over="ignore"):
        for strategy in STRATEGIES:
            config = EnsembleConfig(strategy)
            got, want = ensemble_vote(tensor, config), reference_ensemble_vote(tensor, config)
            assert same_array(got[0], want[0]) and same_array(got[1], want[1])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_agreement_counts_match_the_bool_mean(data):
    preds = data.draw(tensors()).predictions
    n = len(preds.example_ids)
    targets = np.asarray(data.draw(st.lists(
        st.integers(0, len(preds.choices) - 1), min_size=n, max_size=n)), dtype=np.int64)
    subset = data.draw(st.lists(st.sampled_from(preds.prompt_ids), min_size=1, unique=True))
    for ids in (None, subset):
        assert same_floats(pseudo_accuracy(preds, targets, ids),
                           reference_pseudo_accuracy(preds, targets, ids))
    labels = [preds.choices[j] for j in targets.tolist()]
    assert same_floats(pseudo_accuracy(preds, labels), reference_pseudo_accuracy(preds, targets))
    # Targets far outside [0, c) are misses: a narrow compare must not wrap them.
    wide = np.asarray(data.draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n)),
                      dtype=np.int64)
    for ids in (None, subset):
        assert same_floats(pseudo_accuracy(preds, wide, ids),
                           reference_pseudo_accuracy(preds, wide, ids))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_repeated_prompt_id_is_refused_as_the_reference_refuses_it(strategy):
    tensor, _ = synthetic_tensor(p=3, n=8, c=3, seed=1)
    config, ids = EnsembleConfig(strategy), ["p01", "p00", "p00", "p01"]
    with pytest.raises(ValidationError) as want:
        reference_ensemble_vote(tensor, config, ids)
    for ensemble in (ensemble_vote, ensemble_predict):
        with pytest.raises(ValidationError, match="duplicate prompt_id 'p00'") as got:
            ensemble(tensor, config, ids)
        assert str(got.value) == str(want.value)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reports_and_pseudo_val_match_the_reference(data):
    tensor = data.draw(tensors())
    size = data.draw(st.none() | st.integers(1, len(tensor.example_ids)))
    no_filter, score_all = data.draw(st.booleans()), data.draw(st.booleans())
    for strategy in STRATEGIES:
        config = EnsembleConfig(strategy)
        got = select(tensor, config, no_filter=no_filter, score_all_prompts=score_all)
        want = reference_select(tensor, config, no_filter=no_filter,
                                score_all_prompts=score_all)
        assert got.to_json() == want.to_json()
        got_val, want_val = build_pseudo_val(tensor, config, size), \
            reference_pseudo_val(tensor, config, size)
        assert got_val.to_jsonl() == want_val.to_jsonl()
        assert got_val.provenance == want_val.provenance


@pytest.mark.parametrize("shape", [(1, 5, 3), (4, 1, 2), (1, 1, 2)])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_signed_zeros_on_thin_tensors(shape, zero):
    p, n, c = shape
    tensor = ScoreTensor(tuple(f"p{i}" for i in reversed(range(p))),
                         tuple(f"x{k}" for k in range(n)), tuple(f"c{j}" for j in range(c)),
                         np.full(shape, zero), normalized=False)
    for strategy in STRATEGIES:
        config = EnsembleConfig(strategy)
        assert same_array(ensemble_vote(tensor, config)[0],
                          reference_ensemble_scores(tensor, config))
        assert select(tensor, config).to_json() == reference_select(tensor, config).to_json()
        assert build_pseudo_val(tensor, config).to_jsonl() == \
            reference_pseudo_val(tensor, config).to_jsonl()


def test_select_and_pseudo_val_never_copy_rows(monkeypatch):
    tensor, _ = synthetic_tensor(p=6, n=30, c=3, seed=2)

    def refuse(self, prompt_ids):
        raise AssertionError("restrict called")

    monkeypatch.setattr(ScoreTensor, "restrict", refuse)
    for strategy in STRATEGIES:
        config = EnsembleConfig(strategy)
        for no_filter in (False, True):
            select(tensor, config, no_filter=no_filter, score_all_prompts=True)
        build_pseudo_val(tensor, config, size=10)
