"""Confidence scores, cluster filtering, ensembles and selection."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zps import (
    ConfidenceReport,
    EnsembleConfig,
    PredictionMatrix,
    STRATEGIES,
    ScoreTensor,
    SelectionReport,
    ValidationError,
    confidence_scores,
    ensemble_predict,
    ensemble_vote,
    filter_prompts,
    predict,
    pseudo_accuracy,
    select,
)

from zps.scoring import top2_gap

from .helpers import normalized_tensor, prob_tensor, raw_tensor, synthetic_tensor


def varied_tensor(c, kind, seed=0):
    """A 7 x 30 x c tensor: softmax-normalized, rounded (tied scores and
    tied gaps) or raw unnormalized scores."""
    rng = np.random.default_rng(seed + 10 * c)
    arr = rng.normal(scale=1.5, size=(7, 30, c))
    if kind == "raw":
        return raw_tensor(np.round(arr, 1))
    return normalized_tensor(np.round(arr) if kind == "rounded" else arr)


def sorted_gaps(values):
    """The top-1 minus top-2 gap over the last axis by a full sort."""
    ordered = np.sort(values, axis=-1)
    return ordered[..., -1] - ordered[..., -2]


TENSOR_CASES = [(c, kind) for c in range(2, 7) for kind in ("softmax", "rounded", "raw")]


class TestConfidenceScores:
    def test_hand_computed_gaps(self):
        tensor = prob_tensor([[[0.9, 0.1], [0.6, 0.4]]])
        assert confidence_scores(tensor) == pytest.approx([0.8 + 0.2])

    def test_uniform_scores_zero(self):
        tensor = prob_tensor(np.full((2, 5, 4), 0.25))
        assert confidence_scores(tensor) == pytest.approx([0.0, 0.0])

    def test_peaked_scores_approach_example_count(self):
        probs = np.full((1, 6, 3), 0.005)
        probs[:, :, 0] = 0.99
        tensor = prob_tensor(probs)
        assert confidence_scores(tensor) == pytest.approx([6 * (0.99 - 0.005)])

    def test_gap_uses_top_two_choices(self):
        # argsort over all choices, not just winner vs runner-up by index
        tensor = prob_tensor([[[0.1, 0.7, 0.2]]])
        assert confidence_scores(tensor) == pytest.approx([0.5])

    def test_needs_two_choices(self):
        tensor = prob_tensor(np.ones((1, 2, 1)))
        with pytest.raises(ValidationError, match="2 choices"):
            confidence_scores(tensor)
        assert "confidences" not in vars(tensor)

    @pytest.mark.parametrize("c,kind", TENSOR_CASES)
    def test_equals_sorted_gap_sum(self, c, kind):
        tensor = varied_tensor(c, kind)
        expected = sorted_gaps(np.exp(tensor.logprobs)).sum(axis=1)
        assert np.array_equal(confidence_scores(tensor), expected)

    def test_top2_gap_is_zero_on_a_tie(self):
        values = np.array([[0.4, 0.2, 0.4], [0.1, 0.5, 0.4], [0.3, 0.3, 0.3]])
        assert top2_gap(values).tolist() == [0.0, 0.5 - 0.4, 0.0]
        with pytest.raises(ValidationError, match="2 choices"):
            top2_gap(np.ones((2, 1)))


class TestTensorViews:
    def test_predict_is_computed_once(self):
        tensor = varied_tensor(3, "softmax")
        assert predict(tensor) is predict(tensor)
        assert predict(tensor) is tensor.predictions

    def test_select_fills_the_memo_and_restrict_builds_a_fresh_tensor(self):
        tensor = varied_tensor(4, "softmax")
        assert not {"predictions", "confidences"} & vars(tensor).keys()
        select(tensor)
        assert {"predictions", "confidences"} <= vars(tensor).keys()
        sub = tensor.restrict(["p03", "p01"])
        assert not {"predictions", "confidences"} & vars(sub).keys()
        fresh = ScoreTensor(("p03", "p01"), tensor.example_ids, tensor.choices,
                            tensor.logprobs[[3, 1]])
        for field in fields(ScoreTensor):
            assert np.array_equal(getattr(sub, field.name), getattr(fresh, field.name))
        assert not sub.logprobs.flags.writeable
        assert np.array_equal(predict(sub).indices, predict(tensor).indices[[3, 1]])
        assert np.array_equal(confidence_scores(sub), confidence_scores(tensor)[[3, 1]])
        with pytest.raises(ValueError):
            confidence_scores(sub)[0] = 1.0
        with pytest.raises(ValidationError, match="unknown prompt_id 'p09'"):
            tensor.restrict(["p01", "p09"])
        with pytest.raises(ValidationError, match="duplicate prompt_id 'p01'"):
            tensor.restrict(["p01", "p03", "p01"])

    def test_probabilities_are_kept_read_only(self):
        tensor = varied_tensor(3, "raw")
        assert "probabilities" not in vars(tensor)
        probs = tensor.probabilities
        assert probs is tensor.probabilities and not probs.flags.writeable
        assert probs.tobytes() == np.exp(tensor.logprobs).tobytes()

    @pytest.mark.parametrize("c,dtype", [(2, np.uint8), (255, np.uint8), (256, np.uint16)])
    def test_indices_leave_room_for_one_more_value(self, c, dtype):
        indices = np.array([[0, c - 1, c // 2]])
        matrix = PredictionMatrix(("p0",), ("e0", "e1", "e2"),
                                  tuple(f"c{j}" for j in range(c)), indices)
        held = matrix.indices
        assert held.dtype == dtype == np.min_scalar_type(c) and np.array_equal(held, indices)
        assert held.flags.c_contiguous and not held.flags.writeable

    def test_returned_confidences_cannot_be_changed(self):
        tensor = varied_tensor(2, "softmax")
        first = confidence_scores(tensor)
        before = first.copy()
        with pytest.raises(ValueError):
            first[0] = 123.0
        assert np.array_equal(confidence_scores(tensor), before)

    def test_memoised_predictions_keep_the_tie_rules(self):
        # choices 0 and 1 tie within p00 and p01: argmax takes the earliest,
        # so the vote is 2-1 for choice 0
        tensor = raw_tensor([[[-1.0, -1.0, -2.0]], [[-1.0, -1.0, -3.0]], [[-2.0, -1.0, -1.5]]])
        assert predict(tensor).indices[:, 0].tolist() == [0, 0, 1]
        report = select(tensor, EnsembleConfig("majority_vote"), no_filter=True)
        assert report.pseudo_labels == ("0",)
        assert predict(tensor).indices[:, 0].tolist() == [0, 0, 1]


def oracle_split(prompt_ids, confidences):
    """Independent exhaustive two-cluster split minimizing within-cluster SSE."""
    values = np.asarray(confidences, dtype=np.float64)
    p = len(prompt_ids)
    if p <= 2 or np.all(values == values[0]):
        return tuple(sorted(prompt_ids)), ()
    order = sorted(range(p), key=lambda i: (values[i], prompt_ids[i]))
    svals = values[order]
    best_split, best_sse = None, np.inf
    for split in range(1, p):
        lo, hi = svals[:split], svals[split:]
        sse = np.sum((lo - lo.mean()) ** 2) + np.sum((hi - hi.mean()) ** 2)
        if sse < best_sse:
            best_split, best_sse = split, sse
    kept = tuple(sorted(prompt_ids[i] for i in order[best_split:]))
    discarded = tuple(sorted(prompt_ids[i] for i in order[:best_split]))
    return kept, discarded


class TestFilterPrompts:
    def test_two_obvious_clusters(self):
        ids = ["a", "b", "c", "d", "e"]
        report = filter_prompts(ids, [1.0, 1.1, 0.9, 5.0, 5.2])
        assert report.kept == ("d", "e")
        assert report.discarded == ("a", "b", "c")
        assert report.cluster_means[0] == pytest.approx(1.0)
        assert report.cluster_means[1] == pytest.approx(5.1)

    def test_degenerate_sizes_keep_everything(self):
        report = filter_prompts(["only"], [3.0])
        assert report.kept == ("only",) and report.discarded == ()
        report = filter_prompts(["a", "b"], [0.0, 9.0])
        assert report.kept == ("a", "b") and report.discarded == ()

    def test_all_equal_keeps_everything(self):
        report = filter_prompts(["a", "b", "c", "d"], [2.0] * 4)
        assert report.kept == ("a", "b", "c", "d")
        assert report.discarded == ()
        assert report.cluster_means == (2.0, 2.0)

    def test_permutation_invariant(self):
        ids = [f"p{i}" for i in range(8)]
        values = [0.2, 0.3, 0.25, 4.0, 4.2, 0.21, 3.9, 0.28]
        base = filter_prompts(ids, values)
        rng = np.random.default_rng(1)
        for _ in range(20):
            perm = rng.permutation(8)
            report = filter_prompts(
                [ids[i] for i in perm], [values[i] for i in perm]
            )
            assert report.kept == base.kept
            assert report.discarded == base.discarded

    def test_matches_exhaustive_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = int(rng.integers(3, 15))
            values = rng.uniform(0, 10, size=p)
            ids = [f"p{i:02d}" for i in range(p)]
            report = filter_prompts(ids, values)
            kept, discarded = oracle_split(ids, values)
            assert report.kept == kept
            assert report.discarded == discarded

    def test_validation(self):
        with pytest.raises(ValidationError):
            filter_prompts([], [])
        with pytest.raises(ValidationError):
            filter_prompts(["a"], [1.0, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            filter_prompts(["a", "b", "c"], [1.0, np.nan, 2.0])

    def test_report_rejects_interleaved_clusters(self):
        with pytest.raises(ValidationError, match="interleave"):
            ConfidenceReport(
                confidences={"a": 1.0, "b": 2.0},
                kept=("a",),
                discarded=("b",),
                cluster_means=(2.0, 1.0),
            )
        with pytest.raises(ValidationError, match=r"both kept and discarded: \['a'\]"):
            ConfidenceReport(
                confidences={"a": 2.0, "b": 1.0},
                kept=("a",),
                discarded=("a", "b"),
                cluster_means=(1.5, 2.0),
            )
        with pytest.raises(ValidationError, match="kept"):
            ConfidenceReport(
                confidences={}, kept=(), discarded=(), cluster_means=(0.0, 0.0)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_partition_property(self, values):
        ids = [f"p{i:03d}" for i in range(len(values))]
        report = filter_prompts(ids, values)
        assert sorted(report.kept + report.discarded) == sorted(ids)
        if report.discarded:
            kept_min = min(report.confidences[p] for p in report.kept)
            disc_max = max(report.confidences[p] for p in report.discarded)
            assert kept_min >= disc_max
            assert report.cluster_means[1] >= report.cluster_means[0]


class TestEnsembles:
    def test_logprob_mean_hand_case(self):
        tensor = raw_tensor([[[-1.0, -2.0]], [[-3.0, -1.0]]])
        scores, _ = ensemble_vote(tensor, EnsembleConfig("logprob_mean"))
        assert scores.tolist() == [[-2.0, -1.5]]
        assert ensemble_predict(tensor, EnsembleConfig("logprob_mean")).tolist() == [1]

    def test_prob_and_logprob_means_can_disagree(self):
        # one overconfident dissenter sways the probability mean, while the
        # log mean punishes its near-zero alternative
        probs = np.array([[[0.99, 0.01]], [[0.25, 0.75]], [[0.25, 0.75]]])
        tensor = prob_tensor(probs)
        lp = ensemble_predict(tensor, EnsembleConfig("logprob_mean"))
        pm = ensemble_predict(tensor, EnsembleConfig("prob_mean"))
        mv = ensemble_predict(tensor, EnsembleConfig("majority_vote"))
        assert lp.tolist() == [0]
        assert pm.tolist() == [1]
        assert mv.tolist() == [1]

    def test_majority_vote_counts(self):
        probs = np.array(
            [
                [[0.9, 0.1], [0.2, 0.8]],
                [[0.8, 0.2], [0.3, 0.7]],
                [[0.1, 0.9], [0.6, 0.4]],
            ]
        )
        tensor = prob_tensor(probs)
        votes, _ = ensemble_vote(tensor, EnsembleConfig("majority_vote"))
        assert votes.tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_majority_tie_breaks_on_summed_logprob(self):
        # two prompts each way; summed log-probability favors choice 1
        probs = np.array(
            [[[0.6, 0.4]], [[0.6, 0.4]], [[0.05, 0.95]], [[0.05, 0.95]]]
        )
        tensor = prob_tensor(probs)
        pred = ensemble_predict(tensor, EnsembleConfig("majority_vote"))
        assert pred.tolist() == [1]

    def test_majority_double_tie_takes_earliest_choice(self):
        probs = np.array([[[0.6, 0.4]], [[0.4, 0.6]]])
        tensor = prob_tensor(probs)
        pred = ensemble_predict(tensor, EnsembleConfig("majority_vote"))
        # votes 1-1 and equal summed log-probabilities
        assert pred.tolist() == [0]

    def test_an_untied_vote_wins_even_when_summed_logprobs_overflow(self):
        # both prompts vote for choice 1, whose summed log-score is -inf
        tensor = raw_tensor([[[-1.5e308, -1e308, -1.6e308]]] * 2)
        with np.errstate(over="ignore"):
            pred = ensemble_predict(tensor, EnsembleConfig("majority_vote"))
        assert pred.tolist() == [1]

    def test_single_prompt_ensemble_is_its_own_argmax(self):
        tensor, _ = synthetic_tensor(p=1, n=12, seed=4)
        own = predict(tensor).indices[0]
        for strategy in STRATEGIES:
            assert np.array_equal(
                ensemble_predict(tensor, EnsembleConfig(strategy)), own
            )

    def test_prompt_order_never_changes_pseudo_labels(self):
        tensor, _ = synthetic_tensor(p=5, n=25, seed=9)
        rng = np.random.default_rng(0)
        for strategy in STRATEGIES:
            base = ensemble_predict(tensor, EnsembleConfig(strategy))
            for _ in range(10):
                perm = rng.permutation(5)
                shuffled = tensor.restrict([tensor.prompt_ids[i] for i in perm])
                assert np.array_equal(
                    ensemble_predict(shuffled, EnsembleConfig(strategy)), base
                )

    def test_empty_prompt_axis_rejected(self):
        tensor = raw_tensor(np.zeros((1, 2, 2)))
        restricted = tensor.restrict([])
        with pytest.raises(ValidationError):
            ensemble_predict(restricted, EnsembleConfig())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError, match="strategy"):
            EnsembleConfig("median")


class TestPseudoAccuracy:
    def matrix(self):
        return PredictionMatrix(
            ("p0", "p1"),
            ("e0", "e1", "e2"),
            ("no", "yes"),
            np.array([[0, 1, 1], [1, 1, 0]]),
        )

    def test_matches_hand_counts(self):
        acc = pseudo_accuracy(self.matrix(), ["yes", "yes", "no"])
        assert acc == {"p0": pytest.approx(1 / 3), "p1": pytest.approx(1.0)}

    def test_identity_and_disjoint(self):
        matrix = self.matrix()
        assert pseudo_accuracy(matrix, ["no", "yes", "yes"])["p0"] == 1.0
        assert pseudo_accuracy(matrix, ["yes", "no", "no"])["p0"] == 0.0

    def test_index_array_input(self):
        acc_str = pseudo_accuracy(self.matrix(), ["no", "yes", "no"])
        acc_idx = pseudo_accuracy(self.matrix(), np.array([0, 1, 0]))
        assert acc_str == acc_idx

    def test_prompt_subset(self):
        acc = pseudo_accuracy(self.matrix(), ["no", "yes", "no"], prompt_ids=["p1"])
        assert set(acc) == {"p1"}

    def test_validation(self):
        with pytest.raises(ValidationError, match="length"):
            pseudo_accuracy(self.matrix(), ["no", "yes"])
        with pytest.raises(ValidationError, match="choices"):
            pseudo_accuracy(self.matrix(), ["no", "yes", "maybe"])
        with pytest.raises(ValidationError, match="p9"):
            pseudo_accuracy(self.matrix(), ["no", "yes", "no"], prompt_ids=["p1", "p9"])

    def test_equals_per_row_mean(self):
        rng = np.random.default_rng(3)
        indices = rng.integers(0, 3, size=(9, 37))
        matrix = PredictionMatrix(
            tuple(f"p{i}" for i in range(9)), tuple(f"e{k}" for k in range(37)),
            ("a", "b", "c"), indices,
        )
        targets = rng.integers(0, 3, size=37)
        wanted = ["p4", "p0", "p8", "p4"]
        acc = pseudo_accuracy(matrix, targets, prompt_ids=wanted)
        assert list(acc) == ["p4", "p0", "p8"]
        for pid in wanted:
            assert acc[pid] == float(np.mean(indices[int(pid[1:])] == targets))


class TestSelect:
    def test_picks_highest_quality_prompt(self):
        tensor, _ = synthetic_tensor(
            p=3, n=400, seed=3, qualities=[0.9, 0.6, 0.55]
        )
        report = select(tensor)
        assert report.selected == "p00"
        assert report.strategy == "logprob_mean"
        assert report.example_ids == tensor.example_ids
        assert len(report.pseudo_labels) == 400

    def test_identical_prompts_tie_to_smallest_id(self):
        row = np.log(np.array([[0.8, 0.2], [0.3, 0.7], [0.9, 0.1]]))
        tensor = raw_tensor(np.stack([row, row, row]), normalized=True)
        report = select(tensor)
        accs = set(report.pseudo_acc.values())
        assert accs == {1.0}
        assert report.selected == "p00"

    def test_accuracy_tie_broken_by_confidence(self):
        sharp = np.log(np.array([[0.9, 0.1], [0.1, 0.9]]))
        soft = np.log(np.array([[0.6, 0.4], [0.4, 0.6]]))
        tensor = raw_tensor(np.stack([soft, sharp]), normalized=True)
        report = select(tensor)
        # both agree with the pseudo-labels perfectly; p01 is more decisive
        assert report.pseudo_acc["p00"] == report.pseudo_acc["p01"] == 1.0
        assert report.selected == "p01"

    def test_no_filter_keeps_everything(self):
        qualities = [0.9, 0.85, 0.8, 0.3, 0.25]
        tensor, _ = synthetic_tensor(p=5, n=120, seed=1, qualities=qualities)
        filtered = select(tensor)
        unfiltered = select(tensor, no_filter=True)
        assert unfiltered.confidence.discarded == ()
        assert set(unfiltered.confidence.kept) == set(tensor.prompt_ids)
        assert set(filtered.confidence.kept) | set(filtered.confidence.discarded) == \
            set(tensor.prompt_ids)

    def test_score_all_prompts_reports_discarded_without_eligibility(self):
        qualities = [0.92, 0.88, 0.86, 0.3, 0.28]
        tensor, _ = synthetic_tensor(p=5, n=150, seed=6, qualities=qualities)
        report = select(tensor, score_all_prompts=True)
        assert set(report.pseudo_acc) == set(tensor.prompt_ids)
        assert report.selected in report.confidence.kept
        plain = select(tensor)
        assert set(plain.pseudo_acc) == set(plain.confidence.kept)
        assert plain.selected == report.selected

    def test_selection_invariant_to_prompt_order(self):
        tensor, _ = synthetic_tensor(p=6, n=60, seed=12)
        base = select(tensor)
        rng = np.random.default_rng(5)
        for _ in range(15):
            perm = rng.permutation(6)
            shuffled = tensor.restrict([tensor.prompt_ids[i] for i in perm])
            report = select(shuffled)
            assert report.selected == base.selected
            assert report.confidence.kept == base.confidence.kept
            assert report.pseudo_labels == base.pseudo_labels

    def test_report_json_is_deterministic(self):
        tensor, _ = synthetic_tensor(p=4, n=30, seed=2)
        assert select(tensor).to_json() == select(tensor).to_json()

    def test_report_validation(self):
        conf = ConfidenceReport(
            confidences={"a": 1.0}, kept=("a",), discarded=(), cluster_means=(1.0, 1.0)
        )
        with pytest.raises(ValidationError, match="not in the kept set"):
            SelectionReport(
                confidence=conf, pseudo_labels=("x",), pseudo_acc={"a": 0.5},
                selected="b", strategy="logprob_mean",
            )
        with pytest.raises(ValidationError, match="out of"):
            SelectionReport(
                confidence=conf, pseudo_labels=("x",), pseudo_acc={"a": 1.5},
                selected="a", strategy="logprob_mean",
            )
