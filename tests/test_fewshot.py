"""Pseudo-labeled sets and checkpoint selection."""

import json
import os
import re

import numpy as np
import pytest

from zps import (
    CheckpointPredictions,
    EnsembleConfig,
    PredictionMatrix,
    PseudoLabeledSet,
    ValidationError,
    build_pseudo_val,
    checkpoint_agreement,
    checkpoint_agreements,
    load_checkpoint_predictions,
    load_pseudo_labeled,
    predict,
    pseudo_accuracy,
    select_checkpoint,
    top_confidence_pseudo_train,
)

from zps.selection import ensemble_vote

from .helpers import normalized_tensor, prob_tensor, raw_tensor, synthetic_tensor

PROB_MEAN = EnsembleConfig("prob_mean")


def gap_tensor():
    # single prompt, prob gaps 0.8 / 0.1 / 0.4
    return prob_tensor([[[0.9, 0.1], [0.55, 0.45], [0.7, 0.3]]])


class TestPseudoLabeledSet:
    def test_entries_validated(self):
        with pytest.raises(ValidationError, match="duplicate example_id 'e0'"):
            PseudoLabeledSet(entries=(("e1", "1", 0.5), ("e0", "1", 0.5), ("e0", "0", 0.2)))
        with pytest.raises(ValidationError, match=">= 0"):
            PseudoLabeledSet(entries=(("e0", "1", -0.1),))
        with pytest.raises(ValidationError, match="finite"):
            PseudoLabeledSet(entries=(("e0", "1", float("nan")),))

    def test_labels_are_canonical_like_every_loader(self):
        ps = PseudoLabeledSet(entries=(("e0", True, 0.5), ("e1", 1, 0.5), ("e2", 0.5, 0.5)))
        assert ps.labels() == {"e0": "true", "e1": "1", "e2": "0.5"}
        for bad in (None, [1]):
            with pytest.raises(ValidationError, match="unsupported label type"):
                PseudoLabeledSet(entries=(("e0", bad, 0.5),))

    def test_accessors(self):
        ps = PseudoLabeledSet(entries=(("e1", "yes", 0.9), ("e0", "no", 0.3)))
        assert len(ps) == 2
        assert ps.example_ids == ("e1", "e0")
        assert ps.labels() == {"e1": "yes", "e0": "no"}

    def test_save_load_round_trip(self, tmp_path):
        ps = PseudoLabeledSet(entries=(("e1", "yes", 0.9), ("e0", "no", 0.25)))
        path = tmp_path / "pv.jsonl"
        ps.save(path)
        loaded = load_pseudo_labeled(path)
        assert loaded.entries == ps.entries
        assert loaded.provenance == "file:pv.jsonl"

    def test_loader_canonicalizes_labels(self, tmp_path):
        path = tmp_path / "pv.jsonl"
        path.write_text('{"example_id": "e0", "label": 1, "gap": 0.5}\n')
        assert load_pseudo_labeled(path).labels() == {"e0": "1"}

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_loader_refuses_an_empty_file(self, tmp_path, text):
        path = tmp_path / "pv.jsonl"
        path.write_text(text)
        found = f"^{re.escape(str(path))}: no pseudo-labeled examples found$"
        with pytest.raises(ValidationError, match=found):
            load_pseudo_labeled(path)
        assert len(PseudoLabeledSet(entries=())) == 0  # an empty set is still allowed

    @pytest.mark.parametrize(
        "line,match",
        [
            ('{"example_id": "e0", "label": "1"}', "expected keys"),
            ('{"example_id": "e0", "label": "1", "gap": true}', "number"),
            ('{"example_id": "e0", "label": "1", "gap": "x"}', "number"),
            ("not json", "invalid JSON"),
        ],
    )
    def test_loader_errors_carry_line_numbers(self, tmp_path, line, match):
        path = tmp_path / "pv.jsonl"
        path.write_text('{"example_id": "ok", "label": "1", "gap": 0.1}\n' + line + "\n")
        with pytest.raises(ValidationError, match=match) as excinfo:
            load_pseudo_labeled(path)
        assert ":2:" in str(excinfo.value)


class TestBuildPseudoVal:
    def test_orders_by_descending_gap(self):
        ps = build_pseudo_val(gap_tensor(), PROB_MEAN)
        assert ps.example_ids == ("e0000", "e0002", "e0001")
        gaps = [g for _, _, g in ps.entries]
        assert gaps == pytest.approx([0.8, 0.4, 0.1])
        assert all(lab == "0" for lab in ps.labels().values())

    def test_size_truncates_to_most_confident(self):
        ps = build_pseudo_val(gap_tensor(), PROB_MEAN, size=1)
        assert ps.example_ids == ("e0000",)
        full = build_pseudo_val(gap_tensor(), PROB_MEAN, size=3)
        assert full.example_ids == build_pseudo_val(gap_tensor(), PROB_MEAN).example_ids

    @pytest.mark.parametrize("c", range(2, 7))
    @pytest.mark.parametrize("kind", ["softmax", "rounded", "raw"])
    @pytest.mark.parametrize("strategy", ["logprob_mean", "prob_mean", "majority_vote"])
    def test_gaps_equal_sorted_ensemble_gaps(self, c, kind, strategy):
        rng = np.random.default_rng(c)
        arr = rng.normal(scale=1.5, size=(5, 40, c))
        if kind == "raw":
            tensor = raw_tensor(np.round(arr, 1))
        else:
            tensor = normalized_tensor(np.round(arr) if kind == "rounded" else arr)
        config = EnsembleConfig(strategy)
        ordered = np.sort(ensemble_vote(tensor, config)[0], axis=1)
        gaps = ordered[:, -1] - ordered[:, -2]
        ps = build_pseudo_val(tensor, config)
        order = np.argsort(-gaps, kind="stable")
        assert ps.example_ids == tuple(tensor.example_ids[k] for k in order)
        assert np.array_equal([g for _, _, g in ps.entries], gaps[order])

    def test_ties_keep_example_order(self):
        tensor = prob_tensor([[[0.7, 0.3], [0.7, 0.3], [0.7, 0.3]]])
        ps = build_pseudo_val(tensor, PROB_MEAN)
        assert ps.example_ids == ("e0000", "e0001", "e0002")

    def test_size_bounds(self):
        with pytest.raises(ValidationError, match="size"):
            build_pseudo_val(gap_tensor(), PROB_MEAN, size=0)
        with pytest.raises(ValidationError, match="size"):
            build_pseudo_val(gap_tensor(), PROB_MEAN, size=4)

    @pytest.mark.parametrize("size", [True, False, np.True_, 2.5, 2.0, "2", np.float64(2)])
    def test_size_that_is_not_an_int_is_refused(self, size):
        # True once read as 1; 2.5 got past the range check and failed as a
        # bare TypeError when the ranking was cut
        for build in (lambda: build_pseudo_val(gap_tensor(), PROB_MEAN, size=size),
                      lambda: top_confidence_pseudo_train(gap_tensor(), size, PROB_MEAN)):
            with pytest.raises(ValidationError) as excinfo:
                build()
            assert str(excinfo.value) == f"size must be an int, not {size!r}"

    @pytest.mark.parametrize("size", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_int_size_is_an_int(self, size):
        assert build_pseudo_val(gap_tensor(), PROB_MEAN, size=size) == \
            build_pseudo_val(gap_tensor(), PROB_MEAN, size=2)
        assert top_confidence_pseudo_train(gap_tensor(), size, PROB_MEAN) == \
            top_confidence_pseudo_train(gap_tensor(), 2, PROB_MEAN)

    def test_provenance_records_recipe(self):
        ps = build_pseudo_val(gap_tensor(), PROB_MEAN, size=2)
        assert "prob_mean" in ps.provenance
        assert "size=2" in ps.provenance

    def test_set_equals_one_built_through_the_entry_checks(self):
        tensor = raw_tensor(np.log([[[0.6, 0.4], [0.2, 0.8]], [[0.9, 0.1], [0.5, 0.5]]]),
                            choices=(7, True))
        for strategy in ("logprob_mean", "prob_mean", "majority_vote"):
            ps = build_pseudo_val(tensor, EnsembleConfig(strategy))
            checked = PseudoLabeledSet(entries=ps.entries, provenance=ps.provenance)
            assert ps == checked and ps.to_jsonl() == checked.to_jsonl()
            assert {type(lab) for _, lab, _ in ps.entries} == {str}
            assert {type(g) for _, _, g in ps.entries} == {float}

    def test_overflowing_prob_mean_gap_is_refused(self):
        # exp(1000) and exp(999) are both inf, so the gap is inf - inf
        tensor = raw_tensor([[[1000.0, 999.0], [0.0, -1.0]]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"confidence gap for 'e0000' must be "
                                                      r"finite and >= 0, got nan"):
                build_pseudo_val(tensor, PROB_MEAN)
            # a gap cut off by size is never checked, as before
            assert build_pseudo_val(tensor, PROB_MEAN, size=1).example_ids == ("e0001",)


class TestTopConfidencePseudoTrain:
    def test_takes_largest_gaps(self):
        ps = top_confidence_pseudo_train(gap_tensor(), 2, PROB_MEAN)
        assert ps.example_ids == ("e0000", "e0002")

    def test_top_k_sets_nest(self):
        tensor, _ = synthetic_tensor(p=4, n=30, seed=8)
        previous = set()
        for k in range(1, 31):
            ids = set(top_confidence_pseudo_train(tensor, k).example_ids)
            assert len(ids) == k
            assert previous <= ids
            previous = ids

    def test_k_bounds(self):
        # k is build_pseudo_val's size, and that one check names it
        with pytest.raises(ValidationError, match=r"size must be in \[1, 3\], got 0"):
            top_confidence_pseudo_train(gap_tensor(), 0)
        with pytest.raises(ValidationError, match=r"size must be in \[1, 3\], got 9"):
            top_confidence_pseudo_train(gap_tensor(), 9)


def write_checkpoint_file(path, table):
    """table: {ckpt: {prompt: [(example_id, pred), ...]}}"""
    lines = []
    for ckpt, per_prompt in table.items():
        for prompt, pairs in per_prompt.items():
            for example_id, pred in pairs:
                lines.append(
                    json.dumps(
                        {
                            "checkpoint_id": ckpt,
                            "prompt_id": prompt,
                            "example_id": example_id,
                            "pred": pred,
                        }
                    )
                )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCheckpointLoading:
    def test_grouping_and_file_order(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(
            path,
            {
                "step100": {
                    "pa": [("e0", "0"), ("e1", "1")],
                    "pb": [("e0", "1"), ("e1", "1")],
                },
                "step200": {
                    "pa": [("e0", "0"), ("e1", "0")],
                    "pb": [("e0", "0"), ("e1", "1")],
                },
            },
        )
        candidates = load_checkpoint_predictions(path, ["0", "1"])
        assert [c.checkpoint_id for c in candidates] == ["step100", "step200"]
        first = candidates[0].preds
        assert first.prompt_ids == ("pa", "pb")
        assert first.example_ids == ("e0", "e1")
        assert first.indices.tolist() == [[0, 1], [1, 1]]

    def test_ids_are_read_as_labels(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(path, {True: {1: [(True, 1), (0.5, 0)]}})
        candidate, = load_checkpoint_predictions(path, ["0", "1"])
        assert candidate.checkpoint_id == "true"
        assert candidate.preds.prompt_ids == ("1",)
        assert candidate.preds.example_ids == ("true", "0.5")
        pseudo_val = PseudoLabeledSet(entries=(("true", "1", 0.5),))
        assert checkpoint_agreement(candidate, pseudo_val) == 1.0

    def test_unknown_pred_label(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(path, {"c": {"p": [("e0", "maybe")]}})
        with pytest.raises(ValidationError, match="maybe"):
            load_checkpoint_predictions(path, ["0", "1"])

    def test_prompts_must_share_example_list(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(
            path,
            {"c": {"pa": [("e0", "0"), ("e1", "1")], "pb": [("e0", "0")]}},
        )
        with pytest.raises(ValidationError, match="different example lists"):
            load_checkpoint_predictions(path, ["0", "1"])

    def test_checkpoints_must_share_example_list(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(
            path,
            {
                "c1": {"pa": [("e0", "0"), ("e1", "1")]},
                "c2": {"pa": [("e0", "0"), ("e2", "1")]},
            },
        )
        candidates = load_checkpoint_predictions(path, ["0", "1"])
        pseudo = PseudoLabeledSet(entries=(("e0", "0", 1.0),))
        with pytest.raises(ValidationError, match="c2"):
            checkpoint_agreements(candidates, pseudo)

    def test_duplicate_example_rejected(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        write_checkpoint_file(path, {"c": {"pa": [("e0", "0"), ("e0", "1")]}})
        expected = f"{path}: checkpoint 'c': duplicate example_id 'e0'"
        with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
            load_checkpoint_predictions(path, ["0", "1"])

    def test_empty_and_malformed_files(self, tmp_path):
        path = tmp_path / "ckpts.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="no checkpoint"):
            load_checkpoint_predictions(path, ["0", "1"])
        path.write_text("garbage\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_checkpoint_predictions(path, ["0", "1"])
        path.write_text('{"checkpoint_id": "c"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="expected keys"):
            load_checkpoint_predictions(path, ["0", "1"])


def test_a_failed_save_leaves_the_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "pv.jsonl"
    old = PseudoLabeledSet(entries=(("e0", "0", 0.5),))
    old.save(path)

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        PseudoLabeledSet(entries=(("e1", "1", 0.25),)).save(path)
    assert load_pseudo_labeled(path).entries == old.entries
    assert [p.name for p in tmp_path.iterdir()] == ["pv.jsonl"]


def checkpoint_from_indices(ckpt_id, indices, example_ids, choices=("0", "1")):
    return CheckpointPredictions(
        checkpoint_id=ckpt_id,
        preds=PredictionMatrix(
            prompt_ids=tuple(f"p{i}" for i in range(len(indices))),
            example_ids=tuple(example_ids),
            choices=tuple(choices),
            indices=np.asarray(indices),
        ),
    )


class TestCheckpointSelection:
    def pseudo_val(self, labels):
        return PseudoLabeledSet(
            entries=tuple(
                (f"e{k}", lab, 1.0 - 0.01 * k) for k, lab in enumerate(labels)
            )
        )

    def test_agreement_counts_matches(self):
        cand = checkpoint_from_indices("c", [[0, 1, 1, 0]], [f"e{k}" for k in range(4)])
        ps = self.pseudo_val(["0", "1", "0", "0"])
        assert checkpoint_agreement(cand, ps) == 0.75

    def test_agreement_averages_over_prompts(self):
        cand = checkpoint_from_indices(
            "c", [[0, 1], [1, 1]], ["e0", "e1"]
        )
        ps = self.pseudo_val(["0", "1"])
        # prompt p0 matches 2/2, p1 matches 1/2
        assert checkpoint_agreement(cand, ps) == 0.75

    def test_agreement_equals_pseudo_accuracy_for_single_prompt(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            indices = rng.integers(0, 2, size=(1, n))
            labels = [str(int(v)) for v in rng.integers(0, 2, size=n)]
            example_ids = [f"e{k}" for k in range(n)]
            cand = checkpoint_from_indices("c", indices, example_ids)
            ps = PseudoLabeledSet(
                entries=tuple((e, lab, 1.0) for e, lab in zip(example_ids, labels))
            )
            via_checkpoint = checkpoint_agreement(cand, ps)
            via_matrix = pseudo_accuracy(cand.preds, labels)["p0"]
            assert via_checkpoint == via_matrix

    def test_missing_examples_error(self):
        cand = checkpoint_from_indices("c", [[0, 1]], ["e0", "e1"])
        ps = self.pseudo_val(["0", "1", "1"])
        with pytest.raises(ValidationError, match="lacks predictions"):
            checkpoint_agreement(cand, ps)

    def test_unknown_pseudo_label_error(self):
        cand = checkpoint_from_indices("c", [[0, 1]], ["e0", "e1"])
        ps = PseudoLabeledSet(entries=(("e0", "weird", 1.0), ("e1", "1", 0.5)))
        with pytest.raises(ValidationError, match="weird"):
            checkpoint_agreement(cand, ps)

    def test_select_best_and_singleton(self):
        example_ids = [f"e{k}" for k in range(10)]
        ps = self.pseudo_val(["0"] * 10)
        good = checkpoint_from_indices("good", [[0] * 9 + [1]], example_ids)
        bad = checkpoint_from_indices("bad", [[0] * 7 + [1] * 3], example_ids)
        assert select_checkpoint([bad, good], ps) == "good"
        assert select_checkpoint([bad], ps) == "bad"

    def test_ties_go_to_training_order(self):
        example_ids = ["e0", "e1"]
        ps = self.pseudo_val(["0", "1"])
        first = checkpoint_from_indices("early", [[0, 0]], example_ids)
        second = checkpoint_from_indices("late", [[1, 1]], example_ids)
        assert select_checkpoint([first, second], ps) == "early"
        assert select_checkpoint([second, first], ps) == "late"

    def test_coverage_mismatch_error(self):
        a = checkpoint_from_indices("a", [[0, 1]], ["e0", "e1"])
        b = checkpoint_from_indices("b", [[0, 1]], ["e0", "e2"])
        with pytest.raises(ValidationError, match="different example"):
            select_checkpoint([a, b], self.pseudo_val(["0", "1"]))
        with pytest.raises(ValidationError, match="at least one"):
            select_checkpoint([], self.pseudo_val(["0"]))

    def test_duplicate_ids_refused_before_scoring(self):
        a = checkpoint_from_indices("a", [[0, 1]], ["e0", "e1"])
        again = checkpoint_from_indices("a", [[1, 1]], ["e0", "e1"])
        with pytest.raises(ValidationError, match="unique"):
            checkpoint_agreements([a, again], self.pseudo_val(["0", "1"]))
        # a pseudo-val set neither could be scored on: the ids are checked first
        with pytest.raises(ValidationError, match="unique"):
            checkpoint_agreements([a, again], self.pseudo_val(["0", "1", "1"]))
