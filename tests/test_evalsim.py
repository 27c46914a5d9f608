"""Gold evaluation and the synthetic robustness/strategy simulations."""

import json
import re

import numpy as np
import pytest
from scipy.stats import spearmanr

from zps import (
    ConfidenceReport,
    EnsembleConfig,
    EvalReport,
    PredictionMatrix,
    RobustnessSpec,
    STRATEGIES,
    SelectionReport,
    ValidationError,
    compare_strategies,
    default_robustness_spec,
    evaluate,
    format_robustness_table,
    format_strategy_table,
    load_robustness_spec,
    predict,
    select,
    simulate_robustness,
)

from .helpers import synthetic_tensor


def report_with(pseudo_acc, preds, pseudo_labels=None):
    """SelectionReport wired to the given prediction matrix."""
    kept = tuple(sorted(pseudo_acc))
    return SelectionReport(
        confidence=ConfidenceReport(
            confidences={pid: 1.0 for pid in kept},
            kept=kept,
            discarded=(),
            cluster_means=(1.0, 1.0),
        ),
        pseudo_labels=tuple(pseudo_labels or [preds.choices[0]] * len(preds.example_ids)),
        pseudo_acc=pseudo_acc,
        selected=kept[0],
        strategy="logprob_mean",
        example_ids=preds.example_ids,
    )


def matrix_from_rows(rows, choices=("0", "1")):
    rows = np.asarray(rows)
    return PredictionMatrix(
        prompt_ids=tuple(f"p{i:02d}" for i in range(rows.shape[0])),
        example_ids=tuple(f"e{k:04d}" for k in range(rows.shape[1])),
        choices=tuple(choices),
        indices=rows,
    )


def average_ranks(values):
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman_oracle(a, b):
    ra, rb = average_ranks(a), average_ranks(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0:
        return None
    return float((ra * rb).sum() / denom)


class TestEvaluate:
    def test_perfect_prompts_score_one(self):
        tensor, planted = synthetic_tensor(p=3, n=50, seed=1, qualities=[1.0, 1.0, 1.0])
        selection = select(tensor)
        report = evaluate(selection, predict(tensor), planted)
        assert set(report.per_prompt_accuracy.values()) == {1.0}
        assert report.pseudo_label_accuracy == 1.0
        assert report.selected_accuracy == 1.0
        assert report.mean_candidate_accuracy == 1.0
        assert report.median_candidate_accuracy == 1.0

    def test_hand_computed_accuracies(self):
        preds = matrix_from_rows([[0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]])
        gold = {"e0000": "0", "e0001": "1", "e0002": "0", "e0003": "0"}
        selection = report_with(
            {"p00": 0.9, "p01": 0.5, "p02": 0.1}, preds,
            pseudo_labels=("0", "1", "0", "1"),
        )
        report = evaluate(selection, preds, gold)
        assert report.per_prompt_accuracy == {
            "p00": 0.75, "p01": 0.75, "p02": 0.25,
        }
        assert report.mean_candidate_accuracy == pytest.approx((0.75 + 0.75 + 0.25) / 3)
        assert report.median_candidate_accuracy == 0.75
        assert report.selected == "p00"
        assert report.selected_accuracy == 0.75
        # pseudo labels (0,1,0,1) vs gold (0,1,0,0)
        assert report.pseudo_label_accuracy == 0.75

    def test_spearman_matches_average_rank_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            p = int(rng.integers(2, 12))
            # quantized to force frequent ties
            pseudo = rng.integers(0, 5, size=p) / 4.0
            true = rng.integers(0, 5, size=p) / 4.0
            preds = matrix_from_rows(np.zeros((p, 4), dtype=int))
            gold = {f"e{k:04d}": ("0" if true_k else "1") for k, true_k in enumerate([1, 1, 1, 1])}
            # wire per-prompt accuracy through prediction rows: row i matches
            # gold on round(true[i]*4) of 4 examples
            rows = np.ones((p, 4), dtype=int)
            for i in range(p):
                rows[i, : int(round(true[i] * 4))] = 0
            preds = matrix_from_rows(rows)
            gold = {f"e{k:04d}": "0" for k in range(4)}
            selection = report_with(
                {f"p{i:02d}": float(pseudo[i]) for i in range(p)}, preds
            )
            report = evaluate(selection, preds, gold)
            true_acc = [np.mean(rows[i] == 0) for i in range(p)]
            expected = spearman_oracle(pseudo, true_acc)
            if expected is None:
                assert report.spearman_pseudo_vs_true is None
            else:
                assert report.spearman_pseudo_vs_true == pytest.approx(expected, abs=1e-12)
                assert report.spearman_pseudo_vs_true == spearmanr(pseudo, true_acc).statistic

    def test_spearman_none_when_degenerate(self):
        preds = matrix_from_rows([[0, 1]])
        selection = report_with({"p00": 0.5}, preds)
        report = evaluate(selection, preds, {"e0000": "0", "e0001": "0"})
        assert report.spearman_pseudo_vs_true is None

        preds2 = matrix_from_rows([[0, 1], [0, 1]])
        selection2 = report_with({"p00": 0.5, "p01": 0.5}, preds2)
        report2 = evaluate(selection2, preds2, {"e0000": "0", "e0001": "0"})
        assert report2.spearman_pseudo_vs_true is None

    def test_ranking_sorted_by_pseudo_accuracy_then_id(self):
        preds = matrix_from_rows([[0, 0], [0, 0], [0, 0]])
        gold = {"e0000": "0", "e0001": "0"}
        selection = report_with({"p00": 0.5, "p01": 0.9, "p02": 0.5}, preds)
        report = evaluate(selection, preds, gold)
        assert [pid for pid, _, _ in report.ranking()] == ["p01", "p00", "p02"]
        doc = report.to_json_dict()
        assert [r["prompt_id"] for r in doc["ranking"]] == ["p01", "p00", "p02"]

    def test_example_permutation_leaves_accuracies_alone(self):
        tensor, planted = synthetic_tensor(p=4, n=40, seed=6)
        base = evaluate(select(tensor), predict(tensor), planted)

        rng = np.random.default_rng(0)
        perm = rng.permutation(40)
        from .helpers import raw_tensor
        shuffled = raw_tensor(
            tensor.logprobs[:, perm, :],
            normalized=True,
            prompt_ids=tensor.prompt_ids,
            example_ids=[tensor.example_ids[k] for k in perm],
            choices=tensor.choices,
        )
        moved = evaluate(select(shuffled), predict(shuffled), planted)
        assert moved.per_prompt_accuracy == base.per_prompt_accuracy
        assert moved.pseudo_label_accuracy == base.pseudo_label_accuracy
        assert moved.selected == base.selected

    def test_validation_errors(self):
        preds = matrix_from_rows([[0, 1]])
        selection = report_with({"p00": 0.5}, preds)
        with pytest.raises(ValidationError, match="missing"):
            evaluate(selection, preds, {"e0000": "0"})
        with pytest.raises(ValidationError, match="not among"):
            evaluate(selection, preds, {"e0000": "0", "e0001": "zebra"})
        other = matrix_from_rows([[0, 1, 0]])
        with pytest.raises(ValidationError, match="different examples"):
            evaluate(selection, other, {"e0000": "0", "e0001": "0", "e0002": "0"})
        elsewhere = report_with({"p9": 0.5}, preds)
        with pytest.raises(ValidationError, match="selected prompt 'p9'"):
            evaluate(elsewhere, preds, {"e0000": "0", "e0001": "1"})

    @pytest.mark.parametrize("override,match", [
        (dict(per_prompt_accuracy={"p00": 0.5, "p01": 1.5}), r"accuracy for 'p01' out of \[0,1\]"),
        (dict(pseudo_label_accuracy=-0.25), r"accuracy for 'pseudo labels' out of \[0,1\]"),
        (dict(selected="p9"), "selected prompt 'p9' has no accuracy"),
        (dict(selected_accuracy=0.75), "selected_accuracy disagrees"),
    ])
    def test_report_invariants(self, override, match):
        fields = dict(per_prompt_accuracy={"p00": 0.5}, pseudo_acc={"p00": 0.5},
                      mean_candidate_accuracy=0.5, median_candidate_accuracy=0.5,
                      selected="p00", selected_accuracy=0.5, pseudo_label_accuracy=0.5,
                      spearman_pseudo_vs_true=None)
        EvalReport(**fields)
        with pytest.raises(ValidationError, match=match):
            EvalReport(**{**fields, **override})

    def test_pseudo_label_outside_the_choices_is_refused(self):
        preds = matrix_from_rows([[0, 1, 1]])
        gold = {"e0000": "0", "e0001": "1", "e0002": "1"}
        for labels, bad in [(("0", "maybe", "1"), "maybe"), (("1", "1", "no"), "no")]:
            selection = report_with({"p00": 0.5}, preds, pseudo_labels=labels)
            with pytest.raises(ValidationError,
                               match=rf"^label '{bad}' is not among the choices \['0', '1'\]$"):
                evaluate(selection, preds, gold)

    @pytest.mark.parametrize("pseudo_labels", [["0"], ["0", "1", "1"]])
    def test_pseudo_labels_of_another_length_are_validation_error(self, pseudo_labels):
        preds = matrix_from_rows([[0, 1]])
        selection = report_with({"p00": 0.5}, preds, pseudo_labels=pseudo_labels)
        with pytest.raises(ValidationError, match="different examples"):
            evaluate(selection, preds, {"e0000": "0", "e0001": "1"})

    def test_pseudo_label_outside_choices_is_validation_error(self):
        preds = matrix_from_rows([[0, 1]])
        selection = report_with({"p00": 0.5}, preds, pseudo_labels=["0", "zebra"])
        with pytest.raises(ValidationError, match="zebra"):
            evaluate(selection, preds, {"e0000": "0", "e0001": "1"})


class TestRobustnessSpec:
    def good_kwargs(self):
        return dict(
            base_qualities=(0.7, 0.75),
            adversarial_quality=(0.4, 0.5),
            ratios=(0.0, 0.5, 1.0),
            seeds=(0, 1),
            n_examples=10,
        )

    def test_accepts_boundary_ratios(self):
        spec = RobustnessSpec(**self.good_kwargs())
        assert spec.ratios == (0.0, 0.5, 1.0)
        assert spec.strategy == "logprob_mean"
        assert spec.choices == 2

    @pytest.mark.parametrize(
        "override,match",
        [
            (dict(base_qualities=()), "base_qualities"),
            (dict(base_qualities=(1.2,)), "base qualities"),
            (dict(adversarial_quality=(0.6, 0.4)), "adversarial_quality"),
            (dict(adversarial_quality=(-0.1, 0.5)), "adversarial_quality"),
            (dict(ratios=()), "ratios"),
            (dict(ratios=(1.5,)), "ratios"),
            (dict(seeds=()), "seeds"),
            (dict(n_examples=0), "n_examples"),
            (dict(strategy="vibes"), "strategy"),
            (dict(choices=1), "choices"),
            (dict(n_examples=2_500_001), "at most 10000000"),
            (dict(n_examples=10**12, choices=10**6), "at most 10000000"),
        ],
    )
    def test_rejects_bad_fields(self, override, match):
        with pytest.raises(ValidationError, match=match):
            RobustnessSpec(**{**self.good_kwargs(), **override})

    def test_population_at_the_cap_is_accepted(self):
        # Only constructed: a spec this large is never run here.
        spec = RobustnessSpec(**{**self.good_kwargs(), "n_examples": 2_500_000})
        assert len(spec.base_qualities) * spec.n_examples * spec.choices == 10_000_000

    def test_default_spec_shape(self):
        spec = default_robustness_spec()
        assert len(spec.base_qualities) == 10
        assert all(0.72 <= q <= 0.78 for q in spec.base_qualities)
        assert spec.adversarial_quality == (0.45, 0.55)
        assert spec.ratios == (0.1, 0.2, 0.5, 0.8)
        assert spec.seeds == (0, 1, 2, 3, 4)
        assert spec.n_examples == 500


class TestLoadRobustnessSpec:
    def test_round_trip_and_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        doc = {
            "base_qualities": [0.7, 0.8],
            "adversarial_quality": [0.4, 0.5],
            "ratios": [0.5],
            "seeds": [0],
            "n_examples": 25,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = load_robustness_spec(path)
        assert spec.base_qualities == (0.7, 0.8)
        assert spec.n_examples == 25
        assert spec.strategy == "logprob_mean" and spec.choices == 2

        doc["strategy"] = "majority_vote"
        doc["choices"] = 3
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = load_robustness_spec(path)
        assert spec.strategy == "majority_vote" and spec.choices == 3

    def test_null_optional_keys_take_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        doc = {"base_qualities": [0.7, 0.8], "adversarial_quality": [0.4, 0.5],
               "ratios": [0.5], "seeds": [0.0], "n_examples": 25.0,
               "strategy": None, "choices": None}
        path.write_text(json.dumps(doc), encoding="utf-8")
        spec = load_robustness_spec(path)
        assert spec.strategy == "logprob_mean" and spec.choices == 2
        assert spec.seeds == (0,) and spec.n_examples == 25
        assert type(spec.n_examples) is int

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({"base_qualities": [0.7], "surprise": 1}, "unknown"),
            ({"base_qualities": [0.7]}, "missing"),
            ("[]", "object"),
            ("{bad", "invalid JSON"),
        ],
    )
    def test_bad_files(self, tmp_path, doc, match):
        path = tmp_path / "spec.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match=match):
            load_robustness_spec(path)

    def test_spec_over_the_cap_is_malformed(self, tmp_path):
        path = tmp_path / "spec.json"
        doc = {"base_qualities": [0.7, 0.8], "adversarial_quality": [0.4, 0.5],
               "ratios": [0.5], "seeds": [0], "n_examples": 10**12, "choices": 10**6}
        path.write_text(json.dumps(doc), encoding="utf-8")
        malformed = re.escape(f"{path}: malformed spec: ")
        with pytest.raises(ValidationError, match=malformed + ".* at most"):
            load_robustness_spec(path)

    def test_negative_seed_is_malformed(self, tmp_path):
        # numpy refuses a negative seed only once a population is built
        path = tmp_path / "spec.json"
        doc = {"base_qualities": [0.7, 0.8], "adversarial_quality": [0.4, 0.5],
               "ratios": [0.5], "seeds": [0, -1], "n_examples": 25}
        path.write_text(json.dumps(doc), encoding="utf-8")
        malformed = re.escape(f"{path}: malformed spec: seeds must be")
        with pytest.raises(ValidationError, match=malformed + ".* >= 0"):
            load_robustness_spec(path)

    def test_malformed_values(self, tmp_path):
        path = tmp_path / "spec.json"
        doc = {
            "base_qualities": [0.7, 0.8],
            "adversarial_quality": [0.4, 0.5],
            "ratios": [0.5],
            "seeds": [0],
            "n_examples": "lots",
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValidationError, match="malformed"):
            load_robustness_spec(path)


def tiny_spec(**overrides):
    kwargs = dict(
        base_qualities=(0.65, 0.7, 0.75, 0.8),
        adversarial_quality=(0.45, 0.55),
        ratios=(0.25, 0.5),
        seeds=(0, 1, 2),
        n_examples=60,
    )
    kwargs.update(overrides)
    return RobustnessSpec(**kwargs)


class TestSimulateRobustness:
    def test_rows_follow_spec_and_cells_are_consistent(self):
        spec = tiny_spec()
        result = simulate_robustness(spec)
        assert [r.ratio for r in result.rows] == [0.25, 0.5]
        assert all(r.n_seeds == 3 for r in result.rows)
        assert len(result.cells) == 6
        for cell in result.cells:
            assert cell.zps_accuracy == cell.per_prompt_accuracy[cell.report.selected]
            assert 0.0 <= cell.pseudo_label_accuracy <= 1.0

    def test_deterministic_bit_for_bit(self):
        spec = tiny_spec()
        a = simulate_robustness(spec)
        b = simulate_robustness(spec)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)
        assert [c.zps_accuracy for c in a.cells] == [c.zps_accuracy for c in b.cells]
        assert [c.report.selected for c in a.cells] == [c.report.selected for c in b.cells]

    def test_cells_independent_of_ratio_order(self):
        forward = simulate_robustness(tiny_spec(ratios=(0.25, 0.5)))
        backward = simulate_robustness(tiny_spec(ratios=(0.5, 0.25)))
        key = lambda c: (c.ratio, c.seed)
        fwd = {key(c): c.zps_accuracy for c in forward.cells}
        bwd = {key(c): c.zps_accuracy for c in backward.cells}
        assert fwd == bwd

    def test_no_adversaries_equal_population_is_a_wash(self):
        # equal nominal quality leaves only winner's bias, which shrinks
        # with n; the selector must never do worse than the field
        spec = tiny_spec(
            base_qualities=(0.75,) * 6, ratios=(0.0,), seeds=(0, 1, 2, 3),
            n_examples=600,
        )
        row = simulate_robustness(spec).rows[0]
        assert row.zps_mean >= row.candidate_mean - 0.02
        assert row.zps_mean - row.candidate_mean <= 0.05

    def test_full_corruption_with_pinned_quality_is_a_wash(self):
        spec = tiny_spec(
            base_qualities=(0.7,) * 6,
            adversarial_quality=(0.6, 0.6),
            ratios=(1.0,),
            seeds=(0, 1, 2, 3),
            n_examples=600,
        )
        row = simulate_robustness(spec).rows[0]
        assert row.zps_mean >= row.candidate_mean - 0.02
        assert row.zps_mean - row.candidate_mean <= 0.05

    def test_single_seed_reports_zero_std(self):
        spec = tiny_spec(seeds=(7,))
        result = simulate_robustness(spec)
        assert all(r.zps_std == 0.0 and r.candidate_std == 0.0 for r in result.rows)

    def test_table_mentions_every_ratio(self):
        result = simulate_robustness(tiny_spec())
        table = format_robustness_table(result)
        assert "0.25" in table and "0.50" in table and "±" in table


class TestReusedCells:
    # a repeated ratio and a repeated seed, and a strategy other than the
    # default, so rows must be grouped by position and filtered by strategy
    SPEC = dict(
        base_qualities=(0.6, 0.65, 0.7, 0.75, 0.8, 0.85),
        ratios=(0.5, 0.25, 0.5),
        seeds=(3, 3, 1),
        strategy="majority_vote",
        choices=3,
    )

    def test_same_rows_and_cells_as_a_fresh_run(self):
        spec = tiny_spec(**self.SPEC)
        fresh = simulate_robustness(spec)
        reused = simulate_robustness(spec, compare_strategies(spec).cells)
        assert reused.to_json_dict() == fresh.to_json_dict()
        assert reused.cells == fresh.cells
        # each row, the repeated ratio's too, aggregates its own three seeds
        for i, row in enumerate(fresh.rows):
            accs = [c.zps_accuracy for c in fresh.cells[3 * i:3 * i + 3]]
            assert (row.zps_mean, row.zps_std) == (np.mean(accs), np.std(accs, ddof=1))

    def test_cells_of_another_spec_are_rejected(self):
        spec = tiny_spec(**self.SPEC)
        other = tiny_spec(**{**self.SPEC, "seeds": (3, 1, 3)})
        with pytest.raises(ValidationError, match="ratios x seeds"):
            simulate_robustness(spec, compare_strategies(other).cells)

    def test_a_dropped_cell_is_rejected(self):
        spec = tiny_spec(**self.SPEC)
        cells = compare_strategies(spec).cells
        kept = [c for c in cells if c.strategy == spec.strategy]
        with pytest.raises(ValidationError, match="ratios x seeds"):
            simulate_robustness(spec, [c for c in cells if c is not kept[4]])


class TestCompareStrategies:
    def test_one_row_per_strategy_in_fixed_order(self):
        spec = tiny_spec(ratios=(0.25,), seeds=(0, 1))
        result = compare_strategies(spec)
        assert tuple(r.strategy for r in result.strategy_rows) == STRATEGIES
        assert all(r.n_cells == 2 for r in result.strategy_rows)
        assert len(result.cells) == 2 * len(STRATEGIES)

    def test_strategies_share_the_exact_population(self):
        spec = tiny_spec(ratios=(0.5,), seeds=(3,))
        result = compare_strategies(spec)
        tables = [c.per_prompt_accuracy for c in result.cells]
        assert tables[0] == tables[1] == tables[2]

    def test_deterministic(self):
        spec = tiny_spec(ratios=(0.25,), seeds=(0,))
        a = compare_strategies(spec).to_json_dict()
        b = compare_strategies(spec).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_single_prompt_population_collapses_all_strategies(self):
        spec = tiny_spec(base_qualities=(0.7,), ratios=(0.0,), seeds=(0, 1))
        result = compare_strategies(spec)
        means = {r.strategy: r.pseudo_label_mean for r in result.strategy_rows}
        assert len(set(means.values())) == 1
        selected = {r.strategy: r.selected_mean for r in result.strategy_rows}
        assert len(set(selected.values())) == 1

    def test_table_mentions_every_strategy(self):
        spec = tiny_spec(ratios=(0.25,), seeds=(0,))
        table = format_strategy_table(compare_strategies(spec))
        for strategy in STRATEGIES:
            assert strategy in table
