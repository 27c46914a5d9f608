"""End-to-end command-line behavior, run in process via main(argv)."""

import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import zps
from zps import RemoteBackend, ScoreCache
from zps.cli import TOKEN_ENV, main

from .helpers import (BAD_INPUT_CASES, INPUT_FILES, V3_CELL_SEGMENT, V4_BLOCK_SEGMENT, StubScorer,
                      read_segments, segment_bytes, write_bad_input)


def test_import_loads_no_scipy():
    # zps needs numpy alone: neither scipy nor an HTTP stack beyond the standard library.
    code = (
        "import sys, zps, zps.cli; print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy', 'requests', 'urllib3'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zps.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_http_stack():
    # http.client (and the ssl, email and socket it pulls in) is imported only
    # when a RemoteBackend is built.
    code = (
        "import sys, zps, zps.cli; print(sorted(m for m in ('http.client', 'ssl') "
        "if m in sys.modules)); zps.RemoteBackend('http://localhost:9/score', 'm'); "
        "print(sorted(m for m in ('http.client', 'ssl') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(zps.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "['http.client', 'ssl']"]


@pytest.fixture(autouse=True)
def no_ambient_token(monkeypatch):
    monkeypatch.delenv(TOKEN_ENV, raising=False)


def write_catalog(path, p=3):
    doc = {
        "task": {"task_id": "t", "fields": ["text"], "choices": ["0", "1"]},
        "prompts": [
            {
                "prompt_id": f"p{i:02d}",
                "template": "{{text}}" + "!" * i,
                "verbalizer": {"0": f"neg{i}", "1": f"pos{i}"},
            }
            for i in range(p)
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_examples(path, n=8, gold=True):
    rows = []
    for k in range(n):
        row = {"example_id": f"e{k:03d}", "fields": {"text": f"t{k}"}}
        if gold:
            row["gold_label"] = str(k % 2)
        rows.append(row)
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def write_profile(path, p=3, n=8, star="p00"):
    doc = {
        "qualities": {f"p{i:02d}": (0.95 if f"p{i:02d}" == star else 0.6) for i in range(p)},
        "planted_labels": {f"e{k:03d}": str(k % 2) for k in range(n)},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture
def workdir(tmp_path):
    write_catalog(tmp_path / "catalog.json")
    write_examples(tmp_path / "examples.jsonl")
    write_profile(tmp_path / "profile.json")
    return tmp_path


def select_args(d, *extra):
    return [
        "select",
        "--catalog", str(d / "catalog.json"),
        "--examples", str(d / "examples.jsonl"),
        "--synthetic-profile", str(d / "profile.json"),
        "--out", str(d / "report.json"),
        *extra,
    ]


class TestSelect:
    def test_happy_path_writes_artifact(self, workdir, capsys):
        assert main(select_args(workdir)) == 0
        out = capsys.readouterr().out
        assert "selected p00" in out
        doc = json.loads((workdir / "report.json").read_text())
        assert doc["config"]["command"] == "select"
        assert doc["config"]["seed"] == 0
        assert doc["config"]["api_token_present"] is False
        assert doc["report"]["selected"] == "p00"
        assert doc["report"]["strategy"] == "logprob_mean"

    def test_negative_miss_margin_scale_is_refused_before_scoring(self, workdir, capsys,
                                                                   monkeypatch):
        profile = workdir / "profile.json"
        profile.write_text(json.dumps({**json.loads(profile.read_text(encoding="utf-8")),
                                       "miss_margin_scale": -1}), encoding="utf-8")
        calls = []
        monkeypatch.setattr(zps.SyntheticBackend, "score_batch",
                            lambda backend, batch: calls.append(batch))
        assert main(select_args(workdir)) == 1
        assert (f"{profile}: miss_margin_scale must be a finite number >= 0, not -1.0"
                in capsys.readouterr().err)
        assert calls == [] and not (workdir / "report.json").exists()

    def test_input_hashes_recorded(self, workdir):
        main(select_args(workdir))
        doc = json.loads((workdir / "report.json").read_text())
        hashes = doc["config"]["input_hashes"]
        expected = hashlib.sha256((workdir / "catalog.json").read_bytes()).hexdigest()
        assert hashes["catalog"] == expected
        assert set(hashes) == {"catalog", "examples", "synthetic_profile"}

    def test_token_presence_flag_only(self, workdir, monkeypatch):
        monkeypatch.setenv(TOKEN_ENV, "hunter2")
        main(select_args(workdir))
        raw = (workdir / "report.json").read_text()
        assert "hunter2" not in raw
        assert json.loads(raw)["config"]["api_token_present"] is True

    def test_reruns_are_byte_identical(self, workdir):
        main(select_args(workdir))
        first = (workdir / "report.json").read_bytes()
        main(select_args(workdir))
        assert (workdir / "report.json").read_bytes() == first

    def test_no_filter_keeps_all_prompts(self, workdir):
        assert main(select_args(workdir, "--no-filter")) == 0
        doc = json.loads((workdir / "report.json").read_text())
        assert doc["report"]["confidence"]["discarded"] == []

    def test_score_all_prompts_reports_every_candidate(self, workdir):
        assert main(select_args(workdir, "--score-all-prompts")) == 0
        doc = json.loads((workdir / "report.json").read_text())
        assert set(doc["report"]["pseudo_acc"]) == {"p00", "p01", "p02"}

    @pytest.mark.parametrize("gap,offender", [
        ({"qualities": {"p00": 0.9}}, "prompt 'p01': no quality and no default_quality"),
        ({"planted_labels": {"e000": "0"}}, "example 'e001': no planted label among the choices"),
        ({"planted_labels": {f"e{k:03d}": "2" for k in range(8)}},
         "example 'e000': no planted label among the choices"),
    ])
    def test_profile_that_leaves_a_cell_unscored_is_refused_first(self, workdir, capsys, caplog,
                                                                  monkeypatch, gap, offender):
        import zps.cli as cli_module

        profile = workdir / "profile.json"
        profile.write_text(json.dumps({**json.loads(profile.read_text()), **gap}))
        monkeypatch.setattr(cli_module, "score_all", lambda *a, **k: pytest.fail("scored"))
        assert main(select_args(workdir, "--cache", str(workdir / "cache.bin"))) == 1
        assert capsys.readouterr().err == f"error: {profile}: {offender}\n"
        assert "failed:" not in caplog.text and not (workdir / "cache.bin").exists()

    def test_default_quality_covers_unrated_prompts(self, workdir):
        profile = workdir / "profile.json"
        doc = {**json.loads(profile.read_text()), "qualities": {"p00": 0.95},
               "default_quality": 0.6}
        profile.write_text(json.dumps(doc))
        assert main(select_args(workdir)) == 0

    def test_missing_catalog_is_input_error(self, workdir, capsys):
        args = select_args(workdir)
        args[args.index("--catalog") + 1] = str(workdir / "nope.json")
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_out_path_that_is_a_directory_is_input_error(self, workdir, capsys):
        args = select_args(workdir)
        args[args.index("--out") + 1] = str(workdir)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(workdir) in err
        assert list(workdir.parent.glob(f".{workdir.name}.*")) == []

    @pytest.mark.parametrize("out", ["new/deeper/report.json", "report.json"])
    def test_out_into_a_new_directory_or_the_working_one(self, workdir, monkeypatch, out):
        monkeypatch.chdir(workdir)
        args = select_args(workdir)
        args[args.index("--out") + 1] = out
        assert main(args) == 0
        assert json.loads((workdir / out).read_text())["report"]["selected"] == "p00"
        assert [p.name for p in (workdir / out).parent.iterdir()
                if p.name.startswith(".")] == []

    def test_unknown_flag_is_input_error(self, workdir, capsys):
        assert main(select_args(workdir, "--frobnicate")) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main([]) == 1

    def test_unexpected_crash_maps_to_internal_error(self, workdir, capsys, monkeypatch):
        import zps.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "select", boom)
        assert main(select_args(workdir)) == 3
        err = capsys.readouterr().err
        assert "RuntimeError" in err and "wires crossed" in err


class TestEvaluate:
    def eval_args(self, d, examples="examples.jsonl"):
        return [
            "evaluate",
            "--catalog", str(d / "catalog.json"),
            "--examples", str(d / examples),
            "--synthetic-profile", str(d / "profile.json"),
            "--out", str(d / "eval.json"),
        ]

    def test_ranking_table_and_artifact(self, workdir, capsys):
        assert main(self.eval_args(workdir)) == 0
        out = capsys.readouterr().out
        assert "true acc" in out and "selected" in out
        doc = json.loads((workdir / "eval.json").read_text())
        ranking = doc["report"]["ranking"]
        pseudo = [row["pseudo_accuracy"] for row in ranking]
        assert pseudo == sorted(pseudo, reverse=True)
        assert set(doc["report"]["per_prompt_accuracy"]) == {"p00", "p01", "p02"}

    def test_missing_gold_names_the_field(self, workdir, capsys):
        write_examples(workdir / "nogold.jsonl", gold=False)
        assert main(self.eval_args(workdir, "nogold.jsonl")) == 1
        assert "gold_label" in capsys.readouterr().err

    @pytest.mark.parametrize("gold_field", [None, "answer"])
    def test_missing_gold_is_refused_before_scoring(self, workdir, capsys, gold_field):
        catalog = json.loads((workdir / "catalog.json").read_text(encoding="utf-8"))
        if gold_field:
            catalog["task"]["gold_label_field"] = gold_field
        (workdir / "catalog.json").write_text(json.dumps(catalog), encoding="utf-8")
        write_examples(workdir / "nogold.jsonl", gold=False)
        cache = workdir / "cache.bin"
        args = self.eval_args(workdir, "nogold.jsonl") + ["--cache", str(cache)]
        assert main(args) == 1
        field = gold_field or "gold_label"
        assert (f"examples missing '{field}': ['e000', 'e001', 'e002', 'e003', 'e004']"
                in capsys.readouterr().err)
        assert not cache.exists()

    def test_partial_gold_lists_offenders(self, workdir, capsys):
        rows = [
            {"example_id": "e000", "fields": {"text": "a"}, "gold_label": "0"},
            {"example_id": "e001", "fields": {"text": "b"}},
        ]
        path = workdir / "partial.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
        write_profile(workdir / "profile.json", n=2)
        assert main(self.eval_args(workdir, "partial.jsonl")) == 1
        assert "e001" in capsys.readouterr().err


class TestPseudoVal:
    def test_jsonl_and_sidecar(self, workdir):
        out = workdir / "pv.jsonl"
        code = main([
            "pseudo-val",
            "--catalog", str(workdir / "catalog.json"),
            "--examples", str(workdir / "examples.jsonl"),
            "--synthetic-profile", str(workdir / "profile.json"),
            "--size", "5",
            "--out", str(out),
        ])
        assert code == 0
        rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(rows) == 5
        assert all({"example_id", "label", "gap"} == set(r) for r in rows)
        gaps = [r["gap"] for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        meta = json.loads((workdir / "pv.jsonl.meta.json").read_text())
        assert meta["size"] == 5
        assert meta["config"]["command"] == "pseudo-val"
        assert "pseudo_val" in meta["provenance"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(workdir, umask, mode):
    pv = workdir / "pv.jsonl"
    old = os.umask(umask)
    try:
        assert main(select_args(workdir)) == 0
        assert main(["pseudo-val", "--catalog", str(workdir / "catalog.json"),
                     "--examples", str(workdir / "examples.jsonl"), "--out", str(pv)]) == 0
        zps.load_pseudo_labeled(pv).save(workdir / "saved.jsonl")
    finally:
        os.umask(old)
    for name in ("report.json", "pv.jsonl", "pv.jsonl.meta.json", "saved.jsonl"):
        assert stat.S_IMODE((workdir / name).stat().st_mode) == mode, name


class TestSelectCheckpoint:
    PREDS = {"step100": ["0", "1", "1", "1"], "step200": ["0", "0", "0", "1"]}
    PV_ROWS = [{"example_id": f"e{k}", "label": "0", "gap": 1.0 - 0.1 * k} for k in range(4)]

    def run(self, d, pv_rows):
        (d / "pv.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in pv_rows), encoding="utf-8"
        )
        ck_rows = [
            {"checkpoint_id": ckpt, "prompt_id": "pa", "example_id": f"e{k}", "pred": pred}
            for ckpt, preds in self.PREDS.items()
            for k, pred in enumerate(preds)
        ]
        (d / "ckpts.jsonl").write_text(
            "\n".join(json.dumps(r) for r in ck_rows) + "\n", encoding="utf-8"
        )
        return main([
            "select-checkpoint",
            "--catalog", str(d / "catalog.json"),
            "--checkpoints", str(d / "ckpts.jsonl"),
            "--pseudo-val", str(d / "pv.jsonl"),
            "--out", str(d / "ck.json"),
        ])

    def test_winner_and_artifact(self, workdir, capsys):
        assert self.run(workdir, self.PV_ROWS) == 0
        assert "selected checkpoint step200" in capsys.readouterr().out
        doc = json.loads((workdir / "ck.json").read_text())
        assert doc["selected_checkpoint"] == "step200"
        assert doc["agreement"] == {"step100": 0.25, "step200": 0.75}

    def test_each_agreement_computed_once(self, workdir, monkeypatch):
        import zps.cli as cli_module
        import zps.fewshot as fewshot_module

        calls = []
        original = fewshot_module.checkpoint_agreement

        def counted(candidate, pseudo_val):
            calls.append(candidate.checkpoint_id)
            return original(candidate, pseudo_val)

        # Count calls made through either module's binding of the function.
        monkeypatch.setattr(fewshot_module, "checkpoint_agreement", counted)
        monkeypatch.setattr(cli_module, "checkpoint_agreement", counted, raising=False)
        assert self.run(workdir, self.PV_ROWS) == 0
        assert calls == ["step100", "step200"]

    def test_empty_pseudo_val_is_input_error(self, workdir, capsys):
        assert self.run(workdir, []) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "internal" not in err
        assert f"{workdir / 'pv.jsonl'}: no pseudo-labeled examples found" in err
        assert not (workdir / "ck.json").exists()


class TestScore:
    def score_args(self, d):
        return [
            "score",
            "--catalog", str(d / "catalog.json"),
            "--examples", str(d / "examples.jsonl"),
            "--synthetic-profile", str(d / "profile.json"),
            "--cache", str(d / "cache.jsonl"),
        ]

    def test_warms_then_serves_from_cache(self, workdir, capsys):
        assert main(self.score_args(workdir)) == 0
        first = capsys.readouterr().out
        assert "scored 48 values" in first  # 3 prompts x 8 examples x 2 choices
        assert "48 misses" in first
        assert main(self.score_args(workdir)) == 0
        second = capsys.readouterr().out
        assert "48 hits, 0 misses" in second

    def test_cache_flag_required(self, workdir, capsys):
        args = self.score_args(workdir)
        args = args[: args.index("--cache")]
        assert main(args) == 1
        assert "--cache" in capsys.readouterr().err

    def test_cache_path_that_is_a_directory_is_input_error(self, workdir, capsys):
        args = self.score_args(workdir)
        args[args.index("--cache") + 1] = str(workdir)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(workdir) in err

    def test_corrupt_cache_is_backend_trouble(self, workdir, capsys):
        (workdir / "cache.jsonl").write_text("garbage\n", encoding="utf-8")
        assert main(self.score_args(workdir)) == 2
        assert "backend error" in capsys.readouterr().err

    def test_older_cache_format_is_refused_not_rescored(self, workdir, capsys):
        text = '{"key": "%s", "logprob": -1.0}\n' % ("0" * 64)
        (workdir / "cache.jsonl").write_text(text, encoding="utf-8")
        assert main(self.score_args(workdir)) == 2
        err = capsys.readouterr().err
        assert "corrupt at segment 1 (byte 0)" in err and "delete or move" in err
        assert (workdir / "cache.jsonl").read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("data, where", [
        (b'{"key": "a", "logprobs": [-1.0, -2.0]}\n', "segment 1 (byte 0)"),
        (b'{"cells": []}', "segment 1 (byte 0)"),
        (b"ZPSC" + bytes(20) + segment_bytes([(bytes(64), [-1.0])]), "segment 1 (byte 0)"),
        (segment_bytes([(bytes(64), [-1.0])]) + segment_bytes([(bytes(64), [-1.0])])[:-1]
         + b"\0" + segment_bytes([(bytes(64), [-2.0])]), "segment 2 (byte 96)"),
        (segment_bytes([(bytes(64), [float("nan")])]), "segment 1 (byte 0)"),
        # as versions 3 and 4 wrote them: a cell segment, then a block segment
        (V3_CELL_SEGMENT + V4_BLOCK_SEGMENT, "segment 1 (byte 0)"),
        (V4_BLOCK_SEGMENT + segment_bytes([(bytes(64), [-1.0])]), "segment 1 (byte 0)"),
    ], ids=["v2", "other-json", "bad-header", "bad-crc-not-last", "non-finite", "v3-cells",
            "v4-block"])
    def test_every_unreadable_cache_gets_the_one_refusal(self, workdir, capsys, data, where):
        (workdir / "cache.jsonl").write_bytes(data)
        assert main(self.score_args(workdir)) == 2
        err = capsys.readouterr().err
        assert f"is corrupt at {where}; refusing to recompute silently" in err
        assert (workdir / "cache.jsonl").read_bytes() == data

    def test_cached_row_of_the_wrong_width_exits_two(self, workdir, capsys):
        # One cell's real key, stored with 3 values for a 2-choice task.
        assert main(self.score_args(workdir)) == 0
        key = read_segments(workdir / "cache.jsonl")[-1][-1][0]
        bad = workdir / "bad.cache"
        with ScoreCache(bad) as cache:
            cache.put_many([key], [[-1.0, -2.0, -3.0]])
        capsys.readouterr()
        assert main(select_args(workdir, "--cache", str(bad))) == 2
        err = capsys.readouterr().err
        assert f"cache {bad} holds 3 values for a cell with 2 candidates" in err


class TestRemoteErrors:
    def test_unreachable_endpoint_exits_two(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr("zps.backends.time.sleep", lambda s: None)
        args = select_args(workdir) + [
            "--backend", "remote",
            "--endpoint", "http://127.0.0.1:1/score",
            "--model", "m",
        ]
        assert main(args) == 2
        assert "backend error" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint", ["ftp://x/score", "scorer/score"])
    def test_endpoint_without_http_scheme_exits_one(self, workdir, capsys, endpoint):
        args = select_args(workdir) + [
            "--backend", "remote", "--endpoint", endpoint, "--model", "m",
        ]
        assert main(args) == 1
        assert "endpoint" in capsys.readouterr().err

    def test_backend_is_closed_after_success_and_failure(self, workdir, monkeypatch):
        monkeypatch.setattr("zps.backends.time.sleep", lambda s: None)
        closed = []
        close = RemoteBackend.close

        def recorded(backend):
            closed.append(backend.endpoint)
            close(backend)

        monkeypatch.setattr(RemoteBackend, "close", recorded)
        dead = "http://127.0.0.1:1/score"
        with StubScorer(drop_idle=True) as stub:
            codes = [main(select_args(workdir) + ["--backend", "remote", "--endpoint", url,
                                                  "--model", "m"])
                     for url in (stub.url, dead)]
        assert codes == [0, 2]
        assert closed == [stub.url, dead]

    def test_remote_needs_endpoint_and_model(self, workdir, capsys):
        args = select_args(workdir) + ["--backend", "remote"]
        assert main(args) == 1
        assert "--endpoint" in capsys.readouterr().err


class TestSimulate:
    def spec_file(self, d):
        doc = {
            "base_qualities": [0.65, 0.7, 0.75, 0.8],
            "adversarial_quality": [0.45, 0.55],
            "ratios": [0.25, 0.5],
            "seeds": [0, 1],
            "n_examples": 40,
        }
        path = d / "spec.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_prints_both_tables(self, workdir, capsys):
        code = main(["simulate", "--spec", str(self.spec_file(workdir))])
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        for strategy in ("logprob_mean", "prob_mean", "majority_vote"):
            assert strategy in out

    def test_artifact_deterministic(self, workdir):
        spec = self.spec_file(workdir)
        out = workdir / "sim.json"
        main(["simulate", "--spec", str(spec), "--out", str(out)])
        first = out.read_bytes()
        main(["simulate", "--spec", str(spec), "--out", str(out)])
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert len(doc["strategies"]["strategies"]) == 3
        assert [r["ratio"] for r in doc["robustness"]["rows"]] == [0.25, 0.5]

    def test_scores_each_population_once(self, workdir, monkeypatch):
        calls = []
        score_all = zps.evalsim.score_all

        def counting(*args, **kwargs):
            calls.append(1)
            return score_all(*args, **kwargs)

        monkeypatch.setattr(zps.evalsim, "score_all", counting)
        assert main(["simulate", "--spec", str(self.spec_file(workdir))]) == 0
        assert len(calls) == 2 * 2  # len(ratios) * len(seeds)

    def test_integer_beyond_the_float_range_is_input_error(self, workdir, capsys):
        path = self.spec_file(workdir)
        doc = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**doc, "n_examples": 10**400}), encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed 'n_examples': expected number")

    def test_bad_spec_is_input_error(self, workdir, capsys):
        path = workdir / "spec.json"
        path.write_text('{"base_qualities": [0.7], "surprise": true}', encoding="utf-8")
        assert main(["simulate", "--spec", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
def test_bad_input_file_exits_one_naming_it(workdir, capsys, kind, case):
    for name, good in (("ckpts.jsonl", "checkpoints"), ("pv.jsonl", "pseudo_val")):
        (workdir / name).write_text(json.dumps(INPUT_FILES[good][1]) + "\n", encoding="utf-8")
    bad = workdir / "bad_input"
    where = write_bad_input(bad, kind, case)
    flag = {"catalog": "--catalog", "examples": "--examples", "profile": "--synthetic-profile",
            "checkpoints": "--checkpoints", "pseudo_val": "--pseudo-val", "spec": "--spec"}[kind]
    if kind == "spec":
        args = ["simulate", "--spec", str(bad)]
    elif kind in ("checkpoints", "pseudo_val"):
        args = ["select-checkpoint", "--catalog", str(workdir / "catalog.json"),
                "--checkpoints", str(workdir / "ckpts.jsonl"),
                "--pseudo-val", str(workdir / "pv.jsonl")]
        args[args.index(flag) + 1] = str(bad)
    else:
        args = select_args(workdir)
        args[args.index(flag) + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and where in err


def test_readme_simulation_example_matches_output(capsys):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Simulation\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("\n```", 1)[0].splitlines()
    assert block[0] == "zps simulate --spec demo/robustness_spec.json"
    documented = [line[2:] if line.startswith("# ") else line.lstrip("#") for line in block[1:]]
    assert main(["simulate", "--spec", str(root / "demo" / "robustness_spec.json")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert documented == printed


def count_reads(monkeypatch):
    """Whole-file reads by file name; every input loader reads through Path.read_bytes."""
    reads = Counter()
    read_bytes = Path.read_bytes

    def counted(self):
        reads[self.name] += 1
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    return reads


@pytest.mark.parametrize("command", ["select", "evaluate", "pseudo-val"])
def test_each_input_file_is_read_once(workdir, monkeypatch, command):
    # The run config hashes the text that the loaders parse.
    reads = count_reads(monkeypatch)
    assert main([command, *select_args(workdir)[1:]]) == 0
    assert reads == {"catalog.json": 1, "examples.jsonl": 1, "profile.json": 1}


def test_checkpoint_and_simulate_inputs_are_read_once(tmp_path, monkeypatch):
    shutil.copytree(Path(__file__).resolve().parent.parent / "demo", tmp_path / "demo")
    monkeypatch.chdir(tmp_path / "demo")
    assert main(["pseudo-val", "--catalog", "catalog.json", "--examples", "examples.jsonl",
                 "--out", "pv.jsonl"]) == 0
    reads = count_reads(monkeypatch)
    assert main(["select-checkpoint", "--catalog", "catalog.json",
                 "--checkpoints", "checkpoints.jsonl", "--pseudo-val", "pv.jsonl"]) == 0
    assert main(["simulate", "--spec", "robustness_spec.json"]) == 0
    assert reads == {"catalog.json": 1, "checkpoints.jsonl": 1, "pv.jsonl": 1,
                     "robustness_spec.json": 1}
