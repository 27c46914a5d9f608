"""Byte pins for what the CLI writes: each artifact and each stdout, by sha256.

Every command runs in process on a copy of ``demo/`` with relative paths, so
the paths the artifacts record are the same in any checkout. A pin changes
only with a change that sets out to change those bytes.
"""

import hashlib
import shutil
from pathlib import Path

import pytest

from zps import RemoteBackend, load_catalog, load_examples, score_all
from zps.cli import TOKEN_ENV, main

from .helpers import StubScorer

DEMO = Path(__file__).resolve().parent.parent / "demo"
INPUTS = ["--catalog", "catalog.json", "--examples", "examples.jsonl"]

SCORE = ["score", *INPUTS, "--cache", "demo.cache"]
PSEUDO_VAL = ["pseudo-val", *INPUTS, "--size", "6", "--out", "pseudo_val.jsonl"]

# case -> (argv, artifacts it writes[, argv run first, whose stdout is not pinned])
CASES = {
    "select-logprob_mean": (["select", *INPUTS, "--strategy", "logprob_mean",
                             "--out", "report.json"], ["report.json"]),
    "select-prob_mean": (["select", *INPUTS, "--strategy", "prob_mean",
                          "--out", "report.json"], ["report.json"]),
    "select-majority_vote": (["select", *INPUTS, "--strategy", "majority_vote",
                              "--out", "report.json"], ["report.json"]),
    "select-no-filter-all": (["select", *INPUTS, "--no-filter", "--score-all-prompts",
                              "--out", "report.json"], ["report.json"]),
    "evaluate": (["evaluate", *INPUTS, "--out", "eval.json"], ["eval.json"]),
    "pseudo-val": (PSEUDO_VAL, ["pseudo_val.jsonl", "pseudo_val.jsonl.meta.json"]),
    "simulate": (["simulate", "--spec", "robustness_spec.json", "--out", "sim.json"],
                 ["sim.json"]),
    "score-cache": (SCORE, ["demo.cache"]),
    "select-warm-cache": (["select", *INPUTS, "--cache", "demo.cache", "--out", "report.json"],
                          ["report.json", "demo.cache"], SCORE),
    "select-length-norm-on": (["select", *INPUTS, "--length-norm", "on",
                               "--out", "report.json"], ["report.json"]),
    "select-normalize-none": (["select", *INPUTS, "--normalize", "none",
                               "--out", "report.json"], ["report.json"]),
    "select-checkpoint": (["select-checkpoint", "--catalog", "catalog.json",
                           "--checkpoints", "checkpoints.jsonl",
                           "--pseudo-val", "pseudo_val.jsonl", "--out", "checkpoint.json"],
                          ["checkpoint.json"], PSEUDO_VAL),
}

PINS = {
    "select-logprob_mean": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "c152da058ab0d0e79ffaddcb6516c03d5f5ee6be83c304ad0005e08b637018a1",
    },
    "select-prob_mean": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "bb7d5ed7c76c73cc3ef569de3b0c212141b5bdbc6206515b2cc8702e4b90ee9d",
    },
    "select-majority_vote": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "3a1d8e5a38a6bcc6fe52fc439b2e231e355542706996c391319de953311876e5",
    },
    "select-no-filter-all": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "b28b93a00c62c32a77e026c69ebfeb9dc0e7e650f170d12b23391d69e50585ee",
    },
    "evaluate": {
        "stdout": "880eeae95cb929e93a6e2dcad6728cb0d9c56d65b0addc207c05986b081cb501",
        "eval.json": "1dfdebd6b387fea21cfff205bd3e1e34133fdda91392f05f811bed17ff390940",
    },
    "pseudo-val": {
        "stdout": "1b0086bb8e5e13f86f1b408ddb6ee4950541cc696b68c7b16bd9af21e4aaba4a",
        "pseudo_val.jsonl": "2716c25d8d9c4fce862b96410b582265a15f61091ac5cf6e2e33613504e14d6f",
        "pseudo_val.jsonl.meta.json":
            "6d222213ed19a093a9d8c5a21ab06af86250c62b24a349662fff003908d9993c",
    },
    "simulate": {
        "stdout": "ddd62dc9116762ee2344b699deb16fb7d6943cc51adef829c9f448772721ef60",
        "sim.json": "751fbc2177d5114cbf6f90ceb918ad0378e4b08e53681357baec6884adfe050a",
    },
    "score-cache": {
        "stdout": "ab0a772cfdf7d1739838a54796c35b02ab7ac0e070990fafa6a8d0c5d6964d26",
        "demo.cache": "2599a78d999a0d57bb44b171e36ba93798aa263ab89adc7cb6419b603074ed02",
    },
    "select-warm-cache": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "8b37193e6aa353f2675032b2d37af262b8869dc96f96350e9b5ef9e27231df1a",
        "demo.cache": "2599a78d999a0d57bb44b171e36ba93798aa263ab89adc7cb6419b603074ed02",
    },
    "select-length-norm-on": {
        "stdout": "54d0fdf16b8f1334d0f65590fa2b2725bef92a34c3c989bf1eda20384a620336",
        "report.json": "25f837751295da4644e0bcd0e68ddf748768e9867033db9afd3047d1effa5288",
    },
    "select-normalize-none": {
        "stdout": "5d18699cd306faadcc86ca500d4cdcfdd77439109dab1abfbdab89fa2a54f15e",
        "report.json": "13b3cd805813b46d37d9de63fa2ded158ff6b6adc5f8365fce50f9c21f2e5baa",
    },
    "select-checkpoint": {
        "stdout": "b16f06d000d4e4a3181123970d4aba8d2b86b69fba21e1e97f2b0bca30bd7308",
        "checkpoint.json": "aa5bc6ebb14adaa928b3566a4f002fae33c095f5b33f62903ec56dcf132aa418",
    },
}


# The demo's 48 cells through RemoteBackend(max_batch_size=16) and score_all(jobs=2):
# the sha256 of each request body, sorted, and of the tensor's logprobs.
REMOTE_BODIES = [
    "02695bf08b38e7bb98fb049719abf3186cec4dacd6e76fe4c9f35aea915de33b",
    "4d70fbece3d8509370029ec20463b68632ce672ddd565bed24630d0f0dc158cd",
    "81a3d40e1d0b96d7c42934cdaf3da1c73be21c30bf5cf8a364b018d0d520f4b4",
]
REMOTE_TENSOR = "b835449845c94ea7df4aebbf8ede4bbdaf9d627ca79fdc84b465cd62540e3289"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_are_pinned(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(TOKEN_ENV, raising=False)
    shutil.copytree(DEMO, tmp_path / "demo")
    monkeypatch.chdir(tmp_path / "demo")
    argv, artifacts, *first = CASES[case]
    for before in first:
        assert main(before) == 0
        capsys.readouterr()
    assert main(argv) == 0
    got = {"stdout": _sha256(capsys.readouterr().out.encode("utf-8"))}
    got.update((name, _sha256(Path(name).read_bytes())) for name in artifacts)
    assert got == PINS[case]


def test_remote_request_bodies_are_pinned():
    # What the remote client sends for the demo, in any order its two workers send it.
    task, prompts = load_catalog(DEMO / "catalog.json")
    examples = load_examples(DEMO / "examples.jsonl", task)
    with StubScorer() as stub:
        backend = RemoteBackend(stub.url, model="pinned-model", max_batch_size=16)
        try:
            tensor = score_all(task, prompts, examples, backend, jobs=2)
        finally:
            backend.close()
    assert sorted(map(_sha256, stub.bodies)) == REMOTE_BODIES
    assert _sha256(tensor.logprobs.tobytes()) == REMOTE_TENSOR
