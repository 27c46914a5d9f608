"""Synthetic and remote scoring backends."""

import gc
import socket
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from zps import (
    BackendError,
    Prompt,
    PromptTemplate,
    ProtocolError,
    RemoteBackend,
    ScoreCache,
    ScoreRequest,
    ScoringFailedError,
    SyntheticBackend,
    UnlabeledExample,
    ValidationError,
    Verbalizer,
    derived_profile,
    score_all,
)
from zps.cache import score_matrix

from .helpers import StubScorer, make_examples, make_task, stub_score


def requests_for(prompt_ids, example_ids, choices):
    phrases = tuple(f"phrase {lab}" for lab in choices)
    return [
        ScoreRequest(
            input=f"{pid}|{eid}",
            candidates=phrases,
            prompt_id=pid,
            example_id=eid,
            choice_labels=tuple(choices),
        )
        for pid in prompt_ids
        for eid in example_ids
    ]


def one_prompt_setup(c, n):
    """A c-choice task, prompt p0 rendering each example as its text, and
    examples e0.. with texts x0.."""
    task = make_task(c)
    verbalizer = Verbalizer({lab: f"phrase {lab}" for lab in task.choices})
    prompts = [Prompt("p0", PromptTemplate("{{text}}"), verbalizer)]
    return task, prompts, [UnlabeledExample(f"e{k}", {"text": f"x{k}"}) for k in range(n)]


def stub_rows(task, n):
    """The stub server's scores for p0's cells on examples e0..e(n-1)."""
    return [[stub_score(f"x{k}", f"phrase {lab}") for lab in task.choices] for k in range(n)]


def test_score_request_is_an_immutable_tuple():
    fields = ("in", ("a", "b"), "p0", "e0", ("0", "1"))
    req = ScoreRequest(*fields)
    assert req == ScoreRequest(input="in", candidates=("a", "b"), prompt_id="p0",
                               example_id="e0", choice_labels=("0", "1"))
    assert tuple(req) == fields
    assert ScoreRequest._fields == ("input", "candidates", "prompt_id", "example_id",
                                    "choice_labels")
    with pytest.raises(AttributeError):
        req.input = "other"
    with pytest.raises(AttributeError):
        req.extra = 1


class TestSyntheticBackend:
    def test_deterministic_across_instances(self):
        kwargs = dict(
            seed=7,
            prompt_quality={"p0": 0.8},
            planted_labels={"e0": "1", "e1": "0"},
        )
        reqs = requests_for(["p0"], ["e0", "e1"], ["0", "1"])
        first = SyntheticBackend(**kwargs).score_batch(reqs)
        second = SyntheticBackend(**kwargs).score_batch(reqs)
        assert first.dtype == np.float64 and first.shape == (2, 2)
        assert first.tobytes() == second.tobytes()

    def test_seed_changes_scores(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        a = SyntheticBackend(seed=1, prompt_quality={"p0": 0.8}, planted_labels={"e0": "1"})
        b = SyntheticBackend(seed=2, prompt_quality={"p0": 0.8}, planted_labels={"e0": "1"})
        scores_a, scores_b = a.score_batch(reqs), b.score_batch(reqs)
        assert scores_a.shape == scores_b.shape == (1, 2)
        assert (scores_a != scores_b).all()
        assert a.model_id != b.model_id

    @pytest.mark.parametrize("quality,expect", [(1.0, 1.0), (0.0, 0.0)])
    def test_extreme_quality_pins_argmax(self, quality, expect):
        n = 200
        example_ids = [f"e{k}" for k in range(n)]
        planted = {eid: str(k % 2) for k, eid in enumerate(example_ids)}
        backend = SyntheticBackend(
            seed=3, prompt_quality={"p0": quality}, planted_labels=planted
        )
        rows = backend.score_batch(requests_for(["p0"], example_ids, ["0", "1"]))
        hits = sum(
            1
            for eid, row in zip(example_ids, rows)
            if ("0", "1")[int(np.argmax(row))] == planted[eid]
        )
        assert hits / n == expect

    def test_mid_quality_hit_rate_tracks_quality(self):
        n = 1000
        example_ids = [f"e{k}" for k in range(n)]
        planted = {eid: str(k % 2) for k, eid in enumerate(example_ids)}
        backend = SyntheticBackend(
            seed=11, prompt_quality={"p0": 0.7}, planted_labels=planted
        )
        rows = backend.score_batch(requests_for(["p0"], example_ids, ["0", "1"]))
        hits = sum(
            1
            for eid, row in zip(example_ids, rows)
            if ("0", "1")[int(np.argmax(row))] == planted[eid]
        )
        assert abs(hits / n - 0.7) < 0.05

    def test_unconfigured_prompt_or_example_fails(self):
        backend = SyntheticBackend(
            seed=0, prompt_quality={"p0": 0.5}, planted_labels={"e0": "1"}
        )
        with pytest.raises(BackendError, match="p9"):
            backend.score_batch(requests_for(["p9"], ["e0"], ["0", "1"]))
        with pytest.raises(BackendError, match="e9"):
            backend.score_batch(requests_for(["p0"], ["e9"], ["0", "1"]))

    def test_planted_label_must_be_a_choice(self):
        backend = SyntheticBackend(
            seed=0, prompt_quality={"p0": 0.5}, planted_labels={"e0": "weird"}
        )
        with pytest.raises(BackendError, match="weird"):
            backend.score_batch(requests_for(["p0"], ["e0"], ["0", "1"]))

    def test_quality_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticBackend(seed=0, prompt_quality={"p0": 1.5}, planted_labels={})
        with pytest.raises(ValidationError):
            SyntheticBackend(
                seed=0, prompt_quality={}, planted_labels={}, default_quality=-0.1
            )

    def test_default_quality_covers_unlisted_prompts(self):
        backend = SyntheticBackend(
            seed=0, prompt_quality={}, planted_labels={"e0": "1"}, default_quality=1.0
        )
        rows = backend.score_batch(requests_for(["anyprompt"], ["e0"], ["0", "1"]))
        assert int(np.argmax(rows[0])) == 1

    def test_counters_and_capabilities(self):
        backend = SyntheticBackend(
            seed=0, prompt_quality={"p0": 0.5}, planted_labels={"e0": "1", "e1": "0"}
        )
        backend.score_batch(requests_for(["p0"], ["e0", "e1"], ["0", "1"]))
        backend.score_batch(requests_for(["p0"], ["e0"], ["0", "1"]))
        assert backend.calls == 2
        assert backend.cells_scored == 3
        assert backend.content_addressed is False
        assert backend.max_batch_size >= 1

    def test_model_id_reflects_configuration(self):
        a = SyntheticBackend(seed=0, prompt_quality={"p0": 0.5}, planted_labels={"e0": "1"})
        b = SyntheticBackend(seed=0, prompt_quality={"p0": 0.6}, planted_labels={"e0": "1"})
        assert a.model_id.startswith("synthetic:")
        assert a.model_id != b.model_id


class TestDerivedProfile:
    def test_deterministic_and_in_range(self):
        prompt_ids = [f"p{k}" for k in range(6)]
        example_ids = [f"e{k}" for k in range(9)]
        choices = ("a", "b", "c")
        q1, l1 = derived_profile(5, prompt_ids, example_ids, choices)
        q2, l2 = derived_profile(5, prompt_ids, example_ids, choices)
        assert q1 == q2 and l1 == l2
        assert set(q1) == set(prompt_ids)
        assert set(l1) == set(example_ids)
        assert all(0.55 <= q <= 0.95 for q in q1.values())
        assert all(lab in choices for lab in l1.values())

    def test_seed_moves_the_profile(self):
        prompt_ids = [f"p{k}" for k in range(6)]
        example_ids = [f"e{k}" for k in range(40)]
        q1, l1 = derived_profile(1, prompt_ids, example_ids, ("0", "1"))
        q2, l2 = derived_profile(2, prompt_ids, example_ids, ("0", "1"))
        assert q1 != q2 or l1 != l2


class TestRemoteBackend:
    def test_happy_path_matches_server_scores(self):
        reqs = requests_for(["p0"], ["e0", "e1"], ["0", "1"])
        with StubScorer() as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m1")
            got = backend.score_batch(reqs)
        # JSON float round-trip is exact, so no tolerance needed
        expected = [
            [stub_score(r.input, cand) for cand in r.candidates] for r in reqs
        ]
        assert got == expected
        assert backend.retry_count == 0

    def test_payload_shape_and_model_field(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer() as stub:
            RemoteBackend(endpoint=stub.url, model="scorer-v2").score_batch(reqs)
            payload = stub.requests[0]
        assert payload["model"] == "scorer-v2"
        assert payload["items"] == [
            {"input": "p0|e0", "candidates": ["phrase 0", "phrase 1"]}
        ]

    def test_bearer_token_header(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer() as stub:
            RemoteBackend(endpoint=stub.url, model="m", api_token="sekrit").score_batch(reqs)
            headers = stub.headers[0]
        assert headers.get("Authorization") == "Bearer sekrit"

    def test_endpoint_path_is_percent_encoded(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer() as stub:
            endpoint = stub.url.replace("/score", "/v1/a b/\u00e9%2F?q=x y")
            RemoteBackend(endpoint=endpoint, model="m").score_batch(reqs)
            assert stub.paths == ["/v1/a%20b/%C3%A9%2F?q=x%20y"]

    def test_no_token_no_auth_header(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer() as stub:
            RemoteBackend(endpoint=stub.url, model="m").score_batch(reqs)
            headers = stub.headers[0]
        assert "Authorization" not in headers

    def test_retries_on_5xx_then_succeeds(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        script = [(500, {"error": "overloaded"}), (503, {"error": "busy"})]
        with StubScorer(script) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=3, backoff=0.01)
            got = backend.score_batch(reqs)
            assert len(stub.requests) == 3
        assert backend.retry_count == 2
        expected = [
            [stub_score(r.input, cand) for cand in r.candidates] for r in reqs
        ]
        assert got == expected

    def test_exhausted_retries_raise_backend_error(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        script = [(500, {"error": "down"})] * 3
        with StubScorer(script) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=3, backoff=0.01)
            with pytest.raises(BackendError, match="3 attempts"):
                backend.score_batch(reqs)
        assert backend.retry_count == 2

    def test_client_error_fails_fast(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer([(404, {"error": "no such model"})]) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=3, backoff=0.01)
            with pytest.raises(BackendError, match="404"):
                backend.score_batch(reqs)
            assert len(stub.requests) == 1
        assert backend.retry_count == 0

    def test_connection_failure_raises_backend_error(self):
        backend = RemoteBackend(
            endpoint="http://127.0.0.1:1/score", model="m", retries=2, backoff=0.01
        )
        with pytest.raises(BackendError):
            backend.score_batch(requests_for(["p0"], ["e0"], ["0", "1"]))
        assert backend.retry_count == 1

    @pytest.mark.parametrize("body", [{"nope": []}, {"results": "wat"}, [{"scores": [-1.0]}]])
    def test_a_body_without_a_results_list_raises_protocol_error(self, body):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer([(200, body)]) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            with pytest.raises(ProtocolError, match="no results list"):
                backend.score_batch(reqs)

    @pytest.mark.parametrize(
        "body",
        [
            {"nope": []},
            {"results": "wat"},
            {"results": [{"scores": [-1.0, -2.0]}]},
            {"results": [{"scores": [-1.0]}, {"scores": [-1.0, -2.0]}]},
            {"results": [{"scores": [None, -1.0]}, {"scores": [-1.0, -2.0]}]},
            {"results": [{"scores": [float("nan"), -1.0]}, {"scores": [-1.0, -2.0]}]},
            {"results": [{"scores": [True, -1.0]}, {"scores": [-1.0, -2.0]}]},
            {"results": [0.5, {"scores": [-1.0, -2.0]}]},
            [{"scores": [-1.0, -2.0]}, {"scores": [-1.0, -2.0]}],
            {"results": [{"scores": [10**400, -1.0]}, {"scores": [-1.0, -2.0]}]},
        ],
    )
    def test_malformed_payloads_raise_protocol_error(self, body, tmp_path):
        # score_batch (no results list) or score_all's check (bad rows) raises a
        # ProtocolError that fails the chunk; each cell is then re-sent alone.
        task, prompts, examples = one_prompt_setup(2, 2)
        with StubScorer([(200, body)]) as stub, ScoreCache(tmp_path / "c") as cache:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            tensor = score_all(task, prompts, examples, backend, cache, normalize="none")
            sent = [[item["input"] for item in payload["items"]] for payload in stub.requests]
        assert sent == [["x0", "x1"], ["x0"], ["x1"]]
        assert tensor.logprobs.tolist() == [stub_rows(task, len(examples))]
        with StubScorer() as stub, ScoreCache(tmp_path / "c") as cache:
            assert len(cache) == 2
            backend = RemoteBackend(endpoint=stub.url, model="m")
            again = score_all(task, prompts, examples, backend, cache, normalize="none")
            assert stub.requests == []
        assert np.array_equal(again.logprobs, tensor.logprobs)

    @pytest.mark.parametrize("bad", [2**64, 2**70, True, False, "-1", [-1.0]])
    def test_bad_score_names_the_example(self, bad, caplog):
        task, prompts, examples = one_prompt_setup(2, 2)
        script = [(200, {"results": [{"scores": [-1.0, -2.0]}, {"scores": [-1.0, bad]}]}),
                  (200, {"results": [{"scores": [-1.0, -2.0]}]}),
                  (200, {"results": [{"scores": [-1.0, bad]}]})]
        with StubScorer(script) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            with pytest.raises(ScoringFailedError) as excinfo:
                score_all(task, prompts, examples, backend)
            assert len(stub.requests) == 3
        assert excinfo.value.failed == [("p0", "e1")]
        assert "cell (p0, e1) failed: scores are not 1 rows of 2" in caplog.text
        assert repr(bad) in caplog.text

    def test_a_good_reply_is_checked_once(self, monkeypatch, tmp_path):
        checked = []

        def counted(rows):
            checked.append(rows)
            return score_matrix(rows)

        for name, module in list(sys.modules.items()):
            if name.startswith("zps.") and getattr(module, "score_matrix", None) is score_matrix:
                monkeypatch.setattr(module, "score_matrix", counted)
        task, prompts, examples = one_prompt_setup(2, 5)
        for cache, per_chunk in ((None, 1), (ScoreCache(tmp_path / "c"), 2)):
            checked.clear()
            with StubScorer() as stub:
                backend = RemoteBackend(endpoint=stub.url, model="m", max_batch_size=2)
                tensor = score_all(task, prompts, examples, backend, cache, normalize="none")
                assert len(stub.requests) == 3
            assert tensor.logprobs.tolist() == [stub_rows(task, len(examples))]
            assert len(checked) == 3 * per_chunk
            if cache is not None:
                cache.close()

    def test_mixed_candidate_counts_are_refused_before_sending(self):
        reqs = [*requests_for(["p0"], ["e0"], ["0", "1"]),
                *requests_for(["p0"], ["e1"], ["0", "1", "2"])]
        with StubScorer() as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            with pytest.raises(BackendError, match="one candidate count"):
                backend.score_batch(reqs)
            assert stub.requests == []

    def test_empty_batch_sends_nothing(self):
        with StubScorer() as stub:
            assert RemoteBackend(endpoint=stub.url, model="m").score_batch([]) == []
            assert stub.requests == []

    def test_integer_scores_come_back_as_floats(self):
        task, prompts, examples = one_prompt_setup(3, 1)
        body = {"results": [{"scores": [-1, 2**63, -2.5]}]}
        with StubScorer([(200, body)]) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            tensor = score_all(task, prompts, examples, backend, normalize="none")
        assert tensor.logprobs.dtype == np.float64
        assert tensor.logprobs.tolist() == [[[-1.0, float(2**63), -2.5]]]

    def test_non_json_body_raises_protocol_error(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer([(200, "<html>oops</html>")]) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            with pytest.raises(ProtocolError):
                backend.score_batch(reqs)

    def test_protocol_error_carries_body_excerpt(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with StubScorer([(200, {"results": "wat"})]) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", retries=1)
            with pytest.raises(ProtocolError) as excinfo:
                backend.score_batch(reqs)
        assert "wat" in str(excinfo.value)

    def test_capabilities_and_validation(self):
        backend = RemoteBackend(endpoint="http://x/score", model="m", max_batch_size=8)
        assert backend.max_batch_size == 8
        assert backend.content_addressed is True
        assert backend.model_id == "m"
        with pytest.raises(ValidationError):
            RemoteBackend(endpoint="http://x/score", model="m", retries=0)

    @pytest.mark.parametrize("option", [
        {"max_batch_size": 0}, {"max_batch_size": -1}, {"max_batch_size": 2.0},
        {"retries": 0}, {"retries": 2.5},
        {"backoff": -1.0}, {"backoff": float("nan")},
        {"timeout": -1.0}, {"timeout": 0}, {"timeout": float("nan")},
    ], ids=repr)
    def test_a_bad_number_is_refused_before_any_request(self, option):
        task, prompts, examples = one_prompt_setup(2, 3)
        with StubScorer() as stub:
            with pytest.raises(ValidationError, match=next(iter(option))):
                backend = RemoteBackend(endpoint=stub.url, model="m", **option)
                score_all(task, prompts, examples, backend)
            assert stub.requests == []

    @pytest.mark.parametrize(
        "endpoint",
        ["ftp://x/score", "scorer/score", "http:///score", "http://x:port/score", ""],
    )
    def test_endpoint_needs_http_scheme_and_host(self, endpoint):
        with pytest.raises(ValidationError, match="endpoint"):
            RemoteBackend(endpoint=endpoint, model="m")

    def test_server_closing_idle_connection_is_not_a_retry(self):
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        expected = [[stub_score(r.input, cand) for cand in r.candidates] for r in reqs]
        with StubScorer(drop_idle=True) as stub:
            backend = RemoteBackend(endpoint=stub.url, model="m", backoff=0.5)
            for _ in range(5):
                assert backend.score_batch(reqs) == expected
            assert len(stub.requests) == 5
            backend.close()
        assert backend.retry_count == 0

    def test_close_releases_every_threads_connection(self):
        # A keep-alive server, so worker threads leave sockets open after score_all.
        # Each score_all(jobs=3) runs its own threads; the next call reuses their
        # connections instead of piling up more until close().
        task = make_task(2)
        prompts = [
            Prompt(f"p{i}", PromptTemplate("{{text}}" + "?" * i),
                   Verbalizer({lab: f"phrase {lab}" for lab in task.choices}))
            for i in range(2)
        ]
        examples = make_examples(12)
        reqs = requests_for(["p0"], ["e0"], ["0", "1"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with StubScorer(drop_idle=True) as stub:
                port = int(stub.url.split(":")[2].split("/")[0])
                backend = RemoteBackend(endpoint=stub.url, model="m", max_batch_size=2)
                backend.score_batch(reqs)
                for _ in range(5):
                    score_all(task, prompts, examples, backend, jobs=3)
                    assert 1 <= open_client_sockets(port) <= 3
                backend.close()
                assert open_client_sockets(port) == 0
                backend.score_batch(reqs)  # a request after close reconnects
                backend.close()
                backend.close()  # closing twice is harmless
                assert open_client_sockets(port) == 0
                assert len(stub.requests) == 1 + 5 * 12 + 1
            del backend
            gc.collect()
        unclosed = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
        assert unclosed == []

    def test_score_all_with_jobs_matches_serial_and_sends_each_item_once(self):
        task = make_task(3)
        prompts = [
            Prompt(f"p{i}", PromptTemplate("{{text}}" + "?" * i),
                   Verbalizer({lab: f"phrase {lab}" for lab in task.choices}))
            for i in range(3)
        ]
        examples = make_examples(10)
        tensors, sent = [], []
        for jobs in (1, 3):
            with StubScorer() as stub:
                backend = RemoteBackend(endpoint=stub.url, model="m", max_batch_size=4)
                tensors.append(score_all(task, prompts, examples, backend, jobs=jobs).logprobs)
                sent.append(Counter(
                    (item["input"], tuple(item["candidates"]))
                    for payload in stub.requests for item in payload["items"]
                ))
            assert backend.retry_count == 0
        assert np.array_equal(tensors[0], tensors[1])
        assert len(sent[1]) == len(prompts) * len(examples)
        assert set(sent[1].values()) == {1}
        assert sent[1] == sent[0]


def open_client_sockets(port: int) -> int:
    """Open sockets of this process connected to ``port`` on the stub's host."""
    gc.collect()
    count = 0
    for obj in gc.get_objects():
        if isinstance(obj, socket.socket) and obj.fileno() != -1:
            try:
                count += obj.getpeername()[1] == port
            except OSError:  # not connected, e.g. the listening socket
                pass
    return count
