"""Shared builders for the test suite."""

from __future__ import annotations

import hashlib
import json
import struct
import threading
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
from scipy.special import log_softmax

from zps import (
    Prompt,
    PromptTemplate,
    ScoreTensor,
    SyntheticBackend,
    TaskSpec,
    UnlabeledExample,
    Verbalizer,
    candidate_phrases,
    example_key_part,
    make_cache_key,
    prompt_key_part,
    score_all,
)


def make_task(c=2, task_id="t"):
    return TaskSpec(
        task_id=task_id,
        field_schema=("text",),
        choices=tuple(str(j) for j in range(c)),
    )


def make_prompts(task, p):
    verb = Verbalizer({lab: f"phrase {lab}" for lab in task.choices})
    template = PromptTemplate("{{text}}")
    return [Prompt(f"p{i:02d}", template, verb) for i in range(p)]


def make_examples(n):
    return [UnlabeledExample(f"e{k:04d}", {"text": f"x{k}"}) for k in range(n)]


def plant_labels(task, examples, seed=0):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(task.choices), size=len(examples))
    return {e.example_id: task.choices[int(j)] for e, j in zip(examples, idx)}


def synthetic_setup(p=5, n=40, c=2, seed=0, qualities=None, planted=None):
    """Task, prompts, examples and a configured synthetic backend."""
    task = make_task(c)
    prompts = make_prompts(task, p)
    examples = make_examples(n)
    if qualities is None:
        rng = np.random.default_rng(seed + 1)
        qualities = [float(q) for q in rng.uniform(0.55, 0.95, size=p)]
    if not isinstance(qualities, dict):
        qualities = {pr.prompt_id: float(q) for pr, q in zip(prompts, qualities)}
    if planted is None:
        planted = plant_labels(task, examples, seed)
    backend = SyntheticBackend(
        seed=seed, prompt_quality=qualities, planted_labels=planted
    )
    return task, prompts, examples, backend, planted


def synthetic_tensor(p=5, n=40, c=2, seed=0, qualities=None, planted=None, **kw):
    task, prompts, examples, backend, planted = synthetic_setup(
        p=p, n=n, c=c, seed=seed, qualities=qualities, planted=planted
    )
    tensor = score_all(task, prompts, examples, backend, **kw)
    return tensor, planted


def raw_tensor(arr, normalized=False, prompt_ids=None, example_ids=None, choices=None):
    arr = np.asarray(arr, dtype=np.float64)
    p, n, c = arr.shape
    return ScoreTensor(
        prompt_ids=tuple(prompt_ids) if prompt_ids else tuple(f"p{i:02d}" for i in range(p)),
        example_ids=tuple(example_ids) if example_ids else tuple(f"e{k:04d}" for k in range(n)),
        choices=tuple(choices) if choices else tuple(str(j) for j in range(c)),
        logprobs=arr,
        normalized=normalized,
    )


def normalized_tensor(arr, **kw):
    return raw_tensor(log_softmax(np.asarray(arr, dtype=np.float64), axis=2),
                      normalized=True, **kw)


def prob_tensor(probs, **kw):
    """Tensor whose per-cell probabilities are exactly the given values."""
    return raw_tensor(np.log(np.asarray(probs, dtype=np.float64)),
                      normalized=True, **kw)


def stub_score(input_text: str, candidate: str) -> float:
    """Deterministic fake log-likelihood used by the stub server."""
    digest = hashlib.sha256(f"{input_text}|{candidate}".encode()).hexdigest()
    return -(0.5 + 3.0 * int(digest[:8], 16) / 0xFFFFFFFF)


class StubScorer:
    """In-process scoring server speaking the remote wire protocol.

    ``script`` is a queue of canned (status, body) responses served in
    order; once exhausted (or when empty from the start) the server answers
    properly with ``stub_score`` values. Bodies may be dicts (sent as JSON)
    or raw strings. All received request payloads, raw bodies, headers and paths
    are recorded.

    With ``drop_idle`` the server speaks HTTP/1.1 and sends a Content-Length,
    so clients keep the connection alive, but closes it after every answer
    without a ``Connection: close`` header, like a server whose keep-alive
    timeout has run out.

    ``hang_up``, when set, is called with each request's 1-based number once
    the request is recorded; when it returns True the server closes the
    connection without answering. It may block first, for instance until a
    test has killed the client.
    """

    def __init__(self, script=None, drop_idle=False):
        self.script = list(script or [])
        self.hang_up = None
        self.requests: list[dict] = []
        self.bodies: list[bytes] = []
        self.headers: list[dict] = []
        self.paths: list[str] = []
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            if drop_idle:
                protocol_version = "HTTP/1.1"

            def reply(self, status, data):
                body = data.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                payload = json.loads(body) if body else {}
                with stub._lock:
                    stub.requests.append(payload)
                    stub.bodies.append(body)
                    stub.headers.append({k: v for k, v in self.headers.items()})
                    stub.paths.append(self.path)
                    scripted = stub.script.pop(0) if stub.script else None
                    number = len(stub.requests)
                if stub.hang_up is not None and stub.hang_up(number):
                    self.close_connection = True
                    return
                if scripted is not None:
                    status, doc = scripted
                    self.reply(status, doc if isinstance(doc, str) else json.dumps(doc))
                    return
                results = [
                    {"scores": [stub_score(item["input"], c) for c in item["candidates"]]}
                    for item in payload.get("items", [])
                ]
                self.reply(200, json.dumps({"results": results}))

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll keeps shutdown() from waiting out the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/score"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()


# Input files: one valid document per file kind, and the malformed variants every
# loader must reject with a ValidationError naming the file (and, for JSON Lines,
# the line). A JSON Lines variant is written as line 2, after a valid line 1.
# "wrong-container" puts a string where a list, an object or a number belongs,
# or a list where a string belongs; no loader may iterate or convert it.
GOOD_CATALOG = {
    "task": {"task_id": "t", "fields": ["text"], "choices": ["0", "1"]},
    "prompts": [{"prompt_id": "p", "template": "{{text}}",
                 "verbalizer": {"0": "no", "1": "yes"}}],
}
GOOD_SPEC = {"base_qualities": [0.7, 0.8], "adversarial_quality": [0.4, 0.5],
             "ratios": [0.5], "seeds": [0], "n_examples": 10}
INPUT_FILES = {
    # kind: (JSON Lines?, valid document or line, {case: malformed document or line})
    "catalog": (False, GOOD_CATALOG, {
        "top-level": [GOOD_CATALOG],
        "field-kind": {**GOOD_CATALOG, "prompts": 5},
        "wrong-container": {**GOOD_CATALOG, "task": {**GOOD_CATALOG["task"], "choices": "01"}},
    }),
    "examples": (True, {"example_id": "e0", "fields": {"text": "a"}}, {
        "top-level": ["e1"],
        "field-kind": {"example_id": "e1", "fields": {"text": "b"}, "gold_label": [1]},
        "wrong-container": {"example_id": "e1", "fields": "text"},
    }),
    "pseudo_val": (True, {"example_id": "e0", "label": "0", "gap": 0.5}, {
        "top-level": 0.5,
        "field-kind": {"example_id": "e1", "label": {"0": 1}, "gap": 0.5},
        "wrong-container": {"example_id": "e1", "label": "0", "gap": "0.5"},
    }),
    "checkpoints": (True, {"checkpoint_id": "c", "prompt_id": "p", "example_id": "e0",
                           "pred": "0"}, {
        "top-level": "c",
        "field-kind": {"checkpoint_id": "c", "prompt_id": "p", "example_id": "e1",
                       "pred": None},
        "wrong-container": {"checkpoint_id": ["c"], "prompt_id": "p", "example_id": "e1",
                           "pred": "0"},
    }),
    "profile": (False, {"qualities": {"p": 0.9}, "planted_labels": {"e0": "0"}}, {
        "top-level": "profile",
        "field-kind": {"qualities": {"p": "0.9"}, "planted_labels": {"e0": "0"}},
        "wrong-container": {"qualities": "p", "planted_labels": {"e0": "0"}},
    }),
    "spec": (False, GOOD_SPEC, {
        "top-level": 5,
        "field-kind": {**GOOD_SPEC, "n_examples": True},
        "wrong-container": {**GOOD_SPEC, "seeds": "12"},
    }),
}
BAD_INPUT_CASES = ("missing", "directory", "non-utf8", "invalid-json", "top-level",
                   "field-kind", "wrong-container")


def write_bad_input(path, kind, case):
    """Write the malformed ``kind`` file for ``case`` at ``path``; returns the
    location its error must name: the path, plus ``:2`` for a JSON Lines line."""
    lines, good, variants = INPUT_FILES[kind]
    if case == "missing":
        return str(path)
    if case == "directory":
        path.mkdir()
        return str(path)
    head = json.dumps(good) + "\n" if lines else ""
    if case == "non-utf8":
        path.write_bytes(head.encode() + b'{"text": "caf\xe9"}\n')
        return str(path)
    bad = "{not json" if case == "invalid-json" else json.dumps(variants[case])
    path.write_text(head + bad + "\n", encoding="utf-8")
    return f"{path}:2" if lines else str(path)


# The score cache's format, restated here so that tests check zps's files against
# an independent reader and build damaged files with an independent writer. A
# segment is a header of magic, version 5, count b, value count c, payload length
# and payload crc32, then the payload: b 64-byte keys and b x c float64 values.
CACHE_HEADER = struct.Struct("<4sHIHQI")


def raw_segment(version, b, c, payload):
    """A segment of ``version`` whose header and CRC are sound for ``payload``."""
    return CACHE_HEADER.pack(b"ZPSC", version, b, c, len(payload),
                             zlib.crc32(payload)) + payload


def segment_bytes(cells):
    """One segment holding ``cells``, a list of (64-byte key, values)."""
    c = len(cells[0][1])
    payload = b"".join(key for key, _ in cells) + b"".join(
        struct.pack(f"<{c}d", *values) for _, values in cells)
    return raw_segment(5, len(cells), c, payload)


# Segments as versions 3 and 4 wrote them: a cell segment of one 32-byte key and
# its two values, and a block segment of a 32-byte block key and the one cell
# key it lists.
V3_CELL_SEGMENT = raw_segment(3, 1, 2, bytes(32) + struct.pack("<2d", -1.0, -2.0))
V4_BLOCK_SEGMENT = raw_segment(4, 1, 0, bytes(64))


def key_of(model_id, length_norm, template_text, candidates, values, ids=None):
    """A cache key from its two parts; ``ids`` is (prompt_id, example_id) for
    an id-addressed backend."""
    prompt_id, example_id = ids or (None, None)
    return make_cache_key(
        prompt_key_part(model_id, length_norm, template_text, candidates, prompt_id),
        example_key_part(values, example_id))


def cell_key(model_id, task, prompt, example, ids, length_norm=False):
    """The cache key of cell (prompt, example), with its ids mixed in if ``ids``."""
    values = [example.fields[name] for name in prompt.template.placeholders()]
    return key_of(model_id, length_norm, prompt.template.template_text,
                  candidate_phrases(task, prompt), values,
                  (prompt.prompt_id, example.example_id) if ids else None)


def read_segments(path):
    """Each segment of a cache file, in file order, as a list of (64-byte key,
    values) cells; asserts that every header and CRC is sound."""
    data = Path(path).read_bytes()
    segments, offset = [], 0
    while offset < len(data):
        magic, version, b, c, length, crc = CACHE_HEADER.unpack_from(data, offset)
        offset += CACHE_HEADER.size
        payload = data[offset : offset + length]
        offset += length
        assert magic == b"ZPSC" and version == 5 and b and c
        assert length == b * (64 + 8 * c)
        assert len(payload) == length and zlib.crc32(payload) == crc
        values = struct.unpack_from(f"<{b * c}d", payload, 64 * b)
        segments.append([(payload[64 * i : 64 * i + 64], values[c * i : c * i + c])
                         for i in range(b)])
    return segments
