"""Pluggable scorer backends.

A backend rates candidate phrases against a rendered input and returns one
finite natural-log likelihood per candidate. Two implementations ship here:

* ``RemoteBackend`` talks to any inference service over a small JSON wire
  protocol with bounded exponential-backoff retries, over ``http.client``
  (imported when the first one is built). HTTPS checks certificates with
  ``ssl.create_default_context()`` (the system CA store; ``SSL_CERT_FILE``
  applies). Proxy variables, ``.netrc``, URL credentials and
  ``REQUESTS_CA_BUNDLE`` are not read; 3xx is not followed.
* ``SyntheticBackend`` is a seeded, closed-form stand-in for a real model,
  used for tests and simulations. Per prompt it is right about a planted
  label with a configured probability, and its score margins are calibrated:
  confident cells tend to be correct ones, and higher-quality prompts are
  more confident overall.

Backends must be deterministic for identical requests.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from abc import ABC, abstractmethod
from functools import partial
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence
from urllib.parse import quote, urlsplit

import numpy as np

from .errors import BackendError, ProtocolError, ValidationError

if TYPE_CHECKING:
    from http.client import HTTPConnection

logger = logging.getLogger(__name__)

# Retry policy: 3 attempts, exponential backoff starting at 500 ms. Keeps the
# client polite toward shared inference services.
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF = 0.5


class ScoreRequest(NamedTuple):
    """One cell to score: a rendered input and its candidate phrases.

    An immutable tuple of these five fields, in this order.
    """

    input: str
    candidates: tuple[str, ...]
    prompt_id: str
    example_id: str
    choice_labels: tuple[str, ...]


class ScorerBackend(ABC):
    """Interface every scorer implements.

    ``model_id`` names the scorer configuration (the cache namespace), and
    ``max_batch_size`` caps the requests in one ``score_batch`` call. The
    requests in one call share one set of choice labels. Scores are summed
    token log-likelihoods of the whole candidate phrase; they depend on the
    (input, candidate) strings alone unless ``content_addressed`` is False,
    and then the cache keys hash (prompt_id, example_id) too.
    """

    model_id: str
    max_batch_size: int
    content_addressed: bool = True

    @abstractmethod
    def score_batch(self, batch: Sequence[ScoreRequest]) -> np.ndarray | list[list[float]]:
        """Log-likelihood per candidate for each request, aligned with input order:
        a (b, c) float array or one list of c numbers per request; score_all checks it."""

    def close(self) -> None:
        """Release held resources such as connections; the default holds none."""


# Every synthetic draw hashes "<seed>\x1f<tag>\x1f<id>[\x1f<id>...]"; ids may not
# contain the separator, so no two draws hash the same text.
_SEP = "\x1f"


def _uniforms(prefix: str, tails: Sequence[bytes]) -> np.ndarray:
    """One uniform float in [0, 1) per tail: the first 8 bytes of
    sha256(prefix + tail), read big-endian, over 2**64 (correctly rounded),
    and at most 1 - 2**-53, where the top 2**10 draws would round to 1."""
    seeded = hashlib.sha256(prefix.encode("utf-8"))
    digests = []
    for tail in tails:
        h = seeded.copy()  # cheaper than hashing the prefix again
        h.update(tail)
        digests.append(h.digest())
    return np.minimum(np.frombuffer(b"".join(digests), ">u8")[::4] / 2.0**64, 1 - 2.0**-53)


def _check_ids(kind: str, ids: Iterable[str], error: type[Exception]) -> None:
    for key in ids:
        if _SEP in key:
            raise error(f"{kind} id {key!r} contains the separator '\\x1f'")


class SyntheticBackend(ScorerBackend):
    """Seeded pseudo-random scorer with planted ground truth.

    For prompt i and example k the planted label receives the highest score
    with probability ``prompt_quality[i]``; whether that happens, which wrong
    label wins otherwise, and all score margins are pure functions of
    (seed, prompt_id, example_id), so identical inputs always produce
    identical scores. Prompt and example ids may not contain ``\\x1f``.

    Margins model a calibrated scorer: they grow with prompt quality, and
    shrink (by ``miss_margin_scale``) on cells where the prompt is wrong.
    """

    content_addressed = False

    def __init__(
        self,
        seed: int | str,
        prompt_quality: Mapping[str, float],
        planted_labels: Mapping[str, str],
        default_quality: float | None = None,
        miss_margin_scale: float = 0.35,
        max_batch_size: int = 256,
    ):
        for pid, q in prompt_quality.items():
            if not 0.0 <= q <= 1.0:
                raise ValidationError(f"quality for prompt {pid!r} out of [0,1]: {q}")
        if default_quality is not None and not 0.0 <= default_quality <= 1.0:
            raise ValidationError(f"default_quality out of [0,1]: {default_quality}")
        _check_ids("prompt", prompt_quality, ValidationError)
        _check_ids("example", planted_labels, ValidationError)
        self.seed = seed
        self.prompt_quality = dict(prompt_quality)
        self.planted_labels = dict(planted_labels)
        self.default_quality = default_quality
        self.miss_margin_scale = miss_margin_scale
        self.max_batch_size = max_batch_size
        self.calls = 0  # score_batch invocations, for cache tests
        self.cells_scored = 0
        config = json.dumps(
            [seed, sorted(self.prompt_quality.items()), sorted(self.planted_labels.items()),
             default_quality, miss_margin_scale],
            sort_keys=True,
        )
        self.model_id = "synthetic:" + hashlib.sha256(config.encode()).hexdigest()[:12]

    def _quality(self, prompt_id: str) -> float:
        if prompt_id in self.prompt_quality:
            return self.prompt_quality[prompt_id]
        if self.default_quality is not None:
            _check_ids("prompt", [prompt_id], BackendError)
            return self.default_quality
        raise BackendError(f"no quality configured for prompt {prompt_id!r}")

    def _cell_terms(self, batch: Sequence[ScoreRequest]) -> tuple[list[float], list[int], int]:
        """Each request's prompt quality, its planted label's position among the
        batch's choices, and the number of choices. Raises if the requests mix
        choice labels, else on the first request, in order, that lacks a
        quality or a planted label among the choices."""
        labels = batch[0].choice_labels
        if any(req.choice_labels != labels for req in batch):
            raise BackendError("the requests in one batch must share one set of choice labels")
        if len(labels) < 2:
            raise BackendError(f"fewer than two choice labels {labels}")
        if len(set(labels)) != len(labels):
            raise BackendError(f"duplicate choice labels {labels}")
        position = {lab: j for j, lab in enumerate(labels)}
        qualities: dict[str, float] = {}
        quality, planted_at = [], []
        for _, _, prompt_id, eid, _ in batch:
            planted = self.planted_labels.get(eid)
            if planted is None:
                raise BackendError(f"no planted label for example {eid!r}")
            if planted not in position:
                raise BackendError(
                    f"planted label {planted!r} for example {eid!r} not among choices {labels}"
                )
            planted_at.append(position[planted])
            q = qualities.get(prompt_id)
            if q is None:
                q = qualities[prompt_id] = self._quality(prompt_id)
            quality.append(q)
        return quality, planted_at, len(labels)

    def score_batch(self, batch: Sequence[ScoreRequest]) -> np.ndarray:
        """Every cell's scores, as one (b, c) float64 array, from one set of
        array operations over the batch."""
        self.calls += 1
        self.cells_scored += len(batch)
        if not batch:
            return np.empty((0, 0))
        quality_list, planted_list, c = self._cell_terms(batch)
        s = str(self.seed)
        tails = [f"{prompt_id}{_SEP}{eid}".encode("utf-8") for _, _, prompt_id, eid, _ in batch]
        quality = np.asarray(quality_list, dtype=np.float64)
        planted = np.asarray(planted_list, dtype=np.int64)

        # The planted label wins with probability `quality`; otherwise the
        # pick-th of the other labels, in choice order.
        correct = _uniforms(f"{s}{_SEP}flip{_SEP}", tails) < quality
        winner = planted.copy()
        missed = np.flatnonzero(~correct)
        pick = (_uniforms(f"{s}{_SEP}wrong{_SEP}", [tails[n] for n in missed.tolist()])
                * (c - 1)).astype(np.int64)
        winner[missed] = pick + (pick >= planted[missed])

        # Margin grows with quality and with a per-cell confidence wobble;
        # wrong cells get a damped margin (calibration).
        wobble = 0.25 + 0.75 * _uniforms(f"{s}{_SEP}conf{_SEP}", tails)
        margin = 0.2 + 3.0 * quality * wobble
        margin = np.where(correct, margin, margin * self.miss_margin_scale)
        base = -(0.5 + 2.5 * _uniforms(f"{s}{_SEP}base{_SEP}", tails))

        # The winner scores `base`, each loser `base - margin` less its own
        # draw; the losers are drawn in (cell, choice) order.
        cell, choice = np.nonzero(np.arange(c) != winner[:, None])
        suffix = [f"{_SEP}{j}".encode("utf-8") for j in range(c)]
        loser_tails = [tails[n] + suffix[j] for n, j in zip(cell.tolist(), choice.tolist())]
        extra = 0.05 + 0.5 * _uniforms(f"{s}{_SEP}loser{_SEP}", loser_tails)
        scores = np.repeat(base[:, None], c, axis=1)
        scores[cell, choice] = (base - margin)[cell] - extra
        return scores


def derived_profile(
    seed: int,
    prompt_ids: Sequence[str],
    example_ids: Sequence[str],
    choices: Sequence[str],
) -> tuple[dict[str, float], dict[str, str]]:
    """Seed-derived qualities in [0.55, 0.95) and planted labels for synthetic runs.

    Ids may not contain ``\\x1f``.
    """
    _check_ids("prompt", prompt_ids, ValidationError)
    _check_ids("example", example_ids, ValidationError)
    lo, hi = 0.55, 0.95
    s = str(seed)
    u = _uniforms(f"{s}{_SEP}q{_SEP}", [pid.encode("utf-8") for pid in prompt_ids])
    qualities = dict(zip(prompt_ids, (lo + (hi - lo) * u).tolist()))
    u = _uniforms(f"{s}{_SEP}y{_SEP}", [eid.encode("utf-8") for eid in example_ids])
    picks = (u * len(choices)).astype(np.int64).tolist()
    planted = {eid: choices[j] for eid, j in zip(example_ids, picks)}
    return qualities, planted


class RemoteBackend(ScorerBackend):
    """HTTP client for a log-likelihood scoring service.

    Wire protocol: POST JSON ``{"model": str, "items": [{"input": str,
    "candidates": [str, ...]}, ...]}`` and read back ``{"results":
    [{"scores": [float, ...]}, ...]}`` with scores being natural-log
    likelihoods aligned with the candidates.

    Transport failures and 5xx answers are retried with exponential backoff.
    A body that is not JSON or has no ``results`` list raises ProtocolError
    with an excerpt of it; otherwise each result's ``scores`` comes back as
    parsed (None for a non-object result) and ``score_all`` checks the rows.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_token: str | None = None,
        max_batch_size: int = 32,
        timeout: float = 60.0,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ):
        if not (isinstance(retries, int) and retries >= 1 and timeout > 0 and backoff >= 0):
            raise ValidationError("need an int retries >= 1, timeout > 0 and backoff >= 0, got "
                                  f"{retries!r}, {timeout!r} and {backoff!r}")
        try:
            url = urlsplit(endpoint)
            port = url.port
        except ValueError:  # a malformed port or IPv6 address
            url, port = urlsplit(""), None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValidationError(f"endpoint is not an http(s) URL with a host: {endpoint!r}")
        import http.client  # here, not at module level: it imports ssl, email and socket

        connection = (http.client.HTTPSConnection if url.scheme == "https"
                      else http.client.HTTPConnection)
        self._connect = partial(connection, url.hostname, port, timeout=timeout)
        self._transport_errors = (OSError, http.client.HTTPException)
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        # Spaces, control and non-ASCII characters are percent-encoded; escapes stay.
        self._path = quote(path, safe="!#$%&'()*+,/:;=?@[]~")
        self._headers = {"Content-Type": "application/json"}
        if api_token:
            self._headers["Authorization"] = f"Bearer {api_token}"
        # Kept-alive connections no request is using: at most one per request
        # that was ever in flight at once, shared by threads and score_all calls.
        self._idle: list[HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self.endpoint = endpoint
        self.model_id = model
        self.retries = retries
        self.backoff = backoff
        self.max_batch_size = max_batch_size
        self.retry_count = 0

    def _send(self, body: bytes) -> tuple[int, bytes]:
        """POST on an idle kept-alive connection, or a new one: (status, response body)."""
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else self._connect()
        reused = conn.sock is not None
        try:
            conn.request("POST", self._path, body, self._headers)
            response = conn.getresponse()
            return response.status, response.read()
        except BaseException as exc:
            conn.close()  # its next request reconnects
            if not (reused and isinstance(exc, ConnectionError)):
                raise
        finally:
            with self._idle_lock:
                self._idle.append(conn)
        return self._send(body)  # closed by the server while idle: not a retry

    def close(self) -> None:
        """Close every idle kept-alive connection; a later request reconnects.

        A connection whose request is still in flight is not reached; call
        this once scoring is done.
        """
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> bytes:
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if attempt > 0:
                delay = self.backoff * (2 ** (attempt - 1))
                self.retry_count += 1
                logger.warning(
                    "retrying scorer request (attempt %d/%d) after %.2fs: %s",
                    attempt + 1, self.retries, delay, last_error,
                )
                time.sleep(delay)
            try:
                status, data = self._send(body)
            except self._transport_errors as exc:
                last_error = exc
                continue
            if status >= 500:
                last_error = BackendError(f"server error {status} from {self.endpoint}")
                continue
            if status != 200:
                raise BackendError(
                    f"scorer at {self.endpoint} answered {status}: {_excerpt(data)}"
                )
            return data
        raise BackendError(
            f"scorer at {self.endpoint} unreachable after {self.retries} attempts: "
            f"{last_error}"
        )

    def score_batch(self, batch: Sequence[ScoreRequest]) -> list:
        if not batch:
            return []
        c = len(batch[0].candidates)
        if any(len(req.candidates) != c for req in batch):
            raise BackendError("the requests in one batch must share one candidate count")
        payload = {
            "model": self.model_id,
            "items": [
                {"input": req.input, "candidates": list(req.candidates)} for req in batch
            ],
        }
        data = self._post(json.dumps(payload).encode())
        try:
            doc = json.loads(data)
        except ValueError:
            raise ProtocolError("response is not JSON", _excerpt(data)) from None
        results = doc.get("results") if isinstance(doc, dict) else None
        if not isinstance(results, list):
            raise ProtocolError("response has no results list", _excerpt(data))
        return [result.get("scores") if isinstance(result, dict) else None
                for result in results]


def _excerpt(body: bytes) -> str:
    return body.decode("utf-8", errors="replace")[:200]
