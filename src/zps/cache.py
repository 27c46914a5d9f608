"""Persistent score cache.

Append-only JSON Lines file, one entry per (model, input, candidate, flags)
cell: ``{"key": hex-hash, "logprob": float}``. Keys are content hashes, so a
cache survives prompt/catalog reordering and is shared across runs. Backends
whose scores are addressed by ids rather than content (the synthetic one)
get the ids mixed into the key.

Reads are lock-free after load. Appends are serialized and made per chunk:
``put_many`` writes all of a chunk's new lines with one write and one flush.
A malformed cache raises instead of being silently recomputed over; the one
exception is an unparseable last line with no newline, the torn tail of a
killed run, which is truncated with a warning.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import threading
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable

from .errors import CacheCorruptionError, ValidationError

logger = logging.getLogger(__name__)


def make_cache_key(
    model_id: str,
    rendered_input: str,
    candidate: str,
    length_norm: bool,
    coords: tuple[str, str] | None = None,
) -> str:
    """Content hash identifying one scored cell.

    ``coords`` (prompt_id, example_id) is only mixed in for backends that are
    not content-addressed.
    """
    parts = [model_id, f"ln={int(length_norm)}", rendered_input, candidate]
    if coords is not None:
        parts += [f"pid={coords[0]}", f"eid={coords[1]}"]
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


class ScoreCache:
    """File-backed cache of per-candidate log-likelihoods."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, float] = {}
        self._handle = None
        # Written before the first append when the file's last entry lacks its newline.
        self._prefix = ""
        self.hits = 0
        self.misses = 0
        self._load()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _load(self) -> None:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        line = b""
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj = json.loads(line.decode("utf-8"))
                    key = obj["key"]
                    value = obj["logprob"]
                except (ValueError, KeyError, TypeError) as exc:
                    if not line.strip():  # blank lines are tolerated
                        continue
                    # ValueError: bytes that are not UTF-8 or not JSON
                    if isinstance(exc, ValueError) and not line.endswith(b"\n"):
                        # the torn tail of an append killed part-way: cut it off
                        with open(self.path, "r+b") as out:
                            out.truncate(fh.tell() - len(line))
                        logger.warning("cache %s: dropped unterminated, unparseable line "
                                       "%d (%d bytes)", self.path, lineno, len(line))
                        return
                    raise CacheCorruptionError(
                        f"cache {self.path} is corrupt at line {lineno}; refusing to "
                        "recompute silently -- delete or move the file to reset it"
                    ) from None
                try:
                    self._entries[key] = _checked(key, value)
                except ValidationError:
                    raise CacheCorruptionError(
                        f"cache {self.path} has an invalid entry at line {lineno}; "
                        "delete or move the file to reset it"
                    ) from None
        if line and not line.endswith(b"\n"):
            self._prefix = "\n"

    def get(self, key: str) -> float | None:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, logprob: float) -> None:
        """Record one score: a one-item ``put_many``."""
        self.put_many([(key, logprob)])

    def put_many(self, items: Iterable[tuple[str, float]]) -> None:
        """Record scores with one append and one flush, so concurrent runs can share.

        A key already present keeps its first value. Each new line holds the
        bytes of ``json.dumps({"key": key, "logprob": float(logprob)})``. A
        non-``str`` key, or a value that is not a finite int or float, raises
        ValidationError before anything is written.
        """
        items = [(key, _checked(key, value)) for key, value in items]
        with self._lock:
            lines = []
            for key, value in items:
                if key in self._entries:
                    continue
                self._entries[key] = value
                lines.append(f'{{"key": {encode_basestring_ascii(key)}, "logprob": {value!r}}}\n')
            if lines:
                self._handle.write(self._prefix + "".join(lines))
                self._handle.flush()
                self._prefix = ""

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _checked(key: str, logprob: float) -> float:
    """The float a cache line stores for ``logprob``; invalid entries raise."""
    if not isinstance(key, str):
        raise ValidationError(f"cache key must be a str, not {type(key).__name__}")
    if isinstance(logprob, (int, float)) and not isinstance(logprob, bool):
        try:
            value = float(logprob)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ValidationError(f"cache value for {key!r} must be a finite number, "
                          f"not {logprob!r}")
