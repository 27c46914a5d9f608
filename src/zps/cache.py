"""Persistent score cache.

Append-only JSON Lines file, one entry per scored cell, that is per (model,
length-norm flag, rendered input, ordered candidate phrases):
``{"key": hex-hash, "logprobs": [float, ...]}``, one value per candidate in
candidate order. Keys are content hashes, so a cache survives
prompt/catalog reordering and is shared across runs. Backends whose scores
are addressed by ids rather than content (the synthetic one) get the ids
mixed into the key.

Reads are lock-free after load. Appends are serialized and made per chunk:
``put_many`` writes all of a chunk's new lines with one write and one flush.
A key keeps its first value, on load as on append. A malformed cache raises
instead of being silently recomputed over; the one exception is an
unparseable last line with no newline, the torn tail of a killed run, which
is truncated with a warning. A file in the older one-value-per-line format
(``"logprob"``, one entry per candidate phrase) is refused with its own
message.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

from .catalog import finite
from .errors import CacheCorruptionError, ValidationError

logger = logging.getLogger(__name__)


def make_cache_key(
    model_id: str,
    rendered_input: str,
    candidates: Sequence[str],
    length_norm: bool,
    coords: tuple[str, str] | None = None,
) -> str:
    """Content hash identifying one scored cell.

    ``candidates`` are the cell's candidate phrases in order. ``coords``
    (prompt_id, example_id) is only mixed in for backends that are not
    content-addressed. The hashed text states the flag, the candidate count
    and every part's length ahead of the parts themselves, so no two
    different cells hash the same text.
    """
    parts = [model_id, rendered_input, *candidates]
    if coords is not None:
        parts += coords
    lengths = list(map(len, parts))
    text = f"{length_norm:d};{len(candidates)};{lengths}{''.join(parts)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ScoreCache:
    """File-backed cache of per-cell candidate log-likelihoods.

    ``hits`` and ``misses`` count ``get`` calls, one per cell.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[float, ...]] = {}
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
        entries = self._entries
        line = b""
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    obj = json.loads(line.decode("utf-8"))
                    key = obj["key"]
                    values = obj["logprobs"]
                except (ValueError, KeyError, TypeError) as exc:
                    if not line.strip():  # blank lines are tolerated
                        continue
                    # ValueError: bytes that are not UTF-8 or not JSON
                    if isinstance(exc, ValueError) and not line.endswith(b"\n"):
                        self._cut_torn_tail(fh.tell(), line, lineno)
                        return
                    if isinstance(exc, KeyError) and "key" in obj and "logprob" in obj:
                        raise CacheCorruptionError(
                            f"cache {self.path} uses the older one-value-per-line format, "
                            "which this version does not read; delete or move the file "
                            "to rescore"
                        ) from None
                    raise CacheCorruptionError(
                        f"cache {self.path} is corrupt at line {lineno}; refusing to "
                        "recompute silently -- delete or move the file to reset it"
                    ) from None
                try:
                    values = _checked(key, values)
                except ValidationError:
                    raise CacheCorruptionError(
                        f"cache {self.path} has an invalid entry at line {lineno}; "
                        "delete or move the file to reset it"
                    ) from None
                if key not in entries:
                    entries[key] = values
        if line and not line.endswith(b"\n"):
            self._prefix = "\n"

    def _cut_torn_tail(self, size: int, line: bytes, lineno: int) -> None:
        """Cut off an unparseable last line that has no newline.

        It is the torn tail of an append killed part-way, unless the file has
        grown past ``size`` since it was read: then another run is still
        writing that line, and it is left to end it.
        """
        with open(self.path, "r+b") as out:
            if out.seek(0, 2) != size:
                return
            out.truncate(size - len(line))
        logger.warning("cache %s: dropped unterminated, unparseable line %d (%d bytes)",
                       self.path, lineno, len(line))

    def get(self, key: str) -> tuple[float, ...] | None:
        """The cell's cached values in candidate order, or None."""
        values = self._entries.get(key)
        if values is None:
            self.misses += 1
        else:
            self.hits += 1
        return values

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, logprobs: Sequence[float]) -> None:
        """Record one cell's scores: a one-item ``put_many``."""
        self.put_many([(key, logprobs)])

    def put_many(self, items: Iterable[tuple[str, Sequence[float]]]) -> None:
        """Record cells with one append and one flush, so concurrent runs can share.

        A key already present keeps its first value. Each new line holds the
        bytes of ``json.dumps({"key": key, "logprobs": [float(v) for v in
        logprobs]})``. A non-``str`` key, or values that are not a non-empty
        sequence of finite ints and floats, raise ValidationError before
        anything is written.
        """
        items = [(key, _checked(key, values)) for key, values in items]
        with self._lock:
            lines = []
            for key, values in items:
                if key in self._entries:
                    continue
                self._entries[key] = values
                lines.append(f'{{"key": {encode_basestring_ascii(key)}, '
                             f'"logprobs": [{", ".join(map(repr, values))}]}}\n')
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


def _checked(key: str, logprobs: Sequence[float]) -> tuple[float, ...]:
    """The floats a cache line stores for ``logprobs``; invalid entries raise."""
    if not isinstance(key, str):
        raise ValidationError(f"cache key must be a str, not {type(key).__name__}")
    if isinstance(logprobs, (list, tuple)) and logprobs:
        values = tuple(map(finite, logprobs))
        if None not in values:
            return values
    raise ValidationError(f"cache values for {key!r} must be a non-empty list of finite "
                          f"numbers, not {logprobs!r}")

