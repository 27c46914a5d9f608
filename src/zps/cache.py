"""Persistent score cache.

Append-only binary file of segments, one per ``put_many`` call, each holding
cells: a 64-byte key and one float64 value per candidate, in candidate order.
A key is two sha256 digests side by side, built without rendering its cell:
the prompt part (``prompt_key_part``) of model id, length-norm flag, template
text and ordered candidate phrases, and the example part
(``example_key_part``) of the values ``render`` substitutes, in placeholder
order, each as ``format(value, "")``, the text ``render`` writes for it.
Equal template text and equal values render one input, so equal keys mean
one (model, flag, input, candidates) cell. Keys ignore prompt and catalog
order and fields the template does not read, so a cache is shared across
runs; two templates that render the same text get two keys. Backends whose
scores are addressed by ids rather than content (the synthetic one) get the
prompt id mixed into the prompt part and the example id into the example part.

A segment is a fixed little-endian header -- magic ``ZPSC``, version 5, count
``b``, value count ``c``, payload length and the ``zlib.crc32`` of the
payload -- followed by the payload: the ``b`` keys, then the ``b x c`` values
as little-endian float64.

Reads are lock-free after load. Each ``put_many`` appends its segment in one
write, under a lock, to an unbuffered append-mode handle; ``score_all`` makes
every append from its calling thread, in walk order. A key keeps its first
value, on load as on append. A damaged cache raises instead of being silently
recomputed over; the one exception is a last segment that is cut short or
fails its CRC, the torn tail of a killed run, which is truncated with a
warning. Every other file that does not read as these segments -- one written
before version 5, any other text, a bad header or CRC before the last
segment, a non-finite value -- is refused with one "corrupt at segment N"
message and never rewritten.
"""

from __future__ import annotations

import hashlib
import logging
import struct
import threading
import zlib
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CacheCorruptionError, ValidationError

logger = logging.getLogger(__name__)

_MAGIC = b"ZPSC"
_VERSION = 5
# magic, version, cells b, values per cell c, payload length, crc32 of the payload
_HEADER = struct.Struct("<4sHIHQI")
_KEY_SIZE = 64  # a prompt part and an example part
_UINT64 = struct.Struct("<Q").pack


def _part(tag: bytes, strings: Sequence[str]) -> bytes:
    """sha256 of ``tag``, the count of ``strings``, then each string's UTF-8
    bytes after their length, each number a little-endian uint64."""
    out = [tag, _UINT64(len(strings))]
    for text in strings:
        data = text.encode("utf-8")
        out += (_UINT64(len(data)), data)
    return hashlib.sha256(b"".join(out)).digest()


def prompt_key_part(model_id: str, length_norm: bool, template_text: str,
                    candidates: Sequence[str], prompt_id: str | None = None) -> bytes:
    """The first 32 bytes of every key of a prompt's cells: the ``_part`` of
    model id, ``1`` or ``0`` for the flag, template text and the candidate
    phrases in order, tagged ``zps5 prompt\\n``; for an id-addressed backend
    the prompt id follows, tagged ``zps5 prompt+id\\n``."""
    strings = [model_id, "1" if length_norm else "0", template_text, *candidates]
    if prompt_id is None:
        return _part(b"zps5 prompt\n", strings)
    return _part(b"zps5 prompt+id\n", [*strings, prompt_id])


def example_key_part(values: Iterable, example_id: str | None = None) -> bytes:
    """The last 32 bytes of a cell's key: the ``_part`` of the values
    ``render`` substitutes, in placeholder order, each as ``format(value, "")``,
    tagged ``zps5 example\\n``; for an id-addressed backend the example id
    follows, tagged ``zps5 example+id\\n``."""
    strings = list(map(format, values))
    if example_id is None:
        return _part(b"zps5 example\n", strings)
    return _part(b"zps5 example+id\n", [*strings, example_id])


def make_cache_key(prompt_part: bytes, example_part: bytes) -> bytes:
    """The 64-byte key of one cell, the form a cache file stores: its prompt's
    part, then its example's part."""
    return prompt_part + example_part


class ScoreCache:
    """File-backed cache of per-cell candidate log-likelihoods.

    ``hits`` and ``misses`` count ``get`` calls, one per cell; ``len`` counts cells.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[bytes, tuple[float, ...]] = {}
        self._handle = None
        self._torn = False  # a short write left bytes that could not be cut off
        self.hits = 0
        self.misses = 0
        self._load()
        self._handle = open(self.path, "ab", buffering=0)

    def _load(self) -> None:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        keys: list[bytes] = []
        rows: list[tuple[float, ...]] = []
        for payload, values in self._segments(data):
            # V64, not S64: a bytes dtype would strip a key's trailing NUL bytes.
            keys += np.frombuffer(payload, "V64", count=len(values)).tolist()
            rows += _rows(values)
        # Built back to front, so that a key keeps the first of its values.
        self._entries = dict(zip(reversed(keys), reversed(rows)))

    def _segments(self, data: bytes) -> Iterator[tuple[memoryview, np.ndarray]]:
        """Each sound segment's payload and its (b, c) values.

        A short or bad-CRC last segment is cut off; other damage raises.
        """
        view = memoryview(data)
        size = len(data)
        offset = segment = 0
        while offset < size:
            segment += 1
            header = data[offset : offset + _HEADER.size]
            if len(header) < _HEADER.size:
                if not _MAGIC.startswith(header[: len(_MAGIC)]):
                    raise self._corrupt(segment, offset)
                self._cut_torn_tail(size, offset, segment)
                return
            magic, version, b, c, length, crc = _HEADER.unpack(header)
            if (magic != _MAGIC or version != _VERSION or not b or not c
                    or length != b * (_KEY_SIZE + 8 * c)):
                raise self._corrupt(segment, offset)
            start = offset + _HEADER.size
            payload = view[start : start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                if start + length < size:
                    raise self._corrupt(segment, offset)
                self._cut_torn_tail(size, offset, segment)
                return
            values = np.frombuffer(payload, "<f8", offset=b * _KEY_SIZE).reshape(b, c)
            if not np.isfinite(values).all():
                raise self._corrupt(segment, offset)
            yield payload, values
            offset = start + length

    def _corrupt(self, segment: int, offset: int) -> CacheCorruptionError:
        return CacheCorruptionError(
            f"cache {self.path} is corrupt at segment {segment} (byte {offset}); refusing "
            "to recompute silently -- delete or move the file to reset it"
        )

    def _cut_torn_tail(self, size: int, offset: int, segment: int) -> None:
        """Cut off the last segment, short or failing its CRC, from ``offset`` on.

        It is the torn tail of an append killed part-way, unless the file has
        grown past ``size`` since it was read: then another run is still
        writing that segment, and it is left to end it.
        """
        if self._truncate(size, offset):
            logger.warning("cache %s: dropped torn last segment %d (%d bytes)",
                           self.path, segment, size - offset)

    def _truncate(self, size: int, offset: int) -> bool:
        """Cut the file back to ``offset`` bytes if it still has ``size``;
        False, leaving it as it is, if another writer has grown it since."""
        with open(self.path, "r+b") as out:
            if out.seek(0, 2) != size:
                return False
            out.truncate(offset)
        return True

    def get(self, key: bytes) -> tuple[float, ...] | None:
        """The cell's cached values in candidate order, or None."""
        values = self._entries.get(key)
        if values is None:
            self.misses += 1
        else:
            self.hits += 1
        return values

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: bytes, logprobs: Sequence[float]) -> None:
        """Record one cell's scores: a one-row ``put_many``."""
        self.put_many([key], [logprobs])

    def put_many(self, keys: Sequence[bytes],
                 values: np.ndarray | Sequence[Sequence[float]]) -> None:
        """Record cells as one segment with one write, so concurrent runs can share.

        ``values`` holds one row per key, as a (b, c) array or a list of
        rows. A key already present keeps its first value. A key that is not
        a 64-byte ``bytes`` object (as ``make_cache_key`` returns), or rows
        that ``score_matrix`` refuses, raise ValidationError before anything
        is written. The cells are recorded only once the write has returned
        in full. A short write raises OSError; the part it wrote is cut off
        while it is still the file's last bytes, and otherwise this cache
        refuses every later append, which would land behind the torn part.
        """
        keys = list(keys)
        if not keys:
            return
        _check_keys(keys)
        array = score_matrix(values)
        if array is None or len(array) != len(keys):
            raise _bad_values(keys, values)
        with self._lock:
            fresh: dict[bytes, int] = {}
            for i, key in enumerate(keys):
                if key not in self._entries and key not in fresh:
                    fresh[key] = i
            if not fresh:
                return
            array = array[list(fresh.values())]
            payload = b"".join(fresh) + array.tobytes()
            segment = _HEADER.pack(_MAGIC, _VERSION, len(fresh), array.shape[1], len(payload),
                                   zlib.crc32(payload)) + payload
            if self._torn:
                raise OSError(f"cache {self.path} ends in a torn segment that this handle "
                              "could not cut off; reopen the cache to append to it")
            written = self._handle.write(segment)
            if written != len(segment):
                try:
                    end = self._handle.tell()
                    self._torn = not self._truncate(end, end - written)
                except OSError:
                    self._torn = True
                raise OSError(f"short write to cache {self.path}")
            self._entries.update(zip(fresh, _rows(array)))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ScoreCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _check_keys(keys: list) -> None:
    """Refuse a key that is not a 64-byte ``bytes`` object, naming it."""
    for key in keys:
        if type(key) is not bytes or len(key) != _KEY_SIZE:
            shown = key.hex() if isinstance(key, (bytes, bytearray, memoryview)) else repr(key)
            raise ValidationError(f"cache key must be {_KEY_SIZE} bytes, not "
                                  f"{type(key).__name__} {shown}")


def _rows(values: np.ndarray) -> Iterator[tuple[float, ...]]:
    """A (b, c) array's rows as b tuples of floats, read out one column at a time."""
    return zip(*values.T.tolist())


def score_matrix(rows) -> np.ndarray | None:
    """``rows`` as a new (b, c) little-endian float64 array, or None unless they
    are equally long, non-empty rows of finite ints and floats.

    A bool is not a number. An ndarray's dtype decides; the values of a list
    are also scanned for bools, which numpy would read as 0 and 1.
    """
    try:
        values = np.array(rows)
    except (TypeError, ValueError, OverflowError):  # ragged rows
        return None
    if values.dtype.kind not in "fiu" or values.ndim != 2 or not values.shape[1]:
        return None
    if not isinstance(rows, np.ndarray) and not {bool, np.bool_}.isdisjoint(
            map(type, chain.from_iterable(rows))):
        return None
    values = values.astype("<f8", copy=False)
    return values if np.isfinite(values).all() else None


def _bad_values(keys: list[bytes], values) -> ValidationError:
    """Why ``put_many`` refuses ``values``: the first bad row, or a count or
    length mismatch."""
    for key, row in zip(keys, values if np.iterable(values) else [values]):
        if score_matrix([row]) is None:
            return ValidationError(f"cache values for {key.hex()} must be a non-empty list of "
                                   f"finite numbers, not {row!r}")
    return ValidationError("cache values in one put_many must be one row per key, all of "
                           "the same length")
