"""Persistent score cache.

Append-only binary file (format v3) of segments, one per ``put_many`` call,
each cell keyed by a content hash of (model, length-norm flag, rendered
input, ordered candidate phrases) and holding one float64 value per
candidate in candidate order. Keys are content hashes, so a cache survives
prompt/catalog reordering and is shared across runs. Backends whose scores
are addressed by ids rather than content (the synthetic one) get the ids
mixed into the key.

A segment is a fixed little-endian header -- magic ``ZPSC``, version, cell
count ``b``, value count ``c``, payload length and the ``zlib.crc32`` of the
payload -- followed by the payload: the ``b`` keys as raw 32-byte sha256
digests, then the ``b x c`` values as little-endian float64.

Reads are lock-free after load. ``put_many`` appends a chunk as one segment
in one write, under a lock, to an unbuffered append-mode handle; ``score_all``
makes every append from its calling thread, in walk order. A key keeps its
first value, on load as on append. A damaged cache raises instead of being
silently recomputed over; the one exception is a last segment that is cut
short or fails its CRC, the torn tail of a killed run, which is truncated with
a warning. Every other file that does not read as v3 segments -- the JSON
Lines of an earlier version, any other text, a bad header or CRC before the
last segment, a non-finite value -- is refused with one "corrupt at segment N"
message and never rewritten.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import struct
import threading
import zlib
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import CacheCorruptionError, ValidationError

logger = logging.getLogger(__name__)

_MAGIC = b"ZPSC"
_VERSION = 3
# magic, version, cells b, values per cell c, payload length, crc32 of the payload
_HEADER = struct.Struct("<4sHIHQI")
_DIGEST_SIZE = 32


def make_cache_key(
    model_id: str,
    rendered_input: str,
    candidates: Sequence[str],
    length_norm: bool,
    coords: tuple[str, str] | None = None,
) -> bytes:
    """Content hash identifying one scored cell: a raw 32-byte sha256 digest,
    the form a cache file stores.

    ``candidates`` are the cell's candidate phrases in order. ``coords``
    (prompt_id, example_id) is only mixed in for backends that are not
    content-addressed. The hashed text, ``{flag};{count};[{lengths}]{parts}``,
    states every part's length ahead of the parts themselves, so no two
    different cells hash the same text.
    """
    prompt_id, example_id = coords or (None, "")
    head, mid, model, tail = _key_parts(model_id, tuple(candidates), length_norm, prompt_id)
    id_len = "" if prompt_id is None else len(example_id)
    text = f"{head}{len(rendered_input)}{mid}{id_len}{model}{rendered_input}{tail}{example_id}"
    return hashlib.sha256(text.encode("utf-8")).digest()


@functools.lru_cache(maxsize=1024)
def _key_parts(model_id: str, candidates: tuple[str, ...], length_norm: bool,
               prompt_id: str | None) -> tuple[str, str, str, str]:
    """A key's text but for the input and example id: built once per prompt."""
    mid = "".join(f", {len(phrase)}" for phrase in candidates)
    tail = "".join(candidates)
    if prompt_id is not None:
        mid += f", {len(prompt_id)}, "
        tail += prompt_id
    return f"{length_norm:d};{len(candidates)};[{len(model_id)}, ", mid, f"]{model_id}", tail


class ScoreCache:
    """File-backed cache of per-cell candidate log-likelihoods.

    ``hits`` and ``misses`` count ``get`` calls, one per cell.
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
        for segment_keys, segment_rows in self._segments(data):
            keys += segment_keys
            rows += segment_rows
        # Built back to front, so that a key keeps the first of its values.
        self._entries = dict(zip(reversed(keys), reversed(rows)))

    def _segments(self, data: bytes) -> Iterator[tuple[list[bytes], Iterator[tuple]]]:
        """Each sound segment's keys and its value rows as tuples.

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
                    or length != b * (_DIGEST_SIZE + 8 * c)):
                raise self._corrupt(segment, offset)
            start = offset + _HEADER.size
            payload = view[start : start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                if start + length < size:
                    raise self._corrupt(segment, offset)
                self._cut_torn_tail(size, offset, segment)
                return
            values = np.frombuffer(payload, "<f8", offset=b * _DIGEST_SIZE).reshape(b, c)
            if not np.isfinite(values).all():
                raise self._corrupt(segment, offset)
            # V32, not S32: a bytes dtype would strip a key's trailing NUL bytes.
            yield np.frombuffer(payload, "V32", count=b).tolist(), _rows(values)
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
        a 32-byte ``bytes`` digest (as ``make_cache_key`` returns), or rows
        that ``score_matrix`` refuses, raise ValidationError before anything
        is written. The cells are recorded only once the write has returned
        in full. A short write raises OSError; the part it wrote is cut off
        while it is still the file's last bytes, and otherwise this cache
        refuses every later append, which would land behind the torn part.
        """
        keys = list(keys)
        if not keys:
            return
        for key in keys:
            if type(key) is not bytes or len(key) != _DIGEST_SIZE:
                shown = (key.hex() if isinstance(key, (bytes, bytearray, memoryview))
                         else repr(key))
                raise ValidationError(f"cache key must be a {_DIGEST_SIZE}-byte digest, not "
                                      f"{type(key).__name__} {shown}")
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
            rows = list(fresh.values())
            array = array[rows]
            payload = b"".join(fresh) + array.tobytes()
            segment = _HEADER.pack(_MAGIC, _VERSION, len(rows), array.shape[1],
                                  len(payload), zlib.crc32(payload)) + payload
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
