"""Persistent score cache.

Append-only binary file of segments, one per ``put_many`` call, each holding
cells: a 64-byte key and one float64 value per candidate, in candidate order.
A key is two sha256 digests side by side, built without rendering its cell:
the prompt part (``prompt_key_part``) of model id, length-norm flag, template
text and ordered candidate phrases, and the example part
(``example_key_parts``) of the values ``render`` substitutes, in placeholder
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

In memory, cells are numbered as they are stored and their values lie end to
end in one float64 array, so cells of any width share a file; a dict maps each
key to its cell. An open reads one segment at a time and builds no per-cell
object but the key. ``find`` looks keys up in bulk; ``gather`` reads their values
and refuses a cell that does not hold as many values as the caller asks for.

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
import os
import struct
import threading
import zlib
from itertools import chain, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CacheCorruptionError, ValidationError

logger = logging.getLogger(__name__)

_MAGIC = b"ZPSC"
_VERSION = 5
# magic, version, cells b, values per cell c, payload length, crc32 of the payload
_HEADER = struct.Struct("<4sHIHQI")
_KEY_SIZE = 64  # a prompt part and an example part
_UINT64 = struct.Struct("<Q").pack


def _parts(name: str, columns: Sequence[Sequence[str]], rows: int,
           ids: Sequence[str] | None = None) -> list[bytes]:
    """Per row, the sha256 of the tag ``zps5 <name>\\n``, the count of
    columns, then the row's string in each column as its UTF-8 bytes after
    their length, each number a little-endian uint64. With ``ids``, the tag is
    ``zps5 <name>+id\\n`` and each row's id is its last column."""
    if ids is not None:
        name, columns = f"{name}+id", [*columns, ids]
    pieces: list[Iterable[bytes]] = [repeat(f"zps5 {name}\n".encode() + _UINT64(len(columns)),
                                            rows)]
    for column in columns:
        data = [text.encode("utf-8") for text in column]
        pieces += (map(_UINT64, map(len, data)), data)
    return [hashlib.sha256(data).digest() for data in map(b"".join, zip(*pieces))]


def prompt_key_part(model_id: str, length_norm: bool, template_text: str,
                    candidates: Sequence[str], prompt_id: str | None = None) -> bytes:
    """The first 32 bytes of every key of a prompt's cells: the ``_parts``
    ``prompt`` of model id, ``1`` or ``0`` for the flag, template text and the
    candidate phrases in order; for an id-addressed backend, then the prompt id."""
    strings = [model_id, "1" if length_norm else "0", template_text, *candidates]
    return _parts("prompt", [[text] for text in strings], 1,
                  None if prompt_id is None else [prompt_id])[0]


def example_key_parts(rows: Sequence[Mapping], names: Sequence,
                      example_ids: Sequence[str] | None = None) -> list[bytes]:
    """The last 32 bytes of the keys of each row's cells, in one pass: the
    ``_parts`` ``example`` of ``row[name]`` for each of ``names``, the values
    ``render`` substitutes in placeholder order, each as ``format(value, "")``;
    for an id-addressed backend, then the row's example id."""
    columns = [list(map(format, map(itemgetter(name), rows))) for name in names]
    return _parts("example", columns, len(rows), example_ids)


def example_key_part(values: Iterable, example_id: str | None = None) -> bytes:
    """The last 32 bytes of one cell's key: ``example_key_parts`` of one row."""
    values = list(values)
    return example_key_parts([values], range(len(values)),
                             None if example_id is None else [example_id])[0]


def make_cache_key(prompt_part: bytes, example_part: bytes) -> bytes:
    """The 64-byte key of one cell, the form a cache file stores: its prompt's
    part, then its example's part."""
    return prompt_part + example_part


class ScoreCache:
    """File-backed cache of per-cell candidate log-likelihoods.

    Cell ``j`` holds ``_values[_bounds[j] : _bounds[j + 1]]``; ``_index`` maps a key to
    its cell. ``hits`` and ``misses`` count the keys ``find`` and ``get`` look up."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[bytes, int] = {}
        self._values = np.empty(0)  # grown by doubling; the first _bounds[_cells] are used
        self._bounds = np.zeros(1, np.intp)
        self._cells = 0  # cells stored, a key repeated in the file among them
        self._handle = None
        self._torn = False  # a short write left bytes that could not be cut off
        self.hits = self.misses = 0
        self._load()
        self._handle = open(self.path, "ab", buffering=0)

    def _load(self) -> None:
        """Read the file one segment at a time, up to the size it had when opened.
        A last segment cut short or failing its CRC, the torn tail of an append
        killed part-way, is cut off, unless the file has grown since: then another
        run is still writing it, and is left to end it. Other damage raises."""
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        keys: list[bytes] = []
        with handle:
            size = os.fstat(handle.fileno()).st_size
            offset = segment = 0
            while offset < size:
                segment += 1
                header = handle.read(min(_HEADER.size, size - offset))
                if len(header) < _HEADER.size:
                    if not _MAGIC.startswith(header[: len(_MAGIC)]):
                        raise self._corrupt(segment, offset)
                    break
                magic, version, b, c, length, crc = _HEADER.unpack(header)
                if (magic != _MAGIC or version != _VERSION or not b or not c
                        or length != b * (_KEY_SIZE + 8 * c)):
                    raise self._corrupt(segment, offset)
                start = offset + _HEADER.size
                payload = handle.read(min(length, size - start))
                if len(payload) < length or zlib.crc32(payload) != crc:
                    if start + length < size:
                        raise self._corrupt(segment, offset)
                    break
                values = np.frombuffer(payload, "<f8", offset=b * _KEY_SIZE).reshape(b, c)
                if not np.isfinite(values).all():
                    raise self._corrupt(segment, offset)
                # V64, not S64: a bytes dtype would strip a key's trailing NUL bytes.
                keys += np.frombuffer(payload, "V64", count=b).tolist()
                self._store(values)
                offset = start + length
        if offset < size and self._truncate(size, offset):
            logger.warning("cache %s: dropped torn last segment %d (%d bytes)",
                           self.path, segment, size - offset)
        self._values = self._values[: self._bounds[self._cells]].copy()  # no slack after a load
        self._bounds = self._bounds[: self._cells + 1].copy()
        # Built back to front, so that a key keeps the first of its cells.
        self._index = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))

    def _corrupt(self, segment: int, offset: int) -> CacheCorruptionError:
        return CacheCorruptionError(
            f"cache {self.path} is corrupt at segment {segment} (byte {offset}); refusing "
            "to recompute silently -- delete or move the file to reset it")

    def _truncate(self, size: int, offset: int) -> bool:
        """Cut the file back to ``offset`` bytes if it still has ``size``;
        False, leaving it as it is, if another writer has grown it since."""
        with open(self.path, "r+b") as out:
            if out.seek(0, 2) != size:
                return False
            out.truncate(offset)
        return True

    def get(self, key: bytes) -> tuple[float, ...] | None:
        """The cell's cached values in candidate order, or None: a one-key ``find``."""
        cell, = self.find([key])
        start, end = self._bounds[[cell, cell + 1]]
        return None if cell < 0 else tuple(self._values[start:end].tolist())

    def find(self, keys: Sequence[bytes]) -> np.ndarray:
        """Each key's cell number, or -1 if it is absent; each key is a hit or a miss."""
        cells = np.fromiter(map(self._index.get, keys, repeat(-1)), np.intp, len(keys))
        found = np.count_nonzero(cells >= 0)
        self.hits, self.misses = self.hits + found, self.misses + len(keys) - found
        return cells

    def gather(self, cells: np.ndarray, width: int) -> np.ndarray:
        """The (len(cells), width) values of ``cells``. The first of them, in the
        order given, that does not hold ``width`` values is refused as corrupt."""
        if not len(cells):
            return np.empty((0, width))
        starts = self._bounds[cells]
        widths = self._bounds[np.add(cells, 1)] - starts
        wrong = widths[widths != width]
        if len(wrong):
            raise CacheCorruptionError(
                f"cache {self.path} holds {wrong[0]} values for a cell with {width} candidates; "
                "delete or move the file to reset it")
        return np.lib.stride_tricks.sliding_window_view(self._values, width)[starts]

    def __contains__(self, key: bytes) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

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
        A closed cache refuses with ValueError before anything else.
        """
        if self._handle is None:
            raise ValueError(f"cache {self.path} is closed")
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
                if key not in self._index:
                    fresh.setdefault(key, i)
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
            self._index.update(zip(fresh, self._store(array)))

    def _store(self, values: np.ndarray) -> range:
        """Store a (b, c) array's rows as the next b cells; their numbers."""
        (b, c), first = values.shape, self._cells
        ends = int(self._bounds[first]) + c * np.arange(1, b + 1)
        self._values = _put(self._values, ends[0] - c, values.ravel())
        self._bounds = _put(self._bounds, first + 1, ends)
        self._cells += b
        return range(first, first + b)

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


def _put(store: np.ndarray, at: int, items: np.ndarray) -> np.ndarray:
    """``store`` with ``items`` written from ``at`` on; past its end, a copy at least twice
    as long (amortized O(1) per item), whose tail is not read before it is written."""
    if at + len(items) > len(store):
        store = np.resize(store, max(at + len(items), 2 * len(store)))
    store[at : at + len(items)] = items
    return store


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
