"""Persistent score cache: round-trips, counters, keys, corruption handling."""

import errno
import hashlib
import logging
import os
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zps
from zps import CacheCorruptionError, ScoreCache, ValidationError, make_cache_key
from zps.cache import ids_digest, make_block_key

from .helpers import (CACHE_HEADER, block_bytes, read_blocks, read_records, read_segments,
                      segment_bytes)


def digest(name) -> bytes:
    """A cache key: a raw 32-byte sha256 digest, as ``make_cache_key`` returns."""
    return hashlib.sha256(str(name).encode()).digest()


A, B, C = digest("a"), digest("b"), digest("c")


def test_put_get_round_trip(tmp_path):
    with ScoreCache(tmp_path / "c.cache") as cache:
        key = make_cache_key("m", "input", ("yes", "no"), False)
        assert cache.get(key) is None
        cache.put(key, [-1.25, -0.5])
        assert cache.get(key) == (-1.25, -0.5)
        assert key in cache
        assert len(cache) == 1


def test_persists_across_reopen(tmp_path):
    path = tmp_path / "c.cache"
    key = make_cache_key("m", "i", ("a", "b", "c"), True)
    with ScoreCache(path) as cache:
        cache.put(key, [-0.5, -1.5, -2.5])
    with ScoreCache(path) as cache:
        assert cache.get(key) == (-0.5, -1.5, -2.5)
        assert len(cache) == 1


def test_hit_and_miss_counters(tmp_path):
    with ScoreCache(tmp_path / "c.cache") as cache:
        key = make_cache_key("m", "i", ("a", "b", "c"), False)
        cache.get(key)
        cache.put(key, [-2.0, -1.0, -3.0])
        cache.get(key)
        cache.get(key)
        assert cache.misses == 1
        assert cache.hits == 2


def test_duplicate_put_keeps_first_value(tmp_path):
    path = tmp_path / "c.cache"
    key = make_cache_key("m", "i", ("a", "b"), False)
    with ScoreCache(path) as cache:
        cache.put(key, [-1.0, -2.0])
        cache.put(key, [-9.0, -9.0])
        cache.put_many([key, A, A], [[-8.0, -8.0], [-3.0, -4.0], [-7.0, -7.0]])
        assert cache.get(key) == (-1.0, -2.0)
        assert cache.get(A) == (-3.0, -4.0)
    # each cell once on disk, in the segments of the puts that brought it first
    assert read_segments(path) == [[(key, (-1.0, -2.0))], [(A, (-3.0, -4.0))]]


def test_load_keeps_first_value(tmp_path):
    path = tmp_path / "c.cache"
    data = (segment_bytes([(A, [-1.0]), (B, [-3.0]), (A, [-4.0])])
            + segment_bytes([(A, [-2.0])]))
    path.write_bytes(data)
    with ScoreCache(path) as cache:
        assert cache.get(A) == (-1.0,)
        assert cache.get(B) == (-3.0,)
        assert len(cache) == 2
        cache.put(A, [-5.0])  # a key loaded from the file is not appended again
    assert path.read_bytes() == data  # reading alone writes nothing


def test_key_sensitivity():
    base = dict(model_id="m", rendered_input="i", candidates=("a", "b"), length_norm=False)
    key = make_cache_key(**base)
    assert make_cache_key(**{**base, "model_id": "m2"}) != key
    assert make_cache_key(**{**base, "rendered_input": "i2"}) != key
    assert make_cache_key(**{**base, "candidates": ("a", "c")}) != key
    assert make_cache_key(**{**base, "candidates": ("b", "a")}) != key  # order counts
    assert make_cache_key(**{**base, "candidates": ("a",)}) != key
    assert make_cache_key(**{**base, "candidates": ("a", "b", "")}) != key
    assert make_cache_key(**{**base, "length_norm": True}) != key
    assert make_cache_key(**base, coords=("p0", "e0")) != key
    assert make_cache_key(**base, coords=("p0", "e1")) != \
        make_cache_key(**base, coords=("p0", "e0"))
    # same parts, same key, whatever the sequence type
    assert make_cache_key(**base) == key
    assert make_cache_key(**{**base, "candidates": ["a", "b"]}) == key


_UNICODE_INPUT = "Film: é ünïcode ☃ 文字"


# Keys that earlier versions wrote, in hex, each after the cell it addresses.
_PINNED_KEYS = [
    (("m", "input", ("yes",), False, None),
     "dcadc815112b5ea5da59bde5c28b007a728da8e158336808e23b0a67031f9542"),
    (("m", "input", ("yes",), True, ("p0", "e0")),
     "251ed7ac42709b52af1888e8cfa6cbc66cf21bcd5367adef71f5c158b372edc7"),
    (("gpt-x", _UNICODE_INPUT, ("great", "bad", "so-so"), False, None),
     "d96a61b1e0c95b5d5039d4c615400e8734edc0843092f0d221d96c76ee6f0f23"),
    (("gpt-x", _UNICODE_INPUT, ("great", "bad", "so-so"), True, None),
     "ff8c6a47d5b3a9795b4d8493c6a38c1a40f94ec269cefb2b16c00bec6d606522"),
    (("gpt-x", _UNICODE_INPUT, ("great", "bad", "so-so"), False, ("prompt/é", "ex-7")),
     "c7095c36552d47471ca7a8c0f9ac3df1edf00a04baabf343f7877fcf83d4f871"),
    (("", "", ("", "", ""), True, ("", "")),
     "81f91221fb7bb0f588bc846e03ebdad3ef5ece8a8342b23a584b2b76a1a603bf"),
]


@pytest.mark.parametrize("args, expected", _PINNED_KEYS)
def test_key_bytes_are_pinned(args, expected):
    # Keys written by earlier versions must keep hitting: any change to the
    # hashed text silently turns every existing cache into misses.
    assert make_cache_key(*args).hex() == expected


def test_pinned_keys_hit_a_file_of_an_earlier_version(tmp_path):
    # The pinned digests, as a file written by an earlier version holds them,
    # are found by the keys this version computes.
    path = tmp_path / "c.cache"
    rows = [[-float(i), -0.5] for i in range(len(_PINNED_KEYS))]
    path.write_bytes(segment_bytes([(bytes.fromhex(expected), row)
                                    for (_, expected), row in zip(_PINNED_KEYS, rows)]))
    with ScoreCache(path) as cache:
        for (args, _), row in zip(_PINNED_KEYS, rows):
            assert cache.get(make_cache_key(*args)) == tuple(row)
        assert (cache.hits, cache.misses) == (len(_PINNED_KEYS), 0)


@pytest.mark.parametrize(
    "left, right",
    [
        # the input/candidate boundary
        (("m", "a\x1fb", ("c",)), ("m", "a", ("b\x1fc",))),
        (("m", "ab", ("c",)), ("m", "a", ("bc",))),
        # the candidate/candidate boundary
        (("m", "i", ("a\x1fb", "c")), ("m", "i", ("a", "b\x1fc"))),
        (("m", "i", ("ab", "c")), ("m", "i", ("a", "bc"))),
        (("m", "i", ("a", "b")), ("m", "i", ("a\x1fb",))),
        # text that looks like a length prefix
        (("m", "i", ("1:a", "b")), ("m", "i1:", ("1:a", "1:b"))),
        # the model/flag and input/count boundaries
        (("m\x1fln=0", "i", ("a",)), ("m", "ln=0\x1fi", ("a",))),
        (("m", "i", ("a",)), ("m", "i1", ("a",))),
    ],
)
def test_key_parts_do_not_run_into_each_other(left, right):
    assert make_cache_key(left[0], left[1], left[2], False) != \
        make_cache_key(right[0], right[1], right[2], False)


def test_candidates_and_coords_do_not_run_into_each_other():
    with_coords = make_cache_key("m", "i", ("a",), False, coords=("p", "e"))
    assert make_cache_key("m", "i", ("a", "p", "e"), False) != with_coords
    assert make_cache_key("m", "i", ("a", "pid=p", "eid=e"), False) != with_coords


_part = st.text(st.sampled_from("ab1:\x1f"), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_part, _part, st.lists(_part, min_size=1, max_size=3),
                 st.none() | st.tuples(_part, _part)),
       st.tuples(_part, _part, st.lists(_part, min_size=1, max_size=3),
                 st.none() | st.tuples(_part, _part)))
def test_different_cells_get_different_keys(a, b):
    def key(cell):
        model, text, candidates, coords = cell
        return make_cache_key(model, text, candidates, False, coords)

    assert (key(a) == key(b)) == (a == b)


def test_corrupt_line_raises_with_reset_advice(tmp_path):
    # A damaged segment before the last one is not a torn tail.
    path = tmp_path / "c.cache"
    good = segment_bytes([(A, [-1.0, -2.0])])
    path.write_bytes(good + b"garbage!" * 8 + good)
    with pytest.raises(CacheCorruptionError, match="segment 2"):
        ScoreCache(path)
    with pytest.raises(CacheCorruptionError, match="delete or move"):
        ScoreCache(path)
    path.write_bytes(b"garbage\n")  # not even a torn header
    with pytest.raises(CacheCorruptionError, match="segment 1"):
        ScoreCache(path)


def _damaged(field, value, block=False):
    """A sound cell segment, or block segment, whose header ``field`` is
    replaced by ``value`` (CRC kept)."""
    data = (block_bytes(digest("block"), [A, B]) if block
            else segment_bytes([(A, [-1.0, -2.0]), (B, [-3.0, -4.0])]))
    fields = dict(zip(("magic", "version", "b", "c", "length", "crc"),
                      CACHE_HEADER.unpack_from(data)))
    fields[field] = value
    return CACHE_HEADER.pack(*fields.values()) + data[CACHE_HEADER.size:]


@pytest.mark.parametrize(
    "segment",
    [
        _damaged("magic", b"ZPSD"),
        _damaged("version", 2),
        _damaged("version", 4),
        _damaged("b", 0),
        _damaged("b", 1),
        _damaged("c", 0),
        _damaged("c", 1),
        _damaged("length", 0),
        _damaged("length", 2 * (32 + 16) + 8),
        segment_bytes([(A, [-1.0, float("nan")])]),
        segment_bytes([(A, [float("inf"), -1.0])]),
        segment_bytes([(A, [-1.0]), (B, [float("-inf")])]),
        _damaged("version", 3, block=True),
        _damaged("version", 5, block=True),
        _damaged("b", 0, block=True),
        _damaged("b", 1, block=True),
        _damaged("c", 1, block=True),
        _damaged("length", 2 * 32, block=True),
    ],
    ids=["magic", "version-2", "version-4", "no-cells", "cell-count", "no-values",
         "value-count", "no-length", "length", "nan", "inf", "-inf", "block-version-3",
         "block-version-5", "block-no-cells", "block-cell-count", "block-values",
         "block-length"],
)
@pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
def test_damaged_segments_raise(tmp_path, segment, last):
    # A header that is whole but wrong, or values that pass the CRC but are not
    # finite, are damage wherever they sit: a torn append cannot make them.
    path = tmp_path / "c.cache"
    good = segment_bytes([(C, [-1.0])])
    data = good + segment + (b"" if last else good)
    path.write_bytes(data)
    with pytest.raises(CacheCorruptionError,
                       match=rf"corrupt at segment 2 \(byte {len(good)}\).*delete or move"):
        ScoreCache(path)
    assert path.read_bytes() == data


@pytest.mark.parametrize(
    "text",
    [
        '{"key": "a", "logprob": -1.0}\n{"key": "b", "logprob": -2.0}\n',
        '{"key": "a", "logprobs": [-1.0, -2.0]}\n{"key": "b", "logprob": -2.0}\n',
        '{"key": "a", "logprobs": [-1.0, -2.0]}\n{"key": "b", "logprobs": [-2.0, -1.5]}\n',
        '{"cells": [{"key": "a", "values": [-1.0, -2.0]}]}',
        '{"key": "a"}\n',
        "{}",
    ],
    ids=["v1-file", "v1-line-in-v2-file", "v2-file", "other-json", "json-shorter-than-a-header",
         "empty-object"],
)
def test_older_formats_and_other_json_get_the_one_refusal(tmp_path, text):
    # No zps since cache format v3 writes JSON. Such a file, however short, is
    # not a torn segment: no ZPSC magic begins with "{".
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CacheCorruptionError,
                       match=r"corrupt at segment 1 \(byte 0\); refusing .*delete or move"):
        ScoreCache(path)
    assert path.read_text(encoding="utf-8") == text  # nothing cut or rewritten


def test_a_file_starting_with_a_brace_but_not_json_is_corrupt(tmp_path):
    # No ZPSC magic begins with a brace, so segment 1 is refused, not cut as a torn tail.
    path = tmp_path / "c.cache"
    path.write_bytes(b"{not json\n" + segment_bytes([(A, [-1.0, -2.0])]))
    data = path.read_bytes()
    with pytest.raises(CacheCorruptionError, match="corrupt at segment 1 .*delete or move"):
        ScoreCache(path)
    assert path.read_bytes() == data  # nothing rewritten


@pytest.mark.parametrize(
    "line",
    [
        '{"logprobs": [-1.0]}',
        '{"key": "a"}',
        '{"logprob": -1.0}',
        '{"key": 7, "logprobs": [-1.0]}',
        '{"key": "a", "logprobs": "x"}',
        '{"key": "a", "logprobs": -1.0}',
        '{"key": "a", "logprobs": null}',
        '{"key": "a", "logprobs": []}',
        '{"key": "a", "logprobs": {"0": -1.0}}',
        '{"key": "a", "logprobs": [-1.0, "x"]}',
        '{"key": "a", "logprobs": [-1.0, null]}',
        '{"key": "a", "logprobs": [NaN]}',
        '{"key": "a", "logprobs": [-1.0, Infinity]}',
        '{"key": "a", "logprobs": [-Infinity, -1.0]}',
        '{"key": "a", "logprobs": [true, -1.0]}',
        '{"key": "a", "logprobs": [[-1.0]]}',
        '[1, 2]',
        '{"key": 7, "logprob": -1.0}',
        '{"key": "a", "logprob": "x"}',
        '{"key": "a", "logprob": NaN}',
        '{"key": "a", "logprob": true}',
        pytest.param('{"key": "a", "logprobs": [1' + "0" * 400 + "]}", id="huge-int"),
    ],
)
def test_invalid_entries_raise(tmp_path, line):
    # Text of the earlier JSON Lines formats, well-formed or not, is never read
    # as cells: each file is refused whole, with the advice to reset it.
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CacheCorruptionError,
                       match=r"corrupt at segment 1 \(byte 0\).*delete or move"):
        ScoreCache(path)
    assert path.read_text(encoding="utf-8") == line + "\n"


def test_concurrent_puts_all_land(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        keys = [digest(i) for i in range(200)]

        def worker(indices):
            for i in indices:
                cache.put(keys[i], [-float(i), -1.0])

        threads = [
            threading.Thread(target=worker, args=(range(i, 200, 4),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 200
    with ScoreCache(path) as cache:
        assert len(cache) == 200
        for i, k in enumerate(keys):
            assert cache.get(k) == (-float(i), -1.0)


def test_file_format_is_pinned_bytes(tmp_path):
    # Files written by earlier runs of this format must keep reading, so its
    # bytes do not change: per put_many, one header, the keys' digests, then
    # the values as little-endian float64, cell by cell.
    k1 = "dcadc815112b5ea5da59bde5c28b007a728da8e158336808e23b0a67031f9542"
    k2 = "251ed7ac42709b52af1888e8cfa6cbc66cf21bcd5367adef71f5c158b372edc7"
    k3 = "d96a61b1e0c95b5d5039d4c615400e8734edc0843092f0d221d96c76ee6f0f23"
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put_many([bytes.fromhex(k1), bytes.fromhex(k2)],
                       [[-3.5, -0.25, -1], [-0.0, 5e-324, -1.7976931348623157e308]])
        cache.put(bytes.fromhex(k3), [-2.0])
    expected = bytes.fromhex(
        # "ZPSC", version 3, 2 cells, 3 values each, 112-byte payload, its crc32
        "5a505343" "0300" "02000000" "0300" "7000000000000000" "8cbdac45"
        + k1 + k2
        + "0000000000000cc0" "000000000000d0bf" "000000000000f0bf"  # -3.5, -0.25, -1.0
        + "0000000000000080" "0100000000000000" "ffffffffffffefff"  # -0.0, 5e-324, -max
        # "ZPSC", version 3, 1 cell, 1 value, 40-byte payload, its crc32
        + "5a505343" "0300" "01000000" "0100" "2800000000000000" "af823f28"
        + k3 + "00000000000000c0"  # -2.0
    )
    assert path.read_bytes() == expected
    with ScoreCache(path) as cache:
        assert cache.get(bytes.fromhex(k2)) == (-0.0, 5e-324, -1.7976931348623157e308)


def test_creates_parent_directory(tmp_path):
    path = tmp_path / "deep" / "nested" / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(A, [-1.0])
    assert path.exists()


@pytest.mark.parametrize(
    "key, values",
    [
        (A, [float("nan")]),
        (A, [-1.0, float("inf")]),
        (A, [float("-inf"), -1.0]),
        (A, [10**400]),
        (A, [True, -1.0]),
        (A, ["-1.0"]),
        (A, [None]),
        (A, None),
        (A, -1.0),
        (A, []),
        (A, "-1.0"),
        (A.hex(), [-1.0]),
        (None, [-1.0]),
        (7, [-1.0]),
        (A[:31], [-1.0]),
        (A + b"0", [-1.0]),
        (b"", [-1.0]),
        (bytearray(A), [-1.0]),
        (memoryview(A), [-1.0]),
    ],
    ids=["nan", "inf", "-inf", "huge-int", "bool", "str-value", "none-value", "none",
         "scalar", "empty", "str", "hex-str-key", "none-key", "int-key", "31-byte-key",
         "33-byte-key", "empty-key", "bytearray-key", "memoryview-key"],
)
def test_invalid_put_raises_and_writes_nothing(tmp_path, key, values):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        with pytest.raises(ValidationError):
            cache.put(key, values)
        # a bad item anywhere in a batch keeps the whole batch out
        with pytest.raises(ValidationError):
            cache.put_many([B, key], [[-1.0], values])
        assert len(cache) == 0
    assert path.read_bytes() == b""
    with ScoreCache(path) as cache:
        assert len(cache) == 0


@pytest.mark.parametrize(
    "key", [bytes(32), b"\xff" * 32, A, make_cache_key("m", "i", ("a",), False)],
    ids=["zeros", "ones", "sha256", "make_cache_key"],
)
def test_any_32_byte_digest_is_accepted(tmp_path, key):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(key, [-1.0])
        assert cache.get(key) == (-1.0,)
    assert read_segments(path) == [[(key, (-1.0,))]]
    with ScoreCache(path) as cache:
        assert cache.get(key) == (-1.0,)


def test_bad_key_is_named_in_hex(tmp_path):
    with ScoreCache(tmp_path / "c.cache") as cache:
        with pytest.raises(ValidationError, match=f"32-byte digest, not bytes {A[:31].hex()}$"):
            cache.put_many([B, A[:31]], [[-1.0], [-1.0]])
        with pytest.raises(ValidationError, match=f"not str '{A.hex()}'$"):
            cache.put(A.hex(), [-1.0])


def test_one_put_many_needs_one_value_count(tmp_path):
    # One segment holds one value count c, so a put_many may not mix counts.
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        with pytest.raises(ValidationError, match="same length"):
            cache.put_many([A, B], [[-1.0], [-1.0, -2.0]])
        cache.put_many([A], [[-1.0]])
        cache.put_many([B], [[-1.0, -2.0]])
    assert read_segments(path) == [[(A, (-1.0,))], [(B, (-1.0, -2.0))]]


class _FailingHandle:
    """Append handle stand-in whose first write fails: it raises ENOSPC, or it
    writes only a 10-byte prefix and returns that length, after running
    ``then`` (another writer's append, say)."""

    def __init__(self, inner, short, then=lambda: None):
        self.inner, self.short, self.then, self.failed = inner, short, then, False

    def write(self, data):
        if self.failed:
            return self.inner.write(data)
        self.failed = True
        if self.short:
            written = self.inner.write(data[:10])
            self.then()
            return written
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):  # tell, close, ...
        return getattr(self.inner, name)


def test_write_that_raises_records_nothing(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache._handle = _FailingHandle(cache._handle, short=False)
        with pytest.raises(OSError, match="No space"):
            cache.put_many([A, B], [[-1.0, -0.5], [-2.0, -0.5]])
        assert (A in cache, B in cache, len(cache)) == (False, False, 0)
        cache.put(A, [-1.0, -0.5])  # the retry writes the cell
    assert read_segments(path) == [[(A, (-1.0, -0.5))]]


def test_short_write_records_nothing(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache._handle = _FailingHandle(cache._handle, short=True)
        with pytest.raises(OSError, match="short write"):
            cache.put_many([A, B], [[-1.0, -0.5], [-2.0, -0.5]])
        assert (A in cache, B in cache, len(cache)) == (False, False, 0)
        assert path.read_bytes() == b""  # the 10-byte prefix is cut off


def test_retry_after_a_short_write_leaves_a_sound_file(tmp_path, caplog):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(A, [-3.0, -0.25])
        cache._handle = _FailingHandle(cache._handle, short=True)
        with pytest.raises(OSError, match="short write"):
            cache.put(B, [-1.0, -0.5])
        cache.put(B, [-1.0, -0.5])  # the same handle, retried
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert cache.get(A) == (-3.0, -0.25) and cache.get(B) == (-1.0, -0.5)
    assert caplog.records == []
    assert read_segments(path) == [[(A, (-3.0, -0.25))], [(B, (-1.0, -0.5))]]


def test_short_write_behind_another_append_stops_the_handle(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache, ScoreCache(path) as other:
        # Another writer appends between the short write and its clean-up.
        cache._handle = _FailingHandle(cache._handle, short=True,
                                       then=lambda: other.put(C, [-2.0, -1.0]))
        with pytest.raises(OSError, match="short write"):
            cache.put(A, [-1.0, -0.5])
        size = path.stat().st_size
        with pytest.raises(OSError, match="reopen the cache"):
            cache.put(B, [-1.0, -0.5])
        assert path.stat().st_size == size and B not in cache
    with pytest.raises(CacheCorruptionError, match="corrupt at segment 1 "):
        ScoreCache(path)  # the torn part sits ahead of the other writer's segment


def test_short_write_whose_clean_up_fails_stops_the_handle(tmp_path, monkeypatch):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache._handle = _FailingHandle(cache._handle, short=True)

        def truncate(size, offset):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(cache, "_truncate", truncate)
        with pytest.raises(OSError, match="short write"):
            cache.put(A, [-1.0, -0.5])
        with pytest.raises(OSError, match="reopen the cache"):
            cache.put(B, [-1.0, -0.5])
        assert path.stat().st_size == 10 and A not in cache and B not in cache


def test_empty_put_many_writes_nothing(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put_many([], [])
        cache.put_many([], np.empty((0, 2)))
        assert len(cache) == 0
    assert path.read_bytes() == b""


def test_put_many_takes_an_array_and_copies_it(tmp_path):
    path = tmp_path / "c.cache"
    values = np.array([[-1.0, -0.5], [-2.0, -0.25]])
    with ScoreCache(path) as cache:
        cache.put_many([A, B], values)
        values[:] = 0.0
        assert cache.get(A) == (-1.0, -0.5) and cache.get(B) == (-2.0, -0.25)
        with pytest.raises(ValidationError, match=C.hex()):
            cache.put_many([C, A], np.array([[True, False], [True, True]]))
        with pytest.raises(ValidationError, match="one row per key"):
            cache.put_many([C], values)
    assert read_segments(path) == [[(A, (-1.0, -0.5)), (B, (-2.0, -0.25))]]


def _three_segments():
    return [segment_bytes([(digest(f"{s}-{i}"), [-float(s), -float(i), -0.5]) for i in range(3)])
            for s in range(3)]


def test_torn_last_line_is_truncated_with_a_warning(tmp_path, caplog):
    path = tmp_path / "c.cache"
    first = segment_bytes([(A, [-1.0, -0.5])])
    path.write_bytes(first + segment_bytes([(B, [-2.0, -0.5])])[:-5])
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            assert path.read_bytes() == first
            cache.put(B, [-2.0, -0.5])
    assert "segment 2" in caplog.text
    with ScoreCache(path) as cache:
        assert cache.get(A) == (-1.0, -0.5) and cache.get(B) == (-2.0, -0.5)


def test_torn_last_segment_is_cut_at_every_offset(tmp_path, caplog):
    segments = _three_segments()
    kept = segments[0] + segments[1]
    path = tmp_path / "c.cache"
    path.write_bytes(kept)
    cells = [cell for segment in read_segments(path) for cell in segment]
    for cut in range(1, len(segments[2])):
        path.write_bytes(kept + segments[2][:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="zps.cache"):
            with ScoreCache(path) as cache:
                assert len(cache) == 6
                assert all(cache.get(k) == values for k, values in cells)
        assert [r.getMessage() for r in caplog.records] == [
            f"cache {path}: dropped torn last segment 3 ({cut} bytes)"]
        assert path.read_bytes() == kept


def test_bad_crc_is_a_torn_tail_only_in_the_last_segment(tmp_path, caplog):
    segments = _three_segments()
    path = tmp_path / "c.cache"
    for flipped in range(3):
        damaged = bytearray(segments[flipped])
        damaged[-1] ^= 0x01  # one bit of the last value, under the CRC
        data = b"".join(segments[:flipped]) + bytes(damaged) + b"".join(segments[flipped + 1:])
        path.write_bytes(data)
        if flipped < 2:
            with pytest.raises(CacheCorruptionError, match=f"segment {flipped + 1}"):
                ScoreCache(path)
            assert path.read_bytes() == data
            continue
        with caplog.at_level(logging.WARNING, logger="zps.cache"):
            with ScoreCache(path) as cache:
                assert len(cache) == 6
        assert "dropped torn last segment 3" in caplog.text
        assert path.read_bytes() == segments[0] + segments[1]


def test_torn_last_line_still_being_written_is_left_alone(tmp_path, monkeypatch, caplog):
    # Another run ends the segment between this open's read of it and the cut.
    path = tmp_path / "c.cache"
    first, second = segment_bytes([(A, [-1.0, -0.5])]), segment_bytes([(B, [-2.0, -0.5])])
    path.write_bytes(first + second[:-5])
    read_bytes = Path.read_bytes

    def read_then_finish(self):
        data = read_bytes(self)
        if self == path:
            with open(path, "ab") as fh:
                fh.write(second[-5:])
        return data

    monkeypatch.setattr(Path, "read_bytes", read_then_finish)
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            cache.put(C, [-3.0, -0.5])
    assert "dropped" not in caplog.text
    monkeypatch.undo()
    with ScoreCache(path) as cache:
        assert [cache.get(k) for k in (A, B, C)] == [(-1.0, -0.5), (-2.0, -0.5), (-3.0, -0.5)]


def test_concurrent_put_many_writes_whole_lines(tmp_path):
    # Every thread offers the same batches, so each key races four ways.
    path = tmp_path / "c.cache"
    batches = [[(digest(f"b{b}-k{i}"), [-float(b * 50 + i), -0.5, -1.5]) for i in range(50)]
               for b in range(40)]

    start = threading.Barrier(4, timeout=30)

    def worker():
        start.wait()
        for batch in batches:
            cache.put_many([k for k, _ in batch], [v for _, v in batch])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ScoreCache(path) as cache:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    expected = {key: tuple(values) for batch in batches for key, values in batch}
    cells = [cell for segment in read_segments(path) for cell in segment]
    assert len(cells) == len(expected)
    assert dict(cells) == expected


# Appends CHUNKS chunks of SIZE cells of its own, plus a tenth as many cells
# that the other process appends too, once both processes are ready.
_APPENDER = """
import hashlib, sys, time
from pathlib import Path
from zps import ScoreCache

def key(name):
    return hashlib.sha256(name.encode()).digest()

path, tag, other, chunks, size = sys.argv[1:4] + [int(a) for a in sys.argv[4:6]]
Path(path + ".ready-" + tag).touch()
deadline = time.monotonic() + 30
while not Path(path + ".ready-" + other).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
with ScoreCache(path) as cache:
    for b in range(chunks):
        cache.put_many([key(f"{tag}-{b}-{i}") for i in range(size)],
                       [[-float(b), -float(i), -0.5] for i in range(size)])
        cache.put_many([key(f"shared-{b}-{i}") for i in range(size // 10)],
                       [[-float(b), -2.0, -float(i)] for i in range(size // 10)])
"""


def test_two_processes_append_whole_segments(tmp_path):
    path = tmp_path / "c.cache"
    chunks, size = 40, 400  # each own chunk is about 22 KB, above any atomic-pipe size
    env = dict(os.environ, PYTHONPATH=str(Path(zps.__file__).resolve().parents[1]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, str(path), tag, other,
                          str(chunks), str(size)], env=env)
        for tag, other in (("one", "two"), ("two", "one"))
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0

    segments = read_segments(path)  # asserts every header and CRC
    assert sum(len(segment) == size for segment in segments) == 2 * chunks
    cells = [cell for segment in segments for cell in segment]
    expected = {
        digest(f"{tag}-{b}-{i}"): (-float(b), -float(i), -0.5)
        for tag in ("one", "two") for b in range(chunks) for i in range(size)
    }
    expected.update({digest(f"shared-{b}-{i}"): (-float(b), -2.0, -float(i))
                     for b in range(chunks) for i in range(size // 10)})
    assert dict(cells) == expected
    # each process appends a shared key unless it had already loaded it: at most twice
    assert len(expected) <= len(cells) <= len(expected) + chunks * (size // 10)
    with ScoreCache(path) as cache:
        assert len(cache) == len(expected)
        assert all(cache.get(key) == values for key, values in expected.items())


_number = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308,
                       1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 0.1])
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.tuples(st.sampled_from([digest(i) for i in range(12)]),
                       st.lists(_number, min_size=c, max_size=c)), min_size=1, max_size=8),
    max_size=5)))
def test_put_many_round_trips_value_bits(chunks):
    first = {}
    for chunk in chunks:
        for k, values in chunk:
            first.setdefault(k, [float(v) for v in values])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cache"
        with ScoreCache(path) as cache:
            for chunk in chunks:
                cache.put_many([k for k, _ in chunk], [v for _, v in chunk])
        cells = [cell for segment in read_segments(path) for cell in segment]
        assert [k for k, _ in cells] == list(first)  # each key once, in first-put order
        assert all(_bits(values) == _bits(first[k]) for k, values in cells)
        with ScoreCache(path) as cache:
            assert len(cache) == len(first)
            for k, values in first.items():
                assert _bits(cache.get(k)) == _bits(values)


def test_keys_ending_in_nul_bytes_load_whole_with_exact_value_bits(tmp_path):
    # Segment keys are split from the joined digests as 32-byte voids: a bytes
    # dtype would strip the trailing NULs and the cells would never hit again.
    keys = [bytes(32), b"\x01" + bytes(31), digest("a")[:16] + bytes(16),
            digest("b")[:31] + b"\x00", digest("c")[:24] + bytes(8), b"\x00\xff" * 16]
    values = [[-0.0, 5e-324, -1.7976931348623157e308], [0.0, -5e-324, 1e-300],
              [-1.7976931348623157e308, -0.0, 5e-324], [-2.2250738585072014e-308, -0.5, 0.1],
              [-0.0, -0.0, -0.0], [5e-324, 1.7976931348623157e308, -1.0]]
    cells = list(zip(keys, values))
    path = tmp_path / "c.cache"
    path.write_bytes(segment_bytes(cells[:1]) + segment_bytes(cells[1:4])
                     + segment_bytes(cells[4:]))
    with ScoreCache(path) as cache:
        assert len(cache) == len(keys)
        for k, v in cells:
            assert _bits(cache.get(k)) == _bits(v)
        assert cache.hits == len(keys) and cache.misses == 0
        # and so do cells that put_many records, after a reopen
        more = [(bytes(31) + b"\x07", [-0.0, 5e-324, -1.0]),
                (b"\x07" + bytes(31), [1.0, 2.0, 3.0])]
        cache.put_many([k for k, _ in more], [v for _, v in more])
        for k, v in more:
            assert _bits(cache.get(k)) == _bits(v)
    with ScoreCache(path) as cache:
        for k, v in cells + more:
            assert _bits(cache.get(k)) == _bits(v)


K = digest("block")


def test_block_record_lists_cells_and_counts_none(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put_many([A, B], [[-1.0, -0.5], [-2.0, -0.5]])
        cache.put_block(K, [B, A])
        assert cache.block(K) == [B, A] and cache.block(C) is None
        assert len(cache) == 2
    with ScoreCache(path) as cache:
        assert cache.block(K) == [B, A]
        assert len(cache) == 2 and (cache.hits, cache.misses) == (0, 0)
    assert read_records(path) == [[(A, (-1.0, -0.5)), (B, (-2.0, -0.5))], (K, [B, A])]
    assert path.read_bytes()[-(24 + 3 * 32):] == block_bytes(K, [B, A])


def test_block_is_written_once_and_only_over_held_cells(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(A, [-1.0])
        size = path.stat().st_size
        cache.put_block(K, [A, C])  # C is not held
        cache.put_block(K, [])
        assert path.stat().st_size == size and cache.block(K) is None
        cache.put_block(K, [A])
        cache.put(B, [-2.0])
        cache.put_block(K, [B])  # the block key keeps its first list
        assert cache.block(K) == [A]
    assert read_blocks(path) == [(K, [A])]


def test_load_keeps_a_blocks_first_list(tmp_path):
    # Two files concatenated: the same block key listing other cells.
    path = tmp_path / "c.cache"
    path.write_bytes(segment_bytes([(A, [-1.0]), (B, [-2.0])]) + block_bytes(K, [A])
                     + block_bytes(K, [B]))
    with ScoreCache(path) as cache:
        assert cache.block(K) == [A] and len(cache) == 2


def test_block_lists_a_key_not_held(tmp_path):
    # A block only supplies keys: one the file lacks misses on get like any other.
    path = tmp_path / "c.cache"
    path.write_bytes(segment_bytes([(A, [-1.0])]) + block_bytes(K, [A, C]))
    with ScoreCache(path) as cache:
        assert cache.block(K) == [A, C]
        assert cache.get(C) is None and (cache.hits, cache.misses) == (0, 1)
        cache.put(C, [-3.0])
        assert cache.block(K) == [A, C] and cache.get(C) == (-3.0,)


def test_bad_block_key_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(A, [-1.0])
        size = path.stat().st_size
        for key in (K.hex(), K[:31], bytearray(K)):
            with pytest.raises(ValidationError, match="32-byte digest"):
                cache.put_block(key, [A])
        assert path.stat().st_size == size


def test_short_block_write_records_nothing(tmp_path):
    path = tmp_path / "c.cache"
    with ScoreCache(path) as cache:
        cache.put(A, [-1.0])
        size = path.stat().st_size
        cache._handle = _FailingHandle(cache._handle, short=True)
        with pytest.raises(OSError, match="short write"):
            cache.put_block(K, [A])
        assert cache.block(K) is None and path.stat().st_size == size
        cache.put_block(K, [A])  # the same handle, retried
    assert read_blocks(path) == [(K, [A])]


def test_torn_last_block_is_cut_at_every_offset(tmp_path, caplog):
    kept = segment_bytes([(A, [-1.0]), (B, [-2.0])]) + block_bytes(K, [A])
    block = block_bytes(C, [A, B])
    path = tmp_path / "c.cache"
    for cut in range(1, len(block)):
        path.write_bytes(kept + block[:cut])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="zps.cache"):
            with ScoreCache(path) as cache:
                assert cache.block(K) == [A] and cache.block(C) is None
        assert [r.getMessage() for r in caplog.records] == [
            f"cache {path}: dropped torn last segment 3 ({cut} bytes)"]
        assert path.read_bytes() == kept


def test_block_with_a_bad_crc_is_cut_only_as_the_last_segment(tmp_path):
    cells = segment_bytes([(A, [-1.0])])
    damaged = bytearray(block_bytes(K, [A]))
    damaged[-1] ^= 0x01  # one bit of the listed key, under the CRC
    path = tmp_path / "c.cache"
    path.write_bytes(cells + bytes(damaged) + cells)
    with pytest.raises(CacheCorruptionError, match=rf"segment 2 \(byte {len(cells)}\)"):
        ScoreCache(path)
    path.write_bytes(cells + bytes(damaged))
    with ScoreCache(path) as cache:
        assert cache.block(K) is None and len(cache) == 1
    assert path.read_bytes() == cells


def test_block_key_sensitivity():
    base = dict(model_id="m", rendered_inputs=["i", "j"], candidates=("a", "b"),
                length_norm=False)
    key = make_block_key(**base)
    ids = ids_digest(["e0", "e1"])
    for change in ({"model_id": "m2"}, {"rendered_inputs": ["i", "k"]},
                   {"rendered_inputs": ["j", "i"]}, {"rendered_inputs": ["ij", ""]},
                   {"rendered_inputs": ["i"]}, {"candidates": ("b", "a")},
                   {"candidates": ("a", "b", "")}, {"length_norm": True}):
        assert make_block_key(**{**base, **change}) != key
    assert make_block_key(**base, coords=("p0", ids)) != key
    assert make_block_key(**base, coords=("p1", ids)) != make_block_key(**base, coords=("p0", ids))
    assert ids_digest(["e0", "e2"]) != ids and ids_digest(["e0e", "1"]) != ids
    # no block key is a cell key: the two hash different texts
    assert make_block_key("m", ["i"], ("a",), False) != make_cache_key("m", "i", ("a",), False)
    assert make_block_key(**{**base, "rendered_inputs": ("i", "j")}) == key


def test_block_key_bytes_are_pinned():
    # Files written by this version must keep hitting their block records.
    assert make_block_key("m", ["input", _UNICODE_INPUT], ("yes", "no"), False).hex() == \
        "9633b54070684a008c38860e2a6e424893b6b00499c3da561fdc6ee3dbb3d38e"
    assert make_block_key("m", ["input", _UNICODE_INPUT], ("yes", "no"), True,
                          ("prompt/é", ids_digest(["ex-7", "ex-8"]))).hex() == \
        "dbb8558d3977e2dae3334e8bae56d7e015e4c2468e479f987c4dcfb6a18980ad"
