"""Persistent score cache: round-trips, counters, keys, corruption handling."""

import json
import logging
import os
import struct
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zps
from zps import CacheCorruptionError, ScoreCache, ValidationError, make_cache_key


def test_put_get_round_trip(tmp_path):
    with ScoreCache(tmp_path / "c.jsonl") as cache:
        key = make_cache_key("m", "input", ("yes", "no"), False)
        assert cache.get(key) is None
        cache.put(key, [-1.25, -0.5])
        assert cache.get(key) == (-1.25, -0.5)
        assert key in cache
        assert len(cache) == 1


def test_persists_across_reopen(tmp_path):
    path = tmp_path / "c.jsonl"
    key = make_cache_key("m", "i", ("a", "b", "c"), True)
    with ScoreCache(path) as cache:
        cache.put(key, [-0.5, -1.5, -2.5])
    with ScoreCache(path) as cache:
        assert cache.get(key) == (-0.5, -1.5, -2.5)
        assert len(cache) == 1


def test_hit_and_miss_counters(tmp_path):
    with ScoreCache(tmp_path / "c.jsonl") as cache:
        key = make_cache_key("m", "i", ("a", "b", "c"), False)
        cache.get(key)
        cache.put(key, [-2.0, -1.0, -3.0])
        cache.get(key)
        cache.get(key)
        assert cache.misses == 1
        assert cache.hits == 2


def test_duplicate_put_keeps_first_value(tmp_path):
    path = tmp_path / "c.jsonl"
    key = make_cache_key("m", "i", ("a", "b"), False)
    with ScoreCache(path) as cache:
        cache.put(key, [-1.0, -2.0])
        cache.put(key, [-9.0, -9.0])
        assert cache.get(key) == (-1.0, -2.0)
    # only one line on disk
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert len(lines) == 1


def test_load_keeps_first_value(tmp_path):
    path = tmp_path / "c.jsonl"
    text = ('{"key": "a", "logprobs": [-1.0]}\n'
            '{"key": "b", "logprobs": [-3.0]}\n'
            '{"key": "a", "logprobs": [-2.0]}\n')
    path.write_text(text, encoding="utf-8")
    with ScoreCache(path) as cache:
        assert cache.get("a") == (-1.0,)
        assert cache.get("b") == (-3.0,)
        assert len(cache) == 2
        cache.put("a", [-5.0])  # a key loaded from the file is not appended again
    assert path.read_text(encoding="utf-8") == text


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


@pytest.mark.parametrize(
    "args, expected",
    [
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
    ],
)
def test_key_bytes_are_pinned(args, expected):
    # Keys written by earlier versions must keep hitting: any change to the
    # hashed text silently turns every existing cache into misses.
    assert make_cache_key(*args) == expected


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
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "a", "logprobs": [-1.0, -2.0]}\ngarbage\n', encoding="utf-8")
    with pytest.raises(CacheCorruptionError, match="line 2"):
        ScoreCache(path)
    with pytest.raises(CacheCorruptionError, match="delete or move"):
        ScoreCache(path)


@pytest.mark.parametrize(
    "text",
    [
        '{"key": "a", "logprob": -1.0}\n{"key": "b", "logprob": -2.0}\n',
        '{"key": "a", "logprobs": [-1.0, -2.0]}\n{"key": "b", "logprob": -2.0}\n',
    ],
    ids=["v1-file", "v1-line-in-v2-file"],
)
def test_older_format_is_refused_with_its_own_message(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CacheCorruptionError) as excinfo:
        ScoreCache(path)
    message = str(excinfo.value)
    assert "older one-value-per-line format" in message
    assert "delete or move" in message
    assert "corrupt" not in message and "line 2" not in message
    assert path.read_text(encoding="utf-8") == text  # nothing rewritten


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
        # lines of the older format are refused too, whatever they hold
        '{"key": 7, "logprob": -1.0}',
        '{"key": "a", "logprob": "x"}',
        '{"key": "a", "logprob": NaN}',
        '{"key": "a", "logprob": true}',
        pytest.param('{"key": "a", "logprobs": [1' + "0" * 400 + "]}", id="huge-int"),
    ],
)
def test_invalid_entries_raise(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CacheCorruptionError, match="delete or move"):
        ScoreCache(path)


def test_blank_lines_tolerated(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "a", "logprobs": [-1.0, -2.0]}\n\n\n', encoding="utf-8")
    with ScoreCache(path) as cache:
        assert cache.get("a") == (-1.0, -2.0)


def test_concurrent_puts_all_land(tmp_path):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        keys = [f"k{i}" for i in range(200)]

        def worker(chunk):
            for k in chunk:
                cache.put(k, [-float(len(k)), -1.0])

        threads = [
            threading.Thread(target=worker, args=(keys[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 200
    with ScoreCache(path) as cache:
        assert len(cache) == 200
        for k in keys:
            assert cache.get(k) == (-float(len(k)), -1.0)


def test_file_format_is_plain_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        cache.put("abc", [-3.5, -0.25, -1])
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"key": "abc", "logprobs": [-3.5, -0.25, -1.0]}


def test_creates_parent_directory(tmp_path):
    path = tmp_path / "deep" / "nested" / "c.jsonl"
    with ScoreCache(path) as cache:
        cache.put("k", [-1.0])
    assert path.exists()


@pytest.mark.parametrize(
    "key, values",
    [
        ("n", [float("nan")]),
        ("n", [-1.0, float("inf")]),
        ("n", [float("-inf"), -1.0]),
        ("n", [10**400]),
        ("n", [True, -1.0]),
        ("n", ["-1.0"]),
        ("n", [None]),
        ("n", None),
        ("n", -1.0),
        ("n", []),
        ("n", "-1.0"),
        (7, [-1.0]),
        (b"k", [-1.0]),
    ],
    ids=["nan", "inf", "-inf", "huge-int", "bool", "str-value", "none-value", "none",
         "scalar", "empty", "str", "int-key", "bytes-key"],
)
def test_invalid_put_raises_and_writes_nothing(tmp_path, key, values):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        with pytest.raises(ValidationError):
            cache.put(key, values)
        # a bad item anywhere in a batch keeps the whole batch out
        with pytest.raises(ValidationError):
            cache.put_many([("ok", [-1.0]), (key, values)])
        assert len(cache) == 0
    assert path.read_bytes() == b""
    with ScoreCache(path) as cache:
        assert len(cache) == 0


def test_unterminated_valid_last_line_gets_its_newline(tmp_path):
    path = tmp_path / "c.jsonl"
    first = '{"key": "a", "logprobs": [-1.0, -0.5]}'
    path.write_text(first, encoding="utf-8")
    with ScoreCache(path) as cache:
        assert cache.get("a") == (-1.0, -0.5)
    assert path.read_text(encoding="utf-8") == first  # reading alone writes nothing
    with ScoreCache(path) as cache:
        cache.put_many([("b", [-2.0, -0.5]), ("c", [-3.0, -0.5])])
        cache.put("d", [-4.0, -0.5])
    assert path.read_text(encoding="utf-8").splitlines() == [
        first,
        '{"key": "b", "logprobs": [-2.0, -0.5]}',
        '{"key": "c", "logprobs": [-3.0, -0.5]}',
        '{"key": "d", "logprobs": [-4.0, -0.5]}',
    ]
    with ScoreCache(path) as cache:
        assert [cache.get(k)[0] for k in "abcd"] == [-1.0, -2.0, -3.0, -4.0]


def test_torn_last_line_is_truncated_with_a_warning(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    first = '{"key": "a", "logprobs": [-1.0, -0.5]}\n'
    path.write_text(first + '{"key": "b", "logprobs": [-2.0, -0', encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            assert path.read_text(encoding="utf-8") == first
            cache.put("b", [-2.0, -0.5])
    assert "line 2" in caplog.text
    with ScoreCache(path) as cache:
        assert cache.get("a") == (-1.0, -0.5) and cache.get("b") == (-2.0, -0.5)


def test_torn_last_line_still_being_written_is_left_alone(tmp_path, monkeypatch, caplog):
    # Another run ends the line between this open's read of it and the cut.
    path = tmp_path / "c.jsonl"
    first = '{"key": "a", "logprobs": [-1.0, -0.5]}\n'
    path.write_text(first + '{"key": "b", "logprobs": [-2.0, -0', encoding="utf-8")

    def loads(text):
        if not text.endswith("\n"):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write('.5]}\n')
        return json.loads(text)

    monkeypatch.setattr("zps.cache.json", SimpleNamespace(loads=loads))
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            cache.put("c", [-3.0, -0.5])
    assert "dropped" not in caplog.text
    monkeypatch.undo()
    with ScoreCache(path) as cache:
        assert [cache.get(k) for k in "abc"] == [(-1.0, -0.5), (-2.0, -0.5), (-3.0, -0.5)]


def test_concurrent_put_many_writes_whole_lines(tmp_path):
    # Every thread offers the same batches, so each key races four ways.
    path = tmp_path / "c.jsonl"
    batches = [[(f"b{b}-k{i}" + "x" * i, [-float(b * 50 + i), -0.5, -1.5]) for i in range(50)]
               for b in range(40)]

    start = threading.Barrier(4, timeout=30)

    def worker():
        start.wait()
        for batch in batches:
            cache.put_many(batch)

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
    expected = {key: values for batch in batches for key, values in batch}
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(expected)
    assert {row["key"]: row["logprobs"] for row in rows} == expected


# Appends CHUNKS chunks of SIZE cells of its own, plus a tenth as many cells
# that the other process appends too, once both processes are ready.
_APPENDER = """
import sys, time
from pathlib import Path
from zps import ScoreCache

path, tag, other, chunks, size = sys.argv[1:4] + [int(a) for a in sys.argv[4:6]]
Path(path + ".ready-" + tag).touch()
deadline = time.monotonic() + 30
while not Path(path + ".ready-" + other).exists() and time.monotonic() < deadline:
    time.sleep(0.001)
with ScoreCache(path) as cache:
    for b in range(chunks):
        cache.put_many([(f"{tag}-{b}-{i}" + "x" * (i % 13), [-float(b), -float(i), -0.5])
                        for i in range(size)])
        cache.put_many([(f"shared-{b}-{i}", [-float(b), -2.0, -float(i)])
                        for i in range(size // 10)])
"""


def test_two_processes_append_whole_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    chunks, size = 40, 300  # each own chunk is about 20 KB, above any atomic-pipe size
    env = dict(os.environ, PYTHONPATH=str(Path(zps.__file__).resolve().parents[1]))
    procs = [
        subprocess.Popen([sys.executable, "-c", _APPENDER, str(path), tag, other,
                          str(chunks), str(size)], env=env)
        for tag, other in (("one", "two"), ("two", "one"))
    ]
    for proc in procs:
        assert proc.wait(timeout=120) == 0

    data = path.read_bytes()
    assert data.endswith(b"\n")
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    assert all(set(row) == {"key", "logprobs"} for row in rows)
    expected = {
        f"{tag}-{b}-{i}" + "x" * (i % 13): [-float(b), -float(i), -0.5]
        for tag in ("one", "two") for b in range(chunks) for i in range(size)
    }
    expected.update({f"shared-{b}-{i}": [-float(b), -2.0, -float(i)]
                     for b in range(chunks) for i in range(size // 10)})
    assert {row["key"]: row["logprobs"] for row in rows} == expected
    # each process appends a shared key unless it had already loaded it: at most twice
    assert len(expected) <= len(rows) <= len(expected) + chunks * (size // 10)
    with ScoreCache(path) as cache:
        assert len(cache) == len(expected)
        assert all(cache.get(key) == tuple(values) for key, values in expected.items())


_awkward_text = st.text(
    st.characters(codec="utf-8") | st.sampled_from('"\\\n\r\t\x00\x1f\x7f\u2028é☃𝄞'),
    max_size=12,
)
_awkward_number = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                       1e-300, 1e300, 0.1])
    | st.integers(min_value=-(2**1000), max_value=2**1000)
)


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_awkward_text, st.lists(_awkward_number, min_size=1, max_size=4)),
                max_size=20))
def test_put_many_writes_json_dumps_bytes(items):
    expected, first = [], {}
    for key, values in items:
        if key not in first:
            first[key] = [float(v) for v in values]
            expected.append(json.dumps({"key": key, "logprobs": first[key]}) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        with ScoreCache(path) as cache:
            cache.put_many(items)
        assert path.read_bytes() == "".join(expected).encode("utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == len(first)
            for key, values in first.items():
                assert _bits(cache.get(key)) == _bits(values)
