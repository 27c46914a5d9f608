"""Persistent score cache: round-trips, counters, corruption handling."""

import json
import logging
import struct
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zps import CacheCorruptionError, ScoreCache, ValidationError, make_cache_key


def test_put_get_round_trip(tmp_path):
    with ScoreCache(tmp_path / "c.jsonl") as cache:
        key = make_cache_key("m", "input", "cand", False)
        assert cache.get(key) is None
        cache.put(key, -1.25)
        assert cache.get(key) == -1.25
        assert key in cache
        assert len(cache) == 1


def test_persists_across_reopen(tmp_path):
    path = tmp_path / "c.jsonl"
    key = make_cache_key("m", "i", "c", True)
    with ScoreCache(path) as cache:
        cache.put(key, -0.5)
    with ScoreCache(path) as cache:
        assert cache.get(key) == -0.5
        assert len(cache) == 1


def test_hit_and_miss_counters(tmp_path):
    with ScoreCache(tmp_path / "c.jsonl") as cache:
        key = make_cache_key("m", "i", "c", False)
        cache.get(key)
        cache.put(key, -2.0)
        cache.get(key)
        cache.get(key)
        assert cache.misses == 1
        assert cache.hits == 2


def test_duplicate_put_keeps_first_value(tmp_path):
    path = tmp_path / "c.jsonl"
    key = make_cache_key("m", "i", "c", False)
    with ScoreCache(path) as cache:
        cache.put(key, -1.0)
        cache.put(key, -9.0)
        assert cache.get(key) == -1.0
    # only one line on disk
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    assert len(lines) == 1


def test_key_sensitivity():
    base = dict(model_id="m", rendered_input="i", candidate="c", length_norm=False)
    key = make_cache_key(**base)
    assert make_cache_key(**{**base, "model_id": "m2"}) != key
    assert make_cache_key(**{**base, "rendered_input": "i2"}) != key
    assert make_cache_key(**{**base, "candidate": "c2"}) != key
    assert make_cache_key(**{**base, "length_norm": True}) != key
    assert make_cache_key(**base, coords=("p0", "e0")) != key
    assert make_cache_key(**base, coords=("p0", "e1")) != \
        make_cache_key(**base, coords=("p0", "e0"))
    # same parts, same key
    assert make_cache_key(**base) == key


def test_corrupt_line_raises_with_reset_advice(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "a", "logprob": -1.0}\ngarbage\n', encoding="utf-8")
    with pytest.raises(CacheCorruptionError, match="line 2"):
        ScoreCache(path)
    with pytest.raises(CacheCorruptionError, match="delete or move"):
        ScoreCache(path)


@pytest.mark.parametrize(
    "line",
    [
        '{"logprob": -1.0}',
        '{"key": "a"}',
        '{"key": 7, "logprob": -1.0}',
        '{"key": "a", "logprob": "x"}',
        '{"key": "a", "logprob": NaN}',
        '{"key": "a", "logprob": true}',
        '[1, 2]',
        pytest.param('{"key": "a", "logprob": 1' + "0" * 400 + "}", id="huge-int"),
    ],
)
def test_invalid_entries_raise(tmp_path, line):
    path = tmp_path / "c.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CacheCorruptionError):
        ScoreCache(path)


def test_blank_lines_tolerated(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"key": "a", "logprob": -1.0}\n\n\n', encoding="utf-8")
    with ScoreCache(path) as cache:
        assert cache.get("a") == -1.0


def test_concurrent_puts_all_land(tmp_path):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        keys = [f"k{i}" for i in range(200)]

        def worker(chunk):
            for k in chunk:
                cache.put(k, -float(len(k)))

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
            assert cache.get(k) == -float(len(k))


def test_file_format_is_plain_jsonl(tmp_path):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        cache.put("abc", -3.5)
    row = json.loads(path.read_text().splitlines()[0])
    assert row == {"key": "abc", "logprob": -3.5}


def test_creates_parent_directory(tmp_path):
    path = tmp_path / "deep" / "nested" / "c.jsonl"
    with ScoreCache(path) as cache:
        cache.put("k", -1.0)
    assert path.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("n", float("nan")),
        ("n", float("inf")),
        ("n", float("-inf")),
        ("n", 10**400),
        ("n", True),
        ("n", "-1.0"),
        ("n", None),
        (7, -1.0),
        (b"k", -1.0),
    ],
    ids=["nan", "inf", "-inf", "huge-int", "bool", "str-value", "none", "int-key",
         "bytes-key"],
)
def test_invalid_put_raises_and_writes_nothing(tmp_path, key, value):
    path = tmp_path / "c.jsonl"
    with ScoreCache(path) as cache:
        with pytest.raises(ValidationError):
            cache.put(key, value)
        # a bad item anywhere in a batch keeps the whole batch out
        with pytest.raises(ValidationError):
            cache.put_many([("ok", -1.0), (key, value)])
        assert len(cache) == 0
    assert path.read_bytes() == b""
    with ScoreCache(path) as cache:
        assert len(cache) == 0


def test_unterminated_valid_last_line_gets_its_newline(tmp_path):
    path = tmp_path / "c.jsonl"
    first = '{"key": "a", "logprob": -1.0}'
    path.write_text(first, encoding="utf-8")
    with ScoreCache(path) as cache:
        assert cache.get("a") == -1.0
    assert path.read_text(encoding="utf-8") == first  # reading alone writes nothing
    with ScoreCache(path) as cache:
        cache.put_many([("b", -2.0), ("c", -3.0)])
        cache.put("d", -4.0)
    assert path.read_text(encoding="utf-8").splitlines() == [
        first,
        '{"key": "b", "logprob": -2.0}',
        '{"key": "c", "logprob": -3.0}',
        '{"key": "d", "logprob": -4.0}',
    ]
    with ScoreCache(path) as cache:
        assert [cache.get(k) for k in "abcd"] == [-1.0, -2.0, -3.0, -4.0]


def test_torn_last_line_is_truncated_with_a_warning(tmp_path, caplog):
    path = tmp_path / "c.jsonl"
    first = '{"key": "a", "logprob": -1.0}\n'
    path.write_text(first + '{"key": "b", "logp', encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="zps.cache"):
        with ScoreCache(path) as cache:
            assert len(cache) == 1
            assert path.read_text(encoding="utf-8") == first
            cache.put("b", -2.0)
    assert "line 2" in caplog.text
    with ScoreCache(path) as cache:
        assert cache.get("a") == -1.0 and cache.get("b") == -2.0


def test_concurrent_put_many_writes_whole_lines(tmp_path):
    # Every thread offers the same batches, so each key races four ways.
    path = tmp_path / "c.jsonl"
    batches = [[(f"b{b}-k{i}" + "x" * i, -float(b * 50 + i)) for i in range(50)]
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
    expected = {key: value for batch in batches for key, value in batch}
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == len(expected)
    assert {row["key"]: row["logprob"] for row in rows} == expected


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


def _bits(x):
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_awkward_text, _awkward_number), max_size=20))
def test_put_many_writes_json_dumps_bytes(items):
    expected, first = [], {}
    for key, value in items:
        if key not in first:
            first[key] = float(value)
            expected.append(json.dumps({"key": key, "logprob": float(value)}) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.jsonl"
        with ScoreCache(path) as cache:
            cache.put_many(items)
        assert path.read_bytes() == "".join(expected).encode("utf-8")
        with ScoreCache(path) as cache:
            assert len(cache) == len(first)
            for key, value in first.items():
                assert _bits(cache.get(key)) == _bits(value)
