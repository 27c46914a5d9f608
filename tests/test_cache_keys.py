"""Cache keys: ``make_cache_key`` against the one-pass reference formula.

``make_cache_key`` keeps each prompt's constant key parts in a bounded memo,
so these tests also mix prompts, models and flags in one call sequence, run
past the memo's size, and hash from several threads: a stale or shared memo
entry would give a key that differs from the reference.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from zps import make_cache_key
from zps.cache import _key_parts

from .key_reference import reference_cache_key

# Text that could fool a length prefix or a separator, plus any unicode.
tricky = st.text(alphabet=st.sampled_from("ab1;[], \x1fé日\U0001f600"), max_size=6)
texts = tricky | st.text(max_size=8)
candidate_lists = st.lists(texts, max_size=5)
candidates = candidate_lists | candidate_lists.map(tuple)
coords = st.none() | st.tuples(texts, texts)
calls = st.tuples(texts, texts, candidates, st.booleans(), coords)


def assert_matches_reference(call):
    assert make_cache_key(*call) == reference_cache_key(*call), call


@settings(max_examples=500, deadline=None)
@given(calls)
def test_key_equals_the_reference(call):
    assert_matches_reference(call)


@settings(max_examples=200, deadline=None)
@given(
    prompts=st.lists(st.tuples(texts, candidates, st.booleans(), coords), min_size=1, max_size=4),
    order=st.lists(st.tuples(st.integers(0, 3), texts), min_size=1, max_size=24),
)
def test_interleaved_prompts_keep_their_own_parts(prompts, order):
    # several (model, candidates, flag, prompt) groups hashed in a random
    # interleaving, as score_all's cells would be across prompts and runs
    for which, rendered_input in order:
        model_id, phrases, length_norm, cell = prompts[which % len(prompts)]
        assert_matches_reference((model_id, rendered_input, phrases, length_norm, cell))


def test_empty_prompt_id_is_still_hashed_in():
    # an empty prompt id is a coordinate, not the absence of one
    with_empty = make_cache_key("m", "i", ("a",), False, ("", "e"))
    assert with_empty == reference_cache_key("m", "i", ("a",), False, ("", "e"))
    assert with_empty != make_cache_key("m", "i", ("a",), False)


def test_memo_stays_bounded_past_its_size():
    maxsize = _key_parts.cache_info().maxsize
    assert maxsize is not None
    first = [("m", f"input {k}", ("yes", "no"), k % 2 == 0, (f"p{k}", "e0"))
             for k in range(maxsize + 50)]
    for call in first:
        assert_matches_reference(call)
    assert _key_parts.cache_info().currsize <= maxsize
    # the earliest prompts were evicted; hashing them again is still exact
    for call in first[:50]:
        assert_matches_reference(call)
    assert _key_parts.cache_info().currsize <= maxsize


def test_threads_hash_the_serial_keys():
    calls = [(f"m{k % 3}", f"text {k}", ("a", "bb", f"c{k % 5}"), k % 2 == 1,
              None if k % 7 == 0 else (f"p{k % 11}", f"e{k}"))
             for k in range(2000)]
    serial = [make_cache_key(*call) for call in calls]
    _key_parts.cache_clear()  # every thread starts on an empty memo
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's bookkeeping too
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda call: make_cache_key(*call), calls, chunksize=7))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert serial == [reference_cache_key(*call) for call in calls]
