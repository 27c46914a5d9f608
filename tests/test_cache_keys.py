"""Cache keys: zps's key parts against the reference of their documented bytes,
and what a key must tell apart.

A key is its prompt's part and its example's part side by side (see
``zps.cache``); no cell is rendered to build it. Equal keys must mean equal
rendered inputs, or a warm run would serve one cell's scores for another.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zps.scoring
from zps import (Prompt, PromptTemplate, RemoteBackend, ScoreCache, ScorerBackend,
                 SyntheticBackend, TaskSpec, UnlabeledExample, Verbalizer, make_cache_key, render,
                 score_all)

from .helpers import StubScorer, key_of, read_segments
from .key_reference import reference_cache_key


def key(template, fields, model="m", candidates=("yes", "no"), length_norm=False, ids=None):
    """zps's key of the cell that renders ``template`` over ``fields``."""
    values = [fields[name] for name in PromptTemplate(template).placeholders()]
    return key_of(model, length_norm, template, candidates, values, ids)


def rendered(template, fields):
    verb = Verbalizer({"0": "no", "1": "yes"})
    return render(Prompt("p", PromptTemplate(template), verb), UnlabeledExample("e", fields))


_UNICODE = "Film: é ünïcode ☃ 文字"


@pytest.mark.parametrize("cell, expected", [
    (("Review: {{text}}", {"text": _UNICODE, "title": "unread"}, "m", ("yes", "no"), False,
      None),
     "3af134c1c8906a0a4603a9fc4f8857d2b16c51c5f3945078b66b2257e3f44cf5"
     "d67ff6618693b731c29e6b4343169a8d8632eb3549a3532160ff29521def7a80"),
    (("{{ b }} / {{a}} {{b}}", {"a": "", "b": "x{y}\x1f"}, "gpt-x", ("great", "bad", "so-so"),
      True, ("prompt/é", "ex-7")),
     "b3a15635607cf1d94d87426f42d10b74904609cabd55783c781527964d33a1a5"
     "42a65ec36a141f6846b0c06ee182cd35b645810f012abebb7ca23b9b82bed8dc"),
], ids=["content-addressed", "id-addressed"])
def test_two_keys_are_pinned(cell, expected):
    # Files written by this version must keep hitting: any change to the key
    # bytes silently turns every existing cache into misses.
    template, fields, model, candidates, length_norm, ids = cell
    assert reference_cache_key(model, length_norm, template, candidates, fields, ids).hex() \
        == expected
    assert key(template, fields, model, candidates, length_norm, ids).hex() == expected


# Text that could fool a length prefix or a separator, render's braces, the
# empty string and non-ASCII text.
_text = st.text(st.sampled_from("{}\x1faé日\U0001f600"), max_size=3)
_value = _text | st.integers(-2, 11)
_template = st.lists(st.sampled_from(["{{a}}", "{{ b }}", "{{c}}"]) | _text,
                     max_size=4).map("".join)
_fields = st.fixed_dictionaries({"a": _value, "b": _value, "c": _value, "unread": _value})


@settings(max_examples=600, deadline=None)
@given(st.tuples(_template, _fields), st.tuples(_template, _fields))
def test_equal_keys_render_equal_inputs(left, right):
    # Drawn from a small space, so that equal keys, equal renders and false
    # misses (equal renders, two templates) all come up.
    (t1, f1), (t2, f2) = left, right
    k1, k2 = key(t1, f1), key(t2, f2)
    assert k1 == reference_cache_key("m", False, t1, ("yes", "no"), f1)
    if k1 == k2:
        assert rendered(t1, f1) == rendered(t2, f2)
    read = [format(f1[name]) for name in PromptTemplate(t1).placeholders()]
    same = t1 == t2 and read == [format(f2[name]) for name in PromptTemplate(t2).placeholders()]
    assert (k1 == k2) == same


@settings(max_examples=300, deadline=None)
@given(_template, _fields, _text, st.booleans(), st.lists(_text, max_size=3),
       st.none() | st.tuples(_text, _text))
def test_key_equals_the_reference(template, fields, model, length_norm, candidates, ids):
    assert key(template, fields, model, candidates, length_norm, ids) == \
        reference_cache_key(model, length_norm, template, candidates, fields, ids)


def test_empty_prompt_id_is_still_hashed_in():
    # an empty id is an id, not the absence of one
    fields = {"text": "i"}
    for ids in (("", "e"), ("p", ""), ("", "")):
        with_empty = key("{{text}}", fields, ids=ids)
        assert with_empty == reference_cache_key("m", False, "{{text}}", ("yes", "no"), fields,
                                                 ids)
        assert with_empty != key("{{text}}", fields)
    assert key("{{text}}", fields, ids=("", "e")) != key("{{text}}", fields, ids=("p", "e"))


@pytest.mark.parametrize("value, text", [(3, "3"), (2.5, "2.5"), (True, "True"), (None, "None")],
                         ids=["int", "float", "bool", "none"])
def test_a_value_keys_as_the_text_render_writes(value, text):
    # render writes format(value, ""), so a value and its text are one cell
    assert rendered("<{{text}}>", {"text": value}) == rendered("<{{text}}>", {"text": text})
    assert key("<{{text}}>", {"text": value}) == key("<{{text}}>", {"text": text})


class _LengthBackend(ScorerBackend):
    """Scores each candidate by the lengths of its input and phrase."""

    model_id = "len"
    max_batch_size = 3

    def __init__(self, content_addressed):
        self.content_addressed = content_addressed

    def score_batch(self, batch):
        return [[-1.0 - len(r.input) - 0.5 * len(c) for c in r.candidates] for r in batch]


_prompt_template = st.lists(st.sampled_from(["{{a}}", "{{ b }}", "{{c}}", ":", "é"]),
                            max_size=4).map("".join)


@pytest.mark.parametrize("content_addressed", [True, False], ids=["content", "ids"])
@settings(max_examples=60, deadline=None)
@given(templates=st.lists(_prompt_template, min_size=1, max_size=4),
       examples=st.lists(_fields, min_size=1, max_size=4))
def test_interleaved_prompts_keep_their_own_parts(content_addressed, templates, examples):
    # score_all builds one part per prompt and one per example and placeholder
    # tuple, shared by prompts that read the same fields: the cold file must
    # hold exactly the reference key of every cell, and a warm run must hit them all.
    task = TaskSpec("t", ("a", "b", "c"), ("0", "1"))
    prompts = [Prompt(f"p{i}", PromptTemplate(t), Verbalizer({"0": "no", "1": f"yes {i % 2}"}))
               for i, t in enumerate(templates)]
    cells = [UnlabeledExample(f"e{k}", f) for k, f in enumerate(examples)]
    backend = _LengthBackend(content_addressed)
    expected = {reference_cache_key("len", False, p.template.template_text,
                                    ("no", p.verbalizer.phrase("1")), e.fields,
                                    None if content_addressed else (p.prompt_id, e.example_id))
                for p in prompts for e in cells}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.cache"
        with ScoreCache(path) as cache:
            cold = score_all(task, prompts, cells, backend, cache)
        stored = [k for segment in read_segments(path) for k, _ in segment]
        assert len(stored) == len(set(stored)) and set(stored) == expected
        with ScoreCache(path) as cache:
            warm = score_all(task, prompts, cells, backend, cache)
            assert (cache.hits, cache.misses) == (len(prompts) * len(cells), 0)
    assert (warm.logprobs == cold.logprobs).all()


def test_a_one_character_change_to_the_template_or_a_read_value_changes_the_key():
    fields = {"text": "great film", "title": "Up"}
    base = key("{{title}}: {{text}}", fields)
    assert key("{{title}}; {{text}}", fields) != base
    assert key("{{title}}: {{text}} ", fields) != base
    assert key("{{title}}: {{text}}", {**fields, "text": "great filn"}) != base
    assert key("{{title}}: {{text}}", {**fields, "title": "Uq"}) != base
    # the values swapped, or moved across their boundary, render other text
    assert key("{{title}}: {{text}}", {"text": "Up", "title": "great film"}) != base
    assert key("{{title}}{{text}}", {"title": "ab", "text": "c"}) != \
        key("{{title}}{{text}}", {"title": "a", "text": "bc"})


def test_a_field_the_template_does_not_read_leaves_the_key_unchanged():
    base = key("Review: {{text}}", {"text": "good"})
    assert key("Review: {{text}}", {"text": "good", "title": "Up"}) == base
    assert key("Review: {{text}}", {"title": "Down", "text": "good", "x": "1"}) == base


def test_every_other_part_of_a_prompt_counts():
    base = key("{{text}}", {"text": "i"}, candidates=("a", "b"))
    for changed in (dict(model="m2"), dict(length_norm=True), dict(candidates=("b", "a")),
                    dict(candidates=("a",)), dict(candidates=("a", "b", "")),
                    dict(candidates=("ab",)), dict(candidates=("a\x1fb",))):
        assert key("{{text}}", {"text": "i"}, **{"candidates": ("a", "b"), **changed}) != base
    # text that one part could hand to the next
    assert key("{{text}}", {"text": "i"}, model="m0") != \
        key("{{text}}", {"text": "i"}, model="m", length_norm=False, candidates=("0", "a", "b"))
    assert key("{{text}}", {"text": "i"}, candidates=("a", "p")) != \
        key("{{text}}", {"text": "i"}, candidates=("a",), ids=("p", "e"))


def test_ids_are_mixed_in_only_for_an_id_addressed_backend(tmp_path, monkeypatch):
    fields = {"text": "i"}
    plain = key("{{text}}", fields)
    assert key("{{text}}", fields, ids=("p0", "e0")) != plain
    assert key("{{text}}", fields, ids=("p0", "e1")) != key("{{text}}", fields, ids=("p0", "e0"))
    assert key("{{text}}", fields, ids=("p1", "e0")) != key("{{text}}", fields, ids=("p0", "e0"))
    assert key("{{text}}", fields, ids=("", "")) != plain  # an empty id is still an id

    # score_all, over templates that read two fields in either order: the
    # synthetic backend addresses cells by ids, a remote one by content
    task = TaskSpec("t", ("text", "extra"), ("0", "1"))
    verb = Verbalizer({"0": "no", "1": "yes"})
    prompts = [Prompt("p0", PromptTemplate("{{text}} {{extra}}"), verb),
               Prompt("p1", PromptTemplate("{{extra}}: {{ text }}"), verb)]
    examples = [UnlabeledExample(f"e{k}", {"text": f"x{k}", "extra": f"y{k}", "unread": "z"})
                for k in range(3)]
    walked = []

    def recorded(*parts):
        walked.append(make_cache_key(*parts))
        return walked[-1]

    monkeypatch.setattr(zps.scoring, "make_cache_key", recorded)
    synthetic = SyntheticBackend(seed=0, prompt_quality={"p0": 0.7, "p1": 0.7},
                                 planted_labels={e.example_id: "0" for e in examples})
    with ScoreCache(tmp_path / "ids") as cache:
        score_all(task, prompts, examples, synthetic, cache)
    # each cell's key to look it up, then again to append it once scored
    assert walked == [reference_cache_key(synthetic.model_id, False, p.template.template_text,
                                          ("no", "yes"), e.fields, (p.prompt_id, e.example_id))
                      for p in prompts for e in examples] * 2
    walked.clear()
    with StubScorer() as stub, ScoreCache(tmp_path / "content") as cache:
        remote = RemoteBackend(stub.url, model="m")
        try:
            score_all(task, prompts, examples, remote, cache)
        finally:
            remote.close()
    assert walked == [reference_cache_key("m", False, p.template.template_text, ("no", "yes"),
                                          e.fields) for p in prompts for e in examples] * 2
