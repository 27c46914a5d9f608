"""Tasks, templates, verbalizers and the input file formats."""

import argparse
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zps import (
    Prompt,
    PromptTemplate,
    SyntheticBackend,
    TaskSpec,
    UnlabeledExample,
    ValidationError,
    Verbalizer,
    candidate_phrases,
    canon_label,
    gold_label_map,
    load_catalog,
    load_examples,
    render,
    serialize_catalog,
    validate_prompt,
)
from zps import cli
from zps.catalog import write_text
from zps.evalsim import load_robustness_spec
from zps.fewshot import load_checkpoint_predictions, load_pseudo_labeled

from .helpers import BAD_INPUT_CASES, GOOD_CATALOG, GOOD_SPEC, INPUT_FILES, write_bad_input

REVIEW_TEMPLATE = (
    "Based on this review, would the user recommend this product? "
    "Review:{{content}} Answer:"
)


def review_prompt():
    return Prompt(
        prompt_id="recommend",
        template=PromptTemplate(REVIEW_TEMPLATE),
        verbalizer=Verbalizer({1: "Yes", 0: "No"}),
    )


def test_render_fills_placeholders_verbatim():
    example = UnlabeledExample("e1", {"content": " Great camera, tiny bag."})
    out = render(review_prompt(), example)
    assert out == (
        "Based on this review, would the user recommend this product? "
        "Review: Great camera, tiny bag. Answer:"
    )
    assert "{{" not in out


def test_verbalizer_accepts_raw_and_canonical_labels():
    prompt = review_prompt()
    assert prompt.verbalizer.phrase(1) == "Yes"
    assert prompt.verbalizer.phrase("1") == "Yes"
    assert prompt.verbalizer.phrase(0) == "No"
    with pytest.raises(ValidationError):
        prompt.verbalizer.phrase(2)


def test_candidate_phrases_follow_choice_order():
    task = TaskSpec(task_id="s", field_schema=("content",), choices=("0", "1"))
    assert candidate_phrases(task, review_prompt()) == ("No", "Yes")


def test_placeholders_first_appearance_order_and_dedup():
    template = PromptTemplate("{{b}} then {{ a }} then {{b}} and {{c}}")
    assert template.placeholders() == ("b", "a", "c")


def test_canon_label_forms():
    assert canon_label("x") == "x"
    assert canon_label(1) == "1"
    assert canon_label(True) == "true"
    assert canon_label(False) == "false"
    assert canon_label(1.5) == "1.5"
    with pytest.raises(ValidationError):
        canon_label(["list"])


def test_task_spec_invariants():
    with pytest.raises(ValidationError):
        TaskSpec(task_id="t", field_schema=("a",), choices=("only",))
    with pytest.raises(ValidationError):
        TaskSpec(task_id="t", field_schema=("a",), choices=("x", "x"))
    with pytest.raises(ValidationError):
        TaskSpec(task_id="t", field_schema=("a", "a"), choices=("x", "y"))
    with pytest.raises(ValidationError):
        TaskSpec(task_id="t", field_schema=("a",), choices=("x", "y"),
                 gold_label_field="a")


def test_verbalizer_must_be_injective_with_nonempty_phrases():
    with pytest.raises(ValidationError):
        Verbalizer({"a": "same", "b": "same"})
    with pytest.raises(ValidationError):
        Verbalizer({"a": ""})


def test_validate_prompt_names_the_offender():
    task = TaskSpec(task_id="t", field_schema=("content",), choices=("0", "1"))
    stray = Prompt("bad1", PromptTemplate("{{nope}}"), Verbalizer({"0": "No", "1": "Yes"}))
    with pytest.raises(ValidationError, match="bad1"):
        validate_prompt(task, stray)
    partial = Prompt("bad2", PromptTemplate("{{content}}"), Verbalizer({"0": "No"}))
    with pytest.raises(ValidationError, match="bad2"):
        validate_prompt(task, partial)
    extra = Prompt(
        "bad3",
        PromptTemplate("{{content}}"),
        Verbalizer({"0": "No", "1": "Yes", "2": "Maybe"}),
    )
    with pytest.raises(ValidationError, match="bad3"):
        validate_prompt(task, extra)


def test_render_lists_missing_fields():
    prompt = Prompt(
        "p", PromptTemplate("{{premise}}\n Question: {{hypothesis}} True or False?"),
        Verbalizer({"entail": "True", "not_entail": "False"}),
    )
    with pytest.raises(ValidationError, match="hypothesis"):
        render(prompt, UnlabeledExample("e1", {"premise": "It rains."}))


def test_catalog_round_trip(tmp_path):
    task = TaskSpec(
        task_id="rte",
        field_schema=("premise", "hypothesis"),
        choices=("entail", "not_entail"),
    )
    prompts = [
        Prompt(
            "gpt3",
            PromptTemplate("{{premise}}\n Question: {{hypothesis}} True or False?"),
            Verbalizer({"entail": "True", "not_entail": "False"}),
        ),
        Prompt(
            "imply",
            PromptTemplate("Does {{premise}} imply {{hypothesis}}?"),
            Verbalizer({"entail": "yes", "not_entail": "no"}),
        ),
    ]
    path = tmp_path / "catalog.json"
    path.write_text(serialize_catalog(task, prompts), encoding="utf-8")
    loaded_task, loaded_prompts = load_catalog(path)
    assert loaded_task == task
    assert loaded_prompts == prompts
    # serialize(load(serialize(...))) is a fixed point
    assert serialize_catalog(loaded_task, loaded_prompts) == path.read_text(encoding="utf-8")


def test_load_catalog_rejects_duplicates_and_junk(tmp_path):
    path = tmp_path / "catalog.json"
    doc = {
        "task": {"task_id": "t", "fields": ["a"], "choices": ["0", "1"]},
        "prompts": [
            {"prompt_id": "p1", "template": "{{a}}", "verbalizer": {"0": "n", "1": "y"}},
            {"prompt_id": "p1", "template": "{{a}}!", "verbalizer": {"0": "u", "1": "v"}},
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match="p1"):
        load_catalog(path)

    path.write_text(json.dumps({"task": doc["task"], "prompts": []}), encoding="utf-8")
    with pytest.raises(ValidationError, match="no prompts"):
        load_catalog(path)

    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        load_catalog(path)

    with pytest.raises(ValidationError):
        load_catalog(tmp_path / "missing.json")


def test_load_examples_gold_label_sources(tmp_path):
    task = TaskSpec(
        task_id="t", field_schema=("text", "label"), choices=("0", "1"),
        gold_label_field=None,
    )
    path = tmp_path / "ex.jsonl"
    rows = [
        {"example_id": "a", "fields": {"text": "x"}, "gold_label": 1},
        {"example_id": "b", "fields": {"text": "y"}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    examples = load_examples(path, task)
    assert examples[0].gold_label == "1"
    assert examples[1].gold_label is None
    assert gold_label_map(examples) == {"a": "1"}

    gold_task = TaskSpec(
        task_id="t", field_schema=("text",), choices=("0", "1"),
        gold_label_field="answer",
    )
    rows = [{"example_id": "a", "fields": {"text": "x", "answer": "0"}}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    assert load_examples(path, gold_task)[0].gold_label == "0"


@pytest.mark.parametrize("value", [True, None, 7, 1.5, ["x"], {"x": "y"}],
                         ids=["true", "null", "int", "float", "list", "object"])
def test_load_examples_refuses_non_string_field_values(tmp_path, capsys, value):
    # Before, each was stored as its Python str(): true as "True", null as "None".
    path = tmp_path / "ex.jsonl"
    rows = [{"example_id": "a", "fields": {"text": "x"}},
            {"example_id": "b", "fields": {"text": "y", "note": value}}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    where = re.escape(f"{path}:2: malformed 'note'")
    with pytest.raises(ValidationError, match=where):
        load_examples(path)
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(GOOD_CATALOG), encoding="utf-8")
    argv = ["select", "--catalog", str(catalog), "--examples", str(path),
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 1
    assert re.search(where, capsys.readouterr().err)

    # the task's gold-label field is a label, so it may hold a number
    task = TaskSpec(task_id="t", field_schema=("text",), choices=("0", "1"),
                    gold_label_field="note")
    path.write_text(json.dumps({"example_id": "a", "fields": {"text": "x", "note": 1}}),
                    encoding="utf-8")
    assert load_examples(path, task)[0].gold_label == "1"


GOLD_TASK = TaskSpec(task_id="t", field_schema=("text",), choices=("0", "1"),
                     gold_label_field="label")

# row (line 2 of the file), task -> the exact message, or the example loaded
EXAMPLE_CASES = {
    "example_id a list": ({"example_id": [1], "fields": {"text": "x"}}, None,
                          "malformed 'example_id': expected label, got [1]"),
    "example_id null": ({"example_id": None, "fields": {"text": "x"}}, None,
                        "malformed 'example_id': expected label, got None"),
    "no example_id": ({"fields": {"text": "x"}}, None,
                      "missing key 'example_id' (expected keys ['example_id', 'fields'])"),
    "line a list": (["a"], None, "expected an object, got ['a']"),
    "fields a string": ({"example_id": "a", "fields": "text"}, None,
                        "malformed 'fields': expected object, got 'text'"),
    "fields a list": ({"example_id": "a", "fields": [["text", "x"]]}, None,
                      "malformed 'fields': expected object, got [['text', 'x']]"),
    "field an int": ({"example_id": "a", "fields": {"text": "x", "n": 3}}, None,
                     "malformed 'n': expected string, got 3"),
    "first bad field named": ({"example_id": "a", "fields": {"n": None, "text": 3}}, None,
                              "malformed 'n': expected string, got None"),
    "gold field a list": ({"example_id": "a", "fields": {"text": "x", "label": [1]}},
                          GOLD_TASK, "malformed 'label': expected label, got [1]"),
    "gold field an object": ({"example_id": "a", "fields": {"label": {"a": 1}}}, GOLD_TASK,
                             "malformed 'label': expected label, got {'a': 1}"),
    "gold field null": ({"example_id": "a", "fields": {"text": "x", "label": None}},
                        GOLD_TASK, "malformed 'label': expected label, got None"),
    "gold_label a list": ({"example_id": "a", "fields": {"text": "x"}, "gold_label": ["1"]},
                          None, "malformed 'gold_label': expected label, got ['1']"),
    "gold_label a bool": ({"example_id": "a", "fields": {"text": "x"}, "gold_label": True},
                          None, ("a", {"text": "x"}, "true")),
    "gold field a bool": ({"example_id": "a", "fields": {"text": "x", "label": False}},
                          GOLD_TASK, ("a", {"text": "x", "label": "False"}, "false")),
    "gold field a float": ({"example_id": 7, "fields": {"text": "x", "label": 1.0}},
                           GOLD_TASK, ("7", {"text": "x", "label": "1.0"}, "1.0")),
}


@pytest.mark.parametrize("case", sorted(EXAMPLE_CASES))
def test_load_examples_messages_and_values_are_fixed(tmp_path, case):
    # A bool passes as a label (canon_label gives "true") while its field text is
    # str() of it; only a string field skips the check.
    row, task, expected = EXAMPLE_CASES[case]
    path = tmp_path / "ex.jsonl"
    path.write_text('{"example_id": "z", "fields": {}}\n' + json.dumps(row) + "\n",
                    encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(ValidationError) as exc:
            load_examples(path, task)
        assert str(exc.value) == f"{path}:2: {expected}"
    else:
        example = load_examples(path, task)[1]
        assert (example.example_id, example.fields, example.gold_label) == expected
        assert all(type(v) is str for v in example.fields.values())


def test_load_examples_rejects_duplicates_and_empty(tmp_path):
    path = tmp_path / "ex.jsonl"
    rows = [
        {"example_id": "a", "fields": {"text": "x"}},
        {"example_id": "a", "fields": {"text": "y"}},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    with pytest.raises(ValidationError, match="duplicate example_id"):
        load_examples(path)

    path.write_text("", encoding="utf-8")
    with pytest.raises(ValidationError, match="empty"):
        load_examples(path)

    path.write_text('{"example_id": "a"}', encoding="utf-8")
    with pytest.raises(ValidationError, match="fields"):
        load_examples(path)


def test_example_ids_are_labels(tmp_path):
    # true and "true" are one id, as 1 and "1" are
    path = tmp_path / "ex.jsonl"
    rows = [{"example_id": True, "fields": {}}, {"example_id": "true", "fields": {}}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_examples(path)
    assert str(exc.value) == f"{path}:2: duplicate example_id 'true'"


@settings(max_examples=50, deadline=None)
@given(
    values=st.dictionaries(
        st.sampled_from(["premise", "hypothesis"]),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40),
        min_size=2,
        max_size=2,
    )
)
def test_render_never_leaves_placeholders(values):
    prompt = Prompt(
        "p",
        PromptTemplate("P: {{premise}} H: {{hypothesis}}"),
        Verbalizer({"0": "False", "1": "True"}),
    )
    out = render(prompt, UnlabeledExample("e", values))
    assert "{{premise}}" not in out
    assert "{{hypothesis}}" not in out
    for value in values.values():
        assert value in out


@pytest.mark.parametrize("value", [7, -2, 0, 1.5, 1e16, -0.0, float("nan"), True, False, None],
                         ids=repr)
def test_render_gives_str_of_other_field_values(value):
    # A hand-built example may hold any value; render writes its str(), as
    # joining the template's literals and str(value) does.
    prompt = Prompt("p", PromptTemplate("<{{a}}|{{ b }}|{{a}}>"), Verbalizer({"0": "n", "1": "y"}))
    example = UnlabeledExample("e", {"a": value, "b": "s"})
    assert render(prompt, example) == "".join(["<", str(value), "|s|", str(value), ">"])


@pytest.mark.parametrize("template, expected", [
    ("{{{a}}}", "{1}"),
    ("{{{{a}}}}", "{{1}}"),
    ("{ {{a}} }", "{ 1 }"),
    ("}}{{a}}{{", "}}1{{"),
    ("{{a}}}}{{{{b}}", "1}}{{2"),
    ("{a} {0} {} {a!r} {:>4} {{a}}", "{a} {0} {} {a!r} {:>4} 1"),
    ("{{ a }}{{b}}{{a}}", "121"),
    ("{{}} {{1x}} {{ a b }}", "{{}} {{1x}} {{ a b }}"),
    ("}{", "}{"),
])
def test_render_keeps_literal_braces(template, expected):
    prompt = Prompt("p", PromptTemplate(template), Verbalizer({"0": "n", "1": "y"}))
    assert render(prompt, UnlabeledExample("e", {"a": "1", "b": 2})) == expected


# The substitution render has always meant: one regex pass over the text.
ORACLE_RE = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")


def oracle_names(text):
    return tuple(dict.fromkeys(ORACLE_RE.findall(text)))


def oracle_render(prompt, example):
    missing = [n for n in oracle_names(prompt.template.template_text) if n not in example.fields]
    if missing:
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}, example {example.example_id!r}: "
            f"missing fields {missing}"
        )
    return ORACLE_RE.sub(lambda m: str(example.fields[m.group(1)]),
                         prompt.template.template_text)


NAMES = ["a", "b", "_x1", "premise"]
placeholder = st.builds(
    lambda left, name, right: "{{" + left + name + right + "}}",
    st.sampled_from(["", " ", "  ", "\t", "\n"]),
    st.sampled_from(NAMES),
    st.sampled_from(["", " ", "\n "]),
)
literal = st.one_of(
    st.sampled_from(["{", "}", "{{", "}}", "{{1x}}", "{{ a b }}", "{{}}", "{ {a} }", " ", "\n"]),
    st.text(alphabet="ab{} _1\n", max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.one_of(placeholder, literal), max_size=8),
    values=st.dictionaries(
        st.sampled_from(NAMES),
        st.one_of(st.text(alphabet="xy{} ", max_size=5), st.integers(-3, 3), st.floats(0, 1)),
    ),
)
def test_render_matches_regex_oracle(pieces, values):
    prompt = Prompt("p", PromptTemplate("".join(pieces)), Verbalizer({"0": "n", "1": "y"}))
    example = UnlabeledExample("e", values)
    try:
        expected = oracle_render(prompt, example)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            render(prompt, example)
        assert str(got.value) == str(exc)
    else:
        assert render(prompt, example) == expected
    assert prompt.template.placeholders() == oracle_names(prompt.template.template_text)


def load_profile(path):
    args = argparse.Namespace(backend="synthetic", synthetic_profile=str(path), seed=0)
    return cli._make_backend(args, None, [], [])


LOADERS = {
    "catalog": load_catalog,
    "examples": load_examples,
    "pseudo_val": load_pseudo_labeled,
    "checkpoints": lambda path: load_checkpoint_predictions(path, ["0", "1"]),
    "profile": load_profile,
    "spec": load_robustness_spec,
}


@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
def test_every_loader_reads_its_valid_file(tmp_path, kind):
    lines, good, _ = INPUT_FILES[kind]
    path = tmp_path / "input"
    path.write_text(json.dumps(good) + ("\n" if lines else ""), encoding="utf-8")
    assert LOADERS[kind](path)


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
@pytest.mark.parametrize("kind", sorted(INPUT_FILES))
def test_every_loader_names_the_file_of_bad_input(tmp_path, kind, case):
    path = tmp_path / "input"
    where = write_bad_input(path, kind, case)
    with pytest.raises(ValidationError) as excinfo:
        LOADERS[kind](path)
    assert where in str(excinfo.value)


# Three records of each JSON Lines input whose ids end in ``s``, and how to read
# the ids back from what its loader returns.
JSON_LINES = {
    "examples": (lambda s: [{"example_id": f"e{k}{s}", "fields": {"text": f"a{s}b"}}
                            for k in range(3)],
                 lambda got: [e.example_id for e in got]),
    "pseudo_val": (lambda s: [{"example_id": f"e{k}{s}", "label": "0", "gap": 0.5}
                              for k in range(3)],
                   lambda got: list(got.example_ids)),
    "checkpoints": (lambda s: [{"checkpoint_id": "c", "prompt_id": "p", "example_id": f"e{k}{s}",
                                "pred": "0"} for k in range(3)],
                    lambda got: list(got[0].preds.example_ids)),
}


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
@pytest.mark.parametrize("kind", sorted(JSON_LINES))
def test_json_lines_records_end_only_at_newline(tmp_path, kind, char):
    # json.dumps(..., ensure_ascii=False) writes these characters raw inside strings.
    records, ids = JSON_LINES[kind]
    text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records(char))
    assert char in text
    path = tmp_path / "input.jsonl"
    path.write_text(text, encoding="utf-8")
    assert ids(LOADERS[kind](path)) == [f"e{k}{char}" for k in range(3)]
    if kind == "examples":
        assert [e.fields["text"] for e in load_examples(path)] == [f"a{char}b"] * 3
    path.write_text(text + "\n{not json\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:5: invalid JSON"):
        LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(JSON_LINES))
def test_crlf_json_lines_load_with_the_same_line_numbers(tmp_path, kind):
    records, ids = JSON_LINES[kind]
    lines = [json.dumps(r) for r in records("")]
    path = tmp_path / "input.jsonl"
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert ids(LOADERS[kind](path)) == ["e0", "e1", "e2"]
    path.write_bytes("".join(line + "\r\n" for line in [*lines, "", "{not json"]).encode())
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:5: invalid JSON"):
        LOADERS[kind](path)


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u3000", "\x0b", "\x1c"])
@pytest.mark.parametrize("kind", sorted(JSON_LINES))
def test_a_line_of_other_whitespace_is_invalid_json(tmp_path, kind, char):
    # Only JSON whitespace (space, tab, CR) makes a blank line; str.strip removes more.
    records, ids = JSON_LINES[kind]
    lines = [json.dumps(r) for r in records("")]
    path = tmp_path / "input.jsonl"
    path.write_bytes("\n".join([lines[0], " \t ", "\r", lines[1], "", lines[2], ""]).encode())
    assert ids(LOADERS[kind](path)) == ["e0", "e1", "e2"]
    path.write_bytes("\n".join([lines[0], char, *lines[1:]]).encode())
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: invalid JSON"):
        LOADERS[kind](path)


def test_write_text_replaces_the_file_whole_or_not_at_all(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    write_text(path, "old\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_text(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


GOOD_PROMPT = GOOD_CATALOG["prompts"][0]
GOOD_PROFILE = INPUT_FILES["profile"][1]


@pytest.mark.parametrize(
    "kind,doc,match",
    [
        ("catalog", {**GOOD_CATALOG, "prompts": ["p"]}, r"prompts\[0\]: expected an object"),
        ("catalog", {**GOOD_CATALOG, "task": []}, "malformed 'task'"),
        ("catalog", {**GOOD_CATALOG, "prompts": [{**GOOD_PROMPT, "verbalizer": 5}]},
         "malformed 'verbalizer'"),
        ("catalog",
         {**GOOD_CATALOG, "prompts": [{**GOOD_PROMPT, "verbalizer": {"0": "n", "1": 1}}]},
         "expected object of string, got 1 at '1'"),
        ("profile", {**GOOD_PROFILE, "qualities": 5}, "malformed 'qualities'"),
        ("profile", {**GOOD_PROFILE, "miss_margin_scale": "x"}, "malformed 'miss_margin_scale'"),
        ("profile", {**GOOD_PROFILE, "planted_labels": {"e0": None}}, "at 'e0'"),
        ("spec", {**GOOD_SPEC, "ratios": "0"}, "malformed 'ratios'"),
        ("spec", {**GOOD_SPEC, "seeds": [0, 1e400]}, "got inf at 1"),
        ("spec", {**GOOD_SPEC, "seeds": [0.5]}, "seeds must be whole numbers, got 0.5"),
    ],
)
def test_shape_errors_name_file_and_key(tmp_path, kind, doc, match):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValidationError, match=match) as excinfo:
        LOADERS[kind](path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("keys,expected", [
    ({}, {}),
    ({"miss_margin_scale": None, "default_quality": None}, {}),
    ({"miss_margin_scale": 1}, {"miss_margin_scale": 1.0}),
    ({"miss_margin_scale": 0.2, "default_quality": 0.5},
     {"miss_margin_scale": 0.2, "default_quality": 0.5}),
])
def test_profile_passes_only_the_keys_it_sets(tmp_path, keys, expected):
    # An absent or null key leaves SyntheticBackend's own default in place.
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({**GOOD_PROFILE, **keys}), encoding="utf-8")
    backend = load_profile(path)
    same = SyntheticBackend(seed=0, prompt_quality={"p": 0.9}, planted_labels={"e0": "0"},
                            **expected)
    assert backend.model_id == same.model_id
    assert (backend.miss_margin_scale, backend.default_quality) == \
        (same.miss_margin_scale, same.default_quality)


GOOD_PSEUDO_LINE = INPUT_FILES["pseudo_val"][1]


@pytest.mark.parametrize(
    "kind,docs,match",
    [
        ("catalog", [{**GOOD_CATALOG, "prompts": [GOOD_PROMPT, GOOD_PROMPT]}],
         r"prompts\[1\]: duplicate prompt_id 'p'"),
        ("catalog",
         [{**GOOD_CATALOG, "prompts": [{**GOOD_PROMPT, "verbalizer": {"0": "n", "1": "n"}}]}],
         r"prompts\[0\]: prompt 'p': verbalizer is not injective"),
        ("catalog", [{**GOOD_CATALOG, "prompts": [{**GOOD_PROMPT, "template": "{{nope}}"}]}],
         r"prompts\[0\]: prompt 'p': placeholders \['nope'\] not in task schema"),
        ("profile", [{**GOOD_PROFILE, "qualities": {"p": 1.5}}],
         r"quality for prompt 'p' out of \[0,1\]"),
        ("profile", [{**GOOD_PROFILE, "default_quality": -0.1}], r"default_quality out of"),
        ("profile", [{**GOOD_PROFILE, "qualities": {"p\x1fq": 0.5}}], "separator"),
        ("pseudo_val", [{**GOOD_PSEUDO_LINE, "gap": -0.5}], "must be finite and >= 0"),
        ("pseudo_val", [GOOD_PSEUDO_LINE, GOOD_PSEUDO_LINE], "duplicate example_id 'e0'"),
    ],
)
def test_semantic_errors_start_with_the_file(tmp_path, kind, docs, match):
    path = tmp_path / "input"
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs), encoding="utf-8")
    with pytest.raises(ValidationError, match=match) as excinfo:
        LOADERS[kind](path)
    assert str(excinfo.value).startswith(f"{path}: ")
