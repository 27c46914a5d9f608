"""Tasks, prompts, templates and verbalizers.

A prompt is a pair of a template (text with ``{{name}}`` placeholders) and a
verbalizer (label -> phrase map). Rendering fills an example's fields into
the template; verbalizing maps a label id to the phrase the scorer will rate.

The file section at the end reads and shape-checks every JSON file zps takes
in and writes every file it puts out. Catalog files are JSON documents (``?``
marks an optional key)::

    {
      "task": {"task_id": label, "fields": [string, ...], "choices": [label, ...],
               "gold_label_field"?: string},
      "prompts": [{"prompt_id": label, "template": string,
                   "verbalizer": {label: string, ...}}]
    }

Example datasets are JSON Lines, one object per example::

    {"example_id": label, "fields": {name: value, ...}, "gold_label"?: label}

All catalog types are immutable after load and safe to share across workers.
Label ids are canonicalized to strings (JSON object keys are strings anyway,
so numeric labels like 0/1 become "0"/"1" everywhere).
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import ValidationError

_PLACEHOLDER_RE = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")


def canon_label(label: Any) -> str:
    """Canonical string form of a label id (ints/floats/bools via JSON)."""
    if isinstance(label, str):
        return label
    if isinstance(label, bool):
        return "true" if label else "false"
    if isinstance(label, (int, float)):
        return json.dumps(label)
    raise ValidationError(f"unsupported label type: {type(label).__name__}")


@dataclass(frozen=True)
class TaskSpec:
    """A task: its field schema, ordered label space, and optional gold field."""

    task_id: str
    field_schema: tuple[str, ...]
    choices: tuple[str, ...]
    gold_label_field: str | None = None

    def __post_init__(self):
        if len(self.choices) < 2:
            raise ValidationError(
                f"task {self.task_id!r}: needs at least 2 choices, got {len(self.choices)}"
            )
        if len(set(self.choices)) != len(self.choices):
            raise ValidationError(f"task {self.task_id!r}: duplicate choices")
        if len(set(self.field_schema)) != len(self.field_schema):
            raise ValidationError(f"task {self.task_id!r}: duplicate field names")
        if self.gold_label_field is not None and self.gold_label_field in self.field_schema:
            raise ValidationError(
                f"task {self.task_id!r}: gold_label_field {self.gold_label_field!r} "
                "must not be part of the rendering schema"
            )


@dataclass(frozen=True)
class PromptTemplate:
    """Template text with literal ``{{name}}`` substitution, nothing more."""

    template_text: str
    # Built once: the names, and a str.format_map of the text with literal braces
    # doubled and each placeholder as {name}, so render fills a cell with one call.
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _fill: Callable[[Mapping[str, Any]], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = _PLACEHOLDER_RE.split(self.template_text)  # literals at even positions
        object.__setattr__(self, "_names", tuple(dict.fromkeys(parts[1::2])))
        text = "".join(part.replace("{", "{{").replace("}", "}}") if k % 2 == 0
                       else f"{{{part}}}" for k, part in enumerate(parts))
        object.__setattr__(self, "_fill", text.format_map)

    def placeholders(self) -> tuple[str, ...]:
        """Placeholder names in order of first appearance."""
        return self._names


@dataclass(frozen=True)
class Verbalizer:
    """Injective map from label id to the phrase the scorer rates."""

    mapping: Mapping[str, str]

    def __post_init__(self):
        canon = {canon_label(k): v for k, v in self.mapping.items()}
        object.__setattr__(self, "mapping", canon)
        for label, phrase in canon.items():
            if not isinstance(phrase, str) or not phrase:
                raise ValidationError(f"verbalizer phrase for label {label!r} is empty")
        phrases = list(canon.values())
        if len(set(phrases)) != len(phrases):
            raise ValidationError("verbalizer is not injective: two labels share a phrase")

    def phrase(self, label: Any) -> str:
        key = canon_label(label)
        if key not in self.mapping:
            raise ValidationError(f"unknown label {key!r} (known: {sorted(self.mapping)})")
        return self.mapping[key]


@dataclass(frozen=True)
class Prompt:
    """The unit being selected: a template plus its verbalizer."""

    prompt_id: str
    template: PromptTemplate
    verbalizer: Verbalizer


@dataclass(frozen=True)
class UnlabeledExample:
    """One task example; ``gold_label`` is optional and used only for evaluation."""

    example_id: str
    fields: Mapping[str, str]
    gold_label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "fields", dict(self.fields))
        if self.gold_label is not None:
            object.__setattr__(self, "gold_label", canon_label(self.gold_label))


def validate_prompt(task: TaskSpec, prompt: Prompt) -> None:
    """Check a prompt against its task; raises naming the offending prompt."""
    unknown = [p for p in prompt.template.placeholders() if p not in task.field_schema]
    if unknown:
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}: placeholders {unknown} not in task schema "
            f"{list(task.field_schema)}"
        )
    mapped = set(prompt.verbalizer.mapping)
    choice_set = set(task.choices)
    missing = sorted(choice_set - mapped)
    if missing:
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}: verbalizer misses choices {missing}"
        )
    extra = sorted(mapped - choice_set)
    if extra:
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}: verbalizer maps unknown labels {extra}"
        )


def render(prompt: Prompt, example: UnlabeledExample) -> str:
    """Substitute the example's fields into the template.

    Deterministic; no characters other than the placeholders are altered.
    Raises listing every absent placeholder if the example is incomplete.
    """
    try:
        return prompt.template._fill(example.fields)
    except KeyError:
        missing = [p for p in prompt.template.placeholders() if p not in example.fields]
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}, example {example.example_id!r}: "
            f"missing fields {missing}"
        ) from None


def candidate_phrases(task: TaskSpec, prompt: Prompt) -> tuple[str, ...]:
    """Verbalized phrases for every task choice, in choice order."""
    return tuple(map(prompt.verbalizer.phrase, task.choices))


# ---------------------------------------------------------------------------
# files: one reader and field check for every JSON file zps takes in, one writer for
# every file it puts out. Each input failure is a ValidationError naming the file, the
# line of a JSON Lines file, and the key. Given ``text``, the file's text read already,
# a reader or loader parses that instead. The score cache keeps its own reader and writer.

# The kinds _is decides with one isinstance test; a label is anything canon_label
# accepts.
_TYPES = {"string": str, "label": (str, int, float), "list": list, "object": dict}


def read_text(path: str | Path) -> str:
    """The file's bytes, read once and decoded as UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new file beside ``path`` and rename it over ``path``:
    the path never holds a partial file. Its mode is 0o666 less the umask, as with open."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(doc: Any) -> str:
    """The one text form of every JSON document zps writes: keys sorted, indent 2."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse(text: str, where: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # too many digits, too deeply nested
        raise ValidationError(f"{where}: invalid JSON: {exc}") from None


def read_json(path: str | Path, text: str | None = None) -> Any:
    return _parse(read_text(path) if text is None else text, str(path))


def read_jsonl(path: str | Path, text: str | None = None) -> Iterator[tuple[str, Any]]:
    """``("path:line", value)`` for each non-blank line of a JSON Lines file. Only ``\\n``
    ends a line: a JSON string may hold U+0085, U+2028 or U+2029, where splitlines splits.
    A blank line holds only JSON whitespace; a line of any other space is invalid JSON."""
    for lineno, line in enumerate((read_text(path) if text is None else text).split("\n"), 1):
        if line.strip(" \t\r"):
            where = f"{path}:{lineno}"
            yield where, _parse(line, where)


def check_fields(obj: Any, where: str, required: Mapping[str, str],
                 optional: Mapping[str, str] | None = None) -> dict:
    """``obj``, checked to be an object whose keys hold values of the given kinds.

    A kind is ``string``, ``number`` (a finite int or float, not a bool), ``label``,
    ``list``, ``object``, or ``list of K`` / ``object of K`` for one whose every
    element or value is of kind K. An absent or null optional key passes.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {obj!r:.40}")
    for key, kind in required.items():
        if key not in obj:
            raise ValidationError(
                f"{where}: missing key {key!r} (expected keys {sorted(required)})")
        _check(obj[key], kind, where, key)
    for key, kind in (optional or {}).items():
        if obj.get(key) is not None:
            _check(obj[key], kind, where, key)
    return obj


def _check(value: Any, kind: str, where: str, key: str) -> None:
    container, _, element = kind.partition(" of ")
    if not _is(value, container):
        raise ValidationError(f"{where}: malformed {key!r}: expected {kind}, got {value!r:.40}")
    if element:
        for at, item in value.items() if container == "object" else enumerate(value):
            if not _is(item, element):
                raise ValidationError(f"{where}: malformed {key!r}: expected {kind}, "
                                      f"got {item!r:.40} at {at!r}")


def _is(value: Any, kind: str) -> bool:
    return finite(value) is not None if kind == "number" else isinstance(value, _TYPES[kind])


def finite(value: Any) -> float | None:
    """``value`` as a finite float, or None when it is not a finite int or float
    (a bool is not a number, nor is an int beyond the float range)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None
    return None


def load_catalog(path: str | Path, text: str | None = None) -> tuple[TaskSpec, list[Prompt]]:
    """Load and fully validate a catalog file.

    Returns the task and at least one prompt; every invariant (placeholder
    coverage, verbalizer totality and injectivity, unique ids) is checked
    here so downstream code can trust the objects.
    """
    doc = check_fields(read_json(path, text), str(path), {"task": "object", "prompts": "list"})
    spec = check_fields(
        doc["task"], f"{path}: task",
        {"task_id": "label", "fields": "list of string", "choices": "list of label"},
        {"gold_label_field": "string"})
    task = TaskSpec(
        task_id=canon_label(spec["task_id"]),
        field_schema=tuple(spec["fields"]),
        choices=tuple(map(canon_label, spec["choices"])),
        gold_label_field=spec.get("gold_label_field"),
    )
    prompts: dict[str, Prompt] = {}
    for k, entry in enumerate(doc["prompts"]):
        where = f"{path}: prompts[{k}]"
        check_fields(entry, where, {
            "prompt_id": "label", "template": "string", "verbalizer": "object of string"})
        prompt_id = canon_label(entry["prompt_id"])
        if prompt_id in prompts:
            raise ValidationError(f"{where}: duplicate prompt_id {prompt_id!r}")
        try:
            prompt = Prompt(prompt_id, PromptTemplate(entry["template"]),
                            Verbalizer(entry["verbalizer"]))
        except ValidationError as exc:
            raise ValidationError(f"{where}: prompt {prompt_id!r}: {exc}") from None
        try:
            validate_prompt(task, prompt)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        prompts[prompt_id] = prompt
    if not prompts:
        raise ValidationError(f"catalog {path} contains no prompts")
    return task, list(prompts.values())


def serialize_catalog(task: TaskSpec, prompts: Iterable[Prompt]) -> str:
    """Canonical JSON form of a catalog; load(serialize(...)) is the identity."""
    doc = {
        "task": {
            "task_id": task.task_id,
            "fields": list(task.field_schema),
            "choices": list(task.choices),
            **(
                {"gold_label_field": task.gold_label_field}
                if task.gold_label_field is not None
                else {}
            ),
        },
        "prompts": [
            {
                "prompt_id": p.prompt_id,
                "template": p.template.template_text,
                "verbalizer": dict(p.verbalizer.mapping),
            }
            for p in prompts
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


_EXAMPLE_KEYS = {"example_id": "label", "fields": "object"}
_EXAMPLE_GOLD = {"gold_label": "label"}


def load_examples(path: str | Path, task: TaskSpec | None = None,
                  text: str | None = None) -> list[UnlabeledExample]:
    """Load a JSON Lines example file.

    Gold labels come from an explicit ``gold_label`` key, or, when the task
    declares ``gold_label_field``, from that field of the example. Every other
    field value must be a string.
    """
    gold_field = task.gold_label_field if task is not None else None
    examples: dict[str, UnlabeledExample] = {}
    for where, obj in read_jsonl(path, text):
        check_fields(obj, where, _EXAMPLE_KEYS, _EXAMPLE_GOLD)
        example_id = canon_label(obj["example_id"])
        fields = obj["fields"]
        gold = obj.get("gold_label")
        if gold is None and gold_field:
            gold = fields.get(gold_field)
        for key, value in fields.items():
            if type(value) is not str:
                _check(value, "label" if key == gold_field else "string", where, key)
                fields[key] = str(value)
        if example_id in examples:
            raise ValidationError(f"{where}: duplicate example_id {example_id!r}")
        examples[example_id] = UnlabeledExample(example_id, fields, gold)
    if not examples:
        raise ValidationError(f"examples file {path} is empty")
    return list(examples.values())


def gold_label_map(examples: Iterable[UnlabeledExample]) -> dict[str, str]:
    """example_id -> gold label for every example that carries one."""
    return {e.example_id: e.gold_label for e in examples if e.gold_label is not None}
