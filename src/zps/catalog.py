"""Tasks, prompts, templates and verbalizers.

A prompt is a pair of a template (text with ``{{name}}`` placeholders) and a
verbalizer (label -> phrase map). Rendering fills an example's fields into
the template; verbalizing maps a label id to the phrase the scorer will rate.

Catalog files are JSON documents::

    {
      "task": {"task_id": ..., "fields": [...], "choices": [...],
               "gold_label_field": ...},
      "prompts": [{"prompt_id": ..., "template": ...,
                   "verbalizer": {label: phrase, ...}}]
    }

Example datasets are JSON Lines, one object per example::

    {"example_id": ..., "fields": {...}, "gold_label": ...}

All catalog types are immutable after load and safe to share across workers.
Label ids are canonicalized to strings (JSON object keys are strings anyway,
so numeric labels like 0/1 become "0"/"1" everywhere).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

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
    # The text split once at its placeholders: literals at even positions,
    # field names at odd ones, so render never re-parses the template.
    parts: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = tuple(_PLACEHOLDER_RE.split(self.template_text))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_names", tuple(dict.fromkeys(parts[1::2])))

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
    fields = example.fields
    missing = [p for p in prompt.template.placeholders() if p not in fields]
    if missing:
        raise ValidationError(
            f"prompt {prompt.prompt_id!r}, example {example.example_id!r}: "
            f"missing fields {missing}"
        )
    out = list(prompt.template.parts)
    out[1::2] = [str(fields[name]) for name in out[1::2]]
    return "".join(out)


def verbalize(prompt: Prompt, label: Any) -> str:
    """The phrase a prompt's verbalizer assigns to a label id."""
    return prompt.verbalizer.phrase(label)


def candidate_phrases(task: TaskSpec, prompt: Prompt) -> tuple[str, ...]:
    """Verbalized phrases for every task choice, in choice order."""
    return tuple(verbalize(prompt, c) for c in task.choices)


# ---------------------------------------------------------------------------
# catalog / dataset files


def _parse_task(obj: Mapping[str, Any]) -> TaskSpec:
    try:
        return TaskSpec(
            task_id=str(obj["task_id"]),
            field_schema=tuple(str(f) for f in obj["fields"]),
            choices=tuple(canon_label(c) for c in obj["choices"]),
            gold_label_field=obj.get("gold_label_field"),
        )
    except KeyError as exc:
        raise ValidationError(f"catalog task section misses key {exc}") from None


def _parse_prompt(obj: Mapping[str, Any]) -> Prompt:
    try:
        prompt_id = str(obj["prompt_id"])
    except KeyError:
        raise ValidationError("prompt entry without prompt_id") from None
    try:
        return Prompt(
            prompt_id=prompt_id,
            template=PromptTemplate(str(obj["template"])),
            verbalizer=Verbalizer(dict(obj["verbalizer"])),
        )
    except KeyError as exc:
        raise ValidationError(f"prompt {prompt_id!r} misses key {exc}") from None
    except ValidationError as exc:
        raise ValidationError(f"prompt {prompt_id!r}: {exc}") from None


def load_catalog(path: str | Path) -> tuple[TaskSpec, list[Prompt]]:
    """Load and fully validate a catalog file.

    Returns the task and at least one prompt; every invariant (placeholder
    coverage, verbalizer totality and injectivity, unique ids) is checked
    here so downstream code can trust the objects.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read catalog {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"catalog {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "task" not in doc or "prompts" not in doc:
        raise ValidationError(f"catalog {path} must have 'task' and 'prompts' sections")

    task = _parse_task(doc["task"])
    prompts = [_parse_prompt(p) for p in doc["prompts"]]
    if not prompts:
        raise ValidationError(f"catalog {path} contains no prompts")

    seen: set[str] = set()
    for prompt in prompts:
        if prompt.prompt_id in seen:
            raise ValidationError(f"duplicate prompt_id {prompt.prompt_id!r}")
        seen.add(prompt.prompt_id)
        validate_prompt(task, prompt)
    return task, prompts


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


def load_examples(path: str | Path, task: TaskSpec | None = None) -> list[UnlabeledExample]:
    """Load a JSON Lines example file.

    Gold labels come from an explicit ``gold_label`` key, or, when the task
    declares ``gold_label_field``, from that field of the example.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read examples {path}: {exc}") from None

    examples: list[UnlabeledExample] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        try:
            example_id = str(obj["example_id"])
            fields = {str(k): str(v) for k, v in obj["fields"].items()}
        except (KeyError, AttributeError, TypeError):
            raise ValidationError(
                f"{path}:{lineno}: example needs 'example_id' and 'fields'"
            ) from None
        gold = obj.get("gold_label")
        if gold is None and task is not None and task.gold_label_field:
            gold = obj["fields"].get(task.gold_label_field)
        if example_id in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate example_id {example_id!r}")
        seen.add(example_id)
        examples.append(UnlabeledExample(example_id=example_id, fields=fields, gold_label=gold))
    if not examples:
        raise ValidationError(f"examples file {path} is empty")
    return examples


def gold_label_map(examples: Iterable[UnlabeledExample]) -> dict[str, str]:
    """example_id -> gold label for every example that carries one."""
    return {e.example_id: e.gold_label for e in examples if e.gold_label is not None}
