"""Seeded input generator for the benchmark workloads.

Standard library only, so the benchmark can make its inputs before (and
without) importing zps. The same (workload, seed) always gives byte-identical
files. zps receives only these files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Workload name -> input size. Every operation scores (or analyzes) the full
# prompts x examples grid once, so "cells" is the throughput denominator.
SIZES = {
    "select-cold": {"prompts": 8, "examples": 400, "choices": 3},
    "select-warm": {"prompts": 8, "examples": 400, "choices": 3},
    "remote-stub": {"prompts": 10, "examples": 160, "choices": 3},
    # Two populations (ratios 0.2 and 0.5, one seed) of 10 prompts x 250
    # examples: the default spec has 20 populations of 10 x 500.
    "simulate": {"prompts": 10, "examples": 250, "choices": 2, "populations": 2},
    "analyze": {"prompts": 100, "examples": 5_000, "choices": 4},
}

CHOICES = ("entailment", "neutral", "contradiction", "unrelated")
# Per-choice answer words; each prompt appends its own tag, so no two prompts
# share a verbalizer phrase and content-addressed cache keys never collide.
ANSWER_WORDS = (
    ("yes", "true", "entailed", "certainly", "right"),
    ("maybe", "possibly", "unclear", "perhaps", "unsure"),
    ("no", "false", "contradicted", "never", "wrong"),
    ("unrelated", "offtopic", "irrelevant", "elsewhere", "other"),
)
TEMPLATES = (
    "Premise: {{premise}}\nHypothesis: {{hypothesis}}\nRelation ({tag}):",
    "{{premise}}\nQuestion: does that imply \"{{hypothesis}}\"? ({tag})",
    "Given that {{premise}}, is it true that {{hypothesis}}? [{tag}]",
    "Suppose {{premise}}. Can we infer {{hypothesis}}? {tag} answer:",
)
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def _rng(workload: str, seed: int) -> random.Random:
    # select-warm reuses select-cold's inputs so the two differ only in the cache.
    family = "select" if workload.startswith("select") else workload
    return random.Random(f"zps-bench:{family}:{seed}")


def _vocabulary(rng: random.Random, size: int = 400) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    return sorted(words)


def render_text(template: str, fields: dict[str, str]) -> str:
    """The benchmark's own rendering, used to check zps's outputs."""
    for name, value in fields.items():
        template = template.replace("{{" + name + "}}", value)
    return template


def make_task(workload: str, seed: int, out_dir: Path) -> None:
    """Write catalog.json and examples.jsonl into ``out_dir``."""
    size = SIZES[workload]
    rng = _rng(workload, seed)
    vocab = _vocabulary(rng)
    choices = CHOICES[: size["choices"]]
    prompts = []
    for i in range(size["prompts"]):
        tag = f"{rng.choice(vocab)}{i}"
        prompts.append({
            "prompt_id": f"p{i:02d}-{tag}",
            "template": rng.choice(TEMPLATES).replace("{tag}", tag),
            "verbalizer": {
                label: f"{rng.choice(ANSWER_WORDS[j])} {tag}"
                for j, label in enumerate(choices)
            },
        })
    catalog = {
        "task": {"task_id": f"bench-{seed}", "fields": ["premise", "hypothesis"],
                 "choices": list(choices)},
        "prompts": prompts,
    }
    examples = []
    for k in range(size["examples"]):
        examples.append({
            "example_id": f"ex{k:05d}",
            "fields": {
                "premise": " ".join(rng.choice(vocab) for _ in range(rng.randint(8, 16))),
                "hypothesis": " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 8))),
            },
        })
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "catalog.json").write_text(json.dumps(catalog, indent=1) + "\n",
                                          encoding="utf-8")
    (out_dir / "examples.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in examples), encoding="utf-8"
    )


def make_spec(seed: int, out_dir: Path) -> None:
    """Write spec.json, a robustness spec for the simulate workload, into ``out_dir``."""
    size = SIZES["simulate"]
    rng = _rng("simulate", seed)
    spec = {
        "base_qualities": sorted(round(rng.uniform(0.70, 0.80), 2)
                                 for _ in range(size["prompts"])),
        "adversarial_quality": [0.45, 0.55],
        "ratios": [0.2, 0.5],
        "seeds": [seed],
        "n_examples": size["examples"],
        "strategy": "logprob_mean",
        "choices": size["choices"],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "spec.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")


def cells_per_op(workload: str) -> int:
    size = SIZES[workload]
    return size["prompts"] * size["examples"] * size.get("populations", 1)


def describe(workload: str) -> str:
    size = SIZES[workload]
    shape = f"{size['prompts']}x{size['examples']}x{size['choices']}"
    if "populations" in size:
        return f"{size['populations']} populations of {shape}"
    return shape
