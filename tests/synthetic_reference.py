"""The synthetic scorer's formula, one cell at a time, as a reference.

This is the per-cell scorer ``SyntheticBackend.score_batch`` replaced: five
strings joined, encoded and hashed per draw, and the arithmetic in Python
floats. ``SyntheticBackend`` must give exactly these values for every cell.
"""

from __future__ import annotations

import hashlib

from zps import BackendError, ScoreRequest, SyntheticBackend


def hash01(*parts: str) -> float:
    """Deterministic uniform float in [0, 1) from string parts."""
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return min(int.from_bytes(digest[:8], "big") / 2**64, 1 - 2**-53)


def reference_quality(backend: SyntheticBackend, prompt_id: str) -> float:
    if prompt_id in backend.prompt_quality:
        return backend.prompt_quality[prompt_id]
    if backend.default_quality is not None:
        return backend.default_quality
    raise BackendError(f"no quality configured for prompt {prompt_id!r}")


def reference_scores(backend: SyntheticBackend, req: ScoreRequest) -> list[float]:
    """One cell's scores under ``backend``'s configuration."""
    pid, eid = req.prompt_id, req.example_id
    labels = req.choice_labels
    planted = backend.planted_labels.get(eid)
    if planted is None:
        raise BackendError(f"no planted label for example {eid!r}")
    if planted not in labels:
        raise BackendError(
            f"planted label {planted!r} for example {eid!r} not among choices {labels}"
        )
    quality = reference_quality(backend, pid)
    s = str(backend.seed)

    correct = hash01(s, "flip", pid, eid) < quality
    if correct:
        winner = labels.index(planted)
    else:
        others = [j for j in range(len(labels)) if labels[j] != planted]
        winner = others[int(hash01(s, "wrong", pid, eid) * len(others))]

    wobble = 0.25 + 0.75 * hash01(s, "conf", pid, eid)
    margin = 0.2 + 3.0 * quality * wobble
    if not correct:
        margin *= backend.miss_margin_scale

    base = -(0.5 + 2.5 * hash01(s, "base", pid, eid))
    scores = []
    for j in range(len(labels)):
        if j == winner:
            scores.append(base)
        else:
            extra = 0.05 + 0.5 * hash01(s, "loser", pid, eid, str(j))
            scores.append(base - margin - extra)
    return scores


def reference_profile(seed, prompt_ids, example_ids, choices, quality_range=(0.55, 0.95)):
    """``derived_profile`` one id at a time."""
    lo, hi = quality_range
    s = str(seed)
    qualities = {pid: lo + (hi - lo) * hash01(s, "q", pid) for pid in prompt_ids}
    planted = {eid: choices[int(hash01(s, "y", eid) * len(choices))] for eid in example_ids}
    return qualities, planted
