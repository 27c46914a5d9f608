"""The cache key's one-pass formula, as a reference.

This is how ``zps.cache.make_cache_key`` built its hashed text before the
parts that every cell of a prompt shares were kept per prompt: one list of
parts, their lengths as a list, then the parts joined. Caches written by
any version must keep hitting, so ``make_cache_key`` must give exactly
these keys.
"""

from __future__ import annotations

import hashlib
from typing import Sequence


def reference_cache_key(
    model_id: str,
    rendered_input: str,
    candidates: Sequence[str],
    length_norm: bool,
    coords: tuple[str, str] | None = None,
) -> bytes:
    parts = [model_id, rendered_input, *candidates]
    if coords is not None:
        parts += coords
    lengths = list(map(len, parts))
    text = f"{length_norm:d};{len(candidates)};{lengths}{''.join(parts)}"
    return hashlib.sha256(text.encode("utf-8")).digest()
