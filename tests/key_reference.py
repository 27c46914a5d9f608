"""The cache key's documented bytes, built as a reference.

Written from the description in ``zps.cache`` and README "Caching", not from
zps's code: a key is a prompt part and an example part, each the sha256 of a
tag, the count of its strings, then each string's UTF-8 bytes after their
length, each number a little-endian uint64. The example part's strings are
the values the template's placeholders read, in order of first appearance,
as ``str.format`` writes them.
"""

from __future__ import annotations

import hashlib
import re
from typing import Mapping, Sequence

PLACEHOLDER = re.compile(r"\{\{\s*([A-Za-z_][A-Za-z0-9_]*)\s*\}\}")


def _uint64(number: int) -> bytes:
    return number.to_bytes(8, "little")


def _part(tag: str, strings: Sequence[str]) -> bytes:
    data = bytearray(tag.encode("ascii"))
    data += _uint64(len(strings))
    for text in strings:
        encoded = text.encode("utf-8")
        data += _uint64(len(encoded))
        data += encoded
    return hashlib.sha256(bytes(data)).digest()


def reference_cache_key(
    model_id: str,
    length_norm: bool,
    template_text: str,
    candidates: Sequence[str],
    fields: Mapping[str, object],
    ids: tuple[str, str] | None = None,
) -> bytes:
    """The 64-byte key of the cell that renders ``template_text`` over
    ``fields``; ``ids`` (prompt_id, example_id) for an id-addressed backend."""
    names = list(dict.fromkeys(PLACEHOLDER.findall(template_text)))
    prompt = [model_id, "1" if length_norm else "0", template_text, *candidates]
    example = ["{}".format(fields[name]) for name in names]
    suffix = ""
    if ids is not None:
        prompt.append(ids[0])
        example.append(ids[1])
        suffix = "+id"
    return (_part(f"zps5 prompt{suffix}\n", prompt)
            + _part(f"zps5 example{suffix}\n", example))
