"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: validation problems exit 1, backend and
cache trouble exit 2, anything else (internal invariant violations) exit 3.
"""

from __future__ import annotations


class ZpsError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ZpsError):
    """Bad input: malformed files, broken invariants, out-of-range arguments."""


class BackendError(ZpsError):
    """A scorer backend failed after bounded retries."""


class ProtocolError(BackendError):
    """The remote scorer answered with a malformed or non-finite payload."""

    def __init__(self, message: str, payload_excerpt: str = ""):
        if payload_excerpt:
            message = f"{message} (payload excerpt: {payload_excerpt})"
        super().__init__(message)


class ScoringFailedError(BackendError):
    """One or more (prompt, example) cells could not be scored.

    ``failed`` holds the exact coordinates so callers can see which cells
    were affected.
    """

    def __init__(self, failed: list[tuple[str, str]]):
        self.failed = sorted(failed)
        coords = ", ".join(f"({p}, {e})" for p, e in self.failed)
        super().__init__(f"scoring failed for {len(self.failed)} cell(s): {coords}")


class CacheCorruptionError(ZpsError):
    """The score cache file is unreadable.

    Recomputation is deliberately NOT attempted: a corrupt cache usually
    signals a bigger problem (disk, concurrent writer). Delete or move the
    cache file to reset it explicitly.
    """
