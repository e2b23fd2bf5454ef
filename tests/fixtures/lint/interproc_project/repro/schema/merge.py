"""Fixture merge fold: impure two hops down, and mutates the config.

Never imported -- only parsed.  ``merge_schemas`` reaches a filesystem
write via ``_audit_merge -> _note``, and mutates a ``config`` parameter
via ``_retune``, which the purity rule flags wherever it happens in the
reachable set.
"""

from __future__ import annotations

from typing import Any


def _note(line: str) -> None:
    with open("/tmp/merge-fixture.log", "a", encoding="utf-8") as fh:
        fh.write(line)  # plant: fs write inside the fold


def _audit_merge(schema: Any) -> None:
    del schema
    _note("merged\n")


def _retune(config: Any) -> None:
    config.threshold = 0.5  # plant: config-parameter mutation


def _merge_stats(left: Any, right: Any) -> Any:
    del right
    return left


def merge_schemas(left: Any, right: Any, config: Any) -> Any:
    """Merge root: reaches the fs write via _audit_merge -> _note and
    mutates the shared config via _retune (the purity breach)."""
    _audit_merge(left)
    _retune(config)
    return _merge_stats(left, right)
