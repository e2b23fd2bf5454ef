"""Fixture pool workers: each violation is hidden behind call hops.

Never imported -- only parsed.  The module mirrors the real package's
root names (``_discover_one`` & co.) so the interprocedural rules
resolve them by suffix, and plants:

* a wall-clock read two hops below ``_discover_one``;
* an environment read inside a *recursive* helper (the fixpoint must
  propagate the effect through the cycle without diverging);
* unseeded RNG resolved through a function-valued *class attribute*;
* a ``getattr``-computed call that must degrade conservatively to a
  dynamic-call finding, not silently resolve;
* a module-global write two hops below ``_discover_plan_chunk``.
"""

from __future__ import annotations

import os
import random
import time
from typing import Any

#: Module-level mutable state a worker helper writes into (the race).
_HITS: dict[str, int] = {}


def _stamp() -> float:
    return time.time()  # plant: wall-clock, two hops from the root


def _audit(label: str) -> float:
    del label
    return _stamp()


def _discover_one(payload: Any) -> float:
    """Worker root: reaches the clock via _audit -> _stamp."""
    del payload
    return _audit("discover")


def _walk(depth: int) -> int:
    """Recursive helper: env read must survive the cycle."""
    if depth <= 0:
        return int(os.environ.get("PGHIVE_FIXTURE_DEPTH", "0"))
    return _walk(depth - 1)


def _rng_kernel() -> float:
    return random.random()  # plant: unseeded RNG


class Kernel:
    """Dispatches to its kernel through a class-attribute binding."""

    impl = _rng_kernel


def _record(key: str) -> None:
    _HITS[key] = _HITS.get(key, 0) + 1  # plant: module-global write


def _discover_plan_chunk(payload: Any) -> float:
    """Worker root: env read through recursion, class-attribute
    dispatch, a dynamic call and a module-global write two hops down."""
    kernel = Kernel()
    value = kernel.impl()
    op = getattr(payload, payload.name)  # non-literal: unresolvable
    op()
    _record("plan")
    return value + _walk(3)


def combine_shard_results(results: list[Any]) -> Any:
    """Merge root that is genuinely pure: must produce no findings."""
    merged = results[0]
    for item in results[1:]:
        merged = merged + item
    return merged
