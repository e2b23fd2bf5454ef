"""Deterministic fault injection for exercising recovery paths.

Production failure modes -- a worker OOM-killed mid-shard, a batch job
crashing halfway through a nightly run, a shard that simply hangs -- are
impossible to test reliably by waiting for them to happen.  This module
makes them *reproducible*: a :class:`FaultPlan` names exactly which sites
(shard index, batch index, ...) misbehave, how (``raise`` an exception,
``hang`` for a while, ``kill`` the worker process), and how many attempts
are affected, and a :class:`FaultInjector` fires those faults at the
instrumented points of the pool executor
(:mod:`repro.core.parallel`) and the map-then-fold driver
(:mod:`repro.core.pipeline`).

Everything is deterministic: a fault fires if and only if the *attempt
number* of the execution is below the spec's ``times`` budget (attempt
numbers are tracked by the driver across retries), or -- for the
convenience call sites that do not track attempts -- by an internal
per-site counter.  Probabilistic plans (``probability < 1``) draw from a
seeded RNG keyed by ``(site, index, attempt)``, so they too replay
identically for a fixed seed regardless of process scheduling.

Plans are expressed as compact strings so they travel through
configuration and environment variables unchanged::

    shard:2:raise            # shard 2 raises once, then behaves
    shard:3:kill:2           # shard 3 kills its worker on attempts 0 and 1
    shard:1:hang:1:30        # shard 1 sleeps 30s on its first attempt
    batch:4:raise            # the fold of batch 4 raises, at any jobs
    shard:*:raise:1:0:0.25   # every shard's first attempt fails w.p. 0.25

Two modes exist specifically for the storage fault sites of the slab
layer (:mod:`repro.graph.slab`): ``enospc`` raises ``OSError(ENOSPC)``
at the instrumented write (simulating a full disk mid-flush), and
``corrupt`` silently corrupts the bytes the site just wrote (a torn
column write, a bit-flipped heap page, a partially renamed manifest)
-- the write *appears* to succeed, which is exactly the failure class
checksums exist to catch.  Sites that perform corruption consult
:meth:`FaultInjector.corrupts` instead of :meth:`FaultInjector.fire`
because the damage is site-specific::

    slab-enospc:0:enospc             # first slab flush hits ENOSPC
    slab-torn-write:1:corrupt        # second flush tears its heap write
    slab-bitflip:0:corrupt           # first commit flips a durable byte
    manifest-partial-rename:1:corrupt  # second manifest lands truncated

The environment variable ``PGHIVE_FAULTS`` (and the companion
``PGHIVE_FAULTS_SEED``) activates a plan process-wide; the
``PGHiveConfig.faults`` knob scopes one to a single run and is inherited
by forked pool workers.  With neither set, the injector resolves to
``None`` and the instrumented code paths cost a single ``is None`` check.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KILL_EXIT_CODE",
]

#: Exit status used by ``kill`` faults so a crash in the harness is
#: distinguishable from a genuine segfault in post-mortem logs.
KILL_EXIT_CODE = 87

_MODES = ("raise", "hang", "kill", "enospc", "corrupt")


class InjectedFault(RuntimeError):
    """The exception raised by ``raise``-mode faults."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        site: Instrumentation point name (``"shard"`` for pool workers,
            ``"batch"`` for the driver's fold, at every ``jobs``).  Free-form:
            new call sites need no harness changes.
        index: Which shard/batch misbehaves; ``None`` matches every index
            (the ``*`` wildcard in the string form).
        mode: ``"raise"``, ``"hang"``, ``"kill"``, ``"enospc"`` (the
            site raises ``OSError(ENOSPC)``, as a full disk would) or
            ``"corrupt"`` (the site silently damages the bytes it just
            wrote; consulted through :meth:`FaultInjector.corrupts`).
        times: How many attempts are affected.  Attempt numbers start at
            0, so ``times=1`` fails the first execution and lets every
            retry succeed; a large value makes the site *poisoned* (only
            an in-process fallback or degradation can finish the run).
        seconds: Sleep duration for ``hang`` mode.
        probability: Chance an eligible attempt actually fires, drawn
            from the injector's seeded RNG (default: always).
    """

    site: str
    index: int | None
    mode: str
    times: int = 1
    seconds: float = 3600.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"fault mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.times < 1:
            raise ValueError("fault times must be >= 1")
        if self.seconds < 0:
            raise ValueError("fault seconds must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")

    def matches(self, site: str, index: int) -> bool:
        """Whether this spec targets the given site and index."""
        return self.site == site and (
            self.index is None or self.index == index
        )

    def serialize(self) -> str:
        """The ``site:index:mode:times:seconds:probability`` string form."""
        index = "*" if self.index is None else str(self.index)
        return (
            f"{self.site}:{index}:{self.mode}:{self.times}"
            f":{self.seconds:g}:{self.probability:g}"
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries."""

    specs: tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str | None) -> "FaultPlan":
        """Parse the comma-separated string form (see module docstring).

        Each entry is ``site:index:mode[:times[:seconds[:probability]]]``
        with ``*`` as the any-index wildcard.  Raises ``ValueError`` on
        malformed input; an empty/None string parses to an empty plan.
        """
        specs: list[FaultSpec] = []
        for entry in (text or "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 3:
                raise ValueError(
                    f"fault spec {entry!r} must be site:index:mode[:...]"
                )
            site, raw_index, mode = parts[0], parts[1], parts[2]
            try:
                index = None if raw_index == "*" else int(raw_index)
                times = int(parts[3]) if len(parts) > 3 else 1
                seconds = float(parts[4]) if len(parts) > 4 else 3600.0
                probability = float(parts[5]) if len(parts) > 5 else 1.0
            except ValueError as exc:
                raise ValueError(
                    f"fault spec {entry!r} has a malformed field: {exc}"
                ) from None
            specs.append(FaultSpec(
                site=site, index=index, mode=mode, times=times,
                seconds=seconds, probability=probability,
            ))
        return cls(tuple(specs))

    def serialize(self) -> str:
        """Inverse of :meth:`parse`."""
        return ",".join(spec.serialize() for spec in self.specs)

    def matching(
        self,
        site: str,
        index: int,
        corrupting: bool = False,
    ) -> FaultSpec | None:
        """First spec targeting ``(site, index)``, or ``None``.

        ``corrupting`` selects between the two injector entry points:
        :meth:`FaultInjector.fire` only sees non-``corrupt`` specs and
        :meth:`FaultInjector.corrupts` only sees ``corrupt`` ones, so a
        plan mixing both kinds never cross-counts attempts.
        """
        for spec in self.specs:
            if (spec.mode == "corrupt") is not corrupting:
                continue
            if spec.matches(site, index):
                return spec
        return None

    def __bool__(self) -> bool:
        return bool(self.specs)


@dataclass
class FaultInjector:
    """Fires the faults of a plan at instrumented call sites.

    The injector is cheap to construct (workers build one per task from
    the inherited config) and deterministic: identical call sequences
    produce identical faults for a fixed plan and seed.
    """

    plan: FaultPlan
    seed: int = 0
    _counters: dict[tuple[str, int, bool], int] = field(
        default_factory=dict
    )

    @classmethod
    def from_spec(
        cls, spec: str | None, seed: int | None = None
    ) -> "FaultInjector | None":
        """Build an injector from a spec string and/or the environment.

        ``spec`` (normally ``PGHiveConfig.faults``) wins; the
        ``PGHIVE_FAULTS`` environment variable is the fallback so CI can
        switch a whole test run into fault mode without touching code.
        Returns ``None`` when no plan is configured -- the instrumented
        sites then pay only a null check.
        """
        text = spec if spec is not None else os.environ.get("PGHIVE_FAULTS")
        plan = FaultPlan.parse(text)
        if not plan:
            return None
        if seed is None:
            seed = int(os.environ.get("PGHIVE_FAULTS_SEED", "0"))
        return cls(plan, seed)

    def fire(
        self,
        site: str,
        index: int,
        attempt: int | None = None,
        in_worker: bool = False,
    ) -> None:
        """Fire the matching fault for this execution, if any.

        Args:
            site: Instrumentation point name (e.g. ``"shard"``).
            index: Shard/batch index being executed.
            attempt: 0-based execution attempt, as tracked by the caller
                across retries.  ``None`` uses an internal per-site
                counter (each call counts as one attempt) for call sites
                without their own retry bookkeeping.
            in_worker: True inside a pool worker process.  ``kill`` is
                only honoured there -- the driver process must survive to
                run the recovery it is being tested on.
        """
        spec = self.plan.matching(site, index)
        if spec is None:
            return
        attempt = self._armed(spec, site, index, attempt)
        if attempt is None:
            return
        if spec.mode == "raise":
            raise InjectedFault(
                f"injected fault: {site}[{index}] attempt {attempt}"
            )
        if spec.mode == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"injected fault: no space left on device at "
                f"{site}[{index}]",
            )
        if spec.mode == "hang":
            time.sleep(spec.seconds)
            return
        if spec.mode == "kill" and in_worker:
            os._exit(KILL_EXIT_CODE)

    def corrupts(
        self, site: str, index: int, attempt: int | None = None
    ) -> bool:
        """Whether a ``corrupt``-mode fault fires for this execution.

        The storage call sites own the actual damage (tearing a write,
        flipping a byte, truncating a rename target) because it is
        site-specific; this method only answers the deterministic
        "does it happen now" question with the same attempt/probability
        bookkeeping as :meth:`fire`.
        """
        spec = self.plan.matching(site, index, corrupting=True)
        if spec is None:
            return False
        return self._armed(spec, site, index, attempt) is not None

    def _armed(
        self,
        spec: FaultSpec,
        site: str,
        index: int,
        attempt: int | None,
    ) -> int | None:
        """Shared attempt-budget and probability gate for one match.

        Returns the resolved attempt number when the fault fires, or
        ``None`` when this execution is past the budget / lost the
        probability draw.
        """
        if attempt is None:
            # The corrupting dimension is part of the key: a plan mixing
            # corrupt and non-corrupt specs at one site must not have
            # corrupts() calls consume fire()'s attempt budget.
            key = (site, index, spec.mode == "corrupt")
            attempt = self._counters.get(key, 0)
            self._counters[key] = attempt + 1
        if attempt >= spec.times:
            return None
        if spec.probability < 1.0:
            # Keyed RNG: the draw depends only on (seed, site, index,
            # attempt), never on call order across sites or processes.
            rng = random.Random(f"{self.seed}:{site}:{index}:{attempt}")
            if rng.random() >= spec.probability:
                return None
        return attempt
