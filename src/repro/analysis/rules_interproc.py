"""Whole-program rules proven over the interprocedural effect analysis.

These four rules are the static counterpart of the determinism property
tests: instead of sampling shard orders and worker counts, they walk
every function transitively reachable from the pool-worker entry points
and the merge fold and prove the declared effect contracts hold for all
of them.  Each finding carries the witness call chain from the root to
the offending site, so a violation three hops deep reads as a path, not
a mystery.

Sanctioning policy (all of it lives here, in one reviewable place):

* ``core/faults.py`` may sleep, kill the process and read its
  environment spec -- deterministic fault injection is the *product*,
  and its env read is already whitelisted by the file-level ``env-read``
  rule;
* ``core/config.py`` may read the environment (seeded overrides);
* mmap construction is sanctioned only inside the slab store
  (``graph/slab.py``) and the disk graph store (``graph/diskstore.py``),
  where files are written parent-side and re-mapped read-only in
  workers;
* filesystem reads are permitted for workers (they stream shards from
  disk stores) but banned in the merge fold, which must be a pure
  in-memory computation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.interproc import (
    EffectAtom,
    ProjectAnalysis,
    analyze_project,
    exception_matches,
)
from repro.analysis.registry import ProjectContext, ProjectRule, register

__all__ = [
    "ExceptionSurfaceRule",
    "GlobalMutationRaceRule",
    "MergePurityRule",
    "WorkerReachabilityRule",
]

#: Pool-worker entry points: run inside forked children, must produce
#: byte-identical results for any worker count / chunk schedule.
WORKER_ROOTS: tuple[str, ...] = (
    "core/parallel.py:_discover_plan_chunk",
    "core/parallel.py:_discover_one",
)

#: The merge fold: must be a pure in-memory computation so the batch-order
#: fold is byte-identical for any shard arrival order.
MERGE_ROOTS: tuple[str, ...] = (
    "schema/merge.py:merge_schemas",
    "schema/merge.py:_merge_stats",
    "core/incremental.py:IncrementalDiscovery.fold",
    "core/parallel.py:combine_shard_results",
)

#: CLI entry point whose escaping exceptions define the tool's surface.
CLI_ROOT = "cli.py:main"

#: Modules whose env/sleep/process effects are the sanctioned fault and
#: configuration machinery (see module docstring).
_ENV_SANCTIONED_SUFFIXES = ("core/config.py", "core/faults.py")
_FAULT_SANCTIONED_SUFFIXES = ("core/faults.py",)

#: Modules allowed to construct memory maps:
#: the out-of-core column stores.
_SHM_SANCTIONED_SUFFIXES = (
    "graph/slab.py",
    "graph/diskstore.py",
)

#: Exception types allowed to escape ``cli.main`` (process-exit control
#: flow, not error reporting).
_CLI_ALLOWED_ESCAPES = ("SystemExit", "KeyboardInterrupt")


def _atom_module(atom: EffectAtom) -> str:
    """Lint-root-relative module path of the atom's *origin* site."""
    return atom.function.split(":", 1)[0]


def _origin_sanctioned(atom: EffectAtom, suffixes: Sequence[str]) -> bool:
    module = _atom_module(atom)
    return any(
        module == suffix or module.endswith("/" + suffix)
        for suffix in suffixes
    )


def _existing_roots(
    analysis: ProjectAnalysis, roots: Sequence[str]
) -> list[str]:
    """Resolve root suffixes against the current lint target.

    Roots are named package-relative (``core/parallel.py:_discover_one``)
    but fixture projects nest them under their own package dir, so match
    by suffix on the module part.
    """
    out: list[str] = []
    for root in roots:
        module_suffix, function = root.split(":", 1)
        for fid in analysis.graph.functions:
            module, qualname = fid.split(":", 1)
            if qualname != function:
                continue
            if module == module_suffix or module.endswith(
                "/" + module_suffix
            ):
                out.append(fid)
                break
    return out


def _sorted_atoms(atoms: set[EffectAtom]) -> list[EffectAtom]:
    return sorted(
        atoms, key=lambda a: (a.path, a.line, a.kind, a.detail)
    )


class _InterprocRule(ProjectRule):
    """Shared plumbing: one analysis per project, witness chains."""

    def _analysis(self, project: ProjectContext) -> ProjectAnalysis:
        return analyze_project(project)

    def _chain_finding(
        self,
        project: ProjectContext,
        analysis: ProjectAnalysis,
        parents: dict[str, str | None],
        root: str,
        atom: EffectAtom,
        message: str,
    ) -> Finding:
        chain = analysis.witness_chain(parents, atom.function)
        trace = tuple(analysis.display_name(f) for f in chain)
        rendered = " -> ".join(trace) if trace else analysis.display_name(
            root
        )
        base = self.finding(
            project,
            f"{message} [via {rendered}]",
            line=atom.line,
        )
        return Finding(
            path=atom.path,
            line=atom.line,
            rule=base.rule,
            message=base.message,
            severity=base.severity,
            trace=trace,
        )


@register
class WorkerReachabilityRule(_InterprocRule):
    """Pool workers must not transitively reach nondeterminism."""

    name = "worker-reachability"
    description = (
        "functions reachable from pool-worker entry points are free of "
        "wall-clock reads, unseeded RNG, environment reads, dynamic "
        "dispatch, unvetted external calls, and shared-memory "
        "construction outside the sanctioned column stores"
    )
    rationale = (
        "parallel discovery is byte-identical to serial only if every "
        "function a worker can reach is deterministic; one wall-clock "
        "read three calls deep silently breaks replay"
    )

    #: kind -> (sanctioned origin-module suffixes, human label)
    _POLICY: dict[str, tuple[tuple[str, ...], str]] = {
        "clock": ((), "wall-clock read"),
        "rng": ((), "unseeded RNG"),
        "env": (_ENV_SANCTIONED_SUFFIXES, "environment read"),
        "shm": (_SHM_SANCTIONED_SUFFIXES, "shared-memory construction"),
        "process": (_FAULT_SANCTIONED_SUFFIXES, "process control"),
        "sleep": (_FAULT_SANCTIONED_SUFFIXES, "sleep"),
        "dynamic-call": ((), "statically unresolvable call"),
        "external": ((), "unvetted external call"),
    }

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = self._analysis(project)
        for root in _existing_roots(analysis, WORKER_ROOTS):
            parents = analysis.reachable_from(root)
            summary = analysis.summary(root)
            root_name = analysis.display_name(root)
            for atom in _sorted_atoms(summary.atoms):
                policy = self._POLICY.get(atom.kind)
                if policy is None:
                    continue  # fs-read/fs-write/global-write: other rules
                sanctioned, label = policy
                if sanctioned and _origin_sanctioned(atom, sanctioned):
                    continue
                yield self._chain_finding(
                    project,
                    analysis,
                    parents,
                    root,
                    atom,
                    f"worker entry point {root_name!r} reaches {label} "
                    f"({atom.detail})",
                )


@register
class MergePurityRule(_InterprocRule):
    """The merge fold must be a pure in-memory computation."""

    name = "merge-purity"
    description = (
        "the merge_schemas/IncrementalDiscovery.fold call "
        "tree performs no I/O, no global writes, no nondeterministic "
        "reads and never mutates the shared config"
    )
    rationale = (
        "order-independent folding (byte-identical output for any shard "
        "arrival order) is only provable if the fold depends on nothing "
        "but its operands; accumulator mutation is the documented fold "
        "contract, everything else is a purity breach"
    )

    _BANNED: dict[str, str] = {
        "clock": "wall-clock read",
        "rng": "unseeded RNG",
        "env": "environment read",
        "fs-read": "filesystem read",
        "fs-write": "filesystem write",
        "shm": "shared-memory construction",
        "process": "process control",
        "sleep": "sleep",
        "global-write": "module-global write",
        "dynamic-call": "statically unresolvable call",
        "external": "unvetted external call",
    }

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = self._analysis(project)
        for root in _existing_roots(analysis, MERGE_ROOTS):
            parents = analysis.reachable_from(root)
            summary = analysis.summary(root)
            root_name = analysis.display_name(root)
            for atom in _sorted_atoms(summary.atoms):
                label = self._BANNED.get(atom.kind)
                if label is None:
                    continue
                yield self._chain_finding(
                    project,
                    analysis,
                    parents,
                    root,
                    atom,
                    f"merge fold {root_name!r} reaches {label} "
                    f"({atom.detail})",
                )
            yield from self._config_mutations(
                project, analysis, root, parents
            )

    def _config_mutations(
        self,
        project: ProjectContext,
        analysis: ProjectAnalysis,
        root: str,
        parents: dict[str, str | None],
    ) -> Iterator[Finding]:
        """The shared config object must never be mutated by the fold.

        In-place mutation of the *schema* accumulators is the documented
        contract; mutation of a parameter whose name is ``config`` (the
        shared, cross-shard configuration) is a purity breach wherever
        it happens in the reachable set.
        """
        for fid in sorted(parents):
            info = analysis.graph.functions.get(fid)
            if info is None:
                continue
            summary = analysis.summary(fid)
            for index in sorted(summary.mutated_params):
                if index >= len(info.params):
                    continue
                if info.params[index] != "config":
                    continue
                chain = analysis.witness_chain(parents, fid)
                trace = tuple(analysis.display_name(f) for f in chain)
                yield Finding(
                    path=str(info.module.path),
                    line=info.node.lineno,
                    rule=self.name,
                    message=(
                        f"merge fold {analysis.display_name(root)!r} "
                        f"mutates the shared config parameter in "
                        f"{analysis.display_name(fid)!r} "
                        f"[via {' -> '.join(trace)}]"
                    ),
                    severity=self.severity,
                    trace=trace,
                )


@register
class GlobalMutationRaceRule(_InterprocRule):
    """Worker-reachable writes to module globals are cross-process races."""

    name = "global-mutation-race"
    description = (
        "no function reachable from a pool-worker entry point writes "
        "module-level mutable state"
    )
    rationale = (
        "workers run in forked children: a module-global write there "
        "mutates a private copy-on-write page, silently diverging from "
        "the parent -- state must travel through shard results, never "
        "through module globals"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = self._analysis(project)
        for root in _existing_roots(analysis, WORKER_ROOTS):
            parents = analysis.reachable_from(root)
            summary = analysis.summary(root)
            root_name = analysis.display_name(root)
            for atom in _sorted_atoms(summary.atoms):
                if atom.kind != "global-write":
                    continue
                yield self._chain_finding(
                    project,
                    analysis,
                    parents,
                    root,
                    atom,
                    f"worker entry point {root_name!r} reaches a "
                    f"module-global write ({atom.detail}); forked "
                    f"children never propagate it back",
                )


@register
class ExceptionSurfaceRule(_InterprocRule):
    """Every exception escaping the CLI must be structured and caught."""

    name = "exception-surface"
    description = (
        "the only exception types escaping cli.main are SystemExit and "
        "KeyboardInterrupt; every repro error is caught by the "
        "top-level handler and rendered as a structured message"
    )
    rationale = (
        "a raw traceback from a deep raise is an unversioned error "
        "surface: scripts cannot distinguish crash from usage error, "
        "and exit codes stop meaning anything"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        analysis = self._analysis(project)
        roots = _existing_roots(analysis, (CLI_ROOT,))
        for root in roots:
            parents = analysis.reachable_from(root)
            summary = analysis.summary(root)
            root_name = analysis.display_name(root)
            seen: set[str] = set()
            for site in sorted(
                summary.raise_sites,
                key=lambda s: (s.exception, s.path, s.line),
            ):
                if any(
                    exception_matches(
                        site.exception, allowed, analysis.graph
                    )
                    for allowed in _CLI_ALLOWED_ESCAPES
                ):
                    continue
                if site.exception in seen:
                    continue  # one finding per escaping type
                seen.add(site.exception)
                chain = analysis.witness_chain(parents, site.function)
                trace = tuple(analysis.display_name(f) for f in chain)
                yield Finding(
                    path=site.path,
                    line=site.line,
                    rule=self.name,
                    message=(
                        f"{site.display} raised at {site.path}:"
                        f"{site.line} can escape CLI entry point "
                        f"{root_name!r} uncaught "
                        f"[via {' -> '.join(trace)}]"
                    ),
                    severity=self.severity,
                    trace=trace,
                )
