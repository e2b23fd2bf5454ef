"""Resource-lifecycle rule for the out-of-core storage layer.

The disk backend (:mod:`repro.graph.slab`, :mod:`repro.graph.diskstore`)
hands out OS-level handles -- ``mmap`` mappings and slab
readers/writers.  A handle opened outside a managed lifecycle survives
as long as the process does: the mapping pins the file pages and its
file descriptor stays open.  One rule keeps every opening site
accountable:

* ``slab-lifecycle`` -- every construction of a tracked handle type
  (:data:`TRACKED_HANDLES`) must be (a) the context expression of a
  ``with`` statement, (b) lexically inside a class that defines
  ``close()`` (a registry/owner object whose ``close`` sweeps its
  handles), (c) bound to a name on which ``.close()`` is called
  somewhere in the same function, or (d) returned directly to the
  caller (an explicit ownership transfer, as in factory functions).
  Anything else is a leak waiting for process exit.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import (
    build_import_table,
    build_parent_map,
    dotted_name,
    resolve_dotted,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, ModuleContext, register

#: Fully qualified constructors whose return value is an OS resource.
TRACKED_DOTTED = frozenset({
    "mmap.mmap",
})

#: Handle classes of this repo, matched by their final name segment so
#: both ``SlabReader(...)`` and ``slab.SlabReader(...)`` are caught.
TRACKED_HANDLES = frozenset({
    "SlabReader",
    "SlabWriter",
})


def _tracked_constructor(
    call: ast.Call, imports: dict[str, str]
) -> str | None:
    """The tracked handle name this call constructs, or ``None``."""
    resolved = resolve_dotted(call.func, imports)
    if resolved is None:
        return None
    if resolved in TRACKED_DOTTED:
        return resolved
    last = resolved.split(".")[-1]
    if last in TRACKED_HANDLES:
        return last
    return None


def _closed_names(scope: ast.AST) -> set[str]:
    """Dotted receivers of every ``<name>.close()`` call in ``scope``."""
    closed: set[str] = set()
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "close"
        ):
            receiver = dotted_name(node.func.value)
            if receiver is not None:
                closed.add(receiver)
    return closed


def _assigned_name(parent: ast.AST, call: ast.Call) -> str | None:
    """The dotted name the call's result is bound to, if any."""
    if isinstance(parent, ast.Assign) and parent.value is call:
        if len(parent.targets) == 1:
            return dotted_name(parent.targets[0])
    if isinstance(parent, ast.AnnAssign) and parent.value is call:
        return dotted_name(parent.target)
    return None


@register
class SlabLifecycleRule(FileRule):
    name = "slab-lifecycle"
    description = (
        "mmap/slab handles must be opened as a context manager, "
        "inside a close()-owning class, bound to a name that is closed "
        "in the same function, or returned to the caller"
    )
    rationale = (
        "an untracked mmap lives until process exit: mapped slab pages "
        "stay pinned and the file descriptor stays open, and no close() "
        "can reclaim what no owner tracked; every opening site must "
        "name its owner"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_table(module.tree)
        parents = build_parent_map(module.tree)
        managed_classes = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
            and any(
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "close"
                for stmt in node.body
            )
        ]
        in_managed_class = {
            id(node)
            for cls in managed_classes
            for node in ast.walk(cls)
        }
        with_items = {
            id(item.context_expr)
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            handle = _tracked_constructor(node, imports)
            if handle is None:
                continue
            if id(node) in with_items or id(node) in in_managed_class:
                continue
            parent = parents.get(node)
            if parent is None or isinstance(parent, ast.Return):
                continue  # ownership transfers to the caller
            bound = _assigned_name(parent, node)
            if bound is not None:
                scope = self._enclosing_function(node, parents)
                if bound in _closed_names(scope):
                    continue
            yield self.finding(
                module, node,
                f"{handle} handle opened outside a managed lifecycle; "
                f"use a with-statement, own it from a class that "
                f"defines close(), close the bound name in this "
                f"function, or return it to the caller",
            )

    @staticmethod
    def _enclosing_function(
        node: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> ast.AST:
        """Nearest enclosing function, or the module for top-level code."""
        current: ast.AST | None = parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(current)
        root = node
        while root in parents:
            root = parents[root]
        return root
