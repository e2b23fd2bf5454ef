"""Fork/pickle-safety rules for the parallel runtime.

The parallel driver (:mod:`repro.core.parallel`) promises that nothing
graph-sized and nothing unpicklable ever crosses the process-pool pipe:
workers receive tiny :class:`~repro.graph.store.ShardPlan` scalars and
return per-shard schemas.  Two rules keep that true statically:

* ``payload-pickle`` -- every type in :data:`POOL_PAYLOAD_TYPES` (the
  types annotated as crossing the pool boundary) must be a dataclass --
  or a plain class with fully annotated attributes -- whose fields are
  *transitively* primitives, containers of primitives, numpy arrays,
  enums, or other such payload-safe classes.  A ``GraphStore``, an open
  file, an executor or a lambda smuggled onto a payload field would
  either fail to pickle or drag the whole parent graph through the pipe.
* ``worker-closure`` -- functions submitted to a pool must be
  module-level (pickle-by-reference), never lambdas, nested closures or
  bound methods; and functions documented as workers (docstring starting
  with ``Worker:``) must not take parent-state parameters
  (``GraphStore``, ``PGHive``, executors) -- the sanctioned channel for
  fork-inherited state is the module-global ``_PARENT_STATE``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.astutil import (
    build_import_table,
    dotted_name,
    resolve_dotted,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import (
    FileRule,
    ModuleContext,
    ProjectContext,
    ProjectRule,
    register,
)

#: The types annotated as crossing the process-pool boundary.  Adding a
#: new payload type to the runtime means adding it here so its fields
#: stay statically pickle-checked.
POOL_PAYLOAD_TYPES = (
    "ShardPlan",
    "ShardResult",
    "ShardFailure",
    "BatchReport",
    "SchemaGraph",
)

#: Annotation atoms always safe to pickle and fork-share.
SAFE_ATOMS = frozenset({
    "int", "float", "str", "bool", "bytes", "complex", "None",
    "NoneType",
})

#: Generic containers: safe when their parameters are (checked
#: recursively through the annotation's other names).
SAFE_CONTAINERS = frozenset({
    "list", "dict", "tuple", "set", "frozenset",
    "typing.Sequence", "typing.Mapping", "typing.MutableMapping",
    "typing.Optional", "typing.Union", "typing.Literal", "typing.Tuple",
    "typing.List", "typing.Dict", "typing.Set", "typing.FrozenSet",
    "collections.abc.Sequence", "collections.abc.Mapping",
    "Sequence", "Mapping", "MutableMapping", "Optional", "Union",
    "Literal",
})

#: Concrete non-dataclass types audited by hand as payload-safe.
#: collections.Counter pickles as a dict; numpy arrays use the buffer
#: protocol.
SAFE_CONCRETE = frozenset({
    "numpy.ndarray", "np.ndarray", "ndarray",
    "collections.Counter", "Counter",
})

#: Parameter annotations a worker function must never take: these are
#: parent-side state and would be pickled wholesale into the pipe.
PARENT_STATE_TYPES = frozenset({
    "GraphStore", "GraphStream", "PGHive", "ProcessPoolExecutor",
    "ThreadPoolExecutor", "Pool", "Executor",
})


@dataclass
class _ClassInfo:
    """AST facts about one class definition."""

    name: str
    module: ModuleContext
    lineno: int
    is_dataclass: bool
    is_enum: bool
    #: field name -> (annotation node or None, lineno)
    fields: dict[str, tuple[ast.expr | None, int]]


def _decorator_names(node: ast.ClassDef, imports: dict[str, str]) -> set[str]:
    names: set[str] = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        resolved = resolve_dotted(target, imports)
        if resolved:
            names.add(resolved)
    return names


def _base_names(node: ast.ClassDef, imports: dict[str, str]) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        resolved = resolve_dotted(base, imports)
        if resolved:
            names.add(resolved)
    return names


def _collect_classes(project: ProjectContext) -> dict[str, _ClassInfo]:
    """Index every class definition in the lint target by name.

    For dataclasses the fields are the class-body ``AnnAssign`` targets;
    for plain classes they are the annotated ``self.x: T = ...``
    assignments in ``__init__`` (falling back, for unannotated
    ``self.x = <param-or-constant>``, to the parameter annotation or the
    constant's type).
    """
    classes: dict[str, _ClassInfo] = {}
    for module in project.modules:
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = _decorator_names(node, imports)
            bases = _base_names(node, imports)
            is_dataclass = any(
                d in ("dataclasses.dataclass", "dataclass")
                for d in decorators
            )
            is_enum = any(
                b.startswith("enum.") or b in (
                    "Enum", "IntEnum", "StrEnum", "IntFlag", "Flag",
                )
                for b in bases
            )
            fields: dict[str, tuple[ast.expr | None, int]] = {}
            if is_dataclass:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name
                    ):
                        fields[stmt.target.id] = (
                            stmt.annotation, stmt.lineno
                        )
            else:
                fields = _plain_class_fields(node)
            info = _ClassInfo(
                name=node.name,
                module=module,
                lineno=node.lineno,
                is_dataclass=is_dataclass,
                is_enum=is_enum,
                fields=fields,
            )
            # First definition wins; duplicate class names across modules
            # are rare and the payload types are unique in this tree.
            classes.setdefault(node.name, info)
    return classes


def _plain_class_fields(
    node: ast.ClassDef,
) -> dict[str, tuple[ast.expr | None, int]]:
    """Instance attributes assigned in ``__init__`` of a plain class."""
    fields: dict[str, tuple[ast.expr | None, int]] = {}
    init = next(
        (
            stmt for stmt in node.body
            if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
        ),
        None,
    )
    if init is None:
        return fields
    param_annotations = {
        arg.arg: arg.annotation
        for arg in init.args.args + init.args.kwonlyargs
        if arg.annotation is not None
    }
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Attribute
        ) and isinstance(stmt.target.value, ast.Name) and \
                stmt.target.value.id == "self":
            fields[stmt.target.attr] = (stmt.annotation, stmt.lineno)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    annotation = _infer_assign_annotation(
                        stmt.value, param_annotations
                    )
                    fields.setdefault(
                        target.attr, (annotation, stmt.lineno)
                    )
    return fields


def _infer_assign_annotation(
    value: ast.expr, param_annotations: dict[str, ast.expr | None]
) -> ast.expr | None:
    """Annotation for ``self.x = value`` when it is a param or constant."""
    if isinstance(value, ast.Name) and value.id in param_annotations:
        return param_annotations[value.id]
    if isinstance(value, ast.Constant):
        type_name = type(value.value).__name__
        if type_name in ("int", "float", "str", "bool", "bytes"):
            return ast.Name(id=type_name, ctx=ast.Load())
        if value.value is None:
            return ast.Constant(value=None)
    return None


def _annotation_names(annotation: ast.expr) -> Iterator[tuple[str, str]]:
    """Every type reference in an annotation as (dotted, last segment).

    Handles subscripts, unions (both ``|`` and ``Union``), and string
    forward references (parsed recursively).  Attribute chains yield one
    dotted reference, never their inner pieces.
    """
    if isinstance(annotation, ast.Name):
        yield annotation.id, annotation.id
        return
    if isinstance(annotation, ast.Attribute):
        dotted = dotted_name(annotation)
        if dotted is not None:
            yield dotted, dotted.split(".")[-1]
            return
    if isinstance(annotation, ast.Constant):
        if isinstance(annotation.value, str):
            try:
                inner = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return
            yield from _annotation_names(inner)
        return
    for child in ast.iter_child_nodes(annotation):
        yield from _annotation_names(child)


@register
class PayloadPickleRule(ProjectRule):
    name = "payload-pickle"
    description = (
        "pool-boundary payload types must be dataclasses (or fully "
        "annotated plain classes) with transitively primitive/ndarray/"
        "enum/dataclass fields"
    )
    rationale = (
        "shard payloads are pickled into worker processes and back; a "
        "field holding a GraphStore, executor, file handle or lambda "
        "either fails to pickle or silently ships the whole parent "
        "graph through the pipe, destroying the plan-mode payload "
        "contract of repro.core.parallel"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        classes = _collect_classes(project)
        roots = [name for name in POOL_PAYLOAD_TYPES if name in classes]
        if not roots:
            return  # target tree has no payload types (e.g. fixtures)
        checked: set[str] = set()
        queue = list(roots)
        while queue:
            class_name = queue.pop(0)
            if class_name in checked:
                continue
            checked.add(class_name)
            info = classes[class_name]
            if info.is_enum:
                continue
            yield from self._check_fields(info, classes, queue)

    def _check_fields(
        self,
        info: _ClassInfo,
        classes: dict[str, _ClassInfo],
        queue: list[str],
    ) -> Iterator[Finding]:
        for field_name, (annotation, lineno) in sorted(info.fields.items()):
            if annotation is None:
                yield Finding(
                    path=str(info.module.path),
                    line=lineno,
                    rule=self.name,
                    message=(
                        f"{info.name}.{field_name} crosses the pool "
                        f"boundary but has no resolvable type annotation; "
                        f"annotate it so its pickle-safety is checkable"
                    ),
                    severity=self.severity,
                )
                continue
            seen: set[str] = set()
            for dotted, last in _annotation_names(annotation):
                if dotted in seen:
                    continue
                seen.add(dotted)
                if (
                    dotted in SAFE_ATOMS
                    or dotted in SAFE_CONTAINERS
                    or dotted in SAFE_CONCRETE
                    or last == "ndarray"
                ):
                    continue
                target = classes.get(last)
                if target is not None:
                    if target.is_enum:
                        continue
                    queue.append(last)
                    continue
                yield Finding(
                    path=str(info.module.path),
                    line=lineno,
                    rule=self.name,
                    message=(
                        f"{info.name}.{field_name} references "
                        f"{dotted!r}, which is not a known "
                        f"payload-safe type (primitive, container, "
                        f"ndarray, enum, or checked class); shard "
                        f"payloads must stay transitively picklable"
                    ),
                    severity=self.severity,
                )


@register
class WorkerClosureRule(FileRule):
    name = "worker-closure"
    description = (
        "pool.submit targets must be module-level functions, and "
        "worker functions must not take parent-state parameters"
    )
    rationale = (
        "a lambda, closure or bound method submitted to a process pool "
        "fails to pickle (or pickles its enclosing state wholesale), "
        "and a worker parameter typed GraphStore/PGHive would ship the "
        "parent graph through the pipe; fork-inherited state flows "
        "only through the sanctioned _PARENT_STATE module global"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        module_functions = {
            stmt.name
            for stmt in module.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        nested_functions = {
            node.name
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name not in module_functions
        }
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr == "submit" and node.args:
                target = node.args[0]
                if isinstance(target, ast.Lambda):
                    yield self.finding(
                        module, target,
                        "lambda submitted to a pool cannot be pickled; "
                        "use a module-level function",
                    )
                elif isinstance(target, ast.Call) and resolve_dotted(
                    target.func, imports
                ) in ("functools.partial", "partial"):
                    yield self.finding(
                        module, target,
                        "functools.partial submitted to a pool may "
                        "capture unpicklable state; pass arguments "
                        "through submit() instead",
                    )
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    yield self.finding(
                        module, target,
                        "bound method submitted to a pool pickles the "
                        "whole instance; use a module-level function",
                    )
                elif isinstance(target, ast.Name) and \
                        target.id in nested_functions:
                    yield self.finding(
                        module, target,
                        f"nested function {target.id!r} submitted to a "
                        f"pool cannot be pickled by reference; move it "
                        f"to module level",
                    )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                docstring = ast.get_docstring(node)
                if docstring is None or not docstring.startswith("Worker:"):
                    continue
                for arg in (
                    node.args.args
                    + node.args.kwonlyargs
                    + node.args.posonlyargs
                ):
                    if arg.annotation is None:
                        continue
                    for _dotted, last in _annotation_names(arg.annotation):
                        if last in PARENT_STATE_TYPES:
                            yield self.finding(
                                module, arg,
                                f"worker function {node.name!r} takes a "
                                f"{last} parameter; parent state crosses "
                                f"only via fork inheritance "
                                f"(_PARENT_STATE), payloads stay "
                                f"plan/column-sized",
                            )
