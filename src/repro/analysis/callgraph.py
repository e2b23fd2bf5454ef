"""Module-aware call-graph construction over a linted package tree.

The graph's nodes are every function and method defined in the lint
target; edges are the statically resolvable call sites between them.
Resolution layers, from most to least precise:

* **imports** -- ``from repro.schema.merge import merge_schemas`` makes a
  bare ``merge_schemas(...)`` call resolve across modules (the import
  table of :mod:`repro.analysis.astutil` canonicalizes aliases);
* **class-scoped lookup** -- ``self.method()`` resolves through the
  enclosing class (including package base classes and any package
  subclass overriding the method, so virtual dispatch joins every
  implementation that could run); ``obj.method()`` resolves when
  ``obj``'s class is statically known from a parameter annotation, a
  dataclass field annotation, a local constructor call, or the return
  annotation of a package function.  Plain class attributes bound to
  functions (``impl = _kernel``) resolve like methods;
* **higher-order binding** -- a parameter that is only ever passed
  known package functions (``self._run_pool(_discover_plan_chunk, ...)``)
  resolves calls through that parameter to the union of everything ever
  passed;
* **by-name fallback** -- an attribute call whose receiver type is
  unknown joins every package method of that name (conservative
  over-approximation); a receiver-less match set of zero means the call
  is external and is classified against the effect tables instead;
* **unknown call** -- anything still unresolved (calling the result of
  a call, a subscript, or a parameter nothing was ever bound to)
  becomes an edge to the conservative *unknown* node, which the
  interprocedural rules treat as "cannot prove".

``getattr(obj, "literal")`` folds to ``obj.literal`` before resolution,
so the disk-backend capability probe in ``core/parallel.py`` stays
statically visible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.astutil import build_import_table, resolve_dotted
from repro.analysis.registry import ModuleContext, ProjectContext

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LAMBDA",
    "UNKNOWN",
    "build_call_graph",
]

#: The conservative sink every unresolvable dynamic call points at.
UNKNOWN = "<unknown>"

#: Sentinel target for a parameter bound to a lambda argument: the
#: lambda body is scanned inline at the *passing* call site (its calls
#: are attributed to the caller), so invoking the parameter contributes
#: no further effects.
LAMBDA = "<lambda>"

_FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef

#: Names every Python process can call without importing anything.
_BUILTIN_NAMES = frozenset(dir(__builtins__)) | frozenset(
    dir(__import__("builtins"))
)


@dataclass
class FunctionInfo:
    """One function or method definition (a call-graph node)."""

    id: str  # "<relpath>:<qualname>"
    qualname: str
    module: ModuleContext
    node: _FunctionDef
    class_id: str | None = None
    params: tuple[str, ...] = ()
    #: Names bound locally (params, assignments, loop/with/except targets).
    local_names: frozenset[str] = frozenset()
    #: Locals of lexically enclosing functions (closure lookups).
    enclosing_locals: frozenset[str] = frozenset()

    def param_index(self, name: str) -> int | None:
        try:
            return self.params.index(name)
        except ValueError:
            return None


@dataclass
class ClassInfo:
    """One class definition, indexed for class-scoped method lookup."""

    id: str  # "<relpath>:<qualname>"
    name: str
    module: ModuleContext
    node: ast.ClassDef
    #: Base expressions, unresolved (resolved lazily against the index).
    base_exprs: tuple[ast.expr, ...] = ()
    #: method name -> function id (defs and function-valued class attrs).
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> annotation expression (dataclass fields,
    #: class-body AnnAssign, and ``self.x: T`` inside methods).
    attr_annotations: dict[str, ast.expr] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: caller -> targets with argument bindings."""

    caller: str
    targets: tuple[str, ...]  # function ids, or (UNKNOWN,)
    #: Fully qualified dotted origins of external callees at this site.
    externals: tuple[str, ...]
    node: ast.Call
    line: int
    #: callee param index -> caller-scope base name of the argument.
    bindings: tuple[tuple[int, str], ...]
    #: Handler-type name sets of the enclosing ``try`` blocks, inner first.
    guards: tuple[frozenset[str], ...]


class CallGraph:
    """The resolved call graph plus the symbol indices it was built from."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: relpath -> {top-level name -> function/class id}
        self.module_symbols: dict[str, dict[str, str]] = {}
        #: relpath -> import table (local alias -> dotted origin)
        self.imports: dict[str, dict[str, str]] = {}
        #: relpath -> module-level mutable-binding names
        self.module_globals: dict[str, frozenset[str]] = {}
        #: relpath -> {module-global name -> annotation expr} (from
        #: module-level AnnAssign, so ``state = _PARENT_STATE`` types).
        self.module_annotations: dict[str, dict[str, ast.expr]] = {}
        #: relpath -> {module-global name -> dict-literal expr} for
        #: dispatch-table resolution (``_GENERATORS[kind](...)``).
        self.module_dict_literals: dict[str, dict[str, ast.Dict]] = {}
        self.call_sites: dict[str, list[CallSite]] = {}
        #: (function id, param index) -> function ids ever passed there.
        self.param_bindings: dict[tuple[str, int], set[str]] = {}
        #: caller id -> callee ids (UNKNOWN included), for reachability.
        self.edges: dict[str, set[str]] = {}
        self._package = _package_name(project)
        self._subclasses: dict[str, set[str]] | None = None

    # -- symbol resolution --------------------------------------------
    def resolve_symbol(self, origin: str) -> str | None:
        """Project function/class id for a dotted origin, or ``None``.

        ``repro.schema.merge.merge_schemas`` resolves through the module
        table; a bare in-module name is resolved by the caller against
        its own module's symbols before getting here.
        """
        parts = origin.split(".")
        if parts[0] != self._package:
            return None
        for split in range(len(parts) - 1, 0, -1):
            stem = "/".join(parts[1:split])
            for relpath in (
                f"{stem}.py" if stem else "__init__.py",
                f"{stem}/__init__.py" if stem else "__init__.py",
            ):
                symbols = self.module_symbols.get(relpath)
                if symbols is None:
                    continue
                remainder = parts[split:]
                if len(remainder) == 1 and remainder[0] in symbols:
                    return symbols[remainder[0]]
                if len(remainder) == 2:
                    # Class attribute / method referenced module-first.
                    owner = symbols.get(remainder[0])
                    if owner in self.classes:
                        method = self.classes[owner].methods.get(
                            remainder[1]
                        )
                        if method is not None:
                            return method
        return None

    def subclasses_of(self, class_id: str) -> set[str]:
        """Transitive package subclasses, for virtual-dispatch joins."""
        if self._subclasses is None:
            table: dict[str, set[str]] = {}
            for info in self.classes.values():
                for base in self._resolved_bases(info):
                    table.setdefault(base, set()).add(info.id)
            closed: dict[str, set[str]] = {}

            def close(root: str, seen: set[str]) -> set[str]:
                out: set[str] = set()
                for child in table.get(root, ()):  # direct subclasses
                    if child in seen:
                        continue
                    seen.add(child)
                    out.add(child)
                    out |= close(child, seen)
                return out

            for name in self.classes:
                closed[name] = close(name, {name})
            self._subclasses = closed
        return self._subclasses.get(class_id, set())

    def _resolved_bases(self, info: ClassInfo) -> list[str]:
        out: list[str] = []
        imports = self.imports[info.module.relpath]
        symbols = self.module_symbols[info.module.relpath]
        for expr in info.base_exprs:
            origin = resolve_dotted(expr, imports)
            if origin is None:
                continue
            local = symbols.get(origin)
            if local in self.classes:
                out.append(local)  # type: ignore[arg-type]
                continue
            resolved = self.resolve_symbol(origin)
            if resolved in self.classes:
                out.append(resolved)  # type: ignore[arg-type]
        return out

    def base_chain(self, class_id: str) -> list[str]:
        """The class plus its package ancestors, nearest first."""
        chain: list[str] = []
        queue = [class_id]
        while queue:
            current = queue.pop(0)
            if current in chain or current not in self.classes:
                continue
            chain.append(current)
            queue.extend(self._resolved_bases(self.classes[current]))
        return chain

    def lookup_method(self, class_id: str, name: str) -> set[str]:
        """Class-scoped lookup: MRO walk plus package-subclass overrides."""
        out: set[str] = set()
        for owner in self.base_chain(class_id):
            method = self.classes[owner].methods.get(name)
            if method is not None:
                out.add(method)
                break
        for sub in self.subclasses_of(class_id):
            method = self.classes[sub].methods.get(name)
            if method is not None:
                out.add(method)
        return out

    def methods_named(self, name: str) -> set[str]:
        """Every package method with this name (by-name fallback)."""
        out: set[str] = set()
        for info in self.classes.values():
            method = info.methods.get(name)
            if method is not None:
                out.add(method)
        return out

    def exception_bases(self, name: str) -> str | None:
        """Immediate base of a project exception class id, if resolvable."""
        info = self.classes.get(name)
        if info is None:
            return None
        bases = self._resolved_bases(info)
        if bases:
            return bases[0]
        imports = self.imports[info.module.relpath]
        for expr in info.base_exprs:
            origin = resolve_dotted(expr, imports)
            if origin is not None and "." not in origin:
                return origin  # builtin exception name
        return "Exception"


def _package_name(project: ProjectContext) -> str:
    for module in project.modules:
        rel_parts = len(module.relpath.split("/"))
        parts = module.path.resolve().parts
        if len(parts) > rel_parts:
            return parts[-rel_parts - 1]
    return "repro"


# ----------------------------------------------------------------------
# Indexing pass
# ----------------------------------------------------------------------
def build_call_graph(project: ProjectContext) -> CallGraph:
    """Index symbols, then resolve every call site in the project."""
    graph = CallGraph(project)
    for module in project.modules:
        _index_module(graph, module)
    for function in graph.functions.values():
        graph.call_sites[function.id] = []
        graph.edges.setdefault(function.id, set())
    for function in list(graph.functions.values()):
        _Resolver(graph, function).resolve()
    _bind_param_calls(graph)
    return graph


def _index_module(graph: CallGraph, module: ModuleContext) -> None:
    relpath = module.relpath
    graph.imports[relpath] = build_import_table(module.tree)
    symbols: dict[str, str] = {}
    graph.module_symbols[relpath] = symbols
    mutable: set[str] = set()
    annotations: dict[str, ast.expr] = {}
    dict_literals: dict[str, ast.Dict] = {}
    for stmt in module.tree.body:
        for target in _assign_targets(stmt):
            if isinstance(target, ast.Name):
                mutable.add(target.id)
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            annotations[stmt.target.id] = stmt.annotation
        if isinstance(stmt, ast.Assign) and isinstance(
            stmt.value, ast.Dict
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    dict_literals[target.id] = stmt.value
    graph.module_globals[relpath] = frozenset(mutable)
    graph.module_annotations[relpath] = annotations
    graph.module_dict_literals[relpath] = dict_literals

    def index_function(
        node: _FunctionDef,
        qualprefix: str,
        class_id: str | None,
        enclosing: frozenset[str],
    ) -> str:
        qualname = f"{qualprefix}{node.name}"
        fid = f"{relpath}:{qualname}"
        params = tuple(
            arg.arg
            for arg in (
                node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            )
        )
        locals_ = _local_names(node)
        info = FunctionInfo(
            id=fid,
            qualname=qualname,
            module=module,
            node=node,
            class_id=class_id,
            params=params,
            local_names=frozenset(locals_),
            enclosing_locals=enclosing,
        )
        graph.functions[fid] = info
        inner_enclosing = enclosing | info.local_names | set(params)
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _direct_parent_function(node, child):
                    index_function(
                        child,
                        f"{qualname}.<locals>.",
                        None,
                        frozenset(inner_enclosing),
                    )
        return fid

    def index_class(node: ast.ClassDef, qualprefix: str) -> str:
        qualname = f"{qualprefix}{node.name}"
        cid = f"{relpath}:{qualname}"
        info = ClassInfo(
            id=cid,
            name=node.name,
            module=module,
            node=node,
            base_exprs=tuple(node.bases),
        )
        graph.classes[cid] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fid = index_function(
                    child, f"{qualname}.", cid, frozenset()
                )
                info.methods[child.name] = fid
            elif isinstance(child, ast.AnnAssign) and isinstance(
                child.target, ast.Name
            ):
                info.attr_annotations[child.target.id] = child.annotation
            elif isinstance(child, ast.Assign):
                # Class attribute bound to a function: resolves like a
                # method (``impl = _kernel``).
                value = child.value
                if isinstance(value, ast.Name):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            info.methods.setdefault(
                                target.id, f"{relpath}:{value.id}"
                            )
        # ``self.x: T = ...`` in methods annotates the attribute too.
        for child in ast.walk(node):
            if (
                isinstance(child, ast.AnnAssign)
                and isinstance(child.target, ast.Attribute)
                and isinstance(child.target.value, ast.Name)
                and child.target.value.id == "self"
            ):
                info.attr_annotations.setdefault(
                    child.target.attr, child.annotation
                )
        return cid

    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols[stmt.name] = index_function(
                stmt, "", None, frozenset()
            )
        elif isinstance(stmt, ast.ClassDef):
            symbols[stmt.name] = index_class(stmt, "")


def _direct_parent_function(parent: _FunctionDef, child: _FunctionDef) -> bool:
    """Whether ``child`` is nested directly in ``parent`` (no def between)."""
    for node in ast.walk(parent):
        if node is parent or not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        if node is child:
            continue
        for grand in ast.walk(node):
            if grand is child:
                return False
    return True


def _assign_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        yield from stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        yield stmt.target


def _local_names(node: _FunctionDef) -> set[str]:
    """Names bound inside a function body (excluding nested defs)."""
    out: set[str] = set()

    def visit(item: ast.AST) -> None:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(item.name)
            return  # nested scope
        if isinstance(item, ast.Lambda):
            return
        if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Store):
            out.add(item.id)
        elif isinstance(item, (ast.Import, ast.ImportFrom)):
            for alias in item.names:
                out.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(item, ast.ExceptHandler) and item.name:
            out.add(item.name)
        elif isinstance(item, (ast.Global, ast.Nonlocal)):
            out.difference_update(item.names)
            return
        for child in ast.iter_child_nodes(item):
            visit(child)

    for stmt in node.body:
        visit(stmt)
    return out


# ----------------------------------------------------------------------
# Per-function call-site resolution
# ----------------------------------------------------------------------
class _Resolver:
    """Resolves every call inside one function body."""

    def __init__(self, graph: CallGraph, function: FunctionInfo) -> None:
        self.graph = graph
        self.function = function
        self.module = function.module
        self.imports = graph.imports[self.module.relpath]
        self.symbols = graph.module_symbols[self.module.relpath]
        #: local name -> package class ids (flow-insensitive).
        self.local_types: dict[str, set[str]] = {}
        #: local name -> annotation expr (container value extraction).
        self.local_annotations: dict[str, ast.expr] = {}
        #: local name -> callable function ids (aliases, getattr folds).
        self.local_callables: dict[str, set[str]] = {}
        #: local name -> attribute names it aliases when the receiver is
        #: not a package object (``get_labels = endpoint_labels.get``):
        #: calling the alias classifies like calling the attribute.
        self.local_external_attrs: dict[str, set[str]] = {}
        self._seed_type_env()

    # -- type environment ---------------------------------------------
    def _seed_type_env(self) -> None:
        node = self.function.node
        args = (
            node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
        for arg in args:
            if arg.annotation is not None:
                self.local_annotations[arg.arg] = arg.annotation
                classes = self.annotation_classes(arg.annotation)
                if classes:
                    self.local_types[arg.arg] = classes
        if self.function.class_id is not None and args:
            first = args[0].arg
            if first in ("self", "cls"):
                self.local_types[first] = {self.function.class_id}
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.local_annotations[stmt.target.id] = stmt.annotation
                classes = self.annotation_classes(stmt.annotation)
                if classes:
                    self.local_types[stmt.target.id] = classes
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._bind_local(target.id, stmt.value)
                elif isinstance(target, ast.Tuple) and isinstance(
                    stmt.value, ast.Tuple
                ) and len(target.elts) == len(stmt.value.elts):
                    # ``source, config = state.source, state.config``
                    for element, value in zip(
                        target.elts, stmt.value.elts
                    ):
                        if isinstance(element, ast.Name):
                            self._bind_local(element.id, value)

    def _bind_local(self, name: str, raw_value: ast.expr) -> None:
        value = _fold_getattr(raw_value)
        callables = self._callable_targets(value)
        if callables:
            self.local_callables.setdefault(name, set()).update(callables)
        else:
            dispatched = self._dispatch_table_callables(value)
            if dispatched:
                self.local_callables.setdefault(name, set()).update(
                    dispatched
                )
            elif isinstance(value, ast.Attribute):
                # Attribute of a non-package receiver: remember the
                # attribute name so a later call classifies like the
                # direct attribute call would.
                if not self.infer_types(value.value):
                    self.local_external_attrs.setdefault(
                        name, set()
                    ).add(value.attr)
        classes = self.infer_types(value, _depth=0)
        if classes:
            self.local_types.setdefault(name, set()).update(classes)

    def _dispatch_table_callables(self, value: ast.expr) -> set[str]:
        """Resolve ``TABLE[key]`` / ``TABLE.get(key)`` / ``{...}.get(key)``
        lookups against a dict literal of known functions."""
        table: ast.expr | None = None
        if isinstance(value, ast.Subscript):
            table = value.value
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
        ):
            table = value.func.value
        if table is None:
            return set()
        if isinstance(table, ast.Dict):
            return self._dict_values_functions(table)
        if isinstance(table, ast.Name):
            return self._dict_literal_functions(table.id)
        return set()

    def _dict_literal_functions(self, table: str) -> set[str]:
        literal = self.graph.module_dict_literals[
            self.module.relpath
        ].get(table)
        if literal is None:
            return set()
        return self._dict_values_functions(literal)

    def _dict_values_functions(self, literal: ast.Dict) -> set[str]:
        out: set[str] = set()
        for entry in literal.values:
            resolved = self._callable_targets(_fold_getattr(entry))
            if not resolved:
                return set()  # a value we cannot place: stay dynamic
            out |= resolved
        return out

    def annotation_classes(self, expr: ast.expr) -> set[str]:
        """Package classes an annotation expression can denote."""
        expr = _unquote_annotation(expr)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            return self.annotation_classes(expr.left) | \
                self.annotation_classes(expr.right)
        if isinstance(expr, ast.Subscript):
            base = resolve_dotted(expr.value, self.imports)
            if base in ("typing.Optional", "Optional"):
                return self.annotation_classes(expr.slice)
            if base in ("typing.Union", "Union"):
                inner = expr.slice
                if isinstance(inner, ast.Tuple):
                    out: set[str] = set()
                    for element in inner.elts:
                        out |= self.annotation_classes(element)
                    return out
                return self.annotation_classes(inner)
            return set()  # containers / generics: receiver is not a class
        if isinstance(expr, ast.Constant) and expr.value is None:
            return set()
        origin = resolve_dotted(expr, self.imports)
        if origin is None:
            return set()
        return self._classes_for_origin(origin)

    def _classes_for_origin(self, origin: str) -> set[str]:
        local = self.symbols.get(origin)
        if local in self.graph.classes:
            return {local}  # type: ignore[misc]
        resolved = self.graph.resolve_symbol(origin)
        if resolved in self.graph.classes:
            return {resolved}  # type: ignore[misc]
        return set()

    def _annotation_value_classes(self, expr: ast.expr) -> set[str]:
        """Element/value classes of a container annotation (dict/list/...)."""
        expr = _unquote_annotation(expr)
        if isinstance(expr, ast.Subscript):
            inner = expr.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return self.annotation_classes(inner.elts[-1])
            return self.annotation_classes(inner)
        return set()

    def infer_types(self, expr: ast.expr, _depth: int = 0) -> set[str]:
        """Package classes ``expr`` may evaluate to (best effort)."""
        if _depth > 6:
            return set()
        expr = _fold_getattr(expr)
        if isinstance(expr, ast.Name):
            if expr.id in self.local_types:
                return set(self.local_types[expr.id])
            if expr.id not in self.function.local_names:
                annotation = self.graph.module_annotations[
                    self.module.relpath
                ].get(expr.id)
                if annotation is not None:
                    return self.annotation_classes(annotation)
            return set()
        if isinstance(expr, ast.Attribute):
            base_types = self.infer_types(expr.value, _depth + 1)
            out: set[str] = set()
            for class_id in base_types:
                for owner in self.graph.base_chain(class_id):
                    annotation = self.graph.classes[
                        owner
                    ].attr_annotations.get(expr.attr)
                    if annotation is not None:
                        out |= self._annotation_in_module(
                            annotation, self.graph.classes[owner].module
                        )
                        break
            if out:
                return out
            origin = resolve_dotted(expr, self.imports)
            if origin is not None:
                return self._classes_for_origin(origin)
            return set()
        if isinstance(expr, ast.Call):
            targets, _externals, _dynamic, _recv = self.call_targets(expr)
            out = set()
            for target in targets:
                if target in self.graph.classes:
                    out.add(target)
                    continue
                info = self.graph.functions.get(target)
                if info is not None and info.node.returns is not None:
                    out |= self._annotation_in_module(
                        info.node.returns, info.module
                    )
            return out
        if isinstance(expr, ast.Subscript):
            if isinstance(expr.value, ast.Name):
                annotation = self.local_annotations.get(expr.value.id)
                if annotation is not None:
                    return self._annotation_value_classes(annotation)
            return set()
        return set()

    def _annotation_in_module(
        self, annotation: ast.expr, module: ModuleContext
    ) -> set[str]:
        """Evaluate an annotation in the context of its defining module."""
        saved_imports, saved_symbols = self.imports, self.symbols
        self.imports = self.graph.imports[module.relpath]
        self.symbols = self.graph.module_symbols[module.relpath]
        try:
            return self.annotation_classes(annotation)
        finally:
            self.imports, self.symbols = saved_imports, saved_symbols

    def _callable_targets(self, expr: ast.expr) -> set[str]:
        """Function ids a non-call expression denotes (aliasing)."""
        if isinstance(expr, ast.Name):
            if expr.id in self.local_callables:
                return set(self.local_callables[expr.id])
            local = self.symbols.get(expr.id)
            if local in self.graph.functions:
                return {local}  # type: ignore[misc]
            origin = self.imports.get(expr.id)
            if origin is not None:
                resolved = self.graph.resolve_symbol(origin)
                if resolved in self.graph.functions:
                    return {resolved}  # type: ignore[misc]
            return set()
        if isinstance(expr, ast.Attribute):
            receiver_types = self.infer_types(expr.value)
            out: set[str] = set()
            for class_id in receiver_types:
                out |= self.graph.lookup_method(class_id, expr.attr)
            if out:
                return out
            origin = resolve_dotted(expr, self.imports)
            if origin is not None:
                resolved = self.graph.resolve_symbol(origin)
                if resolved in self.graph.functions:
                    return {resolved}  # type: ignore[misc]
            return set()
        return set()

    # -- call resolution ----------------------------------------------
    def call_targets(
        self, call: ast.Call
    ) -> tuple[set[str], set[str], bool, ast.expr | None]:
        """(project targets, external origins, is_dynamic, receiver)."""
        func = _fold_getattr(call.func)
        if isinstance(func, ast.Lambda):
            return set(), set(), False, None
        if isinstance(func, ast.Name):
            name = func.id
            callables = self.local_callables.get(name)
            if callables:
                return set(callables), set(), False, None
            aliased = self.local_external_attrs.get(name)
            if aliased:
                return (
                    set(),
                    {f"<attr>.{attr}" for attr in aliased},
                    False,
                    None,
                )
            if name == "cls" and self.function.class_id is not None:
                # ``cls(...)`` in a classmethod constructs the class (or
                # a package subclass: join their constructors).
                targets: set[str] = set()
                for class_id in (
                    {self.function.class_id}
                    | self.graph.subclasses_of(self.function.class_id)
                ):
                    ctor, _ext, _dyn, _recv = self._constructor_targets(
                        class_id
                    )
                    targets |= ctor
                return targets, set(), False, None
            index = self.function.param_index(name)
            if index is not None:
                bound = self.graph.param_bindings.get(
                    (self.function.id, index)
                )
                if bound:
                    return set(bound), set(), False, None
                # Deferred: a later binding pass may fill this in; the
                # placeholder edge keeps the site conservative.
                return set(), set(), True, None
            nested = self._nested_function(name)
            if nested is not None:
                return {nested}, set(), False, None
            local = self.symbols.get(name)
            if local is not None:
                if local in self.graph.functions:
                    return {local}, set(), False, None
                if local in self.graph.classes:
                    return self._constructor_targets(local)
            origin = self.imports.get(name)
            if origin is not None:
                resolved = self.graph.resolve_symbol(origin)
                if resolved in self.graph.functions:
                    return {resolved}, set(), False, None  # type: ignore[misc]
                if resolved in self.graph.classes:
                    return self._constructor_targets(resolved)  # type: ignore[arg-type]
                return set(), {origin}, False, None
            if name in self.function.local_names:
                # A local rebinding we could not trace to any callable:
                # degrade to the conservative unknown node.
                return set(), set(), True, None
            if name in _BUILTIN_NAMES:
                return set(), {f"builtins.{name}"}, False, None
            return set(), set(), True, None
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                # ``super().method()``: resolve in the package base
                # chain above the enclosing class; falling off the top
                # means an external base (object.__init__ &c.) -- pure.
                class_id = self.function.class_id
                if class_id is not None:
                    for owner in self.graph.base_chain(class_id)[1:]:
                        method = self.graph.classes[owner].methods.get(
                            func.attr
                        )
                        if method is not None:
                            return {method}, set(), False, None
                return set(), set(), False, None
            origin = resolve_dotted(func, self.imports)
            if origin is not None:
                head = origin.split(".")[0]
                headless = head in self.function.local_names or \
                    head in self.function.params
                if not headless:
                    resolved = self.graph.resolve_symbol(origin)
                    if resolved in self.graph.functions:
                        return {resolved}, set(), False, None  # type: ignore[misc]
                    if resolved in self.graph.classes:
                        return self._constructor_targets(resolved)  # type: ignore[arg-type]
                    local = self.symbols.get(head)
                    if local in self.graph.classes and "." in origin:
                        # ClassName.method(...) referenced directly.
                        methods = self.graph.lookup_method(
                            local, origin.split(".", 1)[1]  # type: ignore[arg-type]
                        )
                        if methods:
                            return methods, set(), False, func.value
                    if head in self.imports and head not in self.symbols:
                        return set(), {origin}, False, None
            receiver_types = self.infer_types(func.value)
            targets: set[str] = set()
            for class_id in receiver_types:
                targets |= self.graph.lookup_method(class_id, func.attr)
            if targets:
                return targets, set(), False, func.value
            if receiver_types:
                # Known package class without that method: inherited
                # from an external base (dataclass machinery etc.).
                return set(), set(), False, func.value
            if not (
                func.attr.startswith("__") and func.attr.endswith("__")
            ):
                # Unknown receiver: join every package method with this
                # name (dunders excluded -- joining every __init__ in
                # the package would drown the graph in false edges).
                fallback = self.graph.methods_named(func.attr)
                if fallback:
                    return fallback, set(), False, func.value
            return set(), {f"<attr>.{func.attr}"}, False, func.value
        if isinstance(func, ast.Subscript) and isinstance(
            func.value, ast.Name
        ):
            dispatched = self._dict_literal_functions(func.value.id)
            if dispatched:
                return dispatched, set(), False, None
        # Calling the result of a call/subscript: dynamic dispatch.
        return set(), set(), True, None

    def _nested_function(self, name: str) -> str | None:
        candidate = (
            f"{self.module.relpath}:"
            f"{self.function.qualname}.<locals>.{name}"
        )
        if candidate in self.graph.functions:
            return candidate
        return None

    def _constructor_targets(
        self, class_id: str
    ) -> tuple[set[str], set[str], bool, ast.expr | None]:
        init = self.graph.lookup_method(class_id, "__init__")
        new = self.graph.lookup_method(class_id, "__post_init__")
        targets = init | new
        if targets:
            return targets, set(), False, None
        return set(), set(), False, None

    # -- the walk ------------------------------------------------------
    def resolve(self) -> None:
        self._visit_body(self.function.node.body, ())

    def _visit_body(
        self, body: Sequence[ast.stmt], guards: tuple[frozenset[str], ...]
    ) -> None:
        for stmt in body:
            self._visit_stmt(stmt, guards)

    def _visit_stmt(
        self, stmt: ast.stmt, guards: tuple[frozenset[str], ...]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # separate node; implicit edge added by interproc
        if isinstance(stmt, ast.Try):
            handler_types = frozenset(
                name
                for handler in stmt.handlers
                if not is_transparent_handler(handler)
                for name in self._handler_type_names(handler)
            )
            self._visit_body(stmt.body, (handler_types, *guards))
            for handler in stmt.handlers:
                self._visit_body(handler.body, guards)
            self._visit_body(stmt.orelse, guards)
            self._visit_body(stmt.finalbody, guards)
            for handler in stmt.handlers:
                if handler.type is not None:
                    self._visit_expr(handler.type, guards)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._visit_expr(child, guards)
            elif isinstance(child, ast.stmt):
                self._visit_stmt(child, guards)
            elif isinstance(
                child,
                (
                    ast.comprehension, ast.keyword, ast.withitem,
                    ast.ExceptHandler, ast.arguments,
                ),
            ):
                for grand in ast.walk(child):
                    if isinstance(grand, ast.Call):
                        self._record_call(grand, guards)

    def _visit_expr(
        self, expr: ast.expr, guards: tuple[frozenset[str], ...]
    ) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, guards)

    def _handler_type_names(self, handler: ast.ExceptHandler) -> set[str]:
        if handler.type is None:
            return {"BaseException"}
        exprs = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        out: set[str] = set()
        for expr in exprs:
            origin = resolve_dotted(expr, self.imports)
            if origin is None:
                continue
            resolved = self.graph.resolve_symbol(origin)
            if resolved is None:
                resolved = self.symbols.get(origin)
            if resolved in self.graph.classes:
                out.add(resolved)  # type: ignore[arg-type]
            else:
                out.add(origin.split(".")[-1])
        return out

    def _record_call(
        self, call: ast.Call, guards: tuple[frozenset[str], ...]
    ) -> None:
        targets, externals, dynamic, receiver = self.call_targets(call)
        bindings = self._bindings(call, receiver, targets)
        self._register_passed_callables(call, targets)
        target_ids = tuple(sorted(targets)) if targets else (
            (UNKNOWN,) if dynamic else ()
        )
        site = CallSite(
            caller=self.function.id,
            targets=target_ids,
            externals=tuple(sorted(externals)),
            node=call,
            line=call.lineno,
            bindings=bindings,
            guards=guards,
        )
        self.graph.call_sites[self.function.id].append(site)
        for target in target_ids:
            self.graph.edges[self.function.id].add(target)

    def _bindings(
        self, call: ast.Call, receiver: ast.expr | None, targets: set[str]
    ) -> tuple[tuple[int, str], ...]:
        out: list[tuple[int, str]] = []
        offset = 0
        if receiver is not None:
            base = _base_name(receiver)
            if base is not None:
                out.append((0, base))
            offset = 1
        elif targets and all(
            target.endswith((".__init__", ".__post_init__"))
            for target in targets
        ):
            # ``Cls(a)``: the instance under construction is ``self``,
            # so the first argument binds to parameter 1.
            offset = 1
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            base = _base_name(arg)
            if base is not None:
                out.append((position + offset, base))
        return tuple(out)

    def _register_passed_callables(
        self, call: ast.Call, targets: set[str]
    ) -> None:
        """Record package functions passed as arguments (higher-order)."""
        for target in targets:
            info = self.graph.functions.get(target)
            if info is None:
                continue
            offset = 1 if info.class_id is not None and info.params[:1] in (
                ("self",), ("cls",)
            ) else 0
            for position, arg in enumerate(call.args):
                passed = self._passed_callable(arg)
                if not passed:
                    continue
                self.graph.param_bindings.setdefault(
                    (target, position + offset), set()
                ).update(passed)
            for keyword in call.keywords:
                if keyword.arg is None:
                    continue
                passed = self._passed_callable(keyword.value)
                if not passed:
                    continue
                index = info.param_index(keyword.arg)
                if index is not None:
                    self.graph.param_bindings.setdefault(
                        (target, index), set()
                    ).update(passed)

    def _passed_callable(self, arg: ast.expr) -> set[str]:
        if isinstance(arg, ast.Lambda):
            return {LAMBDA}
        return self._callable_targets(_fold_getattr(arg))


def _bind_param_calls(graph: CallGraph) -> None:
    """Second pass: re-resolve calls through parameters now that every
    higher-order binding has been observed."""
    for function in graph.functions.values():
        updated: list[CallSite] = []
        changed = False
        for site in graph.call_sites[function.id]:
            func = _fold_getattr(site.node.func)
            if (
                site.targets == (UNKNOWN,)
                and isinstance(func, ast.Name)
            ):
                index = function.param_index(func.id)
                if index is not None:
                    bound = graph.param_bindings.get((function.id, index))
                    if bound:
                        site = CallSite(
                            caller=site.caller,
                            targets=tuple(sorted(bound)),
                            externals=site.externals,
                            node=site.node,
                            line=site.line,
                            bindings=site.bindings,
                            guards=site.guards,
                        )
                        changed = True
            updated.append(site)
        if changed:
            graph.call_sites[function.id] = updated
            edges = graph.edges[function.id] = set()
            for site in updated:
                edges.update(site.targets)


# ----------------------------------------------------------------------
# Shared expression helpers
# ----------------------------------------------------------------------
def _fold_getattr(expr: ast.expr) -> ast.expr:
    """Fold ``getattr(x, "name"[, default])`` into ``x.name``."""
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "getattr"
        and len(expr.args) >= 2
        and isinstance(expr.args[1], ast.Constant)
        and isinstance(expr.args[1].value, str)
    ):
        return ast.copy_location(
            ast.Attribute(
                value=expr.args[0],
                attr=expr.args[1].value,
                ctx=ast.Load(),
            ),
            expr,
        )
    return expr


def is_transparent_handler(handler: ast.ExceptHandler) -> bool:
    """Whether an ``except`` clause re-raises what it caught.

    ``except BaseException: cleanup(); raise`` (and ``raise e`` of the
    capture name) does not swallow anything: for raise propagation it
    must not count as a guard, or the cleanup pattern would launder
    every exception into the handler's declared type.
    """
    for node in ast.walk(handler):
        if not isinstance(node, ast.Raise):
            continue
        if node.exc is None:
            return True
        if (
            handler.name is not None
            and isinstance(node.exc, ast.Name)
            and node.exc.id == handler.name
        ):
            return True
    return False


def _unquote_annotation(expr: ast.expr) -> ast.expr:
    """Parse a string annotation (``"_ShardJournal | None"``) to an expr."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            parsed = ast.parse(expr.value, mode="eval")
        except SyntaxError:
            return expr
        return parsed.body
    return expr


def _base_name(expr: ast.expr) -> str | None:
    """The root ``Name`` of an attribute/subscript chain, if any."""
    current = expr
    while isinstance(current, (ast.Attribute, ast.Subscript, ast.Starred)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None
