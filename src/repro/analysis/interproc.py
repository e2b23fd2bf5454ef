"""Interprocedural effect summaries over the call graph.

Every function gets a summary in a join-semilattice:

* ``atoms`` -- the set of :class:`EffectAtom` sites transitively
  reachable from the function.  Kinds: ``clock`` (wall-clock reads),
  ``rng`` (unseeded randomness), ``env`` (environment reads), ``fs-read``
  / ``fs-write`` (filesystem), ``shm`` (mmap/memmap
  construction), ``process`` (process control), ``sleep``,
  ``global-write`` (module-global mutation), ``dynamic-call`` (a call
  the graph could not resolve) and ``external`` (a call into a library
  outside the sanctioned allowlist);
* ``mutated_params`` -- indices of its own parameters it (transitively)
  mutates in place;
* ``raise_sites`` -- the exception types that can escape it, tracked as
  concrete ``raise`` sites and filtered through every enclosing
  ``try``/``except`` on the way up the call chain.

Propagation is a monotone worklist fixpoint: recompute a function's
summary from its intrinsic effects plus its callees' summaries; when it
grows, requeue its callers.  Joins are set unions, the lattice is
finite (atoms are source sites), so recursion and mutual recursion
converge without special casing.

Soundness caveats (documented in DESIGN.md): only *explicit* ``raise``
statements are tracked (a ``TypeError`` thrown by the runtime is
invisible); locals derived from parameters by iteration or subscripting
are not aliased back to the parameter, so mutating ``rows[0]`` after
``rows = list(shards)`` escapes the mutation tracking; dynamic calls
degrade to an explicit ``dynamic-call`` atom rather than silently
assuming purity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.astutil import resolve_dotted
from repro.analysis.callgraph import (
    UNKNOWN,
    CallGraph,
    CallSite,
    FunctionInfo,
    _base_name,
    _fold_getattr,
    _unquote_annotation,
    is_transparent_handler,
)
from repro.analysis.registry import ProjectContext

__all__ = [
    "EffectAtom",
    "EffectSummary",
    "ProjectAnalysis",
    "RaiseSite",
    "analyze_project",
    "exception_matches",
]


# ----------------------------------------------------------------------
# Lattice elements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EffectAtom:
    """One concrete effect site, carried verbatim up the call graph."""

    kind: str  # clock|rng|env|fs-read|fs-write|shm|process|sleep|...
    detail: str
    function: str  # function id the site lives in
    path: str
    line: int


@dataclass(frozen=True)
class RaiseSite:
    """One explicit ``raise`` of a (resolved) exception type."""

    exception: str  # builtin name or project class id
    function: str
    path: str
    line: int

    @property
    def display(self) -> str:
        return self.exception.rsplit(".", 1)[-1].rsplit(":", 1)[-1]


@dataclass
class EffectSummary:
    """Join-semilattice element: everything a call can transitively do."""

    atoms: set[EffectAtom] = field(default_factory=set)
    mutated_params: set[int] = field(default_factory=set)
    #: Free-variable names mutated (resolved at the enclosing function).
    mutated_free: set[str] = field(default_factory=set)
    raise_sites: set[RaiseSite] = field(default_factory=set)

    def key(self) -> tuple[int, int, int, int]:
        return (
            len(self.atoms),
            len(self.mutated_params),
            len(self.mutated_free),
            len(self.raise_sites),
        )


# ----------------------------------------------------------------------
# External-call classification
# ----------------------------------------------------------------------
#: Wall-clock reads (timestamps, not durations).
_CLOCK_ORIGINS = frozenset({
    "time.time", "time.time_ns", "time.ctime", "time.localtime",
    "time.gmtime", "time.strftime", "datetime.datetime.now",
    "datetime.datetime.utcnow", "datetime.datetime.today",
    "datetime.date.today",
})

#: Unseeded randomness by fully qualified origin.
_RNG_ORIGINS = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.uniform", "random.gauss", "random.seed", "random.getrandbits",
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.randbelow",
})

#: Constructors that are deterministic only when given a seed argument.
_SEEDED_CTORS = frozenset({
    "random.Random", "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator",
})

_ENV_ORIGINS = frozenset({
    "os.environ", "os.environ.get", "os.environ.setdefault",
    "os.getenv", "os.environb", "os.environb.get",
})

_SHM_ORIGINS = frozenset({
    "mmap.mmap",
    "numpy.memmap",
})

_PROCESS_ORIGINS = frozenset({
    "os.kill", "os._exit", "os.abort", "os.fork", "os.execv", "os.system",
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "multiprocessing.Process", "concurrent.futures.ProcessPoolExecutor",
    "signal.signal", "signal.raise_signal",
})

_SLEEP_ORIGINS = frozenset({"time.sleep"})

_FS_WRITE_ORIGINS = frozenset({
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.rmdir",
    "os.makedirs", "os.mkdir", "os.truncate", "os.link", "os.symlink",
    "os.fsync", "os.ftruncate", "os.chmod", "os.utime",
    "shutil.rmtree", "shutil.copy", "shutil.copy2", "shutil.copyfile",
    "shutil.copytree", "shutil.move",
    "tempfile.mkdtemp", "tempfile.mkstemp",
    "tempfile.NamedTemporaryFile", "tempfile.TemporaryDirectory",
})

_FS_READ_ORIGINS = frozenset({
    "os.listdir", "os.scandir", "os.stat", "os.lstat", "os.fstat",
    "os.walk",
    "os.path.exists", "os.path.isfile", "os.path.isdir",
    "os.path.getsize", "os.path.getmtime", "shutil.disk_usage",
})

#: pathlib-style attribute names that touch the filesystem even when the
#: receiver type is unknown (distinctive enough to avoid false matches).
_FS_WRITE_ATTRS = frozenset({
    "write_text", "write_bytes", "unlink", "mkdir", "rmdir", "touch",
    "hardlink_to", "symlink_to", "rename", "replace",
})
_FS_READ_ATTRS = frozenset({
    "read_text", "read_bytes", "iterdir", "glob", "rglob",
})

#: Library prefixes whose calls are vetted as deterministic, in-memory
#: and side-effect free for the invariants this engine proves.  A call
#: into anything external *not* covered here becomes an ``external``
#: atom, which the worker/merge rules ban -- growing this list is an
#: explicit, reviewable act.
SANCTIONED_EXTERNAL_PREFIXES: tuple[str, ...] = (
    "builtins.",
    "numpy.", "np.", "scipy.",
    "math.", "statistics.", "cmath.",
    "itertools.", "functools.", "operator.", "collections.",
    "heapq.", "bisect.", "array.", "struct.", "types.",
    "zlib.", "hashlib.", "hmac.", "base64.", "binascii.",
    "json.", "pickle.", "marshal.", "csv.",
    "re.", "string.", "textwrap.", "difflib.", "unicodedata.", "ast.",
    "tempfile.gettempdir",
    "enum.", "dataclasses.", "typing.", "abc.", "copy.", "numbers.",
    "contextlib.", "warnings.", "traceback.", "inspect.getsource",
    "logging.",
    "errno.", "stat.", "posixpath.", "ntpath.", "os.path.join",
    "os.path.basename", "os.path.dirname", "os.path.splitext",
    "os.path.abspath", "os.path.normpath",
    "os.getpid", "os.cpu_count", "os.fspath",
    "time.monotonic", "time.monotonic_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.process_time", "time.thread_time",
    "resource.getrusage", "resource.getpagesize",
    "sys.intern", "sys.getsizeof", "sys.exit", "sys.audit",
    "sys.exc_info", "sys.stdout", "sys.stderr", "sys.settrace",
    "sys.getrecursionlimit", "sys.setrecursionlimit",
    "multiprocessing.get_context", "multiprocessing.get_start_method",
    "multiprocessing.current_process", "multiprocessing.cpu_count",
    "pathlib.Path", "pathlib.PurePath", "pathlib.PurePosixPath",
    "argparse.", "uuid.UUID", "weakref.", "threading.local",
    "platform.python_version",
)

#: Builtins that are *not* pure and need dedicated classification.
_SPECIAL_BUILTINS = frozenset({
    "builtins.open", "builtins.input", "builtins.print",
    "builtins.eval", "builtins.exec", "builtins.__import__",
    "builtins.setattr", "builtins.delattr", "builtins.breakpoint",
})

#: Builtin exception hierarchy (child -> immediate parent) for matching
#: raised types against ``except`` clauses.
BUILTIN_EXCEPTION_BASES: Mapping[str, str | None] = {
    "BaseException": None,
    "Exception": "BaseException",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "TimeoutError": "OSError",
    "ProcessLookupError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "UnicodeTranslateError": "UnicodeError",
    "Warning": "Exception",
}

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "update", "add", "discard", "setdefault", "popitem",
    "appendleft", "extendleft", "popleft", "__setitem__", "__delitem__",
})


def exception_matches(
    raised: str, handler: str, graph: CallGraph
) -> bool:
    """Whether an ``except handler`` clause catches ``raised``.

    Both sides are builtin names or project class ids; the raised type's
    ancestry is climbed through project bases into the builtin table.
    """
    current: str | None = raised
    seen: set[str] = set()
    while current is not None and current not in seen:
        seen.add(current)
        if current == handler:
            return True
        # Builtin handler names also match a project class whose chain
        # passes through them (e.g. ``except RuntimeError`` catching
        # ``ShardRecoveryError``).
        if ":" in current:
            current = graph.exception_bases(current)
        else:
            current = BUILTIN_EXCEPTION_BASES.get(current)
    return False


# ----------------------------------------------------------------------
# Intrinsic effect extraction
# ----------------------------------------------------------------------
class _IntrinsicScanner:
    """Extracts a function's own effects (no callee contributions)."""

    def __init__(self, graph: CallGraph, function: FunctionInfo) -> None:
        self.graph = graph
        self.function = function
        self.imports = graph.imports[function.module.relpath]
        self.globals = graph.module_globals[function.module.relpath]
        self.summary = EffectSummary()
        self._declared_globals = self._declared_global_names()

    def _declared_global_names(self) -> frozenset[str]:
        out: set[str] = set()
        for node in ast.walk(self.function.node):
            if isinstance(node, ast.Global):
                out.update(node.names)
        return frozenset(out)

    def _atom(self, kind: str, detail: str, line: int) -> None:
        self.summary.atoms.add(
            EffectAtom(
                kind=kind,
                detail=detail,
                function=self.function.id,
                path=str(self.function.module.path),
                line=line,
            )
        )

    def _classify_name(self, name: str) -> str | None:
        """global | param | free | local for a base name."""
        function = self.function
        if name in function.params:
            return "param"
        if name in self._declared_globals:
            return "global"
        if name in function.local_names:
            return "local"
        if name in function.enclosing_locals:
            return "free"
        if name in self.globals or name in self.graph.module_symbols[
            function.module.relpath
        ]:
            return "global"
        if name in self.imports:
            return "global"  # imported module/object
        return None

    def _record_mutation(self, base: str, line: int, what: str) -> None:
        kind = self._classify_name(base)
        if kind == "param":
            index = self.function.param_index(base)
            if index is not None:
                self.summary.mutated_params.add(index)
        elif kind == "global":
            self._atom("global-write", f"{what} of module global {base!r}",
                       line)
        elif kind == "free":
            self.summary.mutated_free.add(base)

    def scan(self) -> EffectSummary:
        self._scan_body(self.function.node.body)
        self._scan_call_sites()
        return self.summary

    # -- statement-level effects --------------------------------------
    def _scan_body(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._scan_stmt(stmt, guards=())

    def _scan_stmt(
        self, stmt: ast.stmt, guards: tuple[frozenset[str], ...]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are separate nodes
        if isinstance(stmt, ast.Try):
            # Transparent handlers (cleanup-rethrow: ``except X: ...;
            # raise``) do not swallow the exception, so they neither
            # guard the try body nor widen the raise surface to X.
            handler_types = frozenset(
                name
                for handler in stmt.handlers
                if not is_transparent_handler(handler)
                for name in self._handler_names(handler)
            )
            for inner in stmt.body:
                self._scan_stmt(inner, (handler_types, *guards))
            for handler in stmt.handlers:
                caught = self._handler_names(handler)
                transparent = is_transparent_handler(handler)
                for inner in handler.body:
                    self._scan_handler_stmt(
                        inner, guards, caught, handler.name, transparent
                    )
            for inner in stmt.orelse:
                self._scan_stmt(inner, guards)
            for inner in stmt.finalbody:
                self._scan_stmt(inner, guards)
            return
        self._scan_simple(stmt, guards, caught=frozenset())
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_stmt(child, guards)
            elif isinstance(child, (ast.ExceptHandler,)):
                for inner in child.body:
                    self._scan_stmt(inner, guards)

    def _scan_handler_stmt(
        self,
        stmt: ast.stmt,
        guards: tuple[frozenset[str], ...],
        caught: frozenset[str],
        capture: str | None = None,
        transparent: bool = False,
    ) -> None:
        if isinstance(stmt, ast.Try):
            self._scan_stmt(stmt, guards)
            return
        self._scan_simple(stmt, guards, caught, capture, transparent)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan_handler_stmt(
                    child, guards, caught, capture, transparent
                )

    def _scan_simple(
        self,
        stmt: ast.stmt,
        guards: tuple[frozenset[str], ...],
        caught: frozenset[str],
        capture: str | None = None,
        transparent: bool = False,
    ) -> None:
        if isinstance(stmt, ast.Raise):
            self._scan_raise(stmt, guards, caught, capture, transparent)
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                self._scan_store_target(target, stmt.lineno)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    base = _base_name(target)
                    if base is not None:
                        self._record_mutation(
                            base, stmt.lineno, "deletion"
                        )

    def _scan_store_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_store_target(element, line)
            return
        if isinstance(target, ast.Name):
            if target.id in self._declared_globals:
                self._atom(
                    "global-write",
                    f"assignment to module global {target.id!r}",
                    line,
                )
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = _base_name(target)
            if base is not None:
                what = (
                    "item assignment"
                    if isinstance(target, ast.Subscript)
                    else "attribute assignment"
                )
                self._record_mutation(base, line, what)

    def _handler_names(self, handler: ast.ExceptHandler) -> frozenset[str]:
        if handler.type is None:
            return frozenset({"BaseException"})
        exprs = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        out: set[str] = set()
        for expr in exprs:
            name = self._exception_name(expr)
            if name is not None:
                out.add(name)
        return frozenset(out)

    def _exception_name(self, expr: ast.expr) -> str | None:
        origin = resolve_dotted(expr, self.imports)
        if origin is None:
            return None
        symbols = self.graph.module_symbols[self.function.module.relpath]
        local = symbols.get(origin)
        if local in self.graph.classes:
            return local
        resolved = self.graph.resolve_symbol(origin)
        if resolved in self.graph.classes:
            return resolved
        return origin.split(".")[-1]

    def _annotated_exception_type(self, name: str) -> str | None:
        """Exception class a parameter named ``name`` is annotated with."""
        arguments = self.function.node.args
        for arg in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs
        ):
            if arg.arg != name or arg.annotation is None:
                continue
            annotation = _unquote_annotation(arg.annotation)
            resolved = self._exception_name(annotation)
            if resolved is None:
                return None
            base = self.graph.exception_bases(resolved)
            if base is not None or resolved in BUILTIN_EXCEPTION_BASES:
                return resolved
            return None
        return None

    def _scan_raise(
        self,
        stmt: ast.Raise,
        guards: tuple[frozenset[str], ...],
        caught: frozenset[str],
        capture: str | None = None,
        transparent: bool = False,
    ) -> None:
        names: set[str] = set()
        rethrows_capture = (
            isinstance(stmt.exc, ast.Name) and stmt.exc.id == capture
        )
        if stmt.exc is None or rethrows_capture:
            if transparent:
                # The guarded try body's raises already propagate past
                # this handler; emitting the handler's declared types
                # here would double-count (and widen) the surface.
                return
            names = set(caught)  # re-raise inside a handler
        else:
            exc = stmt.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name: str | None = None
            if isinstance(exc, ast.Name):
                # ``raise err`` where ``err`` is an annotated parameter
                # (e.g. a retry callback's ``exc: SlabCorruptionError``)
                # resolves to the annotation, not the variable name.
                name = self._annotated_exception_type(exc.id)
            if name is None:
                name = self._exception_name(exc)
            if name is not None:
                names = {name}
        for name in names:
            if self._caught_by(name, guards):
                continue
            self.summary.raise_sites.add(
                RaiseSite(
                    exception=name,
                    function=self.function.id,
                    path=str(self.function.module.path),
                    line=stmt.lineno,
                )
            )

    def _caught_by(
        self, name: str, guards: tuple[frozenset[str], ...]
    ) -> bool:
        return any(
            exception_matches(name, handler, self.graph)
            for level in guards
            for handler in level
        )

    # -- call-level effects -------------------------------------------
    def _scan_call_sites(self) -> None:
        for site in self.graph.call_sites.get(self.function.id, []):
            self._scan_site(site)

    def _scan_site(self, site: CallSite) -> None:
        call = site.node
        if site.targets == (UNKNOWN,):
            self._atom(
                "dynamic-call",
                f"call to statically unresolvable target "
                f"{ast.unparse(call.func)!r}",
                site.line,
            )
        for origin in site.externals:
            self._classify_external(origin, call, site.line)
        self._scan_receiver_mutation(site)

    def _scan_receiver_mutation(self, site: CallSite) -> None:
        func = _fold_getattr(site.node.func)
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _MUTATOR_METHODS:
            return
        if site.targets and site.targets != (UNKNOWN,):
            return  # resolved to package methods; their summaries apply
        base = _base_name(func.value)
        if base is not None:
            self._record_mutation(
                base, site.line, f".{func.attr}() call"
            )

    def _classify_external(
        self, origin: str, call: ast.Call, line: int
    ) -> None:
        if origin in _CLOCK_ORIGINS:
            self._atom("clock", origin, line)
            return
        if origin in _RNG_ORIGINS:
            self._atom("rng", origin, line)
            return
        if origin in _SEEDED_CTORS:
            if _no_seed_argument(call):
                self._atom("rng", f"{origin} without a seed", line)
            return
        if origin in _ENV_ORIGINS or origin.startswith("os.environ"):
            self._atom("env", origin, line)
            return
        if origin in _SHM_ORIGINS:
            self._atom("shm", origin, line)
            return
        if origin in _PROCESS_ORIGINS:
            self._atom("process", origin, line)
            return
        if origin in _SLEEP_ORIGINS:
            self._atom("sleep", origin, line)
            return
        if origin in _FS_WRITE_ORIGINS:
            self._atom("fs-write", origin, line)
            return
        if origin in _FS_READ_ORIGINS:
            self._atom("fs-read", origin, line)
            return
        if origin == "builtins.open":
            self._atom(_open_kind(call), "open()", line)
            return
        if origin in ("builtins.print", "builtins.input"):
            self._atom(
                "fs-write" if origin.endswith("print") else "env",
                origin.split(".")[-1] + "()", line,
            )
            return
        if origin in (
            "builtins.eval", "builtins.exec", "builtins.__import__",
            "builtins.breakpoint",
        ):
            self._atom("dynamic-call", origin, line)
            return
        if origin in ("builtins.setattr", "builtins.delattr"):
            if call.args:
                base = _base_name(call.args[0])
                if base is not None:
                    self._record_mutation(base, line, f"{origin}()")
            return
        if origin.startswith("<attr>."):
            attr = origin.split(".", 1)[1]
            if attr in _FS_WRITE_ATTRS:
                self._atom("fs-write", f".{attr}()", line)
            elif attr in _FS_READ_ATTRS:
                self._atom("fs-read", f".{attr}()", line)
            # Other unresolved attribute calls: receiver came from our
            # own code or a vetted library; mutator-method handling and
            # by-name fallback already applied.
            return
        if origin.startswith("builtins."):
            return  # remaining builtins are pure
        for prefix in SANCTIONED_EXTERNAL_PREFIXES:
            if origin == prefix.rstrip(".") or origin.startswith(prefix):
                return
        self._atom("external", origin, line)


def _no_seed_argument(call: ast.Call) -> bool:
    if call.args:
        return False
    return not any(
        keyword.arg in ("seed", "x") for keyword in call.keywords
    )


def _open_kind(call: ast.Call) -> str:
    mode = "r"
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        if isinstance(call.args[1].value, str):
            mode = call.args[1].value
    for keyword in call.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            if isinstance(keyword.value.value, str):
                mode = keyword.value.value
    return "fs-write" if any(c in mode for c in "wax+") else "fs-read"


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------
class ProjectAnalysis:
    """Call graph + converged effect summaries for one lint target."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.intrinsic: dict[str, EffectSummary] = {}
        self.summaries: dict[str, EffectSummary] = {}
        self._callers: dict[str, set[str]] = {}
        self._run_fixpoint()

    # -- public helpers -----------------------------------------------
    def summary(self, function_id: str) -> EffectSummary:
        return self.summaries.get(function_id, EffectSummary())

    def function_exists(self, function_id: str) -> bool:
        return function_id in self.graph.functions

    def reachable_from(self, root: str) -> dict[str, str | None]:
        """BFS parent map (function -> caller) for witness chains."""
        parents: dict[str, str | None] = {root: None}
        queue = [root]
        while queue:
            current = queue.pop(0)
            for callee in sorted(self.graph.edges.get(current, ())):
                if callee == UNKNOWN or callee in parents:
                    continue
                if callee not in self.graph.functions:
                    continue
                parents[callee] = current
                queue.append(callee)
        return parents

    def witness_chain(
        self, parents: Mapping[str, str | None], target: str
    ) -> list[str]:
        """Root-to-target call chain reconstructed from a parent map."""
        chain: list[str] = []
        current: str | None = target
        while current is not None:
            chain.append(current)
            current = parents.get(current)
        chain.reverse()
        return chain

    def display_name(self, function_id: str) -> str:
        info = self.graph.functions.get(function_id)
        if info is None:
            return function_id
        return info.qualname

    def render_chain(
        self, parents: Mapping[str, str | None], target: str
    ) -> str:
        return " -> ".join(
            self.display_name(f)
            for f in self.witness_chain(parents, target)
        )

    # -- the fixpoint --------------------------------------------------
    def _run_fixpoint(self) -> None:
        graph = self.graph
        for function in graph.functions.values():
            self.intrinsic[function.id] = _IntrinsicScanner(
                graph, function
            ).scan()
        self._add_nested_edges()
        for caller, callees in graph.edges.items():
            for callee in callees:
                if callee != UNKNOWN:
                    self._callers.setdefault(callee, set()).add(caller)
        for fid in graph.functions:
            self.summaries[fid] = EffectSummary(
                atoms=set(self.intrinsic[fid].atoms),
                mutated_params=set(self.intrinsic[fid].mutated_params),
                mutated_free=set(self.intrinsic[fid].mutated_free),
                raise_sites=set(self.intrinsic[fid].raise_sites),
            )
        worklist = list(graph.functions)
        queued = set(worklist)
        while worklist:
            fid = worklist.pop()
            queued.discard(fid)
            if self._recompute(fid):
                for caller in self._callers.get(fid, ()):
                    if caller not in queued:
                        queued.add(caller)
                        worklist.append(caller)

    def _add_nested_edges(self) -> None:
        """Defining a nested function implies it may run: add an edge
        from the parent so closures contribute conservatively."""
        graph = self.graph
        for fid, info in graph.functions.items():
            marker = ".<locals>."
            if marker not in info.qualname:
                continue
            parent_qual = info.qualname.rsplit(marker, 1)[0]
            parent_id = f"{info.module.relpath}:{parent_qual}"
            if parent_id in graph.functions:
                graph.edges.setdefault(parent_id, set()).add(fid)
                graph.call_sites.setdefault(parent_id, []).append(
                    CallSite(
                        caller=parent_id,
                        targets=(fid,),
                        externals=(),
                        node=ast.Call(
                            func=ast.Name(id=info.node.name, ctx=ast.Load()),
                            args=[],
                            keywords=[],
                        ),
                        line=info.node.lineno,
                        bindings=(),
                        guards=(),
                    )
                )

    def _recompute(self, fid: str) -> bool:
        function = self.graph.functions[fid]
        base = self.intrinsic[fid]
        derived = EffectSummary(
            atoms=set(base.atoms),
            mutated_params=set(base.mutated_params),
            mutated_free=set(base.mutated_free),
            raise_sites=set(base.raise_sites),
        )
        for site in self.graph.call_sites.get(fid, []):
            for target in site.targets:
                if target == UNKNOWN:
                    continue
                callee_summary = self.summaries.get(target)
                if callee_summary is None:
                    continue
                derived.atoms |= callee_summary.atoms
                self._propagate_mutations(
                    function, site, target, callee_summary, derived
                )
                for raise_site in callee_summary.raise_sites:
                    if not self._site_catches(site, raise_site.exception):
                        derived.raise_sites.add(raise_site)
        changed = (
            derived.atoms != self.summaries[fid].atoms
            or derived.mutated_params != self.summaries[fid].mutated_params
            or derived.mutated_free != self.summaries[fid].mutated_free
            or derived.raise_sites != self.summaries[fid].raise_sites
        )
        if changed:
            self.summaries[fid] = derived
        return changed

    def _propagate_mutations(
        self,
        function: FunctionInfo,
        site: CallSite,
        target: str,
        callee_summary: EffectSummary,
        derived: EffectSummary,
    ) -> None:
        bindings = dict(site.bindings)
        mutated_names: set[str] = set()
        for index in callee_summary.mutated_params:
            name = bindings.get(index)
            if name is not None:
                mutated_names.add(name)
        # Nested functions mutating enclosing names surface by name.
        mutated_names |= callee_summary.mutated_free
        for name in mutated_names:
            index = function.param_index(name)
            if index is not None:
                derived.mutated_params.add(index)
                continue
            if name in function.local_names:
                continue
            if name in function.enclosing_locals:
                derived.mutated_free.add(name)
                continue
            module_globals = self.graph.module_globals[
                function.module.relpath
            ]
            if name in module_globals:
                derived.atoms.add(
                    EffectAtom(
                        kind="global-write",
                        detail=(
                            f"call mutates module global {name!r} "
                            f"(via {self.display_name(target)})"
                        ),
                        function=function.id,
                        path=str(function.module.path),
                        line=site.line,
                    )
                )

    def _site_catches(self, site: CallSite, exception: str) -> bool:
        return any(
            exception_matches(exception, handler, self.graph)
            for level in site.guards
            for handler in level
        )


def analyze_project(project: ProjectContext) -> ProjectAnalysis:
    """Build (or fetch the cached) analysis for a lint target."""
    from repro.analysis.callgraph import build_call_graph

    cached = project.cache.get("interproc")
    if isinstance(cached, ProjectAnalysis):
        return cached
    analysis = ProjectAnalysis(build_call_graph(project))
    project.cache["interproc"] = analysis
    return analysis
