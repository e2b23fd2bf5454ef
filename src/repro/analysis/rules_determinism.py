"""Determinism rules.

The repo's headline guarantee is that discovery output is a pure
function of (input graph, config, seed): parallel sharded runs are
byte-identical to sequential ones (``tests/test_parallel.py``) and
fault-recovered runs reproduce clean runs exactly
(``tests/test_recovery.py``).  Each rule here bans one way that
guarantee silently dies:

* ``wall-clock`` -- wall-clock reads outside the timing utility leak
  the current time into results;
* ``unseeded-rng`` -- an unseeded or process-global RNG decorrelates
  reruns and workers from the master seed;
* ``unsorted-iteration`` -- set iteration order depends on the
  per-process string hash seed (``PYTHONHASHSEED``), so materializing a
  ``set``/``frozenset`` into anything ordered (a ``list``/``tuple`` call,
  ``str.join``, ``enumerate`` or a list comprehension) without
  ``sorted()`` produces run-dependent output;
* ``id-keyed-dict`` -- ``id()`` values differ between processes and
  runs, so keying on them breaks replay and cross-worker merging;
* ``env-read`` -- environment reads outside the two sanctioned modules
  (``core/config.py``, ``core/faults.py``) create config surface the
  seeded-replay machinery cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import (
    build_import_table,
    build_parent_map,
    resolve_dotted,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import FileRule, ModuleContext, register

#: Wall-clock reads (monotonic/perf counters stay legal: they measure
#: durations and cannot leak absolute time into output).
WALL_CLOCK_ORIGINS = frozenset({
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Functions of the process-global ``random`` module RNG.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "betavariate", "expovariate", "getrandbits", "randbytes", "seed",
})

#: ``numpy.random`` attributes that are fine to touch; everything else on
#: that module is the unseeded legacy global generator.
NUMPY_RANDOM_SAFE = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "RandomState",
})

#: The dirs whose output feeds serialized schemas (issue scope).
OUTPUT_DIRS = ("core/", "lsh/", "schema/")


def _no_seed_argument(node: ast.Call) -> bool:
    """True when the call passes no seed (no args, or a lone ``None``)."""
    if node.keywords:
        return False
    if not node.args:
        return True
    return (
        len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value is None
    )


@register
class WallClockRule(FileRule):
    name = "wall-clock"
    description = (
        "time.time()/datetime.now()-style wall-clock reads are only "
        "allowed in util/timing.py"
    )
    rationale = (
        "wall-clock values leak the current time into results, so two "
        "runs of the same (graph, config, seed) stop being comparable; "
        "duration measurement goes through time.perf_counter/monotonic "
        "or repro.util.timing"
    )
    exempt = ("util/timing.py",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_dotted(node.func, imports)
            if origin in WALL_CLOCK_ORIGINS:
                yield self.finding(
                    module, node,
                    f"wall-clock read {origin}(); route timing through "
                    f"repro.util.timing (perf counters) instead",
                )


@register
class UnseededRngRule(FileRule):
    name = "unseeded-rng"
    description = (
        "every RNG must be constructed from an explicit seed; the "
        "process-global random/numpy.random generators are banned"
    )
    rationale = (
        "PGHiveConfig.seed is the single source of randomness; an "
        "unseeded or global RNG decorrelates workers and reruns from "
        "the master seed and breaks byte-identical parallel replay"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_dotted(node.func, imports)
            if origin is None:
                continue
            if origin == "random.Random" and _no_seed_argument(node):
                yield self.finding(
                    module, node,
                    "random.Random() without a seed; derive one from "
                    "PGHiveConfig.seed",
                )
            elif origin.startswith("random.") and \
                    origin.removeprefix("random.") in GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module, node,
                    f"{origin}() uses the process-global RNG; use a "
                    f"seeded random.Random instance",
                )
            elif origin in ("numpy.random.default_rng",
                            "numpy.random.RandomState") and \
                    _no_seed_argument(node):
                yield self.finding(
                    module, node,
                    f"{origin}() without a seed; pass a seed derived "
                    f"from PGHiveConfig.seed",
                )
            elif origin.startswith("numpy.random.") and \
                    origin.removeprefix("numpy.random.") \
                    not in NUMPY_RANDOM_SAFE:
                yield self.finding(
                    module, node,
                    f"{origin}() drives numpy's legacy global RNG; use "
                    f"numpy.random.default_rng(seed)",
                )


class _SetTracker:
    """Per-module registry of names statically bound to set values."""

    def __init__(self, tree: ast.Module, imports: dict[str, str]) -> None:
        self.imports = imports
        self.set_names: set[str] = set()
        for node in ast.walk(tree):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.target is not None:
                targets = [node.target]
                value = node.value
                if self._is_set_annotation(node.annotation):
                    self._remember(node.target)
            elif isinstance(node, ast.AugAssign):
                targets, value = [node.target], node.value
            if value is not None and self.is_setlike(value):
                for target in targets:
                    self._remember(target)

    def _remember(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)

    def _is_set_annotation(self, annotation: ast.expr) -> bool:
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        return resolve_dotted(base, self.imports) in (
            "set", "frozenset", "typing.Set", "typing.FrozenSet",
            "typing.AbstractSet",
        )

    def is_setlike(self, node: ast.expr) -> bool:
        """Whether an expression statically evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_setlike(node.left) or self.is_setlike(node.right)
        if isinstance(node, ast.Call):
            origin = resolve_dotted(node.func, self.imports)
            if origin in ("set", "frozenset"):
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference",
            ):
                return self.is_setlike(node.func.value) or any(
                    self.is_setlike(arg) for arg in node.args
                )
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "keys":
                # dict key views are insertion-ordered and deterministic
                # for deterministic insert sequences, but set-algebra on
                # them is not; treated as set-like only via the binops
                # above, never on their own.
                return False
        return False


@register
class UnsortedIterationRule(FileRule):
    name = "unsorted-iteration"
    description = (
        "materializing a set/frozenset into list/tuple/join/enumerate "
        "or a list comprehension without sorted() produces "
        "hash-seed-dependent order"
    )
    rationale = (
        "set iteration order varies with PYTHONHASHSEED and across "
        "processes; any set that flows into serialized or merged output "
        "must pass through sorted() to keep parallel runs byte-identical "
        "to sequential ones (dict views are exempt: insertion order is "
        "deterministic when the inserts are)"
    )
    dirs = OUTPUT_DIRS

    _SINKS = ("list", "tuple", "enumerate")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_table(module.tree)
        tracker = _SetTracker(module.tree, imports)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ListComp):
                if tracker.is_setlike(node.generators[0].iter):
                    yield self.finding(
                        module, node,
                        "list comprehension over a set has "
                        "hash-seed-dependent order; iterate sorted() "
                        "instead",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_dotted(node.func, imports)
            if origin in self._SINKS and len(node.args) >= 1:
                if tracker.is_setlike(node.args[0]):
                    yield self.finding(
                        module, node,
                        f"{origin}() over a set has hash-seed-dependent "
                        f"order; wrap the argument in sorted()",
                    )
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "join" and node.args:
                arg = node.args[0]
                if tracker.is_setlike(arg) or (
                    isinstance(arg, ast.GeneratorExp)
                    and tracker.is_setlike(arg.generators[0].iter)
                ):
                    yield self.finding(
                        module, node,
                        "str.join over a set has hash-seed-dependent "
                        "order; wrap the iterable in sorted()",
                    )


@register
class IdKeyedDictRule(FileRule):
    name = "id-keyed-dict"
    description = "id() values must not be used as dict/set keys or indices"
    rationale = (
        "id() is an address: it differs between processes, reruns and "
        "even gc cycles, so id-keyed state cannot replay under the "
        "seeded determinism contract or merge across pool workers"
    )
    dirs = OUTPUT_DIRS

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                continue
            parent = parents.get(node)
            if isinstance(parent, ast.Subscript) and parent.slice is node:
                where = "as a subscript index"
            elif isinstance(parent, ast.Dict) and node in parent.keys:
                where = "as a dict key"
            elif isinstance(parent, ast.Set):
                where = "as a set element"
            elif isinstance(parent, ast.Call) and isinstance(
                parent.func, ast.Attribute
            ) and parent.func.attr in (
                "setdefault", "get", "pop", "add", "discard", "remove",
            ) and parent.args and parent.args[0] is node:
                where = f"as a .{parent.func.attr}() key"
            elif isinstance(parent, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
            ):
                where = "in a membership test"
            else:
                continue
            yield self.finding(
                module, node,
                f"id() used {where}; key on a stable identifier "
                f"(element id, name, index) instead",
            )


@register
class EnvReadRule(FileRule):
    name = "env-read"
    description = (
        "os.environ/os.getenv reads are only allowed in core/config.py "
        "and core/faults.py"
    )
    rationale = (
        "environment reads scattered through the tree create config "
        "surface that checkpoints, shard replay and the docs cannot "
        "see; all env input funnels through the two sanctioned modules"
    )
    exempt = ("core/config.py", "core/faults.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports = build_import_table(module.tree)
        parents = build_parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only look at the outermost link of an attribute chain so
            # `os.environ.get(...)` reports exactly once.
            if isinstance(parents.get(node), ast.Attribute):
                continue
            origin = resolve_dotted(node, imports)
            if origin is None:
                continue
            if origin == "os.getenv" or origin == "os.environb" or \
                    origin == "os.environ" or \
                    origin.startswith(("os.environ.", "os.environb.")):
                yield self.finding(
                    module, node,
                    f"{origin} read outside core/config.py and "
                    f"core/faults.py; plumb the value through PGHiveConfig",
                )
