"""Workload definitions, pinned inputs and second-path references.

Everything here runs outside the timed regions of the benchmark:

* each workload's input graph is generated from ``repro.datasets`` with
  the workload seed, written once under ``.perfbench/inputs/`` and pinned
  by its node, edge and byte counts plus its SHA-256;
* every workload has a reference computed by a second code path (the
  in-process library, or a socket-free ``SchemaService``) that the timed
  program output must equal byte for byte;
* the serve workload's batch and validate bodies are encoded once and
  reused by every timed request.

``python3 perfbench/inputs.py reference <workload> <seed> [--smoke]``
prints the SHA-256 of a workload's reference; the traced run uses it to
count schema variants across ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Elements per admission-check request.
VALIDATE_ELEMENTS = 1000
#: Batches the serve workload splits its graph into; the last is held out.
SERVE_SPLIT = 17


def program_available() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "cli.py").is_file()


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` pinned for a workload seed."""
    return str(seed % 4294967296)


#: Variables every process of a run must share with the references.
PINNED_ENV = (
    "PYTHONHASHSEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def child_env(seed: int, hashseed: str | None = None) -> dict[str, str]:
    """Environment of every process the benchmark starts.

    The hash seed is pinned (schema bytes of noisy inputs depend on it),
    temp files stay inside the checkout, and bytecode is cached in a
    private prefix so start-up is measured warm without touching ``src/``.
    BLAS runs one thread per process: with two, a fixed numpy loop took
    30 ms in some runs and 200 ms in others on a 2-vCPU host.
    """
    env = dict(os.environ)
    for name in PINNED_ENV[1:]:
        env[name] = "1"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hashseed if hashseed is not None else hash_seed(seed)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the program invocation it drives."""

    name: str
    dataset: str
    scale: float
    noise: float = 0.0
    label_availability: float = 1.0
    batches: int = 1
    discover_args: tuple[str, ...] = ()
    serve: bool = False

    def smoke(self) -> "Workload":
        """The same workload on a graph small enough for the test suite."""
        scale = 0.5 if self.dataset == "LDBC" else 0.25
        return Workload(
            self.name, self.dataset, scale, self.noise,
            self.label_availability, self.batches, self.discover_args,
            self.serve,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("static_ldbc", "LDBC", 16),
        Workload(
            "incremental_noisy", "IYP", 4, noise=0.2, label_availability=0.5,
            batches=8, discover_args=("--batches", "8"),
        ),
        Workload(
            "pool_disk", "LDBC", 16, batches=8,
            discover_args=("--store", "disk", "--batches", "8", "--jobs", "2"),
        ),
        Workload("serve_mixed", "LDBC", 8, batches=SERVE_SPLIT - 1, serve=True),
    )
}


def resolve(name: str, smoke: bool = False) -> Workload:
    """Look up a workload by name (``KeyError`` when unknown)."""
    workload = WORKLOADS[name]
    return workload.smoke() if smoke else workload


@dataclass
class Pin:
    """Identity of a generated input: counts and content digest."""

    path: Path
    nodes: int
    edges: int
    bytes: int
    sha256: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "file": self.path.name,
            "nodes": self.nodes,
            "edges": self.edges,
            "bytes": self.bytes,
            "sha256": self.sha256,
        }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _generate(workload: Workload, seed: int) -> Any:
    from repro.datasets import get_dataset, inject_noise

    dataset = get_dataset(workload.dataset, scale=workload.scale, seed=seed)
    if workload.noise > 0 or workload.label_availability < 1.0:
        dataset = inject_noise(
            dataset,
            property_noise=workload.noise,
            label_availability=workload.label_availability,
            seed=seed + 1,
        )
    return dataset.graph


def prepare_input(workload: Workload, seed: int) -> Pin:
    """Generate (or reuse) the workload's JSONL input and pin it.

    The file name encodes every generation parameter, and a sidecar
    records the pin; a file whose digest no longer matches its sidecar is
    regenerated.
    """
    from repro.graph.io import save_graph_jsonl

    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    stem = (
        f"{workload.dataset.lower()}_s{workload.scale:g}_n{workload.noise:g}"
        f"_l{workload.label_availability:g}_seed{seed}"
    )
    path = inputs / f"{stem}.jsonl"
    sidecar = inputs / f"{stem}.pin.json"
    if path.is_file() and sidecar.is_file():
        record = json.loads(sidecar.read_text())
        if record["sha256"] == _sha256(path):
            return Pin(path, record["nodes"], record["edges"],
                       record["bytes"], record["sha256"])
    graph = _generate(workload, seed)
    partial = path.with_suffix(".partial")
    save_graph_jsonl(graph, partial)
    partial.replace(path)
    pin = Pin(path, graph.num_nodes, graph.num_edges,
              path.stat().st_size, _sha256(path))
    sidecar.write_text(json.dumps(pin.to_dict()))
    return pin


@dataclass
class Request:
    """One admission-check request of held-out elements."""

    nodes: list[Any]
    edges: list[Any]
    endpoint_labels: dict[int, frozenset[str]]
    body: bytes = b""

    @property
    def size(self) -> int:
        return len(self.nodes) + len(self.edges)


def element_record(element: Any) -> dict[str, Any]:
    """The wire/JSONL shape of a node or edge."""
    record: dict[str, Any] = {"id": element.id}
    if hasattr(element, "source"):
        record["source"] = element.source
        record["target"] = element.target
    record["labels"] = sorted(element.labels)
    record["properties"] = dict(element.properties)
    return record


def encode_body(
    nodes: list[Any], edges: list[Any], endpoint_labels: dict[int, frozenset[str]]
) -> bytes:
    """JSON body of a batch or validate request."""
    wanted = {edge.source for edge in edges} | {edge.target for edge in edges}
    return json.dumps({
        "nodes": [element_record(node) for node in nodes],
        "edges": [element_record(edge) for edge in edges],
        "endpoint_labels": {
            str(node_id): sorted(endpoint_labels[node_id])
            for node_id in sorted(wanted) if node_id in endpoint_labels
        },
    }, default=str).encode("utf-8")


def cut_requests(
    nodes: list[Any], edges: list[Any], endpoint_labels: dict[int, frozenset[str]]
) -> list[Request]:
    """Slice held-out elements into requests of ``VALIDATE_ELEMENTS``.

    Every request keeps the nodes/edges mix of the whole held-out set.
    """
    total = len(nodes) + len(edges)
    count = max(1, total // VALIDATE_ELEMENTS)
    per_nodes = len(nodes) // count
    per_edges = len(edges) // count
    requests = []
    for index in range(count):
        part_nodes = nodes[index * per_nodes:(index + 1) * per_nodes]
        part_edges = edges[index * per_edges:(index + 1) * per_edges]
        requests.append(Request(
            part_nodes, part_edges, endpoint_labels,
            encode_body(part_nodes, part_edges, endpoint_labels),
        ))
    return requests


def load_store(pin: Pin) -> Any:
    from repro.graph.io import load_graph_jsonl
    from repro.graph.store import GraphStore

    return GraphStore(load_graph_jsonl(pin.path))


@dataclass
class ServePlan:
    """The serve workload's pre-encoded traffic."""

    batch_bodies: list[bytes]
    batch_elements: list[int]
    requests: list[Request] = field(default_factory=list)


def serve_plan(pin: Pin, seed: int) -> ServePlan:
    """Split the input into 16 ingest batches and one held-out batch."""
    store = load_store(pin)
    batches = list(store.batches(SERVE_SPLIT, seed=seed))
    ingest, held = batches[:-1], batches[-1]
    return ServePlan(
        [encode_body(b.nodes, b.edges, b.endpoint_labels) for b in ingest],
        [b.size for b in ingest],
        cut_requests(held.nodes, held.edges, held.endpoint_labels),
    )


def wait_ticket(service: Any, ticket_id: str) -> dict[str, Any]:
    """Block until a socket-free service ticket leaves the queue."""
    while True:
        _, info = service.handle("GET", f"/tickets/{ticket_id}", {}, {})
        if info["status"] in ("done", "failed"):
            return info
        time.sleep(0.001)


def canonical_json(document: Any) -> bytes:
    """Byte form used to compare JSON schema documents and reports."""
    return json.dumps(
        json.loads(json.dumps(document, default=str)), sort_keys=True
    ).encode("utf-8")


def schema_json(document: dict[str, Any]) -> bytes:
    """Canonical bytes of a served JSON schema, minus the session name.

    A session's schema is named after the session, which the client
    picks; every other byte must match.
    """
    return canonical_json({**document, "name": None})


@dataclass
class Reference:
    """Expected program output for a workload, from a second code path."""

    output: bytes
    schema: Any
    validate_reports: list[bytes] = field(default_factory=list)


def reference(workload: Workload, pin: Pin, seed: int) -> Reference:
    """Compute the workload's reference output in this process.

    * ``static_ldbc``: ``PGHive().discover`` + ``serialize_pg_schema``;
    * ``incremental_noisy``: ``discover_incremental(store, 8)``;
    * ``pool_disk``: the ``--batches 8`` memory run with ``jobs 1``;
    * ``serve_mixed``: a socket-free ``SchemaService`` fed the same
      batches in the same order; its final JSON schema, plus the report
      of every validate request against that final schema.

    CLI references are the exact stdout bytes of ``pghive discover``.
    """
    from repro.core.pipeline import PGHive
    from repro.schema.serialize_pgschema import serialize_pg_schema

    if workload.serve:
        return serve_reference(serve_plan(pin, seed))
    store = load_store(pin)
    if workload.batches > 1:
        result = PGHive().discover_incremental(store, workload.batches)
    else:
        result = PGHive().discover(store)
    rendered = serialize_pg_schema(result.schema, "STRICT") + "\n"
    return Reference(rendered.encode("utf-8"), result.schema)


def serve_reference(plan: ServePlan) -> Reference:
    from repro.server import SchemaService

    service = SchemaService()
    try:
        service.handle("POST", "/sessions", {}, {"name": "ref"})
        for body in plan.batch_bodies:
            _, ticket = service.handle(
                "POST", "/sessions/ref/batches", {}, json.loads(body)
            )
            wait_ticket(service, ticket["id"])
        _, payload = service.handle(
            "GET", "/sessions/ref/schema", {"format": ["json"]}, {}
        )
        reports = [
            canonical_json(service.handle(
                "POST", "/sessions/ref/validate", {}, json.loads(r.body)
            )[1]["report"])
            for r in plan.requests
        ]
        schema = service.sessions.get_session("ref").snapshot_schema()
    finally:
        service.sessions.shutdown()
    return Reference(schema_json(payload["schema"]), schema, reports)


def calibration_probe() -> dict[str, float]:
    """Fixed host-speed probe: a pure-Python loop and a numpy loop.

    Recorded beside every run as context, never as a metric, so host
    drift is visible when two result sets are compared.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    python_s = time.perf_counter() - started
    matrix = np.random.default_rng(0).random((200, 200))
    started = time.perf_counter()
    for _ in range(20):
        matrix = np.tanh(matrix @ matrix.T / 200.0)
    numpy_s = time.perf_counter() - started
    return {"python_s": python_s, "numpy_s": numpy_s}


@dataclass
class Prepared:
    """A workload with its pinned input and reference (and serve traffic)."""

    workload: Workload
    pin: Pin
    ref: Reference
    plan: ServePlan | None = None


def prepare(name: str, seed: int, smoke: bool) -> Prepared:
    """Everything a run needs before its timed region starts."""
    workload = resolve(name, smoke)
    pin = prepare_input(workload, seed)
    if workload.serve:
        plan = serve_plan(pin, seed)
        return Prepared(workload, pin, serve_reference(plan), plan)
    return Prepared(workload, pin, reference(workload, pin, seed))


def _main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "reference":
        print("usage: inputs.py reference <workload> <seed> [--smoke]",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = resolve(argv[1], smoke="--smoke" in argv)
    seed = int(argv[2])
    pin = prepare_input(workload, seed)
    print(hashlib.sha256(reference(workload, pin, seed).output).hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
