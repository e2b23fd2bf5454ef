"""Executable specifications the production engines are tested against.

``src/repro`` ships one implementation per layer: the distinct-pattern
batch kernels, the columnar validator and the row ingest.  The
element-at-a-time loops they replaced live here, outside the package,
as oracles:

* :mod:`tests.oracles.kernels` -- per-kernel reference loops
  (vectorization, MinHash feature sets and signatures, banding, label
  refinement, cluster summarization);
* :mod:`tests.oracles.engine` -- :class:`ReferenceDiscovery`, the
  incremental engine with the element-at-a-time batch body, and
  :func:`discover_reference`;
* :mod:`tests.oracles.validate` -- :func:`validate_elements`, the
  per-element validator;
* :mod:`tests.oracles.ingest` -- the object-at-a-time JSONL/CSV ingest
  (``json.loads`` and one ``Node``/``Edge`` per record) that the row
  ingest of :mod:`repro.graph.io` and the slab writer replaced.

``benchmarks/bench_hotpath.py`` times the reference engine as the
baseline of its speedup table.
"""

from tests.oracles.engine import ReferenceDiscovery, discover_reference
from tests.oracles.validate import validate_elements

__all__ = ["ReferenceDiscovery", "discover_reference", "validate_elements"]
