"""Turning LSH signatures into disjoint clusters.

Three composition strategies:

* :func:`cluster_by_full_signature` -- elements cluster together iff their
  whole (n, T) signature row matches (AND over tables).  Adding tables makes
  clustering strictly more selective, which is the behaviour the paper's
  parameter discussion describes for ELSH.
* :func:`cluster_by_table_union` -- elements sharing a bucket in *any* table
  are unioned (OR over tables).  Adding tables increases recall.
* :func:`cluster_by_band_union` -- classic banding for MinHash: the
  signature is split into bands of ``rows_per_band`` entries and elements
  sharing any full band are unioned.

All functions return a cluster-id array aligned with the input rows, with
ids renumbered densely from zero in first-appearance order.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.unionfind import UnionFind


def cluster_by_full_signature(signatures: np.ndarray) -> np.ndarray:
    """Cluster ids from exact full-signature equality (AND-composition).

    Implemented with ``np.unique`` over rows (vectorized sort) and
    renumbered densely in first-appearance order.
    """
    signatures = np.atleast_2d(signatures)
    n = signatures.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _, first_index, inverse = np.unique(
        signatures, axis=0, return_index=True, return_inverse=True
    )
    # unique rows come back sorted; remap so cluster ids follow the order
    # in which each distinct signature first appears in the input.
    appearance_order = np.argsort(first_index, kind="stable")
    remap = np.empty_like(appearance_order)
    remap[appearance_order] = np.arange(appearance_order.size)
    return remap[inverse].astype(np.int64)


def cluster_by_table_union(signatures: np.ndarray) -> np.ndarray:
    """Cluster ids by unioning per-table bucket collisions (OR-composition)."""
    signatures = np.atleast_2d(signatures)
    n, num_tables = signatures.shape
    uf = UnionFind(n)
    for table in range(num_tables):
        first_in_bucket: dict[int, int] = {}
        column = signatures[:, table]
        for row_index in range(n):
            bucket = int(column[row_index])
            anchor = first_in_bucket.setdefault(bucket, row_index)
            if anchor != row_index:
                uf.union(anchor, row_index)
    return _renumber(uf, n)


def cluster_by_band_union(
    signatures: np.ndarray, rows_per_band: int
) -> np.ndarray:
    """Cluster ids by LSH banding (AND within band, OR across bands).

    Batch kernel: each band's buckets come from ``np.unique`` over the band
    slice (every row is anchored to the first row sharing its band value),
    and the OR across bands is a single connected-components pass over the
    resulting anchor edges.  Output-equivalent to a row-at-a-time
    union-find over band buckets (the oracle in ``tests/oracles/``): the
    partition is the same union closure and ids are renumbered in
    first-appearance order either way.
    """
    if rows_per_band < 1:
        raise ValueError("rows_per_band must be >= 1")
    signatures = np.atleast_2d(signatures)
    n, width = signatures.shape
    if n == 0:
        return np.empty(0, dtype=np.int64)
    num_bands = max(1, width // rows_per_band)
    anchors = np.empty((num_bands, n), dtype=np.int64)
    for band in range(num_bands):
        start = band * rows_per_band
        stop = start + rows_per_band if band < num_bands - 1 else width
        _, first_index, inverse = np.unique(
            signatures[:, start:stop],
            axis=0,
            return_index=True,
            return_inverse=True,
        )
        anchors[band] = first_index[inverse]
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rows = np.tile(np.arange(n, dtype=np.int64), num_bands)
    cols = anchors.ravel()
    mask = rows != cols
    graph = coo_matrix(
        (np.ones(int(mask.sum()), dtype=np.int8), (rows[mask], cols[mask])),
        shape=(n, n),
    )
    _, components = connected_components(graph, directed=False)
    return _dense_first_appearance(components)


def groups_from_assignment(assignment: np.ndarray) -> list[list[int]]:
    """Invert a cluster-id array into member lists, ordered by cluster id."""
    groups: dict[int, list[int]] = {}
    for index, cluster in enumerate(assignment.tolist()):
        groups.setdefault(int(cluster), []).append(index)
    return [groups[cid] for cid in sorted(groups)]


def _dense_first_appearance(values: np.ndarray) -> np.ndarray:
    """Dense ids for a label array, numbered in first-appearance order."""
    _, first_index, inverse = np.unique(
        values, return_index=True, return_inverse=True
    )
    appearance_order = np.argsort(first_index, kind="stable")
    remap = np.empty_like(appearance_order)
    remap[appearance_order] = np.arange(appearance_order.size)
    return remap[inverse].astype(np.int64)


def _renumber(uf: UnionFind, n: int) -> np.ndarray:
    """Dense cluster ids in first-appearance order from a union-find."""
    remap: dict[int, int] = {}
    assignment = np.empty(n, dtype=np.int64)
    for index in range(n):
        root = uf.find(index)
        assignment[index] = remap.setdefault(root, len(remap))
    return assignment
