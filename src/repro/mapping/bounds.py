"""Lower bounds on hop-bytes — how close to optimal is a mapping?

The mapping problem is NP-complete, so exact optima are unavailable at
scale; these bounds let experiments report "TopoLB within x% of optimal"
instead of only "y% better than random".

Two bounds, both valid for *bijective* mappings:

* **trivial bound** — every task-graph edge joins distinct processors, so
  each byte crosses at least one link: ``HB >= total_bytes``.
* **degree-matching bound** — task ``t``'s neighbors occupy ``deg(t)``
  *distinct* processors, so the distances from ``t``'s processor to them are
  at least the ``deg(t)`` smallest nonzero distances available anywhere in
  the machine; matching t's heaviest edges with the smallest distances
  (a rearrangement-inequality argument) bounds HB(t) from below, and
  ``HB = (1/2) sum HB(t)`` does the rest.

For a 2D Jacobi pattern on a torus the degree-matching bound equals
``total_bytes`` exactly (four neighbors, four distance-1 slots), certifying
TopoLB's 1.0 hops-per-byte as optimal rather than merely good.
"""

from __future__ import annotations

import numpy as np

from repro.taskgraph.graph import TaskGraph
from repro.topology import cache
from repro.topology.base import Topology

__all__ = ["hop_bytes_lower_bound", "optimality_gap"]

#: Distance-table entries examined per chunk while building the profile.
_CHUNK_ENTRIES = 1 << 22


def _distance_profile(topology: Topology) -> np.ndarray:
    """Sorted nonzero distances from the best-connected processor.

    For the bound we may use, per task, the most favorable distance
    multiset any processor offers: the elementwise minimum over processors
    of each row's sorted distances with the self 0 dropped (on
    vertex-transitive machines all rows coincide anyway). It is built chunk
    by chunk, never as a ``p x (p - 1)`` table: for integer-valued rows as
    the pointwise maximum of the rows' cumulative distance histograms
    (whose inverse is that elementwise minimum), otherwise by sorting each
    chunk and keeping a running minimum. Cached read-only in the shared
    topology cache.
    """
    from repro.mapping.metrics import _MATRIX_LIMIT

    key = topology.cache_key()
    skey = (key, "distance_profile") if key is not None else None
    profile = cache.shared_get(skey) if skey is not None else None
    if profile is not None:
        return profile
    p = topology.num_nodes
    integer_rows = topology.distance_row(0).dtype.kind in "iu"
    matrix = None
    if p <= _MATRIX_LIMIT:
        matrix = topology.distance_matrix(np.int32 if integer_rows else np.float64)
    step = max(1, _CHUNK_ENTRIES // p)
    profile = np.full(p - 1, np.inf)
    for lo in range(0, p, step):
        hi = min(p, lo + step)
        if matrix is not None:
            rows = matrix[lo:hi]
        else:
            rows = np.stack([topology.distance_row(v) for v in range(lo, hi)])
        np.minimum(profile, _chunk_profile(rows), out=profile)
    if skey is not None:
        cache.shared_put(skey, profile)
    return profile


def _chunk_profile(rows: np.ndarray) -> np.ndarray:
    """Elementwise minimum of the chunk's sorted rows, self 0 dropped."""
    p = rows.shape[1]
    top = rows.max()
    integral = rows.dtype.kind in "iu" or np.array_equal(rows, np.floor(rows))
    if not (integral and np.isfinite(top) and 0 <= rows.min() and top < p):
        return np.sort(rows, axis=1)[:, 1:].min(axis=0).astype(np.float64)
    # counts[r, d] = processors at distance d from row r; its running sum
    # minus the self 0 is how many of the row's p - 1 sorted distances are
    # <= d, and the k-th smallest distance of the best row is the first d
    # whose best count exceeds k.
    bins = int(top) + 1
    offsets = np.arange(len(rows), dtype=np.int64)[:, None] * bins
    counts = np.bincount((rows.astype(np.int64) + offsets).ravel(),
                         minlength=len(rows) * bins).reshape(len(rows), bins)
    best = counts.cumsum(axis=1).max(axis=0) - 1
    return np.searchsorted(best, np.arange(p - 1), side="right").astype(np.float64)


def hop_bytes_lower_bound(graph: TaskGraph, topology: Topology) -> float:
    """A certified lower bound on hop-bytes over all bijective mappings."""
    if graph.num_tasks != topology.num_nodes or topology.num_nodes < 2:
        # Many-to-one mappings can hide bytes on-processor; only the trivial
        # zero bound is safe there.
        return 0.0
    profile = _distance_profile(topology)
    indptr, _, weights = graph.csr_arrays()
    # Heaviest edges get the smallest available distances: sort each task's
    # weights descending (one segment sort over the whole CSR) and pair the
    # k-th heaviest with the k-th smallest profile distance.
    row = np.repeat(np.arange(graph.num_tasks), np.diff(indptr))
    order = np.lexsort((-weights, row))
    rank = np.arange(len(weights)) - indptr[row]
    total = float(np.dot(weights[order], profile[rank]))
    bound = total / 2.0
    return max(bound, graph.total_bytes)


def optimality_gap(mapping) -> float:
    """``hop_bytes / lower_bound`` (1.0 certifies optimality; inf if LB is 0)."""
    bound = hop_bytes_lower_bound(mapping.graph, mapping.topology)
    if bound == 0:
        return float("inf") if mapping.hop_bytes > 0 else 1.0
    return mapping.hop_bytes / bound
