"""MappingContext — shared per-(graph, topology) state for mappers and metrics.

Every mapper used to re-derive the same inputs on entry: CSR edge arrays from
the task graph, the topology distance matrix (per dtype), the average
distance vectors behind the estimation functions, and — on degraded
machines — the allowed-processor mask. A :class:`MappingContext` computes each
of these once per (graph, topology) pair and hands out the *same* arrays the
underlying caches would have produced, so threading a context through a
mapper is bit-for-bit equivalent to the mapper fetching its own state.

The context is deliberately a thin veneer over the existing caches
(``TaskGraph`` builds its CSR arrays once; ``repro.topology.cache`` shares
distance tables across same-shaped machines). What it adds:

* one object to pass around instead of four lookups per mapper;
* memoized *derived* state that had no cache before — per-assignment edge
  distances and the canonical metrics block (hop-bytes, hops-per-byte, load
  imbalance, dilation) computed from a **single** distance gather instead of
  one per metric;
* the degraded-machine allowed mask, resolved once via
  :func:`~repro.mapping.base.resolve_allowed`.

Use :func:`context_for` to get the process-wide shared instance for a
(graph, topology) pair; construct :class:`MappingContext` directly only for
throwaway state.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["MappingContext", "context_for"]


class MappingContext:
    """Shared state for mapping one task graph onto one topology.

    All accessors are lazy and cached; arrays returned are the read-only
    shared instances from the graph/topology caches — never copies — so a
    mapper reading through the context sees exactly the arrays it would have
    derived itself.
    """

    def __init__(self, graph: TaskGraph, topology: Topology):
        self._graph = graph
        self._topology = topology
        self._allowed: np.ndarray | None | bool = False  # False = unresolved
        self._avg_distance: dict[object, np.ndarray] = {}

    # ------------------------------------------------------------ identities
    @property
    def graph(self) -> TaskGraph:
        return self._graph

    @property
    def topology(self) -> Topology:
        return self._topology

    # ---------------------------------------------------------- graph tables
    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, weights)`` CSR adjacency of the task graph."""
        return self._graph.csr_arrays()

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, w)`` dedup'd undirected edge list of the task graph."""
        return self._graph.edge_arrays()

    def adjacency_csr(self):
        """The task graph's SciPy-compatible CSR adjacency operator."""
        return self._graph.adjacency_csr()

    # ------------------------------------------------------- topology tables
    def distance_matrix(self, dtype: np.dtype | type = np.int32) -> np.ndarray:
        """The topology's hop-distance matrix in ``dtype`` (shared cache)."""
        return self._topology.distance_matrix(dtype)

    def average_distance_vector(
        self, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Mean distance from each processor to ``subset`` (default: all)."""
        from repro.mapping.estimation import average_distance_vector

        key = None if subset is None else subset.tobytes()
        vec = self._avg_distance.get(key)
        if vec is None:
            vec = average_distance_vector(self._topology, subset)
            self._avg_distance[key] = vec
        return vec

    def allowed(self) -> np.ndarray | None:
        """The degraded-machine healthy mask, or ``None`` when pristine.

        Resolved once via :func:`~repro.mapping.base.resolve_allowed` with no
        explicit mask — i.e. auto-derived from a
        :class:`~repro.faults.DegradedTopology`.
        """
        if self._allowed is False:
            from repro.mapping.base import resolve_allowed

            self._allowed = resolve_allowed(self._topology, None)
        return self._allowed

    # ------------------------------------------------------- derived metrics
    def edge_distances(self, assignment: Sequence[int]) -> np.ndarray:
        """Hop distance of each task-graph edge under ``assignment``.

        The single gather every metric shares; see
        :func:`repro.mapping.metrics.metrics_block`.
        """
        from repro.mapping.metrics import _as_assignment, _edge_distances

        arr = _as_assignment(self._graph, self._topology, assignment)
        u, v, w = self.edge_arrays()
        if len(w) == 0:
            return np.zeros(0, dtype=np.float64)
        return _edge_distances(self._topology, arr[u], arr[v])

    def hop_bytes(self, assignment: Sequence[int]) -> float:
        """Total hop-bytes of ``assignment`` (the paper's Section 3 metric)."""
        _, _, w = self.edge_arrays()
        if len(w) == 0:
            return 0.0
        return float(np.dot(w, self.edge_distances(assignment)))

    def metrics(self, assignment: Sequence[int]) -> dict[str, float]:
        """Canonical metrics block; see :func:`repro.mapping.metrics.metrics_block`."""
        from repro.mapping.metrics import metrics_block

        return metrics_block(self._graph, self._topology, assignment, ctx=self)


#: Process-wide (graph, topology) -> MappingContext cache. Strong references
#: with a small LRU cap: entries pin their graph/topology (so ids stay valid
#: for the identity check) and the cap bounds the pinning to a handful of
#: recently used pairs — the working set of any CLI run or experiment sweep.
_CACHE_CAP = 16
_CACHE: OrderedDict[tuple[int, int], MappingContext] = OrderedDict()


def context_for(graph: TaskGraph, topology: Topology) -> MappingContext:
    """The shared :class:`MappingContext` for ``(graph, topology)``.

    Repeated calls with the same objects return the same context, so every
    layer (engine, pipeline, metrics, runtime replay) accumulates derived
    state in one place instead of re-deriving it.
    """
    key = (id(graph), id(topology))
    ctx = _CACHE.get(key)
    if ctx is not None and ctx.graph is graph and ctx.topology is topology:
        _CACHE.move_to_end(key)
        return ctx
    ctx = MappingContext(graph, topology)
    _CACHE[key] = ctx
    _CACHE.move_to_end(key)
    while len(_CACHE) > _CACHE_CAP:
        _CACHE.popitem(last=False)
    return ctx
