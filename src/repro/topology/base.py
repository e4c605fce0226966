"""Abstract base class for processor topologies."""

from __future__ import annotations

import abc
from collections.abc import Iterator, Sequence

import numpy as np

from repro.exceptions import TopologyError

__all__ = ["Topology"]


class Topology(abc.ABC):
    """A machine interconnect: processors (nodes ``0..p-1``) plus links.

    Subclasses must implement :meth:`distance_row`, :meth:`neighbors` and
    :meth:`route`. Everything else (distance matrix, diameter, average
    distance, link enumeration) derives from those primitives, with grid
    subclasses overriding the derived methods with closed forms where that
    is cheaper.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise TopologyError(f"topology needs at least one node, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        # Derived tables, one per requested dtype; populated lazily by
        # distance_matrix() (possibly from the process-level shared cache).
        self._distance_matrices: dict[np.dtype, np.ndarray] = {}
        self._avg_distance_vector: np.ndarray | None = None
        self._link_graph = None  # lazily built by link_graph()

    # ------------------------------------------------------------------ size
    @property
    def num_nodes(self) -> int:
        """Number of processors ``p``."""
        return self._num_nodes

    def __len__(self) -> int:
        return self._num_nodes

    def _check_node(self, node: int) -> int:
        node = int(node)
        if not 0 <= node < self._num_nodes:
            raise TopologyError(f"node {node} out of range [0, {self._num_nodes})")
        return node

    # ------------------------------------------------------------- distances
    @abc.abstractmethod
    def distance_row(self, node: int) -> np.ndarray:
        """Shortest-path hop distances from ``node`` to every node.

        Returns an int array of shape ``(num_nodes,)``.
        """

    def cache_key(self) -> tuple | None:
        """Key identifying this topology's *shape* for the shared table cache.

        Two instances with equal keys must be fully interchangeable — same
        distances, same node numbering. Shape-defined subclasses (grid,
        hypercube, fat-tree) override this; the default ``None`` means "not
        shareable", which is the only sound answer for content-defined
        topologies (an explicit matrix or edge list carries information the
        constructor arguments' repr cannot prove equal).
        """
        return None

    def distance(self, a: int, b: int) -> int:
        """Shortest-path hop distance between processors ``a`` and ``b``."""
        a = self._check_node(a)
        b = self._check_node(b)
        for mat in self._distance_matrices.values():
            return int(mat[a, b])
        return int(self.distance_row(a)[b])

    def distance_matrix(self, dtype: np.dtype | type = np.int32) -> np.ndarray:
        """All-pairs distance matrix in ``dtype``, cached per dtype.

        The matrix is ``p x p``, symmetric and **read-only** (it is shared
        between callers — and, for shape-defined topologies, between
        topology instances via :mod:`repro.topology.cache`). Additional
        dtypes are derived by casting an exact cached matrix instead of
        re-running the ``O(p^2)`` distance computation.
        """
        from repro.topology import cache

        dt = np.dtype(dtype)
        mat = self._distance_matrices.get(dt)
        if mat is not None:
            return mat

        key = self.cache_key()
        skey = (key, "distance_matrix", dt.str) if key is not None else None
        if skey is not None:
            mat = cache.shared_get(skey)
        if mat is None:
            # Derive by casting when an exact (integer or float64) matrix is
            # already cached; lossy dtypes (float32) are never used as the
            # source, so a float32-then-float64 call sequence stays exact.
            source = next(
                (
                    m for m in self._distance_matrices.values()
                    if m.dtype.kind in "iu" or m.dtype == np.float64
                ),
                None,
            )
            if source is not None:
                mat = source.astype(dt)
            else:
                mat = self._build_distance_matrix(dt)
            mat.flags.writeable = False
            if skey is not None:
                cache.shared_put(skey, mat)
        self._distance_matrices[dt] = mat
        return mat

    def _build_distance_matrix(self, dtype: np.dtype) -> np.ndarray:
        """Compute the full matrix (no caching). The generic path stacks
        :meth:`distance_row`; grid subclasses override with a closed form."""
        mat = np.empty((self._num_nodes, self._num_nodes), dtype=dtype)
        for node in range(self._num_nodes):
            mat[node] = self.distance_row(node)
        return mat

    def diameter(self) -> int:
        """Maximum shortest-path distance over all processor pairs."""
        return int(max(int(self.distance_row(v).max()) for v in range(self._num_nodes)))

    def average_distance(self) -> float:
        """Mean shortest-path distance over all ordered pairs (including self)."""
        total = sum(float(self.distance_row(v).sum()) for v in range(self._num_nodes))
        return total / (self._num_nodes**2)

    # ----------------------------------------------------------- connectivity
    @abc.abstractmethod
    def neighbors(self, node: int) -> list[int]:
        """Processors sharing a direct link with ``node``."""

    def degree(self, node: int) -> int:
        """Number of direct links at ``node``."""
        return len(self.neighbors(node))

    def links(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected links as ``(a, b)`` with ``a < b``."""
        for a in range(self._num_nodes):
            for b in self.neighbors(a):
                if a < b:
                    yield (a, b)

    def num_links(self) -> int:
        """Number of undirected links."""
        return sum(1 for _ in self.links())

    def link_graph(self):
        """The machine's routing substrate (see :mod:`repro.topology.links`).

        Nodes are processors plus switches; links carry capacity. The
        default — correct for every *direct* network — is a lazy
        :class:`~repro.topology.links.DirectLinkGraph` whose nodes are
        exactly the processors and whose links delegate to
        :meth:`neighbors`, so direct machines keep their pre-link-graph
        semantics bit-identically. Indirect machines (fat-tree, dragonfly)
        override with explicit switch-level wiring.
        """
        graph = self._link_graph
        if graph is None:
            from repro.topology.links import DirectLinkGraph

            graph = self._link_graph = DirectLinkGraph(self)
        return graph

    # ---------------------------------------------------------------- routing
    @abc.abstractmethod
    def route(self, src: int, dst: int) -> list[int]:
        """Deterministic minimal route from ``src`` to ``dst``.

        Returns the node sequence ``[src, ..., dst]`` over :meth:`link_graph`
        nodes; consecutive entries are linked. Intermediate entries may be
        switch ids (``>= num_nodes``) on indirect machines. Grid topologies
        use dimension-ordered routing (as BlueGene/L does); the network
        simulator charges contention on each hop of this route.
        """

    def route_links(self, src: int, dst: int) -> list[tuple[int, int]]:
        """The directed links (over :meth:`link_graph`) traversed by :meth:`route`."""
        path = self.route(src, dst)
        return list(zip(path[:-1], path[1:]))

    # ------------------------------------------------------------------ misc
    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Human-readable identifier, e.g. ``"torus(8x8)"``."""

    def coords(self, node: int) -> tuple[int, ...]:
        """Coordinates of ``node`` for grid topologies; default is ``(node,)``."""
        return (self._check_node(node),)

    def index(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`coords`."""
        if len(coords) != 1:
            raise TopologyError(f"{self.name} has 1-D node ids, got coords {coords!r}")
        return self._check_node(coords[0])

    def validate_distance_axioms(self, sample: int = 64, seed: int = 0) -> None:
        """Spot-check metric axioms on random triples (used by tests).

        Raises :class:`TopologyError` on the first violation of symmetry,
        identity or the triangle inequality.
        """
        rng = np.random.default_rng(seed)
        p = self._num_nodes
        for _ in range(sample):
            a, b, c = (int(x) for x in rng.integers(0, p, size=3))
            dab, dba = self.distance(a, b), self.distance(b, a)
            if dab != dba:
                raise TopologyError(f"asymmetric distance d({a},{b})={dab} != {dba}")
            if self.distance(a, a) != 0:
                raise TopologyError(f"d({a},{a}) != 0")
            if dab > self.distance(a, c) + self.distance(c, b):
                raise TopologyError(f"triangle inequality violated at ({a},{b},{c})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} p={self._num_nodes}>"
