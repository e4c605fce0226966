"""Tests for the hop-byte lower bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import (
    IdentityMapper,
    RandomMapper,
    TopoLB,
    hop_bytes_lower_bound,
    optimality_gap,
)
from repro.taskgraph import (
    TaskGraph,
    mesh2d_pattern,
    mesh3d_pattern,
    random_taskgraph,
)
from repro.topology import FatTree, Hypercube, Mesh, Torus


class TestLowerBound:
    def test_stencil_bound_is_tight(self):
        """4-neighbor pattern on a degree-4 torus: bound == total bytes, and
        the identity mapping attains it — optimality certified."""
        topo = Torus((6, 6))
        g = mesh2d_pattern(6, 6)
        bound = hop_bytes_lower_bound(g, topo)
        assert bound == pytest.approx(g.total_bytes)
        mapping = IdentityMapper().map(g, topo)
        assert optimality_gap(mapping) == pytest.approx(1.0)

    def test_topolb_certified_optimal(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        assert optimality_gap(TopoLB().map(g, topo)) == pytest.approx(1.0)

    def test_bound_exceeds_total_bytes_for_high_degree(self):
        """A task with more partners than machine degree must reach past
        distance 1, so the bound strictly exceeds total bytes."""
        g = TaskGraph(9, [(0, j, 10.0) for j in range(1, 9)])
        topo = Torus((3, 3))  # degree 4 < 8 partners
        assert hop_bytes_lower_bound(g, topo) > g.total_bytes

    def test_heavy_edges_matched_to_short_distances(self):
        # Star with one giant edge: the bound must charge the giant edge
        # distance 1, not the average.
        g = TaskGraph(9, [(0, 1, 1e6)] + [(0, j, 1.0) for j in range(2, 9)])
        topo = Torus((3, 3))
        bound = hop_bytes_lower_bound(g, topo)
        assert bound < 1.1e6  # ~1e6*1 + small change, NOT 2e6

    def test_edgeless(self):
        g = TaskGraph(4)
        assert hop_bytes_lower_bound(g, Mesh((2, 2))) == 0.0

    def test_size_mismatch_returns_trivial(self):
        g = mesh2d_pattern(2, 2)
        assert hop_bytes_lower_bound(g, Mesh((3, 3))) == 0.0

    def test_gap_of_random_large(self):
        topo = Torus((8, 8))
        g = mesh2d_pattern(8, 8)
        gap = optimality_gap(RandomMapper(seed=0).map(g, topo))
        assert gap > 3.0


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_property_bound_below_every_bijection(seed):
    """Soundness: the bound never exceeds an actual bijective mapping's HB."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    g = random_taskgraph(n, edge_prob=0.4, seed=seed)
    topo = Torus((n,)) if seed % 2 else Mesh((n,))
    bound = hop_bytes_lower_bound(g, topo)
    for s in range(3):
        mapping = RandomMapper(seed=seed + s).map(g, topo)
        assert bound <= mapping.hop_bytes + 1e-9


def _loop_bound(graph, topology):
    """The original per-processor, per-task loop — the oracle for the
    chunked profile and the CSR segment sort."""
    if graph.num_tasks != topology.num_nodes or topology.num_nodes < 2:
        return 0.0
    p = topology.num_nodes
    profiles = np.empty((p, p - 1), dtype=np.float64)
    for v in range(p):
        profiles[v] = np.sort(topology.distance_row(v))[1:]
    profile = profiles.min(axis=0)
    total = 0.0
    for t in range(graph.num_tasks):
        _, weights = graph.neighbor_slice(t)
        if len(weights) == 0:
            continue
        w_sorted = np.sort(weights)[::-1]
        total += float(np.dot(w_sorted, profile[: len(w_sorted)]))
    return max(total / 2.0, graph.total_bytes)


def _machines():
    from repro.faults import DegradedTopology, FaultSet
    from repro.topology import GroupedTopology, MatrixTopology

    rng = np.random.default_rng(3)
    fractional = rng.uniform(0.5, 4.0, size=(12, 12))
    fractional = (fractional + fractional.T) / 2
    np.fill_diagonal(fractional, 0.0)
    return [
        ("mesh4x3", Mesh((4, 3))),
        ("torus4x4", Torus((4, 4))),
        ("hypercube4", Hypercube(4)),
        ("fattree4x2", FatTree(4, 2)),
        ("grouped-rep", GroupedTopology(Torus((4, 4)), np.arange(16) // 2)),
        ("grouped-mean", GroupedTopology(Torus((4, 4)), np.arange(16) // 2,
                                         aggregate="mean")),
        ("degraded-torus4x4", DegradedTopology(
            Torus((4, 4)), FaultSet(dead_nodes=[5, 10], dead_links=[(0, 1)]))),
        ("matrix-fractional", MatrixTopology(fractional)),
    ]


@pytest.mark.parametrize("label,topo", _machines(),
                         ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_bound_matches_loop_oracle(label, topo, seed):
    """Chunked profile + CSR segment sort agree with the original loop on
    random graphs with real-valued weights (summation order differs, so
    to 1e-12 relative)."""
    graph = random_taskgraph(topo.num_nodes, edge_prob=0.4, seed=seed)
    assert hop_bytes_lower_bound(graph, topo) == pytest.approx(
        _loop_bound(graph, topo), rel=1e-12)


@pytest.mark.parametrize("graph,topo", [
    (mesh2d_pattern(6, 6, message_bytes=1024), Torus((6, 6))),
    (mesh3d_pattern(4, 4, 4, message_bytes=512), Torus((4, 4, 4))),
    (mesh3d_pattern(4, 3, 2, message_bytes=7), Mesh((4, 3, 2))),
    (mesh2d_pattern(4, 4, message_bytes=3), Hypercube(4)),
], ids=["mesh2d-torus", "mesh3d-torus", "mesh3d-mesh", "mesh2d-hypercube"])
def test_bound_exact_on_integer_stencils(graph, topo):
    assert hop_bytes_lower_bound(graph, topo) == _loop_bound(graph, topo)


def test_profile_is_cached_read_only_and_chunk_independent(monkeypatch):
    from repro.mapping import bounds
    from repro.topology.cache import shared_get

    topo = Torus((4, 4, 2))
    whole = bounds._distance_profile(topo)
    assert shared_get((topo.cache_key(), "distance_profile")) is whole
    assert not whole.flags.writeable
    monkeypatch.setattr(bounds, "_CHUNK_ENTRIES", 1)  # one row per chunk
    chunked = bounds._distance_profile(Mesh((4, 4, 2)))
    rows = np.stack([Mesh((4, 4, 2)).distance_row(v) for v in range(32)])
    np.testing.assert_array_equal(
        chunked, np.sort(rows, axis=1)[:, 1:].min(axis=0))
