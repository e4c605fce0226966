"""Tests for structured pattern generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TaskGraphError
from repro.taskgraph import (
    TaskGraph,
    all_to_all_pattern,
    mesh2d_pattern,
    mesh3d_pattern,
    ring_pattern,
)
from repro.taskgraph.patterns import mesh_pattern


def _mesh_from_tuples(shape, message_bytes=1.0, periodic=False,
                      compute_load=1.0):
    """The tuple-list build ``mesh_pattern`` used before it went to arrays:
    one Python ``(a, b, w)`` triple per edge through ``TaskGraph.__init__``.
    Kept here only as the oracle for the array build."""
    n = int(np.prod(shape))
    ids = np.arange(n).reshape(shape)
    edges = []
    w = 2.0 * float(message_bytes)
    for axis in range(len(shape)):
        a = ids.take(range(shape[axis] - 1), axis=axis).ravel()
        b = ids.take(range(1, shape[axis]), axis=axis).ravel()
        edges.extend((int(x), int(y), w) for x, y in zip(a, b))
        if periodic and shape[axis] > 2:
            first = ids.take([0], axis=axis).ravel()
            last = ids.take([shape[axis] - 1], axis=axis).ravel()
            edges.extend((int(x), int(y), w) for x, y in zip(last, first))
    coords = np.stack(np.unravel_index(np.arange(n), shape), axis=1)
    return TaskGraph(n, edges, np.full(n, float(compute_load))).attach_coords(
        coords)


class TestMeshPattern:
    def test_2d_sizes(self):
        g = mesh2d_pattern(4, 5)
        assert g.num_tasks == 20
        # r(c-1) + c(r-1) undirected edges
        assert g.num_edges == 4 * 4 + 5 * 3

    def test_3d_sizes(self):
        g = mesh3d_pattern(3, 3, 3)
        assert g.num_tasks == 27
        assert g.num_edges == 3 * (2 * 3 * 3)

    def test_degree_structure_2d(self):
        g = mesh2d_pattern(4, 4)
        degs = sorted(g.degrees().tolist())
        # 4 corners with 2, 8 boundary with 3, 4 interior with 4
        assert degs == [2] * 4 + [3] * 8 + [4] * 4

    def test_interior_degree_3d(self):
        g = mesh3d_pattern(4, 4, 4)
        assert g.degrees().max() == 6

    def test_edge_weight_is_bidirectional_traffic(self):
        g = mesh2d_pattern(2, 2, message_bytes=100.0)
        for _, _, w in g.edges():
            assert w == 200.0

    def test_periodic_adds_wraparound(self):
        g = mesh_pattern((4, 4), periodic=True)
        assert g.num_edges == 2 * 16  # torus pattern: p edges per axis
        assert (g.degrees() == 4).all()

    def test_periodic_skips_short_axes(self):
        g = mesh_pattern((2, 4), periodic=True)
        # 2-extent axis gains no wrap edge (it would duplicate the mesh edge)
        assert g.num_edges == 4 * 1 + 2 * 4

    def test_compute_load(self):
        g = mesh2d_pattern(3, 3, compute_load=2.5)
        assert (g.vertex_weights == 2.5).all()

    def test_bad_params(self):
        with pytest.raises(TaskGraphError):
            mesh2d_pattern(0, 3)
        with pytest.raises(TaskGraphError):
            mesh2d_pattern(3, 3, message_bytes=0.0)

    def test_matches_grid_adjacency(self):
        g = mesh2d_pattern(3, 4)
        # Task ids are C-order: task (r, c) = 4r + c.
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 4)
        assert not g.has_edge(0, 5)
        assert not g.has_edge(3, 4)  # row wrap must not exist


class TestMeshArrayBuild:
    """``mesh_pattern`` builds its edge arrays with NumPy; the result must be
    the graph the per-edge tuple build gave, down to the digest."""

    @pytest.mark.parametrize("shape", [
        (1,), (2,), (7,), (1, 5), (3, 4), (2, 3, 4), (4, 1, 3),
        (2, 2, 3, 2), (3, 3, 3, 3),
    ], ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("periodic", (False, True),
                             ids=("open", "periodic"))
    def test_matches_tuple_build(self, shape, periodic):
        got = mesh_pattern(shape, message_bytes=48.0, periodic=periodic,
                           compute_load=1.5)
        want = _mesh_from_tuples(shape, message_bytes=48.0, periodic=periodic,
                                 compute_load=1.5)
        assert got.content_digest() == want.content_digest()
        for mine, theirs in zip(got.csr_arrays(), want.csr_arrays()):
            np.testing.assert_array_equal(mine, theirs)
            assert mine.dtype == theirs.dtype
        np.testing.assert_array_equal(got.coords, want.coords)
        np.testing.assert_array_equal(got.vertex_weights, want.vertex_weights)

    @pytest.mark.parametrize("side", (2, 3))
    def test_periodic_small_sides(self, side):
        """Side 2 is the no-wrap guard (the wrap pair is already the mesh
        edge); side 3 is the smallest side that gains a wrap edge."""
        for shape in ((side,), (side, side), (side, 4, side)):
            got = mesh_pattern(shape, periodic=True)
            want = _mesh_from_tuples(shape, periodic=True)
            assert got.content_digest() == want.content_digest()
        ring = mesh_pattern((side,), periodic=True)
        assert ring.num_edges == (1 if side == 2 else 3)
        assert ring.edge_arrays()[2].tolist() == [2.0] * ring.num_edges


class TestRingPattern:
    def test_structure(self):
        g = ring_pattern(5)
        assert g.num_edges == 5
        assert (g.degrees() == 2).all()

    def test_too_small(self):
        with pytest.raises(TaskGraphError):
            ring_pattern(2)


class TestAllToAll:
    def test_structure(self):
        g = all_to_all_pattern(6)
        assert g.num_edges == 15
        assert (g.degrees() == 5).all()

    def test_total_bytes(self):
        g = all_to_all_pattern(4, message_bytes=10.0)
        assert g.total_bytes == 6 * 20.0

    def test_too_small(self):
        with pytest.raises(TaskGraphError):
            all_to_all_pattern(1)
