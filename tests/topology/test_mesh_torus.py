"""Tests for grid topologies (mesh and torus)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TopologyError
from repro.topology import Mesh, Torus


class TestMeshBasics:
    def test_sizes(self):
        mesh = Mesh((3, 4))
        assert mesh.num_nodes == 12
        assert len(mesh) == 12
        assert mesh.ndim == 2
        assert mesh.shape == (3, 4)

    def test_name(self):
        assert Mesh((2, 3)).name == "mesh(2x3)"
        assert Torus((4, 4, 4)).name == "torus(4x4x4)"

    def test_coords_roundtrip(self):
        mesh = Mesh((3, 4, 5))
        for node in range(mesh.num_nodes):
            assert mesh.index(mesh.coords(node)) == node

    def test_coords_c_order(self):
        mesh = Mesh((2, 3))
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(1) == (0, 1)
        assert mesh.coords(3) == (1, 0)

    def test_bad_shape_rejected(self):
        with pytest.raises(TopologyError):
            Mesh((0, 3))
        with pytest.raises(TopologyError):
            Mesh(())

    def test_bad_node_rejected(self):
        mesh = Mesh((2, 2))
        with pytest.raises(TopologyError):
            mesh.coords(4)
        with pytest.raises(TopologyError):
            mesh.distance(0, -1)

    def test_bad_coords_rejected(self):
        mesh = Mesh((2, 2))
        with pytest.raises(TopologyError):
            mesh.index((2, 0))
        with pytest.raises(TopologyError):
            mesh.index((0,))


class TestMeshDistances:
    def test_manhattan(self):
        mesh = Mesh((4, 4))
        assert mesh.distance(mesh.index((0, 0)), mesh.index((3, 3))) == 6
        assert mesh.distance(mesh.index((1, 2)), mesh.index((1, 2))) == 0

    def test_distance_row_matches_scalar(self):
        mesh = Mesh((3, 5))
        row = mesh.distance_row(7)
        for other in range(mesh.num_nodes):
            assert row[other] == mesh.distance(7, other)

    def test_diameter(self):
        assert Mesh((4, 4)).diameter() == 6
        assert Mesh((8, 8, 8)).diameter() == 21

    def test_expected_random_distance_matches_bruteforce(self):
        mesh = Mesh((3, 4))
        mat = mesh.distance_matrix()
        assert mesh.expected_random_distance() == pytest.approx(mat.mean())

    def test_average_distance_matches_matrix(self):
        mesh = Mesh((3, 3))
        assert mesh.average_distance() == pytest.approx(mesh.distance_matrix().mean())


class TestTorusDistances:
    def test_wraparound(self):
        torus = Torus((8, 8))
        assert torus.distance(torus.index((0, 0)), torus.index((7, 7))) == 2
        assert torus.distance(torus.index((0, 0)), torus.index((4, 4))) == 8

    def test_diameter(self):
        assert Torus((8, 8)).diameter() == 8
        assert Torus((16, 16, 16)).diameter() == 24  # the paper's 4k example

    def test_paper_average_distance_4k(self):
        # "a (16,16,16) 3D-torus on 4k processors has ... average internode
        # distance of 12 hops"
        assert Torus((16, 16, 16)).expected_random_distance() == pytest.approx(12.0)

    def test_expected_random_distance_even(self):
        assert Torus((8, 8)).expected_random_distance() == pytest.approx(4.0)

    def test_expected_random_distance_odd_matches_bruteforce(self):
        torus = Torus((5, 3))
        assert torus.expected_random_distance() == pytest.approx(
            torus.distance_matrix().mean()
        )

    def test_torus_never_exceeds_mesh_distance(self):
        mesh, torus = Mesh((5, 7)), Torus((5, 7))
        mesh_mat = mesh.distance_matrix()
        torus_mat = torus.distance_matrix()
        assert (torus_mat <= mesh_mat).all()


class TestDistanceMatrixBuild:
    """The broadcast-built matrix equals the per-node closed-form rows."""

    @pytest.mark.parametrize("cls", (Mesh, Torus))
    @pytest.mark.parametrize("shape", [
        (1,), (2,), (7,), (3, 1), (2, 5), (4, 4), (3, 2, 4), (2, 3, 2, 3),
    ], ids=lambda s: "x".join(map(str, s)))
    def test_matches_distance_rows(self, cls, shape):
        topo = cls(shape)
        rows = np.stack([topo.distance_row(v) for v in range(topo.num_nodes)])
        for dtype in (np.int32, np.float32, np.float64):
            mat = topo._build_distance_matrix(np.dtype(dtype))
            assert mat.dtype == dtype
            assert mat.shape == (topo.num_nodes, topo.num_nodes)
            np.testing.assert_array_equal(mat, rows)


class TestGridNeighbors:
    def test_mesh_corner_degree(self):
        mesh = Mesh((4, 4))
        assert mesh.degree(mesh.index((0, 0))) == 2
        assert mesh.degree(mesh.index((0, 1))) == 3
        assert mesh.degree(mesh.index((1, 1))) == 4

    def test_torus_uniform_degree(self):
        torus = Torus((4, 4, 4))
        for node in range(0, torus.num_nodes, 7):
            assert torus.degree(node) == 6

    def test_degenerate_axis_no_duplicate_links(self):
        # Extent-2 torus axis: +1 and -1 reach the same node; extent-1 has none.
        torus = Torus((2, 3))
        degs = {torus.degree(v) for v in range(6)}
        assert degs == {3}  # one neighbor on the 2-axis, two on the 3-ring
        line = Torus((1, 4))
        assert all(line.degree(v) == 2 for v in range(4))

    def test_neighbors_are_distance_one(self):
        for topo in (Mesh((3, 4)), Torus((4, 5))):
            for node in range(topo.num_nodes):
                for nbr in topo.neighbors(node):
                    assert topo.distance(node, nbr) == 1

    def test_links_count_mesh(self):
        # (r, c) mesh has r(c-1) + c(r-1) undirected links.
        mesh = Mesh((3, 4))
        assert mesh.num_links() == 3 * 3 + 4 * 2

    def test_links_count_torus(self):
        # Full torus (extents >= 3): every axis contributes p links.
        torus = Torus((4, 4))
        assert torus.num_links() == 2 * 16


class TestGridRouting:
    @pytest.mark.parametrize("topo", [Mesh((4, 4)), Torus((4, 4)), Torus((3, 4, 5))])
    def test_route_is_valid_path(self, topo):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = rng.integers(0, topo.num_nodes, size=2)
            path = topo.route(int(a), int(b))
            assert path[0] == a and path[-1] == b
            for u, v in zip(path, path[1:]):
                assert topo.distance(u, v) == 1

    @pytest.mark.parametrize("topo", [Mesh((5, 5)), Torus((6, 6))])
    def test_route_is_minimal(self, topo):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = rng.integers(0, topo.num_nodes, size=2)
            assert len(topo.route(int(a), int(b))) - 1 == topo.distance(int(a), int(b))

    def test_route_self_is_trivial(self):
        torus = Torus((4, 4))
        assert torus.route(5, 5) == [5]

    def test_torus_route_uses_wraparound(self):
        torus = Torus((8,))
        path = torus.route(0, 7)
        assert path == [0, 7]

    def test_dimension_order(self):
        mesh = Mesh((4, 4))
        path = mesh.route(mesh.index((0, 0)), mesh.index((2, 2)))
        coords = [mesh.coords(v) for v in path]
        # Axis 0 is corrected before axis 1.
        assert coords == [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]


class TestDistanceAxioms:
    @pytest.mark.parametrize(
        "topo", [Mesh((4, 5)), Torus((4, 4)), Torus((3, 5, 2)), Mesh((7,))]
    )
    def test_axioms_hold(self, topo):
        topo.validate_distance_axioms(sample=64)

    def test_distance_matrix_symmetric(self):
        torus = Torus((4, 5))
        mat = torus.distance_matrix()
        assert (mat == mat.T).all()
        assert (np.diag(mat) == 0).all()
