"""Production-vs-reference kernel equivalence.

The production kernels (TopoLB's compiled cycle body, RefineTopoLB
``incremental`` compiled and in NumPy) are only allowed to exist because
they are *proven*
interchangeable with the scalar reference paths: every test here pins the
two to **bit-identical assignments** (not merely equal hop-bytes) across
estimator orders, selection rules, fest dtypes, instance shapes and
degraded machines — including symmetric instances whose massive score ties
are where a batched reimplementation would first diverge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MappingError
from repro.mapping import RandomMapper, RefineTopoLB, TopoLB
from repro.mapping.estimation import EstimatorOrder
from repro.mapping.kernels import (
    DEFAULT_KERNEL,
    KERNELS,
    get_default_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.taskgraph import (
    TaskGraph,
    mesh2d_pattern,
    mesh3d_pattern,
    random_taskgraph,
)
from repro.taskgraph.random_graphs import geometric_taskgraph
from repro.topology import Hypercube, Mesh, Torus

ORDERS = (EstimatorOrder.FIRST, EstimatorOrder.SECOND, EstimatorOrder.THIRD)
SELECTIONS = ("gain", "max_cost", "volume")
DTYPES = (np.float64, np.float32)


def _instances():
    """(label, graph, topology) shape grid.

    The torus/mesh pattern pairs are maximally symmetric — every row of the
    initial fest table ties with dozens of others, so any divergence in
    tie-breaking between the kernels shows up immediately. The random and
    geometric instances cover irregular degrees and weights.
    """
    return [
        ("torus4x4-mesh2d", mesh2d_pattern(4, 4), Torus((4, 4))),
        ("mesh2x3x2-mesh3d", mesh3d_pattern(2, 3, 2), Mesh((2, 3, 2))),
        ("hypercube16-random", random_taskgraph(16, edge_prob=0.35, seed=5),
         Hypercube(4)),
        ("torus4x4x2-geometric", geometric_taskgraph(32, radius=0.35, seed=9),
         Torus((4, 4, 2))),
    ]


class TestTopoLBEquivalence:
    @pytest.mark.parametrize("label,graph,topo",
                             _instances(), ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_assignments_bit_identical(self, label, graph, topo, order, selection):
        for dtype in DTYPES:
            ref = TopoLB(order=order, selection=selection, dtype=dtype,
                         kernel="reference").map(graph, topo)
            vec = TopoLB(order=order, selection=selection, dtype=dtype,
                         kernel="vectorized").map(graph, topo)
            np.testing.assert_array_equal(
                vec.assignment, ref.assignment,
                err_msg=f"{label} order={order} selection={selection} "
                        f"dtype={np.dtype(dtype)}",
            )

    def test_symmetric_tie_break_worst_case(self):
        """Fully symmetric instance: every initial fest row is identical, so
        the whole run is tie-breaking. The kernels must walk the exact same
        (value, id) order through all of it."""
        graph = mesh2d_pattern(4, 4, message_bytes=1.0)
        topo = Torus((4, 4))
        for order in ORDERS:
            ref = TopoLB(order=order, kernel="reference").map(graph, topo)
            vec = TopoLB(order=order, kernel="vectorized").map(graph, topo)
            np.testing.assert_array_equal(vec.assignment, ref.assignment)


def _topolb_grid():
    """(label, graph, topology, allowed) for the full native-vs-reference
    grid: the shape grid, symmetric-tie stencils (every initial fest row
    ties with dozens of others), an explicit mask on a pristine machine
    with fewer tasks than allowed processors, and degraded machines whose
    mask is auto-derived."""
    from repro.faults import DegradedTopology, FaultSet

    deg = DegradedTopology(
        Torus((4, 4)), FaultSet(dead_nodes=[5, 10], dead_links=[(0, 1)]))
    deg3 = DegradedTopology(Torus((4, 4, 2)), FaultSet(dead_nodes=[0, 17, 31]))
    mask = np.ones(32, dtype=bool)
    mask[[3, 8, 9, 20, 27]] = False
    grid = [(label, g, t, None) for label, g, t in _instances()]
    return grid + [
        ("torus4x4x4-mesh3d-ties", mesh3d_pattern(4, 4, 4, message_bytes=1.0),
         Torus((4, 4, 4)), None),
        ("torus6x6-mesh2d-ties", mesh2d_pattern(6, 6, message_bytes=1.0),
         Torus((6, 6)), None),
        ("mesh5x5-mesh2d-ties", mesh2d_pattern(5, 5), Mesh((5, 5)), None),
        ("masked-torus4x4x2-random",
         random_taskgraph(24, edge_prob=0.2, seed=12), Torus((4, 4, 2)), mask),
        ("degraded-torus4x4-random",
         random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=2), deg, None),
        ("degraded-torus4x4x2-mesh", mesh2d_pattern(4, 7), deg3, None),
    ]


def _map_both(graph, topo, allowed, path, monkeypatch, **options):
    """(reference, production) assignments; the production run is forced
    through the body ``path`` names: the native body must not fall back, and
    under ``REPRO_NO_NATIVE`` the reference fallback must be what runs."""
    from repro.mapping import _native

    ref = TopoLB(kernel="reference", **options).map(graph, topo, allowed)
    with monkeypatch.context() as m:
        if path == "native":
            if _native.load() is None:
                pytest.skip("compiled kernels unavailable")
            m.setattr(TopoLB, "_run_reference", _forbidden)
        else:
            m.setenv("REPRO_NO_NATIVE", "1")
            m.setattr(TopoLB, "_run_native", _forbidden)
        got = TopoLB(kernel="vectorized", **options).map(graph, topo, allowed)
    return ref.assignment, got.assignment


def _forbidden(*args, **kwargs):
    raise AssertionError("the production kernel dispatched to the wrong body")


class TestNativeTopoLB:
    """The compiled cycle body, and the reference fallback it dispatches to
    when unavailable, are bit-identical to the reference across orders,
    selections, fest dtypes, masks and degraded machines."""

    @pytest.mark.parametrize("label,graph,topo,allowed", _topolb_grid(),
                             ids=lambda v: v if isinstance(v, str) else "")
    @pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"order{int(o)}")
    @pytest.mark.parametrize("selection", SELECTIONS)
    @pytest.mark.parametrize("path", ("native", "no-native"))
    def test_native_matches_reference(self, label, graph, topo, allowed,
                                      order, selection, path, monkeypatch):
        for dtype in DTYPES:
            ref, got = _map_both(graph, topo, allowed, path, monkeypatch,
                                 order=order, selection=selection, dtype=dtype)
            np.testing.assert_array_equal(
                got, ref, err_msg=f"{label} {path} order={order} "
                                  f"selection={selection} dtype={np.dtype(dtype)}")

    def test_counters_match_reference(self, monkeypatch):
        """The compiled body books the reference's lazy-repair telemetry."""
        from repro import obs
        from repro.mapping import _native

        if _native.load() is None:
            pytest.skip("compiled kernels unavailable")
        graph, topo = mesh3d_pattern(4, 4, 4), Torus((4, 4, 4))
        counters = {}
        for kernel in ("reference", "vectorized"):
            prof = obs.enable()
            try:
                TopoLB(kernel=kernel).map(graph, topo)
            finally:
                obs.disable()
            counters[kernel] = {k: v for k, v in prof.counters.items()
                                if k.startswith("topolb.")}
        assert counters["vectorized"] == counters["reference"]
        assert counters["reference"]["topolb.cycles"] == 64

    def test_state_binding_checks_arrays(self):
        """Wrong element types, strided views and missing arrays are refused
        before any address reaches C."""
        from repro.mapping._native import TopoLBState

        arrays = {name: np.zeros(4, dtype=TopoLBState._TYPES.get(name, np.float32))
                  for name in TopoLBState._ARRAYS}
        TopoLBState.bind(np.float32, arrays, n=4, p=4)
        for name, bad in (("weights", np.zeros(4, dtype=np.float32)),
                          ("fest", np.zeros(4, dtype=np.float64)),
                          ("dirty", np.zeros(8, dtype=np.int64)[::2])):
            with pytest.raises(ValueError, match=name):
                TopoLBState.bind(np.float32, {**arrays, name: bad})
        del arrays["mark"]
        with pytest.raises(ValueError):
            TopoLBState.bind(np.float32, arrays)

    def test_float16_runs_the_reference(self, monkeypatch):
        """The compiled body exists for float32/float64 tables only."""
        monkeypatch.setattr(TopoLB, "_run_native", _forbidden)
        graph, topo = mesh2d_pattern(4, 4), Torus((4, 4))
        got = TopoLB(dtype=np.float16).map(graph, topo)
        ref = TopoLB(dtype=np.float16, kernel="reference").map(graph, topo)
        np.testing.assert_array_equal(got.assignment, ref.assignment)


_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4), (4, 4), (2, 3, 3))


@st.composite
def _tied_instances(draw):
    """Random graphs whose integer weights tie often and include 0."""
    shape = draw(st.sampled_from(_SHAPES))
    topo = (Torus if draw(st.booleans()) else Mesh)(shape)
    p = topo.num_nodes
    n = draw(st.integers(2, p))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(chosen),
                            max_size=len(chosen)))
    graph = TaskGraph(n, [(a, b, float(w)) for (a, b), w in zip(chosen, weights)])
    allowed = None
    if n < p:
        dead = draw(st.lists(st.integers(0, p - 1), max_size=p - n, unique=True))
        allowed = np.ones(p, dtype=bool)
        allowed[dead] = False
    return graph, topo, allowed


@settings(max_examples=60, deadline=None)
@given(_tied_instances(), st.sampled_from(ORDERS), st.sampled_from(SELECTIONS),
       st.sampled_from(DTYPES))
def test_property_native_matches_reference(instance, order, selection, dtype):
    graph, topo, allowed = instance
    options = dict(order=order, selection=selection, dtype=dtype)
    ref = TopoLB(kernel="reference", **options).map(graph, topo, allowed)
    got = TopoLB(kernel="vectorized", **options).map(graph, topo, allowed)
    np.testing.assert_array_equal(got.assignment, ref.assignment)


def _refine_instances():
    """(label, graph, topology) grid for the refine oracle: the shared shape
    grid plus a swap-heavy geometric instance and a degraded machine, where
    the auto-derived allowed mask is in force."""
    from repro.faults import DegradedTopology, FaultSet

    deg = DegradedTopology(
        Torus((4, 4)), FaultSet(dead_nodes=[5, 10], dead_links=[(0, 1)])
    )
    return _instances() + [
        ("mesh6x8-geometric", geometric_taskgraph(48, radius=0.3, seed=3),
         Mesh((6, 8))),
        ("degraded-torus4x4-random",
         random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=6), deg),
    ]


class TestRefineEquivalence:
    """The production refine sweep (compiled, and its NumPy fallback) lands
    bit-identically on the reference kernel from every start: a random
    placement (many swaps per sweep) and TopoLB placements at every
    estimator order and fest dtype (few, late swaps)."""

    @pytest.mark.parametrize("graph,topo", [
        pytest.param(graph, topo, id=label)
        for label, graph, topo in _refine_instances()
    ])
    @pytest.mark.parametrize("path", ("native", "numpy"))
    def test_production_matches_reference(self, graph, topo, path,
                                          monkeypatch):
        from repro.mapping import _native

        if path == "numpy":
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        elif _native.load() is None:
            pytest.skip("compiled kernels unavailable")
        starts = [("random", RandomMapper(seed=11).map(graph, topo))] + [
            (f"topolb order={order} dtype={np.dtype(dtype)}",
             TopoLB(order=order, dtype=dtype).map(graph, topo))
            for order in ORDERS for dtype in DTYPES
        ]
        for start_label, start in starts:
            ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
            got = RefineTopoLB(kernel="incremental", seed=1).refine(start)
            np.testing.assert_array_equal(
                got.assignment, ref.assignment,
                err_msg=f"from {start_label} ({path})",
            )

    @pytest.mark.parametrize("block_size", (1, 7, 64, 512))
    def test_block_sweep_matches_reference(self, block_size, monkeypatch):
        """The NumPy sweep brings cached rows current in blocks of
        ``_CHUNK``; block size must never change the result."""
        from repro.mapping import refine

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        monkeypatch.setattr(refine, "_CHUNK", block_size)
        graph = geometric_taskgraph(48, radius=0.3, seed=3)
        topo = Mesh((6, 8))
        # A random start leaves plenty of improving swaps, so the block
        # sweep's discard-and-refetch machinery is exercised hard.
        start = RandomMapper(seed=11).map(graph, topo)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        got = RefineTopoLB(kernel="incremental", seed=1).refine(start)
        np.testing.assert_array_equal(got.assignment, ref.assignment)

    def test_incremental_matches_reference(self):
        graph = geometric_taskgraph(48, radius=0.3, seed=3)
        topo = Mesh((6, 8))
        start = RandomMapper(seed=11).map(graph, topo)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        inc = RefineTopoLB(kernel="incremental", seed=1).refine(start)
        np.testing.assert_array_equal(inc.assignment, ref.assignment)

    def test_converged_input_is_noop_for_all(self):
        graph = mesh2d_pattern(4, 4)
        topo = Torus((4, 4))
        first = RefineTopoLB(kernel="reference", seed=0).refine(
            TopoLB().map(graph, topo))
        for kernel in KERNELS:
            again = RefineTopoLB(kernel=kernel, seed=0).refine(first)
            np.testing.assert_array_equal(
                again.assignment, first.assignment, err_msg=kernel)


class TestIncrementalNative:
    """The compiled incremental kernel and its pure-numpy fallback are the
    same algorithm twice; both must land bit-identically on the reference
    path's result whether or not a C compiler is around."""

    def _instances(self):
        insts = [(geometric_taskgraph(48, radius=0.3, seed=3), Mesh((6, 8))),
                 (random_taskgraph(64, edge_prob=0.12, seed=8), Torus((8, 8))),
                 (mesh3d_pattern(4, 4, 4), Torus((4, 4, 4)))]
        return [(g, t, RandomMapper(seed=11).map(g, t)) for g, t in insts]

    def test_fallback_matches_native(self, monkeypatch):
        for graph, topo, start in self._instances():
            native = RefineTopoLB(kernel="incremental", seed=1).refine(start)
            with monkeypatch.context() as m:
                m.setenv("REPRO_NO_NATIVE", "1")
                fallback = RefineTopoLB(kernel="incremental",
                                        seed=1).refine(start)
            np.testing.assert_array_equal(
                fallback.assignment, native.assignment)

    def test_native_loader_is_memoized_and_gated(self, monkeypatch):
        from repro.mapping import _native

        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert _native.load() is None
        assert not _native.available()
        monkeypatch.delenv("REPRO_NO_NATIVE")
        first = _native.load()
        if first is not None:  # no compiler on this host -> both stay None
            assert _native.load() is first
            assert _native.available()


class TestMaskedEquivalence:
    """The allowed-processor mask (degraded machines) preserves equivalence."""

    def _degraded(self):
        from repro.faults import DegradedTopology, FaultSet

        base = Torus((4, 4))
        faults = FaultSet(dead_nodes=[5, 10], dead_links=[(0, 1)])
        return DegradedTopology(base, faults)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("selection", SELECTIONS)
    def test_topolb_masked_bit_identical(self, order, selection):
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=2)
        for dtype in DTYPES:
            ref = TopoLB(order=order, selection=selection, dtype=dtype,
                         kernel="reference").map(graph, deg)
            vec = TopoLB(order=order, selection=selection, dtype=dtype,
                         kernel="vectorized").map(graph, deg)
            np.testing.assert_array_equal(
                vec.assignment, ref.assignment,
                err_msg=f"masked order={order} selection={selection} "
                        f"dtype={np.dtype(dtype)}",
            )
            assert deg.allowed_mask()[vec.assignment].all()

    def test_topolb_masked_underfull(self):
        """Fewer tasks than healthy processors (n < p')."""
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy - 3, edge_prob=0.3, seed=4)
        ref = TopoLB(kernel="reference").map(graph, deg)
        vec = TopoLB(kernel="vectorized").map(graph, deg)
        np.testing.assert_array_equal(vec.assignment, ref.assignment)

    @pytest.mark.parametrize("seed", (1, 7, 64))
    def test_refine_masked_bit_identical(self, seed):
        """Every sweep order (the refine seed) agrees with the reference
        and keeps every task on a healthy processor."""
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=6)
        start = RandomMapper(seed=11).map(graph, deg)
        ref = RefineTopoLB(kernel="reference", seed=seed).refine(start)
        got = RefineTopoLB(seed=seed).refine(start)
        np.testing.assert_array_equal(got.assignment, ref.assignment)
        assert deg.allowed_mask()[got.assignment].all()

    def test_refine_masked_incremental(self, monkeypatch):
        deg = self._degraded()
        graph = random_taskgraph(deg.num_healthy, edge_prob=0.3, seed=6)
        start = RandomMapper(seed=11).map(graph, deg)
        ref = RefineTopoLB(kernel="reference", seed=1).refine(start)
        inc = RefineTopoLB(kernel="incremental", seed=1).refine(start)
        np.testing.assert_array_equal(inc.assignment, ref.assignment)
        assert deg.allowed_mask()[inc.assignment].all()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        fallback = RefineTopoLB(kernel="incremental", seed=1).refine(start)
        np.testing.assert_array_equal(fallback.assignment, ref.assignment)


class TestKernelSelection:
    def test_invalid_kernel_rejected(self):
        with pytest.raises(MappingError):
            TopoLB(kernel="simd")
        with pytest.raises(MappingError):
            RefineTopoLB(kernel="fortran")
        with pytest.raises(MappingError):
            resolve_kernel("nope")

    def test_default_kernel_resolution(self):
        assert DEFAULT_KERNEL == "vectorized"
        assert get_default_kernel() in KERNELS
        previous = set_default_kernel("reference")
        try:
            assert previous == "vectorized"
            # kernel=None resolves against the process default at
            # construction time; explicit names always win.
            assert TopoLB().kernel == "reference"
            assert RefineTopoLB().kernel == "reference"
            assert TopoLB(kernel="vectorized").kernel == "vectorized"
        finally:
            set_default_kernel(previous)
        assert TopoLB().kernel == "vectorized"

    def test_refine_has_two_paths(self):
        """RefineTopoLB keeps ``reference`` as the oracle; every other
        kernel name, the process default included, is the incremental
        sweep."""
        assert RefineTopoLB(kernel="reference").kernel == "reference"
        for name in ("vectorized", "incremental", None):
            assert RefineTopoLB(kernel=name).kernel == "incremental"
        with pytest.raises(TypeError):
            RefineTopoLB(block_size=64)

    def test_set_default_kernel_validates(self):
        with pytest.raises(MappingError):
            set_default_kernel("scalar")
        assert get_default_kernel() == "vectorized"

    def test_kernel_fixed_at_construction(self):
        mapper = TopoLB()
        prev = set_default_kernel("reference")
        try:
            # Flipping the default later never changes an existing mapper.
            assert mapper.kernel == "vectorized"
        finally:
            set_default_kernel(prev)
