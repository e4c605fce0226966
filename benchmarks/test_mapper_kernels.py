"""Kernel micro-benchmark: production vs reference mapper paths.

CI's smoke job runs this to catch a production-kernel performance
regression: TopoLB's compiled cycle body (what ``vectorized`` runs) and
RefineTopoLB's ``incremental`` sweep (which the ``vectorized`` name resolves
to for the refiner) exist *only* to be faster, so "production not slower
than reference" is a hard invariant here at every estimator order (with a
generous noise margin — CI boxes are shared and single runs jitter). On the
10^3 stencil the compiled TopoLB body must also beat the reference at least
2x at orders 1 and 2, the orders people run. ``docs/PERFORMANCE.md``
documents the full measurement protocol behind the recorded
``BENCH_kernels_*.json`` artifacts; this file is the cheap sentinel, not
the recorded claim.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mapping import RefineTopoLB, TopoLB
from repro.mapping.estimation import EstimatorOrder
from repro.taskgraph import mesh3d_pattern
from repro.taskgraph.random_graphs import geometric_taskgraph
from repro.topology import Torus

#: Allowed vectorized/reference wall-time ratio. Anything under 1.0 means
#: the vectorized path won; the slack only absorbs scheduler noise on the
#: shared CI runner (locally the ratio sits well below 0.5).
NOISE_MARGIN = 1.1

#: Smoke-scale copy of the recorded benchmark config (512 tasks there).
N_TASKS = 128

#: Required reference/native wall-time ratio for TopoLB orders 1/2 on the
#: 10^3 stencil (about 7x measured on a 2-vCPU x86-64 host).
NATIVE_SPEEDUP = 2.0

ORDERS = [EstimatorOrder.FIRST, EstimatorOrder.SECOND, EstimatorOrder.THIRD]


@pytest.fixture(scope="module")
def instance():
    graph = geometric_taskgraph(N_TASKS, radius=0.2, seed=42)
    topo = Torus((8, 4, 4))
    return graph, topo


def _stencil(side: int):
    """``mesh3d`` stencil on the matching torus: the symmetric instance
    whose tie classes made the old batched kernel 2x slower than the
    reference at orders 1 and 2."""
    return (mesh3d_pattern(side, side, side, message_bytes=1024),
            Torus((side, side, side)))


def _require_native():
    from repro.mapping import _native

    if not _native.available():
        pytest.skip("compiled kernels unavailable: production is the reference")


def _best_of(fn, repeats: int = 3) -> float:
    """Min wall time over ``repeats`` runs — the standard noise filter for
    micro-benchmarks (the minimum is the least-contended run)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _assert_topolb_not_slower(benchmark, graph, topo, order, label):
    ref = TopoLB(order=order, kernel="reference")
    vec = TopoLB(order=order, kernel="vectorized")
    # Warm the shared topology tables so neither kernel pays them.
    ref_mapping = ref.map(graph, topo)

    t_ref = _best_of(lambda: ref.map(graph, topo))
    t_vec = _best_of(lambda: vec.map(graph, topo))
    # Attach the production run to pytest-benchmark's reporting (works with
    # and without --benchmark-disable).
    vec_mapping = benchmark.pedantic(
        vec.map, args=(graph, topo), rounds=1, iterations=1
    )

    np.testing.assert_array_equal(vec_mapping.assignment, ref_mapping.assignment)
    assert t_vec <= t_ref * NOISE_MARGIN, (
        f"production TopoLB({order.name}) on {label} took "
        f"{t_vec * 1e3:.1f} ms vs reference {t_ref * 1e3:.1f} ms"
    )


@pytest.mark.parametrize("order", ORDERS)
def test_topolb_vectorized_not_slower(benchmark, instance, order):
    graph, topo = instance
    _assert_topolb_not_slower(benchmark, graph, topo, order, "geometric-128")


@pytest.mark.parametrize("order", ORDERS)
def test_topolb_stencil_not_slower(benchmark, order):
    graph, topo = _stencil(8)
    _assert_topolb_not_slower(benchmark, graph, topo, order, "mesh3d 8^3")


@pytest.mark.parametrize("order", [EstimatorOrder.FIRST, EstimatorOrder.SECOND])
def test_topolb_native_twice_as_fast_on_stencil(order):
    _require_native()
    graph, topo = _stencil(10)
    ref = TopoLB(order=order, kernel="reference")
    nat = TopoLB(order=order, kernel="vectorized")
    np.testing.assert_array_equal(
        nat.map(graph, topo).assignment, ref.map(graph, topo).assignment)

    t_ref = _best_of(lambda: ref.map(graph, topo))
    t_nat = _best_of(lambda: nat.map(graph, topo))
    assert t_ref >= NATIVE_SPEEDUP * t_nat, (
        f"native TopoLB({order.name}) on mesh3d 10^3 took "
        f"{t_nat * 1e3:.1f} ms vs reference {t_ref * 1e3:.1f} ms "
        f"(< {NATIVE_SPEEDUP}x)"
    )


def test_refine_vectorized_not_slower(benchmark, instance):
    graph, topo = instance
    # Refine a TopoLB placement — how every registered pipeline invokes the
    # refiner. ``vectorized`` names the refiner's incremental sweep; the
    # comparator is the reference oracle, as before.
    start = TopoLB().map(graph, topo)
    ref = RefineTopoLB(kernel="reference", seed=1)
    vec = RefineTopoLB(kernel="vectorized", seed=1)
    ref_mapping = ref.refine(start)

    t_ref = _best_of(lambda: ref.refine(start))
    t_vec = _best_of(lambda: vec.refine(start))
    vec_mapping = benchmark.pedantic(
        vec.refine, args=(start,), rounds=1, iterations=1
    )

    np.testing.assert_array_equal(vec_mapping.assignment, ref_mapping.assignment)
    assert t_vec <= t_ref * NOISE_MARGIN, (
        f"vectorized refine took {t_vec * 1e3:.1f} ms vs "
        f"reference {t_ref * 1e3:.1f} ms"
    )
