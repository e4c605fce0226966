"""TopoLB — the paper's mapping heuristic (Algorithm 1, Section 4).

Every cycle TopoLB picks the unplaced task whose placement is *most
critical*: the one with the largest gap between its expected cost on an
arbitrary free processor (``FAvg``) and its cost on its best free processor
(``FMin``), then places it on that best processor. Costs come from the
estimation function of Section 4.3 (see :mod:`repro.mapping.estimation`).

Implementation follows Section 4.4: a ``p x p`` table of ``fest(t, q)``
values is maintained incrementally —

* placing ``t_k`` on ``p_k`` only perturbs the rows of ``t_k``'s unplaced
  neighbors (their edge to ``t_k`` switches from the "expected distance" term
  to the exact ``c * d(q, p_k)`` term), costing ``O(p * deg(t_k))`` per cycle
  and ``O(p |Et|)`` overall for the first/second-order estimators;
* the third-order estimator additionally refreshes every row because the
  free-processor average distance changes when ``p_k`` is consumed —
  ``O(p^2)`` per cycle, ``O(p^3)`` overall (why the paper ships 2nd order).

Selection state (``FMin``, ``FAvg`` per row) is maintained across cycles;
when the consumed processor was some row's argmin, the row steps to the next
entry of its cached candidate reserve, and only an exhausted reserve (or a
row whose values changed) is re-reduced.

Two kernels implement the cycle body (see :mod:`repro.mapping.kernels`):

* the **native** body — the reference cycle compiled to C
  (``topolb_cycle_*`` in ``refine_kernel.c``, loaded by
  :mod:`repro.mapping._native`), one call per cycle over arrays bound once;
  the kernel names ``"vectorized"`` (default) and ``"incremental"`` run it;
* ``"reference"`` — the original scalar loops, the executable specification
  and test oracle.

Both produce bit-identical assignments (the equivalence suite enforces it).
When no C compiler is available, ``REPRO_NO_NATIVE`` is set, or the fest
dtype is neither float32 nor float64, every kernel name runs the reference
body.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from repro import obs
from repro.exceptions import MappingError
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping, resolve_allowed
from repro.mapping.context import MappingContext, context_for
from repro.mapping.estimation import EstimatorOrder
from repro.mapping.kernels import resolve_kernel
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology

__all__ = ["TopoLB"]


#: Valid task-selection rules (see TopoLB docstring); the position is the
#: rule's code in the compiled cycle body.
_SELECTION_RULES = ("gain", "max_cost", "volume")

#: Profiler counters, in the order of the compiled body's ``stats`` array.
_COUNTERS = ("topolb.cycles", "topolb.reserve_hits", "topolb.reserve_exhaustions",
             "topolb.rows_rebuilt", "topolb.neighbor_updates")

#: fest dtypes the compiled body is built for; others run the reference.
_NATIVE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class TopoLB(Mapper):
    """The paper's topology-aware mapper.

    Parameters
    ----------
    order:
        Which estimation function to use (default: second order, the paper's
        shipped configuration).
    dtype:
        Floating dtype of the ``fest`` table; ``numpy.float32`` halves memory
        for large machines at a tiny quality risk.
    selection:
        Which unplaced task each cycle picks — an ablation hook around the
        paper's core design decision:

        * ``"gain"`` (the paper): maximum criticality ``FAvg - FMin`` — the
          task that loses the most if deferred to an arbitrary processor;
        * ``"max_cost"``: maximum ``FMin`` — the task whose *best* placement
          is already costliest ("hardest first");
        * ``"volume"``: maximum total communication volume ("chattiest
          first", selection decoupled from the topology).
    kernel:
        ``"vectorized"`` or ``"incremental"`` (the compiled cycle body, with
        the reference as its fallback), ``"reference"`` (the original scalar
        loops), or ``None`` for the default
        (:func:`repro.mapping.kernels.get_default_kernel`).
    """

    strategy_name = "TopoLB"

    def __init__(
        self,
        order: EstimatorOrder | int = EstimatorOrder.SECOND,
        dtype: type = np.float64,
        selection: str = "gain",
        kernel: str | None = None,
    ):
        self._order = EstimatorOrder(order)
        self._dtype = np.dtype(dtype)
        if self._dtype.kind != "f":
            raise MappingError(f"fest table dtype must be floating, got {dtype!r}")
        if selection not in _SELECTION_RULES:
            raise MappingError(
                f"selection must be one of {_SELECTION_RULES}, got {selection!r}"
            )
        self._selection = selection
        self._kernel = resolve_kernel(kernel)

    @property
    def order(self) -> EstimatorOrder:
        """The configured estimator order."""
        return self._order

    @property
    def selection(self) -> str:
        """The configured task-selection rule."""
        return self._selection

    @property
    def kernel(self) -> str:
        """The resolved kernel name; every name but "reference" runs the
        compiled body when it is available."""
        return self._kernel

    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        allowed: np.ndarray | None = None,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Map ``graph`` onto ``topology``.

        ``allowed`` restricts placement to a boolean processor mask (degraded
        machines); ``None`` auto-derives the mask from a
        :class:`~repro.faults.DegradedTopology` and means "every processor"
        elsewhere. Masked runs place ``n <= p'`` tasks onto the ``p'``
        allowed processors and raise :class:`MappingError` when capacity is
        insufficient. ``ctx`` supplies shared per-(graph, topology) tables;
        ``None`` uses the process-wide shared context.
        """
        allowed = resolve_allowed(topology, allowed)
        n = self._check_sizes(graph, topology, allowed)
        if ctx is None:
            ctx = context_for(graph, topology)
        native = None
        if self._kernel != "reference" and self._dtype in _NATIVE_DTYPES:
            native = _native.load()
        run = (self._run_reference if native is None
               else functools.partial(self._run_native, native=native))
        prof = obs.active()
        if prof is None:
            assignment = run(graph, topology, n, allowed=allowed, ctx=ctx)
        else:
            with prof.timer("topolb.map"):
                assignment = run(graph, topology, n, prof, allowed=allowed, ctx=ctx)
        return Mapping(graph, topology, assignment)

    # ------------------------------------------------------------------ core
    #: Cached candidate minima per row. When a row's best free processor is
    #: consumed, the next cached candidate takes over in O(1); a full O(p)
    #: row rescan happens only when the whole reserve has been consumed —
    #: this is what keeps the symmetric-instance worst case (hundreds of rows
    #: sharing one argmin) from degrading every cycle to O(n p).
    _RESERVE = 8

    def _setup(self, graph: TaskGraph, topology: Topology, n: int,
               allowed: np.ndarray | None = None,
               ctx: MappingContext | None = None):
        """Shared kernel state: fest table, selection vectors, reserve arrays."""
        if ctx is None:
            ctx = context_for(graph, topology)
        dist = ctx.distance_matrix(self._dtype)
        indptr, indices, weights = ctx.csr_arrays()

        order = self._order
        # Bytes from each task to its not-yet-placed neighbors.
        unplaced_comm = graph.comm_volumes().astype(self._dtype)

        # copy=False: the cast is a no-op for float64 tables, and avg_all is
        # never mutated, so aliasing the shared read-only vector is safe
        # (avg_free, which the third-order path does mutate, is a real copy).
        # Masked runs take the expectation over the *allowed* set — the
        # "arbitrary processor" a deferred task could land on is a healthy
        # one — which is a per-fault-pattern vector, computed fresh (cheap,
        # O(p * p'), and never shared-cached under the pristine key).
        if allowed is None:
            avg_all = ctx.average_distance_vector().astype(self._dtype, copy=False)
        else:
            avg_all = ctx.average_distance_vector(allowed).astype(
                self._dtype, copy=False
            )
        avg_free = avg_all.copy()  # only consulted by the third-order path

        # fest table: rows = tasks, columns = processors (p columns; equal to
        # n in the classic unmasked case).
        p = topology.num_nodes
        if order is EstimatorOrder.FIRST:
            fest = np.zeros((n, p), dtype=self._dtype)
        else:
            # outer() of two dtype arrays is already dtype: no astype copy.
            fest = np.outer(unplaced_comm, avg_free)
        return dist, indptr, indices, weights, unplaced_comm, avg_all, avg_free, fest

    def _run_reference(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> np.ndarray:
        """The original scalar cycle body — kept verbatim as the executable
        specification the native body is tested against, and the fallback
        when no compiled body is available."""
        (dist, indptr, indices, weights, unplaced_comm,
         avg_all, avg_free, fest) = self._setup(graph, topology, n, allowed, ctx)
        order = self._order
        p = topology.num_nodes

        avail = np.ones(p, dtype=bool) if allowed is None else allowed.copy()
        unassigned = np.ones(n, dtype=bool)
        avail_count = int(avail.sum())
        assignment = np.full(n, -1, dtype=np.int64)
        # Additive penalty pushing consumed processors out of row minima
        # (dtype-aware so float32 tables don't overflow). Disallowed
        # processors start penalized, which keeps them out of every reserve
        # and argmin for the whole run — the reserve never needs more than
        # n <= p' candidates, so the genuine (allowed) entries always fill it
        # ahead of penalized ones.
        huge = np.finfo(self._dtype).max / 16
        penalty = np.zeros(p, dtype=self._dtype)
        if allowed is not None:
            penalty[~avail] = huge

        # Row sums over the *free* columns: all p columns in the classic
        # case, the allowed subset under a mask (disallowed columns are
        # never consumed, so the incremental "-= fest[:, pk]" bookkeeping
        # stays consistent only if they are excluded from the start).
        if allowed is None:
            f_sum = fest.sum(axis=1)
        else:
            f_sum = fest @ avail.astype(self._dtype)
        f_min = np.empty(n, dtype=self._dtype)
        f_argmin = np.empty(n, dtype=np.int64)

        reserve = min(self._RESERVE, n)
        res_vals = np.empty((n, reserve), dtype=self._dtype)
        res_ids = np.empty((n, reserve), dtype=np.int64)
        res_pos = np.zeros(n, dtype=np.int64)

        def rebuild(rows: np.ndarray) -> None:
            """Recompute the cached smallest-`reserve` free processors per row.

            A *stable* full sort breaks value ties by the lowest processor id
            — the same deterministic choice a plain ``argmin`` scan makes —
            which matters on symmetric instances where huge tie classes arise
            and the tie-break decides the growth pattern.
            """
            block = fest[rows] + penalty
            ids = np.argsort(block, axis=1, kind="stable")[:, :reserve]
            res_ids[rows] = ids
            res_vals[rows] = np.take_along_axis(block, ids, axis=1)
            res_pos[rows] = 0
            f_min[rows] = res_vals[rows, 0]
            f_argmin[rows] = res_ids[rows, 0]

        rebuild(np.arange(n))

        static_volumes = graph.comm_volumes()
        neg_inf = -np.inf
        # Lazy-repair telemetry (flushed to ``prof`` once, after the loop).
        cycles = reserve_hits = reserve_exhaustions = 0
        rows_rebuilt = neighbor_updates = 0
        for _cycle in range(n):
            # --- select the next task (default: max criticality gain) ------
            if self._selection == "gain":
                score = f_sum / avail_count - f_min
            elif self._selection == "max_cost":
                score = f_min
            else:  # "volume"
                score = static_volumes
            tk = int(np.argmax(np.where(unassigned, score, neg_inf)))
            pk = int(f_argmin[tk])
            assignment[tk] = pk
            unassigned[tk] = False
            avail[pk] = False
            avail_count -= 1
            if prof is not None:
                cycles += 1
            if avail_count == 0:
                break
            penalty[pk] = huge

            # --- processor pk leaves the free set --------------------------
            f_sum -= fest[:, pk]
            rescan: list[int] = []
            stale_rows = np.flatnonzero(unassigned & (f_argmin == pk))
            for t in stale_rows:
                t = int(t)
                pos = int(res_pos[t]) + 1
                while pos < reserve and not avail[res_ids[t, pos]]:
                    pos += 1
                if pos < reserve:
                    res_pos[t] = pos
                    f_min[t] = res_vals[t, pos]
                    f_argmin[t] = res_ids[t, pos]
                else:
                    rescan.append(t)
            if prof is not None:
                reserve_exhaustions += len(rescan)
                reserve_hits += len(stale_rows) - len(rescan)

            # --- neighbor rows: the (j, tk) edge cost becomes exact --------
            lo, hi = indptr[tk], indptr[tk + 1]
            dist_pk = dist[pk]
            touched: list[int] = []
            for j, c in zip(indices[lo:hi], weights[lo:hi]):
                j = int(j)
                if not unassigned[j]:
                    continue
                if order is EstimatorOrder.FIRST:
                    fest[j] += c * dist_pk
                elif order is EstimatorOrder.SECOND:
                    fest[j] += c * (dist_pk - avg_all)
                else:
                    fest[j] += c * (dist_pk - avg_free)
                unplaced_comm[j] -= c
                touched.append(j)
            if prof is not None:
                neighbor_updates += len(touched)

            if order is EstimatorOrder.THIRD:
                # Free-processor average shrinks by pk's contribution; every
                # row's expected-distance term shifts accordingly (O(p^2)).
                new_avg = (avg_free * (avail_count + 1) - dist_pk) / avail_count
                delta = new_avg - avg_free
                avg_free = new_avg
                rows = np.flatnonzero(unassigned)
                fest[rows] += np.outer(unplaced_comm[rows], delta)
                touched = [int(r) for r in rows]

            # --- repair row reductions --------------------------------------
            dirty = np.unique(np.asarray(rescan + touched, dtype=np.int64))
            if len(dirty):
                rebuild(dirty)
                f_sum[dirty] = fest[dirty] @ avail.astype(self._dtype)
            if prof is not None:
                rows_rebuilt += len(dirty)

        if prof is not None:
            for name, value in zip(_COUNTERS, (
                    cycles, reserve_hits, reserve_exhaustions, rows_rebuilt,
                    neighbor_updates)):
                prof.count(name, value)
        return assignment

    def _run_native(
        self,
        graph: TaskGraph,
        topology: Topology,
        n: int,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
        *,
        native,
    ) -> np.ndarray:
        """The reference cycle body compiled: one C call per cycle
        (``topolb_cycle_*`` in ``refine_kernel.c``) over arrays bound once.

        Between calls only the dirty rows' free-column sums are refreshed
        here, with the reference's own ``fest[dirty] @ avail`` expression
        over the same sorted dirty set, so the BLAS rounding is shared too.
        """
        (dist, indptr, indices, weights, unplaced_comm,
         avg_all, avg_free, fest) = self._setup(graph, topology, n, allowed, ctx)
        dtype = self._dtype
        p = topology.num_nodes

        avail = (np.ones(p, dtype=np.uint8) if allowed is None
                 else allowed.astype(np.uint8))
        avail_f = avail.astype(dtype)
        huge = np.finfo(dtype).max / 16
        penalty = np.zeros(p, dtype=dtype)
        if allowed is not None:
            penalty[~allowed] = huge
        track_sum = self._selection == "gain"
        if not track_sum:
            f_sum = np.zeros(n, dtype=dtype)  # never read
        elif allowed is None:
            f_sum = fest.sum(axis=1)
        else:
            f_sum = fest @ avail_f
        reserve = min(self._RESERVE, n)
        arrays = {
            "fest": fest,
            "dist": np.ascontiguousarray(dist),
            "avg_all": avg_all,
            "avg_free": avg_free,
            "delta": np.empty(p, dtype=dtype),
            "unplaced_comm": unplaced_comm,
            "penalty": penalty,
            "avail_f": avail_f,
            "f_sum": f_sum,
            "f_min": np.empty(n, dtype=dtype),
            "res_vals": np.empty((n, reserve), dtype=dtype),
            "volumes": graph.comm_volumes(),
            "indptr": indptr,
            "indices": indices,
            "weights": weights,
            "f_argmin": np.empty(n, dtype=np.int64),
            "res_ids": np.empty((n, reserve), dtype=np.int64),
            "res_pos": np.zeros(n, dtype=np.int64),
            "assignment": np.full(n, -1, dtype=np.int64),
            "dirty": np.empty(n, dtype=np.int64),
            "avail": avail,
            "unassigned": np.ones(n, dtype=np.uint8),
            "mark": np.zeros(n, dtype=np.uint8),
        }
        state = _native.TopoLBState.bind(
            dtype, arrays, n=n, p=p, reserve=reserve, order=int(self._order),
            selection=_SELECTION_RULES.index(self._selection),
            avail_count=int(avail.sum()), huge=float(huge),
        )
        init, cycle = native.topolb(dtype)
        ref = ctypes.byref(state)
        init(ref)
        dirty = arrays["dirty"]
        for _cycle in range(n):
            k = cycle(ref)
            if k < 0:
                break
            if k and track_sum:
                rows = dirty[:k]
                f_sum[rows] = fest[rows] @ avail_f

        if prof is not None:
            for name, value in zip(_COUNTERS, state.stats):
                prof.count(name, value)
        return arrays["assignment"]
