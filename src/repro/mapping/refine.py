"""RefineTopoLB — pairwise-swap hop-bytes refiner (Section 5.2.3).

The paper applies this after an initial mapper: "The refiner swaps tasks
between processors to see if hop-bytes are reduced or not. It swaps only when
hop-bytes get reduced." On LeanMD it shaves a further ~12% off TopoLB's
hop-bytes.

Implementation: maintain the first-order cost table ``C[t, q] = sum over
neighbors j of c_tj * d(q, P(j))``. For tasks ``a``, ``b`` on processors
``pa``, ``pb`` the swap delta is::

    delta(a, b) = C[a, pb] + C[b, pa] - C[a, pa] - C[b, pb]
                  + 2 * c_ab * d(pa, pb)          # a<->b edge is unaffected

(the correction term undoes the double-counted improvement the naive sum
claims for the a-b edge itself, whose endpoints merely trade places). A
sweep evaluates, for each task ``a``, the delta against *every* other task
and greedily applies the best strictly-negative swap; sweeps repeat until a
full pass makes no swap or ``max_sweeps`` is hit.

Two kernels implement the sweep (see :mod:`repro.mapping.kernels`). The
``"reference"`` kernel evaluates one task row at a time, exactly as above,
and is kept as the test oracle. The production kernel, ``"incremental"``
(every other kernel name resolves to it), caches each task's best swap
partner ``(argmin, min)`` and, after an accepted swap of ``(a, b)``, only
touches what actually changed. The dirty set is ``{a, b} ∪ N(a) ∪ N(b)`` —
exactly the tasks whose ``assign``/``cost``-row entries
:meth:`RefineTopoLB._apply_swap` mutated — so a cached row outside the dirty
set changed *only at the dirty columns*. Those entries are recomputed in the
reference term order (bitwise equal to a fresh evaluation) and folded into
the cache under argmin's lowest-index tie-breaking; rows inside the dirty
set, and rows whose cached argmin fell in it (their proof of minimality is
gone), are recomputed in full on their next visit. Sweeps after the first
therefore cost O(changed): a converged sweep is n cache reads, and each
accepted swap repairs O(n · (deg a + deg b)) entries. On dense graphs
(degree ~ n, e.g. all-to-all) the dirty set covers every column and the
repair degenerates to recomputing every row — the win is for the sparse
stencils the paper maps.

The sweep runs in compiled C (:mod:`repro.mapping._native`) when a C
toolchain is available, and in a bit-identical NumPy formulation otherwise
(or when ``REPRO_NO_NATIVE`` is set). The equivalence suite pins both to the
reference kernel's assignments.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.exceptions import MappingError
from repro.mapping import _native
from repro.mapping.base import Mapper, Mapping, resolve_allowed
from repro.mapping.context import MappingContext, context_for
from repro.mapping.kernels import resolve_kernel
from repro.taskgraph.graph import TaskGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng

__all__ = ["RefineTopoLB"]

#: Rows the NumPy sweep brings current per batch, doubling while no swap
#: interrupts. Batch size never changes the result, only how much row work
#: an accepted swap leaves unread.
_CHUNK = 64


class RefineTopoLB(Mapper):
    """Hop-bytes-decreasing pairwise-swap refiner.

    Parameters
    ----------
    base:
        Optional mapper producing the initial mapping when :meth:`map` is
        called directly (the paper runs TopoLB first). :meth:`refine` can
        also polish any existing bijective :class:`Mapping`.
    max_sweeps:
        Upper bound on full passes over the tasks.
    seed:
        Sweep order is randomized (a fixed order can get stuck in the same
        local minimum every sweep); the seed makes runs reproducible.
    kernel:
        ``"reference"`` (row-at-a-time, the test oracle), any other kernel
        name for the production incremental sweep, or ``None`` for the
        process-wide default.
    """

    strategy_name = "RefineTopoLB"

    def __init__(self, base: Mapper | None = None, max_sweeps: int = 10,
                 seed: int | np.random.Generator | None = 0,
                 kernel: str | None = None):
        if max_sweeps < 1:
            raise MappingError(f"max_sweeps must be >= 1, got {max_sweeps}")
        self._base = base
        self._max_sweeps = int(max_sweeps)
        self._seed = seed
        kernel = resolve_kernel(kernel)
        self._kernel = "reference" if kernel == "reference" else "incremental"

    @property
    def kernel(self) -> str:
        """The resolved kernel: ``"reference"`` or ``"incremental"``."""
        return self._kernel

    def map(
        self,
        graph: TaskGraph,
        topology: Topology,
        allowed: np.ndarray | None = None,
        *,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        if self._base is None:
            raise MappingError(
                "RefineTopoLB.map needs a base mapper; either construct with "
                "base=TopoLB() or call .refine(existing_mapping)"
            )
        allowed = resolve_allowed(topology, allowed)
        if allowed is None:
            base_mapping = self._base.map(graph, topology)
        else:
            base_mapping = self._base.map(graph, topology, allowed=allowed)
        return self.refine(base_mapping, allowed=allowed, ctx=ctx)

    def refine(
        self, mapping: Mapping, allowed: np.ndarray | None = None,
        *, ctx: MappingContext | None = None,
    ) -> Mapping:
        """Return a refined copy of ``mapping`` (never worse in hop-bytes).

        ``allowed`` (auto-derived on degraded machines) declares the legal
        processors; the refiner only swaps tasks pairwise, so a mapping that
        starts within the allowed set stays within it. ``ctx`` supplies
        shared per-(graph, topology) tables.
        """
        allowed = resolve_allowed(mapping.topology, allowed)
        run = (self._refine_reference if self._kernel == "reference"
               else self._refine_incremental)
        prof = obs.active()
        if prof is None:
            return run(mapping, allowed=allowed, ctx=ctx)
        with prof.timer("refine.refine"):
            return run(mapping, prof, allowed=allowed, ctx=ctx)

    def _setup(self, mapping: Mapping, allowed: np.ndarray | None = None,
               ctx: MappingContext | None = None):
        """Shared kernel state: distance matrix, CSR arrays, cost table."""
        graph, topology = mapping.graph, mapping.topology
        if ctx is None:
            ctx = context_for(graph, topology)
        n = self._check_sizes(graph, topology, allowed)
        if allowed is None:
            if not mapping.is_bijection():
                raise MappingError("RefineTopoLB requires a bijective mapping")
        else:
            # Masked runs relax bijectivity to "injective, within the allowed
            # set": one task per processor, every task on a healthy one.
            if not mapping.is_injective():
                raise MappingError(
                    "RefineTopoLB requires an injective mapping "
                    "(one task per processor)"
                )
            if not allowed[mapping.assignment].all():
                raise MappingError(
                    "RefineTopoLB: mapping places tasks on disallowed "
                    "(dead) processors"
                )
        rng = as_rng(self._seed)

        dist = ctx.distance_matrix(np.float64)
        indptr, indices, weights = ctx.csr_arrays()
        assign = mapping.assignment.copy()

        # C[t, q] = first-order cost of task t if it sat on processor q:
        # sum over neighbors j of w_tj * d(P(j), q). Pointing each stored
        # nonzero at its neighbor's processor (stored order kept, so every
        # row sums its terms in the same order) multiplies straight against
        # dist, without materializing the n x p gather dist[assign].
        placed = sp.csr_matrix(
            (weights, assign[indices], indptr), shape=(n, dist.shape[0])
        )
        cost = np.asarray(placed @ dist)  # (n, p)
        return n, rng, dist, indptr, indices, weights, assign, cost

    @staticmethod
    def _record_sweep(prof: obs.Profiler, n: int, sweep: int,
                      visits: int, accepted: int) -> None:
        """Per-sweep accounting event. Every kernel visits the same tasks and
        accepts the same swaps (bit-identity), so the event stream is
        kernel-independent: each visit weighs a task against its ``n - 1``
        candidate partners regardless of how much arithmetic the kernel
        actually spent producing the row."""
        prof.event(
            "refine.sweep",
            sweep=sweep,
            accepted=accepted,
            evaluated_pairs=visits * (n - 1),
        )

    @staticmethod
    def _record_totals(prof: obs.Profiler | None, n: int, sweeps: int,
                       evaluations: int, accepted: int) -> None:
        """Whole-refine counter totals, consistent with the per-sweep events
        (``refine.pairs_evaluated`` == sum of the events' ``evaluated_pairs``)."""
        if prof is None:
            return
        prof.count("refine.sweeps", sweeps)
        prof.count("refine.swaps_accepted", accepted)
        prof.count("refine.swaps_rejected", evaluations - accepted)
        prof.count("refine.pairs_evaluated", evaluations * (n - 1))

    def _refine_reference(
        self, mapping: Mapping, prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Row-at-a-time sweep — the executable specification of the
        incremental sweep; the equivalence suite pins the two to identical
        outputs.

        Swaps only exchange the processors of two mapped tasks, so the sweep
        body is mask-oblivious: a mapping that starts on allowed processors
        can never leave them."""
        n, rng, dist, indptr, indices, weights, assign, cost = self._setup(
            mapping, allowed, ctx
        )

        ids = np.arange(n)
        sweeps = evaluations = accepted = 0
        for _sweep in range(self._max_sweeps):
            swapped = False
            sweep_visits = sweep_accepted = 0
            if prof is not None:
                sweeps += 1
            for a in rng.permutation(n):
                a = int(a)
                pa = assign[a]
                # delta against every candidate partner b, vectorized.
                delta = (
                    cost[a, assign]            # C[a, pb] for every b
                    + cost[ids, pa]            # C[b, pa]
                    - cost[a, pa]
                    - cost[ids, assign]        # C[b, pb]
                )
                lo, hi = indptr[a], indptr[a + 1]
                nbrs, wts = indices[lo:hi], weights[lo:hi]
                delta[nbrs] += 2.0 * wts * dist[pa, assign[nbrs]]
                delta[a] = 0.0
                b = int(np.argmin(delta))
                improved = delta[b] < -1e-9
                if prof is not None:
                    evaluations += 1
                    sweep_visits += 1
                    if improved:
                        accepted += 1
                        sweep_accepted += 1
                if improved:
                    self._apply_swap(a, b, assign, cost, dist, indptr, indices, weights)
                    swapped = True
            if prof is not None:
                self._record_sweep(prof, n, sweeps, sweep_visits, sweep_accepted)
            if not swapped:
                break

        self._record_totals(prof, n, sweeps, evaluations, accepted)
        return mapping.with_assignment(assign)

    def _refine_incremental(
        self, mapping: Mapping, prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Incremental kernel dispatch: run the compiled sweep when a C
        toolchain is available (see :mod:`repro.mapping._native`), otherwise
        the pure-NumPy delta structure below. Both paths are bit-identical
        to the reference kernel; the compiled one exists because the
        per-swap bookkeeping is scalar work that NumPy call overhead
        dominates at paper scales (n ~ 512)."""
        native = _native.load()
        if native is not None:
            return self._refine_incremental_native(
                native, mapping, prof, allowed=allowed, ctx=ctx
            )
        return self._refine_incremental_numpy(
            mapping, prof, allowed=allowed, ctx=ctx
        )

    def _refine_incremental_native(
        self, native: "_native.NativeKernels", mapping: Mapping,
        prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Compiled incremental sweep. One C call runs one full sweep; the
        best-swap caches persist across calls and the C side repairs them
        eagerly after each accepted swap (same dirty-set argument as the
        NumPy path, same reference term order — see refine_kernel.c). The
        sweep loop, RNG permutation draws, and obs accounting stay in
        Python so every path has the same observable structure."""
        n, rng, dist, indptr, indices, weights, assign, cost = self._setup(
            mapping, allowed, ctx
        )
        cost = np.ascontiguousarray(cost, dtype=np.float64)
        dist = np.ascontiguousarray(dist, dtype=np.float64)
        c_assign = np.ascontiguousarray(assign, dtype=np.int64)
        c_indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        c_indices = np.ascontiguousarray(indices, dtype=np.int64)
        c_weights = np.ascontiguousarray(weights, dtype=np.float64)

        best_b = np.zeros(n, dtype=np.int64)
        best_val = np.zeros(n, dtype=np.float64)
        valid = np.zeros(n, dtype=np.uint8)
        stats = np.zeros(4, dtype=np.int64)  # visits, accepted, computed, folded

        sweeps = 0
        seen_visits = seen_accepted = 0
        for _sweep in range(self._max_sweeps):
            perm = np.ascontiguousarray(rng.permutation(n), dtype=np.int64)
            swapped = native.sweep(
                cost, dist, c_assign, c_indptr, c_indices, c_weights,
                perm, best_b, best_val, valid, stats,
            )
            sweeps += 1
            if prof is not None:
                visits, accepted = int(stats[0]), int(stats[1])
                self._record_sweep(
                    prof, n, sweeps,
                    visits - seen_visits, accepted - seen_accepted,
                )
                seen_visits, seen_accepted = visits, accepted
            if not swapped:
                break

        self._record_totals(prof, n, sweeps, int(stats[0]), int(stats[1]))
        if prof is not None:
            prof.count("refine.rows_computed", int(stats[2]))
            prof.count("refine.rows_folded", int(stats[3]))
        return mapping.with_assignment(c_assign.astype(assign.dtype, copy=False))

    def _refine_incremental_numpy(
        self, mapping: Mapping, prof: obs.Profiler | None = None,
        allowed: np.ndarray | None = None,
        ctx: MappingContext | None = None,
    ) -> Mapping:
        """Delta-structure sweep: cache every task's best swap partner and
        lazily *fold* the columns moved by accepted swaps back into the
        caches right before the sweep reads them (see module docstring for
        the dirty-set argument). A swap itself only appends its dirty
        columns to a pending list, so accepting a swap costs O(degree).

        Invariant maintained throughout: whenever the sweep reads a cache
        row it is the bitwise ``(argmin, min)`` of a fresh reference delta
        row — the fold recomputes exactly the changed columns with the same
        elementwise term order and merges them under argmin's lowest-index
        tie-breaking, so the sweep makes the same swap decisions (hence
        bit-identical refined mappings, pinned by the equivalence suite).
        """
        n, rng, dist, indptr, indices, weights, assign, cost = self._setup(
            mapping, allowed, ctx
        )

        # diag[t] = cost[t, assign[t]], maintained incrementally after each
        # swap (element copies only, never arithmetic, so bitwise equal to a
        # fresh gather) — the full diagonal gather strides one cost row per
        # element and would dominate swap-dense sweeps.
        diag = cost[np.arange(n), assign]

        # The cache: per task, the index and value of its best swap partner
        # plus a validity bit. Invalid rows are recomputed (in blocks) when
        # the sweep reaches them.
        best_b = np.zeros(n, dtype=np.int64)
        best_val = np.zeros(n, dtype=np.float64)
        valid = np.zeros(n, dtype=bool)

        # Deferred-repair state. Columns whose delta entries moved since a
        # row was last brought current sit in ``pend[:plen]`` (append-only,
        # duplicates allowed); ``folded[r]`` is the pend length row ``r``
        # has already absorbed. A swap with a dirty set >= dense_cutoff
        # drops every cache instead (folding would cost a full recompute —
        # the dense-graph regime, where every swap dirties most rows); once
        # plen reaches fold_cap the pending list is
        # folded into every valid row at once and reset, bounding fold
        # width.
        dense_cutoff = max(8, n // 8)
        fold_cap = max(16, n // 8)
        pend = np.empty(fold_cap + 2 * dense_cutoff + 4, dtype=np.int64)
        plen = 0
        folded = np.zeros(n, dtype=np.int64)
        # Scratch row-position map reused across folds (reset after use).
        pos_of = np.full(n, -1, dtype=np.int64)

        sweeps = evaluations = accepted = 0
        rows_computed = rows_folded = 0

        def compute_rows(block: np.ndarray) -> None:
            """Fill the cache for ``block`` from scratch as one (B, n) delta
            expression. In-place ``+=``/``-=`` keep the reference row's
            elementwise term order, so every row is bitwise equal to a fresh
            reference row; (task-row, neighbor) pairs are unique, so the
            fancy-indexed neighbor correction is exact."""
            pa_blk = assign[block]
            deltas = cost[block[:, None], assign[None, :]]  # C[a, pb]
            deltas += cost[:, pa_blk].T                     # C[b, pa]
            deltas -= diag[block][:, None]                  # C[a, pa]
            deltas -= diag[None, :]                         # C[b, pb]
            rows = np.arange(len(block))
            los, his = indptr[block], indptr[block + 1]
            degs = his - los
            total = int(degs.sum())
            if total:
                offsets = np.repeat(his - np.cumsum(degs), degs)
                flat = offsets + np.arange(total)
                nbrs = indices[flat]
                rows_rep = np.repeat(rows, degs)
                deltas[rows_rep, nbrs] += (
                    2.0 * weights[flat] * dist[assign[block[rows_rep]], assign[nbrs]]
                )
            deltas[rows, block] = 0.0
            bmins = deltas.argmin(axis=1)
            best_b[block] = bmins
            best_val[block] = deltas[rows, bmins]
            valid[block] = True
            folded[block] = plen

        def fold_rows(rows: np.ndarray) -> np.ndarray:
            """Fold the pending (moved) columns into still-valid cache rows;
            returns the rows that need a full recompute instead — their
            cached argmin is itself among the moved columns, so the proof
            of minimality over the unchanged columns is gone.

            Rows are grouped by how much of the pending list they have
            already absorbed; each group recomputes only its unabsorbed
            columns, in the same term order as a full row, so the merged
            values are bitwise identical. The cached argmin of a kept row is
            outside its fold columns, hence still the exact lowest-index
            minimum over the unchanged columns; a candidate wins on a
            strictly smaller value, or an equal value at a smaller index
            (np.argmin's tie-breaking). np.unique sorts the fold columns, so
            the within-fold argmin is lowest-task-index as well.
            """
            nonlocal rows_folded
            refetch = []
            fu = folded[rows]
            for u in np.unique(fu):
                group = rows[fu == u]
                cols = np.unique(pend[u:plen])
                hit = np.isin(best_b[group], cols)
                if hit.any():
                    refetch.append(group[hit])
                    group = group[~hit]
                    if not len(group):
                        continue
                sub = cost[np.ix_(group, assign[cols])]     # C[a, pb]
                sub += cost[np.ix_(cols, assign[group])].T  # C[b, pa]
                sub -= diag[group][:, None]                 # C[a, pa]
                sub -= diag[cols][None, :]                  # C[b, pb]
                # Neighbor-edge corrections for all fold columns at once:
                # the (row, column) pairs are unique (a neighbor appears
                # once per CSR row), so the fancy-indexed += is exact. Edge
                # weights are symmetric in the CSR (undirected graph), so
                # reading w(t, d) from d's row matches the reference row's
                # own slice bit-for-bit.
                pos_of[group] = np.arange(len(group))
                los, his = indptr[cols], indptr[cols + 1]
                degs = his - los
                total = int(degs.sum())
                if total:
                    offsets = np.repeat(his - np.cumsum(degs), degs)
                    flat = offsets + np.arange(total)
                    nbrs = indices[flat]
                    ccol = np.repeat(np.arange(len(cols)), degs)
                    rpos = pos_of[nbrs]
                    sel = rpos >= 0
                    if sel.any():
                        sub[rpos[sel], ccol[sel]] += (
                            2.0 * weights[flat[sel]]
                            * dist[assign[nbrs[sel]], assign[cols[ccol[sel]]]]
                        )
                pos_of[group] = -1
                jmin = sub.argmin(axis=1)
                cand_val = sub[np.arange(len(group)), jmin]
                cand_b = cols[jmin]
                take = (cand_val < best_val[group]) | (
                    (cand_val == best_val[group]) & (cand_b < best_b[group])
                )
                upd = group[take]
                best_b[upd] = cand_b[take]
                best_val[upd] = cand_val[take]
                folded[group] = plen
                rows_folded += len(group)
            if refetch:
                return np.concatenate(refetch)
            return rows[:0]

        bsize = min(_CHUNK, n)
        floor = min(bsize, 4)
        for _sweep in range(self._max_sweeps):
            swapped = False
            sweep_visits = sweep_accepted = 0
            if prof is not None:
                sweeps += 1
            perm = rng.permutation(n)
            pos = 0
            chunk = bsize
            while pos < n:
                rest = perm[pos:]
                # Trust scan: a visit with a current, non-improving cached
                # row is a no-op, so the whole remaining permutation is
                # scanned in a few vectorized comparisons and only the first
                # row that is either untrusted (invalid / behind on pending
                # folds) or a trusted improvement gets Python-level handling.
                # A fully converged sweep collapses to ONE such scan.
                cand = ~valid[rest]
                if plen:
                    cand |= folded[rest] < plen
                unready = cand.copy()
                cand |= best_val[rest] < -1e-9
                i = int(cand.argmax())
                if not cand[i]:
                    # Everything left is current and non-improving.
                    if prof is not None:
                        evaluations += len(rest)
                        sweep_visits += len(rest)
                    break
                if unready[i]:
                    # Rows before i are visited (current, non-improving);
                    # bring a chunk starting at i current, then rescan. The
                    # chunk doubles while no swap interrupts, so the fold
                    # work between swaps stays proportional to the gap.
                    if prof is not None:
                        evaluations += i
                        sweep_visits += i
                    pos += i
                    block = rest[i:i + chunk]
                    bmask = valid[block]
                    need = block[~bmask]
                    if plen:
                        behind = block[bmask]
                        behind = behind[folded[behind] < plen]
                        if len(behind):
                            refetch = fold_rows(behind)
                            if len(refetch):
                                need = np.concatenate((need, refetch))
                    if len(need):
                        compute_rows(need)
                        rows_computed += len(need)
                    chunk = min(chunk * 2, n)
                    continue
                if prof is not None:
                    evaluations += i + 1
                    sweep_visits += i + 1
                    accepted += 1
                    sweep_accepted += 1
                a = int(rest[i])
                b = int(best_b[a])
                self._apply_swap(
                    a, b, assign, cost, dist, indptr, indices, weights,
                )
                # Columns whose delta entries moved: a, b and their
                # neighbors — exactly the tasks whose assign/cost-row state
                # _apply_swap mutated. Everything else is untouched.
                upd = np.concatenate((
                    (a, b),
                    indices[indptr[a]:indptr[a + 1]],
                    indices[indptr[b]:indptr[b + 1]],
                ))
                diag[upd] = cost[upd, assign[upd]]
                if len(upd) >= dense_cutoff:
                    # Dense dirty set: folding would cost a full recompute,
                    # so drop every cache (rows rebuild on their next visit).
                    valid[:] = False
                    plen = 0
                    folded[:] = 0
                else:
                    valid[upd] = False
                    pend[plen:plen + len(upd)] = upd
                    plen += len(upd)
                    if plen >= fold_cap:
                        # Compact: bring every valid row current in one
                        # batched fold, then reset the pending list.
                        rows = np.flatnonzero(valid)
                        rows = rows[folded[rows] < plen]
                        if len(rows):
                            refetch = fold_rows(rows)
                            valid[refetch] = False
                        plen = 0
                        folded[:] = 0
                swapped = True
                chunk = floor
                pos += i + 1
            if prof is not None:
                self._record_sweep(prof, n, sweeps, sweep_visits, sweep_accepted)
            if not swapped:
                break

        self._record_totals(prof, n, sweeps, evaluations, accepted)
        if prof is not None:
            prof.count("refine.rows_computed", rows_computed)
            prof.count("refine.rows_folded", rows_folded)
        return mapping.with_assignment(assign)

    @staticmethod
    def _apply_swap(a: int, b: int, assign: np.ndarray, cost: np.ndarray,
                    dist: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                    weights: np.ndarray) -> None:
        """Swap the processors of ``a`` and ``b`` and patch the cost table.

        Only the rows of the neighbors of ``a`` and ``b`` reference the moved
        processors, so the patch costs ``O(p * (deg a + deg b))``.
        """
        pa, pb = int(assign[a]), int(assign[b])
        if a == b or pa == pb:
            # Degenerate "swap": nothing moves, the delta is exactly zero,
            # and patching the cost table would only accumulate rounding.
            return
        assign[a], assign[b] = pb, pa
        move = dist[pb] - dist[pa]  # how d(q, P(a)) changed, for every q
        for t, sign in ((a, 1.0), (b, -1.0)):
            lo, hi = indptr[t], indptr[t + 1]
            nbrs = indices[lo:hi]
            if nbrs.size:
                # One fanned-out row update per endpoint; neighbor ids are
                # unique within a CSR row, so the fancy-indexed += is exact.
                cost[nbrs] += (sign * weights[lo:hi])[:, None] * move
