"""MappingEngine — one request/result path for every mapping in the repo.

A :class:`MappingRequest` names the three inputs (task graph, topology,
mapper) either as live objects or as spec strings, plus the run knobs (seed,
kernel, allowed mask, profile flag). :meth:`MappingEngine.run` resolves the
specs through the single factories (:func:`graph_from_spec`,
:func:`repro.topology.factory.topology_from_spec`,
:func:`repro.engine.specs.mapper_from_spec`), builds the shared
:class:`~repro.mapping.context.MappingContext`, maps, and returns a
:class:`MappingResult` carrying the assignment, the canonical metrics block
(one distance gather for all metrics), reproducibility metadata, and — when
requested — a ``repro-profile-v1`` document.

:meth:`MappingEngine.run_many` batches requests over a process pool with
per-request retries (the same pool/retry discipline as
``repro.experiments.runner``); within each worker process, same-shape
topologies share distance tables through :mod:`repro.topology.cache`, so a
batch over one machine pays the O(p^2) table cost once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import SpecError, ValidationError
from repro.engine.specs import mapper_from_spec, parse_mapper_spec

__all__ = [
    "MappingRequest",
    "MappingResult",
    "MappingEngine",
    "graph_from_spec",
    "canonical_command",
]


# ---------------------------------------------------------------- graph specs
def _parse_graph_options(items: list[str], spec: str,
                         allowed: tuple[str, ...]) -> dict[str, float]:
    options: dict[str, float] = {}
    for item in items:
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in allowed:
            raise SpecError(
                f"bad graph option {item!r} in {spec!r}; expected key=value "
                f"with key in {allowed}"
            )
        try:
            options[key] = float(value)
        except ValueError as exc:
            raise SpecError(f"bad graph option value {item!r}") from exc
    return options


def graph_from_spec(spec: str):
    """Build a :class:`~repro.taskgraph.TaskGraph` from a spec string.

    Supported kinds::

        file:<path>                  task-graph JSON (repro-taskgraph-v1)
        lbdump:<path>                LB dump (repro-lbdump-v1)
        mesh2d:<R>x<C>[;bytes=F]     2D stencil pattern
        mesh3d:<X>x<Y>x<Z>[;bytes=F] 3D stencil pattern
        ring:<N>[;bytes=F]           ring pattern
        alltoall:<N>[;bytes=F]       complete graph
        random:<N>[;p=F][;seed=I]    Erdős–Rényi random graph
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise SpecError(
            f"graph spec {spec!r} must look like 'kind:params' "
            "(e.g. mesh2d:8x8;bytes=1024 or file:app.json)"
        )
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "file":
        from repro.taskgraph.io import load_taskgraph

        return load_taskgraph(Path(params))
    if kind == "lbdump":
        from repro.runtime.lbdb import LBDatabase

        return LBDatabase.load(Path(params)).to_taskgraph()

    head, *rest = params.split(";")
    if kind in ("mesh2d", "mesh3d"):
        from repro.taskgraph.patterns import mesh2d_pattern, mesh3d_pattern

        try:
            shape = tuple(int(part) for part in head.split("x"))
        except ValueError as exc:
            raise SpecError(f"bad graph shape {head!r}: {exc}") from exc
        options = _parse_graph_options(rest, spec, ("bytes",))
        bytes_ = options.get("bytes", 1.0)
        if kind == "mesh2d":
            if len(shape) != 2:
                raise SpecError(f"mesh2d needs RxC, got {head!r}")
            return mesh2d_pattern(*shape, message_bytes=bytes_)
        if len(shape) != 3:
            raise SpecError(f"mesh3d needs XxYxZ, got {head!r}")
        return mesh3d_pattern(*shape, message_bytes=bytes_)
    if kind in ("ring", "alltoall"):
        from repro.taskgraph.patterns import all_to_all_pattern, ring_pattern

        try:
            n = int(head)
        except ValueError as exc:
            raise SpecError(f"bad task count {head!r}") from exc
        options = _parse_graph_options(rest, spec, ("bytes",))
        maker = ring_pattern if kind == "ring" else all_to_all_pattern
        return maker(n, message_bytes=options.get("bytes", 1.0))
    if kind == "random":
        from repro.taskgraph.random_graphs import random_taskgraph

        try:
            n = int(head)
        except ValueError as exc:
            raise SpecError(f"bad task count {head!r}") from exc
        options = _parse_graph_options(rest, spec, ("p", "seed"))
        return random_taskgraph(
            n,
            edge_prob=options.get("p", 0.1),
            seed=int(options.get("seed", 0)),
        )
    raise SpecError(f"unknown graph kind {kind!r}")


def canonical_command(mapper_spec: str, topology_spec: str, seed: int | None,
                      kernel: str | None) -> str:
    """The fully reproducible ``repro-map`` command line for a run.

    Always includes the seed and kernel actually in effect — a recorded
    command replays the run exactly (the profile-reproducibility fix).
    """
    from repro.mapping.kernels import get_default_kernel

    spec = parse_mapper_spec(mapper_spec).canonical
    kernel = kernel if kernel is not None else get_default_kernel()
    return (
        f"repro-map --strategy '{spec}' --topology {topology_spec} "
        f"--seed {0 if seed is None else seed} --kernel {kernel}"
    )


# ------------------------------------------------------------ request/result
@dataclass
class MappingRequest:
    """Everything needed to reproduce one mapping run.

    ``graph``/``topology``/``mapper`` accept live objects or spec strings;
    spec strings keep the request picklable for :meth:`MappingEngine.run_many`
    and replayable from recorded metadata.
    """

    graph: object  # TaskGraph | str
    topology: object  # Topology | str
    mapper: object = "TopoLB"  # Mapper | str (spec or Charm++ alias)
    seed: int | None = None
    kernel: str | None = None
    allowed: np.ndarray | None = None
    profile: bool = False
    #: Also evaluate the flow-level contention estimator
    #: (:func:`repro.netsim.flow.flow_evaluate`) on the produced mapping and
    #: merge its scalars into ``metrics`` under ``flow_*`` keys. Cheap even
    #: on machines where the DES is infeasible.
    flow_metrics: bool = False
    #: Validation tier enforced on the produced mapping: "off" (default),
    #: "cheap" (structural invariants + metrics consistency) or "full"
    #: (+ differential kernel/spec oracles and metamorphic properties).
    #: Violations raise :class:`~repro.exceptions.ValidationError` with a
    #: replayable ``repro-validate`` command; see docs/VALIDATION.md.
    validate: str = "off"
    #: Optional DES replay of the produced mapping: a dict of knobs merged
    #: into ``metrics`` under ``des_*`` keys (makespan, p50/p99/p999 tails,
    #: drop/retransmit/ECN counters). Recognized keys: ``iterations``
    #: (default 2), ``buffer_bytes``, ``overload_policy``, and the
    #: passthrough simulator knobs ``bandwidth``, ``alpha``, ``max_retries``,
    #: ``retry_delay``, ``retry_backoff``, ``retry_jitter``, ``seed``,
    #: ``stall_window``. Unknown keys raise
    #: :class:`~repro.exceptions.SpecError`. ``None`` (default) skips the
    #: replay entirely.
    netsim: dict | None = None


@dataclass
class MappingResult:
    """Outcome of one engine run.

    ``metrics`` is the canonical block of
    :func:`repro.mapping.metrics.metrics_block` plus, for pipeline mappers,
    the paper's group-level hop-byte metrics. ``metadata`` round-trips: its
    ``spec``/``topology``/``seed``/``kernel`` entries rebuild an equivalent
    :class:`MappingRequest`, and ``command`` is the exact CLI line.
    """

    assignment: np.ndarray
    metrics: dict[str, float]
    metadata: dict[str, object]
    profile: dict | None = None
    mapping: object | None = field(default=None, repr=False)  # Mapping | None


_NETSIM_KEYS = frozenset({
    "iterations", "buffer_bytes", "overload_policy", "bandwidth", "alpha",
    "max_retries", "retry_delay", "retry_backoff", "retry_jitter", "seed",
    "stall_window",
})


def _netsim_metrics(mapping, knobs: dict) -> dict[str, float]:
    """DES-replay a mapping per ``MappingRequest.netsim``; return des_* keys.

    The replay mirrors the CLI's buffered evaluation: a Jacobi-style
    closed-loop app, persistent retransmission when buffered (a final drop
    would wedge the closed loop), and the tail summary flattened into
    scalar metrics a golden triple can pin.
    """
    from repro.netsim.appsim import IterativeApplication
    from repro.netsim.simulator import NetworkSimulator
    from repro.netsim.stats import tail_summary

    unknown = set(knobs) - _NETSIM_KEYS
    if unknown:
        raise SpecError(
            f"unknown MappingRequest.netsim key(s) {sorted(unknown)}; "
            f"recognized: {sorted(_NETSIM_KEYS)}"
        )
    iterations = int(knobs.get("iterations", 2))
    sim_kwargs = {
        k: knobs[k]
        for k in ("buffer_bytes", "overload_policy", "bandwidth", "alpha",
                  "max_retries", "retry_delay", "retry_backoff",
                  "retry_jitter", "seed", "stall_window")
        if k in knobs
    }
    if knobs.get("buffer_bytes") is not None:
        sim_kwargs.setdefault("max_retries", 64)
        sim_kwargs["unroutable_policy"] = "drop"
    sim = NetworkSimulator(mapping.topology, **sim_kwargs)
    app = IterativeApplication(mapping, sim, iterations=iterations)
    result = app.run()
    tail = tail_summary(sim, iteration_times=result.iteration_times)
    return {
        "des_makespan_us": result.total_time,
        "des_p50_us": tail["latency"]["p50"],
        "des_p99_us": tail["latency"]["p99"],
        "des_p999_us": tail["latency"]["p999"],
        "des_delivered": float(tail["delivered"]),
        "des_dropped": float(tail["dropped"]),
        "des_retransmits": float(tail["retransmits"]),
        "des_buffer_drops": float(tail["buffer_drops"]),
        "des_ecn_marks": float(tail["ecn_marks"]),
    }


# --------------------------------------------------------------------- engine
class MappingEngine:
    """The one resolution-and-execution path for mappings.

    Stateless apart from the process-wide caches it warms (topology tables,
    mapping contexts); constructing it is free, so layers just instantiate
    one where needed.
    """

    def run(self, request: MappingRequest) -> MappingResult:
        from repro import obs
        from repro.mapping.context import context_for
        from repro.mapping.kernels import get_default_kernel, set_default_kernel
        from repro.mapping.metrics import metrics_block
        from repro.taskgraph.graph import TaskGraph
        from repro.topology.factory import topology_from_spec

        if request.validate not in ("off", "cheap", "full"):
            raise SpecError(
                "MappingRequest.validate must be one of ('off', 'cheap', "
                f"'full'), got {request.validate!r}"
            )
        graph = (
            request.graph
            if isinstance(request.graph, TaskGraph)
            else graph_from_spec(request.graph)
        )
        topology = (
            topology_from_spec(request.topology)
            if isinstance(request.topology, str)
            else request.topology
        )
        topology_spec = (
            request.topology
            if isinstance(request.topology, str)
            else getattr(topology, "name", type(topology).__name__)
        )

        # The kernel knob binds at mapper *construction* (resolve_kernel),
        # so spec-built mappers are constructed inside the override window.
        # The override is per-thread (a ContextVar): concurrent requests in
        # one process never see each other's.
        prev_kernel = (
            set_default_kernel(request.kernel)
            if request.kernel is not None
            else None
        )
        own_prof = None
        try:
            if isinstance(request.mapper, str):
                parsed = parse_mapper_spec(request.mapper)
                mapper = parsed.build(request.seed)
                spec = parsed.canonical
                strategy = request.mapper
            else:
                mapper = request.mapper
                spec = None
                strategy = type(mapper).__name__

            ctx = context_for(graph, topology)
            if request.profile and obs.active() is None:
                own_prof = obs.enable()
            with obs.timer("engine.map"):
                if request.allowed is not None:
                    mapping = mapper.map(graph, topology, allowed=request.allowed)
                else:
                    mapping = mapper.map(graph, topology)

            metrics = metrics_block(graph, topology, mapping.assignment, ctx=ctx)
            # The paper evaluates hops-per-byte on the coalesced graph too —
            # intra-group bytes never enter the network.
            group_mapping = getattr(mapper, "last_group_mapping", None)
            if group_mapping is not None:
                metrics["group_hops_per_byte"] = group_mapping.hops_per_byte
                metrics["group_hop_bytes"] = group_mapping.hop_bytes

            if request.flow_metrics:
                from repro.netsim.flow import flow_evaluate

                with obs.timer("engine.flow"):
                    flow = flow_evaluate(mapping)
                metrics["flow_max_link_bytes"] = flow.max_link_bytes
                metrics["flow_total_bytes"] = flow.total_bytes
                metrics["flow_links_used"] = float(flow.links_used)
                metrics["flow_makespan_lower_bound_us"] = (
                    flow.makespan_lower_bound
                )

            if request.netsim is not None:
                with obs.timer("engine.netsim"):
                    metrics.update(_netsim_metrics(mapping, request.netsim))

            if request.validate != "off":
                from repro.validate import validate_mapping

                # Still inside the kernel-override window, so the oracles'
                # mapper rebuilds resolve the same default kernel this run
                # used.
                with obs.timer("engine.validate"):
                    validate_mapping(
                        graph, topology, mapping.assignment,
                        level=request.validate,
                        ctx=ctx,
                        allowed=request.allowed,
                        mapper_spec=spec,
                        graph_spec=request.graph
                        if isinstance(request.graph, str) else None,
                        topology_spec=request.topology
                        if isinstance(request.topology, str) else None,
                        seed=request.seed,
                        kernel=request.kernel or get_default_kernel(),
                        metrics=metrics,
                    )

            metadata: dict[str, object] = {
                "strategy": strategy,
                "spec": spec,
                "topology": topology_spec,
                "seed": request.seed,
                "kernel": request.kernel or get_default_kernel(),
                "num_objects": graph.num_tasks,
                "num_processors": topology.num_nodes,
            }
            if spec is not None and isinstance(request.topology, str):
                metadata["command"] = canonical_command(
                    spec, topology_spec, request.seed, request.kernel
                )

            profile_doc = None
            if own_prof is not None:
                profile_doc = obs.build_profile(
                    own_prof,
                    command=metadata.get("command", "engine.run"),
                    context={
                        k: v for k, v in metadata.items() if v is not None
                    },
                )
            return MappingResult(
                assignment=mapping.assignment.copy(),
                metrics=metrics,
                metadata=metadata,
                profile=profile_doc,
                mapping=mapping,
            )
        finally:
            if own_prof is not None:
                obs.disable()
            if prev_kernel is not None:
                set_default_kernel(prev_kernel)

    def run_many(
        self,
        requests: list[MappingRequest],
        jobs: int = 1,
        retries: int = 0,
        retry_delay: float = 0.0,
        keep_mapping: bool = False,
    ) -> list[MappingResult]:
        """Run a batch; results come back in request order.

        ``jobs > 1`` fans out over a process pool (requests must then be
        spec-based so they pickle); each request is retried up to ``retries``
        times on failure before the error propagates, mirroring the
        experiment runner's resilience knobs. Serial runs share one
        in-process topology/context cache across the whole batch; pooled
        workers each warm their own shared cache.

        ``keep_mapping`` makes the result-payload contract explicit and
        identical on both paths: by default every result comes back with
        ``mapping=None`` (serial runs included — only the assignment,
        metrics and metadata survive the batch), while ``keep_mapping=True``
        retains the full :class:`~repro.mapping.base.Mapping` object
        everywhere, pickling it back from pooled workers.

        Retry delays never block the dispatch loop: a failed request is
        *rescheduled* with a deadline while already-finished futures keep
        being collected, so one slow retry cannot delay unrelated results.

        Each request's ``validate`` level travels with it, so pooled workers
        enforce the same invariants as serial runs. Both paths fail fast on
        :class:`~repro.exceptions.ValidationError`: a deterministic
        invariant violation cannot be retried away, so it propagates
        immediately without consuming the retry budget.
        """
        if jobs <= 1:
            results = [
                self._run_with_retries(req, retries, retry_delay)
                for req in requests
            ]
            if not keep_mapping:
                for result in results:
                    result.mapping = None
            return results

        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        results: list[MappingResult | None] = [None] * len(requests)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {
                pool.submit(_run_request, req, keep_mapping): (i, 0)
                for i, req in enumerate(requests)
            }
            # Failed requests waiting out their retry delay: (ready_at,
            # index, next_attempt). They are resubmitted when their deadline
            # passes instead of sleeping inline, so collection never stalls.
            delayed: list[tuple[float, int, int]] = []
            while pending or delayed:
                now = time.monotonic()
                due = [entry for entry in delayed if entry[0] <= now]
                if due:
                    delayed = [entry for entry in delayed if entry[0] > now]
                    for _, index, attempt in due:
                        future = pool.submit(
                            _run_request, requests[index], keep_mapping
                        )
                        pending[future] = (index, attempt)
                if not pending:
                    time.sleep(max(0.0, min(e[0] for e in delayed) - now))
                    continue
                timeout = (
                    max(0.0, min(e[0] for e in delayed) - now)
                    if delayed
                    else None
                )
                done, _ = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                for future in done:
                    index, attempt = pending.pop(future)
                    exc = future.exception()
                    if exc is None:
                        results[index] = future.result()
                    elif isinstance(exc, ValidationError):
                        raise exc
                    elif attempt < retries:
                        delayed.append((
                            time.monotonic() + retry_delay, index, attempt + 1,
                        ))
                    else:
                        raise exc
        return results  # type: ignore[return-value]

    def _run_with_retries(
        self, request: MappingRequest, retries: int, retry_delay: float
    ) -> MappingResult:
        attempt = 0
        while True:
            try:
                return self.run(request)
            except ValidationError:
                raise
            except Exception:
                if attempt >= retries:
                    raise
                attempt += 1
                if retry_delay:
                    time.sleep(retry_delay)


def _run_request(
    request: MappingRequest, keep_mapping: bool = False
) -> MappingResult:
    """Pool worker: run one request; unless ``keep_mapping``, drop the
    heavyweight Mapping object (the assignment/metrics/metadata travel back;
    graph and topology do not)."""
    result = MappingEngine().run(request)
    if not keep_mapping:
        result.mapping = None
    return result
