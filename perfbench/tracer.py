"""Spans around the program's layer entry points, recorded from outside.

:func:`install` wraps each public entry point listed in :data:`ENTRY_POINTS`
at the attribute its caller resolves: a module attribute for functions the
engine imports inside ``MappingEngine.run`` (or a mapper imports at module
level), a class attribute for methods. Nothing in the program changes; the
wrappers only time the calls.

Spans stay in memory (name, start, end, parent, request) and are written out
once, at the end of the run. A layer's self time is its spans' duration
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

#: (span name, module, attribute path). Span names are ``<layer>.<what>``;
#: the layer is the repository module the entry point belongs to.
ENTRY_POINTS = (
    ("engine.run", "repro.engine.core", "MappingEngine.run"),
    ("taskgraph.build", "repro.engine.core", "graph_from_spec"),
    ("topology.tables", "repro.mapping.context", "context_for"),
    ("topology.tables", "repro.topology.base", "Topology.distance_matrix"),
    ("topology.tables", "repro.topology.matrix", "MatrixTopology.distance_matrix"),
    ("topology.tables", "repro.topology.graph",
     "ArbitraryTopology.distance_matrix"),
    ("topology.tables", "repro.topology.aggregate",
     "GroupedTopology.distance_matrix"),
    ("topology.coarsen", "repro.mapping.hierarchical", "coarsen_machine"),
    ("mapping.topolb", "repro.mapping.topolb", "TopoLB.map"),
    ("mapping.topocentlb", "repro.mapping.topocentlb", "TopoCentLB.map"),
    ("mapping.refine", "repro.mapping.refine", "RefineTopoLB.refine"),
    ("mapping.multilevel", "repro.mapping.hierarchical", "HierarchicalMapper.map"),
    ("mapping.other", "repro.mapping.random_map", "RandomMapper.map"),
    ("mapping.metrics", "repro.mapping.metrics", "metrics_block"),
    ("partition.coarsen", "repro.mapping.hierarchical", "coarsen_toward"),
    ("netsim.flow", "repro.netsim.flow", "flow_evaluate"),
    ("netsim.des", "repro.netsim.simulator", "NetworkSimulator.__init__"),
    ("netsim.des", "repro.netsim.appsim", "IterativeApplication.run"),
    ("netsim.des", "repro.netsim.stats", "tail_summary"),
    ("validate.cheap", "repro.validate", "validate_mapping"),
)

#: obs counters read per request in the traced run (they exist already).
COUNTERS = (
    "topology.cache.misses", "topolb.cycles", "refine.pairs_evaluated",
    "refine.swaps_accepted", "netsim.transmissions", "netsim.buffer_drops",
    "netsim.retransmits",
)

_MAX_SPANS = 1_000_000


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name_id, start, end, parent_index, request]
        self.spans: list[list] = []
        self.dropped = 0
        self.request = -1  # -1: outside any request (set-up)
        self._stack: list[int] = []

    def reset(self) -> None:
        """Forget the recorded spans (a forked child starts its own record);
        the wrapped entry points and their names stay."""
        self.pid = os.getpid()
        self.spans = []
        self.dropped = 0
        self.request = -1
        self._stack = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if len(tracer.spans) >= _MAX_SPANS:
                tracer.dropped += 1
                return original(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name_id, time.perf_counter(), None, parent, tracer.request]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        setattr(owner, attr, traced)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total self time, total time and call count, split
        into set-up (``request == -1``) and in-request spans."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                     "setup_s": 0.0})
        for i, (name_id, start, end, parent, request) in enumerate(self.spans):
            if end is None:
                continue
            cell = out[self.names[name_id]]
            own = (end - start) - child[i]
            if request < 0:
                cell["setup_s"] += own
                continue
            cell["self_s"] += own
            if parent < 0 or self.spans[parent][0] != name_id:
                cell["total_s"] += end - start
            cell["calls"] += 1
        return dict(out)

    def dump(self) -> dict:
        """The span record as plain JSON (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [
                [n, round(s - t0, 7), None if e is None else round(e - t0, 7),
                 p, r]
                for n, s, e, p, r in self.spans
            ],
            "dropped": self.dropped,
        }


def install() -> Tracer:
    """Import every traced module and wrap its entry points."""
    tracer = Tracer()
    for name, module, path in ENTRY_POINTS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.wrap(owner, attr, name)
    return tracer


def counters() -> dict[str, float]:
    """Current values of :data:`COUNTERS` in the active obs profiler."""
    from repro import obs

    prof = obs.active()
    found = {} if prof is None else prof.counters
    return {name: float(found.get(name, 0)) for name in COUNTERS}
