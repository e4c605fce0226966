"""The benchmark's workloads: request streams generated from a seed.

Every workload is a closed loop with one client and at most one request in
flight. Its stream is a *cycle* of distinct inputs, drawn from a fixed pool by
the run's seed and repeated; a timed pass always runs whole cycles, so the
request mix of a pass, and with it the median and the quality means, never
depend on where the clock stopped.

Pools are finite on purpose: ``expected.json`` (written by
``record_expected.py``) holds the exact ``hops_per_byte`` (and, for the DES
workload, ``des_makespan_us``) of every pool input, so any seed's outputs can
be checked exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DES_KNOBS = {
    "iterations": 2, "buffer_bytes": 8192, "overload_policy": "drop",
    "bandwidth": 100, "seed": 0,
}

SERVE_GRAPH = "mesh2d:16x16;bytes=1024"
SERVE_TOPOLOGY = "torus:16x16"
SERVE_MAPPER = "refine:base=topolb"
#: Every 20th request of serve-dup carries a new unique body (a miss); the
#: other 19 repeat earlier uniques, so 95% of requests are duplicates.
SERVE_CYCLE = 20
#: Unique bodies differ by mapper seed, drawn without repeats from this pool.
SERVE_POOL = 1024


@dataclass(frozen=True)
class EngineInput:
    """One distinct engine request; ``key`` indexes ``expected.json``."""

    graph: str
    topology: str
    mapper: str
    seed: int
    flow_metrics: bool = False
    netsim: dict | None = field(default=None, hash=False, compare=False)

    @property
    def key(self) -> str:
        return f"{self.mapper}|seed={self.seed}"

    def request_kwargs(self) -> dict:
        return {
            "graph": self.graph, "topology": self.topology,
            "mapper": self.mapper, "seed": self.seed,
            "flow_metrics": self.flow_metrics, "validate": "cheap",
            "netsim": None if self.netsim is None else dict(self.netsim),
        }


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    kind: str  # "engine" or "service"
    topology: str
    #: Modules a fresh process imports during set-up (besides the engine).
    modules: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "map-stencil",
            "engine", "torus:10x10x10",
            ("repro.mapping.topolb", "repro.mapping.topocentlb",
             "repro.mapping.refine", "repro.validate"),
        ),
        Workload(
            "multilevel-110k",
            "engine", "torus:16x16x16",
            ("repro.mapping.hierarchical", "repro.mapping.topolb",
             "repro.netsim.flow", "repro.validate"),
        ),
        Workload(
            "des-contention",
            "engine", "torus:8x8x8",
            ("repro.mapping.random_map", "repro.mapping.topolb",
             "repro.netsim.appsim", "repro.netsim.simulator",
             "repro.netsim.stats", "repro.validate"),
        ),
        Workload(
            "serve-dup",
            "service", SERVE_TOPOLOGY,
        ),
    )
}


# ------------------------------------------------------------------ pools
def pool(workload: str) -> list[EngineInput]:
    """Every distinct engine input the workload can draw, for any seed."""
    if workload == "map-stencil":
        return [
            _stencil(mapper, s)
            for mapper in ("topolb", "topolb:order=1", "topocentlb",
                           "refine:base=topolb")
            for s in range(4)
        ]
    if workload == "multilevel-110k":
        return [_multilevel(s) for s in range(4)]
    if workload == "des-contention":
        return ([_des("random", s) for s in range(16)]
                + [_des("topolb", s) for s in range(4)])
    if workload == "serve-dup":
        return [_serve(s) for s in range(SERVE_POOL)]
    raise KeyError(workload)


def _stencil(mapper: str, seed: int) -> EngineInput:
    return EngineInput("mesh3d:10x10x10;bytes=1024", "torus:10x10x10",
                       mapper, seed)


def _multilevel(seed: int) -> EngineInput:
    return EngineInput("mesh3d:48x48x48;bytes=1024", "torus:16x16x16",
                       "multilevel:inner=topolb;levels=auto", seed,
                       flow_metrics=True)


def _des(mapper: str, seed: int) -> EngineInput:
    return EngineInput("mesh3d:8x8x8;bytes=4096", "torus:8x8x8", mapper, seed,
                       netsim=DES_KNOBS)


def _serve(seed: int) -> EngineInput:
    return EngineInput(SERVE_GRAPH, SERVE_TOPOLOGY, SERVE_MAPPER, seed)


def serve_body(unique: EngineInput) -> dict:
    """The ``POST /map`` body of one serve-dup unique."""
    return {"graph": unique.graph, "topology": unique.topology,
            "mapper": unique.mapper, "seed": unique.seed, "validate": "cheap"}


# ----------------------------------------------------------------- cycles
def engine_cycle(workload: str, seed: int) -> list[EngineInput]:
    """One cycle of an engine workload's stream, in request order.

    The mixes keep each pass's median inside one cost class:

    * map-stencil: 4 of 7 requests are order-2 TopoLB (about 0.9 s here), so
      the median sits in the middle of that class; order-1 TopoLB and Refine
      cost about the same, TopoCentLB much less.
    * des-contention: 4 of 5 requests are random mappings (0.6-0.9 s of DES
      each here); the TopoLB one replays far less contention.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "map-stencil":
        cycle = [_stencil("topolb", s) for s in range(4)]
        cycle += [_stencil(m, rng.randrange(4))
                  for m in ("topolb:order=1", "topocentlb",
                            "refine:base=topolb")]
    elif workload == "multilevel-110k":
        cycle = [_multilevel(rng.randrange(4))]
    elif workload == "des-contention":
        cycle = [_des("random", s) for s in rng.sample(range(16), 4)]
        cycle.append(_des("topolb", rng.randrange(4)))
    else:
        raise KeyError(workload)
    rng.shuffle(cycle)
    return cycle


class ServeStream:
    """serve-dup's request stream: cycles of one new unique plus 19 repeats.

    Request 0 of cycle ``c`` is unique ``c`` (a miss); requests 1-19 repeat
    uniques ``0..c`` chosen by the seeded generator, so misses are spread
    evenly through the stream. Uniques are pool seeds in a seeded order;
    :meth:`cycle` returns ``None`` once the pool is used up.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"perfbench:serve-dup:{seed}")
        order = list(range(SERVE_POOL))
        self._rng.shuffle(order)
        self.uniques = [_serve(s) for s in order]

    def cycle(self, c: int) -> list[int] | None:
        """Unique indices of cycle ``c``'s requests, or None when exhausted."""
        if c >= len(self.uniques):
            return None
        return [c] + [self._rng.randrange(c + 1)
                      for _ in range(SERVE_CYCLE - 1)]
