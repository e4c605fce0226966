"""Child processes of the benchmark: an engine worker and a daemon launcher.

``worker.py engine --workload W --seed N --seconds S [--trace] [--spans F]``
    Sets up as a fresh user process would (imports, warmed topology tables,
    the native refine kernel), prints ``READY`` and waits for one command on
    stdin: ``quit`` exits, ``env`` prints the environment block, ``go`` runs
    a timed pass of whole request cycles and prints its records as one JSON
    line. ``--trace`` installs the span tracer and enables ``repro.obs``
    before set-up; the spans are written to ``--spans`` at the end.

``worker.py serve [--trace --trace-dir D] -- <repro-serve arguments>``
    Runs ``repro-serve`` in this process (the same ``main`` the console
    script calls) and, after it shuts down, prints the peak resident memory
    of the daemon plus its pool worker. ``--trace`` installs the tracer
    before the pool forks, so the worker inherits it; after every batch the
    worker writes its per-layer self times and obs counters to ``D``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from probe import Probes  # noqa: E402
from workloads import WORKLOADS, engine_cycle  # noqa: E402

_SETUP_MODULES = ("repro.engine.core", "repro.topology.factory",
                  "repro.mapping.context", "repro.mapping._native")
_SERVE_MODULES = ("repro.service.cli", "repro.service.daemon",
                  "repro.mapping.topolb", "repro.mapping.refine",
                  "repro.validate")


def _rss_mb(kilobytes: int) -> float:
    return kilobytes / 1024.0


def _vm_hwm_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def environment() -> dict:
    """Where the numbers came from: host, interpreter, libraries, kernels."""
    import numpy
    import scipy

    from repro.mapping import _native
    from repro.mapping.kernels import get_default_kernel

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_refine_kernel_loaded": _native.available(),
        "default_kernel": get_default_kernel(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------- engine
def _setup(workload: str) -> None:
    """Imports plus warmed topology/distance tables: what a process pays
    once before it can serve its first request."""
    import numpy as np

    spec = WORKLOADS[workload]
    for module in _SETUP_MODULES + spec.modules:
        importlib.import_module(module)
    if spec.kind == "service":
        for module in _SERVE_MODULES:
            importlib.import_module(module)
        return
    from repro.mapping import _native
    from repro.topology.factory import topology_from_spec

    _native.available()
    topology = topology_from_spec(spec.topology)
    for dtype in (np.int32, np.float64):
        topology.distance_matrix(dtype)


def _pass(workload: str, seed: int, seconds: float,
          tracer: tracing.Tracer | None) -> dict:
    """Whole cycles of the workload's stream until the next cycle would end
    past ``seconds`` (at least one cycle)."""
    from repro.engine.core import MappingEngine, MappingRequest

    cycle = engine_cycle(workload, seed)
    engine = MappingEngine()
    records: list[dict] = []
    probes = Probes(interval=0.1)
    start = time.perf_counter()
    probing = 0.0
    cycles = 0
    first_cycle_rss = None
    while True:
        for item in cycle:
            probing += probes.tick()
            if tracer is not None:
                tracer.request = len(records)
                before = tracing.counters()
            record: dict = {"key": item.key}
            t0 = time.perf_counter()
            try:
                result = engine.run(MappingRequest(**item.request_kwargs()))
            except Exception as exc:  # noqa: BLE001 — a failed request is data
                record["latency_s"] = time.perf_counter() - t0
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["latency_s"] = time.perf_counter() - t0
                metrics = result.metrics
                record["hops_per_byte"] = float(metrics["hops_per_byte"])
                if "des_makespan_us" in metrics:
                    record["des_makespan_us"] = float(metrics["des_makespan_us"])
                del result
            if tracer is not None:
                tracer.request = -1
                after = tracing.counters()
                record["counters"] = {k: after[k] - before[k] for k in after}
            records.append(record)
        cycles += 1
        if first_cycle_rss is None:
            first_cycle_rss = _rss_mb(_vm_hwm_kb())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            break
    probing += probes.tick()
    return {
        "records": records,
        "cycles": cycles,
        "cycle_length": len(cycle),
        "wall_s": time.perf_counter() - start - probing,
        "probes_s": probes.times,
        # The program keeps some state from one request to the next, so the
        # peak over the whole pass grows with the number of cycles, which
        # depends on host speed; the peak up to the end of the first cycle
        # does not.
        "peak_rss_mb": first_cycle_rss,
        "peak_rss_scope": "the worker through set-up and the first cycle",
    }


def engine_main(args) -> int:
    tracer = None
    if args.trace:
        from repro import obs

        tracer = tracing.install()
        obs.enable()
    _setup(args.workload)
    print("READY", flush=True)
    command = sys.stdin.readline().strip()
    if command == "env":
        print(json.dumps(environment()), flush=True)
    elif command == "go":
        out = _pass(args.workload, args.seed, args.seconds, tracer)
        if tracer is not None:
            out["self_times"] = tracer.self_times()
            Path(args.spans).write_text(json.dumps(tracer.dump()))
        print(json.dumps(out), flush=True)
    return 0


# ------------------------------------------------------------------ serve
def _trace_pool_batches(trace_dir: Path) -> None:
    """Trace the engine inside the daemon's pool worker.

    ``repro.service.daemon._serve_batch`` is what the daemon hands its
    executor; it is resolved (and pickled) by module attribute, so the
    wrapper installed here is what the forked worker runs.
    """
    from repro import obs
    from repro.service import daemon

    tracer = tracing.install()
    obs.enable()
    original = daemon._serve_batch
    state = {"batches": 0}

    @functools.wraps(original)
    def traced_batch(requests, *args, **kwargs):
        if tracer.pid != os.getpid():  # first batch in a fresh pool worker
            tracer.reset()
            obs.active().reset()
        tracer.request = state["batches"]
        try:
            return original(requests, *args, **kwargs)
        finally:
            tracer.request = -1
            state["batches"] += 1
            path = trace_dir / f"pool-worker-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({
                "self_times": tracer.self_times(),
                "counters": tracing.counters(),
            }))
            os.replace(tmp, path)

    daemon._serve_batch = traced_batch


def serve_main(args) -> int:
    if args.trace:
        _trace_pool_batches(Path(args.trace_dir))
    from repro.service.cli import main

    rc = main(args.serve_args)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"peak_rss_mb": _rss_mb(_vm_hwm_kb() + children)}),
          flush=True)
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    sub = parser.add_subparsers(dest="role", required=True)
    eng = sub.add_parser("engine")
    eng.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    eng.add_argument("--seed", type=int, required=True)
    eng.add_argument("--seconds", type=float, required=True)
    eng.add_argument("--trace", action="store_true")
    eng.add_argument("--spans", default=None)
    srv = sub.add_parser("serve")
    srv.add_argument("--trace", action="store_true")
    srv.add_argument("--trace-dir", default=None)
    srv.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.role == "engine":
        return engine_main(args)
    if args.serve_args[:1] == ["--"]:
        args.serve_args = args.serve_args[1:]
    return serve_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
