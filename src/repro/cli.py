"""``repro-map`` — command-line mapping of task graphs onto machines.

The tool a downstream user actually wants: feed it a task graph (JSON, as
written by :func:`repro.taskgraph.save_taskgraph` or an LB dump from
:class:`repro.runtime.LBDatabase`), a machine spec, and a strategy name;
get a placement JSON plus a quality report.

Examples::

    repro-map --taskgraph app.json --topology torus:8x8 --strategy TopoLB
    repro-map --taskgraph dump.json --lb-dump --topology mesh:4x4x4 \
              --strategy RefineTopoLB --output placement.json
    repro-map --taskgraph app.json --topology torus:8x8 --profile prof.json
    repro-map --stats prof.json
    repro-map --list-strategies

``--profile`` records per-phase wall times, mapper repair counters, and —
via a short network-simulator replay of the produced placement — per-link
load summaries, all written as a schema-validated ``repro-profile-v1``
artifact (see ``docs/OBSERVABILITY.md``). ``--stats`` renders such an
artifact as a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-map",
        description="Map a task graph onto a machine topology (TopoLB et al.)",
    )
    parser.add_argument("--taskgraph", type=Path,
                        help="task-graph JSON (repro-taskgraph-v1)")
    parser.add_argument("--lb-dump", action="store_true",
                        help="input is an LB dump (repro-lbdump-v1) instead")
    parser.add_argument("--topology", help="machine spec, e.g. torus:8x8x8")
    parser.add_argument("--strategy", default="TopoLB",
                        help="strategy name or mapper spec string, e.g. "
                             "TopoLB or pipeline:inner=topolb,order=3;refine=on "
                             "(see --list-strategies)")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    # Literal choices so building the parser stays import-light; validated
    # again by set_default_kernel against repro.mapping.kernels.KERNELS.
    parser.add_argument("--kernel",
                        choices=("vectorized", "reference", "incremental"),
                        default=None,
                        help="mapper kernel for this run (default: the "
                             "process-wide default, i.e. vectorized)")
    parser.add_argument("--output", type=Path,
                        help="write placement JSON here (default: stdout report only)")
    parser.add_argument("--profile", type=Path,
                        help="record telemetry and write a repro-profile-v1 JSON here")
    parser.add_argument("--simulate-iters", type=int, default=None,
                        help="replay N Jacobi-style iterations through the network "
                             "simulator (default: 1 when --profile is set, else 0)")
    parser.add_argument("--netsim-mode", choices=("des", "flow"),
                        default="des",
                        help="network evaluation for --simulate-iters: 'des' "
                             "replays through the per-packet simulator, "
                             "'flow' uses the static flow-level contention "
                             "estimator (fast; lower-bound makespan — see "
                             "docs/ARCHITECTURE.md for the validity envelope)")
    parser.add_argument("--buffer-bytes", type=float, default=None,
                        metavar="BYTES",
                        help="finite per-link buffer capacity for the DES "
                             "replay (default: unbounded FIFO queues); "
                             "overload behaviour is set by --overload-policy "
                             "and tail latencies are reported per size class")
    parser.add_argument("--overload-policy", choices=("drop", "ecn", "credit"),
                        default="drop",
                        help="what a full finite buffer does (only with "
                             "--buffer-bytes): 'drop' tail-drops and "
                             "retransmits end-to-end, 'ecn' marks past a "
                             "threshold and paces marked flows, 'credit' "
                             "applies lossless hop-by-hop backpressure")
    parser.add_argument("--stats", type=Path, metavar="PROFILE",
                        help="summarize an existing profile JSON and exit")
    parser.add_argument("--list-strategies", action="store_true",
                        help="print the unified mapper registry (strategy "
                             "aliases plus spec kinds and their options) and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_strategies:
        from repro.engine import describe_mappers

        try:
            print("\n".join(describe_mappers()))
        except BrokenPipeError:  # e.g. `repro-map --list-strategies | head`
            sys.stderr.close()
        return 0

    if args.stats is not None:
        from repro.obs import load_profile, summarize_profile

        try:
            print(summarize_profile(load_profile(args.stats)))
        except BrokenPipeError:  # e.g. `repro-map --stats ... | head`
            sys.stderr.close()
            return 0
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if not args.taskgraph or not args.topology:
        parser.error("--taskgraph and --topology are required "
                     "(or --list-strategies / --stats)")
    if args.simulate_iters is not None and args.simulate_iters < 0:
        parser.error("--simulate-iters must be >= 0")
    if args.buffer_bytes is not None and args.buffer_bytes <= 0:
        parser.error("--buffer-bytes must be positive")
    if args.buffer_bytes is not None and args.netsim_mode == "flow":
        parser.error("--buffer-bytes requires the DES (--netsim-mode des); "
                     "the flow estimator has no buffer model")

    try:
        report = run_mapping(
            args.taskgraph, args.lb_dump, args.topology, args.strategy,
            args.seed, args.output, profile=args.profile,
            simulate_iters=args.simulate_iters, kernel=args.kernel,
            netsim_mode=args.netsim_mode,
            buffer_bytes=args.buffer_bytes,
            overload_policy=args.overload_policy,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    width = max(len(k) for k in report)
    for key, value in report.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{key.ljust(width)}  {shown}")
    return 0


def run_mapping(graph_path: Path, is_lb_dump: bool, topology_spec: str,
                strategy: str, seed: int, output: Path | None,
                profile: Path | None = None,
                simulate_iters: int | None = None,
                kernel: str | None = None,
                netsim_mode: str = "des",
                buffer_bytes: float | None = None,
                overload_policy: str = "drop") -> dict:
    """Load inputs, run the strategy, optionally replay/profile/write."""
    from repro import obs
    from repro.engine import canonical_command, canonical_mapper_spec
    from repro.mapping.estimation import average_distance_vector
    from repro.mapping.kernels import get_default_kernel, set_default_kernel
    from repro.mapping.metrics import _MATRIX_LIMIT
    from repro.runtime.lbdb import LBDatabase
    from repro.runtime.simulation import replay_strategy
    from repro.taskgraph.io import load_taskgraph
    from repro.topology.factory import topology_from_spec

    if simulate_iters is None:
        simulate_iters = 1 if profile is not None else 0

    prof = obs.enable() if profile is not None else None
    prev_kernel = set_default_kernel(kernel) if kernel is not None else None
    try:
        with obs.timer("cli.load"):
            if is_lb_dump:
                database = LBDatabase.load(graph_path)
            else:
                database = LBDatabase.from_taskgraph(load_taskgraph(graph_path))
            topology = topology_from_spec(topology_spec)
            # Building the machine model is part of loading it: warm the
            # shared distance tables here so the mapper timers below measure
            # mapping, not O(p^2) table construction. Above the dense-table
            # limit the mappers themselves never materialize a p x p matrix
            # (they stream distance rows), so warming one here would be the
            # only O(p^2) allocation in the whole run — skip it.
            if topology.num_nodes <= _MATRIX_LIMIT:
                average_distance_vector(topology)

        with obs.timer("cli.map"):
            report, mapping = replay_strategy(database, topology, strategy, seed=seed)

        netsim_summary = None
        if simulate_iters > 0:
            netsim_summary = _replay_network(
                mapping, report, simulate_iters, mode=netsim_mode,
                buffer_bytes=buffer_bytes, overload_policy=overload_policy,
            )

        if output is not None:
            output.write_text(json.dumps({
                "format": "repro-placement-v1",
                "strategy": strategy,
                "topology": topology_spec,
                "placement": mapping.assignment.tolist(),
            }))
            report["placement_written"] = str(output)

        if prof is not None:
            doc = obs.build_profile(
                prof,
                # The full canonical invocation — strategy in canonical spec
                # form plus the seed and kernel flags — so a recorded profile
                # identifies the exact run that produced it.
                command=canonical_command(strategy, topology_spec, seed, kernel),
                context={
                    "taskgraph": str(graph_path),
                    "topology": topology_spec,
                    "strategy": strategy,
                    "spec": canonical_mapper_spec(strategy),
                    "seed": seed,
                    "kernel": get_default_kernel(),
                    "num_objects": report["num_objects"],
                    "num_processors": report["num_processors"],
                    "simulate_iters": simulate_iters,
                },
                netsim=netsim_summary,
            )
            obs.save_profile(doc, profile)
            report["profile_written"] = str(profile)
    finally:
        if prev_kernel is not None:
            set_default_kernel(prev_kernel)
        if prof is not None:
            obs.disable()
    return report


def _replay_network(mapping, report: dict, iterations: int,
                    mode: str = "des",
                    buffer_bytes: float | None = None,
                    overload_policy: str = "drop") -> dict:
    """Evaluate the mapped app's network behaviour; extend ``report`` and
    return the per-link load summary for the profile's ``netsim`` section.

    ``mode="des"`` replays through the per-packet simulator; ``mode="flow"``
    runs the static flow-level estimator instead — same traffic, no event
    queue, makespan reported as a lower bound (``sim_time_us`` is then that
    bound, not a measured completion time). With ``buffer_bytes`` set the
    DES models finite link buffers under ``overload_policy``, and the
    summary gains a ``tail`` section with p50/p99/p999 latencies, size-class
    rows, and overload counters.
    """
    from repro import obs

    if mode == "flow":
        from repro.netsim.flow import flow_evaluate, flow_summary

        with obs.timer("cli.simulate"):
            flow = flow_evaluate(mapping, iterations=iterations)
        report["sim_iterations"] = iterations
        report["sim_mode"] = "flow"
        report["sim_time_us"] = flow.makespan_lower_bound
        report["sim_max_link_bytes"] = flow.max_link_bytes
        return flow_summary(flow)

    from repro.netsim.appsim import IterativeApplication
    from repro.netsim.simulator import NetworkSimulator
    from repro.netsim.stats import link_summary, tail_summary

    with obs.timer("cli.simulate"):
        kwargs = {}
        if buffer_bytes is not None:
            # Buffered replay. The Jacobi loop is closed-loop — every task
            # waits on its neighbor messages — so a finally-dropped message
            # would wedge the app; make retransmission persistent (the
            # closed loop self-limits, so retries drain) and keep the
            # unroutable backstop as drop-and-count rather than abort.
            kwargs = {"buffer_bytes": buffer_bytes,
                      "overload_policy": overload_policy,
                      "unroutable_policy": "drop",
                      "max_retries": 64}
        sim = NetworkSimulator(mapping.topology, **kwargs)
        app = IterativeApplication(mapping, sim, iterations=iterations)
        result = app.run()
    report["sim_iterations"] = iterations
    report["sim_mode"] = "des"
    report["sim_time_us"] = result.total_time
    report["sim_mean_latency_us"] = result.mean_message_latency
    report["sim_messages"] = result.messages_delivered
    summary = link_summary(sim)
    tail = tail_summary(sim, iteration_times=result.iteration_times)
    summary["tail"] = tail
    report["sim_p50_us"] = tail["latency"]["p50"]
    report["sim_p99_us"] = tail["latency"]["p99"]
    report["sim_p999_us"] = tail["latency"]["p999"]
    if buffer_bytes is not None:
        report["sim_dropped"] = tail["dropped"]
        report["sim_retransmits"] = tail["retransmits"]
        report["sim_ecn_marks"] = tail["ecn_marks"]
    return summary


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
