"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload map-stencil --seed 1 --seconds 20 --trace 0

Every workload runs in fresh Python processes with one client and at most
one request in flight (a closed loop). A run

1. makes one untimed warm-up start, which fills ``__pycache__`` and the
   compiled refine kernel and reports the environment block;
2. with ``--trace 0``, times ``SETUP_STARTS`` fresh starts (process spawn
   until ready to serve) and keeps the last one for a timed pass of whole
   request cycles, ``--seconds`` long;
3. with ``--trace 1``, runs one untraced and one traced pass of half the
   time each, in separate fresh processes, and reports per-layer numbers
   from the traced one and the ratio of the two throughputs;
4. checks every output against ``expected.json`` (and serve-dup hits
   against their original miss), prints each metric by name with its unit
   and sample count, and ends with one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

All processes of a run are pinned to one CPU with one BLAS thread, and
every time is scaled by the host-speed factor of ``probe.py`` (the raw
numbers are printed next to the scaled ones): on a shared host the same code
runs up to a fifth faster or slower from one run to the next, and that drift
would otherwise swamp the bounds in ``BENCHMARK.json``.

The exit code is 0 when every output checked out, 1 when one did not, and 2
when the benchmark could not run (for instance without ``src/repro``).
A report with the environment block is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from probe import REFERENCE_S, Probes, probe  # noqa: E402
from workloads import (  # noqa: E402
    SERVE_CYCLE,
    WORKLOADS,
    ServeStream,
    serve_body,
)

#: Fresh starts timed per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Wall-clock limits for one child step (set-up, or one pass beyond its
#: budget), so a wedged child cannot hold the run past its deadline.
READY_TIMEOUT = 60.0
PASS_GRACE = 90.0

_ANNOUNCE = re.compile(r"listening on http://([^:\s]+):(\d+)")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an output mismatch)."""


# --------------------------------------------------------------- processes
class Children:
    """Every process this run starts; all are stopped and reaped on exit."""

    def __init__(self, env: dict):
        self.env = env
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=ROOT,
        )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for pipe in (proc.stdin, proc.stdout):
                if pipe is not None:
                    pipe.close()


def _ready(proc: subprocess.Popen, timeout: float) -> bool:
    """Whether ``proc`` has output to read within ``timeout`` seconds."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        return bool(sel.select(timeout))


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``; raises if it exits or stalls."""
    if not _ready(proc, timeout):
        raise BenchError(f"child {proc.args[2:4]} gave no output in "
                         f"{timeout:.0f}s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"child {proc.args[2:4]} exited "
                         f"(code {proc.wait()})")
    return line.strip()


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Keep every file the program writes inside the checkout.
    env["REPRO_NATIVE_CACHE"] = str(OUT / "native")
    env["TMPDIR"] = str(OUT / "tmp")
    env["PYTHONHASHSEED"] = "0"
    # All processes of a run share one CPU (see main), so one BLAS thread.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_NO_NATIVE", None)
    return env


# ------------------------------------------------------------ engine runs
def _engine_argv(args, seconds: float, trace: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "engine",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds)]
    if trace:
        argv += ["--trace", "--spans", str(_spans_path(args))]
    return argv


def _spans_path(args) -> Path:
    return OUT / f"spans-{args.workload}-seed{args.seed}.json"


def start_engine(children: Children, argv: list[str]):
    """Spawn an engine worker; returns (process, seconds until READY)."""
    t0 = time.perf_counter()
    proc = children.spawn(argv)
    line = _readline(proc, READY_TIMEOUT)
    elapsed = time.perf_counter() - t0
    if line != "READY":
        raise BenchError(f"engine worker said {line!r} instead of READY")
    return proc, elapsed


def command(proc: subprocess.Popen, text: str, timeout: float,
            probes: Probes | None = None) -> str:
    """Send ``text``; return the reply line. With ``probes``, probe the host
    once per ``probes.interval`` while waiting for the reply."""
    proc.stdin.write(text + "\n")
    proc.stdin.flush()
    if text == "quit":
        proc.wait(timeout)
        return ""
    deadline = time.perf_counter() + timeout
    while probes is not None and not _ready(proc, probes.interval):
        if time.perf_counter() > deadline:
            raise BenchError(f"child {proc.args[2:4]} gave no reply")
        probes.times.append(probe())
    line = _readline(proc, max(1.0, deadline - time.perf_counter()))
    proc.wait(timeout)
    return line


def probe_environment(children: Children, args) -> dict:
    """The untimed warm-up start; also reports the environment block."""
    proc, _ = start_engine(children, _engine_argv(args, 0.0, False))
    return json.loads(command(proc, "env", READY_TIMEOUT))


def engine_pass(children: Children, args, seconds: float, trace: bool,
                starts: int = 1) -> tuple[list[float], dict]:
    """``starts`` timed fresh starts; the last one runs the pass."""
    setups = []
    for k in range(starts):
        proc, elapsed = start_engine(children,
                                     _engine_argv(args, seconds, trace))
        setups.append(elapsed)
        if k < starts - 1:
            command(proc, "quit", READY_TIMEOUT)
    # The client shares the program's CPU; probing it once a second while
    # the pass runs spreads probes over long requests too (CPU time, so the
    # sharing does not count; it costs the pass under 1% of its CPU).
    waiting = Probes(interval=1.0)
    out = json.loads(command(proc, "go", seconds + PASS_GRACE, waiting))
    out["probes_s"] += waiting.times
    return setups, out


# ----------------------------------------------------------- service runs
class Daemon:
    """One ``repro-serve --jobs 1`` process, launched through worker.py."""

    def __init__(self, children: Children, trace_dir: Path | None = None):
        argv = [sys.executable, str(HERE / "worker.py"), "serve"]
        if trace_dir is not None:
            argv += ["--trace", "--trace-dir", str(trace_dir)]
        argv += ["--", "--host", "127.0.0.1", "--port", "0", "--jobs", "1"]
        t0 = time.perf_counter()
        self.proc = children.spawn(argv)
        match = _ANNOUNCE.search(_readline(self.proc, READY_TIMEOUT))
        if match is None:
            raise BenchError("repro-serve did not announce its port")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = t0 + READY_TIMEOUT
        while True:
            try:
                status, _ = self.call("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise BenchError("repro-serve /healthz never answered")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - t0

    def call(self, method: str, path: str, body: bytes | None = None):
        """One HTTP exchange; returns (status, raw body)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stop(self) -> float:
        """Shut down cleanly; returns the daemon + pool worker peak RSS."""
        self.call("POST", "/shutdown", b"{}")
        rest, _ = self.proc.communicate(timeout=READY_TIMEOUT)
        lines = [line for line in rest.splitlines() if line.startswith("{")]
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"repro-serve exited with {self.proc.returncode}")
        return float(json.loads(lines[-1])["peak_rss_mb"])


def serve_pass(daemon: Daemon, args, seconds: float) -> dict:
    """Whole 20-request cycles of the serve-dup stream, one in flight."""
    stream = ServeStream(args.seed)
    bodies: dict[int, bytes] = {}
    records: list[dict] = []
    assignments: dict[int, list] = {}
    probes = Probes(interval=0.1)
    start = time.perf_counter()
    probing = 0.0
    c = 0
    while True:
        cycle = stream.cycle(c)
        if cycle is None:
            break
        for u in cycle:
            probing += probes.tick()
            body = bodies.get(u)
            if body is None:
                body = bodies[u] = json.dumps(
                    serve_body(stream.uniques[u])).encode()
            t0 = time.perf_counter()
            status, raw = daemon.call("POST", "/map", body)
            latency = time.perf_counter() - t0
            record = {"key": stream.uniques[u].key, "latency_s": latency}
            reply = json.loads(raw) if raw else {}
            if status != 200 or reply.get("status") != "done":
                record["error"] = f"HTTP {status}: {reply.get('error', reply)}"
            else:
                result = reply["result"]
                record["cached"] = bool(reply.get("cached"))
                record["hops_per_byte"] = result["metrics"]["hops_per_byte"]
                first = assignments.setdefault(u, result["assignment"])
                if result["assignment"] != first:
                    record["error"] = "assignment differs from the first reply"
            records.append(record)
        c += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / c > seconds:
            break
    probing += probes.tick()
    return {
        "records": records, "cycles": c, "cycle_length": SERVE_CYCLE,
        "wall_s": time.perf_counter() - start - probing,
        "probes_s": probes.times,
    }


def serve_metrics_doc(daemon: Daemon) -> dict:
    status, raw = daemon.call("GET", "/metrics")
    if status != 200:
        raise BenchError(f"GET /metrics answered {status}")
    return json.loads(raw)


# ---------------------------------------------------------------- checking
def check(records: list[dict], table: dict) -> int:
    """Mark wrong outputs in place; returns the number of failed records."""
    failed = 0
    for record in records:
        if "error" not in record:
            want = table.get(record["key"])
            if want is None:
                record["error"] = "no recorded output for this input"
            else:
                for name, value in want.items():
                    if record.get(name) != value:
                        record["error"] = (
                            f"{name} {record.get(name)!r} != recorded {value!r}")
                        break
        failed += "error" in record
    return failed


# ----------------------------------------------------------------- metrics
def median_ms(latencies: list[float]) -> float:
    return statistics.median(latencies) * 1e3


def tail(latencies: list[float], q: float) -> tuple[float, int] | None:
    """Nearest-rank percentile ``q`` and the samples beyond it, or None when
    fewer than 10 samples lie beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(q * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < 10:
        return None
    return ordered[rank - 1] * 1e3, beyond


def distinct_mean(records: list[dict], field: str) -> float:
    """Mean of ``field`` over the first result of each distinct input."""
    seen: dict[str, float] = {}
    for record in records:
        if field in record and record["key"] not in seen:
            seen[record["key"]] = record[field]
    return statistics.fmean(seen.values()) if seen else float("nan")


def speed_factor(out: dict) -> float:
    """Host-speed factor of a pass (see probe.py); times are multiplied by
    it and rates divided, so that drift of the shared host cancels."""
    return REFERENCE_S / statistics.median(out["probes_s"])


def end_to_end(out: dict, setups: list[float]) -> tuple[dict, dict, list]:
    """The end-to-end metrics of one pass, their notes, and the report-only
    extras (metrics that are not on every workload, or may be 0)."""
    records = out["records"]
    latencies = [r["latency_s"] for r in records]
    done = sum("error" not in r for r in records)
    speed = speed_factor(out)
    setup = statistics.median(setups)
    rate = done / out["wall_s"]
    p50 = median_ms(latencies)
    values = {
        "setup_s": setup * speed,
        "requests_per_s": rate / speed,
        "p50_ms": p50 * speed,
        "hops_per_byte": distinct_mean(records, "hops_per_byte"),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    distinct = len({r["key"] for r in records})
    notes = {
        "setup_s": f"median of {len(setups)} fresh starts; raw {setup:.4f}",
        "requests_per_s": f"{done} requests in {out['wall_s']:.2f} s, "
                          f"{out['cycles']} cycles of {out['cycle_length']}; "
                          f"raw {rate:.4g}",
        "p50_ms": f"n={len(latencies)}; raw {p50:.4g}",
        "hops_per_byte": f"mean over {distinct} distinct inputs",
        "peak_rss_mb": "peak resident memory of "
                       + out.get("peak_rss_scope", "the daemon and its pool "
                                 "worker over the whole run"),
    }
    extra = []
    p99 = tail(latencies, 0.99)
    if p99 is not None:
        extra.append(("p99_ms", p99[0], "ms",
                      f"n={len(latencies)}, {p99[1]} beyond"))
    if any("des_makespan_us" in r for r in records):
        extra.append(("des_makespan_us",
                      distinct_mean(records, "des_makespan_us"), "us",
                      f"mean over {distinct} distinct inputs"))
    failed = len(records) - done
    extra.append(("speed_factor", speed, "ratio",
                  f"reference {REFERENCE_S * 1e3:g} ms / median of "
                  f"{len(out['probes_s'])} probes; times above are scaled "
                  "by it"))
    extra.append(("failed_frac", failed / max(1, len(records)), "ratio",
                  f"{failed} of {len(records)} requests"))
    return values, notes, extra


def engine_layers(out: dict) -> dict:
    """Per-layer metrics of a traced engine pass (seconds per request)."""
    records = out["records"]
    st = out["self_times"]
    n = len(records)

    def per_request(*names: str) -> float:
        return sum(st.get(name, {}).get("self_s", 0.0) for name in names) / n

    def counter(name: str) -> float:
        return distinct_mean(
            [{"key": r["key"], name: r["counters"][name]} for r in records],
            name)

    values = _span_layers(per_request)
    engine = st.get("engine.run", {"self_s": 0.0, "total_s": 1.0})
    values.update({
        "topology.tables_s": st.get("topology.tables", {}).get("setup_s", 0.0),
        "topology.cache_misses": counter("topology.cache.misses"),
        "mapping.topolb_cycles": counter("topolb.cycles"),
        "mapping.refine_pairs_evaluated": counter("refine.pairs_evaluated"),
        "mapping.refine_swaps_accepted": counter("refine.swaps_accepted"),
        "netsim.transmissions": counter("netsim.transmissions"),
        "netsim.buffer_drops": counter("netsim.buffer_drops"),
        "netsim.retransmits": counter("netsim.retransmits"),
        "engine.unattributed_frac": engine["self_s"] / engine["total_s"],
    })
    # The engine workloads do not reach the service layer.
    values.update(dict.fromkeys(SERVICE_LAYERS, 0.0))
    return values


def _span_layers(per_request) -> dict:
    return {
        "taskgraph.build_s": per_request("taskgraph.build"),
        "topology.pass_s": per_request("topology.tables", "topology.coarsen"),
        "mapping.topolb_s": per_request("mapping.topolb"),
        "mapping.topocentlb_s": per_request("mapping.topocentlb"),
        "mapping.refine_s": per_request("mapping.refine"),
        "mapping.multilevel_s": per_request("mapping.multilevel"),
        "mapping.other_s": per_request("mapping.other"),
        "mapping.metrics_s": per_request("mapping.metrics"),
        "partition.coarsen_s": per_request("partition.coarsen"),
        "netsim.flow_s": per_request("netsim.flow"),
        "netsim.des_s": per_request("netsim.des"),
        "validate.cheap_s": per_request("validate.cheap"),
        "engine.self_s": per_request("engine.run"),
    }


SERVICE_LAYERS = (
    "service.hit_ms", "service.miss_ms", "service.server_hit_ms",
    "service.server_miss_ms", "service.key_s", "service.batches",
    "service.queue_depth_max", "service.transport_ms", "service.hit_ratio",
)


def service_layers(out: dict, doc: dict, trace_dir: Path) -> dict:
    """Per-layer metrics of a traced serve-dup pass."""
    records = [r for r in out["records"] if "error" not in r]
    hits = [r["latency_s"] for r in records if r["cached"]]
    misses = [r["latency_s"] for r in records if not r["cached"]]
    counters = doc.get("counters", {})
    timers = doc.get("timers", {})
    key = timers.get("service.key", {"total_s": 0.0, "count": 1})
    hit_ms = median_ms(hits) if hits else 0.0
    server_hit_ms = counters.get("service.latency_hit_p50_us", 0.0) / 1e3

    st: dict[str, dict] = {}
    totals: dict[str, float] = {}
    for path in trace_dir.glob("pool-worker-*.json"):
        dump = json.loads(path.read_text())
        for name, cell in dump["self_times"].items():
            mine = st.setdefault(name, {"self_s": 0.0, "total_s": 0.0,
                                        "calls": 0})
            for field in mine:
                mine[field] += cell[field]
        for name, value in dump["counters"].items():
            totals[name] = totals.get(name, 0.0) + value
    engine = st.get("engine.run", {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    n = max(1, engine["calls"])

    def per_request(*names: str) -> float:
        return sum(st.get(name, {}).get("self_s", 0.0) for name in names) / n

    values = _span_layers(per_request)
    values.update({
        "topology.tables_s": 0.0,
        "topology.cache_misses": totals.get("topology.cache.misses", 0.0) / n,
        "mapping.topolb_cycles": totals.get("topolb.cycles", 0.0) / n,
        "mapping.refine_pairs_evaluated":
            totals.get("refine.pairs_evaluated", 0.0) / n,
        "mapping.refine_swaps_accepted":
            totals.get("refine.swaps_accepted", 0.0) / n,
        "netsim.transmissions": totals.get("netsim.transmissions", 0.0) / n,
        "netsim.buffer_drops": totals.get("netsim.buffer_drops", 0.0) / n,
        "netsim.retransmits": totals.get("netsim.retransmits", 0.0) / n,
        "engine.unattributed_frac":
            engine["self_s"] / engine["total_s"] if engine["total_s"] else 0.0,
        "service.hit_ms": hit_ms,
        "service.miss_ms": median_ms(misses) if misses else 0.0,
        "service.server_hit_ms": server_hit_ms,
        "service.server_miss_ms":
            counters.get("service.latency_miss_p50_us", 0.0) / 1e3,
        "service.key_s": key["total_s"] / max(1, key["count"]),
        "service.batches": float(counters.get("service.batches", 0)),
        "service.queue_depth_max":
            float(counters.get("service.queue_depth_max", 0)),
        "service.transport_ms": hit_ms - server_hit_ms,
        "service.hit_ratio": len(hits) / max(1, len(out["records"])),
    })
    return values


# ------------------------------------------------------------------- runs
def run_engine(children: Children, args, table: dict) -> dict:
    env = probe_environment(children, args)
    if not args.trace:
        setups, out = engine_pass(children, args, args.seconds, False,
                                  starts=SETUP_STARTS)
        return {"env": env, "passes": [out], "setups": setups,
                "failed": check(out["records"], table)}
    half = args.seconds / 2
    setups, plain = engine_pass(children, args, half, False)
    _, traced = engine_pass(children, args, half, True)
    failed = check(plain["records"], table) + check(traced["records"], table)
    layers = engine_layers(traced)
    layers["trace.overhead_ratio"] = _rate(traced) / _rate(plain)
    return {"env": env, "passes": [plain, traced], "setups": setups,
            "failed": failed, "layers": layers,
            "spans_file": str(_spans_path(args).relative_to(ROOT))}


def run_service(children: Children, args, table: dict) -> dict:
    env = probe_environment(children, args)
    warm = Daemon(children)  # untimed: fills __pycache__ of the pool worker
    stream = ServeStream(args.seed)
    warm.call("POST", "/map", json.dumps(serve_body(stream.uniques[0])).encode())
    warm.stop()
    if not args.trace:
        setups = []
        for k in range(SETUP_STARTS):
            daemon = Daemon(children)
            setups.append(daemon.setup_s)
            if k < SETUP_STARTS - 1:
                daemon.stop()
        out = serve_pass(daemon, args, args.seconds)
        out["peak_rss_mb"] = daemon.stop()
        return {"env": env, "passes": [out], "setups": setups,
                "failed": check(out["records"], table)}
    half = args.seconds / 2
    daemon = Daemon(children)
    setups = [daemon.setup_s]
    plain = serve_pass(daemon, args, half)
    plain["peak_rss_mb"] = daemon.stop()
    trace_dir = OUT / f"pool-trace-seed{args.seed}"
    trace_dir.mkdir(exist_ok=True)
    for stale in trace_dir.glob("pool-worker-*"):
        stale.unlink()
    daemon = Daemon(children, trace_dir)
    traced = serve_pass(daemon, args, half)
    doc = serve_metrics_doc(daemon)
    traced["peak_rss_mb"] = daemon.stop()
    failed = check(plain["records"], table) + check(traced["records"], table)
    layers = service_layers(traced, doc, trace_dir)
    layers["trace.overhead_ratio"] = _rate(traced) / _rate(plain)
    return {"env": env, "passes": [plain, traced], "setups": setups,
            "failed": failed, "layers": layers, "service_metrics": doc}


def _rate(out: dict) -> float:
    return len(out["records"]) / out["wall_s"] / speed_factor(out)


# --------------------------------------------------------------- reporting
def source_identity() -> dict:
    """Git commit when the checkout is a repository, and always a digest of
    the program source, so runs of different code are never mixed up."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "expected.json").read_text())[args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    # One closed-loop client with one request in flight never needs two
    # CPUs; pinning the client, the workers and the daemon to one CPU keeps
    # process placement, and so the timings, the same from run to run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    children = Children(child_env())
    # A terminated run still stops and reaps its children (finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner = (run_service if WORKLOADS[args.workload].kind == "service"
                  else run_engine)
        result = runner(children, args, table)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        children.close()

    env = {**result["env"], **source_identity()}
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    values, notes, extra = end_to_end(result["passes"][0], result["setups"])
    if args.trace:
        wanted = spec["per_layer"]
        values, notes = result["layers"], {}
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for item in wanted:
        value = float(values[item["name"]])
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        note = notes.get(item["name"])
        print(f"{item['name']} = {value:.6g} {item['unit']}"
              + (f" ({note})" if note else ""))
    if not args.trace:
        for name, value, unit, note in extra:
            print(f"{name} = {value:.6g} {unit} ({note}; not in the JSON)")
    attempted = sum(len(p["records"]) for p in result["passes"])
    failed = result["failed"]
    for record in (r for p in result["passes"] for r in p["records"]):
        if "error" in record:
            print(f"FAILED {record['key']}: {record['error']}")

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "setups_s": result["setups"], "metrics": metrics,
        "speed_factor": speed_factor(result["passes"][0]),
        "probes_s": result["passes"][0]["probes_s"],
        "attempted": attempted, "failed": failed,
        "latencies_s": [[r["latency_s"] for r in p["records"]]
                        for p in result["passes"]],
    }
    for field in ("spans_file", "service_metrics"):
        if field in result:
            report[field] = result[field]
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
