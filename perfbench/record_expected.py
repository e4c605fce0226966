"""Record the exact outputs every benchmark input must reproduce.

Runs each pool input of every workload once through ``MappingEngine`` and
writes ``perfbench/expected.json``: per workload, per input key, the
``hops_per_byte`` (and ``des_makespan_us`` where the DES runs) as exact
floats. ``run.py`` compares every result it sees against this table, so a
change in mapping behaviour shows up as a failed output check.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 perfbench/record_expected.py [workload ...]

Named workloads are re-recorded; the others keep their entries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, pool  # noqa: E402

EXPECTED = HERE / "expected.json"


def expected_values(metrics: dict) -> dict:
    """The checked subset of a result's metrics block."""
    keep = {"hops_per_byte": float(metrics["hops_per_byte"])}
    if "des_makespan_us" in metrics:
        keep["des_makespan_us"] = float(metrics["des_makespan_us"])
    return keep


def main(argv: list[str]) -> int:
    from repro.engine.core import MappingEngine, MappingRequest

    names = argv or list(WORKLOADS)
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    engine = MappingEngine()
    for name in names:
        entries = {}
        for item in pool(name):
            result = engine.run(MappingRequest(**item.request_kwargs()))
            entries[item.key] = expected_values(result.metrics)
            print(name, item.key, entries[item.key], flush=True)
        table[name] = entries
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
