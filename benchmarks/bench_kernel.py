"""Kernel benchmark: plane evaluation and the complement-edge BDD core.

Two measurements, one record (``BENCH_kernel.json``):

* **Candidate evaluation** — the full solvable Table-2 library three
  ways: the legacy object-space sweep (caches off, the frozen-code
  machine-speed yardstick shared with the other gates), the indexed
  engine forced onto the big-int oracle kernel (``kernel="bigint"``),
  and the same engine on the vectorized bit-plane kernel
  (``kernel="planes"``).  The two kernel sweeps must be byte-identical
  — the kernel knob is performance-only by construction — and the
  record keeps a per-row SHA-256 of each case's result fingerprint so
  the CI gate (``check_bench_regression.py --suite kernel``) fails on
  *any* encoding drift, plus the slowest-row speedup the tentpole
  claims.

* **Symbolic census** — wall-clock of the pipe16/pipe24 Table-1
  censuses on the rebuilt BDD core (complement edges, inlined apply
  cache, fused and-exists image).  The pre-rewrite core is gone from
  the tree, so its timings are frozen constants below
  (``LEGACY_CENSUS``), measured on the same container alongside the
  legacy yardstick; the recorded ``census_speedup`` rescales those
  constants by the yardstick ratio before dividing, so the number
  stays meaningful on a faster or slower runner.

Runnable standalone (``PYTHONPATH=src python benchmarks/bench_kernel.py``)
or through pytest (``pytest benchmarks/bench_kernel.py -s``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import time

from repro.bench_stg.library import load_benchmark
from repro.core.planes import numpy_available
from repro.engine.batch import run_benchmark_suite
from repro.symbolic import symbolic_census

RECORD_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
SUITE = "table2"
CENSUS_ROWS = ("pipe16", "pipe24")
CENSUS_REPEATS = 3

#: Pre-rewrite BDD core census wall-clock (best of 3), measured on the
#: container that produced the committed record, next to the legacy
#: Table-2 sweep that serves as its machine-speed yardstick.  The old
#: core no longer exists in the tree, so these are the frozen half of
#: the census-speedup comparison.
LEGACY_CENSUS = {
    "pipe16": 0.474,
    "pipe24": 1.314,
    "legacy_sweep_seconds": 17.86,
}


def _fingerprint_hash(item) -> str:
    blob = json.dumps(item.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _census_seconds(name: str) -> dict:
    stg = load_benchmark(name, table="table1")
    best = None
    census = None
    for _ in range(CENSUS_REPEATS):
        started = time.perf_counter()
        census = symbolic_census(stg)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return {
        "name": name,
        "seconds": round(best, 3),
        "states": census.states,
        "bdd_nodes": census.bdd_nodes,
    }


def run_kernel_benchmark(record_path: pathlib.Path = RECORD_PATH) -> dict:
    """Run the sweeps, check identity, write and return the record."""
    legacy = run_benchmark_suite(table=SUITE, jobs=1, caches_on=False)
    bigint = run_benchmark_suite(table=SUITE, jobs=1, caches_on=True, kernel="bigint")
    planes = run_benchmark_suite(table=SUITE, jobs=1, caches_on=True, kernel="planes")

    fingerprints = [
        json.dumps(result.fingerprints(), sort_keys=True)
        for result in (bigint, planes)
    ]
    identical = len(set(fingerprints)) == 1

    rows = [
        {
            "name": big.name,
            "solved": big.solved,
            "inserted": big.summary.get("inserted"),
            "bigint_cpu": round(big.seconds, 3),
            "planes_cpu": round(fast.seconds, 3),
            "fingerprint_sha256": _fingerprint_hash(big),
        }
        for big, fast in zip(bigint.items, planes.items)
    ]
    slowest = max(rows, key=lambda row: row["bigint_cpu"])
    slowest_speedup = (
        round(slowest["bigint_cpu"] / slowest["planes_cpu"], 3)
        if slowest["planes_cpu"] > 0
        else None
    )

    # the frozen legacy census constants were taken next to a legacy
    # sweep of LEGACY_CENSUS["legacy_sweep_seconds"]; scale them by the
    # yardstick ratio so the speedup is machine-independent
    machine_factor = legacy.wall_seconds / LEGACY_CENSUS["legacy_sweep_seconds"]
    census_rows = []
    for name in CENSUS_ROWS:
        row = _census_seconds(name)
        legacy_seconds = LEGACY_CENSUS[name]
        row["legacy_census_seconds"] = legacy_seconds
        row["census_speedup"] = (
            round(legacy_seconds * machine_factor / row["seconds"], 3)
            if row["seconds"] > 0
            else None
        )
        census_rows.append(row)

    record = {
        "benchmark": "bench_kernel",
        "suite": SUITE,
        "cores": os.cpu_count(),
        "plane_backend": "numpy" if numpy_available() else "bigint",
        "cases": [item.name for item in bigint.items],
        "legacy_serial_seconds": round(legacy.wall_seconds, 3),
        "bigint_sweep_seconds": round(bigint.wall_seconds, 3),
        "planes_sweep_seconds": round(planes.wall_seconds, 3),
        "sweep_speedup": (
            round(bigint.wall_seconds / planes.wall_seconds, 3)
            if planes.wall_seconds > 0
            else None
        ),
        "slowest_row": slowest["name"],
        "slowest_bigint_cpu": slowest["bigint_cpu"],
        "slowest_planes_cpu": slowest["planes_cpu"],
        "slowest_row_speedup": slowest_speedup,
        "identical": identical,
        "solved": bigint.solved_count,
        "total": len(bigint.items),
        "per_stg": rows,
        "census": census_rows,
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def test_kernel_identity(report_sink):
    """The planes kernel must be byte-identical to the big-int oracle on
    every Table-2 case, and the rebuilt BDD core must still produce the
    known pipe16/pipe24 state counts.  Speedups are recorded, not
    asserted raw: the CI gate normalises with the legacy yardstick."""
    record = run_kernel_benchmark()
    report_sink.setdefault(
        "Native-speed kernels: planes vs big-int, BDD census (Table-2 + Table-1)", []
    ).append(
        {
            "cases": record["total"],
            "backend": record["plane_backend"],
            "bigint_s": record["bigint_sweep_seconds"],
            "planes_s": record["planes_sweep_seconds"],
            "slowest_row": record["slowest_row"],
            "slowest_speedup": record["slowest_row_speedup"],
            "census": {
                row["name"]: f"{row['seconds']}s ({row['census_speedup']}x)"
                for row in record["census"]
            },
            "identical": record["identical"],
        }
    )
    assert record["identical"], "planes kernel results differ from the big-int oracle"
    states = {row["name"]: row["states"] for row in record["census"]}
    assert states["pipe16"] == 2821109907456
    assert states["pipe24"] == 4738381338321616896


if __name__ == "__main__":
    outcome = run_kernel_benchmark()
    print(json.dumps(outcome, indent=2, sort_keys=True))
    sys.exit(0 if outcome["identical"] else 1)
