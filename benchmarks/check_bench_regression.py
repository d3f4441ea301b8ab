"""Bench-regression gate: fail CI when a benchmark sweep regresses.

Seven suites, selected by ``--suite``:

``table2`` (default)
    Runs the full Table-2 sweep three ways via
    :func:`benchmarks.bench_batch_engine.run_batch_benchmark` (which
    also refreshes ``BENCH_batch.json``) and compares the new *engine
    serial* wall-clock against the committed baseline.

``table1``
    Runs the Table-1 sweep via
    :func:`benchmarks.bench_table1_large_stgs.run_table1_benchmark`
    (refreshing ``BENCH_table1.json``) and gates the *symbolic* sweep
    time — census, CSC detection and hybrid solving over every row,
    including the explicitly-infeasible ones.  It also re-checks that
    every deterministic verdict field (state counts, USC/CSC pair
    counts, CSC verdicts, modes) reproduces the baseline exactly: a
    verdict drift is a correctness bug, not a performance one.

``search``
    Runs the in-solve sharding sweep via
    :func:`benchmarks.bench_parallel_search.run_search_benchmark`
    (refreshing ``BENCH_search.json``), fails unless the serial and
    ``search_jobs=4`` sweeps are byte-identical, fails on any per-row
    result-fingerprint drift against the committed baseline, and gates
    the *search serial* wall-clock — so the generate/evaluate/merge
    restructure of the Figure-4 search can never quietly slow the
    serial path down.

``obs``
    Runs the observability guard via
    :func:`benchmarks.bench_obs.run_obs_benchmark` (refreshing
    ``BENCH_obs.json``): the Table-2 sweep with observability at rest
    vs fully enabled.  Result fingerprints must stay byte-identical
    across all three runs (observability is presentation-only by
    construction), the enabled/disabled overhead ratio is bounded
    in-run, and the *disabled* sweep wall-clock is gated against the
    committed baseline via the legacy yardstick — so instrumentation
    can never quietly tax the default path.

``kernel``
    Runs the kernel sweep via
    :func:`benchmarks.bench_kernel.run_kernel_benchmark` (refreshing
    ``BENCH_kernel.json``): the Table-2 library on the big-int oracle
    kernel vs the vectorized bit-plane kernel, plus the pipe16/pipe24
    symbolic censuses on the rebuilt BDD core.  Fails unless the two
    kernel sweeps are byte-identical, fails on any per-row
    result-fingerprint or census state-count drift against the
    committed baseline, and gates both the planes sweep and the census
    wall-clock — so neither fast path can quietly regress or drift.

``synth``
    Runs the synthesis sweep via
    :func:`benchmarks.bench_synth.run_synth_benchmark` (refreshing
    ``BENCH_synth.json``): the Table-2 library with ``synth=True``, so
    every solved case also gets a verified gate network.  Fails on any
    verdict drift (``solved`` / ``verified`` / literal, cube, or gate
    counts) or per-row result-fingerprint drift against the committed
    baseline — synthesis is derived output and must never perturb
    encodings — and gates the sweep wall-clock via the legacy
    yardstick.

``swarm``
    Runs the concurrent-client service sweep via
    :func:`benchmarks.bench_swarm.run_swarm_benchmark` (refreshing
    ``BENCH_swarm.json``): hundreds of clients against the ``/v1`` API,
    1 vs N workers.  Before gating wall-clock it enforces the dedupe
    invariants exactly — one solve per distinct enqueued fingerprint
    (plus the warm seeds), a non-zero cache-hit and coalescing count,
    and a stable fingerprint universe — because a coalescing bug shows
    up as *work*, not necessarily as time, on a fast machine.

Raw wall-clock comparisons across CI runners would gate on machine
speed, not on code.  Each suite therefore carries its own frozen-code
yardstick: the legacy object-space sweep for ``table2`` and ``search``,
the explicit census of the enumerable Table-1 rows for ``table1``.  The
gate scales the committed baseline by ``new_yardstick /
baseline_yardstick`` and fails when the gated time exceeds that
expectation by more than ``--tolerance`` (default 25 %).

Usage (CI runs exactly this)::

    python benchmarks/check_bench_regression.py --baseline BENCH_batch.json.orig
    python benchmarks/check_bench_regression.py --suite table1 --baseline BENCH_table1.json.orig
    python benchmarks/check_bench_regression.py --suite search --baseline BENCH_search.json.orig

where the baseline file is a copy of the committed record taken
*before* the run refreshes it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_batch_engine import RECORD_PATH, run_batch_benchmark  # noqa: E402
from bench_kernel import (  # noqa: E402
    RECORD_PATH as KERNEL_RECORD_PATH,
    run_kernel_benchmark,
)
from bench_obs import (  # noqa: E402
    MAX_OVERHEAD_RATIO,
    RECORD_PATH as OBS_RECORD_PATH,
    run_obs_benchmark,
)
from bench_parallel_search import (  # noqa: E402
    RECORD_PATH as SEARCH_RECORD_PATH,
    run_search_benchmark,
)
from bench_synth import (  # noqa: E402
    RECORD_PATH as SYNTH_RECORD_PATH,
    run_synth_benchmark,
)
from bench_swarm import (  # noqa: E402
    RECORD_PATH as SWARM_RECORD_PATH,
    WARM as SWARM_WARM_SEEDS,
    run_swarm_benchmark,
)
from bench_table1_large_stgs import (  # noqa: E402
    RECORD_PATH as TABLE1_RECORD_PATH,
    run_table1_benchmark,
)

#: Verdict fields that must reproduce exactly across machines.
_TABLE1_VERDICT_FIELDS = (
    "symbolic_states",
    "explicit_states",
    "usc_pairs",
    "csc_pairs",
    "csc_holds",
    "mode",
    "solved",
    "inserted",
)


def _gate(name, base_yardstick, new_yardstick, base_gated, new_gated, tolerance) -> bool:
    machine_factor = new_yardstick / base_yardstick
    expected = base_gated * machine_factor
    limit = expected * (1.0 + tolerance)
    drift = new_gated / expected - 1.0
    print(
        f"yardstick: baseline {base_yardstick:.2f}s -> now {new_yardstick:.2f}s "
        f"(machine factor {machine_factor:.2f}x)"
    )
    print(
        f"{name}: baseline {base_gated:.2f}s -> now {new_gated:.2f}s "
        f"(expected <= {limit:.2f}s at {tolerance:.0%} tolerance, drift {drift:+.1%})"
    )
    if new_gated > limit:
        print(f"FAIL: {name} regressed beyond tolerance")
        return False
    return True


def check_table2(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_batch_benchmark()

    if not record["identical"]:
        print("FAIL: engine/legacy/parallel sweeps are no longer byte-identical")
        return 1

    ok = _gate(
        "engine serial",
        float(baseline["serial_seconds"]),
        float(record["serial_seconds"]),
        float(baseline["engine_serial_seconds"]),
        float(record["engine_serial_seconds"]),
        tolerance,
    )
    print(
        f"speedup vs legacy: "
        f"{float(record['serial_seconds']) / float(record['engine_serial_seconds']):.2f}x; "
        f"refreshed {RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def check_table1(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_table1_benchmark()

    baseline_rows = {row["name"]: row for row in baseline["rows"]}
    new_rows = {row["name"]: row for row in record["rows"]}
    drifted = False
    for name in baseline_rows.keys() - new_rows.keys():
        # a baseline row with no counterpart means coverage shrank — the
        # very drift this gate exists to catch
        print(f"FAIL: Table-1 row {name} disappeared from the sweep")
        drifted = True
    for row in record["rows"]:
        base_row = baseline_rows.get(row["name"])
        if base_row is None:
            print(f"note: new Table-1 row {row['name']} (no baseline verdict)")
            continue
        for field in _TABLE1_VERDICT_FIELDS:
            if row.get(field) != base_row.get(field):
                print(
                    f"FAIL: verdict drift on {row['name']}.{field}: "
                    f"baseline {base_row.get(field)!r} -> now {row.get(field)!r}"
                )
                drifted = True
    if drifted:
        return 1

    ok = _gate(
        "symbolic sweep",
        float(baseline["explicit_total_seconds"]),
        float(record["explicit_total_seconds"]),
        float(baseline["symbolic_total_seconds"]),
        float(record["symbolic_total_seconds"]),
        tolerance,
    )
    print(f"refreshed {TABLE1_RECORD_PATH}")
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def check_search(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_search_benchmark()

    if not record["identical"]:
        print("FAIL: serial and search_jobs=4 sweeps are no longer byte-identical")
        return 1

    baseline_rows = {row["name"]: row for row in baseline["per_stg"]}
    new_rows = {row["name"]: row for row in record["per_stg"]}
    drifted = False
    for name in baseline_rows.keys() - new_rows.keys():
        print(f"FAIL: Table-2 row {name} disappeared from the search sweep")
        drifted = True
    for row in record["per_stg"]:
        base_row = baseline_rows.get(row["name"])
        if base_row is None:
            print(f"note: new search-sweep row {row['name']} (no baseline fingerprint)")
            continue
        if row["fingerprint_sha256"] != base_row["fingerprint_sha256"]:
            print(
                f"FAIL: result-fingerprint drift on {row['name']}: "
                f"baseline {base_row['fingerprint_sha256'][:12]}… -> "
                f"now {row['fingerprint_sha256'][:12]}…"
            )
            drifted = True
    if drifted:
        return 1

    ok = _gate(
        "search serial",
        float(baseline["legacy_serial_seconds"]),
        float(record["legacy_serial_seconds"]),
        float(baseline["search_serial_seconds"]),
        float(record["search_serial_seconds"]),
        tolerance,
    )
    print(
        f"slowest row {record['slowest_row']}: serial {record['slowest_serial_cpu']}s "
        f"-> search_jobs=4 {record['slowest_sharded_cpu']}s "
        f"({record['slowest_row_speedup']}x on {record['cores']} core(s)); "
        f"refreshed {SEARCH_RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def check_kernel(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_kernel_benchmark()

    if not record["identical"]:
        print("FAIL: planes-kernel sweep is no longer byte-identical to the big-int oracle")
        return 1

    baseline_rows = {row["name"]: row for row in baseline["per_stg"]}
    new_rows = {row["name"]: row for row in record["per_stg"]}
    drifted = False
    for name in baseline_rows.keys() - new_rows.keys():
        print(f"FAIL: Table-2 row {name} disappeared from the kernel sweep")
        drifted = True
    for row in record["per_stg"]:
        base_row = baseline_rows.get(row["name"])
        if base_row is None:
            print(f"note: new kernel-sweep row {row['name']} (no baseline fingerprint)")
            continue
        if row["fingerprint_sha256"] != base_row["fingerprint_sha256"]:
            print(
                f"FAIL: result-fingerprint drift on {row['name']}: "
                f"baseline {base_row['fingerprint_sha256'][:12]}… -> "
                f"now {row['fingerprint_sha256'][:12]}…"
            )
            drifted = True
    baseline_census = {row["name"]: row for row in baseline["census"]}
    for row in record["census"]:
        base_row = baseline_census.get(row["name"])
        if base_row is not None and row["states"] != base_row["states"]:
            print(
                f"FAIL: census state-count drift on {row['name']}: "
                f"baseline {base_row['states']} -> now {row['states']}"
            )
            drifted = True
    if drifted:
        return 1

    ok = _gate(
        "planes sweep",
        float(baseline["legacy_serial_seconds"]),
        float(record["legacy_serial_seconds"]),
        float(baseline["planes_sweep_seconds"]),
        float(record["planes_sweep_seconds"]),
        tolerance,
    )
    census_total_base = sum(float(row["seconds"]) for row in baseline["census"])
    census_total_new = sum(float(row["seconds"]) for row in record["census"])
    ok = (
        _gate(
            "BDD census (pipe16+pipe24)",
            float(baseline["legacy_serial_seconds"]),
            float(record["legacy_serial_seconds"]),
            census_total_base,
            census_total_new,
            tolerance,
        )
        and ok
    )
    print(
        f"slowest row {record['slowest_row']}: bigint {record['slowest_bigint_cpu']}s "
        f"-> planes {record['slowest_planes_cpu']}s "
        f"({record['slowest_row_speedup']}x, {record['plane_backend']} backend); "
        "census "
        + ", ".join(
            f"{row['name']} {row['seconds']}s ({row['census_speedup']}x vs legacy core)"
            for row in record["census"]
        )
        + f"; refreshed {KERNEL_RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


#: Per-row synthesis fields that must reproduce exactly across machines.
_SYNTH_VERDICT_FIELDS = (
    "solved",
    "synth_status",
    "verified",
    "literals",
    "cubes",
    "gates",
    "fingerprint_sha256",
)


def check_synth(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_synth_benchmark()

    if not record["identical"]:
        print("FAIL: synthesis perturbed encoding fingerprints")
        return 1
    if record["verified"] != record["solved"]:
        print(
            f"FAIL: only {record['verified']} of {record['solved']} solved cases "
            "passed gate-level verification"
        )
        return 1

    baseline_rows = {row["name"]: row for row in baseline["per_stg"]}
    new_rows = {row["name"]: row for row in record["per_stg"]}
    drifted = False
    for name in baseline_rows.keys() - new_rows.keys():
        print(f"FAIL: Table-2 row {name} disappeared from the synthesis sweep")
        drifted = True
    for row in record["per_stg"]:
        base_row = baseline_rows.get(row["name"])
        if base_row is None:
            print(f"note: new synthesis-sweep row {row['name']} (no baseline verdict)")
            continue
        for field in _SYNTH_VERDICT_FIELDS:
            if row.get(field) != base_row.get(field):
                print(
                    f"FAIL: synthesis drift on {row['name']}.{field}: "
                    f"baseline {base_row.get(field)!r} -> now {row.get(field)!r}"
                )
                drifted = True
    if drifted:
        return 1

    ok = _gate(
        "synthesis sweep",
        float(baseline["legacy_serial_seconds"]),
        float(record["legacy_serial_seconds"]),
        float(baseline["synth_sweep_seconds"]),
        float(record["synth_sweep_seconds"]),
        tolerance,
    )
    print(
        f"{record['verified']}/{record['solved']} solved cases verified, "
        f"{record['total_literals']} literals total; refreshed {SYNTH_RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def check_obs(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_obs_benchmark()

    if not record["identical"]:
        print("FAIL: observability changed solver results (fingerprint drift)")
        return 1
    if record["overhead_ratio"] > MAX_OVERHEAD_RATIO:
        print(
            f"FAIL: fully-enabled observability costs {record['overhead_ratio']}x "
            f"the disabled sweep (ceiling {MAX_OVERHEAD_RATIO}x)"
        )
        return 1

    ok = _gate(
        "obs-disabled sweep",
        float(baseline["legacy_seconds"]),
        float(record["legacy_seconds"]),
        float(baseline["disabled_seconds"]),
        float(record["disabled_seconds"]),
        tolerance,
    )
    print(
        f"enabled/disabled ratio {record['overhead_ratio']}x, "
        f"{record['trace_events']} trace events, "
        f"{record['progress_records']} progress records, "
        f"disabled span {record['span_disabled_ns']}ns; refreshed {OBS_RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def check_swarm(baseline_path: pathlib.Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    record = run_swarm_benchmark()

    drifted = False
    for run_name in ("single", "multi"):
        run = record[run_name]
        # the dedupe invariant is exact: one solve per distinct enqueued
        # fingerprint plus the warm seeds, never one per request
        expected_solves = run["distinct_jobs"] + SWARM_WARM_SEEDS
        if run["solves_done"] != expected_solves:
            print(
                f"FAIL: {run_name} swarm ran {run['solves_done']} solves for "
                f"{run['distinct_jobs']} distinct jobs (+{SWARM_WARM_SEEDS} seeds) "
                f"— coalescing or dedupe is broken"
            )
            drifted = True
        if run["distinct_fingerprints"] != baseline[run_name]["distinct_fingerprints"]:
            print(
                f"FAIL: {run_name} swarm covers "
                f"{run['distinct_fingerprints']} fingerprints, baseline had "
                f"{baseline[run_name]['distinct_fingerprints']} — workload drift"
            )
            drifted = True
        if run["cached_requests"] == 0 or run["coalesced_requests"] == 0:
            print(f"FAIL: {run_name} swarm exercised no cache hits or no coalescing")
            drifted = True
    if drifted:
        return 1

    ok = _gate(
        "swarm wall (N workers)",
        float(baseline["yardstick_seconds"]),
        float(record["yardstick_seconds"]),
        float(baseline["multi"]["wall_seconds"]),
        float(record["multi"]["wall_seconds"]),
        tolerance,
    )
    print(
        f"{record['clients']} clients: p95 {record['multi']['p95_seconds']}s, "
        f"{record['multi']['coalesced_requests']} coalesced, "
        f"{record['multi']['cached_requests']} cached; "
        f"refreshed {SWARM_RECORD_PATH}"
    )
    if not ok:
        return 1
    print("OK: no bench regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=["table2", "table1", "search", "swarm", "obs", "kernel", "synth"],
        default="table2",
        help="which sweep to gate (default: the Table-2 engine sweep)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=None,
        help="committed benchmark record to gate against (default: the "
        "repository copy, read before the sweep refreshes it)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown of the gated sweep "
        "(default 0.25 = fail on >25%% regression)",
    )
    args = parser.parse_args(argv)

    if args.suite == "table1":
        baseline_path = args.baseline or TABLE1_RECORD_PATH
        return check_table1(baseline_path, args.tolerance)
    if args.suite == "search":
        baseline_path = args.baseline or SEARCH_RECORD_PATH
        return check_search(baseline_path, args.tolerance)
    if args.suite == "swarm":
        baseline_path = args.baseline or SWARM_RECORD_PATH
        return check_swarm(baseline_path, args.tolerance)
    if args.suite == "obs":
        baseline_path = args.baseline or OBS_RECORD_PATH
        return check_obs(baseline_path, args.tolerance)
    if args.suite == "kernel":
        baseline_path = args.baseline or KERNEL_RECORD_PATH
        return check_kernel(baseline_path, args.tolerance)
    if args.suite == "synth":
        baseline_path = args.baseline or SYNTH_RECORD_PATH
        return check_synth(baseline_path, args.tolerance)
    baseline_path = args.baseline or RECORD_PATH
    return check_table2(baseline_path, args.tolerance)


if __name__ == "__main__":
    raise SystemExit(main())
