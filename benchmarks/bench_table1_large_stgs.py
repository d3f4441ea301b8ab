"""Table 1 reproduction: STGs with very large state spaces.

The paper's Table 1 reports places / transitions / signals / states and
the CPU time petrify needs to satisfy CSC on highly concurrent STGs
(master-read, adfast, par16, pipe8, pipe16), crediting symbolic (BDD)
state-graph representation and region-level exploration.

Since the symbolic encoding tier (:mod:`repro.symbolic`) landed, every
row — including the ``par16`` / ``pipe16`` / ``pipe24`` class whose
state spaces are orders of magnitude beyond explicit enumeration — gets
a full census *and a real CSC verdict* (USC/CSC conflict pair counts,
witnesses, hybrid solving where the conflicted graph is small), not just a
state count.  The harness reports, per benchmark family row:

* the net size (places, transitions, signals);
* the number of reachable states, explicitly where feasible and always
  symbolically (the two must agree on the enumerable rows);
* the symbolic CSC verdict, and the CSC solver outcome on rows marked
  solvable.

Absolute times are pure-Python wall-clock seconds and are not comparable
to the paper's SPARCstation numbers; the reproduced claim is the
*shape*: state counts grow by orders of magnitude while the tool keeps
answering, because the largest graphs are only ever represented
symbolically.

Runnable standalone (``PYTHONPATH=src python
benchmarks/bench_table1_large_stgs.py``) it writes the machine-readable
record to ``BENCH_table1.json`` at the repository root — the baseline
the ``bench-symbolic`` CI job gates against via
``benchmarks/check_bench_regression.py --suite table1``.
"""

from __future__ import annotations

import json
import pathlib

try:  # the CI gate jobs install the package without the test extras
    import pytest
except ImportError:  # pragma: no cover - bench-gate environment
    pytest = None

from repro.bench_stg.library import TABLE1_CASES
from repro.core import solve_csc
from repro.engine import use_caches
from repro.engine.batch import run_benchmark_suite
from repro.stg import build_state_graph
from repro.utils.timing import Stopwatch

RECORD_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_table1.json"
EXPLICIT_LIMIT = 600000


def run_table1_benchmark(record_path: pathlib.Path = RECORD_PATH) -> dict:
    """Run the Table-1 sweep both ways and write the benchmark record.

    The explicit census + solve of the enumerable rows is the
    machine-speed yardstick.  It runs under ``use_caches(False)`` — the
    legacy object-space pipeline, frozen as the differential oracle — so
    future engine optimizations cannot skew the factor the symbolic
    sweep is gated by (the same reasoning as the Table-2 gate's legacy
    sweep).  The symbolic sweep — census, CSC detection, hybrid solving
    on the solvable rows — is the gated quantity.  Verdict fields are
    deterministic and must reproduce exactly across machines; only the
    seconds vary.
    """
    explicit_rows: dict = {}
    explicit_watch = Stopwatch().start()
    for case in TABLE1_CASES:
        if not case.explicit_ok:
            continue
        with use_caches(False):
            watch = Stopwatch().start()
            sg = build_state_graph(case.build(), max_states=EXPLICIT_LIMIT)
            row = {"states": sg.num_states}
            if case.solve:
                # The legacy solve bulks the yardstick up to a measurable
                # duration and pins down the result the hybrid bridge
                # must reproduce below.
                result = solve_csc(sg, case.solver_settings())
                row["solved"] = result.solved
                row["inserted"] = result.num_inserted
            row["seconds"] = round(watch.stop(), 3)
        explicit_rows[case.name] = row
    explicit_total = explicit_watch.stop()

    symbolic = run_benchmark_suite(table="table1", engine="symbolic")

    rows = []
    for case, item in zip(TABLE1_CASES, symbolic.items):
        assert case.name == item.name
        explicit = explicit_rows.get(case.name)
        rows.append(
            {
                "name": case.name,
                "places": item.table_row.get("places"),
                "transitions": item.table_row.get("transitions"),
                "signals": item.table_row.get("signals"),
                "explicit_states": explicit["states"] if explicit else None,
                "explicit_seconds": explicit["seconds"] if explicit else None,
                "symbolic_states": item.table_row.get("states"),
                "usc_pairs": item.summary.get("usc_pairs"),
                "csc_pairs": item.summary.get("csc_pairs"),
                "csc_holds": item.summary.get("csc_holds"),
                "mode": item.summary.get("engine_mode"),
                "solved": item.solved,
                "inserted": item.summary.get("inserted"),
                "census_seconds": (item.census or {}).get("seconds"),
                "seconds": round(item.seconds, 3),
            }
        )
        if explicit is not None and explicit["states"] != item.table_row.get("states"):
            raise AssertionError(
                f"{case.name}: explicit census {explicit['states']} != symbolic "
                f"census {item.table_row.get('states')}"
            )
        if explicit is not None and "solved" in explicit:
            if (explicit["solved"], explicit["inserted"]) != (
                item.solved,
                item.summary.get("inserted"),
            ):
                raise AssertionError(
                    f"{case.name}: hybrid solve diverged from the explicit solver "
                    f"({explicit['solved']}/{explicit['inserted']} vs "
                    f"{item.solved}/{item.summary.get('inserted')})"
                )

    record = {
        "benchmark": "bench_table1_large_stgs",
        "engine": "symbolic",
        "cases": [case.name for case in TABLE1_CASES],
        "explicit_total_seconds": round(explicit_total, 3),
        "symbolic_total_seconds": round(symbolic.wall_seconds, 3),
        "rows": rows,
    }
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


# ----------------------------------------------------------------------
# pytest harness (prints the reproduced table)
# ----------------------------------------------------------------------
_parametrize_cases = (
    pytest.mark.parametrize("case", TABLE1_CASES, ids=lambda case: case.name)
    if pytest is not None
    else lambda func: func
)


@_parametrize_cases
def test_table1_row(case, benchmark, report_sink):
    from repro.symbolic import symbolic_check_csc

    stg = case.build()
    stats = stg.stats()

    report = benchmark.pedantic(
        lambda: symbolic_check_csc(stg, witness_limit=1), rounds=1, iterations=1
    )
    states = report.states

    if case.explicit_ok:
        explicit_states = build_state_graph(stg, max_states=EXPLICIT_LIMIT).num_states
        assert states == explicit_states

    solve_seconds = ""
    inserted = ""
    solved = ""
    if case.solve and case.explicit_ok:
        sg = build_state_graph(stg, max_states=EXPLICIT_LIMIT)
        watch = Stopwatch().start()
        result = solve_csc(sg, case.solver_settings())
        watch.stop()
        solve_seconds = round(watch.elapsed, 2)
        inserted = result.num_inserted
        solved = result.solved

    report_sink.setdefault("Table 1: STGs with a large number of states", []).append(
        {
            "benchmark": case.name,
            "places": stats["places"],
            "trans": stats["transitions"],
            "signals": stats["signals"],
            "states": states,
            "counting": "explicit+symbolic" if case.explicit_ok else "symbolic (BDD)",
            "usc_pairs": report.usc_pairs,
            "csc_pairs": report.csc_pairs,
            "csc": "ok" if report.csc_holds else "conflict",
            "csc_cpu_s": solve_seconds,
            "inserted": inserted,
            "solved": solved,
        }
    )
    assert states > 0
    assert report.csc_pairs >= 0


if __name__ == "__main__":
    record = run_table1_benchmark()
    print(json.dumps(record, indent=2, sort_keys=True))
