"""The named benchmark suites of the paper's Table 1 and Table 2.

The original 1996 suite is not redistributable, so each name is mapped to
a structurally analogous specification built by the generators in
:mod:`repro.bench_stg.generators` (see DESIGN.md, "Substitutions").  The
mapping keeps the *character* of each benchmark — sequencing-dominated
controllers map to sequencers, concurrency-dominated ones to mixed or
parallel controllers, counters to ripple counters — so that the
comparisons the paper makes (petrify-style vs ASSASSIN-style encoding,
small vs very large state spaces) exercise the same code paths.

Each case records how it is meant to be run:

* ``mode`` — ``"strict"`` benchmarks are solvable without delaying input
  transitions (the regime of the paper); ``"relaxed"`` benchmarks are
  toggle/counter behaviours that have no input-preserving solution and are
  run with ``allow_input_delay=True``.
* ``solve`` — whether the library sweeps attempt CSC solving (very large
  Table 1 entries are only counted, explicitly or symbolically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bench_stg import generators as gen
from repro.core.search import SearchSettings
from repro.core.solver import SolverSettings
from repro.stg.stg import STG


@dataclass(frozen=True)
class BenchmarkCase:
    """One row of a benchmark table."""

    name: str
    builder: Callable[[], STG]
    description: str
    table: str  # "table1" or "table2"
    mode: str = "strict"  # "strict" (input-preserving) or "relaxed"
    solve: bool = True  # attempt CSC solving in library sweeps
    explicit_ok: bool = True  # False: count states symbolically only

    def build(self) -> STG:
        stg = self.builder()
        stg.name = self.name
        return stg

    def solver_settings(self, frontier_width: int = 16) -> SolverSettings:
        """Solver settings appropriate for this case."""
        return SolverSettings(
            search=SearchSettings(
                frontier_width=frontier_width,
                max_validity_checks=100,
                max_merge_candidates=32,
                allow_input_delay=(self.mode == "relaxed"),
            )
        )


def _case(name, builder, description, table, mode="strict", solve=True, explicit_ok=True, **kwargs):
    return BenchmarkCase(name, builder, description, table, mode, solve, explicit_ok, **kwargs)


# ----------------------------------------------------------------------
# Table 2: the 24-row comparison against the ASSASSIN-style baseline
# ----------------------------------------------------------------------
TABLE2_CASES: List[BenchmarkCase] = [
    _case("nak-pa", lambda: gen.mixed_controller(1, 2), "handshake controller, 1 concurrent + 2 sequential handshakes", "table2"),
    _case("ram-read-sbuf", lambda: gen.mixed_controller(2, 1), "read-buffer controller analogue", "table2"),
    _case("sbuf-ram-write", lambda: gen.mixed_controller(1, 3), "write-buffer controller analogue", "table2"),
    _case("sbuf-read-ctl", lambda: gen.sequencer(3), "three-stage read sequencer", "table2"),
    _case("mux2", lambda: gen.mixed_controller(2, 2), "two-way multiplexer controller analogue", "table2"),
    _case("postoffice", lambda: gen.mixed_controller(1, 4), "routing controller analogue", "table2"),
    _case("duplicator", gen.duplicator_element, "one input handshake, two output handshakes", "table2"),
    _case("specseq4", lambda: gen.sequencer(4), "four-stage sequencer", "table2"),
    _case("seqmix", lambda: gen.mixed_controller(0, 4), "purely sequential four-stage controller", "table2"),
    _case("seq8", lambda: gen.sequencer(8), "eight-stage sequencer", "table2"),
    _case("trcv-bm", lambda: gen.mixed_controller(1, 5), "transceiver controller analogue", "table2"),
    _case("tsend-bm", lambda: gen.mixed_controller(0, 5), "transmitter controller analogue", "table2"),
    _case("ircv-bm", lambda: gen.sequencer(6), "receiver controller analogue", "table2"),
    _case("mod4-counter", lambda: gen.ripple_counter(2), "modulo-4 ripple counter", "table2", mode="relaxed"),
    _case("master-read", lambda: gen.mixed_controller(1, 6), "bus master read controller analogue", "table2"),
    _case("mmu", lambda: gen.mixed_controller(1, 5), "memory-management controller analogue", "table2"),
    _case("mr0", lambda: gen.mixed_controller(1, 4), "master-read variant", "table2"),
    _case("ir", lambda: gen.sequencer(5), "instruction-register sequencer analogue", "table2"),
    _case("mmu0", lambda: gen.mixed_controller(0, 5), "mmu variant 0", "table2"),
    _case("mmu1", lambda: gen.mixed_controller(2, 1), "mmu variant 1", "table2"),
    _case("par4", lambda: gen.parallel_toggles(4), "four concurrently toggling outputs", "table2", mode="relaxed"),
    _case("divider8", lambda: gen.ripple_counter(3), "divide-by-eight ripple counter", "table2", mode="relaxed"),
    _case("vme2int", gen.vme_controller, "VME bus controller (read cycle)", "table2"),
    _case("combuf2", lambda: gen.mixed_controller(1, 1), "two-slot communication buffer analogue", "table2"),
]


# ----------------------------------------------------------------------
# Table 1: STGs with very large state spaces
# ----------------------------------------------------------------------
TABLE1_CASES: List[BenchmarkCase] = [
    _case("master-read", lambda: gen.mixed_controller(2, 2), "master-read analogue with two concurrent branches", "table1"),
    _case("adfast", lambda: gen.mixed_controller(1, 6), "A/D converter controller analogue", "table1"),
    _case("par8", lambda: gen.parallel_toggles(8), "eight concurrently toggling outputs", "table1", mode="relaxed", solve=False),
    _case("par16", lambda: gen.parallel_toggles(16), "sixteen concurrently toggling outputs", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("par24", lambda: gen.parallel_toggles(24), "twenty-four concurrently toggling outputs", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("pipe8", lambda: gen.independent_toggles(8), "eight independent toggle stages (pipeline analogue)", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("pipe16", lambda: gen.independent_toggles(16), "sixteen independent toggle stages (pipeline analogue)", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("pipe24", lambda: gen.independent_toggles(24), "twenty-four independent toggle stages (pipeline analogue)", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("pipeline3", lambda: gen.pipeline(3), "three coupled pipeline toggle stages", "table1", mode="relaxed"),
    _case("pipeline4", lambda: gen.pipeline(4), "four coupled pipeline toggle stages", "table1", mode="relaxed"),
    _case("pipeline8", lambda: gen.pipeline(8), "eight coupled pipeline toggle stages", "table1", mode="relaxed", solve=False, explicit_ok=False),
    _case("pipeline12", lambda: gen.pipeline(12), "twelve coupled pipeline toggle stages", "table1", mode="relaxed", solve=False, explicit_ok=False),
]


_ALL_CASES: Dict[str, BenchmarkCase] = {}
for _collection in (TABLE2_CASES, TABLE1_CASES):
    for _entry in _collection:
        _ALL_CASES.setdefault(f"{_entry.table}:{_entry.name}", _entry)


def benchmark_names(table: Optional[str] = None) -> List[str]:
    """Names of the available benchmarks, optionally filtered by table."""
    cases = TABLE1_CASES + TABLE2_CASES
    if table is not None:
        cases = [case for case in cases if case.table == table]
    return [case.name for case in cases]


def get_case(name: str, table: str = "table2") -> BenchmarkCase:
    """Look up a benchmark case by name."""
    key = f"{table}:{name}"
    if key not in _ALL_CASES:
        available = ", ".join(sorted(_ALL_CASES))
        raise KeyError(f"unknown benchmark {key!r}; available: {available}")
    return _ALL_CASES[key]


def load_benchmark(name: str, table: str = "table2") -> STG:
    """Build the STG of a named benchmark."""
    return get_case(name, table).build()
