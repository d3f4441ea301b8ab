"""The hybrid bridge: symbolic front end, explicit solver back end.

The symbolic tier answers *whether* and *where* CSC fails without
enumerating states, but the region/insertion solver
(:mod:`repro.core.search`, :mod:`repro.core.solver`) fundamentally works
on explicit state graphs.  ``symbolic_encode`` glues the two: it runs
census and conflict detection symbolically — one BDD per disjoint
component, combined exactly (:mod:`repro.symbolic.compose`) — and

* with no conflicts, stops — the specification already satisfies CSC
  and no state was ever enumerated (``mode="symbolic"``);
* with conflicts, notes that their *conflict core* (every state on a
  trajectory through a conflict, :func:`repro.symbolic.csc.ensure_core`)
  is the whole reachable set; when that set has at most ``max_states``
  states, builds the explicit :class:`~repro.stg.state_graph.StateGraph`
  with :func:`~repro.stg.state_graph.build_state_graph` (initial code
  bits from the symbolic inference) — whose canonical integer/bitset
  :class:`~repro.core.indexed.IndexedStateGraph` the solver then
  computes on — and lets :func:`repro.core.solver.solve_csc` finish the
  job (``mode="hybrid"``), byte-for-byte as the explicit pipeline does;
* otherwise — more states than the budget, or a detection-only request
  (``max_signals == 0``) — reports a structured symbolic-only verdict:
  state count, USC/CSC pair counts, conflict-state and core sizes,
  witness cubes (``mode="symbolic-only"``; a core over the budget also
  logs ``core_exceeds_budget``).

``max_states`` is therefore a state budget: the same bound the explicit
pipeline puts on enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.solver import EncodingResult, SolverSettings, solve_csc
from repro.obs import get_logger, span
from repro.stg.state_graph import build_state_graph
from repro.stg.stg import STG
from repro.symbolic.compose import ComposedStateGraph
from repro.symbolic.csc import SymbolicConflictReport
from repro.symbolic.stategraph import SymbolicCensus

_log = get_logger("symbolic")

__all__ = [
    "SymbolicOutcome",
    "symbolic_encode",
    "DEFAULT_STATE_BUDGET",
]

#: State-count budget under which ``engine="auto"`` still routes a
#: request through the explicit pipeline, and up to which the bridge
#: materializes a conflicted state graph (used when the caller passes
#: ``max_states=None`` — the symbolic tier exists precisely because
#: "unbounded explicit" is not a thing for its workloads).
DEFAULT_STATE_BUDGET = 200000


@dataclass
class SymbolicOutcome:
    """Everything produced by one :func:`symbolic_encode` run."""

    stg: STG
    mode: str  # "symbolic" | "hybrid" | "symbolic-only"
    census: SymbolicCensus
    report: SymbolicConflictReport
    #: hybrid mode: the explicit solver's :class:`EncodingResult`;
    #: otherwise ``None``.
    result: Optional[EncodingResult] = None
    materialized_states: Optional[int] = None
    total_seconds: float = 0.0

    @property
    def solved(self) -> bool:
        if self.result is not None:
            return self.result.solved
        return self.report.csc_holds

    @property
    def conflicts_remaining(self) -> int:
        if self.result is not None:
            return self.result.conflicts_remaining
        return self.report.csc_pairs

    @property
    def inserted_signals(self) -> list:
        return self.result.inserted_signals if self.result is not None else []

    def summary(self) -> Dict[str, object]:
        """Flat JSON-serialisable summary (the symbolic twin of
        :meth:`repro.core.solver.EncodingResult.summary`); deterministic
        apart from ``cpu_seconds``."""
        if self.result is not None:
            flat = self.result.summary()
        else:
            flat = {
                "name": self.census.name,
                "states_before": self.census.states,
                "states_after": self.census.states,
                "signals_before": self.census.signals,
                "signals_after": self.census.signals,
                "inserted": 0,
                "solved": self.solved,
                "conflicts_remaining": self.report.csc_pairs,
                "insertions": [],
                "cpu_seconds": round(self.total_seconds, 3),
            }
        flat["engine_mode"] = self.mode
        flat["symbolic_states"] = self.census.states
        flat["usc_pairs"] = self.report.usc_pairs
        flat["csc_pairs"] = self.report.csc_pairs
        flat["csc_holds"] = self.report.csc_holds
        flat["conflict_states"] = self.report.conflict_state_count
        flat["core_states"] = self.report.core_states
        flat["witnesses"] = list(self.report.witnesses)
        return flat

    def table_row(self) -> Dict[str, object]:
        """The benchmark-table row (twin of
        :meth:`repro.api.EncodingReport.table_row`)."""
        stats = self.stg.stats()
        return {
            "benchmark": self.stg.name,
            "places": stats["places"],
            "transitions": stats["transitions"],
            "signals": stats["signals"],
            "states": self.census.states,
            "inserted": self.result.num_inserted if self.result is not None else 0,
            "solved": self.solved,
            "cpu": round(self.total_seconds, 2),
            "mode": self.mode,
        }


def symbolic_encode(
    stg: STG,
    settings: Optional[SolverSettings] = None,
    max_states: Optional[int] = DEFAULT_STATE_BUDGET,
    witness_limit: int = 4,
    graphs: Optional[ComposedStateGraph] = None,
) -> SymbolicOutcome:
    """Run the CSC pipeline with a symbolic front half (module docstring).

    Parameters
    ----------
    stg:
        The input specification (safe, consistent, no dummies).
    settings:
        Solver settings for the hybrid back end; ``max_signals == 0``
        disables solving just as it does explicitly, leaving a
        detection-only verdict.
    max_states:
        Bound on the states the bridge materializes for the explicit
        solver (the same safety bound as the explicit pipeline's
        ``max_states``; the core of a conflicted graph is all of its
        states); ``None`` falls back to :data:`DEFAULT_STATE_BUDGET` —
        the symbolic tier never materializes unboundedly.  A larger
        graph gets the detection-only verdict (``mode="symbolic-only"``).
    witness_limit:
        Conflict witness cubes to decode into the verdict.
    graphs:
        Pre-built (possibly pre-explored) per-component symbolic graphs
        to reuse — the ``engine="auto"`` path builds them for the census
        and hands them over instead of re-exploring.
    """
    settings = settings or SolverSettings()
    budget = max_states if max_states is not None else DEFAULT_STATE_BUDGET
    started = time.perf_counter()
    with span("symbolic.census", name=stg.name):
        if graphs is None:
            graphs = ComposedStateGraph(stg)
        census = graphs.census()
    with span("symbolic.detect", name=stg.name):
        report = graphs.detect(witness_limit=witness_limit)

    mode = "symbolic"
    result: Optional[EncodingResult] = None
    materialized: Optional[int] = None
    # The core is computed on *every* path — detection-only runs
    # included — so the verdict schema is stable: ``core_states`` is
    # always an integer (0 when CSC already holds), never null.
    with span("symbolic.core", name=stg.name):
        graphs.ensure_core(report)
    if not report.csc_holds:
        mode = "symbolic-only"
        if settings.max_signals > 0:
            if report.core_states <= budget:
                with span("symbolic.materialize", name=stg.name):
                    sg = build_state_graph(
                        stg, initial_values=graphs.infer_initial_values(), max_states=budget
                    )
                materialized = sg.num_states
                with span("symbolic.solve", name=stg.name):
                    result = solve_csc(sg, settings)
                mode = "hybrid"
            else:
                _log.warning(
                    "core_exceeds_budget",
                    name=stg.name,
                    core_states=report.core_states,
                    max_states=budget,
                )
    return SymbolicOutcome(
        stg=stg,
        mode=mode,
        census=census,
        report=report,
        result=result,
        materialized_states=materialized,
        total_seconds=time.perf_counter() - started,
    )
