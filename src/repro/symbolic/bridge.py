"""The hybrid bridge: symbolic front end, explicit solver back end.

The symbolic tier answers *whether* and *where* CSC fails without
enumerating states, but the region/insertion solver
(:mod:`repro.core.search`, :mod:`repro.core.solver`) fundamentally works
on explicit state graphs.  ``symbolic_encode`` glues the two: it runs
census and conflict detection symbolically, and

* with no conflicts, stops — the specification already satisfies CSC
  and no state was ever enumerated (``mode="symbolic"``);
* with conflicts whose *conflict-reachable core* (every state on a
  trajectory through a conflict, :func:`repro.symbolic.csc.conflict_core`)
  has at most ``max_states`` states, materializes exactly that core into
  an explicit :class:`~repro.stg.state_graph.StateGraph` — whose canonical
  integer/bitset :class:`~repro.core.indexed.IndexedStateGraph` the
  PR-3 pipeline then computes on — and lets :func:`repro.core.solver.solve_csc`
  finish the job (``mode="hybrid"``);
* otherwise — a larger core, or a detection-only request
  (``max_signals == 0``) — reports a structured symbolic-only verdict:
  state count, USC/CSC pair counts, conflict-state and core sizes,
  witness cubes (``mode="symbolic-only"``; a core over the budget also
  logs ``core_exceeds_budget``).

Materialization is a breadth-first replay of the Petri-net token game
restricted to core members (membership is one BDD evaluation per
successor), visiting states in exactly the order of
:func:`repro.petri.reachability.build_reachability_graph` and carrying
binary codes along arcs.  When the core happens to be the whole
reachable set — the usual case for the strongly connected controllers of
the benchmark library — the materialized graph is identical, state
object for state object, to the one :func:`repro.stg.state_graph.build_state_graph`
produces, so the solver's results are byte-for-byte those of the
explicit pipeline (the differential suite asserts exactly that).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional

from repro.bdd.bdd import Node
from repro.core.solver import EncodingResult, SolverSettings, solve_csc
from repro.obs import get_logger, span
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.stg.state_graph import StateGraph
from repro.stg.stg import STG
from repro.symbolic.csc import (
    SymbolicConflictReport,
    detect_csc_conflicts,
    ensure_core,
)
from repro.symbolic.stategraph import SymbolicCensus, SymbolicStateGraph
from repro.ts.transition_system import TransitionSystem
from repro.utils.deadline import check_deadline

_log = get_logger("symbolic")

__all__ = [
    "SymbolicOutcome",
    "materialize_core",
    "symbolic_encode",
    "DEFAULT_STATE_BUDGET",
]

#: State-count budget under which ``engine="auto"`` still routes a
#: request through the explicit pipeline, and up to which the bridge
#: materializes a conflict core (used when the caller passes
#: ``max_states=None`` — the symbolic tier exists precisely because
#: "unbounded explicit" is not a thing for its workloads).
DEFAULT_STATE_BUDGET = 200000


def materialize_core(
    ssg: SymbolicStateGraph, core: Node, max_states: Optional[int] = None
) -> StateGraph:
    """Materialize the subgraph induced by ``core`` as an explicit graph.

    Breadth-first token-game replay from the initial state, keeping only
    successors inside ``core``; arcs between kept states are labelled
    with base signal edges and binary codes are carried along arcs from
    the inferred initial values.  With ``core`` equal to the full
    reachable set this reproduces
    :func:`~repro.stg.state_graph.build_state_graph` exactly (same
    :class:`~repro.petri.net.Marking` state objects, same insertion
    order, same encoding).
    """
    stg = ssg.stg
    net = stg.net
    values = ssg.infer_initial_values()
    initial = net.initial_marking
    initial_code = tuple(values[signal] for signal in stg.signals)
    if not ssg.contains(core, initial, initial_code):
        raise ValueError(
            "the materialization core does not contain the initial state; "
            "close it backward first (conflict_core does)"
        )
    signal_position = {signal: i for i, signal in enumerate(stg.signals)}

    ts = TransitionSystem(name=f"rg({net.name})")
    ts.set_initial(initial)
    encoding = {initial: initial_code}
    frontier = deque([initial])
    while frontier:
        check_deadline()
        marking = frontier.popleft()
        code = encoding[marking]
        for transition in net.enabled_transitions(marking):
            label = stg.label_of(transition)
            assert label is not None  # dummies rejected by SymbolicStateGraph
            edge = label.base()
            successor = net.fire(marking, transition)
            successor_code = list(code)
            successor_code[signal_position[edge.signal]] = edge.value_after()
            successor_code = tuple(successor_code)
            if not ssg.contains(core, successor, successor_code):
                continue
            ts.add_transition(marking, edge, successor)
            if successor not in encoding:
                encoding[successor] = successor_code
                if max_states is not None and len(encoding) > max_states:
                    raise StateSpaceLimitExceeded(
                        f"more than {max_states} core states in {net.name}"
                    )
                frontier.append(successor)
    return StateGraph(
        ts=ts,
        signals=stg.signals,
        signal_types={signal: stg.signal_types[signal] for signal in stg.signals},
        encoding=encoding,
        name=stg.name,
    )


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
    ssg: Optional[SymbolicStateGraph] = None,
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
        Bound on the conflict core the bridge materializes for the
        explicit solver (the same safety bound as the explicit
        pipeline's ``max_states``); ``None`` falls back to
        :data:`DEFAULT_STATE_BUDGET` — the symbolic tier never
        materializes unboundedly.  A larger core gets the
        detection-only verdict (``mode="symbolic-only"``).
    witness_limit:
        Conflict witness cubes to decode into the verdict.
    ssg:
        A pre-built (possibly pre-explored) symbolic graph to reuse —
        the ``engine="auto"`` path builds one for the census and hands
        it over instead of re-exploring.
    """
    settings = settings or SolverSettings()
    budget = max_states if max_states is not None else DEFAULT_STATE_BUDGET
    started = time.perf_counter()
    with span("symbolic.census", name=stg.name):
        if ssg is None:
            ssg = SymbolicStateGraph(stg)
        census = ssg.census()
    with span("symbolic.detect", name=stg.name):
        report = detect_csc_conflicts(ssg, witness_limit=witness_limit)

    mode = "symbolic"
    result: Optional[EncodingResult] = None
    materialized: Optional[int] = None
    # The core is computed on *every* path — detection-only runs
    # included — so the verdict schema is stable: ``core_states`` is
    # always an integer (0 when CSC already holds), never null.
    with span("symbolic.core", name=stg.name):
        core = ensure_core(ssg, report)
    if not report.csc_holds:
        mode = "symbolic-only"
        if settings.max_signals > 0:
            if report.core_states <= budget:
                with span("symbolic.materialize", name=stg.name):
                    sg = materialize_core(ssg, core, max_states=budget)
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
