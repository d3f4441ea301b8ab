"""The top-level CSC solver: iterate signal insertion until CSC holds.

One invocation of the Figure-4 search chooses and inserts a single state
signal.  Because states on the insertion borders keep both values of the
new signal, *secondary* conflicts can remain (Figure 3); the solver simply
re-analyses the expanded state graph and inserts further signals until no
conflict is left (the paper proves convergence for safe, consistent,
output-persistent STGs) or the signal budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cost import Cost
from repro.core.csc import csc_conflicts
from repro.core.search import InsertionPlan, SearchSettings, find_insertion_plan
from repro.obs import emit_progress, get_logger, span
from repro.stg.state_graph import StateGraph
from repro.utils.deadline import check_deadline
from repro.utils.timing import Stopwatch

_log = get_logger("solver")


#: Valid values of :attr:`SolverSettings.engine`.
ENGINES = ("explicit", "symbolic", "auto")


@dataclass
class SolverSettings:
    """Configuration of the iterative CSC solver.

    ``engine`` selects the pipeline the batch engine and the service run
    the request through: ``"explicit"`` enumerates the state graph as
    always, ``"symbolic"`` runs the BDD-backed front half
    (:mod:`repro.symbolic`) with the hybrid bridge, and ``"auto"`` takes
    a symbolic census first and falls back to the explicit pipeline only
    when the state count fits the ``max_states`` budget.  The field is
    carried here (rather than as ad-hoc plumbing) because the engine
    choice is part of the request's identity: the service fingerprints
    it along with every other solver knob.  ``solve_csc`` itself always
    works on an explicit graph; dispatch happens in
    :mod:`repro.engine.batch`.

    ``kernel`` picks the block-evaluation implementation of the indexed
    search (:mod:`repro.core.planes`): ``"bigint"`` is the scalar
    conformance oracle, ``"planes"`` the vectorized 64-lane bit-plane
    kernel, and ``"auto"`` (default) planes-when-numpy-is-importable.
    Unlike ``engine`` it is fingerprint-irrelevant: both kernels
    produce byte-identical evaluations, so the service strips it from
    the request identity.
    """

    search: SearchSettings = field(default_factory=SearchSettings)
    max_signals: int = 32
    signal_prefix: str = "csc"
    verbose: bool = False
    require_progress: bool = True
    engine: str = "explicit"
    kernel: str = "auto"


@dataclass
class InsertionRecord:
    """Bookkeeping for one inserted state signal."""

    signal: str
    conflicts_before: int
    conflicts_after: int
    states_before: int
    states_after: int
    splus_size: int
    sminus_size: int
    cost: Cost
    candidates_examined: int

    def as_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view of the record."""
        return {
            "signal": self.signal,
            "conflicts_before": self.conflicts_before,
            "conflicts_after": self.conflicts_after,
            "states_before": self.states_before,
            "states_after": self.states_after,
            "splus_size": self.splus_size,
            "sminus_size": self.sminus_size,
            "cost": self.cost.as_dict(),
            "candidates_examined": self.candidates_examined,
        }


@dataclass
class EncodingResult:
    """Outcome of a CSC-solving run."""

    initial_sg: StateGraph
    final_sg: StateGraph
    records: List[InsertionRecord] = field(default_factory=list)
    solved: bool = False
    conflicts_remaining: int = 0
    cpu_seconds: float = 0.0

    @property
    def inserted_signals(self) -> List[str]:
        return [record.signal for record in self.records]

    @property
    def num_inserted(self) -> int:
        return len(self.records)

    def summary(self) -> Dict[str, object]:
        """Flat, JSON-serialisable summary used by the CLI, the batch
        engine and the service (``bench --all --json`` records and stored
        results round-trip it through ``json.dumps``/``loads``)."""
        return {
            "name": self.initial_sg.name,
            "states_before": self.initial_sg.num_states,
            "states_after": self.final_sg.num_states,
            "signals_before": len(self.initial_sg.signals),
            "signals_after": len(self.final_sg.signals),
            "inserted": self.num_inserted,
            "solved": self.solved,
            "conflicts_remaining": self.conflicts_remaining,
            "insertions": [record.as_dict() for record in self.records],
            "cpu_seconds": round(self.cpu_seconds, 3),
        }

    def fingerprint(self) -> Dict[str, object]:
        """The summary minus timing: equal fingerprints mean the runs
        produced identical encodings (used by the determinism tests and
        the serial-vs-parallel identity check of the batch engine)."""
        flat = self.summary()
        del flat["cpu_seconds"]
        return flat


def _fresh_signal_name(sg: StateGraph, prefix: str, counter: int) -> str:
    name = f"{prefix}{counter}"
    existing = set(sg.signals)
    while name in existing:
        counter += 1
        name = f"{prefix}{counter}"
    return name


def solve_csc(sg: StateGraph, settings: Optional[SolverSettings] = None) -> EncodingResult:
    """Insert state signals until the state graph satisfies CSC.

    The input state graph is not modified; the result carries both the
    original and the final (encoded) state graph together with a record of
    every insertion.
    """
    settings = settings or SolverSettings()
    result = EncodingResult(initial_sg=sg, final_sg=sg)
    watch = Stopwatch().start()

    current = sg
    for counter in range(settings.max_signals):
        check_deadline()  # per-job wall-clock bound (repro.utils.deadline)
        # With the engine caches enabled this is free after the first
        # iteration: the expanded graph's conflicts were already derived
        # incrementally in index space (bucketing its packed codes over
        # the parent's code-sharing groups) when the search validated the
        # insertion, and the memoized list is reused here.
        with span("solver.conflicts", states=current.num_states):
            conflicts = csc_conflicts(current)
        if not conflicts:
            result.solved = True
            break
        signal = _fresh_signal_name(current, settings.signal_prefix, counter)
        with span("solver.search", signal=signal, conflicts=len(conflicts)):
            plan: Optional[InsertionPlan] = find_insertion_plan(
                current,
                signal,
                settings.search,
                conflicts=conflicts,
                kernel=settings.kernel,
            )
        if plan is None:
            if settings.verbose:
                _log.info(
                    "no_valid_insertion", name=sg.name, conflicts=len(conflicts)
                )
            break
        new_sg = plan.new_sg
        with span("solver.conflicts", states=new_sg.num_states):
            conflicts_after = len(csc_conflicts(new_sg))
        if settings.require_progress and conflicts_after >= len(conflicts):
            # The best valid insertion does not reduce the number of
            # conflicts: the specification cannot be solved within the
            # current constraints (typically: without delaying inputs).
            # Stop instead of piling up useless state signals.
            if settings.verbose:
                _log.info(
                    "insertion_not_reducing",
                    name=sg.name,
                    signal=signal,
                    conflicts_before=len(conflicts),
                    conflicts_after=conflicts_after,
                )
            break
        result.records.append(
            InsertionRecord(
                signal=signal,
                conflicts_before=len(conflicts),
                conflicts_after=conflicts_after,
                states_before=current.num_states,
                states_after=new_sg.num_states,
                splus_size=len(plan.partition.splus),
                sminus_size=len(plan.partition.sminus),
                cost=plan.cost,
                candidates_examined=plan.candidates_examined,
            )
        )
        emit_progress(
            stage="solver",
            name=sg.name,
            iteration=counter,
            signal=signal,
            conflicts_before=len(conflicts),
            conflicts_remaining=conflicts_after,
            states=new_sg.num_states,
            candidates_examined=plan.candidates_examined,
            inserted=len(result.records),
        )
        if settings.verbose:
            _log.info(
                "inserted",
                name=sg.name,
                signal=signal,
                conflicts_before=len(conflicts),
                conflicts_after=conflicts_after,
                states_before=current.num_states,
                states_after=new_sg.num_states,
            )
        current = new_sg
    else:
        # Signal budget exhausted; fall through to the final conflict count.
        pass

    remaining = csc_conflicts(current)
    result.final_sg = current
    result.solved = not remaining
    result.conflicts_remaining = len(remaining)
    result.cpu_seconds = watch.stop()
    return result
