"""The symbolic encoding tier: BDD-backed state graphs for very large STGs.

The explicit pipeline — and its PR-3 integer/bitset representation —
must materialize every reachable state before it can say anything about
an STG, which caps the workloads the engine and the service can accept.
This package runs the *front half* of the CSC pipeline symbolically,
the capability the source paper credits for handling the Table-1
benchmarks whose state spaces are orders of magnitude beyond explicit
enumeration:

* :mod:`repro.symbolic.stategraph` — :class:`SymbolicStateGraph`:
  reachable states, per-event transition structure and binary-code
  valuations as BDDs over one variable per place and per signal (each
  with an interleaved primed twin for relational work);
* :mod:`repro.symbolic.csc` — CSC conflict *detection* via a
  code-equality relation on the primed/unprimed variable pairs, never
  by pairwise state comparison: USC/CSC pair counts, conflict states,
  witness cubes, and the conflict-reachable core;
* :mod:`repro.symbolic.bridge` — :func:`symbolic_encode`, the hybrid
  driver: symbolic census and detection always; when conflicts exist
  and the core has at most ``max_states`` states, only that core is
  materialized into the explicit representation so the region/insertion
  solver finishes the job (``mode="hybrid"``); a larger core gets the
  detection-only verdict (``mode="symbolic-only"``).

The tier plugs into the stack as ``engine="symbolic"`` / ``"auto"`` of
:func:`repro.engine.batch.encode_many`, the ``pyetrify census`` /
``check-csc`` commands, and the service's fingerprint-relevant engine
setting.
"""

from repro.symbolic.bridge import (
    DEFAULT_STATE_BUDGET,
    SymbolicOutcome,
    materialize_core,
    symbolic_encode,
)
from repro.symbolic.csc import (
    SymbolicConflictReport,
    conflict_core,
    detect_csc_conflicts,
    ensure_core,
)
from repro.symbolic.stategraph import (
    SymbolicCensus,
    SymbolicStateGraph,
    state_variable_order,
)

__all__ = [
    "DEFAULT_STATE_BUDGET",
    "SymbolicCensus",
    "SymbolicConflictReport",
    "SymbolicOutcome",
    "SymbolicStateGraph",
    "conflict_core",
    "detect_csc_conflicts",
    "ensure_core",
    "materialize_core",
    "state_variable_order",
    "symbolic_census",
    "symbolic_check_csc",
    "symbolic_encode",
]


def symbolic_census(stg, reorder: bool = False) -> "SymbolicCensus":
    """Count the reachable states of ``stg`` without enumerating them.

    ``reorder=True`` enables dynamic variable reordering (sifting) on
    the underlying BDD manager; the census values are unaffected, only
    node-table shape and wall-clock change.
    """
    return SymbolicStateGraph(stg, reorder=reorder).census()


def symbolic_check_csc(
    stg, witness_limit: int = 4, reorder: bool = False
) -> "SymbolicConflictReport":
    """Detect CSC conflicts of ``stg`` without enumerating states.

    The conflict core is computed (deadline-bounded) on this
    detection-only path too, so ``as_dict()`` always reports an integer
    ``core_states`` — the verdict schema matches the hybrid path's.
    """
    ssg = SymbolicStateGraph(stg, reorder=reorder)
    report = detect_csc_conflicts(ssg, witness_limit=witness_limit)
    ensure_core(ssg, report)
    return report
