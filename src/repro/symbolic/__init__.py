"""The symbolic encoding tier: BDD-backed state graphs for very large STGs.

The explicit pipeline — and its PR-3 integer/bitset representation —
must materialize every reachable state before it can say anything about
an STG, which caps the workloads the engine and the service can accept.
This package runs the *front half* of the CSC pipeline symbolically,
the capability the source paper credits for handling the Table-1
benchmarks whose state spaces are orders of magnitude beyond explicit
enumeration:

* :mod:`repro.symbolic.compose` — :class:`ComposedStateGraph`: the
  entry points below split an STG into its disjoint components
  (:func:`repro.stg.stg.net_components`), build one symbolic graph per
  component and combine censuses and conflict counts in closed form
  (products over the components); a connected STG is one component
  and takes the single-graph path unchanged;
* :mod:`repro.symbolic.stategraph` — :class:`SymbolicStateGraph`:
  reachable states, per-event transition structure and binary-code
  valuations as BDDs over one variable per place and per signal (each
  with an interleaved primed twin for relational work);
* :mod:`repro.symbolic.csc` — CSC conflict *detection* via a
  code-equality relation on the primed/unprimed variable pairs, never
  by pairwise state comparison (the per-edge signature predicates are
  OR-ed first and conjoined with the reachable-pair relation once):
  USC/CSC pair counts, conflict states, witness cubes, and the conflict
  core — which, for a conflicted graph, is its whole reachable set;
* :mod:`repro.symbolic.bridge` — :func:`symbolic_encode`, the hybrid
  driver: symbolic census and detection always; when conflicts exist
  and the graph has at most ``max_states`` states (a state budget, the
  core being every state), the explicit state graph is built so the
  region/insertion solver finishes the job (``mode="hybrid"``); a
  larger graph gets the detection-only verdict
  (``mode="symbolic-only"``).

The tier plugs into the stack as ``engine="symbolic"`` / ``"auto"`` of
:func:`repro.engine.batch.encode_many`, the ``pyetrify census`` /
``check-csc`` commands, and the service's fingerprint-relevant engine
setting.
"""

from repro.symbolic.bridge import (
    DEFAULT_STATE_BUDGET,
    SymbolicOutcome,
    symbolic_encode,
)
from repro.symbolic.compose import ComposedStateGraph
from repro.symbolic.csc import (
    SymbolicConflictReport,
    detect_csc_conflicts,
    ensure_core,
)
from repro.symbolic.stategraph import (
    SymbolicCensus,
    SymbolicStateGraph,
    state_variable_order,
)

__all__ = [
    "ComposedStateGraph",
    "DEFAULT_STATE_BUDGET",
    "SymbolicCensus",
    "SymbolicConflictReport",
    "SymbolicOutcome",
    "SymbolicStateGraph",
    "detect_csc_conflicts",
    "ensure_core",
    "state_variable_order",
    "symbolic_census",
    "symbolic_check_csc",
    "symbolic_encode",
]


def symbolic_census(stg, reorder: bool = False) -> "SymbolicCensus":
    """Count the reachable states of ``stg`` without enumerating them.

    One census per disjoint component, combined exactly
    (:mod:`repro.symbolic.compose`).  ``reorder=True`` enables dynamic
    variable reordering (sifting) on the underlying BDD managers; the
    census values are unaffected, only node-table shape and wall-clock
    change.
    """
    return ComposedStateGraph(stg, reorder=reorder).census()


def symbolic_check_csc(
    stg, witness_limit: int = 4, reorder: bool = False
) -> "SymbolicConflictReport":
    """Detect CSC conflicts of ``stg`` without enumerating states.

    One detection per disjoint component, combined exactly
    (:mod:`repro.symbolic.compose`).  The conflict core is filled in on
    this detection-only path too, so ``as_dict()`` always reports an
    integer ``core_states`` (the state count when CSC fails, 0 when it
    holds) — the verdict schema matches the hybrid path's.
    """
    graphs = ComposedStateGraph(stg, reorder=reorder)
    report = graphs.detect(witness_limit=witness_limit)
    graphs.ensure_core(report)
    return report
