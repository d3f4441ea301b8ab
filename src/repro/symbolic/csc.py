"""Symbolic CSC conflict detection.

The explicit detector (:mod:`repro.core.csc`) buckets enumerated states
by code and compares enabled-signal signatures pairwise inside each
bucket.  Here the same question is asked *relationally*, without ever
touching a state pair: with every state variable owning an unprimed and
a primed BDD level (:mod:`repro.symbolic.stategraph`), the function

.. code-block:: text

    Conflict(x, x')  =  R(x)  ∧  R(x')  ∧  ⋀_s (v_s(x) ↔ v_s(x'))
                                         ∧  ⋁_e (En_e(x) ⊕ En_e(x'))

over unprimed ``x`` and primed ``x'`` holds exactly for the ordered CSC
conflict pairs: both states reachable, equal binary codes (the
code-equality relation — one biconditional per signal-variable pair,
linear thanks to the interleaved ordering), and some non-input signal
edge ``e`` enabled in one state but not the other.  The signature
disjunction is built over the small per-edge predicates first, OR-ed
in pairs round by round (:meth:`repro.bdd.bdd.BDD.disjoin`), and
conjoined with the large reachable-pair relation once.  ``sat_count``
over all levels counts ordered pairs, so halving it reproduces the
explicit pipeline's pair counts.  The USC pair count needs no relation
of its own: two distinct states with one code differ in marking, and
the reachable-pair relation's diagonal holds exactly one pair per
state, so the relation's count minus the state count, halved, is the
number of USC pairs.  The reachable-pair relation itself is built as
``(R(x) ∧ EQ) ∧ R(x')``: the code-equality relation prunes the
conjunction at once, where ``R(x) ∧ R(x')`` would first pair every
state with every other.

The *conflict core* — every state on a trajectory through a conflict —
needs no fixpoint: every conflict state is reachable, so its reachable
predecessors include the initial state, whose forward closure is the
whole reachable set.  The core of a conflicted graph is therefore its
reachable set (:func:`ensure_core`), and the hybrid bridge
(:mod:`repro.symbolic.bridge`) hands the solver the full explicit state
graph when it fits the state budget; when it does not, the conflict
relation itself is the deliverable, summarised by pair counts and
witness cubes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bdd.bdd import FALSE, Node, prime_map
from repro.obs import span
from repro.symbolic.stategraph import SymbolicStateGraph
from repro.utils.deadline import check_deadline

__all__ = [
    "SymbolicConflictReport",
    "detect_csc_conflicts",
    "ensure_core",
]


@dataclass
class SymbolicConflictReport:
    """The structured verdict of one symbolic CSC detection run.

    ``conflict_states`` (a BDD node over the unprimed levels) and
    ``relation`` (over both copies) stay attached for downstream use —
    the hybrid bridge and the tests; :meth:`as_dict` drops them.  A
    report composed over disjoint components
    (:mod:`repro.symbolic.compose`) has no single relation: both are
    ``None`` and ``parts`` holds the per-component reports.
    """

    name: str
    states: int
    usc_pairs: int
    csc_pairs: int
    csc_holds: bool
    conflict_state_count: int
    witnesses: List[Dict[str, object]] = field(default_factory=list)
    core_states: Optional[int] = None  # filled by ensure_core
    seconds: float = 0.0
    conflict_states: Optional[Node] = FALSE
    relation: Optional[Node] = FALSE
    parts: List["SymbolicConflictReport"] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "states": self.states,
            "usc_pairs": self.usc_pairs,
            "csc_pairs": self.csc_pairs,
            "csc_holds": self.csc_holds,
            "conflict_state_count": self.conflict_state_count,
            "core_states": self.core_states,
            "components": len(self.parts) or 1,
            "witnesses": list(self.witnesses),
            "seconds": round(self.seconds, 3),
        }


def _code_equality(ssg: SymbolicStateGraph) -> Node:
    """``⋀_s (v_s ↔ v'_s)`` — the code-equality relation on the
    primed/unprimed signal-variable pairs (built highest level first so
    every intermediate conjunct is a suffix of the final chain)."""
    bdd = ssg.bdd
    result = bdd.true
    for var in sorted(ssg.signal_vars.values(), reverse=True):
        result = bdd.apply_and(
            result, bdd.apply_eq(bdd.var(ssg.unprimed(var)), bdd.var(ssg.primed(var)))
        )
    return result


def _decode_witness(ssg: SymbolicStateGraph, cube: Dict[int, int]) -> Dict[str, object]:
    """One conflict pair, decoded into a JSON-friendly record."""
    first = {level: value for level, value in cube.items() if level % 2 == 0}
    second = {level - 1: value for level, value in cube.items() if level % 2 == 1}
    first_marking, first_code = ssg.decode_state(first)
    second_marking, second_code = ssg.decode_state(second)
    return {
        "code": "".join(str(bit) for bit in first_code),
        "first_marking": sorted(str(place) for place in first_marking.places()),
        "second_marking": sorted(str(place) for place in second_marking.places()),
    }


def detect_csc_conflicts(
    ssg: SymbolicStateGraph, witness_limit: int = 4
) -> SymbolicConflictReport:
    """Detect USC/CSC conflicts of ``ssg`` without enumerating states."""
    started = time.perf_counter()
    with ssg.recursion_scope():
        report = _detect(ssg, witness_limit)
    report.seconds = time.perf_counter() - started
    return report


def _detect(ssg: SymbolicStateGraph, witness_limit: int) -> SymbolicConflictReport:
    bdd = ssg.bdd
    reached = ssg.explore()
    states = ssg.count_states()
    mapping = prime_map(ssg.num_state_vars)
    all_levels = ssg.unprimed_levels + ssg.primed_levels
    with span("bdd.apply", graph=ssg.name, phase="csc"):
        pair = bdd.apply_and(
            bdd.apply_and(reached, _code_equality(ssg)), bdd.rename(reached, mapping)
        )
        usc_pairs = (bdd.sat_count(pair, all_levels) - states) // 2

        conflict_relation = bdd.false
        if usc_pairs > 0:
            # Only non-input signal edges matter for the signature (the
            # explicit detector's _noninput_signature); without any shared
            # code there is nothing to compare at all.
            signatures = []
            for edge in ssg.base_edges():
                check_deadline()
                if ssg.stg.is_input(edge.signal):
                    continue
                enabled = ssg.enabled_predicate(edge)
                signatures.append(bdd.apply_xor(enabled, bdd.rename(enabled, mapping)))
            conflict_relation = bdd.apply_and(pair, bdd.disjoin(signatures))
        csc_pairs = bdd.sat_count(conflict_relation, all_levels) // 2
    csc_holds = conflict_relation == bdd.false

    conflict_states = bdd.exists(conflict_relation, ssg.primed_levels)
    conflict_state_count = bdd.sat_count(conflict_states, ssg.unprimed_levels)

    witnesses: List[Dict[str, object]] = []
    remaining = conflict_relation
    while remaining != bdd.false and len(witnesses) < witness_limit:
        partial = bdd.pick_cube(remaining)
        # pick_cube returns a *partial* assignment: levels the cube does
        # not constrain are absent, and any completion satisfies the
        # relation.  Complete it over every level (absent level -> 0, the
        # picker's own preference) so the decoded witness is one fully
        # specified state pair and the subtraction below removes exactly
        # that pair — subtracting the partial cube would swallow a whole
        # family of distinct conflicts and under-fill the witness list.
        cube = {level: partial.get(level, 0) for level in all_levels}
        witnesses.append(_decode_witness(ssg, cube))
        # The relation holds ordered pairs, so every unordered conflict
        # appears twice; subtract the picked cube AND its mirror (primed
        # and unprimed halves swapped) to move on to the next conflict.
        mirror = {
            (level + 1 if level % 2 == 0 else level - 1): value
            for level, value in cube.items()
        }
        remaining = bdd.apply_diff(remaining, bdd.cube(cube))
        remaining = bdd.apply_diff(remaining, bdd.cube(mirror))

    return SymbolicConflictReport(
        name=ssg.name,
        states=states,
        usc_pairs=usc_pairs,
        csc_pairs=csc_pairs,
        csc_holds=csc_holds,
        conflict_state_count=conflict_state_count,
        witnesses=witnesses,
        conflict_states=conflict_states,
        relation=conflict_relation,
    )


def ensure_core(ssg: SymbolicStateGraph, report: SymbolicConflictReport) -> Node:
    """The conflict core of ``report``: the reachable set, or empty.

    Every conflict state is reachable, so closing the conflict states
    under reachable preimages pulls in the initial state, and closing
    that under images gives every reachable state: a conflicted graph's
    core is its whole reachable set, and the core of an empty conflict
    set is empty.  Fills ``report.core_states`` as a side effect, so
    every surface that calls this — detection-only ``check-csc`` runs
    included — emits an integer core size, never ``null``.
    """
    if report.csc_holds:
        report.core_states = 0
        return ssg.bdd.false
    report.core_states = report.states
    return ssg.explore()
