"""Speed-independence-preserving (SIP) insertion sets (Section 3).

A binary-encoded TS admits a speed-independent (hazard-free) circuit when
it is deterministic, commutative and output-persistent, so the encoding
process must preserve those properties.  The paper gives three structural
sufficient conditions (Properties P1–P3: regions, persistent excitation
regions, connected intersections of pre-regions with persistent exit
events) — these are implemented here as fast predicates — and this module
additionally provides the *exact* semantic check used by the solver:
verify the properties of the expanded graph directly, together with the
requirement that no input transition gets delayed by the new signal.

With the engine caches enabled the check is decided on the parent's
index (:meth:`repro.core.indexed.IndexedStateGraph.decide_insertion`
replays the expanded graph over integer nodes) and the expanded
:class:`~repro.stg.state_graph.StateGraph` is materialised only when the
insertion is valid; the Figure-4 search calls the same decision directly
and materialises only the insertion it commits to.  Under
``use_caches(False)`` the object-space branch — insert, then check the
materialised graph — is the differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set

from repro.core import indexed
from repro.core.excitation import excitation_regions
from repro.core.insertion import IllegalInsertionError, insert_signal
from repro.core.ipartition import IPartition
from repro.core.regions import is_region
from repro.engine import caches as engine_caches
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.properties import (
    is_commutative,
    is_deterministic,
    is_event_persistent,
    is_subset_connected,
)
from repro.ts.transition_system import TransitionSystem

State = Hashable
Event = Hashable


# ----------------------------------------------------------------------
# structural sufficient conditions (Properties P1 - P3)
# ----------------------------------------------------------------------
def is_sip_region(ts: TransitionSystem, subset: Iterable[State]) -> bool:
    """Property P1: every region of a deterministic commutative TS is SIP."""
    return is_region(ts, subset)


def is_sip_excitation_region(
    ts: TransitionSystem, subset: Iterable[State], event: Event
) -> bool:
    """Property P2: an excitation region of ``event`` in which ``event`` is
    persistent is a SIP set."""
    subset_set = frozenset(subset)
    if subset_set not in set(excitation_regions(ts, event)):
        return False
    return is_event_persistent(ts, event, subset_set)


def is_sip_preregion_intersection(
    ts: TransitionSystem,
    subset: Iterable[State],
    preregions: Sequence[FrozenSet[State]],
) -> bool:
    """Property P3: a connected intersection of pre-regions of the same
    event, all of whose exit events are persistent, is a SIP set.

    ``preregions`` must be pre-regions of one event; the function checks
    that ``subset`` is their intersection and that the remaining
    conditions hold.
    """
    subset_set = frozenset(subset)
    if not preregions:
        return False
    intersection = frozenset(preregions[0])
    for region in preregions[1:]:
        intersection &= region
    if subset_set != intersection:
        return False
    if not is_subset_connected(ts, subset_set):
        return False
    exit_events: Set[Event] = set()
    for state in subset_set:
        for event, target in ts.successors(state):
            if target not in subset_set:
                exit_events.add(event)
    return all(is_event_persistent(ts, event) for event in exit_events)


# ----------------------------------------------------------------------
# exact semantic check
# ----------------------------------------------------------------------
def delayed_events(ts: TransitionSystem, partition: IPartition) -> Set[Event]:
    """Events whose firing is postponed until after the new signal fires.

    These are the events labelling transitions that leave ``ER(x+)``
    towards the ``x = 1`` side or leave ``ER(x-)`` towards the ``x = 0``
    side; after insertion they acquire the new signal as a trigger, and
    they must not be input events ("x cannot be inserted before input
    events", Section 5).
    """
    delayed: Set[Event] = set()
    one_side = partition.s1 | partition.sminus
    zero_side = partition.s0 | partition.splus
    for source, event, target in ts.transitions():
        if source in partition.splus and target in one_side:
            delayed.add(event)
        elif source in partition.sminus and target in zero_side:
            delayed.add(event)
    return delayed


@dataclass
class InsertionCheck:
    """Outcome of the exact SIP validity check for a candidate insertion."""

    ok: bool
    reasons: List[str] = field(default_factory=list)
    new_sg: Optional[StateGraph] = None
    delayed: FrozenSet[Event] = frozenset()
    #: The first failed check, one of :data:`repro.core.indexed.REJECTION_KINDS`
    #: (``None`` when the insertion is valid).
    kind: Optional[str] = None


def check_insertion(
    sg: StateGraph,
    partition: IPartition,
    signal: str = "__csc_probe__",
    signal_type: SignalType = SignalType.INTERNAL,
    persistent_before: Optional[Set[Event]] = None,
    check_commutativity: bool = True,
    allow_input_delay: bool = False,
) -> InsertionCheck:
    """Verify that the insertion preserves speed independence, and carry
    it out (``new_sg``) when it does.

    Checks, in order:

    1. both excitation regions of the new signal are non-empty (the signal
       actually switches) — degenerate partitions are rejected;
    2. no *input* event is delayed by the new signal;
    3. the expanded state graph is deterministic and commutative;
    4. every event that was persistent before the insertion is still
       persistent (this subsumes output-persistency preservation and the
       persistency of the new signal itself).

    Each failed check adds a reason; ``kind`` names the first failed one.
    ``persistent_before`` can be supplied to avoid recomputing the set of
    persistent events of ``sg`` for every candidate.  ``allow_input_delay``
    relaxes check (2): some specifications (pure toggles, counters) have no
    input-preserving solution at all — the "changes in the specification"
    the paper mentions other tools resort to — and this switch makes that
    trade-off explicit instead of silently failing.
    """
    if engine_caches.caches_enabled():
        # Decide on the parent's index; materialise only a valid insertion.
        index = indexed.indexed_state_graph(sg)
        if persistent_before is None:
            persistent_before = index.persistent_events()
        verdict = index.decide_insertion(
            index.side_table(partition),
            signal,
            persistent_before,
            check_commutativity=check_commutativity,
            allow_input_delay=allow_input_delay,
            count_conflicts=False,
        )
        new_sg = None
        if verdict.ok:
            new_sg = insert_signal(sg, partition, signal, signal_type, replay=verdict.replay)
        return InsertionCheck(
            ok=verdict.ok,
            reasons=verdict.reasons,
            new_sg=new_sg,
            delayed=verdict.delayed,
            kind=verdict.kind,
        )

    # Object-space oracle (use_caches(False)): materialise, then check.
    reasons: List[str] = []

    if not partition.splus or not partition.sminus:
        reasons.append("the inserted signal would never switch (empty ER(x+) or ER(x-))")
        return InsertionCheck(ok=False, reasons=reasons, kind="degenerate")

    delayed = frozenset(delayed_events(sg.ts, partition))
    if not allow_input_delay:
        for event in delayed:
            if isinstance(event, SignalEdge) and sg.is_input_edge(event):
                reasons.append(f"input event {event} would be delayed by the new signal")
    if reasons:
        return InsertionCheck(ok=False, reasons=reasons, delayed=delayed, kind="input_delay")

    try:
        new_sg = insert_signal(sg, partition, signal, signal_type)
    except IllegalInsertionError as error:
        return InsertionCheck(ok=False, reasons=[str(error)], delayed=delayed, kind="illegal")

    kinds: List[str] = []
    if not is_deterministic(new_sg.ts):
        reasons.append("insertion breaks determinism")
        kinds.append("determinism")
    if check_commutativity and not is_commutative(new_sg.ts):
        reasons.append("insertion breaks commutativity")
        kinds.append("commutativity")

    if persistent_before is None:
        persistent_before = {
            event for event in sg.ts.events if is_event_persistent(sg.ts, event)
        }
    for event in persistent_before:
        if isinstance(event, SignalEdge) and sg.is_input_edge(event):
            # Input persistency is an assumption about the environment, not
            # a property of the circuit; when inputs are not delayed it is
            # preserved automatically, and when the user explicitly allows
            # delaying inputs it is the environment timing that changes.
            continue
        if event in new_sg.ts.events and not is_event_persistent(new_sg.ts, event):
            reasons.append(f"event {event} loses persistency")
            kinds.append("persistency")

    # The inserted signal is an output of the circuit: it must be persistent.
    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        if edge in new_sg.ts.events and not is_event_persistent(new_sg.ts, edge):
            reasons.append(f"inserted transition {edge} is not persistent")
            kinds.append("persistency")

    return InsertionCheck(
        ok=not reasons,
        reasons=reasons,
        new_sg=new_sg,
        delayed=delayed,
        kind=kinds[0] if kinds else None,
    )
