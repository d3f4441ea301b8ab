"""Speed-independence-preserving (SIP) insertion sets (Section 3).

A binary-encoded TS admits a speed-independent (hazard-free) circuit when
it is deterministic, commutative and output-persistent, so the encoding
process must preserve those properties.  The solver uses the *exact*
semantic check: verify the properties of the expanded graph directly,
together with the requirement that no input transition gets delayed by
the new signal.

The check is decided on the parent's index
(:meth:`repro.core.indexed.IndexedStateGraph.decide_insertion` replays
the expanded graph over integer nodes) and the expanded
:class:`~repro.stg.state_graph.StateGraph` is materialised only when the
insertion is valid; the Figure-4 search calls the same decision directly
and materialises only the insertion it commits to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, List, Optional, Set

from repro.core import indexed
from repro.core.insertion import insert_signal
from repro.core.ipartition import IPartition
from repro.stg.signals import SignalType
from repro.stg.state_graph import StateGraph

Event = Hashable


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
