"""Property-preserving event insertion (Section 3, Figure 2).

Inserting a new signal ``x`` with excitation regions ``ER(x+) = S+`` and
``ER(x-) = S-`` splits every state of ``S+``/``S-`` into two copies — one
before and one after the new transition fires — and re-routes the original
transitions so that:

* transitions *entering* the insertion set target the "before" copy,
* transitions *inside* the insertion set are duplicated in both copies
  (the new event is concurrent with them),
* transitions *exiting* the insertion set fire only from the "after"
  copy (they are delayed until the new event has fired).

This is exactly the scheme of Figure 2 and the one used by most work in
the area.  The result is a new binary-encoded state graph with one more
signal; trace equivalence modulo the new signal, determinism and
commutativity are preserved by construction, persistency is checked
separately (``repro.core.sip``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.ipartition import S0, S1, SMINUS, SPLUS, IPartition
from repro.engine import caches as engine_caches
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.transition_system import TransitionSystem
from repro.utils.deadline import check_deadline

State = Hashable


class IllegalInsertionError(ValueError):
    """Raised when the I-partition does not admit a consistent insertion."""


#: The values of the new signal at which an original transition is
#: replayed in the expanded state graph, indexed by
#: ``source_side * 4 + target_side`` (I-partition side codes): bit ``v``
#: set means ``source -> target`` is copied as ``(source, v) -> (target, v)``;
#: 0 marks a crossing no consistent insertion allows.
ARC_VALUES = bytes((
    1, 1, 0, 0,  # from S0:     S0, S+ at x=0
    0, 3, 2, 2,  # from ER(x+): S+ at both values, S1, S- at x=1
    0, 0, 2, 2,  # from S1:     S1, S- at x=1
    1, 1, 0, 3,  # from ER(x-): S0, S+ at x=0, S- at both values
))

_VALUES_OF_BITS = {1: (0,), 2: (1,), 3: (0, 1)}


def illegal_crossing(source_side: int, source: State) -> IllegalInsertionError:
    """The error for an arc leaving ``source`` (in block ``source_side``)
    across a crossing :data:`ARC_VALUES` forbids."""
    if source_side == S0:
        message = f"transition from S0 state {source!r} escapes to the x=1 side"
    elif source_side == SPLUS:
        message = (
            f"transition from ER(x+) state {source!r} re-enters S0 "
            "(exit border is not well-formed)"
        )
    elif source_side == S1:
        message = f"transition from S1 state {source!r} escapes to the x=0 side"
    else:
        message = (
            f"transition from ER(x-) state {source!r} re-enters S1 "
            "(exit border is not well-formed)"
        )
    return IllegalInsertionError(message)


def _side_table(partition: IPartition) -> Dict[State, int]:
    """Every covered state mapped to the side code of its block."""
    side: Dict[State, int] = {}
    for code, block in (
        (S0, partition.s0),
        (SPLUS, partition.splus),
        (S1, partition.s1),
        (SMINUS, partition.sminus),
    ):
        for state in block:
            side[state] = code
    return side


def insert_signal(
    sg: StateGraph,
    partition: IPartition,
    signal: str,
    signal_type: SignalType = SignalType.INTERNAL,
    restrict_to_reachable: bool = True,
    name: Optional[str] = None,
) -> StateGraph:
    """Insert a new signal into a state graph according to an I-partition.

    Every state of the result is a pair ``(original_state, x_value)``; the
    encoding of the original signals is inherited and the new signal's
    value is appended as the last component of the code.
    """
    if signal in sg.signals:
        raise ValueError(f"signal {signal!r} already exists in the state graph")
    check_deadline()  # replaying O(states x edges) transitions below; bail early on timeout
    side = _side_table(partition)
    for state in sg.states:
        if state not in side:
            raise IllegalInsertionError(f"state {state!r} is not covered by the I-partition")

    new_ts = TransitionSystem(name or f"{sg.name}+{signal}")

    # Replay the original transitions at the appropriate x values.
    for source, edge, target in sg.ts.transitions():
        source_side = side[source]
        values = ARC_VALUES[source_side * 4 + side[target]]
        if not values:
            raise illegal_crossing(source_side, source)
        for value in _VALUES_OF_BITS[values]:
            new_ts.add_transition((source, value), edge, (target, value))

    # Add the transitions of the new signal itself.
    rise = SignalEdge.rise(signal)
    fall = SignalEdge.fall(signal)
    for state in partition.splus:
        new_ts.add_transition((state, 0), rise, (state, 1))
    for state in partition.sminus:
        new_ts.add_transition((state, 1), fall, (state, 0))

    # Initial state: the original initial state with the value the new
    # signal holds before it has ever fired.
    initial = sg.initial_state
    initial_value = 0 if (initial in partition.s0 or initial in partition.splus) else 1
    new_ts.set_initial((initial, initial_value))

    if restrict_to_reachable:
        new_ts = new_ts.restrict_to_reachable()

    new_signals = list(sg.signals) + [signal]
    new_types = dict(sg.signal_types)
    new_types[signal] = signal_type
    new_encoding: Dict[Tuple[State, int], Tuple[int, ...]] = {}
    for state in new_ts.states:
        original, value = state
        new_encoding[state] = sg.code(original) + (value,)

    new_sg = StateGraph(
        ts=new_ts,
        signals=new_signals,
        signal_types=new_types,
        encoding=new_encoding,
        name=new_ts.name,
    )
    # Record where the expanded graph came from.  The provenance lets the
    # engine caches carry over untouched brick entries, and it is what
    # repro.core.indexed.indexed_state_graph keys on to produce the
    # child's IndexedStateGraph by index arithmetic (packed codes and the
    # parent-position table derived from the parent's index instead of
    # re-deriving them from the nested (state, bit) encoding), which in
    # turn drives the index-space incremental CSC re-analysis.
    engine_caches.note_insertion(sg, new_sg, partition, signal)
    return new_sg
