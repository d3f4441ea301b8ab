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

:func:`insert_signal` works on the parent's
:class:`~repro.core.indexed.IndexedStateGraph`: the I-partition becomes a
side table, the coverage and crossing checks run over the index in
``transitions()`` order, and the expanded graph is the replay
:meth:`~repro.core.indexed.IndexedStateGraph.decide_insertion` also uses,
over integer nodes ``2 * i + x`` reachable from the initial node.  The
child transition system is then built in one pass
(:meth:`~repro.ts.transition_system.TransitionSystem.from_adjacency`), in
the order an arc-by-arc object-space replay would give: states as that
replay first meets them (original arcs, then the ``x+`` and ``x-``
arcs), successor lists in replay order, predecessor and per-event lists
in ``transitions()`` order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.ipartition import S0, S1, SPLUS, IPartition
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


def insert_signal(
    sg: StateGraph,
    partition: IPartition,
    signal: str,
    signal_type: SignalType = SignalType.INTERNAL,
    name: Optional[str] = None,
    replay: Optional[tuple] = None,
) -> StateGraph:
    """Insert a new signal into a state graph according to an I-partition.

    Every state of the result is a pair ``(original_state, x_value)``; the
    encoding of the original signals is inherited and the new signal's
    value is appended as the last component of the code.  Only the states
    reachable from the initial state ``(initial, x0)`` are kept.

    ``replay`` is the :attr:`~repro.core.indexed.InsertionVerdict.replay`
    of an accepted :meth:`~repro.core.indexed.IndexedStateGraph.decide_insertion`
    of this same partition on ``sg``'s index; without it the insertion is
    replayed here.
    """
    # Deferred: repro.core.indexed imports this module at load time.
    from repro.core.indexed import UNCOVERED, IndexedStateGraph, indexed_state_graph

    if signal in sg.signals:
        raise ValueError(f"signal {signal!r} already exists in the state graph")
    check_deadline()  # replaying O(states x edges) transitions below; bail early on timeout
    index = indexed_state_graph(sg)
    side = index.side_table(partition)
    states = index.states
    if UNCOVERED in side:
        state = states[side.index(UNCOVERED)]
        raise IllegalInsertionError(f"state {state!r} is not covered by the I-partition")

    # The nodes 2 * i + x of a replay of every original transition (in
    # transitions() order, at each admitted x value in ascending order),
    # then of the x+ and x- arcs: their order of first appearance is the
    # state order of the expanded graph.
    sequence: List[int] = []
    for i, outgoing in enumerate(index.succ_events):
        code = side[i]
        base = code * 4
        for _event, j in outgoing:
            values = ARC_VALUES[base + side[j]]
            if not values:
                raise illegal_crossing(code, states[i])
            if values & 1:
                sequence += (2 * i, 2 * j)
            if values & 2:
                sequence += (2 * i + 1, 2 * j + 1)
    position = index.position
    for state in partition.splus:
        p = position.get(state)
        if p is not None:
            sequence += (2 * p, 2 * p + 1)
    for state in partition.sminus:
        p = position.get(state)
        if p is not None:
            sequence += (2 * p + 1, 2 * p)

    # Replay the legal insertion from its initial node: exactly the
    # reachable nodes, each with its arcs in replay order.
    if replay is None:
        rise = SignalEdge.rise(signal)
        fall = SignalEdge.fall(signal)
        arcs_of, reachable, _near_border = index._replay_insertion(side, rise, fall)
    else:
        arcs_of, reachable = replay
    start = reachable[0]
    sequence.append(start)
    order = [node for node in dict.fromkeys(sequence) if arcs_of[node] is not None]
    child_position = [0] * len(arcs_of)
    for c, node in enumerate(order):
        child_position[node] = c
    new_states = [(states[node >> 1], node & 1) for node in order]
    adjacency = [[(event, child_position[t]) for event, t in arcs_of[node]] for node in order]
    initial = child_position[start]
    new_ts = TransitionSystem.from_adjacency(
        new_states, adjacency, initial=initial, name=name or f"{sg.name}+{signal}"
    )

    new_signals = list(sg.signals) + [signal]
    new_types = dict(sg.signal_types)
    new_types[signal] = signal_type
    encoding = sg.encoding
    new_encoding: Dict[Tuple[State, int], Tuple[int, ...]] = {
        state: encoding[state[0]] + (state[1],) for state in new_states
    }

    new_sg = StateGraph(
        ts=new_ts,
        signals=new_signals,
        signal_types=new_types,
        encoding=new_encoding,
        name=new_ts.name,
    )
    # Record where the expanded graph came from, and attach its index
    # derived from the replay (the same lists the transition system was
    # built from, packed codes and parent positions from the parent's
    # index), instead of re-hashing the child's transition system.  The
    # provenance lets the engine caches carry over untouched brick
    # entries; the parent positions drive the index-space incremental CSC
    # re-analysis.
    engine_caches.note_insertion(sg, new_sg, partition, signal)
    engine_caches.get_cache(new_sg).indexed = IndexedStateGraph.derive_child(
        index, new_sg, new_states, order, adjacency, initial
    )
    return new_sg
