"""Slow, independent references the fast paths of the library must
reproduce exactly.

* :func:`reference_insert_signal` is the object-space signal insertion
  of Figure 2: it replays every original transition arc by arc with
  :meth:`TransitionSystem.add_transition`, adds the ``x+`` / ``x-`` arcs,
  then keeps the part reachable from the initial state.
  :func:`repro.core.insertion.insert_signal` builds the same graph from
  the parent's index; :func:`state_graph_layout` captures everything the
  two must agree on, every order included.
* :func:`reference_region_masks_containing` is the region expansion
  that runs the per-arc test on every event, the loop
  :func:`repro.core.regions.minimal_region_masks_containing` shortcuts
  by source and target masks.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.insertion import ARC_VALUES, IllegalInsertionError, illegal_crossing
from repro.core.regions import (
    RegionSearchBudgetExceeded,
    _expansion_choices_mask,
    _keep_minimal_masks,
)
from repro.stg.signals import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts.transition_system import TransitionSystem


def reference_insert_signal(
    sg, partition, signal, signal_type=SignalType.INTERNAL, name=None
) -> StateGraph:
    """Insert ``signal`` along ``partition`` in object space, arc by arc."""
    if signal in sg.signals:
        raise ValueError(f"signal {signal!r} already exists in the state graph")
    side = {}
    blocks = (partition.s0, partition.splus, partition.s1, partition.sminus)
    for code, block in enumerate(blocks):
        for state in block:
            side[state] = code
    for state in sg.states:
        if state not in side:
            raise IllegalInsertionError(f"state {state!r} is not covered by the I-partition")

    new_ts = TransitionSystem(name or f"{sg.name}+{signal}")
    for source, edge, target in sg.ts.transitions():
        source_side = side[source]
        values = ARC_VALUES[source_side * 4 + side[target]]
        if not values:
            raise illegal_crossing(source_side, source)
        for value in (0, 1):
            if values >> value & 1:
                new_ts.add_transition((source, value), edge, (target, value))
    rise = SignalEdge.rise(signal)
    fall = SignalEdge.fall(signal)
    for state in partition.splus:
        new_ts.add_transition((state, 0), rise, (state, 1))
    for state in partition.sminus:
        new_ts.add_transition((state, 1), fall, (state, 0))
    initial = sg.initial_state
    initial_value = 0 if (initial in partition.s0 or initial in partition.splus) else 1
    new_ts.set_initial((initial, initial_value))
    new_ts = new_ts.restrict_to_reachable()

    new_types = dict(sg.signal_types)
    new_types[signal] = signal_type
    encoding = {state: sg.code(state[0]) + (state[1],) for state in new_ts.states}
    return StateGraph(
        ts=new_ts,
        signals=list(sg.signals) + [signal],
        signal_types=new_types,
        encoding=encoding,
        name=new_ts.name,
    )


def state_graph_layout(sg) -> tuple:
    """Everything two builds of one state graph must agree on: names,
    signals and their types, the encoding, the initial state and the
    successor, predecessor and per-event lists, each in its order."""
    ts = sg.ts
    return (
        sg.name,
        sg.signals,
        list(sg.signal_types.items()),
        list(sg.encoding.items()),
        ts.name,
        ts.initial_state,
        list(ts._succ.items()),
        list(ts._pred.items()),
        list(ts._by_event.items()),
    )


def insertion_outcome(insert, *args, **kwargs):
    """``("graph", layout)`` of an insertion, or ``(error type, message)``
    when it raises a :class:`ValueError`."""
    try:
        return ("graph", state_graph_layout(insert(*args, **kwargs)))
    except ValueError as error:
        return (type(error).__name__, str(error))


def reference_region_masks_containing(
    isg, seed_mask: int, max_explored: int = 20000
) -> Tuple[List[int], int, int]:
    """``(minimal regions, explored, per-arc calls)``: the region expansion
    with the per-arc test on every event until the first violating one."""
    if not seed_mask:
        return [], 0, 0
    full_mask = isg.full_mask
    arc_bits_of = [isg.event_arc_bits(event) for event in isg.event_list]
    found: List[int] = []
    visited: Set[int] = set()
    stack = [seed_mask]
    explored = 0
    arc_calls = 0
    while stack:
        current = stack.pop()
        if current in visited:
            continue
        visited.add(current)
        explored += 1
        if explored > max_explored:
            raise RegionSearchBudgetExceeded(
                f"region expansion explored more than {max_explored} candidate sets"
            )
        if current == full_mask:
            found.append(full_mask)
            continue
        choices = None
        for arc_bits in arc_bits_of:
            arc_calls += 1
            choices = _expansion_choices_mask(arc_bits, current)
            if choices is not None:
                break
        if choices is None:
            found.append(current)
            continue
        for addition in choices:
            expanded = current | addition
            if expanded not in visited:
                stack.append(expanded)
    return _keep_minimal_masks(found), explored, arc_calls
