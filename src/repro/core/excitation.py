"""Excitation and switching regions (Section 2.2).

The *excitation region* ``ER_j(a)`` is a maximal connected set of states
in which event ``a`` is enabled; the *switching region* ``SR_j(a)`` is a
maximal connected set of states reached immediately after ``a`` fires.
Excitation regions correspond to Petri-net transitions in the same way
regions correspond to places, and they are the (coarser) insertion sets
previous approaches were limited to.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Set

from repro.ts.transition_system import TransitionSystem

State = Hashable
Event = Hashable


def excitation_set(ts: TransitionSystem, event: Event) -> Set[State]:
    """All states in which ``event`` is enabled (union of its ERs)."""
    return {source for source, _target in ts.transitions_of(event)}


def switching_set(ts: TransitionSystem, event: Event) -> Set[State]:
    """All states entered immediately after ``event`` fires."""
    return {target for _source, target in ts.transitions_of(event)}


def _connected_components(ts: TransitionSystem, states: Set[State]) -> List[FrozenSet[State]]:
    """Weakly connected components of the subgraph induced by ``states``."""
    remaining = set(states)
    neighbours: Dict[State, Set[State]] = {state: set() for state in remaining}
    for source, _event, target in ts.transitions():
        if source in remaining and target in remaining:
            neighbours[source].add(target)
            neighbours[target].add(source)
    components: List[FrozenSet[State]] = []
    while remaining:
        start = next(iter(remaining))
        component = {start}
        frontier = deque([start])
        while frontier:
            state = frontier.popleft()
            for neighbour in neighbours[state]:
                if neighbour not in component:
                    component.add(neighbour)
                    frontier.append(neighbour)
        remaining -= component
        components.append(frozenset(component))
    components.sort(key=lambda c: (len(c), repr(sorted(map(repr, c)))))
    return components


def excitation_regions(ts: TransitionSystem, event: Event) -> List[FrozenSet[State]]:
    """The excitation regions ``ER_j(event)`` (connected components)."""
    return _connected_components(ts, excitation_set(ts, event))


def switching_regions(ts: TransitionSystem, event: Event) -> List[FrozenSet[State]]:
    """The switching regions ``SR_j(event)`` (connected components)."""
    return _connected_components(ts, switching_set(ts, event))


# ----------------------------------------------------------------------
# indexed (bitmask) pipeline
# ----------------------------------------------------------------------
#
# The functions below compute on an
# :class:`~repro.core.indexed.IndexedStateGraph`: an excitation/switching
# set is the bitmask union of the event's arc endpoints, and its regions
# are connected components extracted by bitmask BFS.  They produce
# exactly the lists of the object-space functions above (same members,
# same canonical ordering); the object-space path remains the
# cache-disabled oracle.

def excitation_set_mask(isg, event: Event) -> int:
    """Bitmask union of the excitation regions of ``event``."""
    return isg.er_mask(event)


def switching_set_mask(isg, event: Event) -> int:
    """Bitmask union of the switching regions of ``event``."""
    return isg.sr_mask(event)


def excitation_region_masks(isg, event: Event) -> List[int]:
    """The excitation regions ``ER_j(event)`` as bitmasks (canonical order)."""
    return isg.components_of_mask(isg.er_mask(event))


def switching_region_masks(isg, event: Event) -> List[int]:
    """The switching regions ``SR_j(event)`` as bitmasks (canonical order)."""
    return isg.components_of_mask(isg.sr_mask(event))


def trigger_events(ts: TransitionSystem, region: FrozenSet[State]) -> Set[Event]:
    """Events labelling transitions that *enter* ``region``.

    Trigger events of an excitation region become fan-in signals of the
    gate implementing the corresponding output transition; the paper uses
    their count as its logic-complexity estimate (Section 5).
    """
    triggers: Set[Event] = set()
    for source, event, target in ts.transitions():
        if source not in region and target in region:
            triggers.add(event)
    return triggers
