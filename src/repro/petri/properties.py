"""Structural and behavioural properties of Petri nets."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterator, Optional

from repro.petri.net import Marking, PetriNet
from repro.petri.reachability import StateSpaceLimitExceeded
from repro.utils.deadline import check_deadline

Place = Hashable


def _reached(
    net: PetriNet, max_markings: Optional[int], parent: Dict[Marking, Optional[Marking]]
) -> Iterator[Marking]:
    """Yield each reachable marking of ``net`` as breadth-first search
    first reaches it, the initial marking first, recording its BFS
    parent in ``parent``.  The caller stops the search by not asking for
    the next marking."""
    initial = net.initial_marking
    parent[initial] = None
    yield initial
    frontier = deque([initial])
    while frontier:
        check_deadline()  # per-job wall-clock bound (repro.utils.deadline)
        marking = frontier.popleft()
        for transition in net.enabled_transitions(marking):
            successor = net.fire(marking, transition)
            if successor in parent:
                continue
            parent[successor] = marking
            if max_markings is not None and len(parent) > max_markings:
                raise StateSpaceLimitExceeded(
                    f"more than {max_markings} reachable markings in {net.name}"
                )
            yield successor
            frontier.append(successor)


def place_bounds(net: PetriNet, max_markings: Optional[int] = None) -> Dict[Place, int]:
    """The maximum token count of each place over all reachable markings.

    Raises :class:`ValueError` on an unbounded net: a marking that
    strictly covers one of its BFS ancestors can repeat the firings in
    between forever, each time adding tokens.  Every infinite search
    meets such a pair (Karp and Miller), so the function returns or
    raises on every net.
    """
    parent: Dict[Marking, Optional[Marking]] = {}
    bounds = {place: 0 for place in net.places}
    for marking in _reached(net, max_markings, parent):
        # a newly reached marking differs from all its ancestors, so
        # covering one of them covers it strictly
        ancestor = parent[marking]
        while ancestor is not None:
            if all(marking.count(p) >= count for p, count in ancestor.items()):
                raise ValueError(
                    f"the net {net.name!r} is unbounded: a reachable marking "
                    "strictly covers one of its ancestors"
                )
            ancestor = parent[ancestor]
        for place, count in marking.items():
            bounds[place] = max(bounds.get(place, 0), count)
    return bounds


def is_safe(net: PetriNet, max_markings: Optional[int] = None) -> bool:
    """True iff no reachable marking puts more than one token in a place.

    Safeness is a prerequisite of the paper's completeness claim ("the
    method can solve CSC for any safe, consistent, output-persistent STG").
    The search stops at the first unsafe marking; a safe net has at most
    ``2**len(places)`` markings, so the function returns on every net.
    """
    return all(marking.is_safe() for marking in _reached(net, max_markings, {}))


def is_free_choice(net: PetriNet) -> bool:
    """Structural free-choice check.

    For every pair of transitions sharing an input place, the presets must
    coincide.  Not required by the paper's method but a useful structural
    diagnostic for benchmark STGs.
    """
    for place in net.places:
        consumers = list(net.place_postset(place))
        if len(consumers) <= 1:
            continue
        reference = net.preset(consumers[0])
        for transition in consumers[1:]:
            if net.preset(transition) != reference:
                return False
    return True


def has_source_and_sink_isolation(net: PetriNet) -> bool:
    """True iff every transition has at least one input and one output place.

    Transitions without inputs would be permanently enabled and make the
    reachability graph infinite; benchmark loaders use this as a sanity
    check after parsing.
    """
    for transition in net.transitions:
        if not net.preset(transition) or not net.postset(transition):
            return False
    return True
