"""Explicit reachability analysis of Petri nets.

The reachability graph (RG) of a net is the transition system whose states
are reachable markings and whose arcs are transition firings
(Section 2.1).  For the very large state spaces of Table 1 the symbolic
tier (:mod:`repro.symbolic`) should be used instead; this explicit
builder is the workhorse for CSC solving, which needs the states anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.petri.net import Marking, PetriNet
from repro.ts.transition_system import TransitionSystem
from repro.utils.deadline import check_deadline


class StateSpaceLimitExceeded(RuntimeError):
    """Raised when reachability exploration exceeds the requested bound."""


@dataclass
class ReachabilityResult:
    """Outcome of an explicit reachability exploration."""

    graph: TransitionSystem
    num_markings: int
    safe: bool
    deadlocks: List[Marking] = field(default_factory=list)


def build_reachability_graph(
    net: PetriNet,
    max_markings: Optional[int] = None,
    label: Optional[Callable[[Hashable], Hashable]] = None,
) -> ReachabilityResult:
    """Explore all markings reachable from the initial marking of ``net``.

    Parameters
    ----------
    net:
        The Petri net to explore.
    max_markings:
        Abort with :class:`StateSpaceLimitExceeded` when more markings than
        this are discovered.  ``None`` means unlimited.
    label:
        Optional relabelling applied to transition names before they are
        used as transition-system events (STGs map transition names to
        signal edges this way).
    """
    graph = TransitionSystem(name=f"rg({net.name})")
    initial = net.initial_marking
    graph.set_initial(initial)

    visited: Dict[Marking, None] = {initial: None}
    frontier = deque([initial])
    safe = initial.is_safe()
    deadlocks: List[Marking] = []

    while frontier:
        check_deadline()  # per-job wall-clock bound (repro.utils.deadline)
        marking = frontier.popleft()
        enabled = net.enabled_transitions(marking)
        if not enabled:
            deadlocks.append(marking)
        for transition in enabled:
            successor = net.fire(marking, transition)
            if not successor.is_safe():
                safe = False
            event = label(transition) if label is not None else transition
            graph.add_transition(marking, event, successor)
            if successor not in visited:
                visited[successor] = None
                if max_markings is not None and len(visited) > max_markings:
                    raise StateSpaceLimitExceeded(
                        f"more than {max_markings} reachable markings in {net.name}"
                    )
                frontier.append(successor)

    return ReachabilityResult(
        graph=graph,
        num_markings=len(visited),
        safe=safe,
        deadlocks=deadlocks,
    )
