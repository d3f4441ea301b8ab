"""Unique and Complete State Coding analysis (Section 4).

A consistent state graph satisfies *Unique State Coding* (USC) when no two
distinct states share a binary code, and *Complete State Coding* (CSC)
when any two states sharing a code enable exactly the same set of
non-input signal transitions.  CSC is necessary and sufficient for the
existence of a logic implementation, and detecting the conflicting pairs
is the starting point of the encoding algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.engine import caches as engine_caches
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import StateGraph
from repro.utils.deadline import poll_deadline
from repro.utils.ordered import stable_sorted

State = Hashable
Code = Tuple[int, ...]


@dataclass(frozen=True)
class CSCConflict:
    """A pair of states with equal codes but different non-input behaviour."""

    first: State
    second: State
    code: Code

    def pair(self) -> Tuple[State, State]:
        return (self.first, self.second)


def _states_by_code(sg: StateGraph) -> Dict[Code, List[State]]:
    groups: Dict[Code, List[State]] = {}
    for state in sg.states:
        groups.setdefault(sg.code(state), []).append(state)
    return groups


def _indexed_module():
    """Deferred import: :mod:`repro.core.indexed` imports the cost model,
    which imports this module."""
    from repro.core import indexed

    return indexed


def _states_by_code_indexed(sg: StateGraph, isg) -> Dict[Code, List[State]]:
    """Twin of :func:`_states_by_code` bucketed on packed int codes.

    Hashing one machine int per state instead of one value tuple; the
    result is re-keyed by the tuple codes (bijective with the packed
    ones, in identical first-seen order) to keep the public shape.
    """
    states = isg.states
    code_of = sg.code
    groups: Dict[Code, List[State]] = {}
    for _packed, members in isg.code_groups_idx().items():
        first = states[members[0]]
        groups[code_of(first)] = [states[i] for i in members]
    return groups


def code_groups(sg: StateGraph) -> Dict[Code, List[State]]:
    """States grouped by binary code (cached per state graph).

    The grouping runs on the packed integer codes of the graph's
    :class:`~repro.core.indexed.IndexedStateGraph`."""
    cache = engine_caches.get_cache(sg)
    if cache.code_groups is None:
        indexed = _indexed_module()
        cache.code_groups = _states_by_code_indexed(sg, indexed.indexed_state_graph(sg))
    return cache.code_groups


def usc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """All pairs of distinct states that share a binary code."""
    pairs: List[Tuple[State, State]] = []
    for _code, states in code_groups(sg).items():
        if len(states) < 2:
            continue
        ordered = stable_sorted(states)
        for i, first in enumerate(ordered):
            for second in ordered[i + 1 :]:
                pairs.append((first, second))
    return pairs


def _noninput_signature(sg: StateGraph, state: State) -> FrozenSet[SignalEdge]:
    return frozenset(sg.enabled_noninput_edges(state))


def _csc_conflicts_incremental_indexed(
    sg: StateGraph, isg, parent_isg
) -> List[CSCConflict]:
    """CSC conflicts of a graph obtained from its parent by one insertion.

    Every state of ``sg`` is a pair ``(parent_state, v)`` whose code is
    the parent code extended with ``v``, so two states of ``sg`` can only
    share a code when their parent states shared one.  It is therefore
    enough to re-examine the descendants of the parent's code-sharing
    groups — enabled-signal signatures do change near the insertion
    borders, so those are recomputed on ``sg``, but states descending
    from uniquely-coded parents are skipped entirely.

    A derived :class:`~repro.core.indexed.IndexedStateGraph` records each
    state's parent index, so the candidate filter is an integer set
    lookup (no re-hashing of nested state tuples) and the grouping
    buckets by the child's packed codes.  Group order and member order
    follow the child's state order, so the list equals the one computed
    over the whole graph.
    """
    candidates = parent_isg.shared_code_indices()
    groups: Dict[int, List[int]] = {}
    if candidates:
        codes = isg.codes
        for i, parent_index in enumerate(isg.parent_positions):
            if parent_index in candidates:
                groups.setdefault(codes[i], []).append(i)
    return _conflicts_of_index_groups(sg, isg, groups)


def _conflicts_of_index_groups(
    sg: StateGraph, isg, groups: Dict[int, List[int]]
) -> List[CSCConflict]:
    """The conflict pairs within each code-sharing group, with
    enabled-signal signatures memoized on the indexed graph."""
    conflicts: List[CSCConflict] = []
    states = isg.states
    position = isg.position
    code_of = sg.code
    for members in groups.values():
        poll_deadline()
        if len(members) < 2:
            continue
        ordered = stable_sorted(states[i] for i in members)
        code = code_of(ordered[0])
        signatures = {
            state: isg.noninput_signature(position[state]) for state in ordered
        }
        for i, first in enumerate(ordered):
            for second in ordered[i + 1 :]:
                if signatures[first] != signatures[second]:
                    conflicts.append(CSCConflict(first, second, code))
    return conflicts


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs of the state graph.

    Two states conflict when they have the same code and enable different
    sets of non-input signal transitions (the pair ``(1*1, 1*1*)`` of
    Figure 3, for instance, where ``b`` is enabled in one state only).

    The result is memoized per graph, and graphs produced by
    :func:`repro.core.insertion.insert_signal` are re-analysed
    incrementally from their parent's code groups instead of recomputing
    the full conflict relation.  Callers must treat the returned list as
    read-only.
    """
    cache = engine_caches.get_cache(sg)
    if cache.conflicts is not None:
        return cache.conflicts
    indexed = _indexed_module()
    isg = indexed.indexed_state_graph(sg)
    parent_isg = isg.parent_index()
    if parent_isg is not None and isg.parent_positions is not None:
        conflicts = _csc_conflicts_incremental_indexed(sg, isg, parent_isg)
    else:
        conflicts = _conflicts_of_index_groups(sg, isg, isg.code_groups_idx())
    cache.conflicts = conflicts
    return conflicts


def has_usc(sg: StateGraph) -> bool:
    """True iff every reachable state has a unique binary code."""
    return all(len(states) == 1 for states in _states_by_code(sg).values())


def has_csc(sg: StateGraph) -> bool:
    """True iff the state graph satisfies Complete State Coding."""
    for states in _states_by_code(sg).values():
        if len(states) < 2:
            continue
        signatures = {_noninput_signature_from_list(sg, state) for state in states}
        if len(signatures) > 1:
            return False
    return True


def _noninput_signature_from_list(sg: StateGraph, state: State) -> FrozenSet[SignalEdge]:
    return _noninput_signature(sg, state)


def conflicting_signals(sg: StateGraph, first: State, second: State) -> Set[str]:
    """Non-input signals whose next value differs between two states.

    These are exactly the signals whose next-state function would be
    ill-defined if the two states keep the same code.
    """
    result: Set[str] = set()
    for signal in sg.non_input_signals:
        if sg.next_value(first, signal) != sg.next_value(second, signal):
            result.add(signal)
    return result


def csc_summary(sg: StateGraph) -> Dict[str, int]:
    """Aggregate CSC statistics used by the CLI and the benchmark tables."""
    conflicts = csc_conflicts(sg)
    states_in_conflict: Set[State] = set()
    for conflict in conflicts:
        states_in_conflict.add(conflict.first)
        states_in_conflict.add(conflict.second)
    return {
        "states": sg.num_states,
        "usc_pairs": len(usc_conflicts(sg)),
        "csc_pairs": len(conflicts),
        "states_in_conflict": len(states_in_conflict),
    }
