"""Regions of a transition system (Section 2.2 of the paper).

A *region* is a set of states ``r`` such that all transitions labelled
with the same event have the same crossing relation with ``r``: they all
enter it, they all exit it, or none of them crosses it.  Regions are the
transition-system counterpart of Petri-net places, and — this is the key
insight the paper builds on — they (and intersections of pre-regions) are
speed-independence-preserving insertion sets.

Minimal pre- and post-regions of every event are computed with the
*expansion* algorithm: start from the set of states every pre-region of
the event must contain (the sources of the event's transitions), and
repeatedly repair crossing violations by adding states, branching when two
different repairs are possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set

from repro.ts.transition_system import TransitionSystem
from repro.utils.deadline import poll_deadline
from repro.utils.ordered import stable_sorted

State = Hashable
Event = Hashable
Region = FrozenSet[State]


@dataclass(frozen=True)
class Crossing:
    """How the transitions of one event relate to a set of states."""

    enter: int
    exit: int
    inside: int
    outside: int

    @property
    def is_legal(self) -> bool:
        """True iff the event does not violate the region condition."""
        if self.enter and (self.exit or self.inside or self.outside):
            return False
        if self.exit and (self.enter or self.inside or self.outside):
            return False
        return True

    @property
    def enters(self) -> bool:
        return self.enter > 0 and self.is_legal

    @property
    def exits(self) -> bool:
        return self.exit > 0 and self.is_legal

    @property
    def does_not_cross(self) -> bool:
        return self.enter == 0 and self.exit == 0


def crossing(ts: TransitionSystem, subset: Iterable[State], event: Event) -> Crossing:
    """Crossing relation of ``event`` with respect to ``subset``."""
    inside_set = subset if isinstance(subset, (set, frozenset)) else set(subset)
    enter = exit_ = inside = outside = 0
    for source, target in ts.transitions_of(event):
        source_in = source in inside_set
        target_in = target in inside_set
        if source_in and target_in:
            inside += 1
        elif source_in and not target_in:
            exit_ += 1
        elif not source_in and target_in:
            enter += 1
        else:
            outside += 1
    return Crossing(enter=enter, exit=exit_, inside=inside, outside=outside)


def is_region(ts: TransitionSystem, subset: Iterable[State]) -> bool:
    """True iff ``subset`` is a region of ``ts``.

    The empty set and the full state set are (trivial) regions.
    """
    subset_set = set(subset)
    for event in ts.events:
        if not crossing(ts, subset_set, event).is_legal:
            return False
    return True


def is_trivial_region(ts: TransitionSystem, subset: Iterable[State]) -> bool:
    """True iff ``subset`` is the empty set or the whole state set."""
    subset_set = set(subset)
    return not subset_set or len(subset_set) == ts.num_states


# ----------------------------------------------------------------------
# expansion towards minimal regions
# ----------------------------------------------------------------------
class RegionSearchBudgetExceeded(RuntimeError):
    """Raised when the expansion search explores more sets than allowed."""


def _expansion_choices(
    ts: TransitionSystem, current: Set[State], event: Event
) -> Optional[List[Set[State]]]:
    """Repair options for one violating event, or ``None`` if it is legal.

    Because expansion only ever *adds* states, the legal configurations an
    event can still reach are limited:

    * "no crossing" is always reachable: add the sources of entering
      transitions and the targets of exiting transitions;
    * "all transitions enter" is reachable only while the event has no
      inside and no exiting transitions: add the targets of the
      transitions that currently lie fully outside.

    ("all transitions exit" cannot be *reached* by growing the set, because
    an outside transition can never become exiting.)
    """
    enter_sources: Set[State] = set()
    exit_targets: Set[State] = set()
    outside_targets: Set[State] = set()
    has_inside = False
    has_exit = False
    has_enter = False
    has_outside = False

    for source, target in ts.transitions_of(event):
        source_in = source in current
        target_in = target in current
        if source_in and target_in:
            has_inside = True
        elif source_in:
            has_exit = True
            exit_targets.add(target)
        elif target_in:
            has_enter = True
            enter_sources.add(source)
        else:
            has_outside = True
            outside_targets.add(target)

    legal = not (
        (has_enter and (has_exit or has_inside or has_outside))
        or (has_exit and (has_enter or has_inside or has_outside))
    )
    if legal:
        return None

    choices: List[Set[State]] = []
    # Option A: make the event non-crossing.
    choices.append(enter_sources | exit_targets)
    # Option B: make every transition of the event enter the set.
    if has_enter and not has_inside and not has_exit:
        choices.append(outside_targets)
    return choices


def minimal_regions_containing(
    ts: TransitionSystem,
    seed: Iterable[State],
    max_explored: int = 20000,
) -> List[Region]:
    """All minimal regions of ``ts`` that contain ``seed``.

    Performs the branching expansion described in the module docstring.
    ``max_explored`` bounds the number of candidate sets examined; the
    bound is generous (region counts of STG state graphs are small) and
    exceeding it raises :class:`RegionSearchBudgetExceeded`.
    """
    all_states = set(ts.states)
    seed_set = frozenset(seed)
    if not seed_set:
        return []

    events = list(ts.events)
    found: List[Region] = []
    visited: Set[Region] = set()
    stack: List[FrozenSet[State]] = [seed_set]
    explored = 0

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
        if len(current) == len(all_states):
            found.append(frozenset(all_states))
            continue

        current_set = set(current)
        choices: Optional[List[Set[State]]] = None
        for event in events:
            choices = _expansion_choices(ts, current_set, event)
            if choices is not None:
                break
        if choices is None:
            found.append(current)
            continue
        for addition in choices:
            expanded = frozenset(current_set | addition)
            if expanded not in visited:
                stack.append(expanded)

    return _keep_minimal(found)


def _keep_minimal(regions: Iterable[Region]) -> List[Region]:
    """Drop regions that strictly contain another region in the collection."""
    unique = list(dict.fromkeys(regions))
    unique.sort(key=len)
    minimal: List[Region] = []
    for candidate in unique:
        if not any(kept < candidate for kept in minimal):
            minimal.append(candidate)
    return minimal


def minimal_preregions(
    ts: TransitionSystem, event: Event, max_explored: int = 20000
) -> List[Region]:
    """Minimal pre-regions of ``event``.

    Every pre-region of ``event`` must contain all source states of its
    transitions (the region condition forces *all* of them to exit), so
    the expansion is seeded with exactly that set; candidates from which
    the event does not exit any more (it was forced to become non-crossing
    during expansion) are regions but not pre-regions and are discarded.
    """
    sources = {source for source, _target in ts.transitions_of(event)}
    candidates = minimal_regions_containing(ts, sources, max_explored=max_explored)
    return [r for r in candidates if crossing(ts, r, event).exits]


def minimal_postregions(
    ts: TransitionSystem, event: Event, max_explored: int = 20000
) -> List[Region]:
    """Minimal post-regions of ``event`` (regions the event enters)."""
    targets = {target for _source, target in ts.transitions_of(event)}
    candidates = minimal_regions_containing(ts, targets, max_explored=max_explored)
    return [r for r in candidates if crossing(ts, r, event).enters]


# ----------------------------------------------------------------------
# indexed (bitmask) expansion
# ----------------------------------------------------------------------
#
# Twin of the expansion above on an
# :class:`~repro.core.indexed.IndexedStateGraph`: candidate sets are int
# bitmasks, membership tests are single-bit ANDs, repair additions are
# bitmask unions.  The branching order is identical to the object-space
# search (same event order, same stack discipline, same minimisation), so
# the produced region lists are byte-identical.

def _expansion_choices_mask(
    arc_bits: List[tuple], current: int
) -> Optional[List[int]]:
    """Repair-addition masks for one violating event, or ``None`` if legal
    (twin of :func:`_expansion_choices`)."""
    enter_sources = 0
    exit_targets = 0
    outside_targets = 0
    has_inside = has_exit = has_enter = has_outside = False

    for source_bit, target_bit in arc_bits:
        if current & source_bit:
            if current & target_bit:
                has_inside = True
            else:
                has_exit = True
                exit_targets |= target_bit
        elif current & target_bit:
            has_enter = True
            enter_sources |= source_bit
        else:
            has_outside = True
            outside_targets |= target_bit

    legal = not (
        (has_enter and (has_exit or has_inside or has_outside))
        or (has_exit and (has_enter or has_inside or has_outside))
    )
    if legal:
        return None

    choices = [enter_sources | exit_targets]
    if has_enter and not has_inside and not has_exit:
        choices.append(outside_targets)
    return choices


def minimal_region_masks_containing(
    isg, seed_mask: int, max_explored: int = 20000, memo: Optional[dict] = None
) -> List[int]:
    """All minimal regions containing ``seed_mask``, as bitmasks (twin of
    :func:`minimal_regions_containing`).

    An event whose sources and targets the candidate set each holds all
    or none of is legal without looking at its arcs: every arc is then
    inside, outside, entering or exiting alike (one test on the union of
    both settles the common case of all or none of its endpoints).  An
    event whose arc sources and arc targets read the same digits, arc by
    arc, in the candidate set's binary string is legal too: no arc
    crosses the set.  Only the other events go through the per-arc test.
    The candidate sets visited and the events that needed the per-arc
    test are added to :data:`repro.engine.caches.STATS`.

    ``memo`` (the graph's ``SGCache.regions``) keeps each result under
    ``(seed_mask, max_explored)``: one seed is often both the switching
    region of one event and the excitation region of the next, and is
    then expanded once.  A seed over the budget is not kept, so it raises
    again.  The returned list is shared; callers must not mutate it.
    """
    # Deferred: repro.engine.caches imports this module (through
    # repro.core.bricks) at load time.
    from repro.engine.caches import STATS

    if not seed_mask:
        return []
    if memo is not None:
        found = memo.get((seed_mask, max_explored))
        if found is not None:
            STATS.region_memo_hits += 1
            return found
        found = minimal_region_masks_containing(isg, seed_mask, max_explored)
        memo[(seed_mask, max_explored)] = found
        return found
    full_mask = isg.full_mask
    event_table = isg.arc_bits_by_event
    digits_format = f"0{isg.num_states}b"

    found: List[int] = []
    visited: Set[int] = set()
    stack: List[int] = [seed_mask]
    explored = 0
    arc_scans = 0

    try:
        while stack:
            poll_deadline()
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

            choices: Optional[List[int]] = None
            digits = None
            for endpoints, sources, targets, arc_bits, source_digits, target_digits in event_table:
                held = current & endpoints
                if not held or held == endpoints:
                    continue
                held = current & sources
                if not held or held == sources:
                    held = current & targets
                    if not held or held == targets:
                        continue
                if digits is None:
                    digits = format(current, digits_format)
                if source_digits(digits) == target_digits(digits):
                    continue
                arc_scans += 1
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
    finally:
        STATS.region_explored += explored
        STATS.region_arc_scans += arc_scans

    return _keep_minimal_masks(found)


def _keep_minimal_masks(masks: List[int]) -> List[int]:
    """Twin of :func:`_keep_minimal` on bitmasks (subset test is ``&``)."""
    unique = list(dict.fromkeys(masks))
    unique.sort(key=lambda m: m.bit_count())
    minimal: List[int] = []
    for candidate in unique:
        if not any(kept != candidate and kept & candidate == kept for kept in minimal):
            minimal.append(candidate)
    return minimal


def _event_crossing_flags(arc_bits: List[tuple], mask: int) -> tuple:
    """``(enters, exits)`` of an event w.r.t. ``mask`` (legality included,
    matching :class:`Crossing`.enters / ``.exits``)."""
    has_inside = has_exit = has_enter = has_outside = False
    for source_bit, target_bit in arc_bits:
        if mask & source_bit:
            if mask & target_bit:
                has_inside = True
            else:
                has_exit = True
        elif mask & target_bit:
            has_enter = True
        else:
            has_outside = True
    legal = not (
        (has_enter and (has_exit or has_inside or has_outside))
        or (has_exit and (has_enter or has_inside or has_outside))
    )
    return (has_enter and legal, has_exit and legal)


def minimal_preregion_masks(
    isg, event: Event, max_explored: int = 20000, memo: Optional[dict] = None
) -> List[int]:
    """Minimal pre-regions of ``event`` as bitmasks (twin of
    :func:`minimal_preregions`; ``memo`` as in
    :func:`minimal_region_masks_containing`)."""
    arc_bits = isg.event_arc_bits(event)
    candidates = minimal_region_masks_containing(isg, isg.er_mask(event), max_explored, memo)
    return [m for m in candidates if _event_crossing_flags(arc_bits, m)[1]]


def minimal_postregion_masks(
    isg, event: Event, max_explored: int = 20000, memo: Optional[dict] = None
) -> List[int]:
    """Minimal post-regions of ``event`` as bitmasks (twin of
    :func:`minimal_postregions`; ``memo`` as in
    :func:`minimal_region_masks_containing`)."""
    arc_bits = isg.event_arc_bits(event)
    candidates = minimal_region_masks_containing(isg, isg.sr_mask(event), max_explored, memo)
    return [m for m in candidates if _event_crossing_flags(arc_bits, m)[0]]


def all_minimal_regions(
    ts: TransitionSystem, max_explored: int = 20000
) -> List[Region]:
    """Minimal pre/post-regions of every event, globally minimised.

    For a connected transition system every non-trivial region is a pre-
    or post-region of some event, so this collection contains every
    globally minimal region.
    """
    collected: List[Region] = []
    for event in ts.events:
        collected.extend(minimal_preregions(ts, event, max_explored=max_explored))
        collected.extend(minimal_postregions(ts, event, max_explored=max_explored))
    return _keep_minimal(collected)


def preregions_by_event(
    ts: TransitionSystem, max_explored: int = 20000
) -> Dict[Event, List[Region]]:
    """Minimal pre-regions indexed by event (the ``°e`` sets of the paper)."""
    return {
        event: minimal_preregions(ts, event, max_explored=max_explored)
        for event in stable_sorted(ts.events)
    }

