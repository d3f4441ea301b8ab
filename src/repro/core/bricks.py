"""Bricks: the building material of insertion blocks (Section 5).

The paper's heuristic assembles candidate insertion blocks out of
"bricks" rather than individual states ("from bricks (regions) rather
than sand (states)").  The brick set consists of

1. the minimal pre- and post-regions of every event, and
2. all (non-empty) intersections of pre-regions of the same event and of
   post-regions of the same event,

which by Properties P1 and P3 are exactly the sets known to behave well
as insertion material.  Excitation regions are added as well: they are
the intersections of pre-regions in excitation-closed systems and the
only material coarser methods (the ASSASSIN baseline) can use.

The functions here work on object frozensets of states and are the
differential oracle (they run behind ``use_caches(False)``).  The search
itself keeps bricks as int bitmasks over the graph's
:class:`~repro.core.indexed.IndexedStateGraph` from generation to
ranking: the engine cache (:mod:`repro.engine.caches`) assembles them
per event (:func:`event_region_brick_masks` and the excitation-region
masks), and the canonical order and the adjacency have mask twins in
:mod:`repro.core.indexed` (``deduplicate_brick_masks``,
``brick_adjacency_bitsets``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set

from repro.core.excitation import excitation_regions
from repro.core.regions import (
    minimal_postregion_masks,
    minimal_postregions,
    minimal_preregion_masks,
    minimal_preregions,
)
from repro.ts.transition_system import TransitionSystem
from repro.utils.ordered import stable_sorted

State = Hashable
Brick = FrozenSet[State]


def _intersection_closure(regions: Sequence[Brick], max_per_event: int = 64) -> List[Brick]:
    """Close a family of sets under pairwise intersection.

    The number of pre/post-regions of an event "is usually small" (paper,
    Section 5), so the closure is tiny in practice; ``max_per_event``
    guards against pathological blow-up.
    """
    closure: List[Brick] = list(dict.fromkeys(regions))
    queue = list(closure)
    while queue and len(closure) < max_per_event:
        current = queue.pop()
        for other in list(closure):
            candidate = current & other
            if candidate and candidate not in closure:
                closure.append(candidate)
                queue.append(candidate)
                if len(closure) >= max_per_event:
                    break
    return closure


def event_region_bricks(
    ts: TransitionSystem, event, max_explored: int = 20000
) -> List[Brick]:
    """The region-derived bricks contributed by one event.

    Minimal pre- and post-regions of ``event`` together with their
    per-event intersection closures — the per-event unit of work of
    ``compute_bricks(mode="regions")``.
    """
    pre = minimal_preregions(ts, event, max_explored=max_explored)
    post = minimal_postregions(ts, event, max_explored=max_explored)
    return _intersection_closure(pre) + _intersection_closure(post)


def _intersection_closure_masks(masks: Sequence[int], max_per_event: int = 64) -> List[int]:
    """Twin of :func:`_intersection_closure` on bitmasks (one ``&`` per
    candidate intersection)."""
    closure: List[int] = list(dict.fromkeys(masks))
    seen = set(closure)
    queue = list(closure)
    while queue and len(closure) < max_per_event:
        current = queue.pop()
        for other in list(closure):
            candidate = current & other
            if candidate and candidate not in seen:
                closure.append(candidate)
                seen.add(candidate)
                queue.append(candidate)
                if len(closure) >= max_per_event:
                    break
    return closure


def event_region_brick_masks(
    isg, event, max_explored: int = 20000, memo: Optional[dict] = None
) -> List[int]:
    """Mask twin of :func:`event_region_bricks`.

    Pre/post-regions are expanded and closed under intersection entirely
    in bitmask space on the :class:`~repro.core.indexed.IndexedStateGraph`.
    The same sets, in the same order, as the object-space function.
    ``memo`` keeps each expansion per seed (see
    :func:`repro.core.regions.minimal_region_masks_containing`).
    """
    pre = minimal_preregion_masks(isg, event, max_explored, memo)
    post = minimal_postregion_masks(isg, event, max_explored, memo)
    return _intersection_closure_masks(pre) + _intersection_closure_masks(post)


def compute_bricks(
    ts: TransitionSystem,
    mode: str = "regions",
    max_explored: int = 20000,
) -> List[Brick]:
    """Compute the brick set of a transition system.

    ``mode`` selects the granularity of the search space:

    * ``"regions"`` — the paper's method: minimal pre/post-regions, their
      per-event intersections and the excitation regions.
    * ``"excitation"`` — excitation regions only (the granularity of the
      ASSASSIN-style baseline, Property P2 only).
    * ``"states"`` — every single state is a brick (the "sand" of
      state-level methods; used by the exhaustive baseline and by the
      ablation benchmark).
    """
    if mode == "states":
        bricks = [frozenset([state]) for state in ts.states]
        return _deduplicate(bricks)

    bricks: List[Brick] = []
    for event in stable_sorted(ts.events):
        for er in excitation_regions(ts, event):
            bricks.append(er)

    if mode == "excitation":
        return _deduplicate(bricks)
    if mode != "regions":
        raise ValueError(f"unknown brick mode: {mode!r}")

    for event in stable_sorted(ts.events):
        bricks.extend(event_region_bricks(ts, event, max_explored=max_explored))
    return _deduplicate(bricks)


def _deduplicate(bricks: Iterable[Brick]) -> List[Brick]:
    unique = list(dict.fromkeys(b for b in bricks if b))
    unique.sort(key=lambda b: (len(b), sorted(map(repr, b))))
    return unique


def brick_adjacency(
    ts: TransitionSystem, bricks: Sequence[Brick]
) -> Dict[int, Set[int]]:
    """Adjacency between bricks, by index into ``bricks``.

    Two bricks are adjacent when they overlap or when a transition of the
    TS connects a state of one to a state of the other; unions of adjacent
    bricks therefore stay weakly connected, which is what the Figure-4
    search wants while growing a block.
    """
    state_to_bricks: Dict[State, List[int]] = {}
    for index, brick in enumerate(bricks):
        for state in brick:
            state_to_bricks.setdefault(state, []).append(index)

    adjacency: Dict[int, Set[int]] = {index: set() for index in range(len(bricks))}

    # Overlap adjacency.
    for indices in state_to_bricks.values():
        for i in indices:
            for j in indices:
                if i != j:
                    adjacency[i].add(j)

    # Arc adjacency.
    for source, _event, target in ts.transitions():
        for i in state_to_bricks.get(source, ()):
            for j in state_to_bricks.get(target, ()):
                if i != j:
                    adjacency[i].add(j)
                    adjacency[j].add(i)
    return adjacency

