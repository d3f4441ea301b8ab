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

Bricks are int bitmasks over the graph's
:class:`~repro.core.indexed.IndexedStateGraph` from generation to
ranking: the engine cache (:mod:`repro.engine.caches`) assembles them
per event (:func:`event_region_brick_masks` and the excitation-region
masks) with the ``states`` brick mode as the state-grain baseline, and
:mod:`repro.core.indexed` puts them in canonical order and derives their
adjacency (``deduplicate_brick_masks``, ``brick_adjacency_bitsets``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.regions import minimal_postregion_masks, minimal_preregion_masks


def _intersection_closure_masks(masks: Sequence[int], max_per_event: int = 64) -> List[int]:
    """Close a family of region masks under pairwise intersection (one
    ``&`` per candidate intersection).

    The number of pre/post-regions of an event "is usually small" (paper,
    Section 5), so the closure is tiny in practice; ``max_per_event``
    guards against pathological blow-up.
    """
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
    """The region-derived bricks contributed by one event.

    Minimal pre- and post-regions of ``event`` together with their
    per-event intersection closures, expanded and closed under
    intersection in bitmask space on the
    :class:`~repro.core.indexed.IndexedStateGraph`.
    ``memo`` keeps each expansion per seed (see
    :func:`repro.core.regions.minimal_region_masks_containing`).
    """
    pre = minimal_preregion_masks(isg, event, max_explored, memo)
    post = minimal_postregion_masks(isg, event, max_explored, memo)
    return _intersection_closure_masks(pre) + _intersection_closure_masks(post)
