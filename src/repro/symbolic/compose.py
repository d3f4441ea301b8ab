"""The symbolic census and CSC check, composed over disjoint components.

Components of an STG (:func:`repro.stg.stg.net_components`) share no
place, transition or signal, so under interleaving semantics the
reachable states of the whole STG are exactly the tuples of reachable
component states, and a state's code is the concatenation of its
components' codes.  Two product states therefore have one code only if
every pair of component states does, and a non-input signal's
excitation depends on its own component alone.  Every count the
detector reports follows from per-component counts in closed form.
With ``nᵢ`` states, ``uᵢ`` USC pairs, ``kᵢ`` CSC pairs and ``cᵢ``
conflict states in component ``i``:

* ``nᵢ + 2uᵢ`` ordered pairs of component states share a code (the
  diagonal included), and ``nᵢ + 2uᵢ − 2kᵢ`` of them also share the
  non-input excitation;
* ``states = Π nᵢ``;
* ``usc = (Π(nᵢ+2uᵢ) − Π nᵢ) / 2`` — same-code pairs minus the diagonal;
* ``csc = (Π(nᵢ+2uᵢ) − Π(nᵢ+2uᵢ−2kᵢ)) / 2`` — same-code pairs minus
  those whose excitation agrees in every component;
* ``conflict_states = Π nᵢ − Π(nᵢ−cᵢ)`` — a state is in a conflict iff
  one of its component states is.

:class:`ComposedStateGraph` builds one
:class:`~repro.symbolic.stategraph.SymbolicStateGraph` per component
and combines their censuses and reports this way.  Combining one
component is the identity: a connected STG gets the very census and
report objects of its one symbolic graph.  A composed report keeps the
per-component reports in ``parts`` instead of a conflict relation.
"""

from __future__ import annotations

import time
from itertools import product
from math import prod
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.stg.stg import STG, net_components
from repro.symbolic.csc import (
    SymbolicConflictReport,
    detect_csc_conflicts,
    ensure_core,
)
from repro.symbolic.stategraph import SymbolicCensus, SymbolicStateGraph

__all__ = ["ComposedStateGraph"]

#: One component state as witnesses carry it: (sorted marked places, code).
_State = Tuple[Tuple[str, ...], str]


class ComposedStateGraph:
    """One :class:`SymbolicStateGraph` per connected component of ``stg``."""

    def __init__(self, stg: STG, reorder: bool = False) -> None:
        self.stg = stg
        self.parts = [
            SymbolicStateGraph(part, reorder=reorder) for part in net_components(stg)
        ]

    def census(self) -> SymbolicCensus:
        """The census of the whole STG, from one census per component."""
        censuses = [part.census() for part in self.parts]
        if len(censuses) == 1:
            return censuses[0]
        stats = self.stg.stats()
        return SymbolicCensus(
            name=self.stg.name,
            states=prod(census.states for census in censuses),
            places=stats["places"],
            transitions=stats["transitions"],
            signals=stats["signals"],
            iterations=max(census.iterations for census in censuses),
            bdd_nodes=sum(census.bdd_nodes for census in censuses),
            reached_nodes=sum(census.reached_nodes for census in censuses),
            seconds=sum(census.seconds for census in censuses),
            cache=_sum_caches([census.cache for census in censuses]),
            parts=censuses,
        )

    def detect(self, witness_limit: int = 4) -> SymbolicConflictReport:
        """CSC conflicts of the whole STG, from one detection per component."""
        started = time.perf_counter()
        reports = [
            detect_csc_conflicts(part, witness_limit=witness_limit) for part in self.parts
        ]
        if len(reports) == 1:
            return reports[0]
        states = prod(report.states for report in reports)
        same_code = prod(report.states + 2 * report.usc_pairs for report in reports)
        same_excitation = prod(
            report.states + 2 * report.usc_pairs - 2 * report.csc_pairs
            for report in reports
        )
        return SymbolicConflictReport(
            name=self.stg.name,
            states=states,
            usc_pairs=(same_code - states) // 2,
            csc_pairs=(same_code - same_excitation) // 2,
            csc_holds=all(report.csc_holds for report in reports),
            conflict_state_count=states
            - prod(report.states - report.conflict_state_count for report in reports),
            witnesses=self._witnesses(reports, witness_limit),
            seconds=time.perf_counter() - started,
            conflict_states=None,
            relation=None,
            parts=reports,
        )

    def ensure_core(self, report: SymbolicConflictReport) -> None:
        """Fill ``report.core_states`` (see :func:`repro.symbolic.csc.ensure_core`)."""
        for part, part_report in zip(self.parts, report.parts or [report]):
            ensure_core(part, part_report)
        if report.parts:
            report.core_states = 0 if report.csc_holds else report.states

    def infer_initial_values(self) -> Dict[str, int]:
        """Initial signal values, in the STG's signal order."""
        values: Dict[str, int] = {}
        for part in self.parts:
            values.update(part.infer_initial_values())
        return {signal: values[signal] for signal in self.stg.signals}

    # ------------------------------------------------------------------
    # witnesses
    # ------------------------------------------------------------------
    def _witnesses(
        self, reports: Sequence[SymbolicConflictReport], limit: int
    ) -> List[Dict[str, object]]:
        """Up to ``limit`` distinct conflict pairs of the whole STG.

        Each component's own witnesses come first, in component order,
        with every other component at its initial state.  If that falls
        short of ``limit``, the other components run through further
        same-code state pairs (each side gets its own state), which
        fills the quota whenever the STG has that many conflicts.
        """
        seen = set()
        witnesses: List[Dict[str, object]] = []
        for first, second in self._candidate_pairs(reports, limit):
            key = frozenset((first, second))
            if key in seen:
                continue  # a pair conflicting in two components
            seen.add(key)
            witnesses.append(
                {
                    "code": self._code(first),
                    "first_marking": sorted(p for state in first for p in state[0]),
                    "second_marking": sorted(p for state in second for p in state[0]),
                }
            )
            if len(witnesses) == limit:
                break
        return witnesses

    def _candidate_pairs(
        self, reports: Sequence[SymbolicConflictReport], limit: int
    ) -> Iterator[Tuple[Tuple[_State, ...], Tuple[_State, ...]]]:
        if limit <= 0:
            return
        own = [
            [
                ((tuple(w["first_marking"]), w["code"]), (tuple(w["second_marking"]), w["code"]))
                for w in report.witnesses
            ]
            for report in reports
        ]

        def spliced(contexts):
            # each component's own pairs, the others' states from contexts
            for index, pairs in enumerate(own):
                others = contexts[:index] + contexts[index + 1 :]
                for first, second in pairs:
                    for context in product(*others):
                        left = [a for a, _ in context]
                        right = [b for _, b in context]
                        yield (
                            tuple(left[:index]) + (first,) + tuple(left[index:]),
                            tuple(right[:index]) + (second,) + tuple(right[index:]),
                        )

        yield from spliced([[(state, state)] for state in map(_initial_state, self.parts)])
        yield from spliced([_same_code_pairs(part, limit) for part in self.parts])

    def _code(self, states: Tuple[_State, ...]) -> str:
        bits: Dict[str, str] = {}
        for part, (_marking, code) in zip(self.parts, states):
            bits.update(zip(part.signals, code))
        return "".join(bits[signal] for signal in self.stg.signals)


def _state_key(marking, code: Sequence[int]) -> _State:
    return (
        tuple(sorted(str(place) for place in marking.places())),
        "".join(str(bit) for bit in code),
    )


def _initial_state(part: SymbolicStateGraph) -> _State:
    values = part.infer_initial_values()
    return _state_key(part.stg.initial_marking, [values[s] for s in part.signals])


def _same_code_pairs(part: SymbolicStateGraph, limit: int) -> List[Tuple[_State, _State]]:
    """Ordered same-code pairs over ``min(states, limit)`` states of
    ``part``, the initial state's diagonal pair first.  With all of the
    component's states that is every same-code pair; otherwise it still
    holds ``limit`` diagonal pairs."""
    initial = _initial_state(part)
    states = [initial]
    for marking, code in part.states_of(part.explore(), limit):
        state = _state_key(marking, code)
        if state != initial and len(states) < limit:
            states.append(state)
    return [(a, b) for a in states for b in states if a[1] == b[1]]


def _sum_caches(caches: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The apply-cache statistics of several managers, added up."""
    total: Dict[str, object] = dict(caches[0])
    for key, value in total.items():
        if isinstance(value, int) and key != "max_cache_entries":
            total[key] = sum(cache[key] for cache in caches)
    lookups = total["hits"] + total["misses"]
    total["hit_rate"] = round(total["hits"] / lookups, 4) if lookups else 0.0
    total["families"] = {
        name: {
            field: sum(cache["families"][name][field] for cache in caches)
            for field in counts
        }
        for name, counts in caches[0]["families"].items()
    }
    return total
