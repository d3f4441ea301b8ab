"""Output checks that do not reuse the solver's own analysis code.

Each checker raises :class:`CheckFailed` with a one-line reason.  They are
deliberately naive: the CSC check compares codes state by state instead of
reusing ``repro.core.csc``, and the census check compares against closed
forms derived from the generators' structure, not against another engine.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping


class CheckFailed(AssertionError):
    """An output failed an independent check."""


# Closed forms of the reachable-state counts of the Table-1 families.
CENSUS_CLOSED_FORMS = {
    "par": lambda n: 2 ** (n + 1) + 2,
    "pipe": lambda n: 6 ** n,
    "pipeline": lambda n: 6 * 5 ** (n - 1),
}


def check_census(family: str, size: int, states: int) -> None:
    """The census of ``family(size)`` equals its closed form."""
    expected = CENSUS_CLOSED_FORMS[family](size)
    if states != expected:
        raise CheckFailed(f"census {family}{size}: {states} states, closed form gives {expected}")


def _is_input(sg, signal: str) -> bool:
    return sg.signal_types[signal].value == "input"


def check_consistent(sg) -> None:
    """Every arc flips exactly its own signal's bit, in its own direction."""
    position = {signal: index for index, signal in enumerate(sg.signals)}
    for source, edge, target in sg.ts.transitions():
        before = sg.encoding[source]
        after = sg.encoding[target]
        index = position[edge.signal]
        expected = list(before)
        expected[index] = edge.value_after()
        if before[index] != edge.value_before() or list(after) != expected:
            raise CheckFailed(f"{sg.name}: arc {edge} from {before} to {after} is inconsistent")


def csc_pair_count(sg) -> int:
    """Unordered state pairs with one code but different enabled non-input events."""
    by_code: Dict[tuple, List[frozenset]] = {}
    for state in sg.ts.states:
        enabled = frozenset(
            edge for edge in sg.ts.enabled_events(state) if not _is_input(sg, edge.signal)
        )
        by_code.setdefault(tuple(sg.encoding[state]), []).append(enabled)
    pairs = 0
    for group in by_code.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[i] != group[j]:
                    pairs += 1
    return pairs


def check_final_graph(result, reported_conflicts: int) -> None:
    """A solver result against its initial graph.

    The initial graph has the CSC pair count the program reported, the
    final graph is consistent, its CSC verdict and remaining pair count
    agree with the result, and it is trace equivalent to the initial graph
    once the inserted signals are hidden.
    """
    from repro.ts.equivalence import language_equivalent

    initial_sg, final = result.initial_sg, result.final_sg
    initial_pairs = csc_pair_count(initial_sg)
    if initial_pairs != reported_conflicts:
        raise CheckFailed(
            f"{final.name}: initial graph has {initial_pairs} CSC pairs, "
            f"the program reported {reported_conflicts}"
        )
    check_consistent(final)
    pairs = csc_pair_count(final)
    if (pairs == 0) != bool(result.solved) or pairs != result.conflicts_remaining:
        raise CheckFailed(
            f"{final.name}: {pairs} CSC pairs found, result says solved={result.solved} "
            f"with {result.conflicts_remaining} remaining"
        )
    inserted = set(result.inserted_signals)
    hidden = [event for event in final.ts.events if event.signal in inserted]
    if not language_equivalent(initial_sg.ts, final.ts, hidden=hidden):
        raise CheckFailed(f"{final.name}: not trace equivalent to the initial graph")


def check_synth(synth_result) -> None:
    """The netlist passed gate-level verification."""
    if not synth_result.verified:
        raise CheckFailed(f"{synth_result.name}: netlist not verified")


def check_service_summary(summary: Mapping[str, object], name: str) -> None:
    """A service result is internally coherent and answers the request sent."""
    if summary.get("name") != name:
        raise CheckFailed(f"result for {summary.get('name')!r} answers request {name!r}")
    insertions = summary.get("insertions") or []
    if summary.get("inserted") != len(insertions):
        raise CheckFailed(f"{name}: inserted={summary.get('inserted')} but {len(insertions)} records")
    if bool(summary.get("solved")) != (summary.get("conflicts_remaining") == 0):
        raise CheckFailed(f"{name}: solved flag disagrees with remaining conflicts")


def verdict_hash(summary: Mapping[str, object]) -> str:
    """SHA-256 of an encoding summary minus its timing and spec name."""
    flat = {key: value for key, value in summary.items() if key not in ("cpu_seconds", "name")}
    blob = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def verdict_changes(observed: Mapping[str, Mapping], pinned: Mapping[str, Mapping]) -> List[str]:
    """Specs whose fingerprint, inserted signals or literal count (where
    observed) moved from the pinned verdict."""
    keys = ("fingerprint_sha256", "inserted", "literals")
    return sorted(
        name
        for name, verdict in observed.items()
        if name not in pinned
        or any(k in verdict and verdict[k] != pinned[name].get(k) for k in keys)
    )
