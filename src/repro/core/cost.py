"""Cost model for insertion candidates (Section 5).

The paper ranks candidate I-partitions by, in order of priority:

1. validity (the insertion sets must be SIP blocks and must not delay
   input events) — handled as a hard constraint by the search, not here;
2. the number of CSC conflicts left unsolved (to be minimised);
3. the estimated logic complexity, approximated by the number of trigger
   signals the insertion introduces.

:class:`Cost` is an ordered tuple implementing that lexicographic order,
with the size of the insertion borders as a final tie-breaker (smaller
borders mean a less intrusive state signal).
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence, Set

from repro.core.csc import CSCConflict
from repro.core.ipartition import IPartition
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import StateGraph

State = Hashable


class Cost(NamedTuple):
    """Lexicographic cost of an insertion candidate (smaller is better).

    A named tuple, so ranking, frontier acceptance and the greedy merge
    compare costs with the C tuple comparison, field by field in the
    declared order.

    ``input_delays`` counts input signals the candidate would delay; it is
    zero in ``allow_input_delay`` mode and otherwise ranks input-preserving
    candidates above equally-good candidates that would have to be rejected
    by the SIP check anyway (they are still explored, because they are
    often stepping stones towards larger valid blocks).
    """

    unsolved_conflicts: int
    input_delays: int
    trigger_estimate: int
    border_size: int

    def as_dict(self) -> dict:
        """A JSON-serialisable view (used by result summaries)."""
        return {
            "unsolved_conflicts": self.unsolved_conflicts,
            "input_delays": self.input_delays,
            "trigger_estimate": self.trigger_estimate,
            "border_size": self.border_size,
        }

    def __str__(self) -> str:
        return (
            f"(unsolved={self.unsolved_conflicts}, input_delays={self.input_delays}, "
            f"triggers={self.trigger_estimate}, border={self.border_size})"
        )


def entering_signals(sg: StateGraph, subset: Iterable[State]) -> Set[str]:
    """Signals labelling transitions that enter ``subset``.

    These become trigger (fan-in) signals of the excitation region formed
    by ``subset`` in the implementation.
    """
    subset_set = set(subset)
    signals: Set[str] = set()
    for source, edge, target in sg.ts.transitions():
        if source not in subset_set and target in subset_set:
            if isinstance(edge, SignalEdge):
                signals.add(edge.signal)
    return signals


def delayed_signals(sg: StateGraph, partition: IPartition) -> Set[str]:
    """Signals whose transitions acquire the new signal as a trigger."""
    one_side = partition.s1 | partition.sminus
    zero_side = partition.s0 | partition.splus
    signals: Set[str] = set()
    for source, edge, target in sg.ts.transitions():
        if not isinstance(edge, SignalEdge):
            continue
        if source in partition.splus and target in one_side:
            signals.add(edge.signal)
        elif source in partition.sminus and target in zero_side:
            signals.add(edge.signal)
    return signals


def count_unsolved(partition: IPartition, conflicts: Sequence[CSCConflict]) -> int:
    """Conflict pairs the candidate does not firmly separate.

    Pairs touching ``ER(x+)``/``ER(x-)`` are counted as unsolved because
    the corresponding states are split into both values of the new signal
    (the "secondary conflicts" of Figure 3).
    """  # noqa: D401 - imperative mood is fine here
    unsolved = 0
    for conflict in conflicts:
        if not partition.separates(conflict.first, conflict.second):
            unsolved += 1
    return unsolved


def trigger_estimate(sg: StateGraph, partition: IPartition) -> int:
    """The paper's logic-complexity proxy for one insertion.

    Counts the trigger signals of the two new excitation regions plus one
    new trigger (the inserted signal itself) for every distinct signal it
    delays.
    """
    triggers_plus = entering_signals(sg, partition.splus)
    triggers_minus = entering_signals(sg, partition.sminus)
    delayed = delayed_signals(sg, partition)
    return len(triggers_plus) + len(triggers_minus) + len(delayed)


def evaluate_partition(
    sg: StateGraph,
    partition: IPartition,
    conflicts: Sequence[CSCConflict],
    count_input_delays: bool = False,
) -> Cost:
    """Cost of an explicit I-partition."""
    input_delays = 0
    if count_input_delays:
        input_delays = sum(
            1 for signal in delayed_signals(sg, partition) if sg.is_input_signal(signal)
        )
    return Cost(
        unsolved_conflicts=count_unsolved(partition, conflicts),
        input_delays=input_delays,
        trigger_estimate=trigger_estimate(sg, partition),
        border_size=len(partition.splus) + len(partition.sminus),
    )
