"""I-partitions and exit borders (Section 4).

To insert one new signal ``x`` the state space is partitioned into four
blocks ``S0 / S+ / S1 / S-``: the states where ``x`` holds 0, is excited
to rise (``ER(x+)``), holds 1, and is excited to fall (``ER(x-)``).  Given
a bipartition block ``b``, the paper derives the I-partition by taking the
*minimal well-formed exit borders* of ``b`` and of its complement as the
excitation regions of ``x+`` and ``x-``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple

from repro.ts.transition_system import TransitionSystem

State = Hashable

# Codes of the four I-partition blocks in per-state side tables (the
# S0 -> ER(x+) -> S1 -> ER(x-) cycle of the inserted signal).
S0 = 0
SPLUS = 1
S1 = 2
SMINUS = 3


def exit_border(ts: TransitionSystem, block: Iterable[State]) -> Set[State]:
    """``EB(block)``: states of ``block`` with a transition leaving it."""
    block_set = set(block)
    border: Set[State] = set()
    for state in block_set:
        for _event, target in ts.successors(state):
            if target not in block_set:
                border.add(state)
                break
    return border


def is_wellformed_exit_border(
    ts: TransitionSystem, block: Iterable[State], border: Iterable[State]
) -> bool:
    """True iff no transition leads from ``border`` back into
    ``block - border`` (the well-formedness condition of Section 4)."""
    block_set = set(block)
    border_set = set(border)
    interior = block_set - border_set
    for state in border_set:
        for _event, target in ts.successors(state):
            if target in interior:
                return False
    return True


def min_wellformed_exit_border(ts: TransitionSystem, block: Iterable[State]) -> Set[State]:
    """``MWFEB(block)``: the smallest well-formed exit border of ``block``.

    Computed with the recursion of Section 4: seed with the states of
    ``block`` that have a transition leaving ``block`` (condition 1), then
    close under successors *inside* ``block`` (condition 2) until no
    transition escapes from the border back into the interior.
    """
    block_set = set(block)
    border = exit_border(ts, block_set)
    frontier = list(border)
    while frontier:
        state = frontier.pop()
        for _event, target in ts.successors(state):
            if target in block_set and target not in border:
                border.add(target)
                frontier.append(target)
    return border


# ----------------------------------------------------------------------
# bitmask twins of the exit-border recursion
# ----------------------------------------------------------------------
#
# The indexed pipeline (repro.core.indexed) represents a set of states as
# one Python int whose bit ``i`` stands for state ``i`` of an
# :class:`~repro.core.indexed.IndexedStateGraph`.  The functions below are
# the bitmask twins of the object-space helpers above; the object-space
# versions stay as the cache-disabled oracle.

def exit_border_mask(succ_masks: List[int], block: int) -> int:
    """``EB(block)`` as a bitmask: members with a successor outside."""
    border = 0
    inv = ~block
    members = block
    while members:
        low = members & -members
        members ^= low
        if succ_masks[low.bit_length() - 1] & inv:
            border |= low
    return border


def min_wellformed_exit_border_mask(succ_masks: List[int], block: int) -> int:
    """``MWFEB(block)`` as a bitmask (twin of
    :func:`min_wellformed_exit_border`): seed with the members that have a
    transition leaving ``block``, then close under successors inside
    ``block``."""
    border = exit_border_mask(succ_masks, block)
    frontier = border
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        grown = succ_masks[low.bit_length() - 1] & block & ~border
        border |= grown
        frontier |= grown
    return border


def ipartition_masks_from_block(
    succ_masks: List[int], block: int, universe: int
) -> Optional[Tuple[int, int, int, int]]:
    """``(S0, S+, S1, S-)`` masks induced by a bipartition block, or
    ``None`` when the induced signal would never switch (twin of
    :func:`ipartition_from_block` plus the degeneracy filter of
    :func:`repro.core.cost.evaluate_block`)."""
    splus = min_wellformed_exit_border_mask(succ_masks, block)
    if not splus:
        return None
    complement = universe & ~block
    sminus = min_wellformed_exit_border_mask(succ_masks, complement)
    if not sminus:
        return None
    return (block & ~splus, splus, complement & ~sminus, sminus)


@dataclass(frozen=True)
class IPartition:
    """The four blocks of states for the insertion of one signal.

    ``splus`` will become ``ER(x+)`` and ``sminus`` will become
    ``ER(x-)``; ``s0`` and ``s1`` are the states where the new signal is
    stable at 0 and 1 respectively.
    """

    s0: FrozenSet[State]
    splus: FrozenSet[State]
    s1: FrozenSet[State]
    sminus: FrozenSet[State]

    def __post_init__(self) -> None:
        blocks = [self.s0, self.splus, self.s1, self.sminus]
        for i, first in enumerate(blocks):
            for second in blocks[i + 1 :]:
                if first & second:
                    raise ValueError("I-partition blocks must be pairwise disjoint")

    @property
    def all_states(self) -> FrozenSet[State]:
        return self.s0 | self.splus | self.s1 | self.sminus

    def value_of(self, state: State) -> int:
        """Stable value of the new signal in ``state``; states inside the
        excitation regions (which get split by the insertion) are reported
        with the value they hold *before* the new signal fires."""
        if state in self.s0 or state in self.splus:
            return 0
        if state in self.s1 or state in self.sminus:
            return 1
        raise KeyError(f"state {state!r} is not covered by the I-partition")

    def is_split(self, state: State) -> bool:
        """True iff ``state`` belongs to ``ER(x+)`` or ``ER(x-)``."""
        return state in self.splus or state in self.sminus

    def separates(self, first: State, second: State) -> bool:
        """True iff the new signal is guaranteed to distinguish the codes of
        the two states (one firmly at 0, the other firmly at 1).

        Conflict pairs touching the excitation regions are *not* counted as
        separated: the border state is split into both values, which is why
        secondary conflicts may remain and the procedure iterates
        (Figure 3 discussion).
        """
        first_zero = first in self.s0
        first_one = first in self.s1
        second_zero = second in self.s0
        second_one = second in self.s1
        return (first_zero and second_one) or (first_one and second_zero)

    def summary(self) -> str:
        return (
            f"IPartition(|S0|={len(self.s0)}, |S+|={len(self.splus)}, "
            f"|S1|={len(self.s1)}, |S-|={len(self.sminus)})"
        )


def ipartition_from_block(ts: TransitionSystem, block: Iterable[State]) -> IPartition:
    """Derive the I-partition induced by a bipartition block ``b``.

    ``S+ = MWFEB(b)``, ``S- = MWFEB(S \\ b)``, ``S0 = b - S+`` and
    ``S1 = (S \\ b) - S-`` — the minimum-concurrency configuration of the
    inserted signal (Section 5); concurrency can then be increased by
    enlarging ``S+``/``S-``.
    """
    block_set = set(block)
    complement = set(ts.states) - block_set
    splus = min_wellformed_exit_border(ts, block_set)
    sminus = min_wellformed_exit_border(ts, complement)
    return IPartition(
        s0=frozenset(block_set - splus),
        splus=frozenset(splus),
        s1=frozenset(complement - sminus),
        sminus=frozenset(sminus),
    )


_ALLOWED_CROSSINGS: Set[Tuple[str, str]] = {
    ("s0", "s0"),
    ("s0", "splus"),
    ("splus", "splus"),
    ("splus", "s1"),
    ("splus", "sminus"),
    ("s1", "s1"),
    ("s1", "sminus"),
    ("sminus", "sminus"),
    ("sminus", "s0"),
    ("sminus", "splus"),
}

# Crossings that are legal for consistency but break persistency of the
# inserted signal's environment (the paper flags S+ -> S- and S- -> S+).
_PERSISTENCY_RISK: Set[Tuple[str, str]] = {("splus", "sminus"), ("sminus", "splus")}


def _block_of(partition: IPartition, state: State) -> str:
    if state in partition.s0:
        return "s0"
    if state in partition.splus:
        return "splus"
    if state in partition.s1:
        return "s1"
    if state in partition.sminus:
        return "sminus"
    raise KeyError(f"state {state!r} is not covered by the I-partition")


def ipartition_violations(
    ts: TransitionSystem, partition: IPartition
) -> List[str]:
    """Transitions whose block crossing breaks consistency of the new signal.

    An empty list means the partition yields a consistent encoding of the
    inserted signal (the only allowed crossings are
    ``S0→S+→S1→S-→S0`` plus ``S+→S-`` / ``S-→S+``).  Partitions produced
    by :func:`ipartition_from_block` are legal by construction; this
    check is used for externally supplied partitions and in tests.
    """
    problems: List[str] = []
    covered = partition.all_states
    for state in ts.states:
        if state not in covered:
            problems.append(f"state {state!r} is not assigned to any block")
    for source, event, target in ts.transitions():
        if source not in covered or target not in covered:
            continue
        crossing = (_block_of(partition, source), _block_of(partition, target))
        if crossing not in _ALLOWED_CROSSINGS:
            problems.append(
                f"transition {source!r} --{event}--> {target!r} crosses "
                f"{crossing[0]} -> {crossing[1]}"
            )
    return problems


def persistency_risk_crossings(
    ts: TransitionSystem, partition: IPartition
) -> List[Tuple[State, object, State]]:
    """Transitions crossing ``S+ -> S-`` or ``S- -> S+``.

    Allowed by the I-partition definition but singled out by the paper as
    causing a persistency violation of the inserted signal; the SIP check
    will reject such candidates, this helper makes the reason visible.
    """
    risky = []
    covered = partition.all_states
    for source, event, target in ts.transitions():
        if source not in covered or target not in covered:
            continue
        crossing = (_block_of(partition, source), _block_of(partition, target))
        if crossing in _PERSISTENCY_RISK:
            risky.append((source, event, target))
    return risky
