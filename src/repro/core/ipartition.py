"""I-partitions and exit borders (Section 4).

To insert one new signal ``x`` the state space is partitioned into four
blocks ``S0 / S+ / S1 / S-``: the states where ``x`` holds 0, is excited
to rise (``ER(x+)``), holds 1, and is excited to fall (``ER(x-)``).  Given
a bipartition block ``b``, the paper derives the I-partition by taking the
*minimal well-formed exit borders* of ``b`` and of its complement as the
excitation regions of ``x+`` and ``x-``.  That recursion runs on block
bitmasks (:class:`repro.core.indexed.EvalKernel`); this module holds the
partition and the codes of its blocks in per-state side tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable

State = Hashable

# Codes of the four I-partition blocks in per-state side tables (the
# S0 -> ER(x+) -> S1 -> ER(x-) cycle of the inserted signal).
S0 = 0
SPLUS = 1
S1 = 2
SMINUS = 3


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
