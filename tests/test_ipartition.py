"""Tests for exit borders, MWFEB and I-partitions (Section 4).

The legality of an I-partition (every state covered, no forbidden
crossing, well-formed exit borders) is decided by the insertion itself:
:func:`repro.core.insertion.insert_signal` raises on an illegal one and
:func:`repro.core.sip.check_insertion` rejects it with kind ``"illegal"``.
"""

import pytest

from references import exit_border, ipartition_from_block, min_wellformed_exit_border

from repro.core import check_insertion, insert_signal
from repro.core.insertion import IllegalInsertionError
from repro.core.ipartition import IPartition
from repro.stg import SignalEdge, SignalType
from repro.stg.state_graph import StateGraph
from repro.ts import TransitionSystem


def chain_ts() -> TransitionSystem:
    return TransitionSystem.from_triples(
        [
            ("s0", "a", "s1"),
            ("s1", "b", "s2"),
            ("s2", "c", "s3"),
            ("s3", "d", "s0"),
        ],
        initial="s0",
    )


def chain_sg() -> StateGraph:
    """The four-state chain as a state graph: ``a+ b+ a- b-`` on two outputs."""
    a_up, b_up = SignalEdge.rise("a"), SignalEdge.rise("b")
    a_down, b_down = SignalEdge.fall("a"), SignalEdge.fall("b")
    ts = TransitionSystem.from_triples(
        [("s0", a_up, "s1"), ("s1", b_up, "s2"), ("s2", a_down, "s3"), ("s3", b_down, "s0")],
        initial="s0",
    )
    return StateGraph(
        ts,
        ["a", "b"],
        {"a": SignalType.OUTPUT, "b": SignalType.OUTPUT},
        {"s0": (0, 0), "s1": (1, 0), "s2": (1, 1), "s3": (0, 1)},
    )


def bordered_partition(block, border, sminus):
    """The I-partition with ``S+ = border`` inside ``block`` and ``S- = sminus``
    inside the rest of the chain."""
    rest = {"s0", "s1", "s2", "s3"} - set(block)
    return IPartition(
        s0=frozenset(set(block) - set(border)),
        splus=frozenset(border),
        s1=frozenset(rest - set(sminus)),
        sminus=frozenset(sminus),
    )


class TestBorders:
    def test_exit_border(self):
        ts = chain_ts()
        assert exit_border(ts, {"s0", "s1"}) == {"s1"}
        assert exit_border(ts, {"s1", "s2"}) == {"s2"}
        assert exit_border(ts, set(ts.states)) == set()

    def test_wellformedness_check(self):
        """An ER(x+) that is a well-formed exit border of its block is
        accepted; one with an arc back into S0 is rejected."""
        sg = chain_sg()
        good = bordered_partition({"s0", "s1"}, {"s1"}, {"s3"})
        assert insert_signal(sg, good, "x").signals == ["a", "b", "x"]
        assert check_insertion(sg, good, "x").kind != "illegal"
        bad = bordered_partition({"s0", "s1"}, {"s0"}, {"s3"})
        with pytest.raises(IllegalInsertionError, match="exit border is not well-formed"):
            insert_signal(sg, bad, "x")
        check = check_insertion(sg, bad, "x")
        assert check.kind == "illegal"
        assert "re-enters S0" in check.reasons[0]

    def test_mwfeb_closure(self):
        """When the exit border has a transition back into the block, the
        minimal well-formed EB must absorb the target (condition 2)."""
        ts = TransitionSystem.from_triples(
            [
                ("x0", "a", "x1"),
                ("x1", "b", "x2"),  # leaves the block
                ("x1", "c", "x3"),  # stays inside the block
                ("x3", "d", "x2"),
            ],
            initial="x0",
        )
        block = {"x0", "x1", "x3"}
        assert exit_border(ts, block) == {"x1", "x3"}
        assert min_wellformed_exit_border(ts, block) == {"x1", "x3"}
        block2 = {"x0", "x1"}
        assert min_wellformed_exit_border(ts, block2) == {"x1"}

    def test_mwfeb_grows_to_successors(self):
        ts = chain_ts()
        # Exit border of {s0,s1,s2} is {s2}; s1 -> s2 is fine, but if we seed
        # from {s1} the closure must not leak outside the block.
        border = min_wellformed_exit_border(ts, {"s0", "s1", "s2"})
        assert border == {"s2"}


class TestIPartition:
    def test_from_block_partitions_all_states(self):
        ts = chain_ts()
        partition = ipartition_from_block(ts, {"s0", "s1"})
        assert partition.all_states == set(ts.states)
        assert partition.splus == {"s1"}
        assert partition.sminus == {"s3"}
        assert partition.s0 == {"s0"}
        assert partition.s1 == {"s2"}

    def test_from_block_is_always_legal(self):
        sg = chain_sg()
        for block in ({"s0"}, {"s0", "s1"}, {"s1", "s2"}, {"s0", "s1", "s2"}):
            partition = ipartition_from_block(sg.ts, block)
            assert insert_signal(sg, partition, "x").signals == ["a", "b", "x"]
            assert check_insertion(sg, partition, "x").kind != "illegal"

    def test_value_and_split(self):
        ts = chain_ts()
        partition = ipartition_from_block(ts, {"s0", "s1"})
        assert partition.value_of("s0") == 0
        assert partition.value_of("s2") == 1
        assert partition.is_split("s1") and partition.is_split("s3")
        assert not partition.is_split("s0")

    def test_separates(self):
        ts = chain_ts()
        partition = ipartition_from_block(ts, {"s0", "s1"})
        assert partition.separates("s0", "s2")
        assert not partition.separates("s0", "s1")  # s1 is split
        assert not partition.separates("s0", "s0")

    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            IPartition(
                s0=frozenset({"x"}),
                splus=frozenset({"x"}),
                s1=frozenset(),
                sminus=frozenset(),
            )

    def test_violations_detected_for_bad_partition(self):
        sg = chain_sg()
        bad = IPartition(
            s0=frozenset({"s0", "s2"}),
            splus=frozenset({"s1"}),
            s1=frozenset({"s3"}),
            sminus=frozenset(),
        )
        # s1 -> s2 falls back from ER(x+) to S0; s2 -> s3 jumps from S0 to S1
        with pytest.raises(IllegalInsertionError, match="ER\\(x\\+\\) state 's1' re-enters S0"):
            insert_signal(sg, bad, "x")
        bad_with_fall = IPartition(
            s0=frozenset({"s0", "s2"}),
            splus=frozenset({"s1"}),
            s1=frozenset(),
            sminus=frozenset({"s3"}),
        )
        check = check_insertion(sg, bad_with_fall, "x")
        assert not check.ok and check.kind == "illegal"
        assert check.new_sg is None
        escape = IPartition(
            s0=frozenset({"s0"}),
            splus=frozenset(),
            s1=frozenset({"s1", "s2"}),
            sminus=frozenset({"s3"}),
        )
        # s0 -> s1 jumps from S0 to S1 without crossing ER(x+)
        with pytest.raises(IllegalInsertionError, match="S0 state 's0' escapes"):
            insert_signal(sg, escape, "x")

    def test_uncovered_state_reported(self):
        sg = chain_sg()
        partial = IPartition(
            s0=frozenset({"s0"}),
            splus=frozenset({"s1"}),
            s1=frozenset(),
            sminus=frozenset({"s2"}),
        )
        with pytest.raises(IllegalInsertionError, match="'s3' is not covered"):
            insert_signal(sg, partial, "x")
        check = check_insertion(sg, partial, "x")
        assert check.kind == "illegal"
        assert any("'s3' is not covered" in reason for reason in check.reasons)

    def test_persistency_risk_crossings(self):
        """The crossings S+ -> S- and S- -> S+ are legal but delay their
        events: each is replayed at one value of the new signal only."""
        up, down = SignalEdge.rise("a"), SignalEdge.fall("a")
        ts = TransitionSystem.from_triples([("p", up, "q"), ("q", down, "p")], initial="p")
        sg = StateGraph(ts, ["a"], {"a": SignalType.OUTPUT}, {"p": (0,), "q": (1,)})
        partition = IPartition(
            s0=frozenset(),
            splus=frozenset({"p"}),
            s1=frozenset(),
            sminus=frozenset({"q"}),
        )
        check = check_insertion(sg, partition, "x")
        assert check.delayed == {up, down}  # S+ -> S- and S- -> S+
        new_ts = insert_signal(sg, partition, "x").ts
        assert new_ts.transitions_of(up) == [(("p", 1), ("q", 1))]
        assert new_ts.transitions_of(down) == [(("q", 0), ("p", 0))]
