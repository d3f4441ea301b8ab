"""Tests for repro.stg: signals, the STG model and the .g parser/writer."""

import pytest

from repro.stg import STG, SignalEdge, SignalType, parse_g, stg_to_g_text
from repro.stg.parser import GFormatError
from repro.stg.signals import FALL, RISE
from repro.bench_stg import generators as gen


class TestSignalEdge:
    def test_parse_and_format(self):
        edge = SignalEdge.parse("req+")
        assert edge.signal == "req" and edge.direction == RISE and edge.index == 0
        assert str(edge) == "req+"

    def test_parse_with_index(self):
        edge = SignalEdge.parse("ack-/2")
        assert edge.signal == "ack" and edge.direction == FALL and edge.index == 2
        assert str(edge) == "ack-/2"

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            SignalEdge.parse("notanedge")
        with pytest.raises(ValueError):
            SignalEdge.parse("a~")

    def test_is_edge_label(self):
        assert SignalEdge.is_edge_label("x+")
        assert SignalEdge.is_edge_label("x-/3")
        assert not SignalEdge.is_edge_label("p0")
        assert not SignalEdge.is_edge_label("x~")

    def test_base_and_opposite(self):
        edge = SignalEdge.parse("x+/5")
        assert edge.base() == SignalEdge.rise("x")
        assert edge.opposite() == SignalEdge.fall("x")

    def test_values(self):
        assert SignalEdge.rise("x").value_before() == 0
        assert SignalEdge.rise("x").value_after() == 1
        assert SignalEdge.fall("x").value_before() == 1
        assert SignalEdge.fall("x").value_after() == 0

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            SignalEdge("x", 2)

    def test_hash_is_the_field_tuple_hash(self):
        # Set and dict orders of edges must not move with the cached hash.
        edge = SignalEdge.parse("ack-/2")
        assert hash(edge) == hash(("ack", FALL, 2))
        assert edge == SignalEdge("ack", FALL, 2) and {edge: 1}[SignalEdge("ack", FALL, 2)]

    def test_pickles_rehash_under_another_hash_seed(self):
        """A marking, an edge and an STG pickled by a process under one
        string hash seed and loaded by a process under another: the
        loaded marking and edge are found in sets of fresh ones, and the
        loaded STG solves to the fingerprint this process computes."""
        import json
        import os
        import subprocess
        import sys

        from repro.bench_stg.library import get_case
        from repro.core import solve_csc
        from repro.stg.state_graph import build_state_graph

        case = get_case("vme2int")
        expected = solve_csc(build_state_graph(case.build()), case.solver_settings())
        prelude = (
            "import json, pickle, sys\n"
            "from repro.bench_stg.library import get_case\n"
            "from repro.petri.net import Marking\n"
            "from repro.stg.signals import SignalEdge\n"
            "case = get_case('vme2int')\n"
            "fresh = (Marking({'p1': 1, 'q': 2}), SignalEdge.rise('dsr', 1))\n"
        )
        dump = prelude + "pickle.dump(fresh + (case.build(),), sys.stdout.buffer)\n"
        load = prelude + (
            "from repro.core import solve_csc\n"
            "from repro.stg.state_graph import build_state_graph\n"
            "marking, edge, stg = pickle.load(sys.stdin.buffer)\n"
            "print(marking in {fresh[0]}, edge in {fresh[1]})\n"
            "result = solve_csc(build_state_graph(stg), case.solver_settings())\n"
            "print(json.dumps(result.fingerprint(), sort_keys=True))\n"
        )

        def run(code, seed, data=None):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", code], input=data, capture_output=True, env=env, check=True
            ).stdout

        lines = run(load, "2", run(dump, "1")).decode().splitlines()
        assert lines[0] == "True True"
        assert json.loads(lines[1]) == json.loads(json.dumps(expected.fingerprint()))

    def test_signal_type_helpers(self):
        assert SignalType.INPUT.is_input
        assert not SignalType.INPUT.is_noninput
        assert SignalType.OUTPUT.is_noninput
        assert SignalType.INTERNAL.is_noninput
        assert not SignalType.DUMMY.is_noninput


class TestSTGModel:
    def test_signal_declarations(self):
        stg = STG("t")
        stg.add_input("a")
        stg.add_output("b")
        stg.add_internal("x")
        assert stg.input_signals == ["a"]
        assert stg.non_input_signals == ["b", "x"]
        assert stg.is_input("a") and not stg.is_input("b")

    def test_redeclaration_conflict(self):
        stg = STG("t")
        stg.add_input("a")
        with pytest.raises(ValueError):
            stg.add_output("a")

    def test_transition_requires_declared_signal(self):
        stg = STG("t")
        with pytest.raises(ValueError):
            stg.add_transition(SignalEdge.rise("ghost"))

    def test_connect_inserts_implicit_place(self):
        stg = STG("t")
        stg.add_input("a")
        stg.add_output("b")
        stg.connect("a+", "b+")
        assert stg.net.has_place("<a+,b+>")

    def test_connect_place_endpoint(self):
        stg = STG("t")
        stg.add_input("a")
        stg.add_output("b")
        stg.connect("a+", "p0")
        stg.connect("p0", "b+")
        assert stg.net.has_place("p0")
        assert not stg.net.has_place("<a+,b+>")

    def test_marking_with_implicit_places(self):
        stg = gen.vme_controller()
        assert stg.initial_marking.count("<dtack-,dsr+>") == 1

    def test_stats(self):
        stats = gen.vme_controller().stats()
        assert stats["signals"] == 5
        assert stats["transitions"] == 10
        assert stats["places"] > 0

    def test_fresh_edge(self):
        stg = STG("t")
        stg.add_output("b")
        stg.add_transition("b+")
        edge = stg.fresh_edge("b", RISE)
        assert str(edge) != "b+"

    def test_copy(self):
        stg = gen.vme_controller()
        clone = stg.copy()
        assert clone.stats() == stg.stats()
        assert clone.signal_types == stg.signal_types


VME_G = """
# VME bus controller
.model vme
.inputs dsr ldtack
.outputs lds d dtack
.graph
dsr+ lds+
ldtack- lds+
lds+ ldtack+
ldtack+ d+
d+ dtack+
dtack+ dsr-
dsr- d-
d- dtack- lds-
dtack- dsr+
lds- ldtack-
.marking { <dtack-,dsr+> <ldtack-,lds+> }
.end
"""


class TestParserWriter:
    def test_parse_vme(self):
        stg = parse_g(VME_G)
        assert stg.name == "vme"
        assert set(stg.input_signals) == {"dsr", "ldtack"}
        assert set(stg.output_signals) == {"lds", "d", "dtack"}
        assert stg.net.num_transitions == 10
        assert stg.initial_marking.count("<dtack-,dsr+>") == 1

    def test_parse_explicit_places_and_indices(self):
        text = """
.model two
.inputs a
.outputs b
.graph
a+ p1
p1 b+/1
b+/1 b-/1
b-/1 a-
a- a+
.marking { p1 }
.end
"""
        stg = parse_g(text)
        assert stg.net.has_place("p1")
        assert stg.net.has_transition("b+/1")
        assert stg.initial_marking.count("p1") == 1

    def test_parse_unknown_directive(self):
        with pytest.raises(GFormatError):
            parse_g(".model x\n.bogus y\n.graph\n.end\n")

    def test_parse_marked_place_must_exist(self):
        with pytest.raises(GFormatError):
            parse_g(".model x\n.inputs a\n.outputs b\n.graph\na+ b+\n.marking { nowhere }\n.end\n")

    def test_roundtrip_preserves_structure(self):
        original = parse_g(VME_G)
        text = stg_to_g_text(original)
        reparsed = parse_g(text)
        assert reparsed.stats() == original.stats()
        assert set(reparsed.net.transitions) == set(original.net.transitions)
        assert reparsed.initial_marking == original.initial_marking

    def test_roundtrip_of_generated_benchmarks(self):
        for stg in (gen.sequencer(3), gen.mixed_controller(1, 2), gen.duplicator_element()):
            reparsed = parse_g(stg_to_g_text(stg))
            assert reparsed.stats() == stg.stats()
            assert reparsed.initial_marking == stg.initial_marking

    def test_roundtrip_semantics(self):
        """Parsing the written text yields the same state graph."""
        from repro.stg import build_state_graph
        from repro.ts import deterministic_isomorphic

        original = gen.vme_controller()
        reparsed = parse_g(stg_to_g_text(original))
        sg1 = build_state_graph(original)
        sg2 = build_state_graph(reparsed)
        assert sg1.num_states == sg2.num_states
        assert deterministic_isomorphic(sg1.ts, sg2.ts)

    def test_dummy_declaration_parsed(self):
        text = """
.model d
.inputs a
.outputs b
.dummy eps
.graph
a+ eps
eps b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
"""
        stg = parse_g(text)
        assert "eps" in stg.dummy_transitions
