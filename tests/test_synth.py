"""Tests for the synthesis tier: networks, emitters, verifier, pipeline.

The heavy guarantee lives in ``TestEndToEnd``: every solvable+enumerable
library case synthesizes to equations / Verilog / BLIF and the gate-level
simulator confirms the netlist reproduces the SG token game
(``verified=True``).  The satellite guarantee — estimate literal counts
equal synthesized literal counts — rides on the same sweep.
"""

import pytest

from library_pins import pin
from repro.api import encode_stg
from repro.bench_stg.library import TABLE1_CASES, TABLE2_CASES
from repro.core import solve_csc
from repro.engine import encode_many
from repro.logic import CSCViolationError, estimate_circuit
from repro.logic.cubes import Cover, Cube
from repro.logic.nextstate import extract_all_functions
from repro.synth import (
    Gate,
    GateNetwork,
    SynthResult,
    build_network,
    decompose_network,
    emit_blif,
    emit_equations,
    emit_verilog,
    synthesize,
    verify_network,
)

SOLVABLE = [case for case in TABLE2_CASES + TABLE1_CASES if case.solve and case.explicit_ok]
_IDS = [f"{i:02d}-{case.name}" for i, case in enumerate(SOLVABLE)]


def _solved_network(sg):
    """Complex-gate network + final sg of a solved state graph."""
    result = solve_csc(sg)
    final = result.final_sg
    functions = extract_all_functions(final)
    return build_network(final.name, final.signals, final.input_signals, functions), final


class TestGateNetwork:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate(output="x", kind="nand", inputs=("a", "b"))
        with pytest.raises(ValueError):
            Gate(output="x", kind="sop", inputs=("a",))  # sop needs a cover
        with pytest.raises(ValueError):
            Gate(output="x", kind="not", inputs=("a", "b"))
        with pytest.raises(ValueError):
            Gate(output="x", kind="and", inputs=("a", "b", "c"))

    def test_primitive_gate_evaluation(self):
        values = {"a": 1, "b": 0}
        assert Gate(output="x", kind="and", inputs=("a", "b")).evaluate(values, ()) == 0
        assert Gate(output="x", kind="or", inputs=("a", "b")).evaluate(values, ()) == 1
        assert Gate(output="x", kind="not", inputs=("b",)).evaluate(values, ()) == 1
        assert Gate(output="x", kind="buf", inputs=("a",)).evaluate(values, ()) == 1

    def test_undriven_output_rejected(self):
        with pytest.raises(ValueError):
            GateNetwork(name="bad", signals=["a", "x"], inputs=["a"], outputs=["x"])

    def test_network_matches_next_value(self, vme_sg):
        network, final = _solved_network(vme_sg)
        for state in final.states:
            code = final.code(state)
            for signal in final.non_input_signals:
                assert network.target(signal, code) == final.next_value(state, signal)

    def test_excited_matches_enabled_edges(self, vme_sg):
        network, final = _solved_network(vme_sg)
        for state in final.states:
            enabled = {edge.signal for edge in final.enabled_noninput_edges(state)}
            assert set(network.excited(final.code(state))) == enabled

    def test_literal_count_equals_estimate(self, vme_sg):
        network, final = _solved_network(vme_sg)
        assert network.literal_count() == estimate_circuit(final).total_literals

    def test_summary_fields(self, vme_sg):
        network, _ = _solved_network(vme_sg)
        summary = network.summary()
        assert summary["wires"] == 0
        assert summary["gates"] == summary["signals"] == len(network.outputs)
        assert not network.is_decomposed


class TestEmitters:
    def test_equations_structure(self, vme_sg):
        network, _ = _solved_network(vme_sg)
        text = emit_equations(network)
        assert "INORDER" in text and "OUTORDER" in text
        for signal in network.outputs:
            assert f"{signal} = " in text

    def test_verilog_structure(self, vme_sg):
        network, _ = _solved_network(vme_sg)
        text = emit_verilog(network)
        assert text.startswith("//")
        assert "module vme" in text and text.rstrip().endswith("endmodule")
        assert text.count("assign") == len(network.outputs)

    def test_blif_structure(self, vme_sg):
        network, _ = _solved_network(vme_sg)
        text = emit_blif(network)
        assert ".model" in text and ".inputs" in text and ".outputs" in text
        assert text.count(".names") == len(network.gates)
        assert text.rstrip().endswith(".end")

    def test_emitters_deterministic(self, vme_sg):
        a = synthesize(solve_csc(vme_sg).final_sg, name="vme")
        b = synthesize(solve_csc(vme_sg).final_sg, name="vme")
        assert (a.equations, a.verilog, a.blif) == (b.equations, b.verilog, b.blif)

    def test_blif_constant_rows(self):
        # constant-1 names row and constant-0 (no rows) both emit validly
        one = Cover(1, [Cube.full(1)])
        zero = Cover(1, [])
        gates = {
            "t": Gate(output="t", kind="sop", inputs=(), cover=one),
            "f": Gate(output="f", kind="sop", inputs=(), cover=zero),
        }
        network = GateNetwork(
            name="const", signals=["t", "f"], inputs=[], outputs=["t", "f"], gates=gates
        )
        text = emit_blif(network)
        assert ".names t\n1" in text
        assert ".names f" in text


class TestVerifier:
    def test_correct_network_verifies(self, vme_sg):
        network, final = _solved_network(vme_sg)
        report = verify_network(network, final)
        assert report.ok
        assert report.mode == "complex"
        assert report.states_checked == len(final.states)
        assert report.mismatches == []

    def test_wrong_cover_detected(self, vme_sg):
        network, final = _solved_network(vme_sg)
        victim = network.outputs[0]
        width = len(network.signals)
        # Replace one driver with constant-1: excitation must diverge.
        network.gates[victim] = Gate(
            output=victim, kind="sop", inputs=(), cover=Cover(width, [Cube.full(width)])
        )
        report = verify_network(network, final)
        assert not report.ok
        assert report.mismatches
        assert report.mismatches[0]["check"] == "excitation"

    def test_report_as_dict(self, vme_sg):
        network, final = _solved_network(vme_sg)
        row = verify_network(network, final).as_dict()
        assert row["ok"] is True
        assert row["states_checked"] > 0


class TestDecompose:
    def test_fanin_bounded_after_decomposition(self, vme_sg):
        network, _ = _solved_network(vme_sg)
        flat, info = decompose_network(network)
        assert flat.is_decomposed
        assert info["gates_decomposed"] >= 1
        for gate in flat.gates.values():
            if gate.kind == "sop":  # only constants stay sop
                assert len(gate.cover) == 0 or gate.cover[0].literal_count() == 0
            else:
                assert len(gate.inputs) <= 2

    def test_decomposed_network_same_function(self, vme_sg):
        network, final = _solved_network(vme_sg)
        flat, _ = decompose_network(network)
        for state in final.states:
            code = final.code(state)
            assert flat.next_values(code) == network.next_values(code)

    def test_hazardous_decomposition_falls_back(self, vme_sg):
        # The naive 2-input OR tree for the vme csc signal is not
        # speed-independent: synthesize must detect this and fall back.
        result = synthesize(solve_csc(vme_sg).final_sg, name="vme", decompose=True)
        assert result.verified
        assert not result.decomposed
        assert result.decomposition["fallback"] in ("hazard", "budget_exceeded")
        assert result.decomposition["rejected"]

    def test_budget_exhaustion_reported(self, vme_sg):
        network, final = _solved_network(vme_sg)
        flat, _ = decompose_network(network)
        report = verify_network(flat, final, max_configs=3)
        assert not report.ok
        assert report.budget_exceeded


class TestSynthesize:
    def test_requires_csc(self, vme_sg):
        with pytest.raises(CSCViolationError):
            synthesize(vme_sg)

    def test_result_shape(self, vme_sg):
        result = synthesize(solve_csc(vme_sg).final_sg, name="vme")
        assert isinstance(result, SynthResult)
        assert result.verified
        assert result.literals == result.network.literal_count()
        row = result.as_dict()
        assert row["status"] == "ok"
        assert row["verified"] is True
        assert row["verification"]["ok"] is True
        assert row["equations"] and row["verilog"] and row["blif"]

    def test_verify_opt_out(self, vme_sg):
        result = synthesize(solve_csc(vme_sg).final_sg, verify=False)
        assert not result.verified
        assert result.verification is None


class TestPipelineIntegration:
    def test_encode_stg_synth_report(self, vme_sg):
        from repro.bench_stg.generators import vme_controller

        report = encode_stg(vme_controller(), synth=True)
        assert report.solved
        assert report.synth is not None
        assert report.synth.verified
        # the logic estimate is reused from synthesis, not recomputed
        assert report.circuit is report.synth.estimate

    def test_batch_synth_and_fingerprint_stability(self):
        from repro.bench_stg.generators import vme_controller

        plain = encode_many([vme_controller()], jobs=1)
        with_synth = encode_many([vme_controller()], jobs=1, synth=True)
        item, synth_item = plain.items[0], with_synth.items[0]
        # synthesis is derived output: fingerprints are byte-identical
        assert item.fingerprint() == synth_item.fingerprint()
        assert item.synth is None
        assert synth_item.synth["status"] == "ok"
        assert synth_item.synth["verified"] is True

    def test_request_fingerprint_distinguishes_synth(self):
        from repro.service.fingerprint import request_fingerprint
        from repro.bench_stg.generators import vme_controller

        stg = vme_controller()
        plain = request_fingerprint(stg)
        synth = request_fingerprint(stg, synth=True)
        assert plain != synth
        assert request_fingerprint(stg) == plain  # stable


class TestEndToEnd:
    @pytest.mark.parametrize(
        "case", SOLVABLE, ids=_IDS
    )
    def test_library_case_synthesizes_verified(self, case):
        report = encode_stg(
            case.build(),
            settings=case.solver_settings(),
            estimate_logic=False,
            max_states=200000,
        )
        pinned = pin(case)
        if not report.solved:
            assert not pinned.get("verified", False)
            pytest.skip(f"{case.name} not solved by the bounded search (library-known)")
        result = synthesize(report.result.final_sg, name=case.name)
        assert result.verified, f"{case.name}: {result.verification.as_dict()}"
        assert result.equations and result.verilog and result.blif
        # satellite: estimation and synthesis agree on the area proxy
        estimate = estimate_circuit(report.result.final_sg)
        assert result.network.literal_count() == estimate.total_literals
        if "literals" in pinned:
            summary = result.summary()
            assert {key: summary[key] for key in ("literals", "cubes", "gates", "verified")} == {
                key: pinned[key] for key in ("literals", "cubes", "gates", "verified")
            }


# ----------------------------------------------------------------------
# index-space extraction and verification against object-space references
# ----------------------------------------------------------------------
from references import (  # noqa: E402
    reference_check_excitation,
    reference_classify_codes,
    reference_trigger_signals,
)
from repro.logic import classify_codes, trigger_signals  # noqa: E402
from repro.stg import STG, build_state_graph  # noqa: E402

_ENUMERABLE_ROWS = [case for case in TABLE2_CASES + TABLE1_CASES if case.explicit_ok]


def _classification(classify, sg, signal):
    try:
        return ("codes",) + tuple(classify(sg, signal))
    except CSCViolationError as error:
        return ("CSCViolationError", str(error))


@pytest.fixture(scope="module")
def solved_graphs():
    """Initial and final graphs of every enumerable library row (final
    only where the library search solves it)."""
    graphs = []
    for case in _ENUMERABLE_ROWS:
        sg = build_state_graph(case.build(), max_states=200000)
        graphs.append((case.name, "initial", sg))
        if case.solve:
            result = solve_csc(sg, case.solver_settings())
            if result.solved:
                graphs.append((case.name, "final", result.final_sg))
    return graphs


class TestIndexExtractionMatchesObjectSpace:
    """Synthesis reads codes, excitation and triggers off the graph's
    index; the per-state object-space extraction gives the same sets,
    orders and errors, and the tuple-code excitation check the same
    report."""

    def test_classified_codes_and_triggers(self, solved_graphs):
        checked = 0
        for name, stage, sg in solved_graphs:
            for signal in sg.non_input_signals:
                assert _classification(classify_codes, sg, signal) == _classification(
                    reference_classify_codes, sg, signal
                ), (name, stage, signal)
                assert trigger_signals(sg, signal) == reference_trigger_signals(sg, signal), (
                    name,
                    stage,
                    signal,
                )
                checked += 1
        assert checked > 200

    def test_conflicted_graphs_raise_the_reference_error(self, solved_graphs):
        conflicted = [
            (name, sg)
            for name, stage, sg in solved_graphs
            if stage == "initial"
            and any(
                _classification(reference_classify_codes, sg, s)[0] == "CSCViolationError"
                for s in sg.non_input_signals
            )
        ]
        assert len(conflicted) >= 10
        for name, sg in conflicted:
            with pytest.raises(CSCViolationError) as raised:
                synthesize(sg)
            first = next(
                outcome
                for outcome in (
                    _classification(reference_classify_codes, sg, s) for s in sg.non_input_signals
                )
                if outcome[0] == "CSCViolationError"
            )
            assert str(raised.value) == first[1], name

    def test_excitation_reports(self, solved_graphs):
        for name, stage, sg in solved_graphs:
            if stage != "final":
                continue
            network = build_network(sg.name, sg.signals, sg.input_signals, extract_all_functions(sg))
            assert (
                verify_network(network, sg).as_dict()
                == reference_check_excitation(network, sg).as_dict()
            ), name
            # a wrong driver: the mismatch records must agree too
            victim = network.outputs[0]
            width = len(network.signals)
            network.gates[victim] = Gate(
                output=victim, kind="sop", inputs=(), cover=Cover(width, [Cube.full(width)])
            )
            wrong = verify_network(network, sg).as_dict()
            assert not wrong["ok"]
            assert wrong == reference_check_excitation(network, sg).as_dict(), name

    def test_decomposed_excitation_report(self, vme_sg):
        network, final = _solved_network(vme_sg)
        flat, _ = decompose_network(network)
        report = verify_network(flat, final, max_configs=3)
        assert report.states_checked == reference_check_excitation(flat, final).states_checked

    def test_estimate_matches_synthesis_per_signal(self, solved_graphs):
        for name, stage, sg in solved_graphs:
            if stage != "final":
                continue
            estimate = estimate_circuit(sg)
            result = synthesize(sg, verify=False)
            for signal, impl in estimate.implementations.items():
                assert impl.trigger_signals == reference_trigger_signals(sg, signal), name
                assert impl.function.cover.to_strings() == (
                    result.network.functions[signal].cover.to_strings()
                ), name


def _choice_stg():
    """Output ``a`` rises by ``a+/1`` or ``a+/2`` from one marking, into
    two states with one code and no enabled non-input edge: 7 states, a
    nondeterministic state graph, no CSC conflict."""
    return STG.from_arcs(
        "choice",
        inputs=["b", "c"],
        outputs=["a"],
        arcs=[
            ("p0", "a+/1"), ("a+/1", "b+"), ("b+", "a-/1"), ("a-/1", "b-"), ("b-", "p0"),
            ("p0", "a+/2"), ("a+/2", "c+"), ("c+", "a-/2"), ("a-/2", "c-"), ("c-", "p0"),
        ],
        marking=["p0"],
    )


class TestNondeterministicVerification:
    def test_every_state_is_checked(self):
        sg = build_state_graph(_choice_stg())
        assert sg.num_states == 7
        assert not sg.is_deterministic()
        result = synthesize(sg)
        assert result.verified
        assert result.verification.states_checked == sg.num_states
        assert result.verification.transitions_checked == sg.ts.num_transitions

    @staticmethod
    def _wrong_on_second_branch(network):
        """``a = !b & !c | c & !a``: wrong only where ``c = 1`` and
        ``a = 0``, a state behind ``a+/2`` alone."""
        width = len(network.signals)
        a, b, c = (1 << network.signals.index(name) for name in "abc")
        cover = Cover(width, [Cube(width, b | c, 0), Cube(width, c | a, c)])
        network.gates["a"] = Gate(output="a", kind="sop", inputs=(), cover=cover)
        network.functions["a"].cover = cover
        return network

    def test_wrong_driver_on_the_second_branch_is_caught(self):
        # A check that followed one successor per event never reaches it.
        sg = build_state_graph(_choice_stg())
        network = self._wrong_on_second_branch(synthesize(sg).network)
        report = verify_network(network, sg)
        assert not report.ok
        assert [m["code"] for m in report.mismatches] == ["010"]  # b c a
        assert report.as_dict() == reference_check_excitation(network, sg).as_dict()

    def test_decomposition_check_walks_every_successor(self, monkeypatch):
        import repro.synth.simulate as simulate

        sg = build_state_graph(_choice_stg())
        flat, _ = decompose_network(synthesize(sg).network)
        reached = set()
        settle = simulate._wire_targets

        def spy(network, code, values):
            reached.add(code)
            return settle(network, code, values)

        monkeypatch.setattr(simulate, "_wire_targets", spy)
        report = verify_network(flat, sg)
        assert report.ok and report.mode == "decomposed"
        assert reached == {sg.code(state) for state in sg.states}
