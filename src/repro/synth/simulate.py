"""Gate-level verification: play the netlist against the SG token game.

Two checks, both under the speed-independent firing rule (any excited
gate may fire after an arbitrary finite delay):

*Excitation equivalence* — walk every reachable SG state (the token game,
BFS from the initial state) and require that the set of output signals the
netlist wants to switch equals the set of non-input edges the state graph
enables.  Because the complex-gate netlist is a pure function of the code,
this equality at every reachable state is exactly mutual trace
reproducibility: every SG trace can be replayed by the netlist and every
netlist behaviour is a trace of the SG.  Complex gates are evaluated on
the packed code as ``(care, value)`` pairs, once per distinct code.

*Decomposition hazard check* — a decomposed netlist has internal wires
with their own delays, so function equality is no longer enough.  We
explore the product of SG states and internal wire configurations: from
each configuration any unstable internal gate may flip, any enabled input
edge may fire, and a non-input edge may fire once its (decomposed) driver
gate has actually switched.  The decomposition is accepted only if every
unstable gate stays unstable across any other single event
(semi-modularity — no transition can be disabled before it fires) and the
netlist never wants to switch an output the SG does not enable.  The
exploration is budgeted; exceeding the budget counts as a failure and
synthesis falls back to the complex-gate network.

Both checks walk the graph's :class:`~repro.core.indexed.IndexedStateGraph`
(states are indices, codes packed integers) and follow every successor
arc, so a nondeterministic graph is checked in full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

from repro.core.indexed import bits_of
from repro.logic.cubes import unpack_minterm
from repro.stg.state_graph import StateGraph
from repro.synth.network import GateNetwork

_MAX_RECORDED_MISMATCHES = 5


@dataclass
class VerificationReport:
    """Outcome of playing a netlist against the state graph."""

    ok: bool
    mode: str  # "complex" or "decomposed"
    states_checked: int = 0
    transitions_checked: int = 0
    configurations: int = 0
    budget_exceeded: bool = False
    mismatches: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "states_checked": self.states_checked,
            "transitions_checked": self.transitions_checked,
            "configurations": self.configurations,
            "budget_exceeded": self.budget_exceeded,
            "mismatches": self.mismatches,
        }


def _code_digits(packed: int, width: int) -> str:
    """The code as ``"0110"``-style digits, signal 0 first."""
    return format(packed, f"0{width}b")[::-1] if width else ""


def _gate_excitation(network: GateNetwork, width: int) -> Callable[[int], FrozenSet[str]]:
    """The output signals ``network`` wants to switch, per packed code
    (memoised per code).

    Complex gates are evaluated on the packed code as ``(care, value)``
    pairs; a network whose outputs are driven by other gate kinds is
    settled wire by wire on the unpacked code.
    """
    memo: Dict[int, FrozenSet[str]] = {}
    position = {name: p for p, name in enumerate(network.signals)}
    gates = [network.gates[signal] for signal in network.outputs]
    if all(gate.kind == "sop" for gate in gates):
        drivers = [
            (gate.output, 1 << position[gate.output], [(c.care, c.value) for c in gate.cover])
            for gate in gates
        ]

        def compute(packed: int) -> FrozenSet[str]:
            return frozenset(
                signal
                for signal, bit, cubes in drivers
                if any(packed & care == value for care, value in cubes) != bool(packed & bit)
            )

    else:

        def compute(packed: int) -> FrozenSet[str]:
            return frozenset(network.excited(unpack_minterm(packed, width)))

    def excited(packed: int) -> FrozenSet[str]:
        found = memo.get(packed)
        if found is None:
            found = memo[packed] = compute(packed)
        return found

    return excited


def _check_excitation(network: GateNetwork, sg: StateGraph, report: VerificationReport) -> None:
    """BFS the token game over every successor arc of the graph's index;
    compare netlist vs SG excitation at each state."""
    index = sg.indexed()
    width = len(sg.signals)
    codes = index.codes
    succ_events = index.succ_events
    out_arcs = index.out_sig_arcs
    names = list(index.signal_ids)
    noninput_bits = 0
    for signal_id, is_input in enumerate(index.signal_is_input):
        if not is_input:
            noninput_bits |= 1 << signal_id
    sg_sides: Dict[int, FrozenSet[str]] = {}
    net_excited = _gate_excitation(network, width)

    start = index.initial
    frontier = deque([start])
    seen = bytearray(index.num_states)
    seen[start] = 1
    while frontier:
        state = frontier.popleft()
        report.states_checked += 1
        packed = codes[state]
        enabled = 0
        for _target, signal_id in out_arcs[state]:
            enabled |= 1 << signal_id
        enabled &= noninput_bits
        sg_excited = sg_sides.get(enabled)
        if sg_excited is None:
            sg_excited = sg_sides[enabled] = frozenset(names[i] for i in bits_of(enabled))
        wants = net_excited(packed)
        if wants != sg_excited:
            report.ok = False
            if len(report.mismatches) < _MAX_RECORDED_MISMATCHES:
                report.mismatches.append(
                    {
                        "check": "excitation",
                        "code": _code_digits(packed, width),
                        "netlist": sorted(wants),
                        "state_graph": sorted(sg_excited),
                    }
                )
        for _event, target in succ_events[state]:
            report.transitions_checked += 1
            if not seen[target]:
                seen[target] = 1
                frontier.append(target)


def _wire_targets(network: GateNetwork, code: Tuple[int, ...], values: Dict[str, int]) -> Dict[str, int]:
    return {wire: network.gates[wire].evaluate(values, code) for wire in network.wires}


def _check_decomposition(
    network: GateNetwork, sg: StateGraph, report: VerificationReport, max_configs: int
) -> None:
    """Explore (SG state, internal wires) configurations for hazards,
    following every successor arc of the graph's index."""
    index = sg.indexed()
    width = len(sg.signals)
    tuples: Dict[int, Tuple[int, ...]] = {}

    def code_of(state: int) -> Tuple[int, ...]:
        packed = index.codes[state]
        code = tuples.get(packed)
        if code is None:
            code = tuples[packed] = unpack_minterm(packed, width)
        return code

    wires = list(network.wires)
    initial_code = code_of(index.initial)
    initial_values = network.settle_wires(initial_code)
    initial_wires = tuple(initial_values[w] for w in wires)
    start = (index.initial, initial_wires)
    frontier = deque([start])
    seen = {start}

    def record(check: str, code: Tuple[int, ...], detail: Dict[str, Any]) -> None:
        report.ok = False
        if len(report.mismatches) < _MAX_RECORDED_MISMATCHES:
            entry = {"check": check, "code": "".join(str(v) for v in code)}
            entry.update(detail)
            report.mismatches.append(entry)

    while frontier:
        if len(seen) > max_configs:
            report.ok = False
            report.budget_exceeded = True
            return
        state, wvals = frontier.popleft()
        report.configurations += 1
        code = code_of(state)
        values = {name: code[i] for i, name in enumerate(network.signals)}
        values.update(zip(wires, wvals))
        targets = _wire_targets(network, code, values)
        unstable = [w for w in wires if targets[w] != values[w]]
        index_of = {name: i for i, name in enumerate(network.signals)}
        root = {a: network.gates[a].evaluate(values, code) for a in network.outputs}
        enabled = index.succ_events[state]
        sg_excited = {edge.signal for edge, _target in enabled if not sg.is_input_edge(edge)}

        # output correctness: the circuit may only switch what the SG enables
        for a in network.outputs:
            if root[a] != code[index_of[a]] and a not in sg_excited:
                record("output", code, {"signal": a, "wants": root[a]})
                return

        successors: List[Tuple[int, Tuple[int, ...], str]] = []
        for w in unstable:
            flipped = tuple(
                1 - v if wires[i] == w else v for i, v in enumerate(wvals)
            )
            successors.append((state, flipped, w))
        for edge, target in enabled:
            if not sg.is_input_edge(edge) and root[edge.signal] != edge.value_after():
                continue  # driver gate has not switched yet
            successors.append((target, wvals, ""))

        for next_state, next_wvals, flipped_wire in successors:
            next_code = code_of(next_state)
            next_values = {name: next_code[i] for i, name in enumerate(network.signals)}
            next_values.update(zip(wires, next_wvals))
            next_targets = _wire_targets(network, next_code, next_values)
            # semi-modularity: every other unstable gate must stay unstable
            for w in unstable:
                if w != flipped_wire and next_targets[w] == next_values[w]:
                    record("persistence", code, {"wire": w, "after": flipped_wire or "edge"})
                    return
            config = (next_state, next_wvals)
            if config not in seen:
                seen.add(config)
                frontier.append(config)


def verify_network(network: GateNetwork, sg: StateGraph, max_configs: int = 20000) -> VerificationReport:
    """Verify ``network`` implements ``sg`` under the SI firing rule.

    Always runs the excitation-equivalence token game; decomposed
    networks additionally get the budgeted hazard exploration.
    """
    mode = "decomposed" if network.is_decomposed else "complex"
    report = VerificationReport(ok=True, mode=mode)
    _check_excitation(network, sg, report)
    if report.ok and network.is_decomposed:
        _check_decomposition(network, sg, report, max_configs)
    return report
