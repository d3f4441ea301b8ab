"""Per-signal complex-gate implementations and circuit-level estimates.

The paper approximates circuit complexity by the number of *trigger
signals* of each excitation region (Section 5) and reports post-synthesis
area in Table 2.  This module provides both figures for a CSC-satisfying
state graph: trigger-signal counts straight from the state graph, and the
literal count of the minimised next-state covers as the area proxy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.excitation import excitation_regions, trigger_events
from repro.logic.nextstate import NextStateFunction, extract_next_state_function
from repro.stg.signals import SignalEdge
from repro.stg.state_graph import StateGraph


@dataclass
class SignalImplementation:
    """The complex gate driving one non-input signal."""

    signal: str
    function: NextStateFunction
    trigger_signals: Set[str] = field(default_factory=set)
    support: Set[str] = field(default_factory=set)

    @property
    def literal_count(self) -> int:
        return self.function.literal_count

    @property
    def cube_count(self) -> int:
        return self.function.cube_count

    def expression(self) -> str:
        return self.function.expression()


@dataclass
class CircuitEstimate:
    """Aggregate implementation estimate for a whole controller."""

    name: str
    implementations: Dict[str, SignalImplementation]

    @property
    def total_literals(self) -> int:
        """The area proxy reported in the Table 2 reproduction."""
        return sum(impl.literal_count for impl in self.implementations.values())

    @property
    def total_cubes(self) -> int:
        return sum(impl.cube_count for impl in self.implementations.values())

    @property
    def total_triggers(self) -> int:
        """The paper's own complexity estimate: trigger signals summed over
        all excitation regions of all non-input signals."""
        return sum(len(impl.trigger_signals) for impl in self.implementations.values())

    def table_row(self) -> Dict[str, int]:
        return {
            "literals": self.total_literals,
            "cubes": self.total_cubes,
            "triggers": self.total_triggers,
            "signals": len(self.implementations),
        }


def _support(function: NextStateFunction) -> Set[str]:
    """Signals actually appearing in the minimised cover."""
    support: Set[str] = set()
    for cube in function.cover:
        for position, name in enumerate(function.inputs):
            if cube.literal(position) != "-":
                support.add(name)
    return support


def trigger_signals(sg: StateGraph, signal: str) -> Set[str]:
    """Distinct trigger signals over all ERs of ``signal``.

    A trigger of an excitation region is a signal labelling a transition
    that enters the region; it necessarily appears in the gate's fan-in.
    """
    triggers: Set[str] = set()
    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        if edge not in sg.ts.events:
            continue
        for region in excitation_regions(sg.ts, edge):
            for event in trigger_events(sg.ts, region):
                if isinstance(event, SignalEdge):
                    triggers.add(event.signal)
    return triggers


def trigger_signal_count(sg: StateGraph, signal: str) -> int:
    """Number of distinct trigger signals over all ERs of ``signal``."""
    return len(trigger_signals(sg, signal))


def estimate_circuit(sg: StateGraph, name: str = "") -> CircuitEstimate:
    """Estimate the implementation of every non-input signal.

    Requires CSC; propagates :class:`~repro.logic.nextstate.CSCViolationError`
    otherwise.
    """
    implementations: Dict[str, SignalImplementation] = {}
    for signal in sg.non_input_signals:
        function = extract_next_state_function(sg, signal)
        implementations[signal] = SignalImplementation(
            signal=signal,
            function=function,
            trigger_signals=trigger_signals(sg, signal),
            support=_support(function),
        )
    return CircuitEstimate(name=name or sg.name, implementations=implementations)
