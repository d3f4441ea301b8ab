"""Per-signal complex-gate implementations and circuit-level estimates.

The paper approximates circuit complexity by the number of *trigger
signals* of each excitation region (Section 5) and reports post-synthesis
area in Table 2.  This module provides both figures for a CSC-satisfying
state graph: trigger-signal counts and the literal count of the minimised
next-state covers as the area proxy.

Both are read off the graph's
:class:`~repro.core.indexed.IndexedStateGraph`, the index the CSC
search computed on: the union of an event's excitation regions is its
``er_mask``, and the triggers of all its regions are the signals of the
arcs entering that mask (an arc between two states of the union joins
them into one region, so no region is entered from another).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.core.indexed import bits_of
from repro.logic.nextstate import NextStateFunction, NextStateTable
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
    index = sg.indexed()
    names = list(index.signal_ids)
    in_arcs = index.in_sig_arcs
    found: Set[int] = set()
    for edge in (SignalEdge.rise(signal), SignalEdge.fall(signal)):
        members = bits_of(index.er_mask(edge))
        inside = set(members)
        for target in members:
            for source, signal_id in in_arcs[target]:
                if source not in inside:
                    found.add(signal_id)
    return {names[signal_id] for signal_id in found}


def trigger_signal_count(sg: StateGraph, signal: str) -> int:
    """Number of distinct trigger signals over all ERs of ``signal``."""
    return len(trigger_signals(sg, signal))


def estimate_circuit(sg: StateGraph, name: str = "") -> CircuitEstimate:
    """Estimate the implementation of every non-input signal.

    Requires CSC; propagates :class:`~repro.logic.nextstate.CSCViolationError`
    otherwise.
    """
    implementations: Dict[str, SignalImplementation] = {}
    table = NextStateTable(sg)
    for signal in sg.non_input_signals:
        function = table.function(signal, *table.split(signal))
        implementations[signal] = SignalImplementation(
            signal=signal,
            function=function,
            trigger_signals=trigger_signals(sg, signal),
            support=_support(function),
        )
    return CircuitEstimate(name=name or sg.name, implementations=implementations)
