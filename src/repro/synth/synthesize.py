"""Synthesis proper: encoded state graph -> verified gate network.

``synthesize`` is the one entry point of the tier.  It reuses the
``repro.logic`` machinery (code classification, espresso-style cover
minimisation, trigger-signal statistics) to build per-output complex
gates, optionally decomposes wide covers into 2-input gates, emits the
three netlist formats, and — unless told otherwise — plays the result
against the SG token game so the returned :class:`SynthResult` carries an
honest ``verified`` flag.

Extraction and verification read the graph's
:class:`~repro.core.indexed.IndexedStateGraph` (the final graph of a
solve carries the one the search built): packed codes, excitation masks,
signal arcs and successor lists, with no lookups by state object.

Observability: the phases show up as ``synth.extract`` /
``synth.minimize`` / ``synth.decompose`` / ``synth.verify`` spans, and
the ``pyetrify_synth_*`` metric family counts runs and verification
outcomes.  Like every obs surface in this codebase, none of it affects
results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.logic.netlist import CircuitEstimate, SignalImplementation, _support, trigger_signals
from repro.logic.nextstate import NextStateTable
from repro.obs import REGISTRY, span
from repro.stg.state_graph import StateGraph
from repro.synth.decompose import decompose_network
from repro.synth.emit import emit_blif, emit_equations, emit_verilog
from repro.synth.network import GateNetwork, build_network
from repro.synth.simulate import VerificationReport, verify_network

_SYNTH_RUNS = REGISTRY.counter(
    "pyetrify_synth_runs_total",
    "Synthesis runs by outcome",
    labelnames=("status",),
)
_SYNTH_VERIFIED = REGISTRY.counter(
    "pyetrify_synth_verified_total",
    "Netlists that passed gate-level verification against the SG",
)
_SYNTH_LITERALS = REGISTRY.histogram(
    "pyetrify_synth_literals",
    "Literal count of synthesized netlists",
    buckets=(8, 16, 32, 64, 128, 256, 512),
)


@dataclass
class SynthResult:
    """Everything synthesis produced for one controller."""

    name: str
    network: GateNetwork
    estimate: CircuitEstimate
    equations: str
    verilog: str
    blif: str
    verified: bool = False
    verification: Optional[VerificationReport] = None
    decomposed: bool = False
    decomposition: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def literals(self) -> int:
        return self.network.literal_count()

    def summary(self) -> Dict[str, Any]:
        row = self.network.summary()
        row["name"] = self.name
        row["verified"] = self.verified
        row["decomposed"] = self.decomposed
        return row

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe view carried through batch items and service results."""
        return {
            "status": "ok",
            "name": self.name,
            "summary": self.network.summary(),
            "verified": self.verified,
            "verification": self.verification.as_dict() if self.verification else None,
            "decomposed": self.decomposed,
            "decomposition": self.decomposition,
            "equations": self.equations,
            "verilog": self.verilog,
            "blif": self.blif,
        }


def synthesize(
    sg: StateGraph,
    name: str = "",
    decompose: bool = False,
    verify: bool = True,
    max_configs: int = 20000,
) -> SynthResult:
    """Synthesize, optionally decompose, and verify a netlist for ``sg``.

    ``sg`` must satisfy CSC (propagates
    :class:`~repro.logic.nextstate.CSCViolationError` otherwise).  With
    ``decompose=True`` wide complex gates are rewritten into 2-input
    gates; if the budgeted hazard check rejects the decomposition the
    complex-gate network is returned instead, with the reason recorded in
    ``decomposition``.
    """
    started = time.perf_counter()
    name = name or sg.name
    try:
        # Everything that reads the state graph is extraction; the
        # minimize span times the covers alone.
        with span("synth.extract", name=name):
            table = NextStateTable(sg)
            codes = {signal: table.split(signal) for signal in sg.non_input_signals}
            triggers = {signal: trigger_signals(sg, signal) for signal in codes}
        with span("synth.minimize", name=name):
            functions = {
                signal: table.function(signal, on, off) for signal, (on, off) in codes.items()
            }
        implementations = {
            signal: SignalImplementation(
                signal=signal,
                function=fn,
                trigger_signals=triggers[signal],
                support=_support(fn),
            )
            for signal, fn in functions.items()
        }
        estimate = CircuitEstimate(name=name, implementations=implementations)
    except Exception:
        _SYNTH_RUNS.labels(status="error").inc()
        raise

    network = build_network(name, sg.signals, sg.input_signals, functions)
    decomposed = False
    decomposition: Dict[str, Any] = {}
    candidate = network
    if decompose:
        with span("synth.decompose", name=name):
            candidate, info = decompose_network(network)
            decomposition = dict(info)
            decomposed = candidate.is_decomposed

    verification: Optional[VerificationReport] = None
    verified = False
    if verify:
        with span("synth.verify", name=name, mode="decomposed" if decomposed else "complex"):
            verification = verify_network(candidate, sg, max_configs=max_configs)
            if decomposed and not verification.ok:
                # hazard or budget: fall back to the complex-gate network
                decomposition["fallback"] = (
                    "budget_exceeded" if verification.budget_exceeded else "hazard"
                )
                decomposition["rejected"] = verification.as_dict()["mismatches"]
                candidate = network
                decomposed = False
                verification = verify_network(network, sg, max_configs=max_configs)
            verified = verification.ok

    result = SynthResult(
        name=name,
        network=candidate,
        estimate=estimate,
        equations=emit_equations(candidate),
        verilog=emit_verilog(candidate),
        blif=emit_blif(candidate),
        verified=verified,
        verification=verification,
        decomposed=decomposed,
        decomposition=decomposition,
        seconds=time.perf_counter() - started,
    )
    _SYNTH_RUNS.labels(status="ok" if (verified or not verify) else "unverified").inc()
    if verified:
        _SYNTH_VERIFIED.inc()
    _SYNTH_LITERALS.observe(float(result.literals))
    return result
