"""High-level convenience API.

``encode_stg`` is the one-call entry point a downstream user typically
wants: STG in, CSC-satisfying encoded specification (plus logic estimate
and, optionally, a re-synthesised STG) out.  ``encode_many`` is its
batch twin: a sequence of STGs encoded concurrently through the process
pool of :mod:`repro.engine.batch` (``jobs=N`` workers, results in input
order and byte-identical to a serial run).  The pieces are all available
individually in :mod:`repro.core`, :mod:`repro.stg`, :mod:`repro.logic`
and :mod:`repro.petri` for finer control.

Single-STG encoding is itself accelerated by the engine caches
(:mod:`repro.engine.caches`): brick decomposition and adjacency are
memoized on each state graph and selectively carried over across signal
insertions, block cost evaluations are memoized per search, and CSC
conflicts are re-analysed incrementally after every insertion.  The
caches never change results: the golden records of
``tests/library_pins.json`` pin them.

For long-running deployments, :class:`EncodingService`
(:mod:`repro.service`) layers a durable job queue, a content-addressed
persistent result store, multi-tenancy and worker processes over
``encode_many``; :func:`serve` exposes it over the network as the
versioned ``/v1`` HTTP API (``pyetrify serve``) and :func:`connect`
returns a client for a running instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.csc import csc_summary
from repro.core.solver import EncodingResult, SolverSettings, solve_csc
from repro.engine.batch import BatchItem, BatchResult, encode_many
from repro.logic.netlist import CircuitEstimate, estimate_circuit
from repro.obs import span
from repro.petri.synthesis import SynthesisError, synthesize_stg
from repro.stg.state_graph import StateGraph, build_state_graph
from repro.stg.stg import STG
from repro.utils.timing import Stopwatch

__all__ = [
    "EncodingReport",
    "EncodingService",
    "ServiceClient",
    "analyze_stg",
    "encode_stg",
    "encode_many",
    "serve",
    "connect",
    "BatchItem",
    "BatchResult",
]

def __getattr__(name: str):
    # Lazy: the service tier pulls in sqlite3/asyncio plumbing that
    # plain library users of encode_stg/encode_many never need.
    if name == "EncodingService":
        from repro.service import EncodingService

        return EncodingService
    if name == "ServiceClient":
        from repro.service.client import ServiceClient

        return ServiceClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def serve(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
    cors_origins=None,
):
    """Bind the ``/v1`` HTTP front for an :class:`EncodingService`.

    Returns the bound-but-not-serving server (port ``0`` picks an
    ephemeral one, final in ``.port``); call ``serve_forever()`` — or
    drive it from a thread — and stop it with ``shutdown()`` +
    ``server_close()``.  ``cors_origins`` is an optional list of allowed
    browser origins (``["*"]`` allows any); without it the API sends no
    CORS headers.
    """
    from repro.service.asgi import serve_asgi

    return serve_asgi(service, host=host, port=port, verbose=verbose, cors_origins=cors_origins)


def connect(base_url: str, api_key: Optional[str] = None, timeout: float = 30.0):
    """A :class:`~repro.service.client.ServiceClient` for a running service."""
    from repro.service.client import ServiceClient

    return ServiceClient(base_url, api_key=api_key, timeout=timeout)


@dataclass
class EncodingReport:
    """Everything produced by one end-to-end encoding run."""

    stg: STG
    state_graph: StateGraph
    result: EncodingResult
    circuit: Optional[CircuitEstimate] = None
    encoded_stg: Optional[STG] = None
    resynthesis_error: Optional[str] = None
    synth: Optional[object] = None  # repro.synth.SynthResult when synth=True
    total_seconds: float = 0.0

    @property
    def solved(self) -> bool:
        return self.result.solved

    @property
    def inserted_signals(self) -> list:
        return self.result.inserted_signals

    @property
    def area_literals(self) -> Optional[int]:
        return self.circuit.total_literals if self.circuit is not None else None

    def table_row(self) -> Dict[str, object]:
        """A flat dictionary with the fields reported in the benchmark tables."""
        stats = self.stg.stats()
        row: Dict[str, object] = {
            "benchmark": self.stg.name,
            "places": stats["places"],
            "transitions": stats["transitions"],
            "signals": stats["signals"],
            "states": self.state_graph.num_states,
            "inserted": self.result.num_inserted,
            "solved": self.result.solved,
            "cpu": round(self.total_seconds, 2),
        }
        if self.circuit is not None:
            row["area"] = self.circuit.total_literals
        return row


def analyze_stg(stg: STG, max_states: Optional[int] = None) -> Dict[str, object]:
    """Size and CSC statistics of an STG without solving anything."""
    sg = build_state_graph(stg, max_states=max_states)
    info: Dict[str, object] = dict(stg.stats())
    info.update(csc_summary(sg))
    info.update(sg.speed_independence_report())
    return info


def encode_stg(
    stg: STG,
    settings: Optional[SolverSettings] = None,
    estimate_logic: bool = True,
    resynthesize: bool = False,
    max_states: Optional[int] = None,
    synth: bool = False,
) -> EncodingReport:
    """Solve CSC for an STG and (optionally) estimate logic / rebuild an STG.

    Parameters
    ----------
    stg:
        The input specification.  It must be safe and consistent.
    settings:
        Solver settings (frontier width, brick granularity, …).
    estimate_logic:
        Extract and minimise the next-state functions of the encoded state
        graph; only possible when CSC was actually solved.
    resynthesize:
        Re-derive an STG from the encoded state graph via region-based
        Petri-net synthesis, so the result can be written back to ``.g``.
    max_states:
        Safety bound on explicit state-graph construction.
    synth:
        Run the full synthesis tier (:func:`repro.synth.synthesize`) on
        the encoded state graph: concrete gate network, equation /
        Verilog / BLIF emission, gate-level verification against the SG
        token game.  The result lands in ``report.synth``; the logic
        estimate is reused from it rather than recomputed.  Encoding
        fields (``result``, ``table_row()``) are unaffected, so
        fingerprints stay byte-identical with synthesis on or off.
    """
    watch = Stopwatch().start()
    with span("reachability", name=stg.name):
        sg = build_state_graph(stg, max_states=max_states)
    with span("solve", name=stg.name):
        result = solve_csc(sg, settings)

    circuit: Optional[CircuitEstimate] = None
    synth_result = None
    if synth and result.solved:
        from repro.synth import synthesize

        synth_result = synthesize(result.final_sg, name=stg.name)
        if estimate_logic:
            # same covers by construction; don't minimise twice
            circuit = synth_result.estimate
    elif estimate_logic and result.solved:
        with span("logic", name=stg.name):
            circuit = estimate_circuit(result.final_sg, name=stg.name)

    encoded_stg: Optional[STG] = None
    resynthesis_error: Optional[str] = None
    if resynthesize and result.solved:
        with span("resynthesize", name=stg.name):
            try:
                encoded_stg = synthesize_stg(result.final_sg, name=f"{stg.name}_csc")
            except SynthesisError as error:
                resynthesis_error = str(error)

    return EncodingReport(
        stg=stg,
        state_graph=sg,
        result=result,
        circuit=circuit,
        encoded_stg=encoded_stg,
        resynthesis_error=resynthesis_error,
        synth=synth_result,
        total_seconds=watch.stop(),
    )
