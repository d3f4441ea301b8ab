"""Signal Transition Graphs (STGs).

An STG is a Petri net whose transitions are labelled with rising (``a+``)
and falling (``a-``) transitions of circuit signals.  This package
provides the STG model, a parser/writer for the ``.g`` (astg) exchange
format used by SIS / petrify, and the elaboration of an STG into its
binary-encoded state graph (the transition system on which the CSC theory
of the paper operates).
"""

from repro.stg.signals import (
    FALL,
    RISE,
    SignalEdge,
    SignalType,
)
from repro.stg.stg import STG, net_components
from repro.stg.parser import parse_g, read_g_file
from repro.stg.writer import write_g, stg_to_g_text
from repro.stg.state_graph import (
    StateGraph,
    InconsistentSTGError,
    build_state_graph,
    infer_encoding,
)

__all__ = [
    "RISE",
    "FALL",
    "SignalEdge",
    "SignalType",
    "STG",
    "net_components",
    "parse_g",
    "read_g_file",
    "write_g",
    "stg_to_g_text",
    "StateGraph",
    "InconsistentSTGError",
    "build_state_graph",
    "infer_encoding",
]
