"""repro: region-based state encoding for asynchronous circuit synthesis.

A reproduction of Cortadella, Kishinevsky, Kondratyev, Lavagno, Yakovlev,
"Methodology and Tools for State Encoding in Asynchronous Circuit
Synthesis", DAC 1996 — the Complete State Coding (CSC) engine of petrify.

Typical use::

    from repro import encode_stg, read_g_file

    stg = read_g_file("controller.g")
    report = encode_stg(stg, resynthesize=True)
    print(report.inserted_signals, report.area_literals)
"""

from importlib import import_module

#: Each public name and the module that defines it.  The names load on
#: first use (PEP 562), so ``import repro`` stays cheap and pulls in
#: neither the engine nor numpy.
_EXPORTS = {
    "EncodingReport": "repro.api",
    "analyze_stg": "repro.api",
    "encode_stg": "repro.api",
    "STG": "repro.stg",
    "SignalEdge": "repro.stg",
    "SignalType": "repro.stg",
    "StateGraph": "repro.stg",
    "build_state_graph": "repro.stg",
    "parse_g": "repro.stg",
    "read_g_file": "repro.stg",
    "stg_to_g_text": "repro.stg",
    "write_g": "repro.stg",
    "SearchSettings": "repro.core",
    "SolverSettings": "repro.core",
    "csc_conflicts": "repro.core",
    "has_csc": "repro.core",
    "solve_csc": "repro.core",
    "estimate_circuit": "repro.logic",
    "PetriNet": "repro.petri",
    "build_reachability_graph": "repro.petri",
    "synthesize_net": "repro.petri.synthesis",
    "synthesize_stg": "repro.petri.synthesis",
    "TransitionSystem": "repro.ts",
}

# The single source of the package version: pyproject.toml reads it via
# ``[tool.setuptools.dynamic]`` and the CLI exposes it as ``pyetrify
# --version``, so this constant is the only place it is ever bumped.
__version__ = "0.8.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
