"""Speed-independent logic estimation.

Once CSC holds, every non-input signal has a well-defined next-state
function of the signal vector.  This package extracts those functions from
the encoded state graph, minimises them as two-level covers (an
espresso-style expand / irredundant-cover heuristic working from explicit
ON/OFF sets), and reports literal counts — the "area" proxy used to
reproduce Table 2 — together with per-signal complex-gate descriptions and
trigger-signal statistics.

.. note::
   :func:`estimate_circuit` is the *estimation* half of the story; the
   full synthesis pipeline (concrete gate networks, emitters, gate-level
   verification against the SG token game) lives in :mod:`repro.synth`,
   which re-exports the estimate types.  New code that wants a netlist
   rather than a literal count should call :func:`repro.synth.synthesize`;
   the covers are identical by construction, and
   ``tests/test_synth.py`` pins the equality on every solvable library
   case.
"""

from repro.logic.cubes import Cube, Cover
from repro.logic.minimize import minimize_cover, expand_cube, verify_cover
from repro.logic.nextstate import (
    CSCViolationError,
    NextStateFunction,
    classify_codes,
    extract_next_state_function,
)
from repro.logic.netlist import (
    SignalImplementation,
    CircuitEstimate,
    estimate_circuit,
    trigger_signal_count,
    trigger_signals,
)

__all__ = [
    "Cube",
    "Cover",
    "minimize_cover",
    "expand_cube",
    "verify_cover",
    "CSCViolationError",
    "NextStateFunction",
    "classify_codes",
    "extract_next_state_function",
    "SignalImplementation",
    "CircuitEstimate",
    "estimate_circuit",
    "trigger_signal_count",
    "trigger_signals",
]
