"""Next-state functions of non-input signals.

In a speed-independent implementation each non-input signal ``a`` is
produced by a (complex) gate computing its *next-state function*: the
value ``a`` is heading to, as a function of the current signal vector.
The function is well defined exactly when the state graph satisfies CSC —
two states with the same code must imply the same next value for every
non-input signal — which is why CSC is the necessary and sufficient
condition for implementability (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.logic.cubes import Cover, unpack_minterm
from repro.logic.minimize import minimize_packed
from repro.stg.state_graph import StateGraph

Code = Tuple[int, ...]


class CSCViolationError(ValueError):
    """Raised when a next-state function is requested for a state graph
    that still has CSC conflicts on the relevant signal."""


@dataclass
class NextStateFunction:
    """ON/OFF/DC characterisation and minimised cover of one signal."""

    signal: str
    inputs: List[str]
    on_set: List[Code]
    off_set: List[Code]
    cover: Cover

    @property
    def literal_count(self) -> int:
        return self.cover.literal_count()

    @property
    def cube_count(self) -> int:
        return len(self.cover)

    def expression(self) -> str:
        """The minimised function as a boolean expression over signal names."""
        return self.cover.to_expression(self.inputs)

    def evaluate(self, code: Code) -> int:
        return 1 if self.cover.contains_minterm(code) else 0


class NextStateTable:
    """The reachable codes of a state graph with the next values they
    imply, read off the graph's index.

    A state heads to its code with every excited signal flipped: code
    XOR excitation, where the excitation bits are the signals of the
    state's enabled edges.  Per distinct code the table keeps the OR and
    the AND of those next codes over the states carrying it: a set bit
    of the OR says some such state heads to 1, a clear bit of the AND
    says some heads to 0.  Codes are packed (bit ``p`` is
    ``sg.signals[p]``) and listed in the order of their tuples, the order
    :func:`classify_codes` sorts by.
    """

    __slots__ = ("signals", "positions", "ordered", "tuples", "high", "low", "mixed")

    def __init__(self, sg: StateGraph) -> None:
        index = sg.indexed()
        self.signals = list(sg.signals)
        positions = self.positions = index.signal_positions
        signal_bits = [
            1 << positions[name] if name in positions else 0 for name in index.signal_ids
        ]
        excitation = [0] * index.num_states
        for source, _target, signal_id in index.arcs:
            excitation[source] |= signal_bits[signal_id]
        high: Dict[int, int] = {}
        low: Dict[int, int] = {}
        for code, flips in zip(index.codes, excitation):
            heading = code ^ flips
            if code in high:
                high[code] |= heading
                low[code] &= heading
            else:
                high[code] = low[code] = heading
        width = len(self.signals)
        tuples = self.tuples = {code: unpack_minterm(code, width) for code in high}
        self.ordered = sorted(high, key=tuples.__getitem__)
        self.high = high
        self.low = low
        mixed = 0
        for code, heading in high.items():
            mixed |= heading ^ low[code]
        self.mixed = mixed

    def split(self, signal: str) -> Tuple[List[int], List[int]]:
        """Sorted packed ON (next value 1) and OFF (next value 0) codes of
        ``signal``; raises :class:`CSCViolationError` when some code
        requires both."""
        bit = 1 << self.positions[signal]
        high = self.high
        low = self.low
        if self.mixed & bit:
            overlap = sum(1 for code in self.ordered if (high[code] ^ low[code]) & bit)
            raise CSCViolationError(
                f"signal {signal!r} has {overlap} codes with contradictory next values; "
                "solve CSC before extracting logic"
            )
        on = [code for code in self.ordered if high[code] & bit]
        off = [code for code in self.ordered if not low[code] & bit]
        return on, off

    def function(self, signal: str, on: List[int], off: List[int]) -> NextStateFunction:
        """Minimise split codes of ``signal`` into a :class:`NextStateFunction`."""
        tuples = self.tuples
        return NextStateFunction(
            signal=signal,
            inputs=list(self.signals),
            on_set=[tuples[code] for code in on],
            off_set=[tuples[code] for code in off],
            cover=minimize_packed(on, off, len(self.signals)),
        )


def _check_signal(sg: StateGraph, signal: str) -> None:
    if signal not in sg.signals:
        raise KeyError(f"unknown signal {signal!r}")
    if sg.is_input_signal(signal):
        raise ValueError(f"signal {signal!r} is an input; it has no next-state function")


def classify_codes(sg: StateGraph, signal: str) -> Tuple[List[Code], List[Code]]:
    """Validated, sorted ON/OFF code sets for ``signal``.

    The *extraction* half of :func:`extract_next_state_function`, as
    code tuples (:class:`NextStateTable` keeps them packed).  Raises :class:`CSCViolationError` when some reachable code requires
    both next values — i.e. when a CSC conflict involves ``signal``.
    """
    _check_signal(sg, signal)
    table = NextStateTable(sg)
    on, off = table.split(signal)
    tuples = table.tuples
    return [tuples[code] for code in on], [tuples[code] for code in off]


def extract_next_state_function(sg: StateGraph, signal: str) -> NextStateFunction:
    """Extract and minimise the next-state function of ``signal``.

    Raises :class:`CSCViolationError` when some reachable code requires
    both next values — i.e. when a CSC conflict involves ``signal``.
    Unreachable codes are don't cares.
    """
    _check_signal(sg, signal)
    table = NextStateTable(sg)
    return table.function(signal, *table.split(signal))


def extract_all_functions(sg: StateGraph) -> Dict[str, NextStateFunction]:
    """Next-state functions of every non-input signal."""
    table = NextStateTable(sg)
    return {
        signal: table.function(signal, *table.split(signal))
        for signal in sg.non_input_signals
    }
