"""Signals, signal types and signal-transition labels.

The paper writes ``x+`` and ``x-`` for the rising and falling transitions
of a signal ``x``; STG transition names may carry an occurrence index
(``x+/2``) when the same signal change appears several times in the net.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

RISE = 1
FALL = -1

_EDGE_RE = re.compile(r"^(?P<signal>[A-Za-z_][\w\.\[\]]*)(?P<dir>[+\-~])(?:/(?P<index>\d+))?$")


class SignalType(Enum):
    """Role of a signal in the specification.

    Inputs are controlled by the environment: the encoding process is not
    allowed to delay them (Section 5, "x cannot be inserted before input
    events").  Outputs and internal signals are produced by the circuit and
    must satisfy CSC; internal signals (including inserted state signals)
    are additionally invisible to the environment.
    """

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    DUMMY = "dummy"

    @property
    def is_input(self) -> bool:
        return self is SignalType.INPUT

    @property
    def is_noninput(self) -> bool:
        return self in (SignalType.OUTPUT, SignalType.INTERNAL)


@dataclass(frozen=True, order=True)
class SignalEdge:
    """A signal transition label: ``signal`` changes in ``direction``.

    ``index`` distinguishes multiple occurrences of the same signal change
    in an STG (``a+/1`` vs ``a+/2``).  In a state graph the occurrence
    index is dropped (see :meth:`base`): all occurrences of ``a+`` denote
    the same value change of the same signal.
    """

    signal: str
    direction: int
    index: int = 0

    def __post_init__(self) -> None:
        if self.direction not in (RISE, FALL):
            raise ValueError(f"direction must be RISE(+1) or FALL(-1), got {self.direction}")
        if self.index < 0:
            raise ValueError("occurrence index must be non-negative")
        # Edges key every per-event table of the engine, so the hash the
        # dataclass would compute on each call is computed once.  It is
        # the same value, so set and dict orders stay as they were.
        object.__setattr__(self, "_hash", hash((self.signal, self.direction, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # The fields compared as the dataclass would, after the cheap
        # identity and cached-hash tests.
        if other.__class__ is not SignalEdge:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.signal == other.signal
            and self.direction == other.direction
            and self.index == other.index
        )

    def __reduce__(self):
        # Rebuilt from the fields, so the hash is recomputed under the
        # loading process's string hash seed instead of unpickled.
        return (SignalEdge, (self.signal, self.direction, self.index))

    # -- constructors ----------------------------------------------------
    @classmethod
    def rise(cls, signal: str, index: int = 0) -> "SignalEdge":
        return cls(signal, RISE, index)

    @classmethod
    def fall(cls, signal: str, index: int = 0) -> "SignalEdge":
        return cls(signal, FALL, index)

    @classmethod
    def parse(cls, text: str) -> "SignalEdge":
        """Parse ``"a+"``, ``"req-/2"`` and friends."""
        match = _EDGE_RE.match(text.strip())
        if match is None or match.group("dir") == "~":
            raise ValueError(f"not a signal transition label: {text!r}")
        direction = RISE if match.group("dir") == "+" else FALL
        index = int(match.group("index")) if match.group("index") else 0
        return cls(match.group("signal"), direction, index)

    @staticmethod
    def is_edge_label(text: str) -> bool:
        """True iff ``text`` syntactically looks like a signal transition."""
        match = _EDGE_RE.match(text.strip())
        return match is not None and match.group("dir") != "~"

    # -- queries ---------------------------------------------------------
    @property
    def is_rising(self) -> bool:
        return self.direction == RISE

    def base(self) -> "SignalEdge":
        """The same signal change without its occurrence index."""
        if self.index == 0:
            return self
        return SignalEdge(self.signal, self.direction)

    def opposite(self) -> "SignalEdge":
        """The complementary change of the same signal (index dropped)."""
        return SignalEdge(self.signal, -self.direction)

    def value_before(self) -> int:
        """Value the signal must hold for this edge to be enabled."""
        return 0 if self.is_rising else 1

    def value_after(self) -> int:
        """Value the signal holds right after this edge fires."""
        return 1 if self.is_rising else 0

    # -- formatting -------------------------------------------------------
    def __str__(self) -> str:
        sign = "+" if self.is_rising else "-"
        suffix = f"/{self.index}" if self.index else ""
        return f"{self.signal}{sign}{suffix}"

    def __repr__(self) -> str:
        return f"SignalEdge({self.__str__()!r})"

