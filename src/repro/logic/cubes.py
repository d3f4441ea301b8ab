"""Cubes and covers for two-level logic.

A *cube* over ``n`` variables assigns each variable one of ``0``, ``1`` or
``-`` (don't care); it denotes the conjunction of the corresponding
literals.  A *cover* is a list of cubes denoting their disjunction.  Cubes
are stored as a pair of bit masks (``care``, ``value``) so the containment
and intersection tests used by the minimiser are single integer
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

Minterm = Tuple[int, ...]


def pack_minterm(minterm: Sequence[int]) -> int:
    """The minterm as an integer: bit ``v`` is set when variable ``v`` is 1."""
    packed = 0
    for position, bit in enumerate(minterm):
        if bit:
            packed |= 1 << position
    return packed


def unpack_minterm(packed: int, width: int) -> Minterm:
    """The inverse of :func:`pack_minterm` over ``width`` variables."""
    return tuple((packed >> position) & 1 for position in range(width))


@dataclass(frozen=True)
class Cube:
    """A product term over ``width`` binary variables."""

    width: int
    care: int
    value: int

    def __post_init__(self) -> None:
        mask = (1 << self.width) - 1
        if self.care & ~mask:
            raise ValueError("care mask wider than the declared width")
        if self.value & ~self.care:
            raise ValueError("value bits set outside the care mask")

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_minterm(cls, minterm: Sequence[int]) -> "Cube":
        width = len(minterm)
        care = (1 << width) - 1
        value = 0
        for position, bit in enumerate(minterm):
            if bit not in (0, 1):
                raise ValueError("minterm entries must be 0 or 1")
            if bit:
                value |= 1 << position
        return cls(width, care, value)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse ``"1-0"`` style cube strings (index 0 is the leftmost)."""
        width = len(text)
        care = value = 0
        for position, char in enumerate(text):
            if char == "-":
                continue
            care |= 1 << position
            if char == "1":
                value |= 1 << position
            elif char != "0":
                raise ValueError(f"invalid cube character {char!r}")
        return cls(width, care, value)

    @classmethod
    def full(cls, width: int) -> "Cube":
        """The universal cube (no literals)."""
        return cls(width, 0, 0)

    # -- queries ---------------------------------------------------------
    def literal_count(self) -> int:
        return self.care.bit_count()

    def literal(self, position: int) -> str:
        """``"0"``, ``"1"`` or ``"-"`` for the given variable position."""
        if not (self.care >> position) & 1:
            return "-"
        return "1" if (self.value >> position) & 1 else "0"

    def contains_minterm(self, minterm: Sequence[int]) -> bool:
        return (pack_minterm(minterm) & self.care) == self.value

    def contains_cube(self, other: "Cube") -> bool:
        """True iff every minterm of ``other`` is a minterm of this cube."""
        if self.width != other.width:
            raise ValueError("cube widths differ")
        if self.care & ~other.care:
            return False
        return (other.value & self.care) == self.value

    def intersects(self, other: "Cube") -> bool:
        """True iff the two cubes share at least one minterm."""
        if self.width != other.width:
            raise ValueError("cube widths differ")
        common = self.care & other.care
        return (self.value & common) == (other.value & common)

    def without_literal(self, position: int) -> "Cube":
        """The cube with the literal at ``position`` dropped (expanded)."""
        mask = ~(1 << position)
        return Cube(self.width, self.care & mask, self.value & mask)

    def to_string(self) -> str:
        return "".join(self.literal(position) for position in range(self.width))

    def to_expression(self, names: Sequence[str]) -> str:
        """Render as a product of literals, e.g. ``a & !b``."""
        parts: List[str] = []
        for position in range(self.width):
            literal = self.literal(position)
            if literal == "1":
                parts.append(names[position])
            elif literal == "0":
                parts.append(f"!{names[position]}")
        return " & ".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.to_string()


class Cover:
    """A disjunction of cubes (sum of products)."""

    def __init__(self, width: int, cubes: Iterable[Cube] = ()) -> None:
        self.width = width
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.add(cube)

    def add(self, cube: Cube) -> None:
        if cube.width != self.width:
            raise ValueError("cube width does not match cover width")
        self.cubes.append(cube)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)

    def literal_count(self) -> int:
        """Total number of literals — the area proxy used by Table 2."""
        return sum(cube.literal_count() for cube in self.cubes)

    def contains_minterm(self, minterm: Sequence[int]) -> bool:
        packed = pack_minterm(minterm)
        return any((packed & cube.care) == cube.value for cube in self.cubes)

    def to_expression(self, names: Sequence[str]) -> str:
        if not self.cubes:
            return "0"
        return " | ".join(f"({cube.to_expression(names)})" for cube in self.cubes)

    def to_strings(self) -> List[str]:
        return [cube.to_string() for cube in self.cubes]

    def __repr__(self) -> str:
        return f"Cover(width={self.width}, cubes={self.to_strings()})"
