"""A small ROBDD engine.

The paper attributes petrify's ability to handle STGs with very large
state spaces (Table 1) to two ingredients: exploring blocks of states at
the level of regions, and representing the state graph symbolically with
Ordered Binary Decision Diagrams.  This package provides the second
ingredient's substrate: a reduced ordered BDD manager
(``repro.bdd.bdd``).  The symbolic state graphs built on it live in
:mod:`repro.symbolic`.
"""

from repro.bdd.bdd import (
    BDD,
    interleaved_pair_levels,
    prime_map,
    unprime_map,
)

__all__ = [
    "BDD",
    "interleaved_pair_levels",
    "prime_map",
    "unprime_map",
]
