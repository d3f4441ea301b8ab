"""The paper's contribution: region-based Complete State Coding.

The pipeline is:

0. :mod:`repro.core.indexed` interns the state graph into the canonical
   integer/bitset representation every stage below computes on (states
   as indices, state sets as int bitmasks, binary codes as packed ints).
1. :mod:`repro.core.csc` finds CSC conflicts in a binary-encoded state
   graph.
2. :mod:`repro.core.regions` / :mod:`repro.core.excitation` /
   :mod:`repro.core.bricks` compute regions, excitation regions and the
   "bricks" (minimal regions and intersections of pre/post-regions) from
   which insertion blocks are assembled.
3. :mod:`repro.core.ipartition` defines the I-partition
   ``S0 / S+ / S1 / S-`` a block of states induces via minimal
   well-formed exit borders (derived on bitmasks by the cost kernel of
   :mod:`repro.core.indexed`).
4. :mod:`repro.core.insertion` inserts a new signal according to the
   splitting scheme of Figure 2; :mod:`repro.core.sip` checks that the
   insertion preserves speed independence.
5. :mod:`repro.core.search` runs the Figure-4 heuristic search guided by
   the cost model of :mod:`repro.core.cost`, and :mod:`repro.core.solver`
   iterates signal insertion until CSC holds.
"""

from repro.core.regions import (
    Crossing,
    crossing,
    is_region,
    is_trivial_region,
    minimal_preregions,
    minimal_postregions,
    minimal_regions_containing,
    all_minimal_regions,
)
from repro.core.excitation import excitation_regions, switching_regions, excitation_set
from repro.core.csc import (
    CSCConflict,
    csc_conflicts,
    usc_conflicts,
    has_csc,
    has_usc,
    conflicting_signals,
)
from repro.core.ipartition import IPartition
from repro.core.indexed import (
    IndexedEvaluator,
    IndexedStateGraph,
    indexed_brick_bundle,
    indexed_state_graph,
)
from repro.core.insertion import insert_signal
from repro.core.sip import InsertionCheck, check_insertion
from repro.core.cost import Cost
from repro.core.search import SearchSettings, InsertionPlan, find_insertion_plan
from repro.core.solver import SolverSettings, EncodingResult, InsertionRecord, solve_csc

__all__ = [
    "Crossing",
    "crossing",
    "is_region",
    "is_trivial_region",
    "minimal_preregions",
    "minimal_postregions",
    "minimal_regions_containing",
    "all_minimal_regions",
    "excitation_regions",
    "switching_regions",
    "excitation_set",
    "CSCConflict",
    "csc_conflicts",
    "usc_conflicts",
    "has_csc",
    "has_usc",
    "conflicting_signals",
    "IPartition",
    "IndexedEvaluator",
    "IndexedStateGraph",
    "indexed_brick_bundle",
    "indexed_state_graph",
    "insert_signal",
    "InsertionCheck",
    "check_insertion",
    "Cost",
    "SearchSettings",
    "InsertionPlan",
    "find_insertion_plan",
    "SolverSettings",
    "EncodingResult",
    "InsertionRecord",
    "solve_csc",
]
