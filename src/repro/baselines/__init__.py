"""Baseline state-encoding methods the paper compares against.

* :mod:`repro.baselines.assassin` — an encoder restricted to excitation
  regions as insertion material, the coarser granularity the paper
  attributes to the ASSASSIN line of work ([5], [9]).

It reuses the same I-partition construction, SIP validity check, cost
model and iteration loop as the region-based method, so differences in
results isolate exactly the granularity of the explored design space —
which is the comparison the paper's experimental section makes.  The
state-level granularity of the generalised state-assignment framework
of [8] ("sand, not bricks") is the search setting
``SearchSettings(brick_mode="states")`` (``--bricks states`` on the
command line), not a separate encoder.
"""

from repro.baselines.assassin import solve_csc_assassin

__all__ = ["solve_csc_assassin"]
