"""Substrate benchmark: explicit vs symbolic (BDD) state-space traversal.

Table 1's ability to handle huge state graphs rests on the symbolic
representation of the state space.  This harness measures explicit and
BDD-based reachability on the scalable ``par(n)`` family and shows the
symbolic engine extending well past the point where explicit enumeration
is practical (the symbolic row for n=16 corresponds to the ``par16``
entry of Table 1).
"""

import pytest

from repro.bench_stg import generators as gen
from repro.petri import build_reachability_graph
from repro.symbolic import symbolic_census


@pytest.mark.parametrize("branches", [4, 6, 8], ids=lambda n: f"explicit-par{n}")
def test_explicit_reachability(branches, benchmark, report_sink):
    net = gen.parallel_toggles(branches).net
    result = benchmark.pedantic(
        lambda: build_reachability_graph(net), rounds=1, iterations=1
    )
    report_sink.setdefault("Substrate: explicit vs symbolic reachability", []).append(
        {
            "benchmark": f"par{branches}",
            "engine": "explicit",
            "states": result.num_markings,
        }
    )


@pytest.mark.parametrize("branches", [8, 12, 16], ids=lambda n: f"symbolic-par{n}")
def test_symbolic_reachability(branches, benchmark, report_sink):
    stg = gen.parallel_toggles(branches)
    census = benchmark.pedantic(lambda: symbolic_census(stg), rounds=1, iterations=1)
    count = census.states
    assert count == 2 ** (branches + 1) + 2
    report_sink.setdefault("Substrate: explicit vs symbolic reachability", []).append(
        {
            "benchmark": f"par{branches}",
            "engine": "BDD",
            "states": count,
        }
    )
