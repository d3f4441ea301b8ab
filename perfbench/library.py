"""The library workloads (``table2``, ``symbolic``), single-threaded.

One pass runs every spec of the workload once, in the seed's order, each
from ``.g`` text.  An operation is timed from outside, around the calls
into each layer's public functions; its output is checked after the clock
stops.  In a traced run passes alternate between untraced and traced
(``collect_phases`` on) so the same process yields the layer figures and
the tracing overhead.

A shared host runs the same Python code up to 1.7x slower in stretches of
seconds to minutes.  So right before each operation a fixed pure-Python
kernel (:func:`pace`) measures how fast the host runs Python at that
moment; ``run.spec_times`` turns the wall times and these samples into
times at the reference speed.  The benchmark code alone decides the
kernel, so two commits of the program are measured alike.
"""

from __future__ import annotations

import gc
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional

import checks
from stats import LayerTotals

#: Span names the program emits, and the layer metric each one feeds.
SPAN_METRICS = {
    "search.sip": "core.search.sip_s",
    "search.evaluate": "core.search.evaluate_s",
    "search.generate": "core.search.generate_s",
    "search.merge": "core.search.merge_s",
    "search.bricks": "core.search.bricks_s",
    "solver.conflicts": "core.solver.conflicts_s",
    "synth.extract": "synth.extract_s",
    "synth.minimize": "synth.minimize_s",
    "synth.verify": "synth.verify_s",
    "symbolic.detect": "symbolic.detect_s",
    "symbolic.core": "symbolic.core_s",
    "symbolic.materialize": "symbolic.materialize_s",
    "symbolic.solve": "symbolic.solve_s",
}

#: Objects the pace kernel allocates, links and walks.
PACE_OBJECTS = 20_000
#: The pace kernel's time on a fast stretch of the reference host (2-vCPU
#: shared VM, CPython 3.11), so scaled times read as seconds there.
PACE_REFERENCE_S = 0.0055


class _Node:
    __slots__ = ("value", "link")

    def __init__(self, value: int) -> None:
        self.value = value
        self.link: Optional[_Node] = None


def pace() -> float:
    """Wall time of a fixed kernel that allocates, links, walks and frees
    small objects, as the program's own code does: the host's current
    speed for that kind of code.

    The collector is off meanwhile, so the kernel's time does not depend
    on the size of the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        nodes = [_Node(i) for i in range(PACE_OBJECTS)]
        for i in range(1, PACE_OBJECTS):
            nodes[i].link = nodes[i * 7919 % i]
        total = 0
        for node in nodes:
            if node.link is not None:
                total += node.link.value
        del nodes
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def import_layers() -> None:
    """Import every module a timed operation touches, so no pass pays for it."""
    import repro.core.csc  # noqa: F401
    import repro.core.indexed  # noqa: F401
    import repro.core.planes  # noqa: F401
    import repro.core.solver  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.stg.parser  # noqa: F401
    import repro.stg.state_graph  # noqa: F401
    import repro.symbolic  # noqa: F401
    import repro.synth  # noqa: F401
    import repro.ts.equivalence  # noqa: F401


class Operation:
    """The outcome of one timed operation."""

    def __init__(self, spec) -> None:
        self.key = f"{spec.kind}:{spec.name}"
        self.seconds = 0.0
        #: The host's pace right before the operation (see :func:`pace`).
        self.pace = 0.0
        self.solved = False
        self.verdict: Dict[str, object] = {}
        self.error: Optional[str] = None


def _encode(spec, op: Operation, layers: LayerTotals):
    """``table2``: parse → state graph → index → CSC → solve → synth."""
    from repro.core.csc import csc_conflicts
    from repro.core.indexed import indexed_state_graph
    from repro.core.solver import solve_csc
    from repro.stg.parser import parse_g
    from repro.stg.state_graph import build_state_graph
    from repro.synth import synthesize

    settings = spec.settings()
    t0 = time.perf_counter()
    stg = parse_g(spec.g_text)
    t1 = time.perf_counter()
    sg = build_state_graph(stg)
    t2 = time.perf_counter()
    indexed_state_graph(sg)
    t3 = time.perf_counter()
    conflicts = len(csc_conflicts(sg))
    t4 = time.perf_counter()
    result = solve_csc(sg, settings)
    t5 = time.perf_counter()
    synth = synthesize(result.final_sg, name=spec.name) if result.solved else None
    t6 = time.perf_counter()
    op.seconds = t6 - t0

    layers.add("stg.parse_s", t1 - t0)
    layers.add("stg.state_graph_s", t2 - t1)
    layers.add("core.indexed_s", t3 - t2)
    layers.add("core.csc_s", t4 - t3)
    layers.add("core.solve_s", t5 - t4)
    layers.add("stg.states", sg.num_states)
    layers.add("core.conflicts", conflicts)
    layers.add("core.candidates_examined", sum(r.candidates_examined for r in result.records))
    layers.add("core.inserted_signals", result.num_inserted)
    if synth is not None:
        layers.add("synth.synthesize_s", t6 - t5)
        layers.add("synth.literals", synth.literals)
        layers.add("synth.runs", 1)
        layers.add("synth.verified", int(synth.verified))

    op.solved = result.solved
    op.verdict = {
        "fingerprint_sha256": checks.verdict_hash(result.summary()),
        "inserted": result.inserted_signals,
        "literals": synth.literals if synth is not None else None,
        "conflicts": conflicts,
    }
    return lambda: _check_encode(result, conflicts, synth)


def _check_encode(result, conflicts, synth) -> None:
    checks.check_final_graph(result, conflicts)
    if result.solved:
        checks.check_synth(synth)


def _census(spec, op: Operation, layers: LayerTotals):
    from repro.stg.parser import parse_g
    from repro.symbolic import symbolic_census

    t0 = time.perf_counter()
    stg = parse_g(spec.g_text)
    t1 = time.perf_counter()
    census = symbolic_census(stg)
    t2 = time.perf_counter()
    op.seconds = t2 - t0
    layers.add("stg.parse_s", t1 - t0)
    layers.add("symbolic.census_s", t2 - t1)
    layers.add("bdd.nodes", census.bdd_nodes)
    layers.add("bdd.cache_hits", census.cache["hits"])
    layers.add("bdd.cache_lookups", census.cache["hits"] + census.cache["misses"])
    op.verdict = {"states": census.states}
    return lambda: checks.check_census(spec.family, spec.size, census.states)


def _check_csc(spec, op: Operation, layers: LayerTotals):
    from repro.stg.parser import parse_g
    from repro.symbolic import symbolic_check_csc

    t0 = time.perf_counter()
    stg = parse_g(spec.g_text)
    t1 = time.perf_counter()
    report = symbolic_check_csc(stg)
    t2 = time.perf_counter()
    op.seconds = t2 - t0
    layers.add("stg.parse_s", t1 - t0)
    layers.add("symbolic.check_csc_s", t2 - t1)
    op.verdict = {"conflicts": report.csc_pairs}
    return lambda: checks.check_census(spec.family, spec.size, report.states)


def _symbolic_encode(spec, op: Operation, layers: LayerTotals):
    from repro.stg.parser import parse_g
    from repro.symbolic import symbolic_encode

    settings = spec.settings()
    t0 = time.perf_counter()
    stg = parse_g(spec.g_text)
    t1 = time.perf_counter()
    outcome = symbolic_encode(stg, settings)
    t2 = time.perf_counter()
    op.seconds = t2 - t0
    layers.add("stg.parse_s", t1 - t0)
    layers.add("symbolic.encode_s", t2 - t1)
    result = outcome.result
    op.solved = outcome.solved
    op.verdict = {
        "fingerprint_sha256": checks.verdict_hash(outcome.summary()),
        "inserted": outcome.inserted_signals,
        "conflicts": outcome.report.csc_pairs,
    }

    def check() -> None:
        if outcome.mode != "hybrid" or result is None:
            raise checks.CheckFailed(f"{spec.name}: took the {outcome.mode!r} path, not hybrid")
        checks.check_final_graph(result, outcome.report.csc_pairs)

    return check


RUNNERS = {
    "encode": _encode,
    "census": _census,
    "check": _check_csc,
    "symbolic_encode": _symbolic_encode,
}


def run_operation(spec, layers: LayerTotals, traced: bool) -> Operation:
    """Run, time and check one operation; failures are recorded, not raised."""
    from repro.obs import collect_phases

    op = Operation(spec)
    # Start every operation from an empty collector generation, so when
    # the collector runs does not depend on the specs before it.
    gc.collect()
    op.pace = pace()
    try:
        with collect_phases() if traced else nullcontext({}) as phases:
            check = RUNNERS[spec.kind](spec, op, layers)
        for span_name, metric in SPAN_METRICS.items():
            if span_name in phases:
                layers.add(metric, phases[span_name])
        check()
    except Exception as error:  # one failed spec must not end the run
        op.error = f"{op.key}: {type(error).__name__}: {error}"
        traceback.print_exc(file=sys.stderr)
    return op


def check_against_pins(ops: List[Operation], pinned: Dict[str, Dict], first_pass: Dict[str, Dict]):
    """Fail operations whose CSC pair count moved from the pin, or whose
    encoding differs from the same spec's encoding earlier in this run."""
    for op in ops:
        if op.error is not None:
            continue
        pin = pinned.get(op.key)
        if pin is not None and "conflicts" in pin and pin["conflicts"] != op.verdict.get("conflicts"):
            op.error = f"{op.key}: {op.verdict.get('conflicts')} CSC pairs, pinned {pin['conflicts']}"
        earlier = first_pass.setdefault(op.key, op.verdict)
        if earlier != op.verdict:
            op.error = f"{op.key}: encoding differs from an earlier pass"
        if op.error is not None:
            print(op.error, file=sys.stderr)
