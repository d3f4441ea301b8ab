"""Workload inputs: the specifications each workload runs, made from a seed.

The seed only reorders the library workloads (results must not depend on
order) and draws the service request sequence.  Everything the program
receives is ``.g`` text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: The ten smallest Table-2 rows (by the library's own size order at the
#: commit that introduced this benchmark), pinned so the service mix
#: cannot drift with the library.
SERVICE_SPECS = (
    "vme2int", "duplicator", "combuf2", "mod4-counter", "par4",
    "sbuf-read-ctl", "nak-pa", "mmu1", "ram-read-sbuf", "seqmix",
)

#: Share of service requests that repeat an already answered request.
WARM_SHARE = 0.7

#: ``symbolic`` workload: census and CSC check on these Table-1 rows
#: (family and size give the census closed form) ...  par24 and pipe16
#: (3.4e7 and 2.8e12 states) keep the workload far beyond explicit
#: enumeration.  pipe24, pipeline8 and pipeline12 are left out: their
#: checks take 1-2 s, 2 s and 9 s, too long for enough tries in a run
#: (pipeline12 also peaks at 1.1 GB RSS).
SYMBOLIC_CENSUS = (
    ("par16", "par", 16),
    ("par24", "par", 24),
    ("pipe16", "pipe", 16),
)
#: ... and the hybrid symbolic encode on these.
SYMBOLIC_ENCODE = ("master-read", "adfast", "pipeline3")


@dataclass(frozen=True)
class Spec:
    """One specification as the program receives it."""

    name: str
    g_text: str
    allow_input_delay: bool = False
    kind: str = "encode"  # "encode", "census", "check" or "symbolic_encode"
    family: Optional[str] = None
    size: int = 0

    def settings(self):
        """The library's Table-2 search settings for this spec."""
        from repro.core.search import SearchSettings
        from repro.core.solver import SolverSettings

        return SolverSettings(search=SearchSettings(**search_settings(self.allow_input_delay)))


def search_settings(allow_input_delay: bool) -> Dict[str, object]:
    """Library search settings (frontier 16), as the service accepts them."""
    return {
        "frontier_width": 16,
        "max_validity_checks": 100,
        "max_merge_candidates": 32,
        "allow_input_delay": allow_input_delay,
    }


def _g_text(stg) -> str:
    from repro.stg.writer import stg_to_g_text

    return stg_to_g_text(stg)


def table2_specs() -> List[Spec]:
    from repro.bench_stg.library import TABLE2_CASES

    return [
        Spec(case.name, _g_text(case.build()), case.mode == "relaxed") for case in TABLE2_CASES
    ]


def symbolic_specs() -> List[Spec]:
    from repro.bench_stg.library import get_case

    specs = []
    for name, family, size in SYMBOLIC_CENSUS:
        text = _g_text(get_case(name, "table1").build())
        specs.append(Spec(name, text, kind="census", family=family, size=size))
        specs.append(Spec(name, text, kind="check", family=family, size=size))
    for name in SYMBOLIC_ENCODE:
        case = get_case(name, "table1")
        specs.append(
            Spec(name, _g_text(case.build()), case.mode == "relaxed", kind="symbolic_encode")
        )
    return specs


def service_specs() -> Dict[str, Spec]:
    from repro.bench_stg.library import get_case

    specs = {}
    for name in SERVICE_SPECS:
        case = get_case(name, "table2")
        specs[name] = Spec(name, _g_text(case.build()), case.mode == "relaxed")
    return specs


LIBRARY_WORKLOADS = {
    "table2": table2_specs,
    "symbolic": symbolic_specs,
}


def shuffled(specs: List[Spec], seed: int, pass_index: int = 0) -> List[Spec]:
    """The order of one pass of a library workload for ``seed``.

    Every pass has its own order, so no spec always runs right after the
    same one: what ran before an operation can change its speed, never its
    result.
    """
    order = list(specs)
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def request_sequence(seed: int, client: int, names=SERVICE_SPECS) -> Iterator[Tuple[str, str, str]]:
    """One service client's endless closed-loop request sequence.

    Yields ``(kind, spec, request_name)``.  A ``cold`` request is a new
    spec under a name never used before, so the store cannot answer it; a
    ``warm`` one repeats one of this client's earlier cold requests, which
    the closed loop has already seen answered, so the store must.

    The seed decides the order, not the mix: every block of ten requests
    holds exactly three cold ones, and cold specs are dealt from shuffled
    decks of all ten, so two seeds load the server equally.
    """
    rng = random.Random(f"{seed}:{client}")
    answered: List[Tuple[str, str]] = []
    deck: List[str] = []
    block = round(10 * WARM_SHARE)
    index = 0
    while True:
        kinds = ["warm"] * block + ["cold"] * (10 - block)
        rng.shuffle(kinds)
        if not answered:
            kinds.remove("cold")
            kinds.insert(0, "cold")
        for kind in kinds:
            if kind == "warm":
                spec, request_name = rng.choice(answered)
            else:
                if not deck:
                    deck = list(names)
                    rng.shuffle(deck)
                spec = deck.pop()
                request_name = f"{spec}.c{client}.{index}"
                answered.append((spec, request_name))
            yield kind, spec, request_name
            index += 1


def renamed(spec: Spec, request_name: str) -> str:
    """``spec``'s ``.g`` text under another model name (a distinct request)."""
    head, _, rest = spec.g_text.partition("\n")
    if head != f".model {spec.name}":
        raise ValueError(f"unexpected first line {head!r} in {spec.name}")
    return f".model {request_name}\n{rest}"
