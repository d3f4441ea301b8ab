"""Content-addressing of encoding requests.

The service dedupes work by the *content* of a request, not by how it
arrived: two submissions of the same ``(STG, SolverSettings, max_states)``
triple — whether uploaded as ``.g`` text, built programmatically, or named
from the benchmark library — map to the same fingerprint and therefore to
the same stored result.

``canonical_request`` reduces the triple to a JSON-serialisable dictionary
that is independent of construction order (signals, transitions, arcs and
markings are sorted) and of presentation-only settings (``verbose`` is
dropped).  ``request_fingerprint`` hashes that canonical form with
SHA-256; the hex digest is the key of the result store and the public
``/v1/results/{fingerprint}`` address of the HTTP API.

This extends the result-side identity introduced in PR 1
(:meth:`repro.core.solver.EncodingResult.fingerprint` /
:meth:`repro.engine.batch.BatchItem.fingerprint`): those fingerprints say
"these two *runs* produced the same encoding", this one says "these two
*requests* will".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Optional

from repro.core.search import SearchSettings
from repro.core.solver import SolverSettings
from repro.stg.stg import STG

__all__ = [
    "FINGERPRINT_VERSION",
    "canonical_stg",
    "canonical_settings",
    "canonical_request",
    "request_fingerprint",
    "settings_from_dict",
]

#: Bump when the canonical form changes; stored fingerprints from older
#: schema versions then simply miss instead of aliasing new requests.
#: Version 2: ``SolverSettings.engine`` joined the canonical settings —
#: the engine choice is fingerprint-relevant (a symbolic-only verdict
#: and an explicit encoding are different results for the same STG).
FINGERPRINT_VERSION = 2

#: Settings fields that do not influence the produced encoding:
#: ``verbose`` is presentation-only, ``search_jobs`` is execution-only
#: (the sharded Figure-4 search is byte-identical to the serial one by
#: construction — see :mod:`repro.engine.shard`), and ``kernel`` selects
#: between block-evaluation implementations that are byte-identical by
#: the conformance harness (:mod:`repro.core.planes`), so requests
#: differing only in these dedupe to the same fingerprint.
_PRESENTATION_ONLY = {"verbose", "search_jobs", "kernel"}


def canonical_stg(stg: STG) -> Dict[str, object]:
    """An order-independent, JSON-serialisable view of an STG.

    Two STGs that describe the same net (same signals with the same types
    and initial values, same transitions and labels, same arcs, same
    initial marking) canonicalise identically no matter in which order
    they were built or parsed.
    """
    net = stg.net
    arcs = []
    for transition in net.transitions:
        for place, weight in net.postset(transition).items():
            arcs.append([str(transition), str(place), int(weight)])
    for place in net.places:
        for transition, weight in net.place_postset(place).items():
            arcs.append([str(place), str(transition), int(weight)])
    return {
        "name": stg.name,
        "signals": sorted(
            [
                signal,
                stg.type_of(signal).value,
                int(stg.initial_values.get(signal, 0)),
            ]
            for signal in stg.signals
        ),
        "transitions": sorted(
            [name, str(stg.label_of(name)) if stg.label_of(name) is not None else None]
            for name in stg.transition_names
        ),
        "dummies": sorted(stg.dummy_transitions),
        "places": sorted(str(place) for place in net.places),
        "arcs": sorted(arcs),
        "marking": sorted(
            [str(place), int(count)] for place, count in stg.initial_marking.items()
        ),
    }


def canonical_settings(settings: Optional[SolverSettings]) -> Dict[str, object]:
    """Solver settings as a flat dictionary, minus presentation-only knobs.

    ``None`` canonicalises to the defaults, so an explicit
    ``SolverSettings()`` and an omitted argument dedupe to the same
    fingerprint.
    """
    flat = dataclasses.asdict(settings if settings is not None else SolverSettings())
    for key in _PRESENTATION_ONLY:
        flat.pop(key, None)
    return flat


def settings_from_dict(data: Optional[Dict[str, object]]) -> SolverSettings:
    """Rebuild :class:`SolverSettings` from a (possibly partial) dictionary.

    The inverse of :func:`canonical_settings` used when a persisted job is
    re-run after a restart and when HTTP clients pass a ``settings``
    object.  Missing fields keep their defaults; unknown fields are
    ignored so newer clients do not break older servers.
    """
    data = dict(data or {})
    search_data = dict(data.pop("search", None) or {})
    search_fields = {field.name for field in dataclasses.fields(SearchSettings)}
    search = SearchSettings(
        **{key: value for key, value in search_data.items() if key in search_fields}
    )
    solver_fields = {
        field.name for field in dataclasses.fields(SolverSettings) if field.name != "search"
    }
    return SolverSettings(
        search=search,
        **{key: value for key, value in data.items() if key in solver_fields},
    )


def canonical_request(
    stg: STG,
    settings: Optional[SolverSettings] = None,
    max_states: Optional[int] = None,
    synth: bool = False,
) -> Dict[str, object]:
    """The canonical form of one encoding request (see module docstring).

    A synthesis request produces a strictly larger result (the verified
    netlist rides along), so it is fingerprint-relevant.  The ``job`` key
    appears *only* when ``synth`` is requested: plain-encode canonical
    forms — and therefore every fingerprint minted before the synthesis
    tier existed — are unchanged, which is why ``FINGERPRINT_VERSION``
    did not bump.
    """
    canonical: Dict[str, object] = {
        "version": FINGERPRINT_VERSION,
        "stg": canonical_stg(stg),
        "settings": canonical_settings(settings),
        "max_states": max_states,
    }
    if synth:
        canonical["job"] = "synth"
    return canonical


def request_fingerprint(
    stg: STG,
    settings: Optional[SolverSettings] = None,
    max_states: Optional[int] = None,
    synth: bool = False,
) -> str:
    """SHA-256 hex digest of the canonical request — the store key."""
    canonical = canonical_request(stg, settings=settings, max_states=max_states, synth=synth)
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
