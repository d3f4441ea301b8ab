"""Golden values of the benchmark library (``library_pins.json``).

The tests that already solve, synthesize or check a library row assert
its pinned values in place, so the pins cost no extra solve:

* Table-2 fingerprint hash, inserted count and solved flag:
  ``tests/test_conformance.py`` (the ``indexed`` engine);
* Table-2 netlist literals, cubes, gates and verified flag:
  ``tests/test_synth.py::TestEndToEnd``;
* Table-1 solved flag of the solvable rows: ``tests/test_conformance.py``;
* Table-1 states and USC/CSC pairs, and the solved flag of the
  detection-only rows: ``tests/test_symbolic_differential.py`` and
  ``tests/test_symbolic.py``.

The golden records were computed by the object-space engine the
indexed one replaced, before it was deleted, and stand in for it:

* ``conformance``: per solvable+enumerable library case and
  ``pipeline(n)`` family member (keyed ``table/name``), the SHA-256 of
  the result fingerprint as sorted-key JSON, the inserted signal names,
  the per-insertion cost tuples and the table row minus ``cpu``; every
  engine of ``tests/test_conformance.py`` must give it;
* ``generators``: the same record for every STG of the generator grid
  (keyed by its generator call), solved at default settings;
* ``enlarge_concurrency``: the plan ``--enlarge-concurrency`` commits to
  on three Table-2 rows (``tests/test_engine.py``).

A pinned value moves only together with a ``FINGERPRINT_VERSION`` bump
(``repro.service.fingerprint``); ``tests/test_conformance.py`` checks
that the file records the current version.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict

from repro.engine.batch import BatchItem

PINS = json.loads((pathlib.Path(__file__).parent / "library_pins.json").read_text())


def pin(case) -> Dict[str, object]:
    """The pinned values of one library case (empty when it has none)."""
    return PINS.get(case.table, {}).get(case.name, {})


def fingerprint_sha256(report) -> str:
    """SHA-256 of the batch-item fingerprint of an ``encode_stg`` report,
    the form ``encode_many`` and ``pyetrify bench --all`` record."""
    item = BatchItem(
        name=report.stg.name, summary=report.result.summary(), table_row=report.table_row()
    )
    blob = json.dumps(item.fingerprint(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
