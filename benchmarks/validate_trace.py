"""Validate a Chrome trace-event JSON file against the schema CI expects.

``pyetrify solve --trace out.json`` (and :func:`repro.obs.trace.export_chrome_trace`
generally) must produce a document that Perfetto and ``chrome://tracing``
load directly.  This checker enforces the subset of the trace-event
format the exporter promises:

* top level is an object with a non-empty ``traceEvents`` list;
* every event carries ``name`` (str), ``ph`` (``"X"`` complete slices or
  ``"b"``/``"e"`` async markers), integer ``ts`` microseconds, integer
  ``pid`` and ``tid``;
* complete events carry an integer ``dur >= 1``;
* async events carry an ``id``.

Usage (CI runs exactly this)::

    python benchmarks/validate_trace.py out.json --require solve --require search.sip

``--require NAME`` asserts a span name appears at least once;
``--require-multiprocess`` asserts events from more than one pid (a
pooled run, such as ``encode_many(jobs=2)``, actually traced its workers).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

_PHASES = {"X", "b", "e"}


def validate_trace(path: pathlib.Path) -> dict:
    """Check one trace file; returns summary stats, raises ValueError."""
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}")
    if not isinstance(document, dict):
        raise ValueError("top level must be an object")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError('"traceEvents" must be a non-empty list')
    names, pids = set(), set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where} lacks a non-empty string name")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where} ({name}) has unsupported ph {phase!r}")
        for key in ("ts", "pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where} ({name}) lacks integer {key!r}")
        if phase == "X":
            if not isinstance(event.get("dur"), int) or event["dur"] < 1:
                raise ValueError(f"{where} ({name}) lacks integer dur >= 1")
        else:
            if "id" not in event:
                raise ValueError(f"{where} ({name}) is async but has no id")
        names.add(name)
        pids.add(event["pid"])
    return {
        "events": len(events),
        "names": sorted(names),
        "pids": sorted(pids),
        "trace_id": (document.get("otherData") or {}).get("trace_id"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", type=pathlib.Path, help="trace JSON to validate")
    parser.add_argument(
        "--require", action="append", default=[], metavar="NAME",
        help="fail unless this span name appears (repeatable)",
    )
    parser.add_argument(
        "--require-multiprocess", action="store_true",
        help="fail unless events come from more than one pid",
    )
    args = parser.parse_args(argv)
    try:
        stats = validate_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    missing = [name for name in args.require if name not in stats["names"]]
    if missing:
        print(f"FAIL: required span names absent: {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.require_multiprocess and len(stats["pids"]) < 2:
        print(
            f"FAIL: expected events from multiple pids, saw {stats['pids']}",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: {stats['events']} events, {len(stats['names'])} span names, "
        f"{len(stats['pids'])} pid(s), trace_id={stats['trace_id']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
