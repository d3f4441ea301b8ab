"""Re-pin ``verdicts.json``: one checked pass of each library workload.

    python3 perfbench/pin.py

Run from the repository root, only when a change is meant to move
verdicts; the benchmark reports every spec whose pinned fingerprint,
inserted signals or literal count moved as ``verdict_changes``.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import library
    import specs
    import stats

    library.import_layers()
    pins = {}
    for workload, make in specs.LIBRARY_WORKLOADS.items():
        ops = [library.run_operation(spec, stats.LayerTotals(), False) for spec in make()]
        failed = [op.error for op in ops if op.error is not None]
        if failed:
            print("\n".join(failed), file=sys.stderr)
            return 1
        pins[workload] = {op.key: op.verdict for op in ops}
    with open(run.VERDICTS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {sum(len(p) for p in pins.values())} verdicts to {run.VERDICTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
