"""Record ``reference.json``: every operation's digest at the harness
seeds, simulated on the event kernel (the differential oracle).

Run from the root of the repository, after a change that is meant to
alter simulated results::

    PYTHONPATH=src python3 perfbench/record_reference.py

An operation that fails is recorded as ``null`` and is not compared.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    os.environ.pop("REPRO_KERNEL", None)
    reference = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as scratch:
        for name in workloads.NAMES:
            seed = workloads.DEFAULT_SEEDS[name]
            kwargs = {"kernel": "event"} if name == "ur-sweep" else {}
            workload = workloads.make(name, seed, scratch, **kwargs)
            workload.setup()
            result = workload.run_pass()
            if result.errors:
                raise SystemExit(f"{name}: {result.errors}")
            reference[name] = {
                "seed": seed,
                "kernel": "event",
                "ops": {op.name: op.digest for op in result.ops},
            }
            failed = [op.name for op in result.ops if op.error is not None]
            print(f"{name}: {len(result.ops)} operations, failed: {failed}")
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
