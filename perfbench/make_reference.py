"""Regenerate ``perfbench/reference.json`` from one pass per workload.

    python3 perfbench/make_reference.py

Only outputs that do not depend on the seed are stored.  Run it only when the
benchmark's inputs change, never to make a failing program pass.
"""

from __future__ import annotations

import json
import time

import run
import workloads


def main() -> None:
    reference = {}
    for workload in workloads.WORKLOADS:
        result = run.run_pass(workload, seed=0, trace=0, deadline=time.monotonic() + 600)
        reference[workload] = {
            run.item_id(e): e["summary"] for e in result["items"] if e["reference"]
        }
        print(workload, len(reference[workload]), "outputs")
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
