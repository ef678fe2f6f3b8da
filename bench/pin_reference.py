#!/usr/bin/env python3
"""Pin the default seed's results as the benchmark's reference.

Run from the repository root, only when a change is meant to alter the
results (a new workload, or a deliberate change of output):

    python3 bench/pin_reference.py

For every workload it runs one pass over the default seed's request list,
requires every output to pass the benchmark's other checks, and writes
the objective, selected radii and payload digest of each
request to ``bench/reference.json``.
"""

import hashlib
import json
import sys

import run


def pin(workload: str) -> list[dict]:
    wl = run.WORKLOADS[workload]
    result = run.measure(workload, run.DEFAULT_SEED, float("inf"), trace=False,
                         reference={}, max_requests=wl.instances, setup_rounds=1)
    if result.failed:
        sys.exit(f"{workload}: outputs fail the checks: {dict(result.causes)}")
    entries = []
    for outcome in result.timed:
        document = json.loads(outcome.output)
        entries.append({
            "instance_seed": outcome.request.instance_seed,
            "argv": list(wl.argv),
            "objective": run.objective(document),
            "selected_radii": document["result"]["selected_radii"],
            "payload_sha256": hashlib.sha256(run.canonical(document).encode()).hexdigest(),
        })
    return entries


def main() -> int:
    document = {
        "default_seed": run.DEFAULT_SEED,
        "jitter_pm": run.JITTER_PM,
        "workloads": {name: pin(name) for name in run.WORKLOADS},
    }
    run.REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
