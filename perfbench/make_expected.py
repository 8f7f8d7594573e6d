"""Regenerate ``expected.json``, the benchmark's checked-in expected results.

    python3 perfbench/make_expected.py

Records, for every trace: its suite, dynamic load count and content
digest; for every job a seed can schedule: the grid job's counters (loads,
predictions, correct predictions, speculative and correct speculative
counts) or the timing job's cycles.  Run it only when the program's
results are meant to change.
"""

from __future__ import annotations

import json
import os
import sys

from common import EXPECTED, POOLS, SRC, TIMING_SUITES, child_env


def main() -> int:
    os.environ.update(child_env())
    sys.path.insert(0, str(SRC))
    import grids
    import prepare
    from repro.workloads import suites

    names = suites.trace_names()
    paths = prepare.generate(names)
    traces = {}
    for name in names:
        stream = suites.get_predictor_stream(name)
        traces[name] = {
            "suite": suites.suite_of(name),
            "loads": int(stream.loads),
            "digest": prepare.content_digest(paths[name]),
        }
    jobs = grids.build_jobs("grid-kernel", 0)
    for suite, pool in POOLS.items():
        for name in pool:
            jobs.extend(grids.residue_jobs({suite: name}))
    counters, cycles = {}, {}
    for row in grids.run_pass(jobs)["jobs"]:
        if row["cycles"] is None:
            counters[row["key"]] = row["counters"]
        else:
            cycles[row["key"]] = row["cycles"]
    document = {
        "instructions": suites.default_instructions(),
        "timing_suites": list(TIMING_SUITES),
        "traces": traces,
        "jobs": counters,
        "cycles": cycles,
    }
    EXPECTED.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {EXPECTED} ({len(counters)} jobs, {len(cycles)} timing)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
