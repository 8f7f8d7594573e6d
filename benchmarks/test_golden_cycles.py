"""Golden cycles of the timing model for every fig7/fig12 cell.

``tests/golden/timing_cycles.json`` has three parts, each mapping trace
-> variant -> cycles:

* ``default``: every distinct fig7/fig12 cell at the default budget, that
  is all 45 traces x the five ``variants`` (225 cells; fig12's ``imm``
  cells are fig7's).  This file checks it through the engine, so
  ``REPRO_JOBS`` fans the jobs out;
* ``small``: the first trace of each suite x the same variants at 8,000
  instructions, checked in tier-1 (``tests/test_timing.py``);
* ``prefetch``: hybrid with a ``StridePrefetcher`` at 8,000 instructions,
  the shape of ``benchmarks/test_prefetch_comparison.py``, on INT_cmp
  (the pointer chase, where the prefetcher changes no cycle) and MM_aud
  (where it does); also checked in tier-1.

Check the default part, and regenerate the whole file, from the
repository root::

    REPRO_JOBS=2 PYTHONPATH=src python -m pytest benchmarks/test_golden_cycles.py
    REPRO_JOBS=2 PYTHONPATH=src python benchmarks/test_golden_cycles.py
"""

import json
from pathlib import Path

from repro.eval.engine import Job, run_jobs
from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import load_outcomes
from repro.predictors import HybridPredictor
from repro.timing import StridePrefetcher, simulate
from repro.workloads import suites

GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "golden" / "timing_cycles.json"
)

#: variant -> (engine factory, prediction gap); no factory = no prediction.
VARIANTS = {
    "none": (None, None),
    "stride": ("stride", None),
    "hybrid": ("hybrid", None),
    "stride g8": ("stride", 8),
    "hybrid g8": ("hybrid", 8),
}
SMALL_INSTRUCTIONS = 8000
PREFETCH_TRACES = ("INT_cmp", "MM_aud")


def engine_cycles(names, instructions):
    """Cycles of every (trace, variant) timing job, through the engine."""
    jobs = [
        Job(trace=name, factory=factory, gap=gap, instructions=instructions,
            kind="timing", variant=variant)
        for name in names
        for variant, (factory, gap) in VARIANTS.items()
    ]
    cycles = {}
    for result in run_jobs(jobs):
        cycles.setdefault(result.trace, {})[result.variant] = result.cycles
    return cycles


def prefetch_cycles(name):
    """Hybrid plus a stride prefetcher, through ``simulate`` directly."""
    trace = suites.get_trace(name, SMALL_INSTRUCTIONS)
    outcomes = load_outcomes(
        HybridPredictor(), trace.predictor_columns(), PredictorMetrics()
    )
    return simulate(trace, outcomes, prefetcher=StridePrefetcher()).cycles


def build():
    small = [suites.trace_names(suite)[0] for suite in suites.SUITE_NAMES]
    return {
        "variants": {
            variant: {"factory": factory, "gap": gap}
            for variant, (factory, gap) in VARIANTS.items()
        },
        "default": {
            "instructions": None,
            "cycles": engine_cycles(suites.trace_names(), None),
        },
        "small": {
            "instructions": SMALL_INSTRUCTIONS,
            "cycles": engine_cycles(small, SMALL_INSTRUCTIONS),
        },
        "prefetch": {
            "instructions": SMALL_INSTRUCTIONS,
            "factory": "hybrid",
            "prefetcher": "StridePrefetcher",
            "cycles": {name: prefetch_cycles(name) for name in PREFETCH_TRACES},
        },
    }


def test_default_budget_cycles():
    part = json.loads(GOLDEN.read_text())["default"]
    assert engine_cycles(suites.trace_names(), None) == part["cycles"]
    assert sum(len(row) for row in part["cycles"].values()) == 225


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
