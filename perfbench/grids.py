"""Grid workloads, run in a child process of ``run.py``.

* ``grid-kernel`` — the fig5 job grid: stride, cap and hybrid over all 45
  traces (135 engine jobs at the default 200k-instruction budget), every
  job dispatched to ``repro.kernels``.  The seed shuffles the trace order.
* ``grid-residue`` — the paper cells the kernels decline, over one trace
  per suite picked by the seed: hybrid at prediction gap 8 (the Section 5
  ``speculative_mode``), hybrid with the ``unless_stride_selected`` LT
  policy (Section 4.3), and on the NT pick the fig12 timing pair (no
  prediction, and hybrid at gap 8) through ``repro.timing``.

Both run through ``repro.eval.engine.run_jobs`` with one worker, one job
per call, pass after pass, until the next pass would end further past
``--seconds`` than the previous one ended before it.  Between jobs, about
every :data:`REFERENCE_EVERY_S` of job time, the host-speed reference of
``calibrate.py`` is timed; a pass's wall time is the sum of its jobs'.
The process prints one JSON line: set-up time, each pass's wall time and
per-job outputs, the reference times, and peak RSS.  With ``--probe`` it
stops after set-up, which is how ``run.py`` samples set-up time several
times per run.  With ``--trace 1`` it runs one untraced pass and then one
pass with the per-layer ledger installed.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from typing import Any, Dict, List

import calibrate
from common import WORK, pick_traces, TIMING_SUITES, vmhwm_mb
from repro.eval import engine
from repro.predictors.hybrid import UPDATE_UNLESS_STRIDE_SELECTED
from repro.workloads import suites


def build_jobs(workload: str, seed: int) -> List[engine.Job]:
    if workload == "grid-kernel":
        names = suites.trace_names()
        random.Random(seed).shuffle(names)
        return [
            engine.Job(trace=name, factory=factory, variant=factory)
            for name in names
            for factory in ("stride", "cap", "hybrid")
        ]
    return residue_jobs(pick_traces(seed))


def residue_jobs(picks: Dict[str, str]) -> List[engine.Job]:
    """The kernel-declined cells over ``picks`` (suite -> trace)."""
    Job = engine.Job
    jobs = []
    for suite, name in picks.items():
        if suite in TIMING_SUITES:
            jobs.append(Job(trace=name, kind="timing", variant="timing_none"))
            jobs.append(Job(
                trace=name, factory="hybrid", gap=8, kind="timing",
                variant="timing_hybrid_g8",
            ))
        jobs.append(Job(
            trace=name, factory="hybrid", gap=8, variant="hybrid_g8",
        ))
        jobs.append(Job(
            trace=name, factory="hybrid", variant="hybrid_uss",
            overrides={"lt_update_policy": UPDATE_UNLESS_STRIDE_SELECTED},
        ))
    return jobs


#: Job time between two timings of the host-speed reference.
REFERENCE_EVERY_S = 0.5


def run_pass(jobs: List[engine.Job], meter: calibrate.Meter) -> Dict[str, Any]:
    wall = since = 0.0
    rows = []
    for job in jobs:
        started = time.perf_counter()
        [result] = engine.run_jobs([job], max_workers=1)
        took = time.perf_counter() - started
        wall += took
        since += took
        if since >= REFERENCE_EVERY_S:
            meter.sample()
            since = 0.0
        metrics = result.metrics
        rows.append({
            "key": f"{result.trace}/{result.variant}",
            "wall_s": result.wall_s,
            "counters": None if metrics is None else [
                metrics.loads, metrics.predictions,
                metrics.correct_predictions, metrics.speculative,
                metrics.correct_speculative,
            ],
            "cycles": result.cycles,
        })
    return {"wall_s": wall, "jobs": rows}


def dispatch_counts() -> Dict[str, int]:
    """``record_dispatch`` tallies, summed over predictor types."""
    from repro.obs.metrics import global_registry

    counts = {"dispatched": 0, "fallback": 0, "declined": 0}
    for name, value in global_registry().snapshot()["counters"].items():
        if name.startswith("kernels."):
            outcome = name.rsplit(".", 1)[1]
            if outcome in counts:
                counts[outcome] += int(value)
    return counts


def timed(
    jobs: List[engine.Job], seconds: float, meter: calibrate.Meter
) -> Dict[str, Any]:
    passes = []
    elapsed = 0.0
    while True:
        passes.append(run_pass(jobs, meter))
        elapsed += passes[-1]["wall_s"]
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    return {"passes": passes, "peak_rss_mb": vmhwm_mb()}


def traced(
    jobs: List[engine.Job], workload: str, seed: int, meter: calibrate.Meter
) -> Dict[str, Any]:
    import ledger

    untraced = run_pass(jobs, meter)
    book = ledger.Ledger()
    ledger.install(book)
    before = dispatch_counts()
    passed = run_pass(jobs, meter)
    after = dispatch_counts()
    dropped = ledger.write_chrome(
        book.spans, WORK / f"ledger-{workload}-{seed}.json"
    )
    spans = book.spans
    totals = ledger.self_times(spans)
    covered = sum(totals.get(layer, 0.0) for layer in ledger.GRID_LAYERS)
    return {
        "passes": [untraced, passed],
        "peak_rss_mb": vmhwm_mb(),
        "layers": {
            "self_s": totals,
            "jobs": sum(1 for span in spans if span[0] == "engine.job"),
            "scalar_loads": sum(
                span[4] or 0 for span in spans if span[0] == "scalar.loop"
            ),
            "timing_loads": sum(
                span[4] for span in spans if span[0] == "timing.simulate"
            ),
            "dispatch": {k: after[k] - before[k] for k in after},
            "traced_s": passed["wall_s"],
            "coverage": covered / passed["wall_s"],
            "overhead_pct": 100.0 * (
                passed["wall_s"] / untraced["wall_s"] - 1.0
            ),
            "spans": len(spans),
            "dropped": dropped,
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent at spawn time")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args()
    jobs = build_jobs(args.workload, args.seed)
    # Set-up ends here, just before the first job is submitted.
    out: Dict[str, Any] = {
        "setup_s": time.perf_counter() - args.spawned_at,
    }
    if not args.probe:
        meter = calibrate.Meter()
        if args.trace:
            out.update(traced(jobs, args.workload, args.seed, meter))
        else:
            out.update(timed(jobs, args.seconds, meter))
        out["reference_s"] = meter.samples
    print(json.dumps(out))


if __name__ == "__main__":
    main()
