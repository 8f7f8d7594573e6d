"""Related work ([Baer91]/[Gonz97]) — address prediction vs prefetching.

The paper's prior-art section contrasts the two latency-hiding camps;
[Gonz97] shares one stride table between them.  This bench compares
no-help / prefetch-only / predict-only / both on the timing model.
Expected shape: on memory-bound stride code prefetching dominates (it
hides full miss latency, needs no recovery); on pointer chases address
prediction is the enabler (a stride prefetcher cannot follow the chain);
combining them never hurts much.
"""

from conftest import run_once

from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import load_outcomes
from repro.predictors import HybridPredictor
from repro.timing import StridePrefetcher, simulate
from repro.workloads import suites


def _sweep(trace_set, instr):
    rows = {}
    for name in trace_set:
        trace = suites.get_trace(name, instr)
        outcomes = load_outcomes(
            HybridPredictor(), trace.predictor_columns(), PredictorMetrics()
        )
        base = simulate(trace)
        rows[name] = {
            "prefetch": base.cycles / simulate(
                trace, prefetcher=StridePrefetcher()).cycles,
            "predict": base.cycles / simulate(trace, outcomes).cycles,
            "both": base.cycles / simulate(
                trace, outcomes, prefetcher=StridePrefetcher()
            ).cycles,
        }
    return rows


def test_prefetch_vs_prediction(benchmark, trace_set, instr, report):
    # Keep this affordable: 1 trace per suite.
    subset = trace_set[::2]
    rows = run_once(benchmark, lambda: _sweep(subset, instr))
    lines = [
        f"{name}: prefetch x{r['prefetch']:.3f}  predict x{r['predict']:.3f}"
        f"  both x{r['both']:.3f}"
        for name, r in rows.items()
    ]
    report("Prediction vs prefetching (speedup over no help)\n"
           + "\n".join(lines))

    geo = {
        key: sum(rows[name][key] for name in rows) / len(rows)
        for key in ("prefetch", "predict", "both")
    }

    # Both techniques help on average.
    assert geo["prefetch"] > 1.0
    assert geo["predict"] > 1.0

    # Combining them is at least as good as prefetching alone (the
    # [Gonz97] motivation for sharing the structures).
    assert geo["both"] >= geo["prefetch"] - 0.01

    # On the INT pointer-chasing trace prediction must beat prefetching.
    int_traces = [n for n in rows if n.startswith("INT_cmp")]
    for name in int_traces:
        assert rows[name]["predict"] > rows[name]["prefetch"]
