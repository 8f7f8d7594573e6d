#!/usr/bin/env python
"""Pipeline effects: what a realistic prediction gap costs (Section 5).

Sweeps the prediction gap (pipeline stages between predicting a load
address and verifying it) for the hybrid predictor over an RDS-heavy and
an array-heavy workload, then shows the end-to-end speedup from the
out-of-order timing model at a gap of 8.

Run:  python examples/pipeline_effects.py
"""

from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import load_outcomes, run_predictor
from repro.pipeline import PipelinedPredictor
from repro.predictors import HybridPredictor
from repro.timing import simulate, speedup
from repro.workloads import ArraySumWorkload, ListEvalWorkload, trace_workload

GAPS = [0, 4, 8, 12]


def main() -> None:
    traces = {
        "xlisp-like (RDS)": trace_workload(
            ListEvalWorkload(seed=5), max_instructions=60_000
        ),
        "array sum (stride)": trace_workload(
            ArraySumWorkload(seed=5, elements=2048), max_instructions=60_000
        ),
    }

    header = f"{'workload':<20}" + "".join(
        f"{('imm' if g == 0 else f'gap {g}'):>16}" for g in GAPS
    )
    print("Hybrid prediction rate / accuracy vs prediction gap")
    print(header)
    for label, trace in traces.items():
        stream = trace.predictor_stream()
        cells = []
        for gap in GAPS:
            predictor = PipelinedPredictor(HybridPredictor(), gap)
            m = run_predictor(predictor, stream)
            cells.append(f"{m.prediction_rate:>6.1%}/{m.accuracy:<7.1%}")
        print(f"{label:<20}" + "".join(f"{c:>16}" for c in cells))

    print()
    print("End-to-end speedup (out-of-order timing model)")
    print(f"{'workload':<20}{'immediate':>12}{'gap 8':>12}")
    for label, trace in traces.items():
        # The predictor runs first; the timing model schedules each
        # load's outcome (correct, wrong or no speculative access).
        stream = trace.predictor_columns()
        base = simulate(trace)
        imm = simulate(trace, load_outcomes(
            HybridPredictor(), stream, PredictorMetrics()
        ))
        piped = simulate(trace, load_outcomes(
            PipelinedPredictor(HybridPredictor(), 8), stream,
            PredictorMetrics(),
        ))
        print(
            f"{label:<20}{speedup(base, imm):>11.3f}x"
            f"{speedup(base, piped):>11.3f}x"
        )

    print()
    print(
        "Pointer chases keep most of their benefit because the speculative\n"
        "history lets in-flight predictions walk the Link Table forward,\n"
        "and branch-mispredict drains resynchronise the chains (Section\n"
        "5.2); stride code relies on the catch-up extrapolation instead."
    )


if __name__ == "__main__":
    main()
