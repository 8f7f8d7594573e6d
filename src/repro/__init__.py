"""repro — reproduction of *Correlated Load-Address Predictors* (ISCA 1999).

Public API layers:

* :mod:`repro.isa` — mini-ISA, memory model and functional CPU (the trace
  substrate standing in for the paper's IA-32 traces).
* :mod:`repro.trace` — dynamic instruction trace format.
* :mod:`repro.workloads` — the 45 synthetic workload traces in 8 suites.
* :mod:`repro.predictors` — last-address, stride, CAP, hybrid, control-based
  address predictors (the paper's contribution).
* :mod:`repro.pipeline` — prediction-gap / pipelined predictor model.
* :mod:`repro.timing` — out-of-order timing model for speedup experiments.
* :mod:`repro.eval` — runner, metrics, and per-figure experiment drivers.

The most common entry points are re-exported here::

    from repro import HybridPredictor, get_trace, run_predictor

    metrics = run_predictor(HybridPredictor(), get_trace("INT_xli"))
    print(metrics.prediction_rate, metrics.accuracy)
"""

from .eval.metrics import PredictorMetrics
from .eval.runner import run_predictor
from .pipeline import PipelinedPredictor
from .predictors import (
    AddressPredictor,
    CAPConfig,
    CAPPredictor,
    HybridConfig,
    HybridPredictor,
    LastAddressPredictor,
    Prediction,
    StrideConfig,
    StridePredictor,
)
from .timing import MachineConfig, simulate, speedup
from .trace import Trace
from .workloads import get_trace, suite_traces, trace_names, trace_workload

__version__ = "1.0.0"

__all__ = [
    "PredictorMetrics",
    "run_predictor",
    "PipelinedPredictor",
    "AddressPredictor",
    "CAPConfig",
    "CAPPredictor",
    "HybridConfig",
    "HybridPredictor",
    "LastAddressPredictor",
    "Prediction",
    "StrideConfig",
    "StridePredictor",
    "MachineConfig",
    "simulate",
    "speedup",
    "Trace",
    "get_trace",
    "suite_traces",
    "trace_names",
    "trace_workload",
    "__version__",
]
