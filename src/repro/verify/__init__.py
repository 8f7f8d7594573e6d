"""Differential verification subsystem.

Three layers keep the predictor implementations honest:

* :mod:`repro.verify.oracle` — slow, dict-based reference models written
  straight from the paper's prose, sharing no code with ``predictors/``;
* :mod:`repro.verify.differential` — replays a trace through {oracle,
  ``run_on_columns``, batch kernels} and diffs per-access predictions,
  final metrics, Link Table contents and confidence state;
* :mod:`repro.verify.fuzz` / :mod:`repro.verify.metamorphic` — adversarial
  trace generation with shrinking, plus invariant checks on transformed
  traces.

Minimal diverging traces are persisted via :mod:`repro.verify.regressions`
and replayed by the test suite.  ``python -m repro verify`` drives it all.
"""

from .differential import VARIANTS, Divergence, verify_events
from .fuzz import PROFILES, FuzzFailure, generate_events, run_fuzz, shrink_events
from .metamorphic import METAMORPHIC_CHECKS, run_metamorphic_checks
from .oracle import OraclePrediction, SpecCAP, SpecHybrid, SpecStride
from .regressions import RegressionCase, load_cases, save_case

__all__ = [
    "VARIANTS",
    "Divergence",
    "verify_events",
    "PROFILES",
    "FuzzFailure",
    "generate_events",
    "run_fuzz",
    "shrink_events",
    "METAMORPHIC_CHECKS",
    "run_metamorphic_checks",
    "OraclePrediction",
    "SpecCAP",
    "SpecHybrid",
    "SpecStride",
    "RegressionCase",
    "load_cases",
    "save_case",
]
