"""Built-in lint rules.

Importing this package registers every rule with the framework registry
(:func:`repro.lint.core.register`); the modules are otherwise
independent — each holds exactly one rule plus its private helpers.
"""

from __future__ import annotations

from .reset_completeness import ResetCompletenessRule
from .determinism import DeterminismRule
from .bitwidth import BitWidthRule
from .await_atomicity import AwaitAtomicityRule
from .numpy_overflow import NumpyOverflowRule
from .error_hygiene import ErrorHygieneRule

__all__ = [
    "ResetCompletenessRule",
    "DeterminismRule",
    "BitWidthRule",
    "AwaitAtomicityRule",
    "NumpyOverflowRule",
    "ErrorHygieneRule",
]
