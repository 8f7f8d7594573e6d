"""``repro lint`` — AST-based simulator-correctness linter.

Simulator reproductions rarely crash when they are wrong: a stale field
that survives ``reset()``, an unmasked address add, or an order-dependent
iteration silently shifts a figure.  PR 3's differential verifier caught
exactly such a bug (``PipelinedPredictor.reset()`` forgot its embedded
branch predictor and flush counter) only after hours of fuzzing; this
package detects the same *class* of bug in seconds, from the AST.

Architecture
------------

* :mod:`repro.lint.core` — the framework: :class:`Finding`,
  :class:`Rule`, the rule registry, :class:`ModuleInfo` (parsed source +
  per-line ``# repro-lint: disable=RULE`` suppressions) and the
  :func:`lint_paths` / :func:`lint_source` drivers.
* :mod:`repro.lint.rules` — the repo-specific rules:

  ====  =====================================================
  R001  reset-completeness (the PR 3 bug class)
  R002  determinism (unseeded RNG, wall clock, set iteration,
        environment reads outside repro.eval.config)
  R003  bit-width hygiene (unmasked address/history arithmetic)
  R007  await atomicity (check-then-act across ``await``)
  R009  numpy int64 overflow in the kernels
  R010  ingest error-message and exit-code hygiene
  ====  =====================================================

  R004, R005, R006 and R008 are retired and their ids are not reused;
  direct tests check the properties R004 (Job picklability) and R006
  (the batch-kernel trio) guarded.

* :mod:`repro.lint.flow` — per-function CFGs, reaching definitions and
  the bit-width lattice behind R007 and R009.
* :mod:`repro.lint.reporters` — text, JSON and SARIF output.
* :mod:`repro.lint.cli` — the ``python -m repro lint`` entry point.

See ``docs/static-analysis.md`` for the full rule catalogue and the
suppression policy.
"""

from __future__ import annotations

from .core import (
    Finding,
    LintResult,
    ModuleInfo,
    Rule,
    all_rules,
    get_rules,
    lint_module,
    lint_paths,
    lint_source,
    register,
)

# Importing the rules package registers every built-in rule.
from . import rules as _rules  # noqa: F401  (import for side effect)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_module",
    "lint_paths",
    "lint_source",
    "register",
]
