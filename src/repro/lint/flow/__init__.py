"""Per-function dataflow analyses beneath the lint rule registry.

The syntactic rules look at one statement at a time.  Two historical
bug classes live *between* statements: check-then-act races across an
``await`` (the serving layer's admission race) and value-range hazards
(the int64 overflow that hung the numpy ``fold_xor`` loop on addresses
at or above ``2**63``).  This package is the analysis layer that makes
those visible statically, one function at a time:

* :mod:`cfg`      — per-function control-flow graph at statement
  granularity, with await/yield suspension points marked; supports
  "is there a path from A to B crossing a suspension point" queries
  (R007).
* :mod:`dataflow` — attribute read/write events and reaching
  definitions over a CFG; the def→use chains become the
  :class:`~repro.lint.core.TraceStep` trace findings carry (R007, R009).
* :mod:`intervals` — a bit-width lattice for int64/numpy expressions
  (width in bits plus a non-negativity flag), with widening so
  loop-carried growth degrades to "unknown" instead of diverging (R009).

Everything here is pure AST consumption: no imports of the analyzed
code, no side effects, deterministic output for a given function.
"""

from __future__ import annotations

from .cfg import CFG, build_cfg
from .dataflow import ReachingDefs, attribute_events
from .intervals import Width, WidthEnv, expression_width

__all__ = [
    "CFG",
    "ReachingDefs",
    "Width",
    "WidthEnv",
    "attribute_events",
    "build_cfg",
    "expression_width",
]
