"""Load-address predictors: the paper's contribution.

* :class:`LastAddressPredictor` — A(N+1) = A(N) baseline.
* :class:`StridePredictor` — two-delta stride; enhanced variant adds
  control-flow indications and the interval technique.
* :class:`CAPPredictor` — the correlated context-based address predictor
  (Load Buffer + Link Table, base-address global correlation, LT tags,
  PF bits).
* :class:`HybridPredictor` — shared-LB hybrid CAP/stride with a dynamic
  2-bit selector: the paper's headline configuration.
* :class:`GShareAddressPredictor` — the control-based alternative the
  paper evaluates and rejects (Section 3.6).
"""

from .adaptive import VariableHistoryCAP, VariableHistoryConfig
from .base import AddressPredictor, Prediction, lb_key
from .cap import (
    CORRELATION_BASE,
    CORRELATION_DELTA,
    CORRELATION_REAL,
    CAPComponent,
    CAPConfig,
    CAPPredictor,
    CAPState,
)
from .confidence import CFI_LAST, CFI_OFF, CFI_PATHS, ControlFlowIndication
from .ideal import IdealContextConfig, IdealContextPredictor
from .gshare_address import (
    HISTORY_BRANCH,
    HISTORY_CALL_PATH,
    GShareAddressConfig,
    GShareAddressPredictor,
)
from .history import HistoryFunction, shift_for_length
from .hybrid import (
    UPDATE_ALWAYS,
    UPDATE_UNLESS_STRIDE_CORRECT,
    UPDATE_UNLESS_STRIDE_SELECTED,
    HybridConfig,
    HybridEntry,
    HybridPredictor,
    SelectorStats,
)
from .last_address import LastAddressConfig, LastAddressPredictor
from .profile_guided import ProfileGuidedPredictor, build_profile
from .link_table import LinkEntry, LinkTable, LinkTableConfig
from .stride import StrideConfig, StrideLogic, StridePredictor, StrideState

__all__ = [
    "AddressPredictor",
    "Prediction",
    "lb_key",
    "VariableHistoryCAP",
    "VariableHistoryConfig",
    "ProfileGuidedPredictor",
    "build_profile",
    "IdealContextConfig",
    "IdealContextPredictor",
    "CORRELATION_BASE",
    "CORRELATION_DELTA",
    "CORRELATION_REAL",
    "CAPComponent",
    "CAPConfig",
    "CAPPredictor",
    "CAPState",
    "CFI_LAST",
    "CFI_OFF",
    "CFI_PATHS",
    "ControlFlowIndication",
    "HISTORY_BRANCH",
    "HISTORY_CALL_PATH",
    "GShareAddressConfig",
    "GShareAddressPredictor",
    "HistoryFunction",
    "shift_for_length",
    "UPDATE_ALWAYS",
    "UPDATE_UNLESS_STRIDE_CORRECT",
    "UPDATE_UNLESS_STRIDE_SELECTED",
    "HybridConfig",
    "HybridEntry",
    "HybridPredictor",
    "SelectorStats",
    "LastAddressConfig",
    "LastAddressPredictor",
    "LinkEntry",
    "LinkTable",
    "LinkTableConfig",
    "StrideConfig",
    "StrideLogic",
    "StridePredictor",
    "StrideState",
]
