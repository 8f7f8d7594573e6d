"""Hybrid CAP/stride predictor with a dynamic selector (Sections 3.7, 4.3-4.4).

One shared Load Buffer holds, per static load, both components' fields plus
a 2-bit selector counter.  Both components predict every dynamic load and
both are trained on every resolution (the LB is "always updated"); the LT
may be updated selectively (Section 4.3 policies).  A speculative access is
made when at least one component is confident; when both are, the selector
chooses (initially biased towards *weak CAP*, because CAP's base
misprediction rate is lower).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..common.sat_counter import UpDownCounter
from ..common.stats import Distribution, RateCounter
from ..common.tables import SetAssociativeTable
from .base import AddressPredictor, Prediction, lb_key
from .cap import CAPComponent, CAPConfig, CAPState
from .stride import StrideConfig, StrideLogic, StrideState

__all__ = [
    "UPDATE_ALWAYS",
    "UPDATE_UNLESS_STRIDE_CORRECT",
    "UPDATE_UNLESS_STRIDE_SELECTED",
    "HybridConfig",
    "HybridEntry",
    "HybridPredictor",
]

#: Update the LT on every resolved load (the paper's winner, Section 4.3).
UPDATE_ALWAYS = "always"
#: Skip the LT update when the stride component predicted correctly.
UPDATE_UNLESS_STRIDE_CORRECT = "unless_stride_correct"
#: Skip it only when stride was correct *and* its prediction was the one
#: selected for the speculative access.
UPDATE_UNLESS_STRIDE_SELECTED = "unless_stride_selected"

_POLICIES = (
    UPDATE_ALWAYS, UPDATE_UNLESS_STRIDE_CORRECT, UPDATE_UNLESS_STRIDE_SELECTED,
)

#: Selector component order: counter low half selects stride, high half CAP.
_STRIDE, _CAP = "stride", "cap"

#: The attribution counter a speculative access routed to each component
#: increments (``AttributionCounters.selector_cap``/``selector_stride``).
_SELECTOR_FIELD = {_CAP: "selector_cap", _STRIDE: "selector_stride"}


@dataclass(frozen=True)
class HybridConfig:
    """Hybrid parameters.

    The shared LB geometry is set here (``lb_entries``/``lb_ways``); the
    per-component table fields inside ``cap``/``stride`` are ignored.
    """

    lb_entries: int = 4096
    lb_ways: int = 2
    cap: CAPConfig = field(default_factory=CAPConfig)
    stride: StrideConfig = field(default_factory=StrideConfig)
    selector_bits: int = 2
    selector_init: int = 2  # "weak CAP"
    static_selector: Optional[str] = None  # "cap"/"stride" for a static priority
    lt_update_policy: str = UPDATE_ALWAYS

    def __post_init__(self) -> None:
        if self.lt_update_policy not in _POLICIES:
            raise ValueError(
                f"unknown LT update policy {self.lt_update_policy!r}"
            )
        if self.static_selector not in (None, _CAP, _STRIDE):
            raise ValueError(
                f"static_selector must be None, 'cap' or 'stride',"
                f" got {self.static_selector!r}"
            )
        if not 0 <= self.selector_init < (1 << self.selector_bits):
            raise ValueError("selector_init out of range")


class HybridEntry:
    """One shared-LB entry: CAP fields + stride fields + selector."""

    __slots__ = ("cap", "stride", "selector")

    def __init__(self, config: HybridConfig, offset: int) -> None:
        self.cap = CAPState(config.cap, offset)
        self.stride = StrideState(config.stride)
        self.selector = UpDownCounter(
            width=config.selector_bits, initial=config.selector_init
        )


@dataclass
class SelectorStats:
    """Figure 8 bookkeeping: selector behaviour on dual predictions."""

    #: Selector-state distribution over loads predicted by both components.
    states: Distribution = field(default_factory=Distribution)
    #: Correct-selection rate over dual speculative accesses (a
    #: miss-selection is a misprediction where the other component was right).
    selection: RateCounter = field(default_factory=RateCounter)
    #: Speculative accesses where both components offered an address.
    dual_speculative: int = 0
    #: All speculative accesses.
    speculative: int = 0


class HybridPredictor(AddressPredictor):
    """The paper's flagship predictor: shared-LB hybrid CAP/stride."""

    #: Batch-kernel capability flag (see :mod:`repro.kernels`); the
    #: dispatcher additionally declines when ``speculative_mode`` is set,
    #: and the kernel itself falls back for ``unless_stride_selected``.
    supports_batch = True

    def __init__(self, config: HybridConfig | None = None) -> None:
        super().__init__()
        self.config = config or HybridConfig()
        self.cap = CAPComponent(self.config.cap)
        self.stride_logic = StrideLogic(self.config.stride)
        self.load_buffer: SetAssociativeTable[HybridEntry] = SetAssociativeTable(
            self.config.lb_entries, self.config.lb_ways
        )
        self.selector_stats = SelectorStats()
        self.speculative_mode = False

    # -- prediction ----------------------------------------------------------

    def _select(self, entry: HybridEntry) -> str:
        if self.config.static_selector is not None:
            return self.config.static_selector
        return _CAP if entry.selector.favors_high else _STRIDE

    def predict(self, ip: int, offset: int) -> Prediction:
        entry = self.load_buffer.lookup(lb_key(ip))
        if entry is None:
            if self.probe is not None:
                self.probe.lb_misses += 1
            entry = HybridEntry(self.config, offset)
            if self.speculative_mode:
                # This very instance is now in flight for both components.
                entry.cap.pending = 1
                entry.stride.pending = 1
            self.load_buffer.insert(lb_key(ip), entry)
            return Prediction(source="hybrid", ghr=self.ghr)

        ghr = self.ghr
        cap_pred = self.cap.predict(
            entry.cap, ghr, speculative_mode=self.speculative_mode
        )
        stride_pred = self.stride_logic.predict(
            entry.stride, ghr, speculative_mode=self.speculative_mode
        )
        stride_pred.ghr = ghr

        both_made = cap_pred.made and stride_pred.made
        if both_made:
            self.selector_stats.states.record(
                entry.selector.state_name(low=_STRIDE, high=_CAP)
            )

        # Component choice: a confident component wins outright; when both
        # are confident the selector arbitrates; with no confident component
        # the selector's favourite still provides the (non-speculative)
        # prediction for a LB hit.
        if cap_pred.speculative and stride_pred.speculative:
            selected = self._select(entry)
        elif cap_pred.speculative:
            selected = _CAP
        elif stride_pred.speculative:
            selected = _STRIDE
        elif cap_pred.made and not stride_pred.made:
            selected = _CAP
        elif stride_pred.made and not cap_pred.made:
            selected = _STRIDE
        else:
            selected = self._select(entry)

        chosen = cap_pred if selected == _CAP else stride_pred
        prediction = Prediction(
            address=chosen.address,
            speculative=chosen.speculative,
            source=selected,
            ghr=ghr,
            info={
                "cap": cap_pred,
                "stride": stride_pred,
                "selector_state": entry.selector.value,
            },
        )
        if prediction.speculative:
            self.selector_stats.speculative += 1
            if cap_pred.made and stride_pred.made:
                self.selector_stats.dual_speculative += 1
            if self.probe is not None:
                name = _SELECTOR_FIELD[selected]
                setattr(self.probe, name, getattr(self.probe, name) + 1)
        return prediction

    # -- training -------------------------------------------------------------

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        entry = self.load_buffer.lookup(lb_key(ip))
        if entry is None:
            entry = HybridEntry(self.config, offset)
            self.load_buffer.insert(lb_key(ip), entry)

        info = prediction.info or {}
        cap_pred: Optional[Prediction] = info.get("cap")
        stride_pred: Optional[Prediction] = info.get("stride")
        cap_addr = cap_pred.address if cap_pred else None
        stride_addr = stride_pred.address if stride_pred else None
        selected = prediction.source

        cap_correct = cap_addr == actual if cap_addr is not None else None
        stride_correct = (
            stride_addr == actual if stride_addr is not None else None
        )

        # -- Section 4.3 LT update policy --------------------------------
        policy = self.config.lt_update_policy
        update_lt = True
        if policy == UPDATE_UNLESS_STRIDE_CORRECT:
            update_lt = not bool(stride_correct)
        elif policy == UPDATE_UNLESS_STRIDE_SELECTED:
            update_lt = not (
                bool(stride_correct)
                and selected == _STRIDE
                and prediction.speculative
            )

        # -- train both components (the LB is always updated) -------------
        self.cap.train(
            entry.cap,
            actual,
            predicted_addr=cap_addr,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative and selected == _CAP,
            update_lt=update_lt,
            speculative_mode=self.speculative_mode,
        )
        self.stride_logic.train(
            entry.stride,
            actual,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative and selected == _STRIDE,
            predicted_addr=stride_addr,
            had_prediction=stride_pred is not None,
            speculative_mode=self.speculative_mode,
        )

        # -- selector training (relative performance) ----------------------
        if cap_correct is not None and stride_correct is not None:
            if cap_correct and not stride_correct:
                entry.selector.up()
            elif stride_correct and not cap_correct:
                entry.selector.down()

        # -- Figure 8 selection-quality statistics --------------------------
        if (
            prediction.speculative
            and cap_addr is not None
            and stride_addr is not None
        ):
            final_correct = prediction.address == actual
            other_correct = (
                stride_correct if selected == _CAP else cap_correct
            )
            miss_selection = (not final_correct) and bool(other_correct)
            self.selector_stats.selection.record(not miss_selection)

    def predict_batch(self, batch):
        """Pure batch solver (see :mod:`repro.kernels.hybrid`)."""
        from ..kernels.hybrid import plan_hybrid

        return plan_hybrid(self, batch)

    def update_batch(self, batch, result) -> None:
        """Commit a batch result's end state: statistics now, table
        entries as pending fills applied on first read."""
        from ..kernels.hybrid import commit_hybrid

        commit_hybrid(self, batch, result)

    def reset(self) -> None:
        super().reset()
        self.load_buffer.clear()
        self.cap.reset()
        self.selector_stats = SelectorStats()

    @property
    def name(self) -> str:
        return "hybrid"
