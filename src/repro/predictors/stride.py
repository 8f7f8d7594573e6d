"""Stride-based address prediction: A(N+1) = A(N) + (A(N) - A(N-1)).

Two flavours appear in the paper:

* the **basic** two-delta stride predictor (the prior art of [Eick93],
  [Gonz97]), and
* the **enhanced** stride predictor of Sections 4–5, which adds the
  control-flow-indication confidence filter and the *interval* technique —
  learning the length of an array traversal and withholding speculation
  once the learned length is reached, trading mispredictions at array ends
  for no-predictions.

The per-load state and the prediction/training logic are split into
:class:`StrideState` / :class:`StrideLogic` so the hybrid predictor
(Section 3.7) can embed the same stride component inside its shared Load
Buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..common.bitops import mask
from ..common.sat_counter import SaturatingCounter
from ..common.tables import SetAssociativeTable
from .base import AddressPredictor, Prediction, lb_key
from .confidence import CFI_LAST, CFI_OFF, ControlFlowIndication

__all__ = ["StrideConfig", "StrideState", "StrideLogic", "StridePredictor"]

_MASK32 = mask(32)


@dataclass(frozen=True)
class StrideConfig:
    """Stride component parameters.

    The defaults describe the paper's *enhanced* stride predictor; set
    ``cfi_mode="off"`` and ``use_interval=False`` for the basic two-delta
    predictor.
    """

    entries: int = 4096
    ways: int = 2
    confidence_threshold: int = 2
    confidence_max: Optional[int] = None
    hysteresis: bool = False
    two_delta: bool = True
    cfi_mode: str = CFI_LAST
    cfi_bits: int = 4
    use_interval: bool = True

    @classmethod
    def basic(cls, **overrides) -> "StrideConfig":
        """The plain two-delta stride predictor of the prior art."""
        params = dict(cfi_mode=CFI_OFF, use_interval=False)
        params.update(overrides)
        return cls(**params)


class StrideState:
    """Per-static-load stride fields (lives in a Load Buffer entry).

    The ``spec_last_addr``/``pending``/``suppress`` fields implement the
    Section 5 pipelined model: predictions between issue and verification
    advance a *speculative* last address, a misprediction triggers the
    catch-up extrapolation, and speculation is withheld while the wrong-
    path instances drain.
    """

    __slots__ = (
        "last_addr", "stride", "last_delta", "confidence", "cfi",
        "run_length", "interval", "spec_last_addr", "pending", "suppress",
    )

    def __init__(self, config: StrideConfig) -> None:
        self.last_addr: Optional[int] = None
        self.stride = 0
        self.last_delta: Optional[int] = None
        self.confidence = SaturatingCounter(
            threshold=config.confidence_threshold,
            maximum=config.confidence_max,
            hysteresis=config.hysteresis,
        )
        self.cfi = ControlFlowIndication(config.cfi_mode, config.cfi_bits)
        self.run_length = 0      # consecutive correct stride predictions
        self.interval = 0        # learned traversal length (0 = unknown)
        # Pipelined (speculative) state.
        self.spec_last_addr: Optional[int] = None
        self.pending = 0         # predictions awaiting verification
        self.suppress = 0        # wrong-path instances still draining


class StrideLogic:
    """Stateless prediction/training rules over a :class:`StrideState`."""

    def __init__(self, config: StrideConfig) -> None:
        self.config = config
        # Attribution sink (see AddressPredictor.probe).
        self.probe: Optional[Any] = None

    def predict(
        self,
        state: StrideState,
        ghr: int,
        speculative_mode: bool = False,
    ) -> Prediction:
        """Produce the stride component's prediction.

        In ``speculative_mode`` (the Section 5 pipelined model) the
        prediction extends the *speculative* last address — the chain of
        still-unverified predictions — and speculation is additionally
        withheld while a detected misprediction's wrong-path instances
        drain.
        """
        base = state.spec_last_addr if speculative_mode else state.last_addr
        if speculative_mode:
            state.pending += 1
        if base is None:
            return Prediction(source="stride")
        address = (base + state.stride) & _MASK32
        speculative = state.confidence.confident and state.cfi.allows(ghr)
        if speculative_mode and state.suppress > 0:
            speculative = False
        if (
            speculative
            and self.config.use_interval
            and state.interval
            and state.run_length >= state.interval
        ):
            # The learned traversal length is exhausted: expect the pattern
            # to break here, so trade a likely misprediction for silence.
            speculative = False
        if self.probe is not None and not speculative:
            # Attribute the veto to the first mechanism in the cascade above
            # that withheld speculation; ``confident``/``allows`` are pure
            # reads, so re-evaluating them here is side-effect free.
            if not state.confidence.confident:
                self.probe.confidence_vetoes += 1
            elif not state.cfi.allows(ghr):
                self.probe.cfi_vetoes += 1
            elif speculative_mode and state.suppress > 0:
                self.probe.drain_suppressions += 1
            else:
                self.probe.interval_stops += 1
        if speculative_mode:
            state.spec_last_addr = address
        return Prediction(address=address, speculative=speculative, source="stride")

    def component_correct(self, state: StrideState, actual: int) -> Optional[bool]:
        """Would the stride component have been right about ``actual``?

        ``None`` when the component had no basis for a prediction yet.
        Only meaningful in the immediate model, where the in-flight
        prediction equals ``last_addr + stride``.
        """
        if state.last_addr is None:
            return None
        return ((state.last_addr + state.stride) & _MASK32) == actual

    def train(
        self,
        state: StrideState,
        actual: int,
        ghr_at_predict: int,
        speculated: bool,
        predicted_addr: Optional[int] = None,
        had_prediction: bool = False,
        speculative_mode: bool = False,
    ) -> None:
        """Train the stride fields on a resolved address.

        ``predicted_addr`` is what this component predicted for the
        instance now resolving (``None`` with ``had_prediction=False`` when
        the caller did not capture it — then the immediate-model value is
        recomputed); ``speculated`` says whether that prediction drove a
        speculative access (for CFI training).
        """
        if not had_prediction and predicted_addr is None:
            if state.last_addr is not None:
                predicted_addr = (state.last_addr + state.stride) & _MASK32
        correct = predicted_addr == actual if predicted_addr is not None else None
        if correct is not None:
            state.confidence.update(correct)
            bad_pattern = state.cfi.record(ghr_at_predict, correct, speculated)
            if bad_pattern and self.probe is not None:
                self.probe.cfi_bad_patterns += 1
            if self.config.use_interval:
                if correct:
                    state.run_length += 1
                else:
                    if state.run_length:
                        state.interval = state.run_length
                    state.run_length = 0
        if state.last_addr is not None:
            # Delta training against the architecturally previous address.
            delta = (actual - state.last_addr) & _MASK32
            if self.config.two_delta:
                if state.last_delta is not None and delta == state.last_delta:
                    state.stride = delta
                state.last_delta = delta
            else:
                state.stride = delta
        state.last_addr = actual

        if speculative_mode:
            state.pending = max(0, state.pending - 1)
            if state.suppress > 0:
                state.suppress -= 1
            if not correct:
                # Catch-up (Section 5.2): extrapolate over the still-pending
                # instances so new predictions are right immediately, and
                # stop speculating while the wrong-path ones drain.
                state.spec_last_addr = (
                    actual + state.stride * state.pending
                ) & _MASK32
                state.suppress = state.pending
                if self.probe is not None:
                    self.probe.catchups_fired += 1
        else:
            state.spec_last_addr = actual
            state.pending = 0
            state.suppress = 0


class StridePredictor(AddressPredictor):
    """Stand-alone stride predictor over its own Load Buffer.

    ``speculative_mode`` switches on the Section 5 pipelined semantics; it
    is normally set by :class:`repro.pipeline.PipelinedPredictor` rather
    than by hand.
    """

    #: Batch-kernel capability flag (see :mod:`repro.kernels`); the
    #: dispatcher additionally declines when ``speculative_mode`` is set.
    supports_batch = True

    def __init__(self, config: StrideConfig | None = None) -> None:
        super().__init__()
        self.config = config or StrideConfig()
        self.logic = StrideLogic(self.config)
        self.table: SetAssociativeTable[StrideState] = SetAssociativeTable(
            self.config.entries, self.config.ways
        )
        self.speculative_mode = False

    def predict(self, ip: int, offset: int) -> Prediction:
        state = self.table.lookup(lb_key(ip))
        if state is None:
            if self.probe is not None:
                self.probe.lb_misses += 1
            state = StrideState(self.config)
            if self.speculative_mode:
                # This very instance is now in flight.
                state.pending = 1
            self.table.insert(lb_key(ip), state)
            return Prediction(source="stride")
        prediction = self.logic.predict(
            state, self.ghr, speculative_mode=self.speculative_mode
        )
        prediction.ghr = self.ghr
        return prediction

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        state = self.table.lookup(lb_key(ip))
        if state is None:
            state = StrideState(self.config)
            self.table.insert(lb_key(ip), state)
        self.logic.train(
            state,
            actual,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative,
            predicted_addr=prediction.address,
            had_prediction=True,
            speculative_mode=self.speculative_mode,
        )

    def predict_batch(self, batch):
        """Pure batch solver (see :mod:`repro.kernels.stride`)."""
        from ..kernels.stride import plan_stride

        return plan_stride(self, batch)

    def update_batch(self, batch, result) -> None:
        """Commit a batch result's end state: statistics now, table
        entries as pending fills applied on first read."""
        from ..kernels.stride import commit_stride

        commit_stride(self, batch, result)

    def reset(self) -> None:
        super().reset()
        self.table.clear()

    @property
    def name(self) -> str:
        if self.config.cfi_mode == CFI_OFF and not self.config.use_interval:
            return "stride"
        return "enhanced-stride"
