"""The pipelined predictor model (paper Section 5).

In a real machine a prediction is verified only once the load's effective
address is generated — the paper calls the number of pipeline stages
between the two the **prediction gap**.  Trace-driven, we express the gap
in *pending load resolutions*: a load's table update takes effect only
after ``gap`` later loads have been predicted, which yields exactly the
multiple-pending-predictions regime of Section 5.2.

:class:`PipelinedPredictor` wraps any predictor exposing a
``speculative_mode`` attribute (the stride, CAP and hybrid predictors do):

* predictions run against the wrapped predictor's *speculative* state
  (speculative history advancement, stride catch-up, stop-on-mispredict
  all live inside the component logic);
* updates are queued and applied ``gap`` loads late;
* a ``gap`` of 0 degenerates to the immediate model of Section 4.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..predictors.base import AddressPredictor, Prediction
from .branch import BranchPredictor, BranchPredictorConfig

__all__ = ["PipelinedPredictor"]


class PipelinedPredictor(AddressPredictor):
    """Delays a wrapped predictor's updates by a fixed prediction gap.

    A g-share branch predictor rides along: a mispredicted branch models a
    pipeline redirect, during which the in-flight loads resolve — so the
    queued updates are applied immediately.  This is the "dynamic event"
    (Section 5.2) that terminates context-predictor misprediction chains;
    without it a tight pointer-chasing loop would stay desynchronised
    forever.  Pass ``branch_flush=False`` to study that pathological case.
    """

    def __init__(
        self,
        inner: AddressPredictor,
        gap: int,
        branch_flush: bool = True,
        branch_config: Optional[BranchPredictorConfig] = None,
    ) -> None:
        super().__init__()
        if gap < 0:
            raise ValueError(f"prediction gap must be >= 0, got {gap}")
        if not hasattr(inner, "speculative_mode"):
            raise TypeError(
                f"{type(inner).__name__} does not support pipelined"
                " operation (no speculative_mode attribute)"
            )
        self.inner = inner
        self.gap = gap
        self.inner.speculative_mode = gap > 0
        self._queue: Deque[Tuple[int, int, int, Prediction]] = deque()
        self.branch_flush = branch_flush
        self.branch_predictor = BranchPredictor(branch_config)
        self.flushes = 0

    # -- interface ---------------------------------------------------------

    def predict(self, ip: int, offset: int) -> Prediction:
        return self.inner.predict(ip, offset)

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        """Queue the resolution; apply the one that is now ``gap`` old."""
        if self.gap == 0:
            self.inner.update(ip, offset, actual, prediction)
            return
        self._queue.append((ip, offset, actual, prediction))
        if len(self._queue) > self.gap:
            self.inner.update(*self._queue.popleft())

    def flush(self) -> None:
        """Apply all still-queued updates (end of trace)."""
        while self._queue:
            self.inner.update(*self._queue.popleft())

    # -- control-flow notifications are forwarded ---------------------------

    def on_branch(self, ip: int, taken: bool) -> None:
        self.inner.on_branch(ip, taken)
        if self.gap and self.branch_flush:
            if not self.branch_predictor.update(ip, taken):
                # Pipeline redirect: the in-flight loads resolve while the
                # front-end refills, so their updates land before the next
                # prediction is made.
                self.flushes += 1
                if self.probe is not None:
                    self.probe.pipeline_flushes += 1
                self.flush()

    def on_call(self, ip: int) -> None:
        self.inner.on_call(ip)

    def on_return(self, ip: int) -> None:
        self.inner.on_return(ip)

    @property
    def ghr(self) -> int:  # type: ignore[override]
        return self.inner.ghr

    @ghr.setter
    def ghr(self, value: int) -> None:
        # The base-class constructor assigns ghr; route it to the inner
        # predictor so there is a single source of truth.
        if hasattr(self, "inner"):
            self.inner.ghr = value

    def reset(self) -> None:
        self.inner.reset()
        self._queue.clear()
        self.branch_predictor.reset()
        self.flushes = 0

    @property
    def pending_updates(self) -> int:
        """Number of resolutions currently in flight."""
        return len(self._queue)

    @property
    def name(self) -> str:
        return f"{self.inner.name}@gap{self.gap}"
