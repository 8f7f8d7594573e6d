"""Common interface for all load-address predictors.

The contract mirrors the paper's machine model:

1. For every dynamic load, :meth:`AddressPredictor.predict` is called with
   the load's IP and immediate offset.  It returns a :class:`Prediction`
   saying whether an address was produced and whether the confidence
   machinery authorised a *speculative access* (the paper's prediction-rate
   metric counts speculative accesses only).
2. When the actual effective address resolves,
   :meth:`AddressPredictor.update` trains the tables.  In the immediate
   model of Section 4 this happens right after the prediction; the
   pipelined model of Section 5 delays it by the prediction gap.
3. Conditional-branch outcomes are fed through :meth:`on_branch` so
   predictors can maintain a global branch-history register (GHR); calls
   and returns are fed through :meth:`on_call`/:meth:`on_return` for
   call-path-history schemes (Section 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..common.bitops import mask

__all__ = ["Prediction", "AddressPredictor"]


@dataclass
class Prediction:
    """Outcome of one prediction attempt.

    Attributes
    ----------
    address:
        The predicted effective address, or ``None`` when the predictor had
        nothing to offer (table miss, no link, etc.).
    speculative:
        True when every confidence mechanism agreed and a speculative cache
        access would be initiated.  Only speculative accesses count towards
        the paper's prediction-rate and accuracy metrics.
    source:
        Which component produced the address (``"stride"``, ``"cap"``,
        ``"last"``, ``"gshare"``...).  Used by the hybrid's selector
        statistics.
    ghr:
        Snapshot of the global branch-history register at prediction time,
        so a delayed update (pipelined model) trains the control-flow
        indications against the path the prediction was actually made on.
    info:
        Free-form per-prediction metadata (the hybrid stores each
        component's sub-prediction here for selector training and
        statistics).
    """

    address: Optional[int] = None
    speculative: bool = False
    source: str = ""
    ghr: int = 0
    info: Optional[dict] = None

    @property
    def made(self) -> bool:
        """True when an address was produced (speculative or not)."""
        return self.address is not None

    def correct(self, actual: int) -> bool:
        """Whether the predicted address matches ``actual``."""
        return self.address is not None and self.address == actual


def lb_key(ip: int) -> int:
    """Table key for a load IP.

    Instruction pointers are 4-aligned in the mini-ISA (and mostly aligned
    in any ISA), so indexing a set-associative table with the raw IP would
    leave three quarters of the sets unused.  Dropping the two known-zero
    bits restores full set utilisation — the same trick hardware indexed
    structures use.
    """
    return ip >> 2


class AddressPredictor:
    """Abstract base class; concrete predictors override predict/update."""

    #: Width of the global branch-history register.
    GHR_BITS = 16
    #: Depth of the call-path history (recent call-site IPs).
    PATH_DEPTH = 4

    def __init__(self) -> None:
        self.ghr = 0
        self.call_path: list[int] = []
        # Attribution sink: an instrumented run's AttributionCounters,
        # attached from the outside by repro.eval.runner.instrument_predictor.
        # Wiring, not learned state: reset() forgets tables, never the probe.
        self.probe: Optional[Any] = None

    # -- core interface ------------------------------------------------------

    def predict(self, ip: int, offset: int) -> Prediction:
        """Predict the address of the load at ``ip`` with immediate ``offset``."""
        raise NotImplementedError

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        """Train on the resolved address ``actual`` for the load at ``ip``.

        ``prediction`` is the object previously returned by
        :meth:`predict` for this dynamic instance (the pipelined model may
        resolve it many predictions later).
        """
        raise NotImplementedError

    # -- control-flow notifications -----------------------------------------

    def on_branch(self, ip: int, taken: bool) -> None:
        """Record a conditional-branch outcome into the GHR."""
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & mask(self.GHR_BITS)

    def on_call(self, ip: int) -> None:
        """Record a call-site IP into the path history."""
        self.call_path.append(ip)
        if len(self.call_path) > self.PATH_DEPTH:
            del self.call_path[0]

    def on_return(self, ip: int) -> None:
        """Record a return (pops nothing by default; kept for symmetry)."""

    # -- housekeeping ----------------------------------------------------------

    def reset(self) -> None:
        """Forget all learned state (tables and histories)."""
        self.ghr = 0
        self.call_path = []

    @property
    def name(self) -> str:
        """Short display name."""
        return type(self).__name__
