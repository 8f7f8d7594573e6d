"""Last-address predictor: A(N+1) = A(N).

The simplest scheme in the paper's taxonomy (Section 1): it speculates that
a static load keeps accessing the address it accessed last time.  The paper
reports it "surprisingly" covers about 40% of all loads (global scalars,
read-only constants, recurring stack references).  Reproduced here both as
a baseline for the Section 1 coverage claims and as a component other
studies hybridise with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.sat_counter import SaturatingCounter
from ..common.tables import SetAssociativeTable
from .base import AddressPredictor, Prediction, lb_key

__all__ = ["LastAddressConfig", "LastAddressPredictor"]


@dataclass(frozen=True)
class LastAddressConfig:
    """Table geometry and confidence parameters."""

    entries: int = 4096
    ways: int = 2
    confidence_threshold: int = 2
    confidence_max: Optional[int] = None
    hysteresis: bool = False


class _Entry:
    __slots__ = ("last_addr", "confidence")

    def __init__(self, config: LastAddressConfig) -> None:
        self.last_addr: Optional[int] = None
        self.confidence = SaturatingCounter(
            threshold=config.confidence_threshold,
            maximum=config.confidence_max,
            hysteresis=config.hysteresis,
        )


class LastAddressPredictor(AddressPredictor):
    """Per-static-load last-address table with a saturating confidence counter."""

    #: Batch-kernel capability flag (see :mod:`repro.kernels`).
    supports_batch = True

    def __init__(self, config: LastAddressConfig | None = None) -> None:
        super().__init__()
        self.config = config or LastAddressConfig()
        self.table: SetAssociativeTable[_Entry] = SetAssociativeTable(
            self.config.entries, self.config.ways
        )

    def predict(self, ip: int, offset: int) -> Prediction:
        entry = self.table.lookup(lb_key(ip))
        if entry is None:
            self.table.insert(lb_key(ip), _Entry(self.config))
            return Prediction()
        if entry.last_addr is None:
            return Prediction()
        return Prediction(
            address=entry.last_addr,
            speculative=entry.confidence.confident,
            source="last",
        )

    def update(self, ip: int, offset: int, actual: int, prediction: Prediction) -> None:
        entry = self.table.lookup(lb_key(ip))
        if entry is None:
            entry = _Entry(self.config)
            self.table.insert(lb_key(ip), entry)
        if entry.last_addr is not None:
            entry.confidence.update(entry.last_addr == actual)
        entry.last_addr = actual

    def predict_batch(self, batch):
        """Pure batch solver (see :mod:`repro.kernels.last_address`)."""
        from ..kernels.last_address import plan_last_address

        return plan_last_address(self, batch)

    def update_batch(self, batch, result) -> None:
        """Commit a batch result's end state: statistics now, table
        entries as pending fills applied on first read."""
        from ..kernels.last_address import commit_last_address

        commit_last_address(self, batch, result)

    def reset(self) -> None:
        super().reset()
        self.table.clear()

    @property
    def name(self) -> str:
        return "last-address"
