"""The Link Table (LT): context -> next-address links (Sections 3.1–3.5).

The LT is indexed by the low bits of a load's history value.  Three paper
mechanisms live here:

* **LT tags** (Section 3.4): the history is made wider than the index and
  its high bits are stored as a tag; speculative accesses require a tag
  match.  Tags also enable a set-associative LT.
* **PF bits** (Section 3.5): a few bits (2..5) of the last value written.
  The link/tag fields are overwritten only when the incoming value's PF
  bits match the stored ones — i.e. a link must be seen twice in a row —
  which keeps non-recurring or over-long sequences from polluting the LT
  and adds hysteresis.
* **Decoupled PF table** (Section 3.5, after [Mora98]): optionally the PF
  bits move to a larger direct-mapped side table indexed by more history
  bits, giving finer granularity for the same LT size.

Like the Load Buffer, the LT builds its ways on first access
(:class:`~repro.common.tables.LazySets`).  The decoupled PF table is
built at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..common.bitops import bits, mask
from ..common.tables import LazySets

__all__ = ["LinkTableConfig", "LinkEntry", "LinkTable"]


@dataclass(frozen=True)
class LinkTableConfig:
    """Geometry and feature switches for a Link Table."""

    entries: int = 4096
    ways: int = 1
    tag_bits: int = 8
    pf_bits: int = 4
    pf_low_bit: int = 2
    pf_decoupled: bool = False
    pf_table_entries: int = 16384

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.entries & (self.entries - 1):
            raise ValueError("entries must be a positive power of two")
        if self.ways < 1 or self.entries % self.ways:
            raise ValueError("ways must divide entries")
        sets = self.entries // self.ways
        if sets & (sets - 1):
            raise ValueError("entries/ways must be a power of two")
        if self.ways > 1 and self.tag_bits == 0:
            raise ValueError("a set-associative LT requires tags (tag_bits > 0)")
        if self.tag_bits < 0 or self.pf_bits < 0:
            raise ValueError("bit widths must be non-negative")

    @property
    def index_bits(self) -> int:
        """Bits of history used for set selection."""
        return (self.entries // self.ways).bit_length() - 1

    @property
    def history_bits(self) -> int:
        """Total history width: index plus tag."""
        return self.index_bits + self.tag_bits


class LinkEntry:
    """One LT way."""

    __slots__ = ("link", "tag", "pf", "stamp")

    def __init__(self) -> None:
        self.link: Optional[int] = None  # predicted (base) address or delta
        self.tag: Optional[int] = None
        self.pf: Optional[int] = None
        self.stamp = 0                   # LRU / recency clock

    @property
    def valid(self) -> bool:
        return self.link is not None


class LinkTable(LazySets[LinkEntry]):
    """History-indexed link storage with tags and PF-gated updates."""

    def __init__(self, config: LinkTableConfig | None = None) -> None:
        self.config = config or LinkTableConfig()
        cfg = self.config
        super().__init__(cfg.entries // cfg.ways, cfg.ways, LinkEntry)
        self._index_mask = mask(cfg.index_bits)
        self._clock = 0
        # Decoupled PF side table (optional).
        if cfg.pf_decoupled:
            if cfg.pf_table_entries & (cfg.pf_table_entries - 1):
                raise ValueError("pf_table_entries must be a power of two")
            self._pf_table: Optional[List[Optional[int]]] = (
                [None] * cfg.pf_table_entries
            )
            self._pf_index_mask = mask(cfg.pf_table_entries.bit_length() - 1)
        else:
            self._pf_table = None
            self._pf_index_mask = 0
        # Statistics.
        self.lookups = 0
        self.tag_mismatches = 0
        self.pf_rejections = 0
        self.link_writes = 0
        # Attribution sink (see AddressPredictor.probe).
        self.probe: Optional[Any] = None

    # -- field extraction ----------------------------------------------------

    def _index(self, history: int) -> int:
        return history & self._index_mask

    def _tag(self, history: int) -> int:
        cfg = self.config
        if cfg.tag_bits == 0:
            return 0
        return (history >> cfg.index_bits) & mask(cfg.tag_bits)

    def _pf_of(self, value: int) -> int:
        cfg = self.config
        return bits(value, cfg.pf_low_bit, cfg.pf_low_bit + cfg.pf_bits)

    # -- prediction path ---------------------------------------------------------

    def lookup(self, history: int) -> Tuple[Optional[int], bool]:
        """Return ``(link, tag_ok)`` for this history context.

        ``link`` is the stored value of the best-matching way (``None`` when
        nothing useful is stored); ``tag_ok`` reports the Section 3.4 tag
        confidence check.  Without tags every valid link is ``tag_ok``.
        """
        self.lookups += 1
        sets = self._sets
        if sets is None:
            sets = self.sets()
        ways = sets[self._index(history)]
        tag = self._tag(history)
        if self.config.tag_bits == 0:
            entry = ways[0]
            if entry.valid:
                return entry.link, True
            if self.probe is not None:
                self.probe.lt_misses += 1
            return None, False
        best: Optional[LinkEntry] = None
        for entry in ways:
            if entry.valid and entry.tag == tag:
                return entry.link, True
            if entry.valid and (best is None or entry.stamp > best.stamp):
                best = entry
        self.tag_mismatches += 1
        if self.probe is not None:
            # Attribution: a stored-but-mistagged link is a different cause
            # than an empty set (no link learned for this context at all).
            if best is not None:
                self.probe.lt_tag_mismatches += 1
            else:
                self.probe.lt_misses += 1
        # No tag match: the most recent link still gives a (low-confidence,
        # non-speculative) prediction, matching the paper's "a prediction is
        # always performed on a LB hit" wording.
        return (best.link, False) if best is not None else (None, False)

    # -- training path ----------------------------------------------------------

    def _pf_allows(self, history: int, entry: LinkEntry, value: int) -> bool:
        """Apply the PF filter; returns whether link/tag may be written.

        Always updates the stored PF bits themselves.
        """
        cfg = self.config
        if cfg.pf_bits == 0:
            return True
        pf_new = self._pf_of(value)
        if self._pf_table is not None:
            slot = history & self._pf_index_mask
            previous = self._pf_table[slot]
            self._pf_table[slot] = pf_new
        else:
            previous = entry.pf
            entry.pf = pf_new
        if previous == pf_new:
            return True
        self.pf_rejections += 1
        if self.probe is not None:
            self.probe.pf_rejections += 1
        return False

    def update(self, history: int, value: int) -> bool:
        """Record that context ``history`` was followed by ``value``.

        Returns True when the link was actually written (PF permitting).
        """
        sets = self._sets
        if sets is None:
            sets = self.sets()
        ways = sets[self._index(history)]
        tag = self._tag(history)
        self._clock += 1

        # Choose the way: tag match first, then invalid, then LRU victim.
        target: Optional[LinkEntry] = None
        for entry in ways:
            if entry.valid and entry.tag == tag:
                target = entry
                break
        if target is None:
            for entry in ways:
                if not entry.valid:
                    target = entry
                    break
        if target is None:
            target = min(ways, key=lambda e: e.stamp)

        if not self._pf_allows(history, target, value):
            return False
        target.link = value
        target.tag = tag
        target.stamp = self._clock
        self.link_writes += 1
        return True

    # -- housekeeping ----------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry, and any pending fill, and reset statistics."""
        super().clear()
        if self._pf_table is not None:
            self._pf_table = [None] * self.config.pf_table_entries
        self._clock = 0
        self.lookups = 0
        self.tag_mismatches = 0
        self.pf_rejections = 0
        self.link_writes = 0

    def occupancy(self) -> int:
        """Number of valid links stored."""
        return sum(1 for ways in self.sets() for e in ways if e.valid)

    def dump(self) -> List[Tuple[int, int, int, Optional[int], Optional[int]]]:
        """Architectural contents: ``(set, way, link, tag, pf)`` per valid way.

        Recency stamps and statistics are excluded on purpose — two tables
        that store the same links are architecturally equal no matter how
        they got there.  The differential verification harness diffs this
        against the spec oracle's Link Table.
        """
        return [
            (set_index, way_index, entry.link, entry.tag, entry.pf)
            for set_index, ways in enumerate(self.sets())
            for way_index, entry in enumerate(ways)
            if entry.valid
        ]
