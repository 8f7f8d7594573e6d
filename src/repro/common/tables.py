"""Generic hardware-style lookup tables.

The Load Buffer is a set-associative, tag-matched structure indexed by the
load instruction pointer; the Link Table is (by default) a direct-mapped
structure indexed by history bits.  Both are built on the two classes here.

Entries are arbitrary objects supplied by the caller; the tables manage
indexing, tag matching, LRU replacement and occupancy statistics only.

A :class:`SetAssociativeTable` builds its ways on first access, not in
``__init__`` (:class:`LazySets`); a :class:`DirectMappedTable` allocates
its slots at once.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from .bitops import is_power_of_two, log2_exact, mask

E = TypeVar("E")
W = TypeVar("W")

__all__ = ["LazySets", "SetAssociativeTable", "DirectMappedTable"]


class LazySets(Generic[W]):
    """Per-set way lists, built on first access.

    Most predictors the batch kernels evaluate are never read again, and
    allocating thousands of ways each was most of their commit cost.  So
    :meth:`sets` builds the storage when it is first needed, and a kernel
    commit that finds it unbuilt leaves a *pending fill*
    (:meth:`fill_later`) for the build to apply: every reader sees the
    same contents either way.  Hot paths test ``_sets`` for ``None``
    themselves and call :meth:`sets` only when it is.
    """

    def __init__(self, num_sets: int, ways: int, new_way: Callable[[], W]) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self._new_way = new_way
        self._sets: Optional[List[List[W]]] = None
        self._fill: Optional[Callable[[List[List[W]]], None]] = None

    def sets(self) -> List[List[W]]:
        """The ways of every set, built (and any pending fill applied) on
        first access."""
        sets = self._sets
        if sets is None:
            new_way = self._new_way
            sets = self._sets = [
                [new_way() for _ in range(self.ways)]
                for _ in range(self.num_sets)
            ]
            fill = self._fill
            if fill is not None:
                self._fill = None
                fill(sets)
        return sets

    def fill_later(self, fill: Callable[[List[List[W]]], None]) -> None:
        """Have ``fill`` write its ways when the storage is built.

        A fill that finds the storage built, or another fill pending, is
        applied at once, so fills always land in the order they came.
        """
        if self._sets is None and self._fill is None:
            self._fill = fill
        else:
            fill(self.sets())

    def clear(self) -> None:
        """Drop the storage and any pending fill."""
        self._sets = None
        self._fill = None


class _Way(Generic[E]):
    """One way of one set: a (tag, entry, lru) triple."""

    __slots__ = ("tag", "entry", "lru")

    def __init__(self) -> None:
        self.tag: Optional[int] = None
        self.entry: Optional[E] = None
        self.lru: int = 0

    @property
    def valid(self) -> bool:
        return self.tag is not None


class SetAssociativeTable(LazySets[_Way[E]]):
    """A set-associative table with true-LRU replacement.

    Keys are arbitrary integers (e.g. instruction pointers).  The low
    ``log2(num_sets)`` bits select the set and the remaining high bits form
    the tag, mirroring a hardware indexed/tagged structure.

    Parameters
    ----------
    entries:
        Total entry count (must be a power of two).
    ways:
        Associativity; ``entries`` must be divisible by ``ways``.
    """

    def __init__(self, entries: int, ways: int = 1) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        if ways < 1 or entries % ways:
            raise ValueError(f"ways={ways} does not divide entries={entries}")
        num_sets = entries // ways
        if not is_power_of_two(num_sets):
            raise ValueError("entries/ways must be a power of two")
        super().__init__(num_sets, ways, _Way)
        self.entries = entries
        self.index_bits = log2_exact(num_sets)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- indexing -------------------------------------------------------

    def _split(self, key: int) -> Tuple[int, int]:
        index = key & mask(self.index_bits)
        tag = key >> self.index_bits
        return index, tag

    # -- operations -----------------------------------------------------

    def lookup(self, key: int) -> Optional[E]:
        """Return the entry for ``key``, updating LRU, or ``None`` on miss."""
        sets = self._sets
        if sets is None:
            sets = self.sets()
        index, tag = self._split(key)
        for way in sets[index]:
            if way.valid and way.tag == tag:
                self._clock += 1
                way.lru = self._clock
                self.hits += 1
                return way.entry
        self.misses += 1
        return None

    def peek(self, key: int) -> Optional[E]:
        """Like :meth:`lookup` but without touching LRU or statistics."""
        index, tag = self._split(key)
        for way in self.sets()[index]:
            if way.valid and way.tag == tag:
                return way.entry
        return None

    def insert(self, key: int, entry: E) -> Optional[E]:
        """Insert ``entry`` under ``key``; return any evicted entry.

        If ``key`` is already present its entry is replaced in place (no
        eviction is reported).
        """
        sets = self._sets
        if sets is None:
            sets = self.sets()
        index, tag = self._split(key)
        ways = sets[index]
        self._clock += 1
        # Replace in place on a tag match.
        for way in ways:
            if way.valid and way.tag == tag:
                way.entry = entry
                way.lru = self._clock
                return None
        # Fill an invalid way if one exists.
        for way in ways:
            if not way.valid:
                way.tag = tag
                way.entry = entry
                way.lru = self._clock
                return None
        # Evict the LRU way.
        victim = min(ways, key=lambda w: w.lru)
        evicted = victim.entry
        victim.tag = tag
        victim.entry = entry
        victim.lru = self._clock
        self.evictions += 1
        return evicted

    def get_or_insert(self, key: int, factory: Callable[[], E]) -> Tuple[E, bool]:
        """Return ``(entry, hit)``; on miss create one via ``factory``."""
        found = self.lookup(key)
        if found is not None:
            return found, True
        created = factory()
        self.insert(key, created)
        return created, False

    def invalidate(self, key: int) -> bool:
        """Remove ``key`` from the table; return whether it was present."""
        index, tag = self._split(key)
        for way in self.sets()[index]:
            if way.valid and way.tag == tag:
                way.tag = None
                way.entry = None
                way.lru = 0
                return True
        return False

    def clear(self) -> None:
        """Drop every entry, and any pending fill, and reset statistics."""
        super().clear()
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- introspection ---------------------------------------------------

    def occupancy(self) -> int:
        """Number of valid entries currently resident."""
        return sum(1 for ways in self.sets() for w in ways if w.valid)

    def __iter__(self) -> Iterator[Tuple[int, E]]:
        """Yield ``(key, entry)`` for every valid entry."""
        for index, ways in enumerate(self.sets()):
            for way in ways:
                if way.valid:
                    assert way.tag is not None and way.entry is not None
                    yield (way.tag << self.index_bits) | index, way.entry

    def __len__(self) -> int:
        return self.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SetAssociativeTable(entries={self.entries}, ways={self.ways},"
            f" occupancy={self.occupancy()})"
        )


class DirectMappedTable(Generic[E]):
    """A direct-mapped, untagged table: index bits select the slot directly.

    This matches the paper's Link Table organisation — the LT is indexed by
    the low bits of the history value; any tag matching (Section 3.4 "LT
    Tags") is the *caller's* responsibility because the tag lives inside the
    entry and is compared as a confidence mechanism, not as a hit/miss
    condition.
    """

    def __init__(self, entries: int) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self.index_bits = log2_exact(entries)
        self._slots: List[Optional[E]] = [None] * entries
        self.conflict_writes = 0

    def index_of(self, key: int) -> int:
        """Slot index for ``key`` (its low ``index_bits`` bits)."""
        return key & mask(self.index_bits)

    def lookup(self, key: int) -> Optional[E]:
        """Return the slot contents for ``key`` (may be ``None``)."""
        return self._slots[self.index_of(key)]

    def insert(self, key: int, entry: E) -> None:
        """Write ``entry`` into the slot for ``key``."""
        index = self.index_of(key)
        if self._slots[index] is not None:
            self.conflict_writes += 1
        self._slots[index] = entry

    def get_or_insert(self, key: int, factory: Callable[[], E]) -> Tuple[E, bool]:
        """Return ``(entry, existed)``; on empty slot create via ``factory``."""
        index = self.index_of(key)
        existing = self._slots[index]
        if existing is not None:
            return existing, True
        created = factory()
        self._slots[index] = created
        return created, False

    def clear(self) -> None:
        """Empty every slot."""
        self._slots = [None] * self.entries
        self.conflict_writes = 0

    def occupancy(self) -> int:
        """Number of non-empty slots."""
        return sum(1 for slot in self._slots if slot is not None)

    def __iter__(self) -> Iterator[Tuple[int, E]]:
        """Yield ``(index, entry)`` for every non-empty slot."""
        for index, slot in enumerate(self._slots):
            if slot is not None:
                yield index, slot

    def __len__(self) -> int:
        return self.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DirectMappedTable(entries={self.entries},"
            f" occupancy={self.occupancy()})"
        )
