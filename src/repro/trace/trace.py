"""Column-oriented dynamic instruction traces.

A :class:`Trace` is what the functional CPU produces and what every
predictor, pipeline model and timing model consumes.  Events live in
parallel Python lists (one per column) with numpy used only for (de-)
serialisation; this keeps the hot recording path allocation-free apart from
list appends.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .event import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_NAMES,
    KIND_RET,
    LOAD_KINDS,
    STORE_KINDS,
    LoadEvent,
    TraceEvent,
)

__all__ = ["PredictorStream", "Trace", "TraceSummary"]

_COLUMNS = (
    "kind", "ip", "addr", "offset", "dst", "src1", "src2", "taken", "value",
)

#: Serialised names of the derived predictor-stream columns (``.npz`` keys).
_STREAM_COLUMNS = ("ps_tag", "ps_ip", "ps_a", "ps_b")


class PredictorStream:
    """Columnar predictor-visible event stream.

    Four parallel lists, one entry per predictor-visible event in program
    order, carrying the same ``(tag, ip, a, b)`` quadruples that
    :meth:`Trace.predictor_stream` packs into tuples:

    * ``(1, ip, addr, offset)`` for each dynamic load,
    * ``(0, ip, taken, 0)``     for each conditional branch,
    * ``(2, ip, 0, 0)``         for each call,
    * ``(3, ip, 0, 0)``         for each return.

    Keeping the columns separate avoids materialising millions of 4-tuples
    per trace; iterating yields tuples lazily (CPython's ``zip`` recycles
    the result tuple in a plain ``for`` loop, so the tuple-based consumers
    keep working unchanged at a fraction of the allocation cost).

    Columns may be held as Python lists (the recording path appends) or as
    ``numpy`` ``int64`` arrays (cache loads keep the deserialised arrays,
    feeding the batch kernels zero-copy).  Scalar consumers must go through
    :meth:`lists` — iterating an ``int64`` array yields numpy scalars whose
    ``<<`` overflows at 64 bits, so the per-event interpreters always work
    on Python ints.
    """

    __slots__ = ("tag", "ip", "a", "b", "loads", "_lists", "_arrays")

    def __init__(
        self,
        tag: "List[int] | np.ndarray",
        ip: "List[int] | np.ndarray",
        a: "List[int] | np.ndarray",
        b: "List[int] | np.ndarray",
        loads: Optional[int] = None,
    ) -> None:
        self.tag = tag
        self.ip = ip
        self.a = a
        self.b = b
        self._lists: Optional[Tuple[list, list, list, list]] = None
        self._arrays: Optional[Tuple[np.ndarray, ...]] = None
        #: Number of dynamic loads (``tag == 1`` entries), precomputed so
        #: warm-up bookkeeping never rescans the stream.
        if loads is None:
            if isinstance(tag, np.ndarray):
                loads = int(np.count_nonzero(tag == 1))
            else:
                loads = tag.count(1)
        self.loads = loads

    def __len__(self) -> int:
        return len(self.tag)

    def lists(self) -> Tuple[list, list, list, list]:
        """The four columns as Python lists of Python ints (memoised).

        The scalar evaluation loops iterate these: converting an ``int64``
        array once via ``tolist()`` is far cheaper than boxing a numpy
        scalar per element during iteration, and Python ints carry the
        arbitrary-precision shifts the predictors rely on.
        """
        if self._lists is None:
            cols = tuple(
                col.tolist() if isinstance(col, np.ndarray) else col
                for col in (self.tag, self.ip, self.a, self.b)
            )
            self._lists = cols  # type: ignore[assignment]
        return self._lists  # type: ignore[return-value]

    def arrays(self) -> Tuple["np.ndarray", ...]:
        """The four columns as ``int64`` numpy arrays (memoised).

        Zero-copy when the stream came from a cache file; a single
        ``np.asarray`` conversion otherwise.  This is the batch kernels'
        input format.
        """
        if self._arrays is None:
            self._arrays = tuple(
                col if isinstance(col, np.ndarray)
                else np.asarray(col, dtype=np.int64)
                for col in (self.tag, self.ip, self.a, self.b)
            )
        return self._arrays

    def __iter__(self) -> Iterator[Tuple[int, int, int, int]]:
        return zip(*self.lists())

    def tuples(self) -> List[tuple]:
        """Materialise the stream as the legacy list of 4-tuples."""
        return list(zip(*self.lists()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PredictorStream(events={len(self)}, loads={self.loads})"


@dataclass
class TraceSummary:
    """Aggregate statistics of one trace."""

    name: str
    instructions: int
    loads: int
    stores: int
    branches: int
    taken_branches: int
    static_loads: int
    kind_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def load_fraction(self) -> float:
        """Loads as a share of all instructions."""
        return self.loads / self.instructions if self.instructions else 0.0

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.instructions} instr, {self.loads} loads"
            f" ({self.load_fraction:.1%}), {self.static_loads} static loads,"
            f" {self.branches} branches"
        )


class Trace:
    """An executed instruction stream with metadata.

    Columns (all parallel, one entry per dynamic instruction):

    ``kind``   event kind code (:mod:`repro.trace.event`)
    ``ip``     instruction pointer
    ``addr``   effective address (memory ops) else 0
    ``offset`` immediate offset (memory ops) else 0
    ``dst``    destination register or -1
    ``src1``   first source register or -1
    ``src2``   second source register or -1
    ``taken``  1 when a branch/jump was taken
    ``value``  data value moved by a load/store (for value-prediction
               studies), else 0
    """

    def __init__(self, name: str = "", meta: Optional[dict] = None) -> None:
        self.name = name
        self.meta: dict = dict(meta or {})
        self.kind: List[int] = []
        self.ip: List[int] = []
        self.addr: List[int] = []
        self.offset: List[int] = []
        self.dst: List[int] = []
        self.src1: List[int] = []
        self.src2: List[int] = []
        self.taken: List[int] = []
        self.value: List[int] = []
        # Memoised derived streams.  Traces are immutable once a workload
        # finishes generating them, so these never need invalidation on the
        # hot recording path; ``extend`` (a cold path) clears them.
        self._predictor_stream: Optional[PredictorStream] = None
        self._predictor_tuples: Optional[List[tuple]] = None

    # -- recording (used by the CPU) ---------------------------------------

    def append(
        self,
        kind: int,
        ip: int,
        addr: int = 0,
        offset: int = 0,
        dst: int = -1,
        src1: int = -1,
        src2: int = -1,
        taken: int = 0,
        value: int = 0,
    ) -> None:
        """Record one dynamic instruction."""
        self.kind.append(kind)
        self.ip.append(ip)
        self.addr.append(addr)
        self.offset.append(offset)
        self.dst.append(dst)
        self.src1.append(src1)
        self.src2.append(src2)
        self.taken.append(taken)
        self.value.append(value)

    def extend(self, other: "Trace") -> None:
        """Concatenate another trace's events onto this one."""
        for col in _COLUMNS:
            getattr(self, col).extend(getattr(other, col))
        self._predictor_stream = None
        self._predictor_tuples = None

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kind)

    def __getitem__(self, index: int) -> TraceEvent:
        return TraceEvent(
            index=index,
            kind=self.kind[index],
            ip=self.ip[index],
            addr=self.addr[index],
            offset=self.offset[index],
            dst=self.dst[index],
            src1=self.src1[index],
            src2=self.src2[index],
            taken=self.taken[index],
            value=self.value[index],
        )

    def events(self) -> Iterator[TraceEvent]:
        """Iterate all events as :class:`TraceEvent` rows."""
        for index in range(len(self)):
            yield self[index]

    def loads(self) -> Iterator[LoadEvent]:
        """Iterate just the dynamic loads."""
        kinds = self.kind
        ips = self.ip
        addrs = self.addr
        offsets = self.offset
        for i in range(len(kinds)):
            if kinds[i] in LOAD_KINDS:
                yield LoadEvent(ips[i], addrs[i], offsets[i])

    def predictor_columns(self) -> PredictorStream:
        """Columnar predictor-visible stream (memoised).

        Same events and ordering as :meth:`predictor_stream`, held as four
        parallel lists instead of a list of tuples.  Built once per trace;
        traces loaded from a cache file restore it directly from the
        persisted columns without rescanning the full event columns.
        """
        if self._predictor_stream is None:
            tags: List[int] = []
            s_ips: List[int] = []
            s_a: List[int] = []
            s_b: List[int] = []
            loads = 0
            kinds = self.kind
            ips = self.ip
            addrs = self.addr
            offsets = self.offset
            takens = self.taken
            load_kinds = LOAD_KINDS
            for i in range(len(kinds)):
                k = kinds[i]
                if k in load_kinds:
                    tags.append(1)
                    s_ips.append(ips[i])
                    s_a.append(addrs[i])
                    s_b.append(offsets[i])
                    loads += 1
                    if k == KIND_RET:
                        tags.append(3)
                        s_ips.append(ips[i])
                        s_a.append(0)
                        s_b.append(0)
                elif k == KIND_BRANCH:
                    tags.append(0)
                    s_ips.append(ips[i])
                    s_a.append(takens[i])
                    s_b.append(0)
                elif k == KIND_CALL:
                    tags.append(2)
                    s_ips.append(ips[i])
                    s_a.append(0)
                    s_b.append(0)
            self._predictor_stream = PredictorStream(
                tags, s_ips, s_a, s_b, loads=loads
            )
        return self._predictor_stream

    def predictor_stream(self) -> List[tuple]:
        """Compact stream for predictor evaluation (memoised).

        Returns a list of tuples in program order:

        * ``(1, ip, addr, offset)`` for each dynamic load,
        * ``(0, ip, taken, 0)``     for each conditional branch (GHR food),
        * ``(2, ip, 0, 0)``         for each call (call-path history food),
        * ``(3, ip, 0, 0)``         for each return.

        A ``ret`` both loads its return address and pops the call path, so
        it contributes a load tuple followed by a return marker.  Events the
        address predictors never observe (plain ALU ops, stores) are
        dropped.  Prefer :meth:`predictor_columns` in new code — it carries
        the same data without allocating one tuple per event.
        """
        if self._predictor_tuples is None:
            self._predictor_tuples = self.predictor_columns().tuples()
        return self._predictor_tuples

    def value_columns(self) -> PredictorStream:
        """Per-load ``(1, ip, loaded_value, 0)`` stream, for value prediction.

        The paper (Section 1) contrasts load-address prediction with load-
        *value* prediction ("its lower predictability makes this option
        less attractive").  Any address predictor run over this stream
        predicts values instead: ``last_address`` is the last-value
        predictor and ``basic_stride`` the stride-value predictor.
        """
        rows = [i for i, kind in enumerate(self.kind) if kind in LOAD_KINDS]
        ips = self.ip
        values = self.value
        return PredictorStream(
            [1] * len(rows),
            [ips[i] for i in rows],
            [values[i] for i in rows],
            [0] * len(rows),
            loads=len(rows),
        )

    # -- statistics ----------------------------------------------------------

    def summary(self) -> TraceSummary:
        """Compute aggregate statistics."""
        kind_counts: Dict[str, int] = {}
        loads = stores = branches = taken_branches = 0
        static_loads = set()
        for i, k in enumerate(self.kind):
            kind_counts[KIND_NAMES[k]] = kind_counts.get(KIND_NAMES[k], 0) + 1
            if k in LOAD_KINDS:
                loads += 1
                static_loads.add(self.ip[i])
            elif k in STORE_KINDS:
                stores += 1
            elif k == KIND_BRANCH:
                branches += 1
                taken_branches += self.taken[i]
        return TraceSummary(
            name=self.name,
            instructions=len(self),
            loads=loads,
            stores=stores,
            branches=branches,
            taken_branches=taken_branches,
            static_loads=len(static_loads),
            kind_counts=kind_counts,
        )

    # -- persistence -----------------------------------------------------------

    def save(self, path: "Path | str") -> None:
        """Serialise to a compressed ``.npz`` file.

        The write is atomic (tmp file + ``os.replace``) so a concurrent
        reader never observes a torn archive, and the derived predictor
        stream is persisted as columnar arrays so loads skip the full-trace
        rescan.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {
            col: np.asarray(getattr(self, col), dtype=np.int64)
            for col in _COLUMNS
        }
        stream = self.predictor_columns()
        for key, column in zip(
            _STREAM_COLUMNS, (stream.tag, stream.ip, stream.a, stream.b)
        ):
            arrays[key] = np.asarray(column, dtype=np.int64)
        header = json.dumps({"name": self.name, "meta": self.meta})
        # The .npz suffix keeps numpy from appending one of its own.
        tmp = path.with_name(f".{path.stem}.tmp.{os.getpid()}.npz")
        try:
            np.savez_compressed(
                tmp, header=np.frombuffer(header.encode(), dtype=np.uint8),
                **arrays,
            )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - error cleanup
                tmp.unlink()

    @classmethod
    def load(cls, path: "Path | str") -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            header = json.loads(bytes(data["header"].tobytes()).decode())
            trace = cls(name=header.get("name", ""), meta=header.get("meta", {}))
            for col in _COLUMNS:
                if col in data:
                    setattr(trace, col, data[col].tolist())
                else:  # older cache files lack the value column
                    setattr(trace, col, [0] * len(data["kind"]))
            if all(key in data for key in _STREAM_COLUMNS):
                # Kept as int64 arrays: the batch kernels consume them
                # zero-copy and scalar consumers convert via .lists().
                trace._predictor_stream = PredictorStream(
                    data["ps_tag"],
                    data["ps_ip"],
                    data["ps_a"],
                    data["ps_b"],
                )
        return trace

    @classmethod
    def load_header(cls, path: "Path | str") -> dict:
        """Load just the name/meta header from a cache file.

        Provenance consumers (run manifests, ``repro ingest describe``)
        need the metadata of a cached trace without deserialising any of
        the event columns; ``.npz`` members load lazily, so this touches
        only the tiny ``header`` array.
        """
        with np.load(Path(path)) as data:
            return json.loads(bytes(data["header"].tobytes()).decode())

    @classmethod
    def load_stream(cls, path: "Path | str") -> Optional[PredictorStream]:
        """Load just the predictor stream from a cache file.

        ``.npz`` members deserialise lazily, so predictor-only consumers
        (the experiment engine's ``predict`` jobs) skip the nine full event
        columns and read only the four stream arrays — an order of
        magnitude less work on a warm cache.  Returns ``None`` for archives
        written before the stream columns existed.
        """
        with np.load(Path(path)) as data:
            if not all(key in data for key in _STREAM_COLUMNS):
                return None
            return PredictorStream(
                data["ps_tag"],
                data["ps_ip"],
                data["ps_a"],
                data["ps_b"],
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Trace(name={self.name!r}, events={len(self)})"
