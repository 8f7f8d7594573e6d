"""Spec oracles: slow, dict-based reference models of the paper's predictors.

These models are written straight from the prose of Bekerman et al.
(Sections 3–4) and deliberately do **not** import anything from
:mod:`repro.predictors` — no shared tables, counters, history functions or
config objects.  Every structure is a plain dict or list, every rule is
spelled out inline, and clarity always wins over speed.  The differential
engine (:mod:`repro.verify.differential`) replays traces through an oracle
and through both production evaluation paths and requires them to be
bit-identical; a divergence means one side misreads the paper.

Scope: the *immediate-update* machine model of Section 4 (prediction
verified before the next load of the same static load resolves).  The
Section 5 pipelined model layers speculative state on top and is out of
oracle scope for now.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "OraclePrediction",
    "SpecCAP",
    "SpecStride",
    "SpecHybrid",
]

_MASK32 = (1 << 32) - 1


class OraclePrediction:
    """Duck-type of :class:`repro.predictors.base.Prediction`.

    Carries exactly the fields the runner loops and the differential
    records read, so an oracle can be driven by the *production*
    evaluation loop unchanged.
    """

    __slots__ = ("address", "speculative", "source", "ghr", "info")

    def __init__(
        self,
        address: Optional[int] = None,
        speculative: bool = False,
        source: str = "",
        ghr: int = 0,
        info: Optional[dict] = None,
    ) -> None:
        self.address = address
        self.speculative = speculative
        self.source = source
        self.ghr = ghr
        self.info = info

    @property
    def made(self) -> bool:
        return self.address is not None


# ---------------------------------------------------------------------------
# Shared scalar rules (Sections 3.2 and 3.4), restated from the prose.
# ---------------------------------------------------------------------------


def _mask(width: int) -> int:
    return (1 << width) - 1


def _fold(value: int, width: int) -> int:
    """xor-fold an address subset down to ``width`` bits."""
    folded = 0
    while value:
        folded ^= value & _mask(width)
        value >>= width
    return folded


class _HistoryRule:
    """shift(m)-xor history compaction: Section 3.2.

    ``new = truncate((old << m) ^ subset(address))`` where the subset drops
    the two LSBs and xor-folds the rest to the history width, and
    ``m = ceil(width / effective_length)``.
    """

    def __init__(self, width: int, length: int, drop_low_bits: int) -> None:
        self.width = width
        self.shift = max(1, math.ceil(width / length))
        self.drop_low_bits = drop_low_bits

    def update(self, history: int, address: int) -> int:
        subset = _fold(address >> self.drop_low_bits, self.width)
        return ((history << self.shift) ^ subset) & _mask(self.width)


class _Confidence:
    """Section 3.4 saturating confidence: +1 on correct, reset (or -1) on
    wrong, fires at the threshold."""

    __slots__ = ("value", "threshold", "maximum", "hysteresis")

    def __init__(
        self, threshold: int, maximum: Optional[int], hysteresis: bool,
    ) -> None:
        self.value = 0
        self.threshold = threshold
        self.maximum = threshold if maximum is None else maximum
        self.hysteresis = hysteresis

    @property
    def confident(self) -> bool:
        return self.value >= self.threshold

    def update(self, correct: bool) -> None:
        if correct:
            if self.value < self.maximum:
                self.value += 1
        elif self.hysteresis:
            if self.value > 0:
                self.value -= 1
        else:
            self.value = 0


class _CFI:
    """Control-flow indication filter (Section 3.4).

    ``last``: remember the GHR LSB pattern of the last wrong speculative
    access and refuse to speculate on it again; a correct prediction on
    that pattern redeems it.  ``paths``: one blocked bit per pattern.
    """

    __slots__ = ("mode", "bits", "bad_pattern", "bad_paths")

    def __init__(self, mode: str, bits: int) -> None:
        self.mode = mode
        self.bits = bits
        self.bad_pattern: Optional[int] = None
        self.bad_paths = 0

    def allows(self, ghr: int) -> bool:
        if self.mode == "off":
            return True
        pattern = ghr & _mask(self.bits)
        if self.mode == "last":
            return pattern != self.bad_pattern
        return not (self.bad_paths >> pattern) & 1

    def record(self, ghr: int, correct: bool, speculated: bool) -> None:
        if self.mode == "off":
            return
        pattern = ghr & _mask(self.bits)
        if self.mode == "last":
            if not correct and speculated:
                self.bad_pattern = pattern
            elif correct and self.bad_pattern == pattern:
                self.bad_pattern = None
        else:
            if correct:
                self.bad_paths &= ~(1 << pattern)
            elif speculated:
                self.bad_paths |= 1 << pattern


class _LRUSets:
    """A set-associative table as a list of insertion-ordered dicts.

    Keys are split exactly like the hardware structure: the low
    ``log2(sets)`` bits pick the set, the rest is the (dict) tag.  Dict
    order *is* recency order — a touch pops and re-inserts, eviction drops
    the first (= least recently touched) item.
    """

    def __init__(self, entries: int, ways: int) -> None:
        self.ways = ways
        self.num_sets = entries // ways
        self.index_mask = self.num_sets - 1
        self.sets: List[Dict[int, dict]] = [{} for _ in range(self.num_sets)]

    def lookup(self, key: int) -> Optional[dict]:
        """Return the entry for ``key`` (refreshing its recency) or None."""
        bucket = self.sets[key & self.index_mask]
        entry = bucket.pop(key, None)
        if entry is not None:
            bucket[key] = entry  # most recently used again
        return entry

    def insert(self, key: int, entry: dict) -> None:
        """Insert ``key``, evicting the set's LRU entry when full."""
        bucket = self.sets[key & self.index_mask]
        if key not in bucket and len(bucket) >= self.ways:
            del bucket[next(iter(bucket))]
        bucket.pop(key, None)
        bucket[key] = entry

    def items(self) -> List[Tuple[int, dict]]:
        return [(key, e) for bucket in self.sets for key, e in bucket.items()]


# ---------------------------------------------------------------------------
# The CAP rules (Section 3): Load Buffer fields + Link Table.
# ---------------------------------------------------------------------------


class _CapCore:
    """CAP prediction/training rules plus the Link Table they own.

    Operates on per-static-load *field dicts* so :class:`SpecHybrid` can
    embed the same rules over its shared Load Buffer, mirroring the
    paper's shared-LB organisation (Section 3.7).
    """

    def __init__(
        self,
        lt_entries: int = 4096,
        lt_ways: int = 1,
        tag_bits: int = 8,
        pf_bits: int = 4,
        pf_low_bit: int = 2,
        pf_decoupled: bool = False,
        pf_table_entries: int = 16384,
        history_length: int = 4,
        offset_bits: int = 8,
        correlation: str = "base",
        confidence_threshold: int = 2,
        confidence_max: Optional[int] = None,
        hysteresis: bool = False,
        cfi_mode: str = "last",
        cfi_bits: int = 4,
        drop_low_bits: int = 2,
    ) -> None:
        self.lt_ways = lt_ways
        self.lt_sets = lt_entries // lt_ways
        self.index_bits = self.lt_sets.bit_length() - 1
        self.tag_bits = tag_bits
        self.history_bits = self.index_bits + tag_bits
        self.pf_bits = pf_bits
        self.pf_low_bit = pf_low_bit
        self.offset_bits = offset_bits
        self.offset_mask = _mask(offset_bits)
        self.correlation = correlation
        self.confidence_threshold = confidence_threshold
        self.confidence_max = confidence_max
        self.hysteresis = hysteresis
        self.cfi_mode = cfi_mode
        self.cfi_bits = cfi_bits
        self.history_rule = _HistoryRule(
            self.history_bits, history_length, drop_low_bits
        )
        # The Link Table: per set, an ordered list of way dicts
        # {"link", "tag", "pf", "stamp"}.  Invalid ways have link None.
        self.lt: List[List[dict]] = [
            [
                {"link": None, "tag": None, "pf": None, "stamp": 0}
                for _ in range(lt_ways)
            ]
            for _ in range(self.lt_sets)
        ]
        self.lt_clock = 0
        # Optional decoupled PF side table (Section 3.5, after [Mora98]).
        self.pf_table: Optional[List[Optional[int]]] = (
            [None] * pf_table_entries if pf_decoupled else None
        )
        self.pf_table_mask = pf_table_entries - 1

    # -- per-load fields ----------------------------------------------------

    def new_fields(self, offset: int) -> dict:
        """Fresh LB fields for a static load first seen with ``offset``.

        Only the offset LSBs are recorded (Section 3.3) — and they are
        captured once, at allocation, like the hardware entry's immediate
        field.
        """
        return {
            "offset": offset & self.offset_mask,
            "history": 0,
            "confidence": _Confidence(
                self.confidence_threshold, self.confidence_max, self.hysteresis
            ),
            "cfi": _CFI(self.cfi_mode, self.cfi_bits),
            "last_addr": None,
        }

    # -- base-address arithmetic (truncated 8-bit adders, Section 3.3) ------

    def base_of(self, addr: int, offset: int) -> int:
        om = self.offset_mask
        return (addr & ~om) | ((addr - (offset & om)) & om)

    def addr_of(self, base: int, offset: int) -> int:
        om = self.offset_mask
        return (base & ~om) | ((base + (offset & om)) & om)

    def _link_value(self, fields: dict, actual: int) -> Optional[int]:
        if self.correlation == "base":
            return self.base_of(actual, fields["offset"])
        if self.correlation == "real":
            return actual
        if fields["last_addr"] is None:
            return None
        return (actual - fields["last_addr"]) & _MASK32

    def _predicted_addr(self, fields: dict, link: int) -> Optional[int]:
        if self.correlation == "base":
            return self.addr_of(link, fields["offset"])
        if self.correlation == "real":
            return link
        if fields["last_addr"] is None:
            return None
        return (fields["last_addr"] + link) & _MASK32

    # -- Link Table ---------------------------------------------------------

    def _lt_split(self, history: int) -> Tuple[int, int]:
        index = history & (self.lt_sets - 1)
        tag = (history >> self.index_bits) & _mask(self.tag_bits)
        return index, tag

    def lt_lookup(self, history: int) -> Tuple[Optional[int], bool]:
        """``(link, tag_ok)``: tag match wins; otherwise the most recently
        written way still provides a low-confidence link ("a prediction is
        always performed on a LB hit")."""
        index, tag = self._lt_split(history)
        ways = self.lt[index]
        if self.tag_bits == 0:
            entry = ways[0]
            if entry["link"] is None:
                return None, False
            return entry["link"], True
        best = None
        for entry in ways:
            if entry["link"] is None:
                continue
            if entry["tag"] == tag:
                return entry["link"], True
            if best is None or entry["stamp"] > best["stamp"]:
                best = entry
        if best is None:
            return None, False
        return best["link"], False

    def lt_update(self, history: int, value: int) -> None:
        """Record context -> value, subject to the PF filter (Section 3.5).

        The PF bits themselves always track the newest value; the link and
        tag are overwritten only when the value's PF bits match the stored
        ones — a link must be seen twice in a row to displace another.
        """
        index, tag = self._lt_split(history)
        ways = self.lt[index]
        self.lt_clock += 1
        target = None
        for entry in ways:  # tag match first
            if entry["link"] is not None and entry["tag"] == tag:
                target = entry
                break
        if target is None:  # then any invalid way
            for entry in ways:
                if entry["link"] is None:
                    target = entry
                    break
        if target is None:  # then the LRU victim
            target = min(ways, key=lambda e: e["stamp"])
        # PF gate.
        if self.pf_bits:
            pf_new = (value >> self.pf_low_bit) & _mask(self.pf_bits)
            if self.pf_table is not None:
                slot = history & self.pf_table_mask
                previous = self.pf_table[slot]
                self.pf_table[slot] = pf_new
            else:
                previous = target["pf"]
                target["pf"] = pf_new
            if previous != pf_new:
                return  # rejected: value not yet seen twice in this context
        target["link"] = value
        target["tag"] = tag
        target["stamp"] = self.lt_clock

    def lt_dump(self) -> List[Tuple[int, int, int, Optional[int], Optional[int]]]:
        """Architectural LT contents, same format as ``LinkTable.dump``."""
        return [
            (set_index, way_index, e["link"], e["tag"], e["pf"])
            for set_index, ways in enumerate(self.lt)
            for way_index, e in enumerate(ways)
            if e["link"] is not None
        ]

    # -- prediction / training ---------------------------------------------

    def predict(self, fields: dict, ghr: int) -> OraclePrediction:
        link, tag_ok = self.lt_lookup(fields["history"])
        if link is None:
            return OraclePrediction(source="cap", ghr=ghr)
        address = self._predicted_addr(fields, link)
        if address is None:
            return OraclePrediction(source="cap", ghr=ghr)
        speculative = (
            tag_ok
            and fields["confidence"].confident
            and fields["cfi"].allows(ghr)
        )
        return OraclePrediction(
            address=address, speculative=speculative, source="cap", ghr=ghr,
        )

    def train(
        self,
        fields: dict,
        actual: int,
        predicted_addr: Optional[int],
        ghr_at_predict: int,
        speculated: bool,
        update_lt: bool = True,
    ) -> None:
        if predicted_addr is not None:
            correct = predicted_addr == actual
            fields["confidence"].update(correct)
            fields["cfi"].record(ghr_at_predict, correct, speculated)
        value = self._link_value(fields, actual)
        if value is not None:
            if update_lt:
                # The pre-update history is the context that led here.
                self.lt_update(fields["history"], value)
            fields["history"] = self.history_rule.update(
                fields["history"], value
            )
        fields["last_addr"] = actual


# ---------------------------------------------------------------------------
# The stride rules (Sections 2, 4.4): two-delta + CFI + interval.
# ---------------------------------------------------------------------------


class _StrideCore:
    """Enhanced-stride prediction/training rules over per-load field dicts."""

    def __init__(
        self,
        confidence_threshold: int = 2,
        confidence_max: Optional[int] = None,
        hysteresis: bool = False,
        two_delta: bool = True,
        cfi_mode: str = "last",
        cfi_bits: int = 4,
        use_interval: bool = True,
    ) -> None:
        self.confidence_threshold = confidence_threshold
        self.confidence_max = confidence_max
        self.hysteresis = hysteresis
        self.two_delta = two_delta
        self.cfi_mode = cfi_mode
        self.cfi_bits = cfi_bits
        self.use_interval = use_interval

    def new_fields(self) -> dict:
        return {
            "last_addr": None,
            "stride": 0,
            "last_delta": None,
            "confidence": _Confidence(
                self.confidence_threshold, self.confidence_max, self.hysteresis
            ),
            "cfi": _CFI(self.cfi_mode, self.cfi_bits),
            "run_length": 0,
            "interval": 0,
        }

    def predict(self, fields: dict, ghr: int) -> OraclePrediction:
        if fields["last_addr"] is None:
            return OraclePrediction(source="stride", ghr=ghr)
        address = (fields["last_addr"] + fields["stride"]) & _MASK32
        speculative = (
            fields["confidence"].confident and fields["cfi"].allows(ghr)
        )
        if (
            speculative
            and self.use_interval
            and fields["interval"]
            and fields["run_length"] >= fields["interval"]
        ):
            # Learned traversal length exhausted: withhold rather than
            # mispredict off the end of the array (Section 4.4).
            speculative = False
        return OraclePrediction(
            address=address, speculative=speculative, source="stride", ghr=ghr,
        )

    def train(
        self,
        fields: dict,
        actual: int,
        predicted_addr: Optional[int],
        ghr_at_predict: int,
        speculated: bool,
        had_prediction: bool = True,
    ) -> None:
        if not had_prediction and predicted_addr is None:
            # No captured sub-prediction (hybrid LB-miss path): in the
            # immediate model the in-flight value is last_addr + stride.
            if fields["last_addr"] is not None:
                predicted_addr = (
                    fields["last_addr"] + fields["stride"]
                ) & _MASK32
        if predicted_addr is not None:
            correct = predicted_addr == actual
            fields["confidence"].update(correct)
            fields["cfi"].record(ghr_at_predict, correct, speculated)
            if self.use_interval:
                if correct:
                    fields["run_length"] += 1
                else:
                    if fields["run_length"]:
                        fields["interval"] = fields["run_length"]
                    fields["run_length"] = 0
        if fields["last_addr"] is not None:
            delta = (actual - fields["last_addr"]) & _MASK32
            if self.two_delta:
                if (
                    fields["last_delta"] is not None
                    and delta == fields["last_delta"]
                ):
                    fields["stride"] = delta
                fields["last_delta"] = delta
            else:
                fields["stride"] = delta
        fields["last_addr"] = actual


# ---------------------------------------------------------------------------
# Stand-alone oracles (own Load Buffer) and the shared-LB hybrid.
# ---------------------------------------------------------------------------


class SpecCAP:
    """Reference CAP: Section 3's two-level LB/LT organisation."""

    def __init__(
        self, lb_entries: int = 4096, lb_ways: int = 2, **core_kwargs,
    ) -> None:
        self.core = _CapCore(**core_kwargs)
        self.lb = _LRUSets(lb_entries, lb_ways)
        self.ghr = 0

    name = "spec-cap"

    def predict(self, ip: int, offset: int) -> OraclePrediction:
        fields = self.lb.lookup(ip >> 2)
        if fields is None:
            self.lb.insert(ip >> 2, self.core.new_fields(offset))
            return OraclePrediction(source="cap", ghr=self.ghr)
        return self.core.predict(fields, self.ghr)

    def update(
        self, ip: int, offset: int, actual: int, prediction: OraclePrediction,
    ) -> None:
        fields = self.lb.lookup(ip >> 2)
        if fields is None:
            fields = self.core.new_fields(offset)
            self.lb.insert(ip >> 2, fields)
        self.core.train(
            fields,
            actual,
            predicted_addr=prediction.address,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative,
        )

    def on_branch(self, ip: int, taken: bool) -> None:
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & _mask(16)

    def on_call(self, ip: int) -> None:
        pass

    def on_return(self, ip: int) -> None:
        pass

    # -- verification hooks -------------------------------------------------

    def lt_dump(self):
        return self.core.lt_dump()

    def confidence_dump(self) -> Dict[int, tuple]:
        return {
            key: (fields["confidence"].value,)
            for key, fields in self.lb.items()
        }


class SpecStride:
    """Reference (enhanced) stride predictor over its own Load Buffer."""

    def __init__(
        self, entries: int = 4096, ways: int = 2, **core_kwargs,
    ) -> None:
        self.core = _StrideCore(**core_kwargs)
        self.lb = _LRUSets(entries, ways)
        self.ghr = 0

    name = "spec-stride"

    def predict(self, ip: int, offset: int) -> OraclePrediction:
        fields = self.lb.lookup(ip >> 2)
        if fields is None:
            self.lb.insert(ip >> 2, self.core.new_fields())
            return OraclePrediction(source="stride", ghr=self.ghr)
        return self.core.predict(fields, self.ghr)

    def update(
        self, ip: int, offset: int, actual: int, prediction: OraclePrediction,
    ) -> None:
        fields = self.lb.lookup(ip >> 2)
        if fields is None:
            fields = self.core.new_fields()
            self.lb.insert(ip >> 2, fields)
        self.core.train(
            fields,
            actual,
            predicted_addr=prediction.address,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative,
            had_prediction=True,
        )

    def on_branch(self, ip: int, taken: bool) -> None:
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & _mask(16)

    def on_call(self, ip: int) -> None:
        pass

    def on_return(self, ip: int) -> None:
        pass

    def lt_dump(self):
        return []

    def confidence_dump(self) -> Dict[int, tuple]:
        return {
            key: (fields["confidence"].value,)
            for key, fields in self.lb.items()
        }


class SpecHybrid:
    """Reference hybrid: one shared LB, both components, 2-bit selector.

    Selection rule (Sections 3.7, 4.3): a lone confident component wins; a
    confident pair is arbitrated by the selector; with no confident
    component, a lone produced address wins, else the selector's favourite
    provides the non-speculative prediction.  The LB is always trained;
    the LT update may be withheld by the Section 4.3 policies.
    """

    def __init__(
        self,
        lb_entries: int = 4096,
        lb_ways: int = 2,
        selector_bits: int = 2,
        selector_init: int = 2,
        static_selector: Optional[str] = None,
        lt_update_policy: str = "always",
        cap_kwargs: Optional[dict] = None,
        stride_kwargs: Optional[dict] = None,
    ) -> None:
        self.cap = _CapCore(**(cap_kwargs or {}))
        self.stride = _StrideCore(**(stride_kwargs or {}))
        self.lb = _LRUSets(lb_entries, lb_ways)
        self.selector_max = (1 << selector_bits) - 1
        self.selector_init = selector_init
        self.static_selector = static_selector
        self.lt_update_policy = lt_update_policy
        self.ghr = 0

    name = "spec-hybrid"

    def _new_entry(self, offset: int) -> dict:
        return {
            "cap": self.cap.new_fields(offset),
            "stride": self.stride.new_fields(),
            "selector": self.selector_init,
        }

    def _select(self, entry: dict) -> str:
        if self.static_selector is not None:
            return self.static_selector
        # Counter high half selects CAP (state init "weak CAP").
        if entry["selector"] > self.selector_max / 2:
            return "cap"
        return "stride"

    def predict(self, ip: int, offset: int) -> OraclePrediction:
        entry = self.lb.lookup(ip >> 2)
        if entry is None:
            self.lb.insert(ip >> 2, self._new_entry(offset))
            return OraclePrediction(source="hybrid", ghr=self.ghr)
        ghr = self.ghr
        cap_pred = self.cap.predict(entry["cap"], ghr)
        stride_pred = self.stride.predict(entry["stride"], ghr)

        if cap_pred.speculative and stride_pred.speculative:
            selected = self._select(entry)
        elif cap_pred.speculative:
            selected = "cap"
        elif stride_pred.speculative:
            selected = "stride"
        elif cap_pred.made and not stride_pred.made:
            selected = "cap"
        elif stride_pred.made and not cap_pred.made:
            selected = "stride"
        else:
            selected = self._select(entry)

        chosen = cap_pred if selected == "cap" else stride_pred
        return OraclePrediction(
            address=chosen.address,
            speculative=chosen.speculative,
            source=selected,
            ghr=ghr,
            info={"cap": cap_pred, "stride": stride_pred},
        )

    def update(
        self, ip: int, offset: int, actual: int, prediction: OraclePrediction,
    ) -> None:
        entry = self.lb.lookup(ip >> 2)
        if entry is None:
            entry = self._new_entry(offset)
            self.lb.insert(ip >> 2, entry)

        info = prediction.info or {}
        cap_pred = info.get("cap")
        stride_pred = info.get("stride")
        cap_addr = cap_pred.address if cap_pred else None
        stride_addr = stride_pred.address if stride_pred else None
        selected = prediction.source

        cap_correct = cap_addr == actual if cap_addr is not None else None
        stride_correct = (
            stride_addr == actual if stride_addr is not None else None
        )

        # Section 4.3 LT update policies.
        update_lt = True
        if self.lt_update_policy == "unless_stride_correct":
            update_lt = not bool(stride_correct)
        elif self.lt_update_policy == "unless_stride_selected":
            update_lt = not (
                bool(stride_correct)
                and selected == "stride"
                and prediction.speculative
            )

        self.cap.train(
            entry["cap"],
            actual,
            predicted_addr=cap_addr,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative and selected == "cap",
            update_lt=update_lt,
        )
        self.stride.train(
            entry["stride"],
            actual,
            predicted_addr=stride_addr,
            ghr_at_predict=prediction.ghr,
            speculated=prediction.speculative and selected == "stride",
            had_prediction=stride_pred is not None,
        )

        # Selector: trained on relative component performance only.
        if cap_correct is not None and stride_correct is not None:
            if cap_correct and not stride_correct:
                if entry["selector"] < self.selector_max:
                    entry["selector"] += 1
            elif stride_correct and not cap_correct:
                if entry["selector"] > 0:
                    entry["selector"] -= 1

    def on_branch(self, ip: int, taken: bool) -> None:
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & _mask(16)

    def on_call(self, ip: int) -> None:
        pass

    def on_return(self, ip: int) -> None:
        pass

    def lt_dump(self):
        return self.cap.lt_dump()

    def confidence_dump(self) -> Dict[int, tuple]:
        return {
            key: (
                entry["cap"]["confidence"].value,
                entry["stride"]["confidence"].value,
                entry["selector"],
            )
            for key, entry in self.lb.items()
        }
