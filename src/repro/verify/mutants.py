"""Deliberately broken oracles: known bug classes the regressions must catch.

A regression trace is only worth checking in if it can actually *detect*
the bug it guards against.  Each :class:`MutantSpec` here re-introduces a
realistic predictor bug (an update-ordering or filter-wiring mistake that
a reasonable implementation could make) into a copy of the spec oracle.
The fuzzer mines a minimal trace on which the mutant visibly diverges from
the production implementation; that trace is saved under
``tests/regressions/`` and the test suite asserts both directions forever:

* the trace replays **clean** through the real three-way differential
  check (the bug is absent), and
* the trace still **catches** its mutant (the trace has teeth).

The mutations live on oracle subclasses (swapped in via ``__class__``
surgery on a freshly built oracle) so production code is never touched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..eval.metrics import PredictorMetrics
from ..eval.runner import run_on_stream
from .differential import VARIANTS
from .fuzz import PROFILES, generate_events, shrink_events
from .oracle import SpecHybrid, _CapCore, _CFI, _LRUSets, _StrideCore

__all__ = ["MUTANTS", "MutantSpec", "mutant_caught", "find_regression_trace"]

Events = Sequence[Sequence[int]]


# ---------------------------------------------------------------------------
# The mutations.
# ---------------------------------------------------------------------------


class _HistoryFirstCore(_CapCore):
    """BUG: the LT write uses the history *after* it absorbed the new value.

    The paper's rule is link(context) -> value where the context is the
    history that led to this access; advancing first links the value to
    itself.
    """

    def train(
        self, fields, actual, predicted_addr, ghr_at_predict, speculated,
        update_lt=True,
    ):
        if predicted_addr is not None:
            correct = predicted_addr == actual
            fields["confidence"].update(correct)
            fields["cfi"].record(ghr_at_predict, correct, speculated)
        value = self._link_value(fields, actual)
        if value is not None:
            fields["history"] = self.history_rule.update(
                fields["history"], value
            )
            if update_lt:
                self.lt_update(fields["history"], value)
        fields["last_addr"] = actual


class _StickyPFCore(_CapCore):
    """BUG: PF bits are stored only when the write is accepted.

    Section 3.5 stores the newest value's PF bits unconditionally; making
    them sticky means a twice-seen new link can never displace an old one.
    """

    def lt_update(self, history, value):
        index, tag = self._lt_split(history)
        ways = self.lt[index]
        self.lt_clock += 1
        target = None
        for entry in ways:
            if entry["link"] is not None and entry["tag"] == tag:
                target = entry
                break
        if target is None:
            for entry in ways:
                if entry["link"] is None:
                    target = entry
                    break
        if target is None:
            target = min(ways, key=lambda e: e["stamp"])
        if self.pf_bits:
            pf_new = (value >> self.pf_low_bit) & ((1 << self.pf_bits) - 1)
            if self.pf_table is not None:
                slot = history & self.pf_table_mask
                previous = self.pf_table[slot]
                if previous != pf_new:
                    return
                self.pf_table[slot] = pf_new
            else:
                previous = target["pf"]
                if previous is not None and previous != pf_new:
                    return
                target["pf"] = pf_new
        target["link"] = value
        target["tag"] = tag
        target["stamp"] = self.lt_clock


class _NoTouchSets(_LRUSets):
    """BUG: a Load Buffer hit does not refresh the entry's recency.

    Turns true LRU into FIFO; under set aliasing the wrong static load gets
    evicted and its trained confidence/history is lost.
    """

    def lookup(self, key):
        return self.sets[key & self.index_mask].get(key)


class _SingleDeltaCore(_StrideCore):
    """BUG: the stride is taken from every delta, not two agreeing ones.

    Defeats the two-delta rule, so a single irregular access retrains the
    stride immediately.
    """

    def train(
        self, fields, actual, predicted_addr, ghr_at_predict, speculated,
        had_prediction=True,
    ):
        two_delta, self.two_delta = self.two_delta, False
        try:
            super().train(
                fields, actual, predicted_addr, ghr_at_predict, speculated,
                had_prediction=had_prediction,
            )
        finally:
            self.two_delta = two_delta


class _StrideBiasedHybrid(SpecHybrid):
    """BUG: the dynamic selector is ignored; dual-confident loads always go
    to the stride component."""

    def _select(self, entry):
        return "stride"


class _EagerCFI(_CFI):
    """BUG: wrong predictions poison the CFI pattern even when the access
    was never speculated (the paper records only on wrong *speculative*
    accesses)."""

    __slots__ = ()

    def record(self, ghr, correct, speculated):
        return super().record(ghr, correct, True)


class _EagerCFIStrideCore(_StrideCore):
    def new_fields(self):
        fields = super().new_fields()
        fields["cfi"].__class__ = _EagerCFI
        return fields


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MutantSpec:
    """One re-introducible bug, tied to the variant whose trace guards it."""

    name: str
    variant: str
    description: str
    build: Callable[[], object]


def _cap_mutant(core_class) -> Callable[[], object]:
    def build():
        oracle = VARIANTS["cap"].oracle()
        oracle.core.__class__ = core_class
        return oracle

    return build


def _cap_lru_mutant() -> object:
    oracle = VARIANTS["cap"].oracle()
    oracle.lb.__class__ = _NoTouchSets
    return oracle


def _stride_mutant(core_class) -> Callable[[], object]:
    def build():
        oracle = VARIANTS["stride"].oracle()
        oracle.core.__class__ = core_class
        return oracle

    return build


def _hybrid_mutant() -> object:
    oracle = VARIANTS["hybrid"].oracle()
    oracle.__class__ = _StrideBiasedHybrid
    return oracle


MUTANTS: Dict[str, MutantSpec] = {
    spec.name: spec
    for spec in (
        MutantSpec(
            "lt-context-after-advance",
            "cap",
            "LT written with the post-update history instead of the"
            " context that led to the access",
            _cap_mutant(_HistoryFirstCore),
        ),
        MutantSpec(
            "pf-sticky",
            "cap",
            "PF bits updated only on accepted writes, freezing stale links"
            " behind the filter",
            _cap_mutant(_StickyPFCore),
        ),
        MutantSpec(
            "lb-lru-fifo",
            "cap",
            "Load Buffer hit does not refresh LRU (FIFO eviction)",
            _cap_lru_mutant,
        ),
        MutantSpec(
            "stride-single-delta",
            "stride",
            "stride retrained from every delta instead of two agreeing"
            " deltas",
            _stride_mutant(_SingleDeltaCore),
        ),
        MutantSpec(
            "cfi-records-unspeculated",
            "stride",
            "CFI pattern poisoned by wrong but never-speculated"
            " predictions",
            _stride_mutant(_EagerCFIStrideCore),
        ),
        MutantSpec(
            "hybrid-selector-ignored",
            "hybrid",
            "dual-confident selection hardwired to stride, ignoring the"
            " selector counter",
            _hybrid_mutant,
        ),
    )
}


# ---------------------------------------------------------------------------
# Detection and trace mining.
# ---------------------------------------------------------------------------


def _records(subject, events: Events) -> List[tuple]:
    out: List[tuple] = []

    def observe(ip, offset, actual, prediction) -> None:
        out.append(
            (ip, prediction.address, bool(prediction.speculative),
             prediction.source)
        )

    run_on_stream(subject, events, PredictorMetrics(), observer=observe)
    return out


def mutant_caught(mutant_name: str, events: Events) -> bool:
    """Does this trace distinguish the mutant from production behaviour?"""
    mutant = MUTANTS[mutant_name]
    production = VARIANTS[mutant.variant].production()
    broken = mutant.build()
    if _records(production, events) != _records(broken, events):
        return True
    from .differential import _lt_dump

    return sorted(_lt_dump(production)) != sorted(broken.lt_dump())


#: Hand-written exposing traces for mutants whose trigger needs a precise
#: choreography random generation rarely hits.  The CFI one: two wrong
#: never-speculated predictions under GHR pattern 0, confidence built up
#: under pattern 1, then four not-taken branches steer the GHR back to
#: pattern 0 for the first speculative attempt — which only the mutant's
#: poisoned pattern blocks.
_SEED_TRACES: Dict[str, List[List[int]]] = {
    "cfi-records-unspeculated": (
        [[1, 0x4000, 0, 0], [1, 0x4000, 100, 0], [1, 0x4000, 200, 0],
         [0, 0x5000, 1, 0],
         [1, 0x4000, 300, 0], [1, 0x4000, 400, 0], [1, 0x4000, 500, 0]]
        + [[0, 0x5000, 0, 0]] * 4
        + [[1, 0x4000, 600, 0]]
    ),
}


def find_regression_trace(
    mutant_name: str,
    seed: int = 0,
    attempts: int = 200,
    events_per_case: int = 300,
) -> Optional[List[List[int]]]:
    """Mine and shrink a minimal trace on which the mutant diverges.

    Returns ``None`` when no generated trace exposes the mutant within the
    attempt budget.  The shrunk trace is additionally required to replay
    clean through the real differential check (it must document the
    *absence* of the bug, not some unrelated failure).
    """
    from .differential import verify_events

    rng = random.Random(seed)
    profiles = list(PROFILES)
    seeded = _SEED_TRACES.get(mutant_name)
    candidates = [seeded] if seeded is not None else []
    for attempt in range(attempts):
        if candidates:
            events = candidates.pop()
        else:
            profile = profiles[attempt % len(profiles)]
            events = generate_events(
                profile, rng.randrange(1 << 30), events_per_case
            )
        if not mutant_caught(mutant_name, events):
            continue
        minimal = shrink_events(
            events, lambda candidate: mutant_caught(mutant_name, candidate)
        )
        variant = MUTANTS[mutant_name].variant
        if verify_events(variant, minimal) is not None:
            continue  # shrunk into a genuine production bug: leave it alone
        return [list(event) for event in minimal]
    return None
