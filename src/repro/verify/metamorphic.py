"""Metamorphic invariants: transformed traces with provable relations.

Differential replay catches implementations disagreeing with each other;
metamorphic checks catch all of them agreeing on something *wrong*.  Each
check transforms a trace in a way whose effect on predictor behaviour
follows exactly from the paper's rules, then asserts the relation on the
production implementation:

``ip_translation``
    Adding a multiple of ``4 * num_sets`` to every IP maps each static
    load to a fresh LB tag in the *same* set, injectively.  Set indexing,
    collisions, LRU order and all history/LT behaviour (which never see
    the IP) are unchanged, so the per-access predictions must be
    bit-identical for every predictor.

``stride_address_translation``
    Adding a constant to every load address commutes with the stride
    rules: deltas, two-delta agreement, confidence, CFI and interval
    bookkeeping are all functions of address differences (mod 2^32), so
    predictions translate by exactly the same constant and the
    speculative/correct pattern is unchanged.  (Deliberately *not* claimed
    for CAP: its folded history hashes absolute addresses, so translation
    legitimately changes LT aliasing.)

``cfi_relaxation``
    The CFI filter only ever *blocks* speculation — it feeds neither the
    confidence counter, the history, nor the tables.  Disabling it must
    leave every predicted address unchanged and can only turn speculative
    accesses on, never off.  (Stand-alone CAP/stride only: in the hybrid,
    unblocking one component can change which component is selected.)

``pf_relaxation``
    The PF bits only ever *veto* link writes.  Disabling them must yield
    zero PF rejections and at least as many link writes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

from ..eval.metrics import PredictorMetrics
from ..eval.runner import run_on_stream
from ..predictors.cap import CAPConfig, CAPPredictor
from ..predictors.link_table import LinkTableConfig
from ..predictors.stride import StrideConfig, StridePredictor

__all__ = ["METAMORPHIC_CHECKS", "run_metamorphic_checks"]

Events = Sequence[Sequence[int]]

_MASK32 = (1 << 32) - 1

_SMALL_LT = LinkTableConfig(entries=256, ways=1, tag_bits=8, pf_bits=2)
_SMALL_CAP = CAPConfig(lb_entries=64, lb_ways=2, lt=_SMALL_LT)
_SMALL_STRIDE = StrideConfig(entries=64, ways=2)


def _records(predictor, events: Events) -> List[tuple]:
    out: List[tuple] = []

    def observe(ip, offset, actual, prediction) -> None:
        out.append(
            (prediction.address, bool(prediction.speculative),
             prediction.source)
        )

    run_on_stream(predictor, events, PredictorMetrics(), observer=observe)
    return out


def _translate_ips(events: Events, delta: int) -> List[List[int]]:
    return [[tag, (ip + delta) & _MASK32, a, b] for tag, ip, a, b in events]


def _translate_load_addrs(events: Events, delta: int) -> List[List[int]]:
    return [
        [tag, ip, (a + delta) & _MASK32 if tag == 1 else a, b]
        for tag, ip, a, b in events
    ]


def check_ip_translation(events: Events) -> Optional[str]:
    for label, make, num_sets in (
        ("cap", lambda: CAPPredictor(_SMALL_CAP),
         _SMALL_CAP.lb_entries // _SMALL_CAP.lb_ways),
        ("stride", lambda: StridePredictor(_SMALL_STRIDE),
         _SMALL_STRIDE.entries // _SMALL_STRIDE.ways),
    ):
        base = _records(make(), events)
        for k in (1, 7):
            shifted = _records(
                make(), _translate_ips(events, 4 * num_sets * k)
            )
            if shifted != base:
                first = next(
                    i for i, (x, y) in enumerate(zip(base, shifted)) if x != y
                )
                return (
                    f"{label}: IP translation by {4 * num_sets * k} changed"
                    f" behaviour at load #{first}:"
                    f" base={base[first]} shifted={shifted[first]}"
                )
    return None


def check_stride_address_translation(events: Events) -> Optional[str]:
    predictor = StridePredictor(_SMALL_STRIDE)
    base = _records(predictor, events)
    for delta in (0x40, 0xFFFF0000, 0x7FFFFFFF):
        shifted = _records(
            StridePredictor(_SMALL_STRIDE),
            _translate_load_addrs(events, delta),
        )
        if len(shifted) != len(base):
            return "stride: address translation changed the load count"
        for i, ((a0, s0, src0), (a1, s1, src1)) in enumerate(
            zip(base, shifted)
        ):
            expect = (a0 + delta) & _MASK32 if a0 is not None else None
            if a1 != expect or s1 != s0 or src1 != src0:
                return (
                    f"stride: address translation by {delta:#x} broke"
                    f" equivariance at load #{i}:"
                    f" base={(a0, s0)} shifted={(a1, s1)}"
                )
    return None


def check_cfi_relaxation(events: Events) -> Optional[str]:
    for label, with_cfi, without_cfi in (
        (
            "cap",
            lambda: CAPPredictor(_SMALL_CAP),
            lambda: CAPPredictor(replace(_SMALL_CAP, cfi_mode="off")),
        ),
        (
            "stride",
            lambda: StridePredictor(_SMALL_STRIDE),
            lambda: StridePredictor(
                replace(_SMALL_STRIDE, cfi_mode="off")
            ),
        ),
    ):
        filtered = _records(with_cfi(), events)
        relaxed = _records(without_cfi(), events)
        if len(filtered) != len(relaxed):
            return f"{label}: disabling CFI changed the load count"
        for i, ((a0, s0, _), (a1, s1, _)) in enumerate(
            zip(filtered, relaxed)
        ):
            if a0 != a1:
                return (
                    f"{label}: disabling CFI changed a predicted address at"
                    f" load #{i}: {a0} -> {a1}"
                )
            if s0 and not s1:
                return (
                    f"{label}: disabling CFI *blocked* a speculative access"
                    f" at load #{i}"
                )
    return None


def check_pf_relaxation(events: Events) -> Optional[str]:
    gated = CAPPredictor(_SMALL_CAP)
    ungated = CAPPredictor(
        replace(_SMALL_CAP, lt=replace(_SMALL_LT, pf_bits=0))
    )
    run_on_stream(gated, events, PredictorMetrics())
    run_on_stream(ungated, events, PredictorMetrics())
    lt_gated = gated.component.link_table
    lt_ungated = ungated.component.link_table
    if lt_ungated.pf_rejections != 0:
        return (
            "cap: pf_bits=0 still rejected"
            f" {lt_ungated.pf_rejections} link writes"
        )
    if lt_ungated.link_writes < lt_gated.link_writes:
        return (
            "cap: disabling PF bits lost link writes"
            f" ({lt_gated.link_writes} -> {lt_ungated.link_writes})"
        )
    return None


METAMORPHIC_CHECKS: Dict[str, Callable[[Events], Optional[str]]] = {
    "ip_translation": check_ip_translation,
    "stride_address_translation": check_stride_address_translation,
    "cfi_relaxation": check_cfi_relaxation,
    "pf_relaxation": check_pf_relaxation,
}


def run_metamorphic_checks(events: Events) -> List[str]:
    """Run every invariant on one trace; return failure messages."""
    failures: List[str] = []
    for name, check in METAMORPHIC_CHECKS.items():
        message = check(events)
        if message is not None:
            failures.append(f"[{name}] {message}")
    return failures
