"""Batch kernel for :class:`repro.predictors.hybrid.HybridPredictor`.

The hybrid composes pieces the other kernels already solve — the CAP
component rows (:func:`repro.kernels.cap.cap_rows`), the stride rows
(:func:`repro.kernels.stride.stride_rows`), the shared Load Buffer — and
adds the parts that only exist in the hybrid:

* the up/down **selector**, a clamped ±1 walk over the rows where both
  components had verifiable predictions that disagreed;
* **arbitration** (the Section 3.7 selection chain), vectorised over the
  per-component speculation flags;
* the **coupled CFI resolution** — each component's filter trains with
  ``speculated = finally-speculative and selected == component``, which
  depends on both filters' ``allows``, so the two machines resolve
  jointly (:func:`repro.kernels.control_flow.resolve_cfi_hybrid`);
* the Figures 8–10 selector statistics.

The ``unless_stride_selected`` LT-update policy gates the Link Table
write on the *final* arbitration outcome, which feeds back into the LT
timeline itself; that loop has no closed form, so the kernel raises
:class:`~repro.kernels.api.BatchFallback` and the scalar path runs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..predictors.confidence import CFI_LAST, CFI_OFF
from ..predictors.hybrid import UPDATE_UNLESS_STRIDE_CORRECT, UPDATE_UNLESS_STRIDE_SELECTED
from .api import BatchFallback, BatchResult
from .batch import EventBatch
from .cap import cap_rows
from .control_flow import resolve_cfi_hybrid
from .lb import lb_commit
from .link_table import commit_link_table
from .segops import seg_clamped_walk, seg_shift
from .stride import stride_rows

__all__ = ["plan_hybrid", "commit_hybrid"]

_SOURCES = ("hybrid", "cap", "stride")


def _selector_state_name(value: int, maximum: int) -> str:
    """Mirror ``UpDownCounter.state_name(low="stride", high="cap")``."""
    if 2 * value <= maximum:
        return ("strong" if value == 0 else "weak") + " stride"
    return ("strong" if value == maximum else "weak") + " cap"


def plan_hybrid(predictor, batch: EventBatch) -> BatchResult:
    cfg = predictor.config
    if cfg.lt_update_policy == UPDATE_UNLESS_STRIDE_SELECTED:
        raise BatchFallback(
            "unless_stride_selected couples the LT timeline to arbitration"
        )
    lb = batch.lb_groups(predictor.load_buffer)
    order, starts, occ = lb["order"], lb["starts"], lb["occ"]
    _, actual, offsets = batch.load_columns()
    n = batch.n_loads

    a_s = actual[order]
    b_s = offsets[order]
    made_lb = ~starts

    # Stride rows first: the unless_stride_correct policy gates LT writes
    # on the stride component's correctness, which is CFI-independent.
    srows = stride_rows(cfg.stride, a_s, starts, occ)
    corr_s = srows["corr"]
    if cfg.lt_update_policy == UPDATE_UNLESS_STRIDE_CORRECT:
        update_lt_s = ~corr_s  # first loads have no stride prediction -> True
    else:
        update_lt_s = None
    crows = cap_rows(
        predictor.cap, batch, a_s, b_s, starts, order, update_lt_s
    )
    made_c = crows["made"]
    corr_c = crows["corr"]

    # Selector: ±1 walk over rows where both components were verifiable
    # and disagreed (made_c implies a stride prediction also existed).
    sel_max = (1 << cfg.selector_bits) - 1
    delta = np.zeros(n, dtype=np.int64)
    delta[made_c & corr_c & ~corr_s] = 1
    delta[made_c & ~corr_c & corr_s] = -1
    sel_after = seg_clamped_walk(delta, starts, 0, sel_max, cfg.selector_init)
    sel_before = seg_shift(sel_after, starts, cfg.selector_init)
    if cfg.static_selector is not None:
        pref = np.full(n, cfg.static_selector == "cap", dtype=bool)
    else:
        pref = 2 * sel_before > sel_max

    # Coupled CFI resolution over the LB-hit rows.
    cap_mode = cfg.cap.cfi_mode
    stride_mode = cfg.stride.cfi_mode
    nm = int(made_lb.sum())
    if cap_mode == CFI_OFF and stride_mode == CFI_OFF:
        ghr_m = np.zeros(nm, dtype=np.int64)
    else:
        ghr_m = batch.ghr_at_load[order][made_lb]
    allows_c_m, allows_s_m, cfi_final = resolve_cfi_hybrid(
        cap_mode, cfg.cap.cfi_bits, stride_mode, cfg.stride.cfi_bits,
        occ[made_lb] == 1, ghr_m,
        made_c[made_lb], corr_c[made_lb], crows["eligible"][made_lb],
        corr_s[made_lb], srows["eligible"][made_lb], pref[made_lb],
    )
    allows_c = np.ones(n, dtype=bool)
    allows_s = np.ones(n, dtype=bool)
    allows_c[made_lb] = allows_c_m
    allows_s[made_lb] = allows_s_m
    spec_c = crows["eligible"] & allows_c
    spec_s = srows["eligible"] & allows_s
    spec_fin = spec_c | spec_s

    # Section 3.7 selection chain.  On LB-hit rows the stride component
    # always has an address, so "cap made, stride not" cannot arise and
    # the chain reduces to: dual-speculative -> selector; one speculative
    # -> that component; neither -> stride unless CAP also made, then the
    # selector's favourite.
    sel_cap = np.where(
        spec_c & spec_s, pref,
        np.where(spec_c, True, np.where(spec_s, False,
                 np.where(~made_c, False, pref))),
    )
    address_s = np.where(sel_cap, crows["address"], srows["pred"])
    corr_fin = made_lb & (address_s == a_s)

    address = np.empty(n, dtype=np.int64)
    made = np.empty(n, dtype=bool)
    speculative = np.empty(n, dtype=bool)
    correct = np.empty(n, dtype=bool)
    source = np.empty(n, dtype=np.int8)
    address[order] = address_s
    made[order] = made_lb
    speculative[order] = spec_fin
    correct[order] = corr_fin
    source[order] = np.where(starts, 0, np.where(sel_cap, 1, 2))

    # Selector statistics (Figures 8-10).  The state distribution samples
    # the pre-train selector on every dual-prediction row; the selection
    # RateCounter scores speculative rows where both addresses existed.
    both_made = made_c  # made_c implies stride made on LB-hit rows
    counts = np.bincount(sel_before[both_made], minlength=sel_max + 1)
    state_counts: dict = {}
    for v, c in enumerate(counts.tolist()):
        if c:  # several values share a name once the selector exceeds 2 bits
            name = _selector_state_name(v, sel_max)
            state_counts[name] = state_counts.get(name, 0) + int(c)
    f8 = spec_fin & both_made
    other_corr = np.where(sel_cap, corr_s, corr_c)
    miss_sel = f8 & ~corr_fin & other_corr
    selstats = {
        "states": state_counts,
        "speculative": int(spec_fin.sum()),
        "dual_speculative": int(f8.sum()),
        "selection_hits": int((f8 & ~miss_sel).sum()),
        "selection_total": int(f8.sum()),
    }

    ends = crows["ends"]
    tag_ok = crows["tag_ok"]
    conf_ok_c = crows["conf_ok"]
    conf_ok_s = srows["conf_ok"]
    multi = occ[ends] >= 1 if n else np.empty(0, dtype=bool)
    multi_keys = np.flatnonzero(multi)
    cfi_states = {
        int(multi_keys[si]): pair for si, pair in cfi_final.items()
    }
    empty = np.empty(0, dtype=np.int64)
    state = {
        "lb": lb,
        "entries": {
            "last_addr": a_s[ends] if n else empty,
            "offsets": crows["offsets"],
            "history": crows["final_hist"],
            "cap_conf": crows["final_conf"],
            "stride": srows["stride_after"][ends] if n else empty,
            "last_delta": srows["delta"][ends] if n else empty,
            "multi": multi,
            "stride_conf": srows["conf_after"][ends] if n else empty,
            "run_length": srows["run_after"][ends] if n else empty,
            "interval": srows["int_after"][ends] if n else empty,
            "selector": sel_after[ends] if n else empty,
        },
        "cfi_states": cfi_states,
        "solved_lt": crows["solved_lt"],
        "selstats": selstats,
        "probe": {
            "lb_misses": int(starts.sum()),
            "selector_cap": int((spec_fin & sel_cap).sum()),
            "selector_stride": int((spec_fin & ~sel_cap).sum()),
            "cap_confidence_vetoes": int((made_c & tag_ok & ~conf_ok_c).sum()),
            "cap_cfi_vetoes": int(
                (made_c & tag_ok & conf_ok_c & ~allows_c).sum()
            ),
            "cap_cfi_bad_patterns": (
                0 if cap_mode == CFI_OFF
                else int((made_c & ~corr_c & spec_fin & sel_cap).sum())
            ),
            "stride_confidence_vetoes": int((made_lb & ~conf_ok_s).sum()),
            "stride_cfi_vetoes": int((conf_ok_s & ~allows_s).sum()),
            "interval_stops": int(
                (conf_ok_s & allows_s & srows["int_veto"]).sum()
            ),
            "stride_cfi_bad_patterns": (
                0 if stride_mode == CFI_OFF
                else int((made_lb & ~corr_s & spec_fin & ~sel_cap).sum())
            ),
        },
    }
    return BatchResult(address, made, speculative, correct, source, _SOURCES, state)


def _hybrid_entries(cfg, columns: dict, cfi_states: dict,
                    gids: np.ndarray) -> list:
    """The ``HybridEntry`` of each generation in ``gids``, from the
    per-generation end-state columns ``plan_hybrid`` keeps (the Load
    Buffer fill's ``make_entries``)."""
    from ..predictors.hybrid import HybridEntry

    entries = []
    rows = zip(
        gids.tolist(),
        *(columns[name][gids].tolist() for name in (
            "last_addr", "offsets", "history", "cap_conf", "stride",
            "last_delta", "multi", "stride_conf", "run_length", "interval",
            "selector",
        )),
    )
    for (gid, addr, offset, history, cap_conf, stride, last_delta, multi,
         stride_conf, run, interval, selector) in rows:
        entry = HybridEntry(cfg, offset)
        cap = entry.cap
        cap.last_addr = addr
        cap.history = history
        cap.spec_history = history
        cap.confidence.value = cap_conf
        st = entry.stride
        st.last_addr = addr
        st.stride = stride
        st.last_delta = last_delta if (multi and cfg.stride.two_delta) else None
        st.confidence.value = stride_conf
        st.run_length = run
        st.interval = interval
        st.spec_last_addr = addr
        entry.selector.value = selector
        pair = cfi_states.get(gid)
        if pair is not None:
            cap_state, stride_state = pair
            if cfg.cap.cfi_mode == CFI_LAST:
                cap.cfi._bad_pattern = cap_state
            elif cfg.cap.cfi_mode != CFI_OFF:
                cap.cfi._path_bad = cap_state or 0
            if cfg.stride.cfi_mode == CFI_LAST:
                st.cfi._bad_pattern = stride_state
            elif cfg.stride.cfi_mode != CFI_OFF:
                st.cfi._path_bad = stride_state or 0
        entries.append(entry)
    return entries


def commit_hybrid(predictor, batch: EventBatch, result: BatchResult) -> None:
    state = result.state
    make_entries = partial(
        _hybrid_entries, predictor.config, state["entries"],
        state["cfi_states"],
    )
    lb_commit(predictor.load_buffer, state["lb"], make_entries, batch.n_loads)
    commit_link_table(predictor.cap.link_table, state["solved_lt"])
    batch.commit_control_flow(predictor)

    stats = predictor.selector_stats
    sel = state["selstats"]
    for name, count in sel["states"].items():
        stats.states.record(name, count)
    stats.speculative += sel["speculative"]
    stats.dual_speculative += sel["dual_speculative"]
    stats.selection.hits += sel["selection_hits"]
    stats.selection.total += sel["selection_total"]

    counts = state["probe"]
    if predictor.probe is not None:
        probe = predictor.probe
        probe.lb_misses += counts["lb_misses"]
        probe.selector_cap += counts["selector_cap"]
        probe.selector_stride += counts["selector_stride"]
    cap_probe = predictor.cap.probe
    if cap_probe is not None:
        cap_probe.confidence_vetoes += counts["cap_confidence_vetoes"]
        cap_probe.cfi_vetoes += counts["cap_cfi_vetoes"]
        cap_probe.cfi_bad_patterns += counts["cap_cfi_bad_patterns"]
    stride_probe = predictor.stride_logic.probe
    if stride_probe is not None:
        stride_probe.confidence_vetoes += counts["stride_confidence_vetoes"]
        stride_probe.cfi_vetoes += counts["stride_cfi_vetoes"]
        stride_probe.interval_stops += counts["interval_stops"]
        stride_probe.cfi_bad_patterns += counts["stride_cfi_bad_patterns"]
