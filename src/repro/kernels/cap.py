"""Batch kernel for :class:`repro.predictors.cap.CAPPredictor`.

Decomposition mirroring the scalar component structure:

* per-key history trajectories — the shift-xor history is linear over
  XOR, so the value at any point is the XOR of the last ``ceil(width /
  shift)`` folded link values, each shifted by its age
  (:func:`history_trajectory`);
* the Link Table timeline — lookups and PF-gated updates interleaved in
  program order (:mod:`repro.kernels.link_table`);
* confidence and CFI — the same segmented counter/filter solvers the
  stride kernel uses.

``delta`` correlation records no link value on a key's first load, so
its value-event subsequence is offset by one from ``base``/``real``;
everything downstream works on the value-event layout and is agnostic.

The row solver is shared with the hybrid kernel via :func:`cap_rows`
(CFI resolution stays with the caller, as in the stride kernel).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..predictors.cap import CORRELATION_BASE, CORRELATION_DELTA
from ..predictors.confidence import CFI_LAST, CFI_OFF
from .api import BatchResult
from .batch import EventBatch
from .control_flow import resolve_cfi, sat_counter_trajectory
from .lb import lb_commit
from .link_table import commit_link_table, solve_link_table
from .segops import seg_exclusive_cumsum, seg_last_index_where, seg_shift

__all__ = ["history_trajectory", "cap_rows", "plan_cap", "commit_cap"]

_SOURCES = ("cap",)
_MASK32 = np.int64(0xFFFFFFFF)


def history_trajectory(
    history_fn, values: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Post-update history value at every value event (segmented layout).

    ``h_after[t] = XOR_d (u[t-d] << (shift*d)) & mask`` over the last
    ``ceil(width / shift)`` events of the same segment — the shift-xor
    update is linear, so older contributions simply age out.
    """
    from .segops import fold_xor_array

    width = history_fn.width
    shift = history_fn.shift
    terms = math.ceil(width / shift)
    u = fold_xor_array(values >> history_fn.drop_low_bits, history_fn.hash_bits)
    h_after = np.zeros(len(u), dtype=np.int64)
    cur = u
    for d in range(terms):
        if d:
            cur = seg_shift(cur, starts, 0)
        h_after ^= cur << (shift * d)
    return h_after & np.int64((1 << width) - 1)


def cap_rows(
    component,
    batch: EventBatch,
    a_s: np.ndarray,
    b_s: np.ndarray,
    starts: np.ndarray,
    order: np.ndarray,
    update_lt_s,
) -> dict:
    """CAP state evolution in the segmented (per-key) layout.

    ``update_lt_s`` is ``None`` (always update — the stand-alone
    predictor) or a boolean mask implementing a hybrid selective-update
    policy.  Returns per-row prediction arrays plus per-key end state;
    CFI resolution is left to the caller.
    """
    cfg = component.config
    n = len(a_s)
    om = np.int64(component._offset_mask)
    seg_of = np.cumsum(starts) - 1 if n else np.zeros(0, dtype=np.int64)
    off_first = (b_s[starts] & om) if n else np.zeros(0, dtype=np.int64)
    off = off_first[seg_of] if n else np.zeros(0, dtype=np.int64)
    prev_a = seg_shift(a_s, starts, 0)
    made_lb = ~starts  # LB hit -> the component ran predict

    # Link values per training row (the value-event subsequence).
    mode = cfg.correlation
    if mode == CORRELATION_BASE:
        value = (a_s & ~om) | ((a_s - off) & om)
        val_mask = np.ones(n, dtype=bool)
    elif mode == CORRELATION_DELTA:
        value = (a_s - prev_a) & _MASK32
        val_mask = made_lb
    else:
        value = a_s
        val_mask = np.ones(n, dtype=bool)

    sub_starts_v = _sub_starts(val_mask, starts)
    h_after_v = history_trajectory(
        component.history_fn, value[val_mask], sub_starts_v
    )
    h_before_v = seg_shift(h_after_v, sub_starts_v, 0)
    hist = np.zeros(n, dtype=np.int64)
    hist[val_mask] = h_before_v
    # The lookup at a key's load j uses the history advanced by every
    # earlier train; for delta mode load 1's lookup still sees 0 and the
    # scatter above already leaves hist[row 1] = h_before of its first
    # value event, which is exactly that 0.

    # Link Table timeline.  Lookups on LB hits at time 2i, updates at
    # 2i+1 (i = original load index), so a load's update follows its own
    # lookup and precedes everything later.
    times = order.astype(np.int64) * 2
    upd_mask = val_mask if update_lt_s is None else (val_mask & update_lt_s)
    solved = solve_link_table(
        cfg.lt,
        times[made_lb],
        hist[made_lb],
        times[upd_mask] + 1,
        hist[upd_mask],
        value[upd_mask],
    )
    valid = np.zeros(n, dtype=bool)
    link = np.zeros(n, dtype=np.int64)
    tag_ok = np.zeros(n, dtype=bool)
    valid[made_lb] = solved["valid"]
    link[made_lb] = solved["link"]
    tag_ok[made_lb] = solved["tag_ok"]

    # Predicted address per row with a stored link.
    if mode == CORRELATION_BASE:
        address = (link & ~om) | ((link + off) & om)
    elif mode == CORRELATION_DELTA:
        address = (prev_a + link) & _MASK32
    else:
        address = link
    made = made_lb & valid  # last_addr is always set past a key's first load
    corr = made & (address == a_s)

    # Confidence trains exactly on the made rows.
    sub_starts_m = _sub_starts(made, starts)
    maximum = (
        cfg.confidence_threshold
        if cfg.confidence_max is None else cfg.confidence_max
    )
    conf_after_m = sat_counter_trajectory(
        corr[made], sub_starts_m, maximum, cfg.hysteresis
    )
    conf_before_m = seg_shift(conf_after_m, sub_starts_m, 0)
    conf_before = np.zeros(n, dtype=np.int64)
    conf_after = np.zeros(n, dtype=np.int64)
    conf_before[made] = conf_before_m
    conf_after[made] = conf_after_m
    conf_ok = made & (conf_before >= cfg.confidence_threshold)

    # Per-key end state.
    ends = np.empty(n, dtype=bool)
    if n:
        ends[:-1] = starts[1:]
        ends[-1] = True
    h_scatter = np.zeros(n, dtype=np.int64)
    h_scatter[val_mask] = h_after_v
    val_idx = seg_last_index_where(val_mask, starts)
    final_hist = np.where(
        val_idx >= 0, h_scatter[np.maximum(val_idx, 0)], 0
    )[ends] if n else np.zeros(0, dtype=np.int64)
    conf_idx = seg_last_index_where(made, starts)
    final_conf = np.where(
        conf_idx >= 0, conf_after[np.maximum(conf_idx, 0)], 0
    )[ends] if n else np.zeros(0, dtype=np.int64)

    return {
        "made": made,
        "address": address,
        "corr": corr,
        "tag_ok": tag_ok,
        "conf_ok": conf_ok,
        "eligible": made & tag_ok & conf_ok,
        "sub_starts_made": sub_starts_m,
        "solved_lt": solved,
        "offsets": off_first,
        "final_hist": final_hist,
        "final_conf": final_conf,
        "ends": ends,
    }


def _sub_starts(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Segment-head marker of the ``mask`` subsequence."""
    before = seg_exclusive_cumsum(mask.astype(np.int64), starts)
    return before[mask] == 0


def plan_cap(predictor, batch: EventBatch) -> BatchResult:
    cfg = predictor.config
    lb = batch.lb_groups(predictor.load_buffer)
    order, starts = lb["order"], lb["starts"]
    _, actual, offsets = batch.load_columns()
    n = batch.n_loads

    a_s = actual[order]
    b_s = offsets[order]
    rows = cap_rows(predictor.component, batch, a_s, b_s, starts, order, None)
    made_s = rows["made"]

    if cfg.cfi_mode == CFI_OFF:
        ghr_m = np.zeros(int(made_s.sum()), dtype=np.int64)
    else:
        ghr_m = batch.ghr_at_load[order][made_s]
    pattern_m = ghr_m & np.int64((1 << cfg.cfi_bits) - 1)
    allows_m, cfi_final = resolve_cfi(
        cfg.cfi_mode, rows["sub_starts_made"], pattern_m,
        rows["corr"][made_s], rows["eligible"][made_s],
    )
    allows = np.ones(n, dtype=bool)
    allows[made_s] = allows_m
    spec_s = rows["eligible"] & allows
    corr_s = rows["corr"]
    tag_ok = rows["tag_ok"]
    conf_ok = rows["conf_ok"]

    address = np.empty(n, dtype=np.int64)
    made = np.empty(n, dtype=bool)
    speculative = np.empty(n, dtype=bool)
    correct = np.empty(n, dtype=bool)
    address[order] = rows["address"]
    made[order] = made_s
    speculative[order] = spec_s
    correct[order] = corr_s

    ends = rows["ends"]
    # Groups with at least one made row, in group order, keyed by the
    # made-subsequence segment index (for final CFI machine states).
    counts = np.add.reduceat(
        made_s.astype(np.int64), np.flatnonzero(starts)
    ) if n else np.zeros(0, dtype=np.int64)
    made_keys = np.flatnonzero(counts > 0)
    cfi_states = {
        int(made_keys[si]): machine for si, machine in cfi_final.items()
    }
    empty = np.empty(0, dtype=np.int64)
    state = {
        "lb": lb,
        "entries": {
            "last_addr": a_s[ends] if n else empty,
            "offsets": rows["offsets"],
            "history": rows["final_hist"],
            "conf": rows["final_conf"],
        },
        "cfi_states": cfi_states,
        "solved_lt": rows["solved_lt"],
        "probe": {
            "lb_misses": int(starts.sum()),
            "confidence_vetoes": int((made_s & tag_ok & ~conf_ok).sum()),
            "cfi_vetoes": int((made_s & tag_ok & conf_ok & ~allows).sum()),
            "cfi_bad_patterns": (
                0 if cfg.cfi_mode == CFI_OFF
                else int((~corr_s & spec_s & made_s).sum())
            ),
        },
    }
    return BatchResult(
        address, made, speculative, correct,
        np.zeros(n, dtype=np.int8), _SOURCES, state,
    )


def _cap_entries(cfg, columns: dict, cfi_states: dict,
                 gids: np.ndarray) -> list:
    """The ``CAPState`` of each generation in ``gids``, from the
    per-generation end-state columns ``plan_cap`` keeps (the Load Buffer
    fill's ``make_entries``)."""
    from ..predictors.cap import CAPState

    entries = []
    rows = zip(
        gids.tolist(),
        *(columns[name][gids].tolist()
          for name in ("last_addr", "offsets", "history", "conf")),
    )
    for gid, addr, offset, history, conf in rows:
        entry = CAPState(cfg, offset)
        entry.last_addr = addr
        entry.history = history
        entry.spec_history = history
        entry.confidence.value = conf
        machine = cfi_states.get(gid)
        if machine is not None:
            if cfg.cfi_mode == CFI_LAST:
                entry.cfi._bad_pattern = machine
            else:
                entry.cfi._path_bad = machine
        entries.append(entry)
    return entries


def commit_cap(predictor, batch: EventBatch, result: BatchResult) -> None:
    state = result.state
    make_entries = partial(
        _cap_entries, predictor.config, state["entries"], state["cfi_states"]
    )
    lb_commit(predictor.load_buffer, state["lb"], make_entries, batch.n_loads)
    commit_link_table(predictor.component.link_table, state["solved_lt"])
    batch.commit_control_flow(predictor)

    counts = state["probe"]
    if predictor.probe is not None:
        predictor.probe.lb_misses += counts["lb_misses"]
    component_probe = predictor.component.probe
    if component_probe is not None:
        component_probe.confidence_vetoes += counts["confidence_vetoes"]
        component_probe.cfi_vetoes += counts["cfi_vetoes"]
        component_probe.cfi_bad_patterns += counts["cfi_bad_patterns"]
