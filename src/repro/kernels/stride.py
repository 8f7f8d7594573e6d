"""Batch kernel for :class:`repro.predictors.stride.StridePredictor`.

Covers both the basic two-delta predictor and the paper's enhanced
variant (CFI filter + interval technique).  The per-key recurrences —
two-delta stride confirmation, the reset-on-miss confidence counter, the
run-length/interval detector — all reduce to segmented shifts, streaks
and forward fills; only the CFI filter needs the hybrid vector-jump /
dirty-loop solver (:func:`repro.kernels.control_flow.resolve_cfi`).

The row solver is shared with the hybrid kernel via :func:`stride_rows`,
which stops just short of CFI resolution (the hybrid's CFI machines are
coupled through selector arbitration and resolve jointly).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..predictors.confidence import CFI_LAST, CFI_OFF
from .api import BatchResult
from .batch import EventBatch
from .control_flow import resolve_cfi, sat_counter_trajectory
from .lb import lb_commit
from .segops import seg_last_index_where, seg_shift, seg_streak_before

__all__ = ["stride_rows", "plan_stride", "commit_stride"]

_SOURCES = ("stride",)
_MASK32 = np.int64(0xFFFFFFFF)


def stride_rows(cfg, a_s: np.ndarray, starts: np.ndarray, occ: np.ndarray) -> dict:
    """Per-row stride state evolution in the segmented (per-key) layout.

    ``a_s`` holds the actual addresses sorted by key, ``occ`` each row's
    occurrence index within its key.  Returns every sorted-layout array a
    caller needs to finish the prediction — everything *except* the CFI
    filter, whose resolution differs between the stand-alone predictor
    (independent machine) and the hybrid (coupled through selection).

    Keys to the returned dict:

    * ``made``/``pred``/``corr`` — a prediction exists (every non-first
      occurrence), its address, and its correctness;
    * ``delta``/``stride_before``/``stride_after`` — delta training;
    * ``conf_before``/``conf_after``/``conf_ok`` — confidence counter
      around each row's train, and the pre-train confident flag;
    * ``int_veto``/``run_after``/``int_after`` — interval technique;
    * ``eligible`` — would speculate if the CFI filter allowed it;
    * ``sub_starts`` — segment heads of the update-row subsequence
      (``made`` rows), for the caller's CFI resolution.
    """
    n = len(a_s)
    made = ~starts
    prev_a = seg_shift(a_s, starts, 0)
    delta = (a_s - prev_a) & _MASK32

    if cfg.two_delta:
        prev_delta = seg_shift(delta, starts, -1)
        set_mask = (occ >= 2) & (delta == prev_delta)
        set_idx = seg_last_index_where(set_mask, starts)
        stride_after = np.where(set_idx >= 0, delta[np.maximum(set_idx, 0)], 0)
    else:
        stride_after = np.where(made, delta, 0)
    stride_before = seg_shift(stride_after, starts, 0)
    pred = (prev_a + stride_before) & _MASK32
    corr = made & (pred == a_s)

    # Confidence trains on every made row (``correct`` is non-None there).
    sub_starts = occ[made] == 1
    corr_u = corr[made]
    maximum = (
        cfg.confidence_threshold
        if cfg.confidence_max is None else cfg.confidence_max
    )
    conf_after_u = sat_counter_trajectory(
        corr_u, sub_starts, maximum, cfg.hysteresis
    )
    conf_before_u = seg_shift(conf_after_u, sub_starts, 0)
    conf_before = np.zeros(n, dtype=np.int64)
    conf_after = np.zeros(n, dtype=np.int64)
    conf_before[made] = conf_before_u
    conf_after[made] = conf_after_u
    conf_ok = made & (conf_before >= cfg.confidence_threshold)

    run_after = np.zeros(n, dtype=np.int64)
    int_after = np.zeros(n, dtype=np.int64)
    int_veto = np.zeros(n, dtype=bool)
    if cfg.use_interval:
        run_before_u = seg_streak_before(corr_u, sub_starts)
        run_after[made] = np.where(corr_u, run_before_u + 1, 0)
        reset_u = ~corr_u & (run_before_u > 0)
        int_set = seg_last_index_where(reset_u, sub_starts)
        int_after_u = np.where(
            int_set >= 0, run_before_u[np.maximum(int_set, 0)], 0
        )
        int_after[made] = int_after_u
        int_before_u = seg_shift(int_after_u, sub_starts, 0)
        int_veto[made] = (int_before_u > 0) & (run_before_u >= int_before_u)

    return {
        "made": made,
        "pred": pred,
        "corr": corr,
        "delta": delta,
        "stride_after": stride_after,
        "conf_before": conf_before,
        "conf_after": conf_after,
        "conf_ok": conf_ok,
        "int_veto": int_veto,
        "run_after": run_after,
        "int_after": int_after,
        "eligible": conf_ok & ~int_veto,
        "sub_starts": sub_starts,
    }


def plan_stride(predictor, batch: EventBatch) -> BatchResult:
    cfg = predictor.config
    lb = batch.lb_groups(predictor.table)
    order, starts, occ = lb["order"], lb["starts"], lb["occ"]
    _, actual, _ = batch.load_columns()
    n = batch.n_loads

    a_s = actual[order]
    rows = stride_rows(cfg, a_s, starts, occ)
    made_s = rows["made"]

    if cfg.cfi_mode == CFI_OFF:
        ghr_u = np.zeros(int(made_s.sum()), dtype=np.int64)
    else:
        ghr_u = batch.ghr_at_load[order][made_s]
    pattern_u = ghr_u & np.int64((1 << cfg.cfi_bits) - 1)
    allows_u, cfi_final = resolve_cfi(
        cfg.cfi_mode, rows["sub_starts"], pattern_u,
        rows["corr"][made_s], rows["eligible"][made_s],
    )
    allows = np.ones(n, dtype=bool)
    allows[made_s] = allows_u
    spec_s = rows["eligible"] & allows
    corr_s = rows["corr"]
    conf_ok = rows["conf_ok"]

    address = np.empty(n, dtype=np.int64)
    made = np.empty(n, dtype=bool)
    speculative = np.empty(n, dtype=bool)
    correct = np.empty(n, dtype=bool)
    address[order] = rows["pred"]
    made[order] = made_s
    speculative[order] = spec_s
    correct[order] = corr_s

    ends = lb["ends"]
    multi = occ[ends] >= 1 if n else np.empty(0, dtype=bool)
    # Subsequence segment index -> group index (generations with >= 2
    # loads, in group order) for the per-group final CFI machine states.
    multi_keys = np.flatnonzero(multi)
    cfi_states = {
        int(multi_keys[si]): machine for si, machine in cfi_final.items()
    }
    empty = np.empty(0, dtype=np.int64)
    state = {
        "lb": lb,
        "entries": {
            "last_addr": a_s[ends] if n else empty,
            "stride": rows["stride_after"][ends] if n else empty,
            "last_delta": rows["delta"][ends] if n else empty,
            "multi": multi,
            "conf": rows["conf_after"][ends] if n else empty,
            "run_length": rows["run_after"][ends] if n else empty,
            "interval": rows["int_after"][ends] if n else empty,
        },
        "cfi_states": cfi_states,
        "probe": {
            "lb_misses": int(starts.sum()),
            "confidence_vetoes": int((made_s & ~conf_ok).sum()),
            "cfi_vetoes": int((conf_ok & ~allows).sum()),
            "interval_stops": int(
                (conf_ok & allows & rows["int_veto"]).sum()
            ),
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


def _stride_entries(cfg, columns: dict, cfi_states: dict,
                    gids: np.ndarray) -> list:
    """The ``StrideState`` of each generation in ``gids``, from the
    per-generation end-state columns ``plan_stride`` keeps (the Load
    Buffer fill's ``make_entries``)."""
    from ..predictors.stride import StrideState

    entries = []
    rows = zip(
        gids.tolist(),
        *(columns[name][gids].tolist() for name in (
            "last_addr", "stride", "last_delta", "multi", "conf",
            "run_length", "interval",
        )),
    )
    for gid, addr, stride, last_delta, multi, conf, run, interval in rows:
        entry = StrideState(cfg)
        entry.last_addr = addr
        entry.stride = stride
        entry.last_delta = last_delta if (multi and cfg.two_delta) else None
        entry.confidence.value = conf
        entry.run_length = run
        entry.interval = interval
        entry.spec_last_addr = addr
        machine = cfi_states.get(gid)
        if machine is not None:
            if cfg.cfi_mode == CFI_LAST:
                entry.cfi._bad_pattern = machine
            else:
                entry.cfi._path_bad = machine
        entries.append(entry)
    return entries


def commit_stride(predictor, batch: EventBatch, result: BatchResult) -> None:
    state = result.state
    make_entries = partial(
        _stride_entries, predictor.config, state["entries"],
        state["cfi_states"],
    )
    lb_commit(predictor.table, state["lb"], make_entries, batch.n_loads)
    batch.commit_control_flow(predictor)

    counts = state["probe"]
    if predictor.probe is not None:
        predictor.probe.lb_misses += counts["lb_misses"]
    logic_probe = predictor.logic.probe
    if logic_probe is not None:
        logic_probe.confidence_vetoes += counts["confidence_vetoes"]
        logic_probe.cfi_vetoes += counts["cfi_vetoes"]
        logic_probe.interval_stops += counts["interval_stops"]
        logic_probe.cfi_bad_patterns += counts["cfi_bad_patterns"]
