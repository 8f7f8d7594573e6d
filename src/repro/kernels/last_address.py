"""Batch kernel for :class:`repro.predictors.last_address.LastAddressPredictor`.

The simplest kernel, and the template for the others: group loads by LB
key, derive each prediction from the previous occurrence's address, and
run the confidence counter trajectory over the per-key update stream.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .api import BatchResult
from .batch import EventBatch
from .lb import lb_commit
from .segops import seg_shift
from .control_flow import sat_counter_trajectory

__all__ = ["plan_last_address", "commit_last_address"]

_SOURCES = ("", "last")


def plan_last_address(predictor, batch: EventBatch) -> BatchResult:
    cfg = predictor.config
    lb = batch.lb_groups(predictor.table)
    order, starts, occ = lb["order"], lb["starts"], lb["occ"]
    _, actual, _ = batch.load_columns()
    n = batch.n_loads

    a_s = actual[order]
    prev_a = seg_shift(a_s, starts, -1)
    made_s = ~starts
    corr_s = made_s & (prev_a == a_s)

    # Confidence updates happen on every non-first occurrence (last_addr is
    # set from the first update on); run the counter over that subsequence.
    upd = made_s
    sub_starts = occ[upd] == 1
    maximum = (
        cfg.confidence_threshold
        if cfg.confidence_max is None else cfg.confidence_max
    )
    conf_after = sat_counter_trajectory(
        corr_s[upd], sub_starts, maximum, cfg.hysteresis
    )
    conf_before_s = np.zeros(n, dtype=np.int64)
    conf_before_s[upd] = seg_shift(conf_after, sub_starts, 0)
    spec_s = made_s & (conf_before_s >= cfg.confidence_threshold)

    # Back to original load order.
    address = np.empty(n, dtype=np.int64)
    made = np.empty(n, dtype=bool)
    speculative = np.empty(n, dtype=bool)
    correct = np.empty(n, dtype=bool)
    address[order] = prev_a
    made[order] = made_s
    speculative[order] = spec_s
    correct[order] = corr_s

    # Per-generation end state, one row per group in group order.
    ends = lb["ends"]
    conf_after_s = np.zeros(n, dtype=np.int64)
    conf_after_s[upd] = conf_after
    state = {
        "lb": lb,
        "entries": {
            "last_addr": a_s[ends] if n else np.empty(0, dtype=np.int64),
            "conf": conf_after_s[ends] if n else np.empty(0, dtype=np.int64),
        },
    }
    return BatchResult(
        address, made, speculative, correct,
        made.astype(np.int8), _SOURCES, state,
    )


def _last_address_entries(cfg, columns: dict, gids: np.ndarray) -> list:
    """The table entry of each generation in ``gids``, from the
    per-generation end-state columns (the Load Buffer fill's
    ``make_entries``)."""
    from ..predictors.last_address import _Entry

    entries = []
    rows = zip(columns["last_addr"][gids].tolist(),
               columns["conf"][gids].tolist())
    for addr, conf in rows:
        entry = _Entry(cfg)
        entry.last_addr = addr
        entry.confidence.value = conf
        entries.append(entry)
    return entries


def commit_last_address(predictor, batch: EventBatch, result: BatchResult) -> None:
    make_entries = partial(
        _last_address_entries, predictor.config, result.state["entries"]
    )
    lb_commit(predictor.table, result.state["lb"], make_entries, batch.n_loads)
    batch.commit_control_flow(predictor)
