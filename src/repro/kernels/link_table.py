"""Batch emulation of the direct-mapped Link Table (ways == 1).

The LT is the one genuinely *global* structure in CAP — every static
load's lookups and updates interleave in program order through shared
slots — so the kernel rebuilds its timeline explicitly: one event per
lookup (at time ``2i`` for load ``i``) and one per update (at ``2i+1``),
grouped by slot, with the PF filter resolved first as a per-PF-slot
shift (a write is allowed iff the previous write to the same PF slot
carried the same PF bits).

Set-associative LTs (``ways > 1``) interleave tag-match/invalid/LRU way
selection in a way that has no closed form; the solver raises
:class:`~repro.kernels.api.BatchFallback` for them and the scalar
reference runs instead.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .api import BatchFallback
from .segops import group_sort, seg_last_index_where, seg_shift

__all__ = ["solve_link_table", "commit_link_table"]


def solve_link_table(
    cfg,
    lookup_time: np.ndarray,
    lookup_hist: np.ndarray,
    update_time: np.ndarray,
    update_hist: np.ndarray,
    update_value: np.ndarray,
) -> dict:
    """Replay a Link Table's whole event timeline.

    ``*_time`` arrays must be globally unique and encode program order
    (the caller uses ``2 * load_index`` for lookups and ``2 * load_index
    + 1`` for updates, putting a load's own update after its lookup).

    Returns per-lookup outcome arrays (aligned with the ``lookup_*``
    inputs), the table statistics, and the end-of-run architectural
    state for :func:`commit_link_table`: per-slot ``slot``/``link``/
    ``tag``/``stamp`` columns and per-PF-slot ``pf_slot``/``pf``.
    """
    if cfg.ways != 1:
        raise BatchFallback(
            "set-associative Link Table has no closed-form way selection"
        )
    index_mask = np.int64((1 << cfg.index_bits) - 1)
    tag_mask = np.int64((1 << cfg.tag_bits) - 1) if cfg.tag_bits else np.int64(0)
    nl = len(lookup_time)
    nu = len(update_time)

    # Updates in program order (their times are already strictly
    # increasing per construction, but don't rely on it).
    u_order = np.argsort(update_time, kind="stable")
    u_time = update_time[u_order]
    u_hist = update_hist[u_order]
    u_value = update_value[u_order]
    u_slot = u_hist & index_mask
    u_tag = (u_hist >> cfg.index_bits) & tag_mask

    # PF filter: a write is allowed iff the previous write to the same PF
    # slot carried the same PF bits (first writes see None and reject).
    if cfg.pf_bits == 0:
        allowed = np.ones(nu, dtype=bool)
    else:
        pf_new = (u_value >> cfg.pf_low_bit) & np.int64((1 << cfg.pf_bits) - 1)
        if cfg.pf_decoupled:
            pf_slot = u_hist & np.int64(cfg.pf_table_entries - 1)
        else:
            pf_slot = u_slot
        pf_order, pf_starts = group_sort(pf_slot)
        prev_pf = seg_shift(pf_new[pf_order], pf_starts, -1)
        allowed = np.empty(nu, dtype=bool)
        allowed[pf_order] = prev_pf == pf_new[pf_order]

    # Interleave lookups and allowed updates per slot; each lookup reads
    # the latest allowed write to its slot before its own time.
    l_slot = lookup_hist & index_mask
    l_tag = (lookup_hist >> cfg.index_bits) & tag_mask
    ev_slot = np.concatenate([l_slot, u_slot])
    ev_time = np.concatenate([lookup_time, u_time])
    ev_write = np.concatenate([np.zeros(nl, dtype=bool), allowed])
    ev_link = np.concatenate([np.zeros(nl, dtype=np.int64), u_value])
    ev_tag = np.concatenate([l_tag, u_tag])
    ev_order = np.lexsort((ev_time, ev_slot))
    starts = np.empty(nl + nu, dtype=bool)
    if nl + nu:
        s_slot = ev_slot[ev_order]
        starts[0] = True
        starts[1:] = s_slot[1:] != s_slot[:-1]
    src_idx = seg_last_index_where(ev_write[ev_order], starts)
    valid_s = src_idx >= 0
    gather = np.maximum(src_idx, 0)
    link_s = ev_link[ev_order][gather]
    stored_tag_s = ev_tag[ev_order][gather]

    # Scatter per-lookup results back to the caller's lookup order.
    valid = np.empty(nl + nu, dtype=bool)
    link = np.empty(nl + nu, dtype=np.int64)
    stored_tag = np.empty(nl + nu, dtype=np.int64)
    valid[ev_order] = valid_s
    link[ev_order] = link_s
    stored_tag[ev_order] = stored_tag_s
    lk_valid = valid[:nl]
    lk_link = link[:nl]
    if cfg.tag_bits == 0:
        lk_tag_ok = lk_valid.copy()
        tag_mismatches = 0
        probe_miss = int((~lk_valid).sum())
        probe_tag_mismatch = 0
    else:
        tag_match = lk_valid & (stored_tag[:nl] == l_tag)
        lk_tag_ok = tag_match
        tag_mismatches = int((~tag_match).sum())
        probe_miss = int((~lk_valid).sum())
        probe_tag_mismatch = int((lk_valid & ~tag_match).sum())

    # End-of-run architectural state, as columns: the last allowed write
    # per slot, stamped with its 1-based global update ordinal (the
    # scalar clock), and the last PF bits per PF slot.
    empty = np.empty(0, dtype=np.int64)
    state = {
        "slot": empty, "link": empty, "tag": empty, "stamp": empty,
        "pf_slot": empty, "pf": empty,
    }
    if nu:
        ordinal = np.arange(1, nu + 1, dtype=np.int64)
        fin_order, fin_starts = group_sort(u_slot)
        fin_ends = np.empty(nu, dtype=bool)
        fin_ends[:-1] = fin_starts[1:]
        fin_ends[-1] = True
        last_write = seg_last_index_where(allowed[fin_order], fin_starts)
        at_ends = last_write[fin_ends]
        live = at_ends >= 0
        src = fin_order[at_ends[live]]
        state["slot"] = u_slot[fin_order][fin_ends][live]
        state["link"] = u_value[src]
        state["tag"] = u_tag[src]
        state["stamp"] = ordinal[src]
    if cfg.pf_bits and nu:
        # PF bits are rewritten on every update, allowed or not: the final
        # PF per PF slot is simply the last update's PF value there.
        pfo, pfs = group_sort(pf_slot)
        pfe = np.empty(nu, dtype=bool)
        pfe[:-1] = pfs[1:]
        pfe[-1] = True
        state["pf_slot"] = pf_slot[pfo][pfe]
        state["pf"] = pf_new[pfo][pfe]

    return {
        "valid": lk_valid,
        "link": lk_link,
        "tag_ok": lk_tag_ok,
        "stats": {
            "lookups": nl,
            "tag_mismatches": tag_mismatches,
            "pf_rejections": int((~allowed).sum()),
            "link_writes": int(allowed.sum()),
            "clock": nu,
            "probe_lt_misses": probe_miss,
            "probe_lt_tag_mismatches": probe_tag_mismatch,
        },
        "state": state,
    }


def commit_link_table(table, solved: dict) -> None:
    """Commit a solver result's end state into a live ``LinkTable``.

    Statistics, probe counts and the decoupled PF table are written now.
    The slots, and PF bits kept in the ways, are handed to the table as
    a pending fill, which it applies when its storage is first built.
    """
    stats = solved["stats"]
    table.lookups += stats["lookups"]
    table.tag_mismatches += stats["tag_mismatches"]
    table.pf_rejections += stats["pf_rejections"]
    table.link_writes += stats["link_writes"]
    table._clock += stats["clock"]
    state = solved["state"]
    pf_table = table._pf_table
    if pf_table is not None:
        for slot, pf_value in zip(state["pf_slot"].tolist(),
                                  state["pf"].tolist()):
            pf_table[slot] = pf_value
    table.fill_later(partial(_place_links, state, pf_table is None))
    probe = table.probe
    if probe is not None:
        probe.lt_misses += stats["probe_lt_misses"]
        probe.lt_tag_mismatches += stats["probe_lt_tag_mismatches"]
        probe.pf_rejections += stats["pf_rejections"]


def _place_links(state: dict, pf_in_ways: bool, sets: list) -> None:
    """A pending Link Table fill: write the end-state columns into the
    (direct-mapped) ways."""
    rows = zip(state["slot"].tolist(), state["link"].tolist(),
               state["tag"].tolist(), state["stamp"].tolist())
    for slot, link, tag, stamp in rows:
        entry = sets[slot][0]
        entry.link = link
        entry.tag = tag
        entry.stamp = stamp
    if pf_in_ways:
        for slot, pf_value in zip(state["pf_slot"].tolist(),
                                  state["pf"].tolist()):
            sets[slot][0].pf = pf_value
