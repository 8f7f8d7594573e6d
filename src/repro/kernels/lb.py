"""Load-buffer emulation shared by the batch kernels.

In the immediate model every dynamic load performs a predict-time lookup
(inserting a fresh entry on the first access) and an update-time lookup,
so the table's behaviour depends only on the per-load key sequence — not
on any predictor state.  :func:`lb_solve` exploits that to factor the
whole run into **generations**: maximal stretches of a static load's
dynamic instances during which its entry stays resident.  Rows grouped
by generation behave exactly like rows grouped by key in an eviction-free
run (a re-inserted key restarts from a fresh entry), so every per-key
segmented solver downstream works unchanged on the generation grouping.

* Sets that never see more distinct keys than they have ways are
  closed-form: one generation per key, ways filled in first-occurrence
  order, ``lru = 2 * t_last + 2`` (``_clock`` advances exactly twice per
  dynamic load).
* Overflowing sets are replayed with a tiny per-set LRU loop over that
  set's loads only — the one genuinely sequential part of the table —
  yielding each load's generation and the final way placement.

``hits = 2 * loads - generations``, ``misses = generations`` (each
generation opens with the predict-time miss that inserted it).
:func:`lb_commit` writes those statistics at once and leaves the way
placement to the table as a pending :class:`LBFill`.
"""

from __future__ import annotations

import numpy as np

from .segops import seg_last_index_where

__all__ = ["lb_solve", "lb_commit", "LBFill"]


def lb_solve(table, key: np.ndarray) -> dict:
    """Generation-aware grouping of the per-load key sequence.

    Returns the sorted (group, time) layout used by every kernel —
    ``order``/``starts``/``occ`` as in ``EventBatch.load_groups`` but with
    one segment per *generation* — plus the per-group arrays and the
    placement info :func:`lb_commit` needs:

    * ``group_keys``/``first_load``/``last_load`` — indexed by group id;
    * ``n_normal`` — groups below this id live in never-overflowing sets
      (placed by first-occurrence way fill); the rest were replayed;
    * ``placed`` — explicit ``(set, way, gid, last_load)`` placement for
      the ways of replayed sets still valid at end of run;
    * ``evictions`` — total evictions performed.
    """
    n = len(key)
    index_mask = (1 << table.index_bits) - 1
    ways = table.ways
    gid = np.empty(n, dtype=np.int64)
    placed: list = []
    evictions = 0

    u_keys = np.unique(key) if n else np.empty(0, dtype=np.int64)
    set_counts = np.bincount(
        (u_keys & np.int64(index_mask)).astype(np.int64),
        minlength=table.num_sets,
    )
    overflow_sets = set_counts > ways
    if overflow_sets.any():
        ovf = overflow_sets[(key & np.int64(index_mask)).astype(np.int64)]
        normal = ~ovf
        nk = key[normal]
        u_norm, inv = (
            np.unique(nk, return_inverse=True) if len(nk)
            else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        )
        gid[normal] = inv
        n_normal = len(u_norm)
        next_gid = n_normal
        # Sequential LRU replay, restricted to the overflowing sets.  A
        # way is a mutable [key, last_load, gid] cell; eviction replaces
        # the least-recently-used cell in place (the scalar table breaks
        # lru ties by way order, and per-load times make ties impossible).
        resident: dict = {}       # key -> way cell
        set_ways: dict = {}       # set index -> list of way cells
        out = []
        ovf_pos = np.flatnonzero(ovf)
        for pos, k in zip(ovf_pos.tolist(), key[ovf].tolist()):
            cell = resident.get(k)
            if cell is not None:
                cell[1] = pos
                out.append(cell[2])
                continue
            s = k & index_mask
            cells = set_ways.setdefault(s, [])
            if len(cells) < ways:
                cell = [k, pos, next_gid]
                cells.append(cell)
            else:
                cell = min(cells, key=lambda c: c[1])
                del resident[cell[0]]
                evictions += 1
                cell[0] = k
                cell[1] = pos
                cell[2] = next_gid
            resident[k] = cell
            out.append(next_gid)
            next_gid += 1
        gid[ovf_pos] = np.asarray(out, dtype=np.int64)
        for s, cells in set_ways.items():
            for wi, cell in enumerate(cells):
                placed.append((s, wi, cell[2], cell[1]))
    else:
        _, inv = (
            np.unique(key, return_inverse=True) if n
            else (None, np.empty(0, dtype=np.int64))
        )
        gid[:] = inv
        n_normal = int(gid.max()) + 1 if n else 0

    order = np.argsort(gid, kind="stable")
    g_sorted = gid[order]
    starts = np.empty(n, dtype=bool)
    if n:
        starts[0] = True
        starts[1:] = g_sorted[1:] != g_sorted[:-1]
    occ = np.arange(n, dtype=np.int64) - seg_last_index_where(starts, starts)
    ends = np.empty(n, dtype=bool)
    if n:
        ends[:-1] = starts[1:]
        ends[-1] = True
    empty = np.empty(0, dtype=np.int64)
    return {
        "order": order,
        "starts": starts,
        "occ": occ,
        "ends": ends,
        "group_keys": key[order][starts] if n else empty,
        "first_load": order[starts] if n else empty,
        "last_load": order[ends] if n else empty,
        "n_normal": n_normal,
        "placed": placed,
        "evictions": evictions,
    }


def lb_commit(table, solved: dict, make_entries, total_loads: int) -> None:
    """Commit a :func:`lb_solve` end state into a live SetAssociativeTable.

    The statistics and the clock are written now.  The way placement is
    handed to the table as a pending fill (:class:`LBFill`), which it
    applies when its storage is first built.  ``make_entries(gids)``
    returns the entry objects of the given generation ids, in order.
    """
    groups = len(solved["group_keys"])
    table._clock += 2 * total_loads
    table.hits += 2 * total_loads - groups
    table.misses += groups
    table.evictions += solved["evictions"]
    table.fill_later(LBFill(table.index_bits, solved, make_entries))


class LBFill:
    """A Load Buffer end state, placed into the table's ways on first read.

    It keeps per-generation columns only, never the per-load solver
    arrays or the event batch: each generation's key and last load, the
    first loads of the never-overflowing sets (their ways fill in that
    order), the explicit placement of the replayed sets, and the kernel's
    ``make_entries``.  Entries of evicted generations are never built.
    """

    __slots__ = ("index_bits", "keys", "last_load", "first_load", "placed",
                 "make_entries")

    def __init__(self, index_bits: int, solved: dict, make_entries) -> None:
        self.index_bits = index_bits
        self.keys = solved["group_keys"]
        self.last_load = solved["last_load"]
        self.first_load = solved["first_load"][:solved["n_normal"]]
        self.placed = solved["placed"]
        self.make_entries = make_entries

    def __call__(self, sets: list) -> None:
        index_bits = self.index_bits
        index_mask = (1 << index_bits) - 1
        fill = np.argsort(self.first_load, kind="stable")
        placed = self.placed
        gids = np.concatenate(
            [fill, np.array([p[2] for p in placed], dtype=np.int64)]
        )
        entries = self.make_entries(gids)
        n_fill = len(fill)
        rows = zip(
            self.keys[fill].tolist(),
            (2 * self.last_load[fill] + 2).tolist(),
            entries[:n_fill],
        )
        for k, lru, entry in rows:
            for way in sets[k & index_mask]:
                if way.tag is None:
                    way.tag = k >> index_bits
                    way.entry = entry
                    way.lru = lru
                    break
            else:  # pragma: no cover - normal sets never overflow
                raise AssertionError("lb_commit overflow in a non-replayed set")
        for (s, wi, gid, last), entry in zip(placed, entries[n_fill:]):
            way = sets[s][wi]
            way.tag = int(self.keys[gid]) >> index_bits
            way.entry = entry
            way.lru = 2 * last + 2
