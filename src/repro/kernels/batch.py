"""Shared per-batch precomputation for the predictor kernels.

An :class:`EventBatch` wraps one trace's :class:`~repro.trace.trace.
PredictorStream` as numpy arrays plus the derived views every kernel
needs: the load sub-stream, per-static-load grouping (stable sort by load
key so each static load's dynamic history is a contiguous segment), the
global history register value visible to each load, and the call-path hash
stream for path-indexed predictors.

Everything is computed lazily and memoised — a last-address kernel never
pays for GHR reconstruction, and the call-path hash is only built for
``call_path``-indexed gshare configs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..predictors.base import AddressPredictor
from . import segops

__all__ = ["EventBatch"]

GHR_BITS = AddressPredictor.GHR_BITS
PATH_DEPTH = AddressPredictor.PATH_DEPTH
_GHR_MASK = np.int64((1 << GHR_BITS) - 1)
_PATH_HASH_BITS = 30


class EventBatch:
    """Columnar event batch with memoised derived views."""

    def __init__(self, arrays: Tuple[np.ndarray, ...]) -> None:
        self.tag, self.ip, self.a, self.b = arrays
        self._load_idx: Optional[np.ndarray] = None
        self._load_cols: Optional[Tuple[np.ndarray, ...]] = None
        self._groups: Optional[Tuple[np.ndarray, ...]] = None
        self._lb_groups: dict = {}
        self._ghr: Optional[np.ndarray] = None
        self._final_ghr: Optional[int] = None
        self._path_hash: Optional[np.ndarray] = None
        self._final_path: Optional[list] = None

    @classmethod
    def from_stream(cls, stream) -> "EventBatch":
        return cls(stream.arrays())

    # -- loads ---------------------------------------------------------------

    @property
    def load_idx(self) -> np.ndarray:
        """Event positions of the dynamic loads."""
        if self._load_idx is None:
            self._load_idx = np.flatnonzero(self.tag == 1)
        return self._load_idx

    @property
    def n_loads(self) -> int:
        return len(self.load_idx)

    def load_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ip, actual, offset)`` restricted to the dynamic loads."""
        if self._load_cols is None:
            idx = self.load_idx
            self._load_cols = (self.ip[idx], self.a[idx], self.b[idx])
        return self._load_cols

    def load_groups(self) -> Tuple[np.ndarray, ...]:
        """Stable grouping of loads by load-buffer key (``ip >> 2``).

        Returns ``(key, order, starts, occ, first_pos)``:

        * ``key``   per-load LB key, in original load order;
        * ``order`` permutation putting loads into (key, time) order;
        * ``starts`` segment-head marker in the sorted layout;
        * ``occ``   per sorted position, the load's occurrence index within
          its key (0 for the first dynamic instance of a static load);
        * ``first_pos`` original load index of each key's first occurrence,
          one entry per segment head (i.e. per distinct key, in sorted-key
          order).
        """
        if self._groups is None:
            ips, _, _ = self.load_columns()
            key = ips >> 2
            order, starts = segops.group_sort(key)
            n = len(key)
            occ = np.arange(n, dtype=np.int64) - segops.seg_last_index_where(
                starts, starts
            )
            first_pos = order[starts]
            self._groups = (key, order, starts, occ, first_pos)
        return self._groups

    def lb_groups(self, table) -> dict:
        """Generation-aware grouping against a load buffer's geometry.

        Memoised per ``(index_bits, ways)`` on this batch only:
        :func:`repro.kernels.run_batch` builds a new batch per call, so
        no two predictors, or engine jobs, share a solve.  See
        :func:`repro.kernels.lb.lb_solve`.
        """
        from .lb import lb_solve

        shape = (table.index_bits, table.ways)
        solved = self._lb_groups.get(shape)
        if solved is None:
            ips, _, _ = self.load_columns()
            solved = lb_solve(table, ips >> 2)
            self._lb_groups[shape] = solved
        return solved

    # -- control-flow history -------------------------------------------------

    def _build_ghr(self) -> None:
        branch_pos = np.flatnonzero(self.tag == 0)
        taken = (self.a[branch_pos] != 0).astype(np.int64)
        nb = len(taken)
        # The scalar model shifts left and ORs the new outcome into bit 0,
        # so g_after[j] = sum_{s < GHR_BITS} taken[j - s] << s (newest
        # branch in bit 0).
        padded = np.zeros(nb + GHR_BITS - 1, dtype=np.int64)
        if nb:
            padded[GHR_BITS - 1:] = taken
        g_after = np.zeros(nb, dtype=np.int64)
        for s in range(GHR_BITS):
            g_after += padded[GHR_BITS - 1 - s: GHR_BITS - 1 - s + nb] << s
        g_after &= _GHR_MASK
        # Per load: GHR after the most recent earlier branch.
        before = np.searchsorted(branch_pos, self.load_idx)
        ghr = np.zeros(self.n_loads, dtype=np.int64)
        has_prior = before > 0
        ghr[has_prior] = g_after[before[has_prior] - 1]
        self._ghr = ghr
        self._final_ghr = int(g_after[-1]) if nb else 0

    @property
    def ghr_at_load(self) -> np.ndarray:
        """GHR value each load's ``predict`` call observes."""
        if self._ghr is None:
            self._build_ghr()
        return self._ghr  # type: ignore[return-value]

    @property
    def final_ghr(self) -> int:
        """GHR value after the whole batch (committed to the predictor)."""
        if self._final_ghr is None:
            self._build_ghr()
        return self._final_ghr  # type: ignore[return-value]

    def _build_path(self) -> None:
        call_pos = np.flatnonzero(self.tag == 2)
        call_ip = self.ip[call_pos]
        nc = len(call_ip)
        # Path hash after call j over the last PATH_DEPTH call ips:
        # value = ((value << 3) ^ (ip >> 2)) & mask, oldest first.
        mask = np.int64((1 << _PATH_HASH_BITS) - 1)
        x = call_ip >> 2
        h = np.zeros(nc, dtype=np.int64)
        for back in range(PATH_DEPTH - 1, -1, -1):
            contrib = np.zeros(nc, dtype=np.int64)
            if nc > back:
                contrib[back:] = x[: nc - back] if back else x
            h = ((h << 3) ^ contrib) & mask
        self._path_hash = h
        tail = call_ip[-PATH_DEPTH:] if nc else call_ip
        self._final_path = [int(v) for v in tail]

    def path_hash_at_load(self) -> np.ndarray:
        """Call-path hash each load observes (0 before the first call)."""
        if self._path_hash is None:
            self._build_path()
        call_pos = np.flatnonzero(self.tag == 2)
        before = np.searchsorted(call_pos, self.load_idx)
        out = np.zeros(self.n_loads, dtype=np.int64)
        has_prior = before > 0
        assert self._path_hash is not None
        out[has_prior] = self._path_hash[before[has_prior] - 1]
        return out

    @property
    def final_path(self) -> list:
        """Call path (last ``PATH_DEPTH`` call ips) after the batch."""
        if self._final_path is None:
            self._build_path()
        return list(self._final_path)  # type: ignore[arg-type]

    def commit_control_flow(self, predictor) -> None:
        """Write the end-of-batch GHR and call path into ``predictor``."""
        predictor.ghr = self.final_ghr
        predictor.call_path = self.final_path
