"""Dataflow out-of-order timing model.

A single-pass scheduler over the dynamic trace: every instruction
dispatches no earlier than its fetch cycle (bounded by width, window
occupancy and branch redirects) and completes when its register and memory
inputs are ready plus its latency.  This is the classic trace-driven
"dataflow limit with structural constraints" model — deliberately simpler
than the authors' proprietary simulator, but it captures the two effects
address prediction trades in: hidden load latency on correct speculative
accesses and recovery cost on wrong ones (see DESIGN.md).

Address prediction enters as a per-load outcome column: a predictor's
outcome does not depend on timing, so the predictor runs first (kernels
or the scalar loop, :func:`repro.eval.runner.load_outcomes`) and this
model only schedules its effect on each load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..isa.instructions import NUM_REGISTERS
from ..pipeline.branch import BranchPredictor
from ..trace.event import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_JUMP,
    KIND_LOAD,
    KIND_RET,
    KIND_STORE,
)
from ..trace.trace import Trace
from .cache import CacheHierarchy
from .machine import MachineConfig

__all__ = ["TimingResult", "simulate", "speedup"]


@dataclass
class TimingResult:
    """Outcome of one timing-model run."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    speculative_correct: int = 0
    speculative_wrong: int = 0
    branch_mispredicts: int = 0
    l1_hit_rate: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Retired instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def __str__(self) -> str:
        return (
            f"{self.instructions} instr in {self.cycles} cycles"
            f" (IPC {self.ipc:.2f})"
        )


def simulate(
    trace: Trace,
    outcomes: Optional[Sequence[int]] = None,
    config: Optional[MachineConfig] = None,
    prefetcher=None,
) -> TimingResult:
    """Run the timing model over ``trace``.

    ``outcomes`` is a per-load int8 column in program order over the
    trace's loads and returns (the ``tag == 1`` rows of
    :meth:`~repro.trace.trace.Trace.predictor_columns`): +1 for a correct
    speculative access, which hides ``config.prediction_lead`` cycles of
    the load's latency; -1 for a wrong one, which pays
    ``config.recovery_penalty`` extra; 0 for none.  ``None`` simulates no
    address prediction.  With ``prefetcher`` given (see
    :mod:`repro.timing.prefetch`), every load also trains it and
    prefetches land in the cache hierarchy.
    """
    cfg = config or MachineConfig()
    outcome_of = None
    if outcomes is not None:
        column = np.asarray(outcomes, dtype=np.int8)
        expected = trace.predictor_columns().loads
        if len(column) != expected:
            raise ValueError(
                f"outcome column has {len(column)} entries but trace"
                f" {trace.name!r} has {expected} loads"
            )
        outcome_of = column.tolist()
    caches = CacheHierarchy(
        l1_latency=cfg.l1_latency,
        l2_latency=cfg.l2_latency,
        memory_latency=cfg.memory_latency,
    )
    branch_predictor = BranchPredictor()
    result = TimingResult(instructions=len(trace))

    ready = [0] * NUM_REGISTERS          # register availability (cycle)
    store_avail: dict = {}               # word address -> data-ready cycle
    window = deque()                     # completion cycles, program order
    cycle = 0                            # current fetch/dispatch cycle
    issued = 0                           # instructions issued this cycle
    mem_issued = 0                       # memory ops issued this cycle
    alu_latency = cfg.alu_latency
    memory_ports = cfg.memory_ports
    _MEMORY_KINDS = (KIND_LOAD, KIND_RET, KIND_STORE, KIND_CALL)

    kinds = trace.kind
    ips = trace.ip
    addrs = trace.addr
    dsts = trace.dst
    src1s = trace.src1
    src2s = trace.src2
    takens = trace.taken

    loads = correct = wrong = 0
    lead = cfg.prediction_lead
    penalty = cfg.recovery_penalty

    for i in range(len(kinds)):
        kind = kinds[i]
        is_memory_op = kind in _MEMORY_KINDS

        # -- structural constraints: width, ports, window ----------------
        if issued >= cfg.width or (is_memory_op and mem_issued >= memory_ports):
            cycle += 1
            issued = 0
            mem_issued = 0
        if len(window) >= cfg.window:
            oldest = window.popleft()
            if oldest > cycle:
                cycle = oldest
                issued = 0
                mem_issued = 0
        issued += 1
        if is_memory_op:
            mem_issued += 1
        operands = cycle
        s1 = src1s[i]
        if s1 >= 0 and ready[s1] > operands:
            operands = ready[s1]
        s2 = src2s[i]
        if s2 >= 0 and ready[s2] > operands:
            operands = ready[s2]

        if kind == KIND_LOAD or kind == KIND_RET:
            addr = addrs[i]
            forwarded = store_avail.get(addr)
            if forwarded is not None and forwarded > operands:
                operands = forwarded
            latency = caches.access(addr)
            if prefetcher is not None:
                prefetcher.observe(ips[i], addr, caches)
            if outcome_of is not None:
                outcome = outcome_of[loads]
                if outcome > 0:
                    correct += 1
                    latency = max(1, latency - lead)
                elif outcome < 0:
                    wrong += 1
                    latency += penalty
            loads += 1
            completion = operands + latency
            dst = dsts[i]
            if dst >= 0:
                ready[dst] = completion
        elif kind == KIND_STORE or kind == KIND_CALL:
            completion = operands + alu_latency
            store_avail[addrs[i]] = completion
            dst = dsts[i]
            if dst >= 0:
                ready[dst] = completion
        elif kind == KIND_BRANCH:
            completion = operands + alu_latency
            if not branch_predictor.update(ips[i], bool(takens[i])):
                result.branch_mispredicts += 1
                # Redirect: fetch resumes after resolution plus penalty.
                redirect = completion + cfg.branch_penalty
                if redirect > cycle:
                    cycle = redirect
                    issued = 0
                    mem_issued = 0
        elif kind == KIND_JUMP:
            completion = operands + alu_latency
        else:  # ALU
            completion = operands + alu_latency
            dst = dsts[i]
            if dst >= 0:
                ready[dst] = completion

        window.append(completion)

    # Drain: the last instruction's retirement bounds total cycles.
    final = max(window) if window else cycle
    result.cycles = max(cycle, final)
    result.loads = loads
    result.speculative_correct = correct
    result.speculative_wrong = wrong
    result.l1_hit_rate = caches.l1.hit_rate
    result.meta = {
        "branch_accuracy": branch_predictor.accuracy,
        "l2_hit_rate": caches.l2.hit_rate,
    }
    return result


def speedup(baseline: TimingResult, improved: TimingResult) -> float:
    """Cycle-count ratio: how much faster ``improved`` is."""
    if improved.cycles == 0:
        raise ValueError("improved run has zero cycles")
    return baseline.cycles / improved.cycles
