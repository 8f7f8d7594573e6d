"""Adversarial trace fuzzing for the differential harness.

Each *profile* generates a synthetic predictor-visible event stream aimed
at a specific failure hypothesis:

``aliasing``
    Load IPs spaced to collide in the small Load Buffer sets and data
    addresses drawn from a tiny pool, so LB evictions, LT tag mismatches
    and PF-filter churn all fire constantly.
``rds_walk``
    Recurring-data-structure walks (Section 2.2): cyclic address sequences
    per static load with occasional perturbations — CAP's home turf, and
    where history/LT update ordering bugs surface.
``history_edge``
    Addresses that differ only in high bits, so only the xor-fold keeps
    their histories apart, plus long same-address runs that saturate the
    shift-out of the history register.
``offset_wrap``
    Offsets and address low bytes near the 8-bit boundary, stressing the
    truncated-adder base/address reconstruction.
``branch_churn``
    Dense branch/call/return traffic churning the GHR, so CFI patterns
    record, block and redeem continuously.
``generation_churn``
    Loads hammering a single Load Buffer set so entries are evicted and
    re-inserted repeatedly — each re-insertion starts a new *generation*
    in the batch kernels' grouped solver, which must match the scalar
    LRU replacement exactly (way choice, LRU stamps, eviction counts).
``mixed``
    A bit of everything, including repeated subsequences.

Each case also draws a random *backend* (``python``/``numpy``), so the
three-way replay alternates between running and skipping the kernel lane —
any divergence between a kernelised case and its scalar twin shows up as
a columns-vs-vectorized mismatch.

When a case diverges it is shrunk with a ddmin-style pass to a minimal
event list that still reproduces the divergence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .differential import Divergence, fuzz_variant_names, verify_events

__all__ = [
    "PROFILES",
    "FuzzFailure",
    "generate_events",
    "run_fuzz",
    "shrink_events",
]

Events = List[List[int]]

_IP_BASE = 0x4000
#: Stride between IPs that land in the same set of a 64-entry 2-way LB
#: (32 sets, 4-byte aligned IPs).
_SET_ALIAS_STRIDE = 4 * 32


def _load(ip: int, addr: int, offset: int) -> List[int]:
    return [1, ip, addr & 0xFFFFFFFF, offset]


def _branch(ip: int, taken: bool) -> List[int]:
    return [0, ip, 1 if taken else 0, 0]


def _gen_aliasing(rng: random.Random, count: int) -> Events:
    ips = [
        _IP_BASE + way * _SET_ALIAS_STRIDE + slot * 4
        for way in range(rng.randint(3, 6))
        for slot in range(2)
    ]
    addresses = [rng.randrange(0, 1 << 20) * 4 for _ in range(6)]
    events: Events = []
    while len(events) < count:
        ip = rng.choice(ips)
        addr = rng.choice(addresses) + rng.choice((0, 4, 8))
        events.append(_load(ip, addr, rng.choice((0, 8, 16))))
        if rng.random() < 0.2:
            events.append(_branch(_IP_BASE - 4, rng.random() < 0.5))
    return events


def _gen_rds_walk(rng: random.Random, count: int) -> Events:
    walks = {}
    for slot in range(rng.randint(2, 4)):
        ip = _IP_BASE + slot * 4
        nodes = [
            0x10000 + slot * 0x1000 + rng.randrange(0, 64) * 16
            for _ in range(rng.randint(3, 8))
        ]
        walks[ip] = (nodes, rng.randrange(0, 32))
    events: Events = []
    positions = {ip: 0 for ip in walks}
    while len(events) < count:
        ip = rng.choice(list(walks))
        nodes, offset = walks[ip]
        addr = nodes[positions[ip] % len(nodes)]
        positions[ip] += 1
        if rng.random() < 0.08:
            addr ^= 0x40  # a node was reallocated: perturb one walk step
        events.append(_load(ip, addr + offset, offset))
        if rng.random() < 0.25:
            events.append(_branch(_IP_BASE + 0x100, rng.random() < 0.7))
    return events


def _gen_history_edge(rng: random.Random, count: int) -> Events:
    ip = _IP_BASE
    low = rng.randrange(0, 256) * 4
    events: Events = []
    while len(events) < count:
        mode = rng.random()
        if mode < 0.4:
            # Same low bits, different address-space segments: only the
            # xor-fold of the MSBs separates these histories.
            addr = low | (rng.choice((1, 2, 3)) << 28)
        elif mode < 0.7:
            addr = low  # long identical runs age the history to a fixpoint
        else:
            addr = rng.randrange(0, 1 << 30)
        events.append(_load(ip, addr, 0))
    return events


def _gen_offset_wrap(rng: random.Random, count: int) -> Events:
    ips = [_IP_BASE + slot * 4 for slot in range(4)]
    events: Events = []
    while len(events) < count:
        ip = rng.choice(ips)
        # Offsets straddling the recorded 8 (or fewer) offset bits, and
        # address low bytes near the truncated-adder carry boundary.
        offset = rng.choice((0, 1, 127, 128, 240, 255, 256, 260, 4095))
        base = rng.randrange(0, 1 << 16) << 8
        addr = base + rng.choice((0, 1, 254, 255)) + (offset & 0xFF)
        events.append(_load(ip, addr, offset))
    return events


def _gen_branch_churn(rng: random.Random, count: int) -> Events:
    load_ips = [_IP_BASE + slot * 4 for slot in range(3)]
    addresses = [0x20000 + slot * 64 for slot in range(4)]
    events: Events = []
    while len(events) < count:
        burst = rng.randint(1, 6)
        for _ in range(burst):
            events.append(
                _branch(_IP_BASE + 0x200 + rng.randrange(4) * 4,
                        rng.random() < 0.5)
            )
        if rng.random() < 0.15:
            events.append([2, _IP_BASE + 0x300, 0, 0])   # call
        if rng.random() < 0.15:
            # A return loads its return address, then pops the call path.
            events.append(_load(_IP_BASE + 0x304, rng.choice(addresses), 0))
            events.append([3, _IP_BASE + 0x304, 0, 0])
        ip = rng.choice(load_ips)
        events.append(_load(ip, rng.choice(addresses), 8))
    return events


def _gen_generation_churn(rng: random.Random, count: int) -> Events:
    # More same-set IPs than any variant has ways (the widest LB in the
    # registry is 4-way), so residency is a revolving door: every IP is
    # evicted and re-inserted many times over a 300-event case.
    ips = [
        _IP_BASE + way * _SET_ALIAS_STRIDE
        for way in range(rng.randint(5, 9))
    ]
    # Per-IP address behaviour: some stride, some repeat, some wander —
    # re-insertion must restart confidence/history from scratch either way.
    behaviours = {
        ip: rng.choice(("stride", "repeat", "wander")) for ip in ips
    }
    cursors = {ip: 0x30000 + index * 0x800 for index, ip in enumerate(ips)}
    events: Events = []
    while len(events) < count:
        if rng.random() < 0.7:
            ip = rng.choice(ips)
        else:
            # A hot favourite raises hit runs between its own evictions.
            ip = ips[0]
        behaviour = behaviours[ip]
        if behaviour == "stride":
            cursors[ip] += 16
            addr = cursors[ip]
        elif behaviour == "repeat":
            addr = cursors[ip]
        else:
            addr = cursors[ip] + rng.randrange(0, 64) * 8
        events.append(_load(ip, addr, rng.choice((0, 8))))
        if rng.random() < 0.1:
            events.append(_branch(_IP_BASE - 8, rng.random() < 0.5))
    return events


def _gen_mixed(rng: random.Random, count: int) -> Events:
    parts: Events = []
    generators = [
        _gen_aliasing, _gen_rds_walk, _gen_history_edge,
        _gen_offset_wrap, _gen_branch_churn, _gen_generation_churn,
    ]
    while len(parts) < count:
        chunk = rng.choice(generators)(rng, rng.randint(10, 40))
        parts.extend(chunk)
        if parts and rng.random() < 0.3:
            start = rng.randrange(len(parts))
            parts.extend(parts[start:start + rng.randint(2, 12)])
    return parts[:count]


PROFILES: Dict[str, Callable[[random.Random, int], Events]] = {
    "aliasing": _gen_aliasing,
    "rds_walk": _gen_rds_walk,
    "history_edge": _gen_history_edge,
    "offset_wrap": _gen_offset_wrap,
    "branch_churn": _gen_branch_churn,
    "generation_churn": _gen_generation_churn,
    "mixed": _gen_mixed,
}


def generate_events(
    profile: str, seed: int, count: int = 300
) -> Events:
    """Deterministically generate one fuzz trace."""
    return PROFILES[profile](random.Random(seed), count)


# ---------------------------------------------------------------------------
# Shrinking.
# ---------------------------------------------------------------------------


def shrink_events(
    events: Events,
    still_fails: Callable[[Events], bool],
    max_checks: int = 2000,
) -> Events:
    """ddmin-style minimisation: remove event chunks while the failure holds.

    Starts by deleting large complements and refines the granularity down
    to single events; terminates when no single event can be removed (or
    the check budget runs out).
    """
    current = list(events)
    chunks = 2
    checks = 0
    while len(current) >= 2 and checks < max_checks:
        size = max(1, len(current) // chunks)
        reduced = False
        start = 0
        while start < len(current) and checks < max_checks:
            candidate = current[:start] + current[start + size:]
            checks += 1
            if candidate and still_fails(candidate):
                current = candidate
                reduced = True
                # Same start again: the next chunk slid into this position.
            else:
                start += size
        if reduced:
            chunks = max(chunks - 1, 2)
        elif size == 1:
            break
        else:
            chunks = min(chunks * 2, len(current))
    return current


# ---------------------------------------------------------------------------
# The fuzz loop.
# ---------------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """A diverging fuzz case, minimised."""

    variant: str
    profile: str
    case_seed: int
    events: Events
    divergence: Divergence
    backend: str = "numpy"

    def describe(self) -> str:
        return (
            f"variant={self.variant} profile={self.profile}"
            f" seed={self.case_seed} backend={self.backend}"
            f" events={len(self.events)}\n"
            + self.divergence.format()
        )


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    events_per_case: int = 300,
    variants: Optional[Sequence[str]] = None,
    max_failures: int = 5,
    progress: Optional[Callable[[int, int], None]] = None,
    backends: Optional[Sequence[str]] = None,
) -> List[FuzzFailure]:
    """Run ``cases`` differential fuzz cases; return minimised failures.

    Fully deterministic in ``seed``: case ``i`` derives its own sub-seed,
    variant, profile and backend from the master stream, so one failing
    case can be reproduced independently of the rest of the run.  The
    backend draw alternates the replay between two-way (scalar only)
    and three-way (kernel lane live) so the two dispatch paths are both
    fuzzed; pass ``backends=("numpy",)`` to pin the kernel lane on.
    """
    master = random.Random(seed)
    names = list(variants) if variants else fuzz_variant_names()
    profile_names = list(PROFILES)
    lanes = list(backends) if backends else ["numpy", "numpy", "python"]
    failures: List[FuzzFailure] = []
    for case_index in range(cases):
        case_seed = master.randrange(1 << 30)
        backend = master.choice(lanes)
        variant = names[case_index % len(names)]
        profile = profile_names[(case_index // len(names)) % len(profile_names)]
        events = generate_events(profile, case_seed, events_per_case)
        divergence = verify_events(variant, events, backend=backend)
        if progress is not None:
            progress(case_index + 1, cases)
        if divergence is None:
            continue
        minimal = shrink_events(
            events,
            lambda candidate: verify_events(
                variant, candidate, backend=backend
            ) is not None,
        )
        final = verify_events(variant, minimal, backend=backend) or divergence
        failures.append(
            FuzzFailure(
                variant=variant,
                profile=profile,
                case_seed=case_seed,
                events=minimal,
                divergence=final,
                backend=backend,
            )
        )
        if len(failures) >= max_failures:
            break
    return failures
