"""Differential engine: replay one trace through three implementations.

For a given *variant* (a named predictor configuration) the engine runs the
same predictor-visible event stream through

1. the spec oracle (:mod:`repro.verify.oracle`), entering through
   :func:`repro.eval.runner.run_on_stream` so tuple packing stays covered,
2. the production predictor via :func:`repro.eval.runner.run_on_columns`
   (the scalar loop: the recording observer declines the kernels), and
3. the batch-kernel path (:func:`repro.kernels.run_batch`) when the
   variant's predictor supports it and the numpy backend is selected,

and requires all of them to be bit-identical: every per-access prediction
(address, speculative flag, source component), the final metrics counters,
the final Link Table contents, and the final per-load confidence state.
The first divergence is reported with the state each path had at the
moment the diverging prediction was made.

The vectorized lane is allowed to *decline* — a kernel raising
:class:`~repro.kernels.BatchFallback` (set-associative Link Table, the
``unless_stride_selected`` policy) or a forced ``python`` backend simply
drops the third lane, because that is exactly what the production
dispatch does.  Lane absence is reported to callers via
:func:`vectorized_lane_ran` so smoke jobs can assert the lane actually
executed where it should.

Variants use deliberately *small* geometries — a 64-entry Load Buffer and
a few-hundred-entry Link Table alias orders of magnitude sooner than the
paper's 4K-entry structures, which is exactly where update-ordering bugs
hide, and three-way replay of fuzzed traces stays cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..eval.metrics import PredictorMetrics
from ..eval.runner import _columns_of, run_on_columns, run_on_stream
from ..predictors.base import AddressPredictor
from ..predictors.cap import CAPConfig, CAPPredictor
from ..predictors.hybrid import HybridConfig, HybridPredictor
from ..predictors.link_table import LinkTableConfig
from ..predictors.stride import StrideConfig, StridePredictor
from .oracle import SpecCAP, SpecHybrid, SpecStride

__all__ = [
    "VARIANTS",
    "VariantSpec",
    "Divergence",
    "verify_events",
    "vectorized_lane_ran",
    "fuzz_variant_names",
]

Events = Sequence[Sequence[int]]

#: What the observer captures per dynamic load.  The prediction-time GHR is
#: deliberately absent: it is bookkeeping for delayed training, not an
#: architectural output (the production stride predictor leaves it 0 on a
#: Load Buffer miss while CAP snapshots it — both are correct because it is
#: never read on that path).
AccessRecord = Tuple[int, int, int, Optional[int], bool, str]

_RECORD_FIELDS = ("ip", "offset", "actual", "address", "speculative", "source")


# ---------------------------------------------------------------------------
# Variant registry: production builder + oracle builder from one config.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSpec:
    """One named predictor configuration under differential test."""

    name: str
    description: str
    production: Callable[[], AddressPredictor]
    oracle: Callable[[], object]
    #: Whether the fuzzer should include this variant by default.
    fuzzed: bool = True


def _cap_oracle_kwargs(cfg: CAPConfig) -> dict:
    return dict(
        lt_entries=cfg.lt.entries,
        lt_ways=cfg.lt.ways,
        tag_bits=cfg.lt.tag_bits,
        pf_bits=cfg.lt.pf_bits,
        pf_low_bit=cfg.lt.pf_low_bit,
        pf_decoupled=cfg.lt.pf_decoupled,
        pf_table_entries=cfg.lt.pf_table_entries,
        history_length=cfg.history_length,
        offset_bits=cfg.offset_bits,
        correlation=cfg.correlation,
        confidence_threshold=cfg.confidence_threshold,
        confidence_max=cfg.confidence_max,
        hysteresis=cfg.hysteresis,
        cfi_mode=cfg.cfi_mode,
        cfi_bits=cfg.cfi_bits,
        drop_low_bits=cfg.drop_low_bits,
    )


def _stride_oracle_kwargs(cfg: StrideConfig) -> dict:
    return dict(
        confidence_threshold=cfg.confidence_threshold,
        confidence_max=cfg.confidence_max,
        hysteresis=cfg.hysteresis,
        two_delta=cfg.two_delta,
        cfi_mode=cfg.cfi_mode,
        cfi_bits=cfg.cfi_bits,
        use_interval=cfg.use_interval,
    )


def _cap_variant(name: str, description: str, cfg: CAPConfig) -> VariantSpec:
    return VariantSpec(
        name,
        description,
        production=lambda: CAPPredictor(cfg),
        oracle=lambda: SpecCAP(
            lb_entries=cfg.lb_entries,
            lb_ways=cfg.lb_ways,
            **_cap_oracle_kwargs(cfg),
        ),
    )


def _stride_variant(
    name: str, description: str, cfg: StrideConfig
) -> VariantSpec:
    return VariantSpec(
        name,
        description,
        production=lambda: StridePredictor(cfg),
        oracle=lambda: SpecStride(
            entries=cfg.entries, ways=cfg.ways, **_stride_oracle_kwargs(cfg)
        ),
    )


def _hybrid_variant(
    name: str, description: str, cfg: HybridConfig
) -> VariantSpec:
    return VariantSpec(
        name,
        description,
        production=lambda: HybridPredictor(cfg),
        oracle=lambda: SpecHybrid(
            lb_entries=cfg.lb_entries,
            lb_ways=cfg.lb_ways,
            selector_bits=cfg.selector_bits,
            selector_init=cfg.selector_init,
            static_selector=cfg.static_selector,
            lt_update_policy=cfg.lt_update_policy,
            cap_kwargs=_cap_oracle_kwargs(cfg.cap),
            stride_kwargs=_stride_oracle_kwargs(cfg.stride),
        ),
    )


def _small_cap(**overrides) -> CAPConfig:
    lt = overrides.pop(
        "lt", LinkTableConfig(entries=256, ways=1, tag_bits=8, pf_bits=2)
    )
    params = dict(lb_entries=64, lb_ways=2, lt=lt)
    params.update(overrides)
    return CAPConfig(**params)


_SPECS = [
    _cap_variant(
        "cap",
        "baseline CAP scaled down (64x2 LB, 256-entry LT, 8-bit tags)",
        _small_cap(),
    ),
    _cap_variant(
        "cap-assoc",
        "2-way LT, paths CFI, hysteresis, raised confidence ceiling",
        _small_cap(
            lt=LinkTableConfig(entries=128, ways=2, tag_bits=4, pf_bits=4),
            cfi_mode="paths",
            cfi_bits=3,
            hysteresis=True,
            confidence_max=3,
        ),
    ),
    _cap_variant(
        "cap-delta",
        "delta correlation, untagged direct-mapped LT, no PF bits",
        _small_cap(
            lt=LinkTableConfig(entries=256, ways=1, tag_bits=0, pf_bits=0),
            correlation="delta",
            cfi_mode="off",
        ),
    ),
    _cap_variant(
        "cap-real",
        "real-address correlation (no base-address arithmetic)",
        _small_cap(
            lt=LinkTableConfig(entries=128, ways=1, tag_bits=6, pf_bits=2),
            correlation="real",
        ),
    ),
    _cap_variant(
        "cap-pf-decoupled",
        "decoupled PF side table",
        _small_cap(
            lt=LinkTableConfig(
                entries=128, ways=1, tag_bits=6, pf_bits=3,
                pf_decoupled=True, pf_table_entries=512,
            ),
        ),
    ),
    _cap_variant(
        "cap-short-history",
        "8-bit history (64-entry LT, 2-bit tags), length 8 => shift 1",
        _small_cap(
            lt=LinkTableConfig(entries=64, ways=1, tag_bits=2, pf_bits=2),
            history_length=8,
            offset_bits=4,
        ),
    ),
    _stride_variant(
        "stride",
        "enhanced stride (CFI + interval) scaled down",
        StrideConfig(entries=64, ways=2),
    ),
    _stride_variant(
        "basic-stride",
        "plain two-delta stride",
        StrideConfig.basic(entries=64, ways=2),
    ),
    _hybrid_variant(
        "hybrid",
        "shared-LB hybrid, always-update LT policy",
        HybridConfig(lb_entries=64, lb_ways=2, cap=_small_cap()),
    ),
    _hybrid_variant(
        "hybrid-stride-correct",
        "hybrid with the unless-stride-correct LT policy",
        HybridConfig(
            lb_entries=64, lb_ways=2, cap=_small_cap(),
            lt_update_policy="unless_stride_correct",
        ),
    ),
    _hybrid_variant(
        "hybrid-stride-selected",
        "hybrid with the unless-stride-selected LT policy, 3-bit selector",
        HybridConfig(
            lb_entries=64, lb_ways=2, cap=_small_cap(),
            lt_update_policy="unless_stride_selected",
            selector_bits=3, selector_init=4,
        ),
    ),
]

#: name -> :class:`VariantSpec`
VARIANTS: Dict[str, VariantSpec] = {spec.name: spec for spec in _SPECS}


def fuzz_variant_names() -> List[str]:
    """Variants the fuzzer rotates through by default."""
    return [spec.name for spec in VARIANTS.values() if spec.fuzzed]


# ---------------------------------------------------------------------------
# State extraction (works on production predictors and oracles alike).
# ---------------------------------------------------------------------------


def _lt_dump(predictor) -> list:
    if isinstance(predictor, CAPPredictor):
        return predictor.component.link_table.dump()
    if isinstance(predictor, HybridPredictor):
        return predictor.cap.link_table.dump()
    if isinstance(predictor, StridePredictor):
        return []
    return predictor.lt_dump()  # oracle


def _confidence_dump(predictor) -> Dict[int, tuple]:
    if isinstance(predictor, CAPPredictor):
        return {
            key: (state.confidence.value,)
            for key, state in predictor.load_buffer
        }
    if isinstance(predictor, StridePredictor):
        return {
            key: (state.confidence.value,) for key, state in predictor.table
        }
    if isinstance(predictor, HybridPredictor):
        return {
            key: (
                entry.cap.confidence.value,
                entry.stride.confidence.value,
                entry.selector.value,
            )
            for key, entry in predictor.load_buffer
        }
    return predictor.confidence_dump()  # oracle


def _metrics_tuple(metrics: PredictorMetrics) -> tuple:
    return (
        metrics.loads,
        metrics.predictions,
        metrics.correct_predictions,
        metrics.speculative,
        metrics.correct_speculative,
    )


# ---------------------------------------------------------------------------
# Replay plumbing.
# ---------------------------------------------------------------------------


def _recording_observer(records: List[AccessRecord]) -> Callable:
    def observe(ip: int, offset: int, actual: int, prediction) -> None:
        records.append(
            (
                ip,
                offset,
                actual,
                prediction.address,
                bool(prediction.speculative),
                prediction.source,
            )
        )

    return observe


def _vectorized_lane(
    spec: VariantSpec,
    events: Events,
    warmup_loads: int,
    backend: Optional[str],
) -> Optional[tuple]:
    """Run the batch-kernel lane; ``None`` when the lane does not apply.

    Mirrors the production dispatch in :func:`repro.kernels.try_run_batch`:
    the lane is skipped when the backend resolves to ``python``, when the
    variant's predictor has no kernels, or when the kernel declines with
    :class:`~repro.kernels.BatchFallback`.  Returns ``(records, metrics,
    predictor)`` on success, with the predictor holding end-of-stream
    state for the architectural comparisons.
    """
    from ..kernels import (
        BACKEND_NUMPY,
        batch_records,
        fold_metrics,
        resolve_backend,
        run_batch,
        supports_batch,
    )

    if (backend or resolve_backend()) != BACKEND_NUMPY:
        return None
    subject = spec.production()
    if not supports_batch(subject):
        return None
    stream = _columns_of(events)
    result = run_batch(subject, stream)
    if result is None:
        return None
    metrics = PredictorMetrics()
    fold_metrics(result, metrics, warmup_loads)
    metrics.backend = BACKEND_NUMPY
    return batch_records(result, stream), metrics, subject


def vectorized_lane_ran(
    variant_name: str,
    events: Events,
    backend: Optional[str] = None,
) -> bool:
    """Whether the three-way replay's kernel lane executes for this input.

    Used by parity smoke jobs to assert the third lane is live (a replay
    where every kernel silently declined would vacuously "pass").
    """
    spec = VARIANTS[variant_name]
    return _vectorized_lane(spec, events, 0, backend) is not None


class _StopReplay(Exception):
    pass


def _state_at(
    build: Callable[[], object], events: Events, access_index: int
) -> dict:
    """Replay until the given dynamic load's prediction and dump state.

    The dump reflects the tables exactly as the diverging prediction saw
    them (its own lookup included, none of its training applied).
    """
    subject = build()
    seen = [0]

    def observe(ip, offset, actual, prediction) -> None:
        if seen[0] == access_index:
            raise _StopReplay
        seen[0] += 1

    try:
        run_on_stream(subject, events, PredictorMetrics(), observer=observe)
    except _StopReplay:
        pass
    return {
        "link_table": sorted(_lt_dump(subject)),
        "confidence": sorted(_confidence_dump(subject).items()),
    }


# ---------------------------------------------------------------------------
# Divergence reporting.
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """First observed disagreement between two replay paths."""

    variant: str
    kind: str            # "access" | "metrics" | "link_table" | "confidence"
    paths: str           # e.g. "oracle vs columns"
    access_index: Optional[int]
    detail: str
    state_dumps: Dict[str, dict]

    def format(self, state_lines: int = 12) -> str:
        lines = [
            f"DIVERGENCE in variant {self.variant!r}: {self.paths}",
            f"  kind: {self.kind}"
            + (
                f", dynamic load #{self.access_index}"
                if self.access_index is not None
                else ""
            ),
            f"  {self.detail}",
        ]
        for path, dump in self.state_dumps.items():
            lines.append(f"  state[{path}]:")
            for section, content in dump.items():
                shown = content[:state_lines]
                suffix = (
                    f" ... (+{len(content) - state_lines} more)"
                    if len(content) > state_lines
                    else ""
                )
                lines.append(f"    {section}: {shown}{suffix}")
        return "\n".join(lines)


def _describe_record(record: AccessRecord) -> str:
    return ", ".join(
        f"{field}={value:#x}" if isinstance(value, int) and field != "actual"
        else f"{field}={value}"
        for field, value in zip(_RECORD_FIELDS, record)
    )


def _first_record_divergence(
    variant: str,
    events: Events,
    label_a: str,
    records_a: List[AccessRecord],
    build_a: Callable[[], object],
    label_b: str,
    records_b: List[AccessRecord],
    build_b: Callable[[], object],
) -> Optional[Divergence]:
    for index, (rec_a, rec_b) in enumerate(zip(records_a, records_b)):
        if rec_a != rec_b:
            fields = [
                f"{field}: {label_a}={a!r} {label_b}={b!r}"
                for field, a, b in zip(_RECORD_FIELDS, rec_a, rec_b)
                if a != b
            ]
            return Divergence(
                variant=variant,
                kind="access",
                paths=f"{label_a} vs {label_b}",
                access_index=index,
                detail="; ".join(fields)
                + f" | {label_a}: {_describe_record(rec_a)}",
                state_dumps={
                    label_a: _state_at(build_a, events, index),
                    label_b: _state_at(build_b, events, index),
                },
            )
    if len(records_a) != len(records_b):
        return Divergence(
            variant=variant,
            kind="access",
            paths=f"{label_a} vs {label_b}",
            access_index=min(len(records_a), len(records_b)),
            detail=(
                f"load counts differ: {label_a} saw {len(records_a)},"
                f" {label_b} saw {len(records_b)}"
            ),
            state_dumps={},
        )
    return None


def verify_events(
    variant_name: str,
    events: Events,
    warmup_loads: int = 0,
    backend: Optional[str] = None,
) -> Optional[Divergence]:
    """Replay ``events`` through all three paths; None means bit-identical.

    ``events`` follows the predictor-stream convention: ``(tag, ip, a, b)``
    rows with tag 1 = load (a=address, b=offset), 0 = branch (a=taken),
    2 = call, 3 = return.  ``backend`` forces the kernel lane on
    (``"numpy"``) or off (``"python"``); by default it follows the same
    ``REPRO_BACKEND`` selection the evaluation runs honour.
    """
    spec = VARIANTS[variant_name]

    oracle = spec.oracle()
    oracle_records: List[AccessRecord] = []
    oracle_metrics = run_on_stream(
        oracle, events, PredictorMetrics(), warmup_loads,
        observer=_recording_observer(oracle_records),
    )

    columnar = spec.production()
    column_records: List[AccessRecord] = []
    column_metrics = run_on_columns(
        columnar, _columns_of(events), PredictorMetrics(), warmup_loads,
        observer=_recording_observer(column_records),
    )

    vector = _vectorized_lane(spec, events, warmup_loads, backend)

    # Per-access behaviour, pairwise: the oracle diff localises predictor
    # bugs.  The oracle and columns lanes share the scalar loop, so only
    # the columns/vectorized pair sees a loop bug (or a kernel bug).
    pairs = [
        ("oracle", oracle_records, spec.oracle,
         "columns", column_records, spec.production),
    ]
    if vector is not None:
        vector_records, vector_metrics, vectorized = vector
        pairs.append(
            ("columns", column_records, spec.production,
             "vectorized", vector_records, spec.production)
        )
    for args in pairs:
        divergence = _first_record_divergence(variant_name, events, *args)
        if divergence is not None:
            return divergence

    # Final aggregate metrics.
    by_path = {
        "oracle": (oracle_metrics, oracle),
        "columns": (column_metrics, columnar),
    }
    if vector is not None:
        by_path["vectorized"] = (vector_metrics, vectorized)
    reference = _metrics_tuple(column_metrics)
    for path, (metrics, _) in by_path.items():
        if _metrics_tuple(metrics) != reference:
            return Divergence(
                variant=variant_name,
                kind="metrics",
                paths=f"columns vs {path}",
                access_index=None,
                detail=(
                    f"counters (loads, predictions, correct, speculative,"
                    f" correct_speculative): columns={reference}"
                    f" {path}={_metrics_tuple(metrics)}"
                ),
                state_dumps={},
            )

    # Final architectural state: Link Table contents and confidence values.
    reference_lt = sorted(_lt_dump(columnar))
    reference_conf = _confidence_dump(columnar)
    for path, (_, subject) in by_path.items():
        if path == "columns":
            continue
        lt = sorted(_lt_dump(subject))
        if lt != reference_lt:
            extra = [entry for entry in lt if entry not in reference_lt]
            missing = [entry for entry in reference_lt if entry not in lt]
            return Divergence(
                variant=variant_name,
                kind="link_table",
                paths=f"columns vs {path}",
                access_index=None,
                detail=(
                    f"final LT differs: only-in-{path}={extra[:6]}"
                    f" only-in-columns={missing[:6]}"
                ),
                state_dumps={},
            )
        conf = _confidence_dump(subject)
        if conf != reference_conf:
            keys = sorted(
                key
                for key in set(conf) | set(reference_conf)
                if conf.get(key) != reference_conf.get(key)
            )
            shown = {
                key: (reference_conf.get(key), conf.get(key))
                for key in keys[:6]
            }
            return Divergence(
                variant=variant_name,
                kind="confidence",
                paths=f"columns vs {path}",
                access_index=None,
                detail=f"final confidence differs (columns, {path}): {shown}",
                state_dumps={},
            )
    return None
