"""Property-based round-trips through the external-trace adapters.

Three layers of guarantee, each fuzzed with Hypothesis:

* **record level** — ``write`` then ``read`` reproduces the records a
  format can represent, and the writers are idempotent (canonical output
  re-renders byte-identically);
* **trace level** — ingesting a round-tripped file yields byte-identical
  ``ps_*`` predictor-stream columns, so every figure computed from an
  ingested trace is independent of how many times the file was copied
  through the adapters;
* **evaluation level** — a fig5-style cell (stride / CAP / hybrid
  metrics) is equal on the original and the round-tripped trace, and the
  ingested stream passes the three-way differential harness
  (:func:`repro.verify.differential.verify_events`).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import PredictorMetrics
from repro.eval.runner import run_predictor
from repro.ingest import IngestRecord, get_format, read_path, records_to_trace
from repro.ingest.records import KIND_FETCH, KIND_LOAD, KIND_STORE
from repro.verify.differential import VARIANTS, verify_events

GOLDEN = Path(__file__).parent / "ingest_fixtures" / "golden"

MAX_U64 = 2**64 - 1

addresses = st.integers(min_value=0, max_value=MAX_U64)

dram_records = st.lists(
    st.builds(
        IngestRecord,
        kind=st.sampled_from([KIND_LOAD, KIND_STORE, KIND_FETCH]),
        addr=addresses,
        pc=st.none(),          # the format cannot carry a PC
        size=st.just(4),       # or a size; pin the defaults the reader uses
        cycle=st.integers(min_value=0, max_value=10**9),
    ),
    min_size=1,
    max_size=60,
)

pin_records = st.lists(
    st.builds(
        IngestRecord,
        kind=st.sampled_from([KIND_LOAD, KIND_STORE]),
        addr=addresses,
        pc=st.one_of(st.none(), addresses),
        size=st.integers(min_value=1, max_value=64),
    ),
    min_size=1,
    max_size=60,
)


def _reread(format_name, records):
    adapter = get_format(format_name)
    return adapter.read(adapter.write(records))


def _ps_arrays(records, format_name):
    trace = records_to_trace(records, "fuzz", format_name=format_name)
    return trace.predictor_columns().arrays()


def _metric_tuple(metrics: PredictorMetrics) -> tuple:
    return (
        metrics.loads,
        metrics.predictions,
        metrics.correct_predictions,
        metrics.speculative,
        metrics.correct_speculative,
    )


# ---------------------------------------------------------------------------
# Record-level round-trips
# ---------------------------------------------------------------------------


@given(dram_records)
def test_dramsim_roundtrip_preserves_records(records):
    assert _reread("dramsim", records) == records


@given(pin_records)
def test_pincsv_roundtrip_preserves_representable_fields(records):
    rereads = _reread("pincsv", records)
    assert [(r.kind, r.addr, r.pc or 0, r.size) for r in rereads] == [
        (r.kind, r.addr, r.pc or 0, r.size) for r in records
    ]


@pytest.mark.parametrize("format_name, strategy",
                         [("dramsim", dram_records), ("pincsv", pin_records)])
@given(data=st.data())
def test_writers_are_idempotent(format_name, strategy, data):
    """write(read(write(r))) == write(r): one pass canonicalizes."""
    records = data.draw(strategy)
    adapter = get_format(format_name)
    once = adapter.write(records)
    assert adapter.write(adapter.read(once)) == once


# ---------------------------------------------------------------------------
# Trace-level round-trips: byte-identical ps_* columns
# ---------------------------------------------------------------------------


@given(dram_records)
def test_dramsim_roundtrip_ps_columns_identical(records):
    direct = _ps_arrays(records, "dramsim")
    rereads = _ps_arrays(_reread("dramsim", records), "dramsim")
    for a, b in zip(direct, rereads):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@given(pin_records)
def test_pincsv_roundtrip_ps_columns_identical(records):
    direct = _ps_arrays(records, "pincsv")
    rereads = _ps_arrays(_reread("pincsv", records), "pincsv")
    for a, b in zip(direct, rereads):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_transcode_dramsim_to_pincsv_keeps_memory_stream():
    """Cross-format transcode preserves the load/store reference stream."""
    _, records = read_path(GOLDEN / "stride.trc", "dramsim")
    refs = [r for r in records if r.kind != KIND_FETCH]
    transcoded = _reread("pincsv", refs)
    assert [(r.kind, r.addr) for r in transcoded] == [
        (r.kind, r.addr) for r in refs
    ]


# ---------------------------------------------------------------------------
# Evaluation-level: metrics and the differential harness
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=20)
@given(pin_records)
def test_fig5_cell_equal_after_roundtrip(records):
    """Stride/CAP/hybrid metrics match on original vs round-tripped trace."""
    original = records_to_trace(records, "fuzz", format_name="pincsv")
    rereads = records_to_trace(
        _reread("pincsv", records), "fuzz", format_name="pincsv"
    )
    for variant in ("stride", "cap", "hybrid"):
        a = run_predictor(VARIANTS[variant].production(), original)
        b = run_predictor(VARIANTS[variant].production(), rereads)
        assert _metric_tuple(a) == _metric_tuple(b)


@settings(deadline=None, max_examples=15)
@given(
    addrs=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=1,
        max_size=40,
    ),
    variant=st.sampled_from(["stride", "cap", "hybrid"]),
)
def test_ingested_stream_passes_differential(addrs, variant):
    """The three-way differential harness accepts ingested event streams."""
    text = "".join(f"0x{a:x} READ {i * 10}\n" for i, a in enumerate(addrs))
    records = get_format("dramsim").read(text.encode())
    trace = records_to_trace(records, "fuzz", format_name="dramsim")
    assert verify_events(variant, trace.predictor_stream()) is None


@pytest.mark.parametrize("fixture, format_name",
                         [("stride.trc", "dramsim"), ("mixed.csv", "pincsv")])
def test_golden_fixture_passes_differential(fixture, format_name):
    name, records = read_path(GOLDEN / fixture, format_name)
    trace = records_to_trace(records, fixture, format_name=name)
    for variant in ("stride", "cap", "hybrid"):
        assert verify_events(variant, trace.predictor_stream()) is None
