"""Conformance corpus for the external-trace format adapters.

The fixtures live in ``tests/ingest_fixtures/``:

* ``golden/`` — well-formed DRAMSim2-style and Pin-style files covering
  every grammar affordance (comments, blank lines, case-insensitive
  commands, optional ``0x`` prefixes, decimal cells, cell padding);
* ``hostile/`` — one file per way a trace can be malformed, with the
  exact error message pinned in ``expectations.json``.  These messages
  are contract: vaguer wording (or a swallowed error) fails here first.
  Each hostile file goes through the library reader and through the
  ``repro ingest describe`` and ``convert`` handlers, which must exit 2
  with the pinned message rather than let the error escape.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.ingest import (
    FORMAT_NAMES,
    FormatError,
    IngestError,
    IngestStats,
    get_format,
    read_path,
    records_to_trace,
    sniff_format,
    synthesize_pc,
)
from repro.eval.cli import main as cli_main
from repro.ingest.records import KIND_FETCH, KIND_LOAD, KIND_STORE
from repro.trace import KIND_LOAD as TRACE_KIND_LOAD
from repro.trace import KIND_STORE as TRACE_KIND_STORE

FIXTURES = Path(__file__).parent / "ingest_fixtures"
GOLDEN = FIXTURES / "golden"
HOSTILE = FIXTURES / "hostile"
EXPECTATIONS = json.loads((FIXTURES / "expectations.json").read_text())


# ---------------------------------------------------------------------------
# Hostile corpus: every fixture fails with its pinned message
# ---------------------------------------------------------------------------


#: (entry point, fixture) pairs; the library reader keeps the bare
#: fixture name as its test id.
HOSTILE_CASES = [
    pytest.param(
        entry, name, id=name if entry == "read_path" else f"{entry}-{name}"
    )
    for entry in ("read_path", "describe", "convert")
    for name in sorted(EXPECTATIONS)
]


@pytest.mark.parametrize("entry, name", HOSTILE_CASES)
def test_hostile_fixture_pinned_error(entry, name, tmp_path, capsys):
    spec = EXPECTATIONS[name]
    if entry == "read_path":
        with pytest.raises(FormatError) as excinfo:
            read_path(HOSTILE / name, spec["format"])
        assert str(excinfo.value) == spec["error"]
        return
    output = tmp_path / "out.npz"
    argv = ["ingest", entry, str(HOSTILE / name)]
    if entry == "convert":
        argv.append(str(output))
    if spec["format"]:
        argv += ["--format", spec["format"]]
    assert cli_main(argv) == 2
    assert spec["error"] in capsys.readouterr().err
    assert not output.exists()


def test_hostile_corpus_is_complete():
    """Every hostile file has an expectation and vice versa."""
    on_disk = {p.name for p in HOSTILE.iterdir()}
    assert on_disk == set(EXPECTATIONS)


def test_format_error_is_value_error():
    """Typed errors stay catchable through the historical except clauses."""
    assert issubclass(FormatError, IngestError)
    assert issubclass(IngestError, ValueError)


def test_unknown_format_name_pinned():
    with pytest.raises(FormatError) as excinfo:
        get_format("elf")
    assert str(excinfo.value) == (
        "<trace>: unknown trace format 'elf'"
        " (expected one of: dramsim, pincsv)"
    )


# ---------------------------------------------------------------------------
# Golden corpus: grammar affordances parse to the expected records
# ---------------------------------------------------------------------------


def test_golden_dramsim_records():
    name, records = read_path(GOLDEN / "stride.trc", "dramsim")
    assert name == "dramsim"
    assert [(r.kind, r.addr, r.cycle) for r in records] == [
        (KIND_LOAD, 0x10000000, 0),
        (KIND_LOAD, 0x10000040, 10),   # lower-case command
        (KIND_STORE, 0x20000000, 20),
        (KIND_FETCH, 0x30000000, 30),
        (KIND_LOAD, 0x10000080, 40),   # no 0x prefix, P_MEM_RD spelling
        (KIND_STORE, 0x20000040, 50),  # P_MEM_WR spelling
        (KIND_LOAD, 2**64 - 1, 60),    # max-width mixed-case hex
    ]
    assert all(r.pc is None for r in records)


def test_golden_pincsv_records():
    name, records = read_path(GOLDEN / "mixed.csv", "pincsv")
    assert name == "pincsv"
    assert [(r.kind, r.pc, r.addr, r.size) for r in records] == [
        (KIND_LOAD, 0x401000, 0x7FFE0010, 8),
        (KIND_STORE, 0x401006, 0x7FFE0018, 4),  # padded cells
        (KIND_LOAD, 4198412, 2147483648, 2),    # decimal cells
        (KIND_LOAD, 0, 0x50000000, 4),          # pc=0 -> synthesized later
    ]


@pytest.mark.parametrize(
    "fixture, expected",
    [("stride.trc", "dramsim"), ("mixed.csv", "pincsv")],
)
def test_sniff_golden(fixture, expected):
    assert sniff_format((GOLDEN / fixture).read_bytes()) == expected


def test_sniff_skips_comments_and_blanks():
    data = b"# header comment\n\n  # another\n0x10 READ 0\n"
    assert sniff_format(data) == "dramsim"


def test_read_path_sniffs_when_format_omitted():
    name, records = read_path(GOLDEN / "mixed.csv")
    assert name == "pincsv"
    assert len(records) == 4


# ---------------------------------------------------------------------------
# Normalization: records -> Trace with provenance stats
# ---------------------------------------------------------------------------


def test_normalize_dramsim_drops_fetches_and_synthesizes_pcs():
    name, records = read_path(GOLDEN / "stride.trc", "dramsim")
    trace = records_to_trace(records, "golden_stride", format_name=name)
    stats = IngestStats(**trace.meta["ingest"])
    assert stats.format == "dramsim"
    assert stats.records == 7
    assert stats.events_kept == 6          # the P_FETCH is dropped
    assert stats.loads_kept == 4
    assert stats.dropped == {"fetch": 1}
    assert stats.synthesized_pcs == 6      # every kept record lacks a PC
    kinds = list(trace.kind)
    assert kinds.count(TRACE_KIND_LOAD) == 4
    assert kinds.count(TRACE_KIND_STORE) == 2
    assert list(trace.ip) == [
        synthesize_pc(a) for a in
        (0x10000000, 0x10000040, 0x20000000, 0x10000080, 0x20000040,
         2**64 - 1)
    ]


def test_normalize_pincsv_keeps_real_pcs():
    name, records = read_path(GOLDEN / "mixed.csv", "pincsv")
    trace = records_to_trace(records, "golden_mixed", format_name=name)
    stats = IngestStats(**trace.meta["ingest"])
    assert stats.records == 4
    assert stats.events_kept == 4
    assert stats.dropped == {}
    assert stats.synthesized_pcs == 1      # only the pc=0 row
    assert list(trace.ip) == [
        0x401000, 0x401006, 4198412, synthesize_pc(0x50000000)
    ]


def test_normalize_max_records_truncates_with_attribution():
    name, records = read_path(GOLDEN / "stride.trc", "dramsim")
    trace = records_to_trace(
        records, "golden_short", format_name=name, max_records=2
    )
    stats = IngestStats(**trace.meta["ingest"])
    assert stats.events_kept == 2
    assert stats.dropped["truncated"] == 5


def test_synthesized_pcs_are_stable_and_region_local():
    """Same 4 KiB region -> same PC; the correlation table keys on PC."""
    assert synthesize_pc(0x1000) == synthesize_pc(0x1FFF)
    assert synthesize_pc(0x1000) != synthesize_pc(0x2000)
    assert synthesize_pc(0x1000) == synthesize_pc(0x1000)


# ---------------------------------------------------------------------------
# Writers: canonical rendering (full round-trips in test_ingest_roundtrip)
# ---------------------------------------------------------------------------


def test_dramsim_writer_canonical_lines():
    _, records = read_path(GOLDEN / "stride.trc", "dramsim")
    rendered = get_format("dramsim").write(records)
    assert rendered.decode().splitlines()[:2] == [
        "0x10000000 READ 0",
        "0x10000040 READ 10",
    ]
    # Canonical output re-parses to the same records.
    assert get_format("dramsim").read(rendered) == records


def test_pincsv_writer_rejects_fetch_records():
    _, records = read_path(GOLDEN / "stride.trc", "dramsim")
    with pytest.raises(FormatError) as excinfo:
        get_format("pincsv").write(records)
    # Pins the full contract wording (R010 checks this fragment).
    assert "has no CSV representation (loads and stores only)" in str(
        excinfo.value
    )


def test_format_registry_is_stable():
    assert FORMAT_NAMES == ("dramsim", "pincsv")
