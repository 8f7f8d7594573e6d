"""Attribution counters, run manifests, schema, stats.

The load-bearing property is parity: an instrumented predictor must
report byte-identical attribution counters whether it is driven through
``run_on_stream``, ``run_on_columns``, or the engine (serial or pooled).
"""

import json
import random

import pytest

from repro.eval.engine import FACTORIES, Job, execute_job, run_jobs
from repro.eval.metrics import (
    ATTRIBUTION_FIELDS,
    AttributionCounters,
    PredictorMetrics,
)
from repro.eval.runner import instrument_predictor, run_predictor
from repro.obs import manifest as run_manifest
from repro.obs.schema import load_schema, validate, validate_manifest
from repro.pipeline.delayed import PipelinedPredictor
from repro.trace.event import KIND_BRANCH, KIND_CALL, KIND_LOAD, KIND_RET
from repro.trace.trace import Trace

TRACE = "INT_xli"
INSTR = 8000


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)


def _mixed_trace(events=3000, seed=7):
    """Loads (strided + correlated + noisy), branches, calls, returns."""
    rng = random.Random(seed)
    trace = Trace("mixed", meta={"suite": "TEST"})
    stride_addr = 0x10000
    ring = [0x20000 + 64 * i for i in range(5)]
    depth = 0
    for i in range(events):
        roll = rng.random()
        if roll < 0.45:
            stride_addr += 16
            trace.append(KIND_LOAD, 0x400, addr=stride_addr, offset=4)
        elif roll < 0.65:
            trace.append(KIND_LOAD, 0x404, addr=ring[i % len(ring)], offset=8)
        elif roll < 0.75:
            trace.append(
                KIND_LOAD, 0x408, addr=rng.randrange(2**28) * 4, offset=12
            )
        elif roll < 0.90:
            trace.append(KIND_BRANCH, 0x500 + 4 * (i % 7),
                         taken=int(rng.random() < 0.6))
        elif roll < 0.95 or depth == 0:
            trace.append(KIND_CALL, 0x600, addr=0x7F00 + depth)
            depth += 1
        else:
            trace.append(KIND_RET, 0x604, addr=0x7F00 + depth)
            depth -= 1
    return trace


def _variants():
    yield "stride", lambda: FACTORIES["stride"]()
    yield "cap", lambda: FACTORIES["cap"]()
    yield "hybrid", lambda: FACTORIES["hybrid"]()
    yield "hybrid_gap4", lambda: PipelinedPredictor(FACTORIES["hybrid"](), 4)


class TestAttributionCounters:
    def test_events_increment_their_field(self):
        # Two static loads, each seen 40 times: one strided, one cycling
        # through three addresses, so both hybrid components speculate.
        trace = Trace("two-loads", meta={"suite": "TEST"})
        ring = [0x9000, 0x9400, 0x9800]
        for i in range(40):
            trace.append(KIND_LOAD, 0x400, addr=0x1000 + 16 * i, offset=0)
            trace.append(KIND_LOAD, 0x404, addr=ring[i % 3], offset=0)
        predictor = FACTORIES["hybrid"]()
        metrics = run_predictor(predictor, trace, instrument=True)
        counts = metrics.attribution()
        assert counts["lb_misses"] == 2
        assert counts["selector_cap"] > 0 and counts["selector_stride"] > 0
        assert (
            counts["selector_cap"] + counts["selector_stride"]
            == predictor.selector_stats.speculative
        )

    def test_merge_sums_fields(self):
        a = AttributionCounters(pf_rejections=1, loads=10)
        b = AttributionCounters(pf_rejections=1, confidence_vetoes=1,
                                loads=5)
        a += b
        assert a.pf_rejections == 2
        assert a.confidence_vetoes == 1
        assert a.loads == 15
        assert tuple(a.attribution()) == ATTRIBUTION_FIELDS

    def test_instrumented_metrics_are_the_probe(self):
        predictor = FACTORIES["stride"]()
        metrics = run_predictor(predictor, _mixed_trace(500),
                                instrument=True)
        assert predictor.probe is metrics
        assert predictor.logic.probe is metrics
        assert metrics.lb_misses >= 1


class TestInstrumentWiring:
    def test_cap_tree_shares_one_probe(self):
        predictor = FACTORIES["cap"]()
        probe = AttributionCounters()
        instrument_predictor(predictor, probe)
        assert predictor.probe is probe
        assert predictor.component.probe is probe
        assert predictor.component.link_table.probe is probe

    def test_hybrid_tree_shares_one_probe(self):
        predictor = FACTORIES["hybrid"]()
        probe = AttributionCounters()
        instrument_predictor(predictor, probe)
        assert predictor.probe is probe
        assert predictor.stride_logic.probe is probe

    def test_pipelined_wrapper_recurses(self):
        predictor = PipelinedPredictor(FACTORIES["cap"](), 4)
        probe = AttributionCounters()
        instrument_predictor(predictor, probe)
        assert predictor.probe is probe
        assert predictor.inner.probe is probe

    def test_reset_keeps_the_probe_attached(self):
        predictor = FACTORIES["cap"]()
        probe = AttributionCounters()
        instrument_predictor(predictor, probe)
        predictor.reset()
        assert predictor.component.link_table.probe is probe

    def test_uninstrumented_probe_stays_none(self):
        predictor = FACTORIES["hybrid"]()
        run_predictor(predictor, _mixed_trace(500))
        assert predictor.probe is None


class TestCounterParity:
    @pytest.mark.parametrize(
        "name", [name for name, _ in _variants()]
    )
    def test_stream_and_columns_agree(self, name):
        build = dict(_variants())[name]
        trace = _mixed_trace()
        columns = trace.predictor_columns()
        tuples = list(columns.tuples())
        via_columns = run_predictor(build(), columns, instrument=True)
        via_stream = run_predictor(build(), tuples, instrument=True)
        assert via_columns.attribution() == via_stream.attribution()
        assert via_columns.loads == via_stream.loads
        assert via_columns.speculative == via_stream.speculative
        assert any(via_columns.attribution().values())

    def test_engine_serial_vs_pool_identical(self, monkeypatch):
        jobs = [
            Job(trace=TRACE, factory=name, variant=name,
                instructions=INSTR, instrument=True)
            for name in ("stride", "cap", "hybrid")
        ]
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_jobs(jobs)
        monkeypatch.setenv("REPRO_JOBS", "2")
        pooled = run_jobs(jobs)
        for left, right in zip(serial, pooled):
            assert isinstance(left.metrics, AttributionCounters)
            assert left.metrics.attribution() == right.metrics.attribution()
            assert left.metrics.loads == right.metrics.loads

    def test_instrument_flag_off_returns_plain_metrics(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        job = Job(trace=TRACE, factory="cap", variant="cap",
                  instructions=INSTR)
        result = execute_job(job)
        assert type(result.metrics) is PredictorMetrics


class TestManifests:
    def test_engine_writes_schema_valid_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        job = Job(trace=TRACE, factory="hybrid", variant="hybrid",
                  instructions=INSTR, instrument=True)
        run_jobs([job])
        manifests = run_manifest.load_manifests(out)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == run_manifest.MANIFEST_SCHEMA_ID
        assert manifest["job"]["trace"] == TRACE
        assert manifest["metrics"]["loads"] > 0
        assert manifest["attribution"]["confidence_vetoes"] >= 0
        assert manifest["run"]["wall_s"] >= 0.0

    def test_same_job_overwrites_not_duplicates(self, tmp_path, monkeypatch):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        job = Job(trace=TRACE, factory="cap", variant="cap",
                  instructions=INSTR)
        run_jobs([job])
        run_jobs([job])
        assert len(list(out.glob("*.json"))) == 1

    def test_disabled_writes_nothing(self, tmp_path, monkeypatch):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_jobs([Job(trace=TRACE, factory="cap", variant="cap",
                      instructions=INSTR)])
        assert not out.exists()

    def test_heartbeats_on_stderr(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "t"))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_jobs([Job(trace=TRACE, factory="stride", variant="stride",
                      instructions=INSTR)])
        err = capfd.readouterr().err
        assert "[telemetry]" in err
        assert "start kind=predict" in err
        assert "manifest=" in err

    def test_engine_and_served_manifests_share_one_record(
        self, tmp_path, monkeypatch
    ):
        """The engine job and a whole-trace served session for the same
        spec write manifests of one shape with one metrics record."""
        from repro.serve.session import (
            PredictorSession,
            SessionConfig,
            finish_session,
        )
        from repro.workloads import suites

        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "engine"))
        run_jobs([Job(trace=TRACE, factory="hybrid", variant="hybrid",
                      instructions=INSTR, instrument=True)])
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path / "serve"))
        session = PredictorSession(
            SessionConfig(factory="hybrid", instrument=True, trace=TRACE)
        )
        session.feed(suites.get_predictor_stream(TRACE, INSTR))
        summary = finish_session(session)
        (engine,) = run_manifest.load_manifests(tmp_path / "engine")
        (served,) = run_manifest.load_manifests(tmp_path / "serve")
        assert validate_manifest(engine) == []
        assert validate_manifest(served) == []
        assert set(engine) == set(served)
        assert set(engine["job"]) == set(served["job"])
        assert set(engine["run"]) == set(served["run"])
        assert (engine["job"]["kind"], served["job"]["kind"]) == (
            "predict", "serve"
        )
        assert served["metrics"] == engine["metrics"] == summary["metrics"]
        assert served["attribution"] == engine["attribution"]
        assert any(served["attribution"].values())

    def test_config_hash_is_stable_and_sensitive(self):
        a = Job(trace=TRACE, factory="cap", instructions=INSTR)
        b = Job(trace=TRACE, factory="cap", instructions=INSTR)
        c = Job(trace=TRACE, factory="cap", instructions=INSTR + 1)
        assert run_manifest.config_hash(a) == run_manifest.config_hash(b)
        assert run_manifest.config_hash(a) != run_manifest.config_hash(c)

    def test_trace_id_never_perturbs_manifest_identity(self, tmp_path,
                                                       monkeypatch):
        """The observability trace id rides along on a Job but is
        excluded from the config hash: the same logical run must
        overwrite its manifest whether or not it was traced."""
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        plain = Job(trace=TRACE, factory="cap", variant="cap",
                    instructions=INSTR)
        traced = Job(trace=TRACE, factory="cap", variant="cap",
                     instructions=INSTR, trace_id="t1-9")
        run_jobs([plain])
        run_jobs([traced])
        assert len(list(out.glob("*.json"))) == 1


class TestManifestObsSection:
    def test_engine_manifest_carries_obs_and_validates(
        self, tmp_path, monkeypatch
    ):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        job = Job(trace=TRACE, factory="stride", variant="stride",
                  instructions=INSTR, trace_id="t1-2")
        run_jobs([job])
        (manifest,) = run_manifest.load_manifests(out)
        assert validate_manifest(manifest) == []
        obs = manifest["obs"]
        assert obs["trace_id"] == "t1-2"
        assert obs["metrics"]["counters"]["engine.jobs"] >= 1
        assert "engine.job.run_s" in obs["metrics"]["histograms"]

    def test_old_manifest_without_obs_still_validates(
        self, tmp_path, monkeypatch
    ):
        """Manifests written before the obs section existed must keep
        validating — the section is optional, not required."""
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_jobs([Job(trace=TRACE, factory="stride", variant="stride",
                      instructions=INSTR)])
        (manifest,) = run_manifest.load_manifests(out)
        del manifest["obs"]
        assert validate_manifest(manifest) == []
        # Null is also fine (a writer with observability off).
        manifest["obs"] = None
        assert validate_manifest(manifest) == []

    def test_malformed_obs_section_is_rejected(self, tmp_path,
                                               monkeypatch):
        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_jobs([Job(trace=TRACE, factory="stride", variant="stride",
                      instructions=INSTR)])
        (manifest,) = run_manifest.load_manifests(out)
        manifest["obs"] = {"flight_recorder": None}  # missing trace_id
        assert validate_manifest(manifest)
        manifest["obs"] = {"trace_id": "t", "bogus": 1}
        assert validate_manifest(manifest)

    def test_serve_session_manifest_obs_validates(self, tmp_path,
                                                  monkeypatch):
        from repro.serve.session import (
            PredictorSession,
            SessionConfig,
            finish_session,
        )

        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        events = list(_mixed_trace(300).predictor_columns().tuples())
        traced = PredictorSession(SessionConfig(factory="stride",
                                                variant="traced"))
        traced.feed(events)
        summary = finish_session(traced, trace_id="lg0-3",
                                 flight_dir="/tmp/flight")
        untraced = PredictorSession(SessionConfig(factory="stride"))
        finish_session(untraced)
        manifests = {
            m["job"]["variant"]: m for m in run_manifest.load_manifests(out)
        }
        assert set(manifests) == {"traced", "stride"}
        manifest = manifests["traced"]
        assert validate_manifest(manifest) == []
        assert manifest["job"]["kind"] == "serve"
        assert manifest["metrics"] == summary["metrics"]
        assert manifest["trace"]["events"] == len(events)
        assert manifest["obs"]["trace_id"] == "lg0-3"
        assert manifest["obs"]["flight_recorder"] == "/tmp/flight"
        assert validate_manifest(manifests["stride"]) == []
        assert manifests["stride"]["obs"]["trace_id"] is None


class TestStdoutHygiene:
    def test_json_stdout_stays_parseable_under_telemetry(self, tmp_path):
        """``--format json`` output must be machine-readable even with
        telemetry on: heartbeats go to stderr, never stdout."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(repo / "src"),
            "REPRO_TELEMETRY": "1",
            "REPRO_TELEMETRY_DIR": str(tmp_path / "t"),
            "REPRO_JOBS": "2",
            "REPRO_TRACE_CACHE": str(tmp_path / "cache"),
        })
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "stats", "breakdown",
             "--traces", TRACE, "--instructions", "2000",
             "--format", "json"],
            cwd=repo, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)  # whole stream, not a prefix
        assert "per_trace" in payload
        assert "[telemetry]" in proc.stderr
        assert "[telemetry]" not in proc.stdout


class TestSchemaValidator:
    def test_schema_file_loads(self):
        schema = load_schema()
        assert schema["required"][0] == "schema"

    def test_reports_type_and_required_violations(self):
        schema = {
            "type": "object",
            "required": ["n"],
            "additionalProperties": False,
            "properties": {"n": {"type": "integer", "minimum": 0}},
        }
        assert validate({"n": 3}, schema) == []
        assert validate({"n": -1}, schema)
        assert validate({"n": "x"}, schema)
        assert validate({}, schema)
        assert validate({"n": 1, "extra": 1}, schema)

    def test_enum_and_nullable_unions(self):
        schema = {
            "type": "object",
            "properties": {
                "kind": {"enum": ["predict", "timing"]},
                "gap": {"type": ["integer", "null"]},
            },
        }
        assert validate({"kind": "predict", "gap": None}, schema) == []
        assert validate({"kind": "bogus"}, schema)
        assert validate({"gap": 1.5}, schema)

    def test_unknown_keyword_raises(self):
        with pytest.raises(ValueError):
            validate({}, {"type": "object", "patternProperties": {}})


class TestStatsReporting:
    def _breakdown(self, monkeypatch):
        from repro.obs import stats

        monkeypatch.setenv("REPRO_JOBS", "1")
        return stats.collect_breakdown(
            traces=[TRACE], instructions=INSTR,
        )

    def test_breakdown_text_json_csv(self, monkeypatch):
        result = self._breakdown(monkeypatch)
        text = result.render_text()
        assert "Misprediction-cause breakdown" in text
        for cause in ATTRIBUTION_FIELDS:
            assert cause in text
        payload = json.loads(result.to_json())
        assert set(payload["totals"]) == {"stride", "cap", "hybrid"}
        assert payload["totals"]["cap"]["attribution"]["lb_misses"] >= 1
        csv_text = result.to_csv()
        lines = csv_text.strip().splitlines()
        # header + (per-trace + ALL) per variant
        assert len(lines) == 1 + 2 * 3
        assert lines[0].startswith("variant,trace,suite,loads")

    def test_breakdown_totals_match_engine(self, monkeypatch):
        result = self._breakdown(monkeypatch)
        job = Job(trace=TRACE, factory="cap", variant="cap",
                  instructions=INSTR, instrument=True)
        direct = execute_job(job)
        assert (
            result.totals["cap"].attribution()
            == direct.metrics.attribution()
        )

    def test_summarize_and_validate_directory(self, tmp_path, monkeypatch):
        from repro.obs import stats

        out = tmp_path / "telemetry"
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(out))
        monkeypatch.setenv("REPRO_JOBS", "1")
        run_jobs([Job(trace=TRACE, factory="cap", variant="cap",
                      instructions=INSTR, instrument=True)])
        assert stats.validate_directory(out) == []
        table = stats.summarize_manifests(out)
        assert "cap" in table and TRACE in table
        bad = json.loads((next(out.glob("*.json"))).read_text())
        del bad["config_hash"]
        (out / "broken.json").write_text(json.dumps(bad))
        failures = stats.validate_directory(out)
        assert len(failures) == 1
        assert "config_hash" in " ".join(failures[0][1])


class TestManifestDiff:
    @staticmethod
    def _manifest(variant, wall, accuracy, rate, config_hash="h1"):
        return {
            "schema": run_manifest.MANIFEST_SCHEMA_ID,
            "config_hash": config_hash,
            "job": {"variant": variant, "trace": "T", "kind": "predict"},
            "run": {"started_at": "x", "wall_s": wall, "cpu_s": wall,
                    "pid": 1},
            "metrics": {"accuracy": accuracy, "prediction_rate": rate},
        }

    def _write(self, directory, manifests):
        directory.mkdir(parents=True, exist_ok=True)
        for index, manifest in enumerate(manifests):
            (directory / f"m{index}.json").write_text(json.dumps(manifest))

    def test_clean_when_within_tolerance(self, tmp_path):
        from repro.obs.stats import diff_manifests

        self._write(tmp_path / "a", [self._manifest("cap", 1.0, 0.9, 0.5)])
        self._write(tmp_path / "b", [self._manifest("cap", 1.1, 0.9, 0.5)])
        diff = diff_manifests(tmp_path / "a", tmp_path / "b")
        assert diff.clean
        assert diff.rows[0]["flags"] == []

    def test_flags_perf_accuracy_and_rate(self, tmp_path):
        from repro.obs.stats import diff_manifests

        self._write(tmp_path / "a", [self._manifest("cap", 1.0, 0.90, 0.50)])
        self._write(tmp_path / "b", [self._manifest("cap", 2.0, 0.80, 0.40)])
        diff = diff_manifests(tmp_path / "a", tmp_path / "b")
        assert not diff.clean
        assert diff.rows[0]["flags"] == ["perf", "accuracy", "rate"]
        assert len(diff.regressions) == 3
        assert "wall" in diff.render()

    def test_config_change_is_informational(self, tmp_path):
        from repro.obs.stats import diff_manifests

        self._write(tmp_path / "a", [self._manifest("cap", 1.0, 0.9, 0.5)])
        self._write(
            tmp_path / "b",
            [self._manifest("cap", 1.0, 0.9, 0.5, config_hash="h2")],
        )
        diff = diff_manifests(tmp_path / "a", tmp_path / "b")
        assert diff.clean
        assert diff.rows[0]["flags"] == ["config"]

    def test_unmatched_runs_listed(self, tmp_path):
        from repro.obs.stats import diff_manifests

        self._write(tmp_path / "a", [self._manifest("cap", 1.0, 0.9, 0.5)])
        self._write(tmp_path / "b", [self._manifest("str", 1.0, 0.9, 0.5)])
        diff = diff_manifests(tmp_path / "a", tmp_path / "b")
        assert diff.only_baseline == ["cap/T"]
        assert diff.only_candidate == ["str/T"]
