"""Tests for the ``repro.lint`` simulator-correctness linter.

Three layers:

* **Fixture pairs** — for every rule, a ``bad`` fixture must fire and a
  ``good`` fixture must stay silent (each linted with *only* that rule,
  under a virtual path that puts scoped rules in scope).
* **Self-checks with teeth** — the historical ``PipelinedPredictor.reset()``
  bug is re-introduced on a source string and R001 must report it at the
  right line; every historical bug a kept rule caught is re-introduced
  into the real source file and must be reported there; the real source
  tree must lint clean.
* **Plumbing** — suppressions, reporters, CLI exit codes, and a
  skipif-gated mypy smoke test for the typed packages.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    all_rules,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_main
from repro.lint.reporters import render_json, render_text, summary_dict

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"

#: rule id -> virtual path the fixture is linted under.  R001's
#: missing-reset variant and all of R003 only apply inside the simulator
#: packages, so those fixtures pretend to live there.
FIXTURE_PATHS = {
    "R001": "src/repro/predictors/fixture.py",
    "R002": "tests/lint_fixtures/fixture.py",
    "R003": "src/repro/predictors/fixture.py",
    "R007": "src/repro/serve/fixture.py",
    "R009": "src/repro/kernels/fixture.py",
    # The exit-code checks only run on modules named like a CLI.
    "R010": "src/repro/ingest/fixture_cli.py",
}


def _lint_fixture(rule_id, kind):
    path = FIXTURES / f"{rule_id.lower()}_{kind}.py"
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source, relpath=FIXTURE_PATHS[rule_id], rules=[rule_id]
    )


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PATHS))
    def test_bad_fixture_fires(self, rule_id):
        findings = _lint_fixture(rule_id, "bad")
        assert findings, f"{rule_id} produced no findings on its bad fixture"
        assert all(f.rule == rule_id for f in findings)
        assert not any(f.suppressed for f in findings)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PATHS))
    def test_good_fixture_is_silent(self, rule_id):
        assert _lint_fixture(rule_id, "good") == []

    def test_r001_reports_both_bug_shapes(self):
        findings = _lint_fixture("R001", "bad")
        symbols = {f.symbol for f in findings}
        assert "LeakyHistoryPredictor.reset" in symbols
        assert "TrainedNoResetPredictor" in symbols
        by_symbol = {f.symbol: f for f in findings}
        assert "pending" in by_symbol["LeakyHistoryPredictor.reset"].message

    def test_r002_flags_every_class(self):
        messages = " ".join(f.message for f in _lint_fixture("R002", "bad"))
        for marker in (
            "random.randrange",
            "wall-clock",
            "unordered set",
            "popitem",
            "environment read",
        ):
            assert marker in messages

    def test_r007_reports_race_and_process_shapes(self):
        findings = _lint_fixture("R007", "bad")
        messages = " ".join(f.message for f in findings)
        assert "self.active" in messages
        assert "worker-process" in messages
        race = next(f for f in findings if "self.active" in f.message)
        # The def->use trace walks read -> suspension(s) -> write.
        notes = " ".join(step.note for step in race.trace)
        assert "suspension point" in notes

    def test_r007_obs_bad_fixture_fires_in_obs_scope(self):
        # The admin-endpoint shape: shared scrape stats read, response
        # streamed (suspension), stats committed from the stale read.
        source = (FIXTURES / "r007_obs_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, relpath="src/repro/obs/fixture.py", rules=["R007"]
        )
        assert findings, "R007 missed the admin check-then-act shape"
        messages = " ".join(f.message for f in findings)
        assert "self.scrapes" in messages

    def test_r007_obs_good_fixture_is_silent(self):
        source = (FIXTURES / "r007_obs_good.py").read_text(encoding="utf-8")
        assert lint_source(
            source, relpath="src/repro/obs/fixture.py", rules=["R007"]
        ) == []

    def test_r007_out_of_scope_outside_serve_and_obs(self):
        # The same racy source under a non-scoped package stays silent:
        # R007 is scoped to the packages whose handlers share state.
        source = (FIXTURES / "r007_obs_bad.py").read_text(encoding="utf-8")
        assert lint_source(
            source, relpath="src/repro/predictors/fixture.py",
            rules=["R007"],
        ) == []

    def test_r002_clock_reads_allowlisted_in_obs_package(self):
        # The observability plane measures wall time for a living; the
        # same read outside obs/ still fires.
        source = "import time\n\ndef stamp():\n    return time.perf_counter()\n"
        assert lint_source(
            source, relpath="src/repro/obs/fixture.py", rules=["R002"]
        ) == []
        flagged = lint_source(
            source, relpath="src/repro/eval/fixture.py", rules=["R002"]
        )
        assert any("wall-clock" in f.message for f in flagged)

    def test_r009_reports_shift_loop_and_width_overflow(self):
        findings = _lint_fixture("R009", "bad")
        messages = " ".join(f.message for f in findings)
        assert "never terminates" in messages
        assert "80 value bits" in messages
        loop = next(f for f in findings if "right-shift loop" in f.message)
        # The trace walks the unbounded definition down to the shift.
        assert any(
            "without a non-negative bound" in step.note for step in loop.trace
        )
        assert "'>>='" in loop.trace[-1].note

    def test_r010_reports_each_contract_erosion(self):
        findings = _lint_fixture("R010", "bad")
        messages = " ".join(f.message for f in findings)
        assert "fully dynamic" in messages
        assert "not pinned" in messages
        assert "literal exit code 0/1/2" in messages
        assert "exit code 2" in messages  # the escape check
        # Only direct raises count as escapes: the calls to the raising
        # ``_parse`` helper are left to the CLI tests of the real handlers.
        escapes = [f for f in findings if "escapes" in f.message]
        assert {f.symbol for f in escapes} == {"_cmd_convert", "_cmd_ingest"}


#: The PR 3 bug, reconstructed: reset() forgets the embedded branch
#: predictor (charged through its .update() call) and the flush counter
#: (charged through the augmented assignment).
BUGGY_PIPELINE = '''\
class PipelinedPredictor:
    def __init__(self, inner, config):
        self.inner = inner
        self.config = config
        self.branch_predictor = BranchPredictor(config.branch_bits)
        self.flushes = 0
        self.queue = []

    def on_branch(self, ip, taken):
        self.branch_predictor.update(ip, taken)
        if not taken:
            self.flushes += 1
            self.queue.clear()

    def update(self, ip, addr):
        self.inner.update(ip, addr)
        self.queue.append((ip, addr))

    def reset(self):
        self.inner.reset()
        self.queue = []
'''

FIXED_PIPELINE = BUGGY_PIPELINE + (
    "        self.branch_predictor.reset()\n"
    "        self.flushes = 0\n"
)

#: Historical bugs a kept rule caught, re-introduced into the real
#: source: (repo-relative file, [(old, new) text replacements], rule,
#: symbol the finding must anchor to).
HISTORICAL_EDITS = {
    # PipelinedPredictor.reset() forgot its branch predictor and flush
    # counter (found by the differential fuzzer).
    "pipelined-reset": (
        "src/repro/pipeline/delayed.py",
        [("        self.branch_predictor.reset()\n"
          "        self.flushes = 0\n", "")],
        "R001",
        "PipelinedPredictor.reset",
    ),
    # CacheLevel shipped with no reset at all (R001's first tree run).
    "cache-level-reset": (
        "src/repro/timing/cache.py",
        [('    def reset(self) -> None:\n'
          '        """Invalidate every line and zero the hit/miss'
          ' statistics."""\n'
          "        self._sets = [[] for _ in range(self.config.num_sets)]\n"
          "        self._clock = 0\n"
          "        self.hits = 0\n"
          "        self.misses = 0\n", "")],
        "R001",
        "CacheLevel",
    ),
    # The session-admission race: the slot was taken after the await,
    # so concurrent opens overshot max_sessions.
    "admission-race": (
        "src/repro/serve/server.py",
        [
            ("        self._sessions_active += 1\n        try:\n",
             "        try:\n"),
            ("            self._sessions_active -= 1"
             "  # release the reservation\n", ""),
            ("        connection.session_id = session_id\n",
             "        self._sessions_active += 1\n"
             "        connection.session_id = session_id\n"),
        ],
        "R007",
        "PredictionServer._on_open",
    ),
    # AdminServer.close in the check-then-act shape.
    "admin-close-race": (
        "src/repro/obs/admin.py",
        [("        server, self._server = self._server, None\n"
          "        if server is not None:\n"
          "            server.close()\n"
          "            await server.wait_closed()\n",
          "        if self._server is not None:\n"
          "            self._server.close()\n"
          "            await self._server.wait_closed()\n"
          "            self._server = None\n")],
        "R007",
        "AdminServer.close",
    ),
    # fold_xor_array trusted its callers to canonicalise, and hung on
    # negative int64 input.
    "fold-xor-entry-mask": (
        "src/repro/kernels/segops.py",
        [("remaining = values & np.int64((1 << 63) - 1)",
          "remaining = values.copy()")],
        "R009",
        "fold_xor_array",
    ),
}


class TestHistoricalBugSelfCheck:
    def test_r001_catches_the_pr3_reset_bug(self):
        findings = lint_source(
            BUGGY_PIPELINE,
            relpath="src/repro/pipeline/delayed.py",
            rules=["R001"],
        )
        assert len(findings) == 1
        finding = findings[0]
        expected_line = (
            BUGGY_PIPELINE.splitlines().index("    def reset(self):") + 1
        )
        assert finding.line == expected_line
        assert finding.symbol == "PipelinedPredictor.reset"
        assert "branch_predictor" in finding.message
        assert "flushes" in finding.message

    @pytest.mark.parametrize("case", sorted(HISTORICAL_EDITS))
    def test_kept_rule_catches_bug_in_real_source(self, case):
        relpath, edits, rule_id, symbol = HISTORICAL_EDITS[case]
        source = (REPO_ROOT / relpath).read_text(encoding="utf-8")
        assert [
            f for f in lint_source(source, relpath=relpath, rules=[rule_id])
            if not f.suppressed
        ] == []
        for old, new in edits:
            assert source.count(old) == 1, f"edit no longer applies: {old!r}"
            source = source.replace(old, new)
        findings = lint_source(source, relpath=relpath, rules=[rule_id])
        assert findings, f"{rule_id} missed the re-introduced {case} bug"
        assert {f.symbol for f in findings} == {symbol}

    def test_fixed_reset_is_clean(self):
        findings = lint_source(
            FIXED_PIPELINE,
            relpath="src/repro/pipeline/delayed.py",
            rules=["R001"],
        )
        assert findings == []

    def test_source_tree_lints_clean(self):
        """The gate CI enforces: zero unsuppressed findings on src/repro."""
        result = lint_paths([SRC_REPRO], root=REPO_ROOT)
        assert result.files_checked > 50
        assert result.errors == []
        assert result.active == [], "\n".join(
            f.format() for f in result.active
        )

    def test_source_tree_suppressions_are_explained(self):
        """Every in-tree suppression must sit on a line whose neighbourhood
        carries an explanatory comment (the documented policy)."""
        result = lint_paths([SRC_REPRO], root=REPO_ROOT)
        assert result.suppressed, "expected the documented suppressions"
        for finding in result.suppressed:
            text = (REPO_ROOT / finding.path).read_text(encoding="utf-8")
            lines = text.splitlines()
            window = lines[max(0, finding.line - 4): finding.line]
            assert any("#" in line for line in window), finding.format()


class TestSuppressions:
    SOURCE = (
        "import random\n"
        "def roll():\n"
        "    return random.random()  # repro-lint: disable=R002\n"
    )

    def test_suppressed_finding_is_marked_not_dropped(self):
        findings = lint_source(self.SOURCE, rules=["R002"])
        assert len(findings) == 1
        assert findings[0].suppressed is True

    def test_suppression_is_rule_specific(self):
        wrong_rule = self.SOURCE.replace("R002", "R001")
        findings = lint_source(wrong_rule, rules=["R002"])
        assert findings[0].suppressed is False

    def test_suppression_is_line_specific(self):
        moved = (
            "import random\n"
            "# repro-lint: disable=R002\n"
            "def roll():\n"
            "    return random.random()\n"
        )
        findings = lint_source(moved, rules=["R002"])
        assert findings[0].suppressed is False


class TestFrameworkPlumbing:
    def test_all_six_rules_registered(self):
        assert sorted(all_rules()) == [
            "R001", "R002", "R003", "R007", "R009", "R010",
        ]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            get_rules(["R999"])

    def test_json_report_shape(self):
        result = lint_paths([FIXTURES / "r002_bad.py"], root=REPO_ROOT)
        payload = json.loads(render_json(result))
        assert set(payload) == {"summary", "findings", "rules"}
        assert payload["summary"]["files_checked"] == 1
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["by_rule"].get("R002")
        first = payload["findings"][0]
        assert set(first) == {
            "rule", "path", "line", "message", "symbol", "suppressed",
        }
        assert set(payload["rules"]) == set(all_rules())

    def test_text_report_mentions_summary(self):
        result = lint_paths([FIXTURES / "r002_good.py"], root=REPO_ROOT)
        text = render_text(result)
        assert "1 file(s) checked" in text
        assert summary_dict(result)["ok"] is True

    def test_finding_format_includes_location(self):
        finding = Finding(
            rule="R001", path="a/b.py", line=7, message="msg", symbol="C.reset"
        )
        assert finding.format() == "a/b.py:7: R001 [C.reset] msg"


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        assert lint_main([str(FIXTURES / "r002_good.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert lint_main([str(FIXTURES / "r001_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_unknown_rule_exits_two(self, capsys):
        assert lint_main(["--rules", "R999", str(FIXTURES)]) == 2
        assert "unknown rule" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_json_format(self, capsys):
        assert lint_main(
            ["--format", "json", str(FIXTURES / "r002_good.py")]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is True


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy is not installed (dev extra); CI runs it explicitly",
)
def test_mypy_strict_on_typed_packages():
    """`mypy src/repro/common` must pass under the pyproject config."""
    completed = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro/common"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
