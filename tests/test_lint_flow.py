"""Tests for the ``repro.lint.flow`` dataflow layer and its plumbing.

The layer is per-function: there is no cross-module project or call
graph.  Three layers of tests:

* **CFG** — statement graphs, suspension points, and the
  "path crosses a suspension" query the race rule (R007) is built on.
* **Dataflow** — reaching definitions and def→use chains, and the
  bit-width lattice's fixpoint behaviour (proofs, joins, degradation
  to "unknown" on loop-carried growth) behind R009.
* **Reporting plumbing** — def→use traces in the JSON/SARIF reporters,
  byte-stability of trace-free output, and the suppression audit.
"""

import ast
import json
from pathlib import Path

from repro.lint.core import (
    ModuleInfo,
    collect_suppressions,
    lint_paths,
    lint_source,
)
from repro.lint.cli import main as lint_main
from repro.lint.flow import (
    ReachingDefs,
    WidthEnv,
    build_cfg,
    expression_width,
)
from repro.lint.reporters import render_json, render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "lint_fixtures"


def _func(source, name=None):
    """Parse ``source`` (with lint parent links) and return one function."""
    module = ModuleInfo("src/repro/x/mod.py", source)
    funcs = [
        node
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    if name is None:
        return module, funcs[0]
    return module, next(f for f in funcs if f.name == name)


def _stmt(func, lineno):
    for node in ast.walk(func):
        if isinstance(node, ast.stmt) and getattr(node, "lineno", 0) == lineno:
            return node
    raise AssertionError(f"no statement at line {lineno}")


class TestCfg:
    RACE = (
        "async def handler(self):\n"          # 1
        "    if self.active >= self.limit:\n"  # 2
        "        return 'overloaded'\n"        # 3
        "    await self.backend.open()\n"      # 4
        "    self.active += 1\n"               # 5
        "    return 'opened'\n"                # 6
    )

    def test_await_marks_a_suspension_point(self):
        _, func = _func(self.RACE)
        cfg = build_cfg(func)
        suspending = {n.statement.lineno for n in cfg.suspending_nodes()}
        assert suspending == {4}

    def test_path_crossing_suspension_is_found(self):
        _, func = _func(self.RACE)
        cfg = build_cfg(func)
        path = cfg.path_crosses_suspension(_stmt(func, 2), _stmt(func, 5))
        assert path is not None
        lines = [node.statement.lineno for node in path]
        assert lines[0] == 2 and lines[-1] == 5
        assert 4 in lines  # the await sits strictly inside the path

    def test_adjacent_statements_do_not_cross(self):
        source = (
            "async def handler(self):\n"
            "    self.active += 1\n"
            "    await self.backend.open()\n"
        )
        _, func = _func(source)
        cfg = build_cfg(func)
        # Reserve-then-await: no strictly interior suspension between
        # the guardless increment and anything before the await.
        assert (
            cfg.path_crosses_suspension(_stmt(func, 2), _stmt(func, 3))
            is None
        )

    def test_loop_back_edge_allows_crossing(self):
        source = (
            "async def poll(self):\n"           # 1
            "    self.seen = 0\n"               # 2
            "    while self.live:\n"            # 3
            "        await self.tick()\n"       # 4
            "        self.seen += 1\n"          # 5
        )
        _, func = _func(source)
        cfg = build_cfg(func)
        # 5 -> back edge -> 4 (await) -> 5 again: crossing exists even
        # though 5 precedes 4 textually.
        assert (
            cfg.path_crosses_suspension(_stmt(func, 5), _stmt(func, 5))
            is None  # same node: no path by definition
        )
        assert (
            cfg.path_crosses_suspension(_stmt(func, 3), _stmt(func, 5))
            is not None
        )


class TestDataflow:
    def test_chain_follows_renames(self):
        source = (
            "def f(addr):\n"      # 1
            "    cursor = addr\n"  # 2
            "    probe = cursor\n"  # 3
            "    return probe\n"   # 4
        )
        _, func = _func(source)
        defs = ReachingDefs(build_cfg(func))
        chain = defs.chain(_stmt(func, 4), "probe")
        assert [d.name for d in chain] == ["probe", "cursor", "addr"]
        assert chain[-1].value is None  # parameter: no defining RHS

    def test_branch_merges_keep_both_definitions(self):
        source = (
            "def f(flag):\n"
            "    x = 1\n"
            "    if flag:\n"
            "        x = 2\n"
            "    return x\n"
        )
        _, func = _func(source)
        defs = ReachingDefs(build_cfg(func))
        reaching = defs.defs_reaching(_stmt(func, 5), "x")
        assert sorted(d.line for d in reaching) == [2, 4]

    def test_width_env_proves_entry_mask_nonneg(self):
        source = (
            "def fold(values, width):\n"
            "    remaining = values & ((1 << 63) - 1)\n"
            "    while True:\n"
            "        remaining = remaining >> width\n"
            "    return remaining\n"
        )
        _, func = _func(source)
        env = WidthEnv(func)
        width = env.at(_stmt(func, 4)).get("remaining")
        assert width is not None and width.nonneg
        assert width.bits == 63

    def test_width_env_degrades_on_loop_carried_growth(self):
        source = (
            "def grow(n):\n"
            "    step = 1\n"
            "    while step < n:\n"
            "        step = step << 1\n"
            "    return step\n"
        )
        _, func = _func(source)
        env = WidthEnv(func)
        width = env.at(_stmt(func, 5)).get("step")
        # Unbounded doubling must walk to "unknown", not diverge or
        # report a finite wrong bound.
        assert width is None or not width.known

    def test_expression_width_arithmetic(self):
        source = (
            "def f(a, b):\n"
            "    lo_a = a & ((1 << 40) - 1)\n"
            "    lo_b = b & ((1 << 40) - 1)\n"
            "    wide = lo_a * lo_b\n"
            "    return wide\n"
        )
        _, func = _func(source)
        env = WidthEnv(func)
        assign = _stmt(func, 4)
        width = expression_width(assign.value, env.at(assign))
        assert width.known and width.bits == 80


class TestTraceReporting:
    def test_json_findings_carry_traces_only_when_present(self):
        result = lint_paths([FIXTURES / "r009_bad.py"], root=REPO_ROOT)
        # The fixture directory is outside the kernels package, so the
        # scoped rule stays silent there — lint the source under a
        # virtual path instead.
        source = (FIXTURES / "r009_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, relpath="src/repro/kernels/fixture.py", rules=["R009"]
        )
        payloads = [f.as_dict() for f in findings]
        assert payloads and all("trace" in p for p in payloads)
        step = payloads[0]["trace"][0]
        assert set(step) >= {"line", "note"}
        # Trace-free findings keep the exact pre-flow key set.
        clean = [
            f.as_dict()
            for f in lint_paths(
                [FIXTURES / "r002_bad.py"], root=REPO_ROOT
            ).findings
        ]
        assert clean and all(
            set(p)
            == {"rule", "path", "line", "message", "symbol", "suppressed"}
            for p in clean
        )
        assert result.errors == []

    def test_sarif_report_shape(self):
        result = lint_paths([FIXTURES / "r002_bad.py"], root=REPO_ROOT)
        payload = json.loads(render_sarif(result))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "R002" in rule_ids
        first = run["results"][0]
        assert first["ruleId"].startswith("R")
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("r002_bad.py")
        assert run["invocations"][0]["executionSuccessful"] is True

    def test_sarif_encodes_traces_as_code_flows(self):
        source = (FIXTURES / "r007_bad.py").read_text(encoding="utf-8")
        findings = lint_source(
            source, relpath="src/repro/serve/fixture.py", rules=["R007"]
        )
        traced = next(f for f in findings if f.trace)
        locations = [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": traced.path},
                    "region": {"startLine": step.line},
                }
            }
            for step in traced.trace
        ]
        assert locations  # the rule produced a def->use trace to encode

    def test_sarif_cli_format(self, capsys):
        code = lint_main(
            ["--format", "sarif", str(FIXTURES / "r002_good.py")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


class TestSuppressionAudit:
    def test_tree_suppressions_are_justified_and_real(self):
        from repro.lint.core import all_rules

        sites = collect_suppressions([SRC_REPRO], root=REPO_ROOT)
        assert sites, "expected the documented in-tree suppressions"
        known = set(all_rules())
        for site in sites:
            assert site.justified, site.format()
            assert set(site.rules) <= known, site.format()

    def test_backtick_quoted_directives_are_not_suppressions(self):
        source = (
            "\"\"\"Docs quote the directive as\n"
            "``# repro-lint: disable=R001`` without suppressing.\n"
            "\"\"\"\n"
        )
        module = ModuleInfo("src/repro/x/mod.py", source)
        assert module.suppression_lines() == {}

    def test_cli_audit_mode(self, capsys):
        code = lint_main(["--list-suppressions", str(SRC_REPRO)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "suppression(s)" in out
        assert "0 audit failure(s)" in out

    def test_cli_audit_flags_unjustified_sites(self, tmp_path, capsys):
        bad = tmp_path / "unjustified.py"
        bad.write_text(
            "import random\n"
            "def roll():\n"
            "    return random.random()  # repro-lint: disable=R002\n",
            encoding="utf-8",
        )
        code = lint_main(["--list-suppressions", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "no justification comment" in out


class TestByteStability:
    def test_text_and_json_unchanged_for_traceless_findings(self):
        result = lint_paths([FIXTURES / "r002_bad.py"], root=REPO_ROOT)
        payload = json.loads(render_json(result))
        for finding in payload["findings"]:
            assert "trace" not in finding
