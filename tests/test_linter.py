"""Fixture tests for the invariant linter: every rule catches its seeded
violation and stays quiet on the matching clean counterexample.

Each rule encodes a historical bug class (see :mod:`repro.analysis.rules`);
the seeded fixtures here are miniature reproductions of those bugs, so a
rule that regresses loses exactly the protection it was built for.  The
suppression-hygiene tests pin the contract that keeps the CI gate honest:
justifications are mandatory, stale suppressions are findings, and
suppression syntax inside string literals is inert.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.cli import main
from repro.analysis.linter import HYGIENE_RULE, registered_rules
from repro.analysis.rules import (
    ALL_RULES,
    REP101,
    REP102,
    REP103,
    REP105,
    REP106,
    REP108,
    REP109,
)
from repro.relational import WorkCounter


def _lint(source: str, path: str = "src/repro/example.py", rules=None):
    return lint_source(textwrap.dedent(source), path, rules=rules)


def _hits(findings, rule_id: str):
    return [f for f in findings if f.rule == rule_id and not f.suppressed]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_every_repo_rule_is_registered():
    ids = [rule.id for rule in registered_rules()]
    assert ids == sorted(ids)
    assert {rule.id for rule in ALL_RULES} <= set(ids)
    for rule in ALL_RULES:
        assert rule.summary and rule.hint and rule.history


# ---------------------------------------------------------------------------
# REP101: unlocked counter mutation
# ---------------------------------------------------------------------------

def test_rep101_flags_unlocked_counter_increment():
    findings = _lint("""
        class EngineStats:
            def note_finish(self):
                self.executions += 1
    """, rules=[REP101])
    (finding,) = _hits(findings, "REP101")
    assert finding.line == 4
    assert "executions" in finding.message
    assert "bump" in finding.hint


def test_rep101_flags_the_historical_planner_fold():
    # The exact shape of the PR 7 true positive in optimizer/planner.py.
    findings = _lint("""
        def _run_adaptive(counter, report):
            counter.max_intermediate = max(counter.max_intermediate,
                                           report.max_intermediate)
    """, rules=[REP101])
    assert _hits(findings, "REP101")


def test_rep101_flags_unlocked_stats_container_write():
    findings = _lint("""
        class Backend:
            def lookup(self, key):
                self.stats["index_misses"] += 1
    """, rules=[REP101])
    assert _hits(findings, "REP101")


def test_rep101_clean_under_lock_and_in_setup():
    findings = _lint("""
        class EngineStats:
            def __init__(self):
                self.executions = 0

            def note_finish(self):
                with self._lock:
                    self.executions += 1

            def restore(self):
                with self._stats_lock:
                    self.stats["index_misses"] += 1
    """, rules=[REP101])
    assert not _hits(findings, "REP101")


def test_observe_max_regression_never_lowers_the_peak():
    # The locked replacement for the planner's raw fold: monotone and atomic.
    counter = WorkCounter()
    counter.observe_max(7)
    assert counter.max_intermediate == 7
    counter.observe_max(3)
    assert counter.max_intermediate == 7
    counter.tally(1, 5)
    assert counter.max_intermediate == 7
    counter.observe_max(11)
    assert counter.max_intermediate == 11


# ---------------------------------------------------------------------------
# REP102: blocking calls inside async def
# ---------------------------------------------------------------------------

def test_rep102_flags_blocking_sleep_in_async_def():
    findings = _lint("""
        import time

        async def handle(request):
            time.sleep(0.1)
            return request
    """, rules=[REP102])
    (finding,) = _hits(findings, "REP102")
    assert "time.sleep" in finding.message
    assert "handle" in finding.message


def test_rep102_flags_subprocess_in_async_def():
    findings = _lint("""
        import subprocess

        async def snapshot(self):
            subprocess.run(["sync"])
    """, rules=[REP102])
    assert _hits(findings, "REP102")


def test_rep102_clean_await_and_sync_context():
    findings = _lint("""
        import asyncio
        import time

        async def handle(request):
            await asyncio.sleep(0.1)
            return request

        def sync_path():
            time.sleep(0.1)
    """, rules=[REP102])
    assert not _hits(findings, "REP102")


# ---------------------------------------------------------------------------
# REP103: cache-invalidation discipline
# ---------------------------------------------------------------------------

def test_rep103_flags_database_mutation_without_revision_bump():
    findings = _lint("""
        class Database:
            def add(self, relation, name):
                self._relations[name] = relation
    """, rules=[REP103])
    (finding,) = _hits(findings, "REP103")
    assert "_revision" in finding.message


def test_rep103_clean_database_mutation_with_revision_bump():
    findings = _lint("""
        class Database:
            def add(self, relation, name):
                self._relations[name] = relation
                self._revision += 1
    """, rules=[REP103])
    assert not _hits(findings, "REP103")


# ---------------------------------------------------------------------------
# REP105: cancellation discipline in the evaluation algorithms
# ---------------------------------------------------------------------------

_UNBOUNDED_LOOP = """
    def reduce_to_fixpoint(counter, pending):
        while True:
            if not pending:
                break
            pending.pop()
"""


def test_rep105_flags_unbounded_loop_without_check():
    findings = _lint(_UNBOUNDED_LOOP,
                     path="src/repro/algorithms/example.py", rules=[REP105])
    (finding,) = _hits(findings, "REP105")
    assert "check()" in finding.message


def test_rep105_clean_when_loop_consults_check():
    findings = _lint("""
        def reduce_to_fixpoint(counter, pending):
            while True:
                counter.check()
                if not pending:
                    break
                pending.pop()
    """, path="src/repro/panda/example.py", rules=[REP105])
    assert not _hits(findings, "REP105")


def test_rep105_only_applies_to_evaluation_modules():
    findings = _lint(_UNBOUNDED_LOOP,
                     path="src/repro/service/example.py", rules=[REP105])
    assert not _hits(findings, "REP105")


# ---------------------------------------------------------------------------
# REP106: raw float comparison against LP objectives
# ---------------------------------------------------------------------------

def test_rep106_flags_raw_objective_threshold():
    findings = _lint("""
        def truncate(solution, threshold):
            if solution.objective >= threshold:
                return []
    """, rules=[REP106])
    (finding,) = _hits(findings, "REP106")
    assert "objective" in finding.message
    assert "1e-9" in finding.message


def test_rep106_flags_lp_value_equality():
    findings = _lint("""
        def agrees(lp_value, expected):
            return lp_value == expected
    """, rules=[REP106])
    assert _hits(findings, "REP106")


def test_rep106_clean_with_named_slack_or_epsilon_literal():
    findings = _lint("""
        TRUNCATION_SLACK = 1e-6

        def truncate(solution, threshold):
            if solution.objective >= threshold - TRUNCATION_SLACK:
                return []
            if solution.objective >= threshold - 1e-6:
                return []
    """, rules=[REP106])
    assert not _hits(findings, "REP106")


# ---------------------------------------------------------------------------
# REP108: counter dicts bypassing the metrics registry
# ---------------------------------------------------------------------------

def test_rep108_flags_unlocked_counter_dict_increment():
    findings = _lint("""
        _CACHE_STATS = {"hits": 0}

        def note_hit():
            _CACHE_STATS["hits"] = _CACHE_STATS.get("hits", 0) + 1
    """, rules=[REP108])
    assert len(_hits(findings, "REP108")) == 1


def test_rep108_flags_stats_counters_attribute_write():
    findings = _lint("""
        class Admission:
            def admit(self):
                self.stats_counters["admitted"] += 1
    """, rules=[REP108])
    assert len(_hits(findings, "REP108")) == 1


def test_rep108_clean_under_lock_and_in_setup():
    findings = _lint("""
        import threading

        _CACHE_STATS = {"hits": 0}
        _STATS_LOCK = threading.Lock()

        def note_hit():
            with _STATS_LOCK:
                _CACHE_STATS["hits"] += 1

        class Admission:
            def __init__(self):
                self.stats_counters = {"admitted": 0}
                self.stats_counters["admitted"] = 0
    """, rules=[REP108])
    assert not _hits(findings, "REP108")


def test_rep108_leaves_rep101_containers_alone():
    # The exact `stats`/`_stats` names are REP101's beat: double-reporting
    # the same mutation under two rules would make every legacy suppression
    # stale.
    findings = _lint("""
        class Backend:
            def note(self):
                self.stats["index_misses"] += 1
    """, rules=[REP108])
    assert not _hits(findings, "REP108")


def test_rep108_keeps_the_shipped_tree_clean():
    # Not even a suppressed finding: the admission controller's counters,
    # once the one sanctioned bypass, now live in a CounterTable too.
    report = lint_paths(["src/repro/"], rules=[REP108])
    assert not report.findings


# ---------------------------------------------------------------------------
# REP109: wall-clock waits in tests
# ---------------------------------------------------------------------------

def test_rep109_flags_sleep_and_real_deadlines_in_tests():
    findings = _lint("""
        import time

        from repro.utils.cancellation import CancellationToken

        def test_deadline_race():
            token = CancellationToken.with_timeout(0.2)
            time.sleep(0.5)
            token.check()

        class TestWorkers:
            async def test_nested_helper(self):
                def wait():
                    time.sleep(0.1)
                wait()
    """, path="tests/test_example.py", rules=[REP109])
    hits = _hits(findings, "REP109")
    assert [(f.line, f.message.split("(")[0]) for f in hits] == [
        (7, "CancellationToken.with_timeout"), (8, "time.sleep"),
        (14, "time.sleep")]
    assert "test_deadline_race" in hits[0].message


def test_rep109_clean_with_the_stepping_clock_and_outside_tests():
    findings = _lint("""
        import asyncio
        import time

        from repro.utils.cancellation import CancellationToken

        def test_deadline(stepping_clock):
            CancellationToken.with_timeout(0.2).check()
            time.sleep(0.1)

        async def test_event_loop_yield():
            await asyncio.sleep(0.01)

        def slow_helper():
            time.sleep(0.1)
    """, path="tests/test_example.py", rules=[REP109])
    assert not _hits(findings, "REP109")


def test_rep109_keeps_the_shipped_tests_clean():
    report = lint_paths([Path(__file__).parent], rules=[REP109])
    assert not [f for f in report.findings if not f.suppressed]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_justified_suppression_silences_and_is_reported():
    findings = _lint("""
        class EngineStats:
            def note(self):
                self.executions += 1  # repro-analysis: allow[REP101] -- single-threaded bootstrap
    """)
    (finding,) = [f for f in findings if f.rule == "REP101"]
    assert finding.suppressed
    assert finding.justification == "single-threaded bootstrap"
    assert not [f for f in findings if not f.suppressed]


def test_comment_only_line_shields_the_next_line():
    findings = _lint("""
        class EngineStats:
            def note(self):
                # repro-analysis: allow[REP101] -- single-threaded bootstrap
                self.executions += 1
    """)
    (finding,) = [f for f in findings if f.rule == "REP101"]
    assert finding.suppressed


def test_wildcard_suppression_covers_any_rule():
    findings = _lint("""
        class EngineStats:
            def note(self):
                self.executions += 1  # repro-analysis: allow[*] -- fixture exercising the wildcard
    """)
    (finding,) = [f for f in findings if f.rule == "REP101"]
    assert finding.suppressed


def test_unjustified_suppression_is_a_finding_and_does_not_suppress():
    findings = _lint("""
        class EngineStats:
            def note(self):
                self.executions += 1  # repro-analysis: allow[REP101]
    """)
    assert _hits(findings, "REP101"), "bare allow must not suppress"
    (hygiene,) = _hits(findings, HYGIENE_RULE)
    assert "justification" in hygiene.message


def test_unused_suppression_is_a_finding_under_the_full_rule_set():
    findings = _lint("""
        def quiet():
            return 0  # repro-analysis: allow[REP101] -- nothing here anymore
    """)
    (hygiene,) = _hits(findings, HYGIENE_RULE)
    assert "matches no finding" in hygiene.message


def test_unused_suppression_is_legal_under_a_partial_rule_set():
    findings = _lint("""
        def quiet():
            return 0  # repro-analysis: allow[REP106] -- epsilon handled upstream
    """, rules=[REP101])
    assert not findings


def test_suppression_syntax_inside_strings_is_inert():
    findings = _lint('''
        EXAMPLE = "# repro-analysis: allow[REP101] -- not a real comment"

        def doc():
            """Docs may show `# repro-analysis: allow[REP101]` verbatim."""
            return EXAMPLE
    ''')
    assert not findings


def test_unparseable_file_is_a_hygiene_finding():
    findings = lint_source("def broken(:\n", "src/repro/broken.py")
    (finding,) = findings
    assert finding.rule == HYGIENE_RULE
    assert "does not parse" in finding.message


# ---------------------------------------------------------------------------
# report shape, file walking and the CLI
# ---------------------------------------------------------------------------

VIOLATION_MODULE = textwrap.dedent("""
    class EngineStats:
        def note(self):
            self.executions += 1
""")

CLEAN_MODULE = textwrap.dedent("""
    class EngineStats:
        def __init__(self):
            self.executions = 0
""")


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "bad.py").write_text(VIOLATION_MODULE)
    nested = tmp_path / "pkg"
    nested.mkdir()
    (nested / "good.py").write_text(CLEAN_MODULE)
    report = lint_paths([tmp_path])
    assert not report.clean
    assert [f.rule for f in report.unsuppressed] == ["REP101"]
    assert report.unsuppressed[0].path.endswith("bad.py")


def test_report_json_shape(tmp_path):
    (tmp_path / "bad.py").write_text(VIOLATION_MODULE)
    payload = json.loads(lint_paths([tmp_path]).to_json())
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["clean"] is False
    assert payload["summary"]["by_rule"] == {"REP101": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP101"
    assert finding["line"] == 4
    assert finding["hint"]
    assert finding["suppressed"] is False


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATION_MODULE)
    good = tmp_path / "good.py"
    good.write_text(CLEAN_MODULE)

    assert main([str(good)]) == 0
    assert "no findings" in capsys.readouterr().out

    assert main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["by_rule"] == {"REP101": 1}

    assert main([str(bad), "--rule", "REP102"]) == 0
    capsys.readouterr()


def test_cli_rejects_unknown_rule_ids(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--rule", "REP999"])
    assert excinfo.value.code == 2


def test_cli_lists_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out
        assert rule.history.splitlines()[0][:20] in out
