"""The repo-specific invariant rules, each encoding a historical bug class.

Every rule here is a post-mortem turned executable:

* **REP101** — PR 4 and PR 6 each fixed an unlocked read-modify-write race on
  shared counters (``WorkCounter`` losing parallel counts, then
  ``EngineStats`` losing simultaneous-finish increments).  Counter fields may
  only move under their lock or through the atomic ``bump()``/``tally()``
  batch updates.
* **REP102** — the asyncio service (PR 6) serves every tenant from one event
  loop; a single blocking call (``time.sleep``, sync sockets, subprocess,
  file IO) inside an ``async def`` stalls *all* tenants, which no test
  notices at small scale.
* **REP103** — relations are immutable, so ``Database.revision`` is the one
  signal that invalidates the engine's statistics memo and prepared
  queries; a ``Database`` mutation path that forgets to bump it serves
  answers planned against the old contents.
* **REP105** — cooperative cancellation (PR 6) only works if every unbounded
  loop in the evaluation algorithms consults ``WorkCounter.check()``; a loop
  that forgets makes deadline overshoot unbounded.
* **REP106** — PR 2's dropped-answer soundness bug was a raw float threshold
  against an LP objective that undershoots its exact optimum by ~1e-9.
  Comparing an LP objective with ``==``/``>=`` and no epsilon slack is how
  answers silently disappear.
* **REP108** — the telemetry layer (PR 9) exposes every layer's counters
  through the metrics registry, so ``/metrics`` and ``/stats`` reconcile by
  construction; that only holds if counter dicts (``*_stats``/``*_counters``)
  move under a lock or through a ``CounterTable``'s atomic ``add``.  REP101
  polices the two original containers; REP108 extends the discipline to
  every dict the registry scrapes.
* **REP109** — a cancellation test raced a 0.2 s deadline against an
  injected 5 s sleep, so tier 1's verdict depended on how loaded the host
  was.  A test that sleeps or sets a real deadline must take the
  ``stepping_clock`` fixture, whose readings advance one second per check.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.findings import Finding
from repro.analysis.linter import LintRule, ModuleContext, register_rule

# ---------------------------------------------------------------------------
# REP101: unlocked mutation of shared counters
# ---------------------------------------------------------------------------

#: Fields of EngineStats and WorkCounter — the two counter objects shared
#: between worker threads.  Moving one outside a lock (or the owners' atomic
#: ``bump``/``tally``/``observe_max`` methods, which lock internally) is a
#: lost-update race.
COUNTER_FIELDS = frozenset({
    # EngineStats
    "plans_built", "plans_reused", "plans_verified",
    "statistics_measured", "statistics_reused",
    "executions", "cancelled_executions", "invalidations",
    "wall_time_seconds",
    # WorkCounter
    "intermediate_tuples", "max_intermediate", "materializations",
})

#: Attribute/variable names holding shared counter dictionaries (the storage
#: backends' ``self.stats``, the kernel layer's module-global ``_stats``).
STATS_CONTAINERS = frozenset({"stats", "_stats"})

#: Functions allowed to move counters without an enclosing ``with ...lock``:
#: construction and unpickling happen before the object is shared.
_SETUP_FUNCTIONS = frozenset({"__init__", "__new__", "__setstate__",
                              "__post_init__"})


def _check_counter_mutation(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            hit = None
            if isinstance(target, ast.Attribute) and target.attr in COUNTER_FIELDS:
                hit = f"counter field {target.attr!r}"
            elif isinstance(target, ast.Subscript):
                container = target.value
                name = (container.attr if isinstance(container, ast.Attribute)
                        else container.id if isinstance(container, ast.Name)
                        else None)
                if name in STATS_CONTAINERS:
                    hit = f"stats container {name!r}"
            if hit is None:
                continue
            function = context.enclosing_function(node)
            if function is not None and function.name in _SETUP_FUNCTIONS:
                continue
            if context.under_lock(node):
                continue
            findings.append(REP101.finding(
                context, node,
                f"unlocked read-modify-write of {hit}: concurrent finishers "
                "lose increments exactly like the PR 4/PR 6 counter races"))
    return findings


REP101 = register_rule(LintRule(
    id="REP101",
    name="unlocked-counter-mutation",
    summary="EngineStats/WorkCounter counters and stats dicts move only "
            "under a lock or through bump()/tally()",
    hint="route the update through the owner's atomic method "
         "(EngineStats.bump, WorkCounter.tally/observe_max, CounterTable.add) "
         "or wrap it in `with self._lock:`",
    history="PR 4 (WorkCounter lost parallel counts) and PR 6 (EngineStats "
            "lost simultaneous-finish increments)",
    check=_check_counter_mutation,
))

# ---------------------------------------------------------------------------
# REP102: blocking calls inside async def
# ---------------------------------------------------------------------------

_BLOCKING_EXACT = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.socket", "socket.create_connection", "open", "input",
    "urllib.request.urlopen",
})
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "shutil.", "http.client.")


def _check_async_blocking(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ModuleContext.dotted_name(node.func)
        if dotted is None:
            continue
        if dotted not in _BLOCKING_EXACT and \
                not dotted.startswith(_BLOCKING_PREFIXES):
            continue
        function = context.enclosing_function(node)
        if not isinstance(function, ast.AsyncFunctionDef):
            continue
        findings.append(REP102.finding(
            context, node,
            f"blocking call {dotted}() inside `async def {function.name}`: "
            "it stalls the whole event loop, every tenant at once"))
    return findings


REP102 = register_rule(LintRule(
    id="REP102",
    name="async-blocking-call",
    summary="no time.sleep / subprocess / sync sockets / file IO inside "
            "`async def` (the multi-tenant service shares one event loop)",
    hint="use `await asyncio.sleep(...)` for delays, or push the blocking "
         "work into `await asyncio.to_thread(...)` / `loop.run_in_executor`",
    history="PR 6's asyncio service: one blocked coroutine freezes every "
            "tenant's queries at once",
    check=_check_async_blocking,
))

# ---------------------------------------------------------------------------
# REP103: cache-invalidation discipline on mutation paths
# ---------------------------------------------------------------------------


def _self_attribute(node: ast.AST) -> str | None:
    """``attr`` when the node is exactly ``self.<attr>``."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


_MUTATOR_METHODS = frozenset({
    "add", "append", "extend", "insert", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "__setitem__",
})


def _method_mutations(method: ast.FunctionDef) -> list[tuple[ast.AST, str]]:
    """``(node, attr)`` for every mutation of a ``self._x`` attribute."""
    mutations: list[tuple[ast.AST, str]] = []
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                attr = _self_attribute(node.func.value)
                if attr is not None and attr.startswith("_"):
                    mutations.append((node, attr))
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = _self_attribute(target.value)
                    if attr is not None and attr.startswith("_"):
                        mutations.append((node, attr))
    return mutations


def _writes_attribute(method: ast.FunctionDef, attribute: str) -> bool:
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if _self_attribute(target) == attribute:
                    return True
    return False


def _check_cache_invalidation(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for klass in ast.walk(context.tree):
        # Relations are immutable, so Database mutation paths are the only
        # change there is: each must bump the revision counter that the
        # statistics memo and prepared-query validation read.
        if not (isinstance(klass, ast.ClassDef) and klass.name == "Database"):
            continue
        for method in klass.body:
            if not isinstance(method, ast.FunctionDef) or \
                    method.name in _SETUP_FUNCTIONS:
                continue
            relation_mutations = [
                (node, attr) for node, attr in _method_mutations(method)
                if attr == "_relations"]
            if relation_mutations and \
                    not _writes_attribute(method, "_revision"):
                node, _ = relation_mutations[0]
                findings.append(REP103.finding(
                    context, node,
                    f"Database.{method.name} mutates self._relations without "
                    "bumping self._revision: prepared queries keep "
                    "serving plans validated against the old contents"))
    return findings


REP103 = register_rule(LintRule(
    id="REP103",
    name="cache-invalidation-discipline",
    summary="Database mutations must bump self._revision, the one "
            "cache-invalidation signal",
    hint="increment `self._revision` on every mutation path so the "
         "statistics memo and PreparedQuery._refresh re-resolve",
    history="the PR 1/PR 5 memo layers and PR 4's revision-validated "
            "prepared queries: a forgotten invalidation serves stale indexes",
    check=_check_cache_invalidation,
))

# ---------------------------------------------------------------------------
# REP105: cancellation discipline in the evaluation algorithms
# ---------------------------------------------------------------------------


def _is_unbounded_loop(node: ast.While) -> bool:
    test = node.test
    if isinstance(test, ast.Constant):
        return bool(test.value)
    return False


def _check_cancellation_discipline(context: ModuleContext) -> list[Finding]:
    path = context.path.replace("\\", "/")
    if "algorithms/" not in path and "/panda/" not in path:
        return []
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.While) or not _is_unbounded_loop(node):
            continue
        consults = any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "check"
            for inner in ast.walk(node))
        if not consults:
            findings.append(REP105.finding(
                context, node,
                "unbounded `while True` loop never consults "
                "WorkCounter.check(): a deadline-exceeded query overshoots "
                "without bound inside this loop"))
    return findings


REP105 = register_rule(LintRule(
    id="REP105",
    name="cancellation-discipline",
    summary="unbounded loops in the evaluation algorithms must consult "
            "WorkCounter.check() so deadlines trip cooperatively",
    hint="call `counter.check()` once per iteration (or every "
         "CHECK_INTERVAL steps, like the generic join does)",
    history="PR 6's deadline tests assert bounded overshoot; a loop that "
            "skips check() breaks that bound silently",
    check=_check_cancellation_discipline,
))

# ---------------------------------------------------------------------------
# REP106: raw float comparison against LP objectives
# ---------------------------------------------------------------------------

_OBJECTIVE_RE = re.compile(r"(^|_)objective(_|$)|(^|_)lp_(optimum|value)($|_)")
_EPSILON_RE = re.compile(r"(?i)eps|slack|tol")
_RAW_OPS = (ast.Eq, ast.NotEq, ast.Gt, ast.GtE, ast.Lt, ast.LtE)


def _mentions(node: ast.AST, pattern: re.Pattern) -> bool:
    for inner in ast.walk(node):
        text = None
        if isinstance(inner, ast.Name):
            text = inner.id
        elif isinstance(inner, ast.Attribute):
            text = inner.attr
        if text is not None and pattern.search(text.lower()):
            return True
    return False


def _has_epsilon_evidence(node: ast.AST) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, (ast.Name, ast.Attribute)):
            text = inner.id if isinstance(inner, ast.Name) else inner.attr
            if _EPSILON_RE.search(text):
                return True
        if isinstance(inner, ast.Constant) and \
                isinstance(inner.value, float) and \
                0.0 < abs(inner.value) < 1e-2:
            return True
    return False


def _check_float_lp_compare(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, _RAW_OPS) for op in node.ops):
            continue
        if not _mentions(node, _OBJECTIVE_RE):
            continue
        if _has_epsilon_evidence(node):
            continue
        findings.append(REP106.finding(
            context, node,
            f"raw float comparison against an LP objective "
            f"(`{ast.unparse(node)}`): HiGHS undershoots the exact optimum "
            "by ~1e-9, so exact thresholds silently drop answers"))
    return findings


REP106 = register_rule(LintRule(
    id="REP106",
    name="float-lp-objective-compare",
    summary="never compare an LP objective with raw ==/>=/<= — always "
            "allow an explicit epsilon/slack",
    hint="compare against `value - SLACK` / `value * (1 - SLACK)` with a "
         "named tolerance (see panda.executor.TRUNCATION_SLACK)",
    history="PR 2's dropped-answer soundness bug: a truncation threshold "
            "1e-9 above the true 1/B, because the flow LP's objective "
            "undershoots while body-tuple weights attain 1/B exactly",
    check=_check_float_lp_compare,
))

# ---------------------------------------------------------------------------
# REP108: counter dicts bypass the metrics registry
# ---------------------------------------------------------------------------

#: Container names REP101 already polices (exact, case-sensitive) — REP108
#: covers everything else that *looks like* a counter dict.
_REP101_CONTAINERS = frozenset({"stats", "_stats"})


def _is_counter_container(name: str | None) -> bool:
    """Does ``name`` look like a shared counter/stats dict?

    Matches ``*_stats``/``*_counters`` (any case — module-global counter
    dicts are upper-case by convention) plus the bare ``counters`` /
    ``stats_counters`` names, but leaves the exact ``stats``/``_stats``
    containers to REP101, which owns their history.
    """
    if name is None or name in _REP101_CONTAINERS:
        return False
    lowered = name.lower()
    return (lowered.endswith(("_stats", "_counters"))
            or lowered in ("counters", "stats_counters"))


def _check_unregistered_counter_path(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Subscript):
                continue
            container = target.value
            name = (container.attr if isinstance(container, ast.Attribute)
                    else container.id if isinstance(container, ast.Name)
                    else None)
            if not _is_counter_container(name):
                continue
            function = context.enclosing_function(node)
            if function is not None and function.name in _SETUP_FUNCTIONS:
                continue
            if context.under_lock(node):
                continue
            findings.append(REP108.finding(
                context, node,
                f"counter dict {name!r} mutated outside a lock and outside "
                "the metrics registry: the sample a concurrent /metrics "
                "scrape (or /stats snapshot) reads can be torn or lost"))
    return findings


REP108 = register_rule(LintRule(
    id="REP108",
    name="unregistered-counter-path",
    summary="counter dicts (*_stats, *_counters) move only under a lock or "
            "through a CounterTable / the owner's locked bump()/tally()",
    hint="keep the counts in a telemetry CounterTable and move them with its "
         "add()/add_many(), or wrap the update in `with <lock>:` so scrapes "
         "see consistent values",
    history="the telemetry layer exposes every layer's counter dict via "
            "pull sources; an unlocked mutation path makes /metrics and "
            "/stats disagree in exactly the way the reconciliation tests "
            "forbid",
    check=_check_unregistered_counter_path,
))

# ---------------------------------------------------------------------------
# REP109: wall-clock waits in tests
# ---------------------------------------------------------------------------

#: The fixture that makes deadlines deterministic (``tests/conftest.py``).
_CLOCK_FIXTURE = "stepping_clock"


def _check_wall_clock_tests(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for function in ast.walk(context.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or not function.name.startswith("test_"):
            continue
        arguments = function.args
        if any(arg.arg == _CLOCK_FIXTURE for arg in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs)):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            dotted = ModuleContext.dotted_name(node.func)
            if dotted == "time.sleep" or (
                    dotted is not None and dotted.endswith(".with_timeout")):
                findings.append(REP109.finding(
                    context, node,
                    f"{dotted}() in `{function.name}`, which does not take "
                    f"the {_CLOCK_FIXTURE} fixture: the verdict depends on "
                    "the host's wall clock"))
    return findings


REP109 = register_rule(LintRule(
    id="REP109",
    name="wall-clock-test",
    summary="test functions that call time.sleep or "
            "CancellationToken.with_timeout must take the stepping_clock "
            "fixture",
    hint="add the `stepping_clock` fixture (deadline readings advance one "
         "second per check), or trip the token after a fixed number of "
         "checks instead of sleeping",
    history="a cancellation test raced a 0.2 s deadline against an injected "
            "5 s sleep: tier 1 passed or failed with the host's load",
    check=_check_wall_clock_tests,
))

#: The full repo rule set, in id order (used by docs and tests).
ALL_RULES = (REP101, REP102, REP103, REP105, REP106, REP108, REP109)
