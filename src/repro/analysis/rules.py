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
* **REP103** — the columnar backends memoize indexes/kernel tables and the
  engine validates prepared queries against ``Database.revision``; a
  mutation path that forgets to clear memos or bump the revision serves
  answers from a stale index.  (PR 1/PR 5 built the memo layers; the engine's
  revision-validated prepared queries came in PR 4.)
* **REP104** — process-pool shard dispatch pickles its payloads; a lambda or
  closure smuggled into a payload (or submitted as the worker function)
  fails only at runtime, on the first sharded query, in production.
* **REP105** — cooperative cancellation (PR 6) only works if every unbounded
  loop in the evaluation algorithms consults ``WorkCounter.check()``; a loop
  that forgets makes deadline overshoot unbounded.
* **REP106** — PR 2's dropped-answer soundness bug was a raw float threshold
  against an LP objective that undershoots its exact optimum by ~1e-9.
  Comparing an LP objective with ``==``/``>=`` and no epsilon slack is how
  answers silently disappear.
* **REP107** — the fault-tolerant dispatch paths (PR 8) are built on the
  rule that *every* failure is observable: retried, counted or re-raised.
  A bare ``except Exception:`` in a dispatch/worker path that neither
  re-raises nor records to a counter/stats object swallows faults the
  chaos harness (and production operators) can never see.
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


def _calls_method(method: ast.FunctionDef, name: str) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and \
                _self_attribute(node.func) == name:
            return True
    return False


_INVALIDATION_EXEMPT = frozenset({"_invalidate", "share",
                                  "__getstate__", "__setstate__"}
                                 | _SETUP_FUNCTIONS)


def _check_cache_invalidation(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for klass in ast.walk(context.tree):
        if not isinstance(klass, ast.ClassDef):
            continue
        methods = {node.name: node for node in klass.body
                   if isinstance(node, ast.FunctionDef)}
        # Backend discipline: a class with an `_invalidate` memo-clearer must
        # call it from every method that mutates non-memo (source) state.
        invalidate = methods.get("_invalidate")
        if invalidate is not None:
            memo_attrs = {attr for _, attr in _method_mutations(invalidate)}
            for node in ast.walk(invalidate):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        attr = _self_attribute(target)
                        if attr is not None:
                            memo_attrs.add(attr)
            for name, method in methods.items():
                if name in _INVALIDATION_EXEMPT:
                    continue
                source_mutations = [
                    (node, attr) for node, attr in _method_mutations(method)
                    if attr not in memo_attrs]
                if source_mutations and not _calls_method(method, "_invalidate"):
                    node, attr = source_mutations[0]
                    findings.append(REP103.finding(
                        context, node,
                        f"{klass.name}.{name} mutates source state "
                        f"`self.{attr}` without calling self._invalidate(): "
                        "memoized indexes/kernel tables keep serving the "
                        "pre-mutation data"))
        # Engine discipline: Database mutation paths must bump the revision
        # counter that prepared-query validation reads.
        if klass.name == "Database":
            for name, method in methods.items():
                if name in _SETUP_FUNCTIONS:
                    continue
                relation_mutations = [
                    (node, attr) for node, attr in _method_mutations(method)
                    if attr == "_relations"]
                if relation_mutations and \
                        not _writes_attribute(method, "_revision"):
                    node, _ = relation_mutations[0]
                    findings.append(REP103.finding(
                        context, node,
                        f"Database.{name} mutates self._relations without "
                        "bumping self._revision: prepared queries keep "
                        "serving plans validated against the old contents",
                        hint="increment `self._revision` on every mutation "
                             "path so PreparedQuery._refresh re-resolves"))
    return findings


REP103 = register_rule(LintRule(
    id="REP103",
    name="cache-invalidation-discipline",
    summary="backend mutation paths must clear kernel/index memos "
            "(self._invalidate()) and Database mutations must bump "
            "self._revision",
    hint="call `self._invalidate()` after mutating backend source state; "
         "memo attributes are exactly those cleared inside _invalidate",
    history="the PR 1/PR 5 memo layers and PR 4's revision-validated "
            "prepared queries: a forgotten invalidation serves stale indexes",
    check=_check_cache_invalidation,
))

# ---------------------------------------------------------------------------
# REP104: pickle-safety of process-worker payloads
# ---------------------------------------------------------------------------


def _nested_function_names(tree: ast.Module) -> frozenset[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()

    def visit(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                visit(child, True)
            elif isinstance(child, ast.Lambda):
                visit(child, inside_function)
            else:
                visit(child, inside_function)

    visit(tree, False)
    return frozenset(nested)


def _is_process_pool_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    callee = ModuleContext.dotted_name(node.func) or ""
    return callee.split(".")[-1] == "ProcessPoolExecutor"


def _process_pool_scopes(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(pool name, scope node)`` pairs: the region where the name IS a
    process pool.

    A ``with ProcessPoolExecutor(...) as pool:`` binds the name only for the
    ``with`` body (the same name often rebinds to a thread pool in a sibling
    branch — scoping to the block keeps that legal); a plain assignment
    binds it for the enclosing module/function.
    """
    scopes: list[tuple[str, ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if _is_process_pool_call(item.context_expr) and \
                        isinstance(item.optional_vars, ast.Name):
                    scopes.append((item.optional_vars.id, node))
        elif isinstance(node, ast.Assign) and \
                _is_process_pool_call(node.value) and \
                len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            scopes.append((node.targets[0].id, tree))
    return scopes


def _check_payload_pickle_safety(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    nested = _nested_function_names(context.tree)
    for pool_name, scope in _process_pool_scopes(context.tree):
        for node in ast.walk(scope):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("map", "submit")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == pool_name and node.args):
                continue
            worker = node.args[0]
            if isinstance(worker, ast.Lambda):
                findings.append(REP104.finding(
                    context, worker,
                    "lambda submitted to a ProcessPoolExecutor: lambdas "
                    "cannot pickle, the dispatch dies at runtime on the "
                    "first sharded query"))
            elif isinstance(worker, ast.Name) and worker.id in nested:
                findings.append(REP104.finding(
                    context, worker,
                    f"locally-defined function {worker.id!r} submitted to a "
                    "ProcessPoolExecutor: closures cannot pickle under "
                    "spawn, so the dispatch is platform-dependent"))
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Lambda):
            function = context.enclosing_function(node)
            if function is not None and "payload" in function.name:
                findings.append(REP104.finding(
                    context, node,
                    f"lambda placed inside {function.name}(): shard payloads "
                    "cross the process boundary and must stay picklable"))
    return findings


REP104 = register_rule(LintRule(
    id="REP104",
    name="payload-pickle-safety",
    summary="process-worker shard payloads and submitted worker functions "
            "must be picklable: no lambdas, no local closures",
    hint="hoist the worker to a module-level function and ship plain data "
         "in the payload (the thread executor may keep its lambda)",
    history="the PR 5 encoded shard payloads: pickling failures surface "
            "only at runtime, inside the pool, as BrokenProcessPool",
    check=_check_payload_pickle_safety,
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
# REP107: swallowed exceptions in dispatch/worker paths
# ---------------------------------------------------------------------------

#: Call-name fragments that count as "recording" a failure: routing it into
#: a counter/stats object (bump/tally/absorb/count), a result/ack channel
#: (put), or an explicit log/note sink.
_RECORDING_TOKENS = ("bump", "tally", "record", "put", "note", "count",
                     "absorb", "log")

_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or ``except Exception/BaseException`` (incl. tuples)."""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in _BROAD_EXCEPTION_NAMES:
            return True
    return False


def _handler_observes_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or records the failure somewhere."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            dotted = ModuleContext.dotted_name(node.func)
            if dotted is not None:
                last = dotted.split(".")[-1].lower()
                if any(token in last for token in _RECORDING_TOKENS):
                    return True
        if isinstance(node, ast.AugAssign) and \
                isinstance(node.target, (ast.Attribute, ast.Subscript)):
            # `self.failures += 1` / `counters["task_failures"] += 1`
            return True
    return False


def _in_dispatch_scope(context: ModuleContext, node: ast.AST) -> bool:
    path = context.path.replace("\\", "/")
    if "engine/" in path:
        return True
    function = context.enclosing_function(node)
    if function is None:
        return False
    name = function.name.lower()
    return "worker" in name or "dispatch" in name


def _check_swallowed_dispatch_errors(context: ModuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node):
            continue
        if not _in_dispatch_scope(context, node):
            continue
        if _handler_observes_failure(node):
            continue
        shape = "bare `except:`" if node.type is None \
            else f"`except {ast.unparse(node.type)}:`"
        findings.append(REP107.finding(
            context, node,
            f"{shape} in a dispatch/worker path neither re-raises nor "
            "records the failure: the fault becomes invisible to retry "
            "accounting, EngineStats and the chaos harness"))
    return findings


REP107 = register_rule(LintRule(
    id="REP107",
    name="swallowed-dispatch-error",
    summary="broad exception handlers in dispatch/worker paths must "
            "re-raise or record the failure to a counter/stats/result "
            "channel",
    hint="re-raise after cleanup, or route the failure into an observable "
         "sink (stats.bump(...), run counters, result_queue.put(('err', ...)))"
         " — or narrow the except to the specific expected type",
    history="PR 8's fault-tolerant executor: every retry/respawn decision "
            "reads failure signals, so a swallowed exception disables "
            "fault tolerance silently",
    check=_check_swallowed_dispatch_errors,
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
ALL_RULES = (REP101, REP102, REP103, REP104, REP105, REP106, REP107, REP108,
             REP109)
