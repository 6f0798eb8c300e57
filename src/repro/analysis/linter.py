"""The AST invariant linter: rule registry, suppressions, file walking.

The runtime never re-checks the invariants its correctness rests on — that a
shared counter is only moved under its lock, that an ``async def`` never
blocks the event loop, that a backend mutation clears the memos derived from
it.  This module is the *framework* half of enforcing them statically: it
parses each source file once, hands the tree to every registered
:class:`LintRule` (the repo-specific rules live in
:mod:`repro.analysis.rules`) and reconciles the findings with justified
inline suppressions.

Suppressions
------------
A finding is suppressed by a comment on the offending line (or on a
comment-only line directly above it)::

    counter.value += 1  # repro-analysis: allow[REP101] -- single-threaded setup path

The justification after ``--`` is mandatory: a bare ``allow`` is itself a
finding (``REP100``), as is a suppression that no longer matches any finding
— suppressions must never outlive the code they excuse.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.analysis.findings import Finding, Report

#: Rule id for analysis hygiene problems: unparseable files, suppressions
#: without a justification, suppressions that match no finding.
HYGIENE_RULE = "REP100"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-analysis:\s*allow\[(?P<rules>[A-Z0-9*,\s]+)\]"
    r"(?:\s*--\s*(?P<why>.*\S))?\s*$")


class ModuleContext:
    """One parsed module plus the cross-cutting lookups every rule needs."""

    def __init__(self, tree: ast.Module, source: str, path: str) -> None:
        self.tree = tree
        self.source = source
        self.path = path
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # ------------------------------------------------------------- traversal
    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
            self, node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """The nearest ``def``/``async def`` the node's code runs inside."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def under_lock(self, node: ast.AST) -> bool:
        """True when the node executes inside ``with <something>lock...:``.

        The lock convention is lexical and repo-wide: every mutex in the tree
        is named ``*lock*`` (``self._lock``, ``self._stats_lock``,
        ``_stats_lock``), so holding one is detectable as an enclosing
        ``with`` whose context expression mentions ``lock``.
        """
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    if "lock" in ast.unparse(item.context_expr).lower():
                        return True
        return False

    @staticmethod
    def dotted_name(node: ast.AST) -> str | None:
        """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None


@dataclass(frozen=True)
class LintRule:
    """One registered invariant check.

    ``history`` names the production/triage incident the rule encodes, so a
    future reader knows the failure is real, not theoretical.
    """

    id: str
    name: str
    summary: str
    hint: str
    history: str
    check: Callable[[ModuleContext], list[Finding]] = field(compare=False)

    def finding(self, context: ModuleContext, node: ast.AST,
                message: str, hint: str | None = None) -> Finding:
        return Finding(rule=self.id, path=context.path,
                       line=getattr(node, "lineno", 1),
                       column=getattr(node, "col_offset", 0),
                       message=message,
                       hint=self.hint if hint is None else hint)


_REGISTRY: dict[str, LintRule] = {}


def register_rule(rule: LintRule) -> LintRule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return rule


def registered_rules() -> tuple[LintRule, ...]:
    """Every registered rule, importing the repo rule set on first use."""
    from repro.analysis import rules as _rules  # noqa: F401  (registration side effect)

    return tuple(_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY))


@dataclass
class _Suppression:
    line: int            # the source line the comment sits on
    covers: int          # the code line it applies to
    rules: tuple[str, ...]
    justification: str
    used: bool = False


def _comment_tokens(source: str) -> list[tuple[int, int, str]]:
    """``(line, column, text)`` for every real comment token.

    Tokenizing (rather than regex-scanning raw lines) keeps suppression
    syntax inside string literals and docstrings inert — only actual
    comments can suppress a finding.
    """
    import io
    import tokenize

    comments: list[tuple[int, int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.start[1], token.string))
    except tokenize.TokenError:  # pragma: no cover - parse errors reported separately
        pass
    return comments


def _collect_suppressions(source: str, path: str) -> tuple[list[_Suppression],
                                                           list[Finding]]:
    suppressions: list[_Suppression] = []
    hygiene: list[Finding] = []
    for number, column, text in _comment_tokens(source):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rule_ids = tuple(part.strip() for part in match.group("rules").split(",")
                         if part.strip())
        justification = (match.group("why") or "").strip()
        covers = number
        if column == 0 or source.splitlines()[number - 1][:column].strip() == "":
            # A comment-only line shields the next source line.
            covers = number + 1
        if not justification:
            hygiene.append(Finding(
                rule=HYGIENE_RULE, path=path, line=number,
                column=column,
                message=f"suppression allow[{', '.join(rule_ids)}] has no "
                        "justification",
                hint="write `# repro-analysis: allow[RULE] -- <why this is "
                     "safe>`; unjustified suppressions are findings"))
            continue
        suppressions.append(_Suppression(line=number, covers=covers,
                                         rules=rule_ids,
                                         justification=justification))
    return suppressions, hygiene


def lint_source(source: str, path: str,
                rules: Sequence[LintRule] | None = None,
                check_unused_suppressions: bool | None = None) -> list[Finding]:
    """Lint one module's source text; returns findings (suppressed included).

    ``check_unused_suppressions`` defaults to "only when the full registered
    rule set runs" — under a partial rule set a suppression for an unselected
    rule is legitimately idle, not stale.
    """
    full_set = rules is None
    selected = registered_rules() if rules is None else tuple(rules)
    if check_unused_suppressions is None:
        check_unused_suppressions = full_set
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(rule=HYGIENE_RULE, path=path,
                        line=error.lineno or 1, column=error.offset or 0,
                        message=f"file does not parse: {error.msg}",
                        hint="fix the syntax error; unparseable files cannot "
                             "be verified")]
    suppressions, findings = _collect_suppressions(source, path)
    context = ModuleContext(tree, source, path)
    for rule in selected:
        findings.extend(rule.check(context))
    for finding in findings:
        if finding.rule == HYGIENE_RULE:
            continue
        for suppression in suppressions:
            if (finding.line == suppression.covers
                    and (finding.rule in suppression.rules
                         or "*" in suppression.rules)):
                finding.suppressed = True
                finding.justification = suppression.justification
                suppression.used = True
                break
    if check_unused_suppressions:
        for suppression in suppressions:
            if not suppression.used:
                findings.append(Finding(
                    rule=HYGIENE_RULE, path=path, line=suppression.line,
                    column=0,
                    message=f"suppression allow[{', '.join(suppression.rules)}] "
                            "matches no finding",
                    hint="delete the stale suppression — it no longer excuses "
                         "anything"))
    findings.sort(key=lambda f: (f.line, f.column, f.rule))
    return findings


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: Sequence[str | Path],
               rules: Sequence[LintRule] | None = None) -> Report:
    """Lint every ``.py`` file under ``paths`` into one :class:`Report`."""
    report = Report()
    for file_path in iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        report.extend(lint_source(source, str(file_path), rules=rules))
    report.sort()
    return report
