"""Syntax checking behind one interface: the built-in subset parser and an
adapter that shells out to an external verification tool.

A checker must be pure (same text, same diagnostics): scripted runs replay
byte-identically, and the pipeline wraps its checker in a MemoChecker for the
length of one run, so each distinct text is checked once per run. The
external adapter writes the assertion to a temp file, runs a configurable
command, and maps tool output to diagnostics via a configurable regex
profile.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from typing import Protocol

from svagen.sva.parser import Diagnostic, has_error, parse_assertion
from svagen.sva.tokens import Unit


class CheckerUnavailableError(RuntimeError):
    """The checker itself failed to run (tool missing, timeout); distinct
    from the assertion failing its syntax check."""


class SyntaxChecker(Protocol):
    def check(self, assertion_text: str) -> list[Diagnostic]: ...


@dataclass
class AssertionRecord:
    text: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "fail" if has_error(self.diagnostics) else "pass"


class BuiltinChecker:
    """Lint-level checker backed by the subset parser."""

    def check(self, assertion_text: str) -> list[Diagnostic]:
        _, diagnostics = parse_assertion(assertion_text)
        return diagnostics


class MemoChecker:
    """Checks each distinct text once with `inner` and answers repeats from
    a memo; every call returns a fresh list. A CheckerUnavailableError is
    not remembered, so the next check of that text runs `inner` again.

    The memo is unbounded: make one per run, not one per process. Worker
    threads may each check a text the memo does not hold yet; a pure
    checker gives them equal results. A `Unit`'s tokens are dropped at its
    first check here, a memo hit included, so the run keeps no unit's
    tokens past the check that reads them.
    """

    def __init__(self, inner: SyntaxChecker) -> None:
        self.inner = inner
        self._memo: dict[str, list[Diagnostic]] = {}

    def check(self, assertion_text: str) -> list[Diagnostic]:
        diagnostics = self._memo.get(assertion_text)
        if diagnostics is None:
            diagnostics = self._memo[assertion_text] = self.inner.check(assertion_text)
        if isinstance(assertion_text, Unit):
            assertion_text.tokens = None
        return list(diagnostics)


@dataclass
class DiagnosticPattern:
    """One regex of an external tool's log profile.

    The pattern may define named groups `line`, `column`, and `message`;
    missing positions default to 1:1.
    """

    pattern: str
    severity: str = "error"
    code: str = "external-tool"

    def match_all(self, output: str) -> list[Diagnostic]:
        out = []
        for m in re.finditer(self.pattern, output, re.MULTILINE):
            groups = m.groupdict()
            line = int(groups.get("line") or 1)
            column = int(groups.get("column") or 1)
            message = groups.get("message") or m.group(0)
            out.append(Diagnostic(self.severity, line, column, self.code, message.strip()))
        return out


# Matches the common "ERROR (line N): ..." shape; real tool profiles are
# supplied through config.
DEFAULT_EXTERNAL_PATTERNS = [
    DiagnosticPattern(pattern=r"ERROR \(line (?P<line>\d+)\): (?P<message>.+)", severity="error"),
    DiagnosticPattern(pattern=r"WARNING \(line (?P<line>\d+)\): (?P<message>.+)", severity="warning"),
]


class ExternalChecker:
    """Adapter around an external syntax tool.

    `command_template` must contain `{file}`, replaced with the path of a
    temp file holding the assertion text; omitted `patterns` are the
    defaults, and `[]` none. ValueError naming the field unless `timeout_s`
    is positive and every pattern compiles with severity error or warning;
    `CheckerSettings` checks a config by these rules.
    """

    def __init__(
        self,
        command_template: str,
        patterns: list[DiagnosticPattern] | None = None,
        timeout_s: float = 30.0,
    ) -> None:
        if not timeout_s > 0:
            raise ValueError("timeout_s must be positive")
        if "{file}" not in command_template:
            raise ValueError("command_template must contain a {file} placeholder")
        for i, p in enumerate(patterns or ()):
            try:
                re.compile(p.pattern)
            except re.error as err:
                raise ValueError(f"patterns[{i}].pattern {p.pattern!r} does not compile: {err}") from err
            if p.severity not in ("error", "warning"):  # any other would never fail an assertion
                raise ValueError(f"patterns[{i}].severity must be error or warning, not {p.severity!r}")
        self.command_template = command_template
        self.patterns = patterns if patterns is not None else list(DEFAULT_EXTERNAL_PATTERNS)
        self.timeout_s = timeout_s

    def check(self, assertion_text: str) -> list[Diagnostic]:
        fd, path = tempfile.mkstemp(suffix=".sv", prefix="svagen_")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(assertion_text)
            argv = [
                part.replace("{file}", path)
                for part in shlex.split(self.command_template)
            ]
            try:
                proc = subprocess.run(argv, capture_output=True, timeout=self.timeout_s)
            except FileNotFoundError as err:
                raise CheckerUnavailableError(f"checker command not found: {argv[0]}") from err
            except subprocess.TimeoutExpired as err:
                raise CheckerUnavailableError(
                    f"checker timed out after {self.timeout_s}s"
                ) from err
            # a byte that is not UTF-8 is replaced, not raised
            output = (proc.stdout + proc.stderr).decode("utf-8", errors="replace")
            diagnostics: list[Diagnostic] = []
            for pattern in self.patterns:
                diagnostics.extend(pattern.match_all(output))
            if proc.returncode != 0 and not has_error(diagnostics):
                # Failing exit without a recognizable message must not pass.
                diagnostics.append(
                    Diagnostic(
                        "error",
                        1,
                        1,
                        "external-exit",
                        f"tool exited with status {proc.returncode}",
                    )
                )
            return diagnostics
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass


def check_all(texts: list[str], checker: SyntaxChecker) -> list[AssertionRecord]:
    """Check each text in order, one record per text. A
    CheckerUnavailableError propagates at the first text that cannot be
    checked; no later text is checked."""
    return [AssertionRecord(text, checker.check(text)) for text in texts]


def format_log(records: list[AssertionRecord]) -> str:
    """Render checked records as the stable text log fed back to the agents.

    One block per assertion: 1-based index, verdict, then one `line:col`
    entry per diagnostic.
    """
    blocks: list[str] = []
    for i, record in enumerate(records, start=1):
        verdict = record.status.upper()
        lines = [f"[{i}] {verdict}"]
        for d in record.diagnostics:
            lines.append(f"  {d.render()}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks)
