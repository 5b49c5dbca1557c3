"""Syntax-checker tests: the builtin checker's purity, the per-run memo,
`check_all` and the partition of a pool by its verdicts, log formatting,
and the external-tool adapter against stub scripts."""

from __future__ import annotations

import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.sva.checker import (
    AssertionRecord,
    BuiltinChecker,
    CheckerUnavailableError,
    DiagnosticPattern,
    ExternalChecker,
    MemoChecker,
    check_all,
    format_log,
)

from conftest import INVALID_ASSERT, VALID_BARE_ASSERT, VALID_PROPERTY_UNIT


class StubChecker:
    """Deterministic stand-in: any text containing 'BAD' fails."""

    def __init__(self) -> None:
        self.calls = 0

    def check(self, assertion_text):
        self.calls += 1
        from svagen.sva.parser import Diagnostic

        if "BAD" in assertion_text:
            return [Diagnostic("error", 1, 1, "stub", "marked bad")]
        return []


class TestBuiltinChecker:
    def test_valid_passes(self):
        assert not any(
            d.severity == "error" for d in BuiltinChecker().check(VALID_PROPERTY_UNIT)
        )

    def test_invalid_fails(self):
        diags = BuiltinChecker().check(INVALID_ASSERT)
        assert any(d.severity == "error" for d in diags)

    def test_purity(self):
        checker = BuiltinChecker()
        assert checker.check(VALID_BARE_ASSERT) == checker.check(VALID_BARE_ASSERT)
        assert checker.check(INVALID_ASSERT) == checker.check(INVALID_ASSERT)


class FlakyChecker(StubChecker):
    """Unavailable on its first call, then a StubChecker."""

    def check(self, assertion_text):
        if self.calls == 0:
            self.calls += 1
            raise CheckerUnavailableError("tool busy")
        return super().check(assertion_text)


class TestMemoChecker:
    def test_each_text_checked_once(self):
        expected = StubChecker().check("BAD")
        inner = StubChecker()
        memo = MemoChecker(inner)
        for _ in range(3):
            assert memo.check("ok") == []
            assert memo.check("BAD") == expected
        assert inner.calls == 2

    def test_unavailable_is_not_remembered(self):
        inner = FlakyChecker()
        memo = MemoChecker(inner)
        with pytest.raises(CheckerUnavailableError):
            memo.check("BAD")
        assert [d.code for d in memo.check("BAD")] == ["stub"]
        assert [d.code for d in memo.check("BAD")] == ["stub"]
        assert inner.calls == 2

    def test_returned_list_is_fresh(self):
        memo = MemoChecker(StubChecker())
        first = memo.check("BAD")
        expected = list(first)
        first.clear()
        first.append("junk")
        assert memo.check("BAD") == expected
        assert memo.check("BAD") is not memo.check("BAD")

    def test_partition_through_memo(self):
        inner = StubChecker()
        memo = MemoChecker(inner)
        for _ in range(2):
            records = check_all(["ok", "BAD"], memo)
            assert [(r.text, r.status) for r in records] == [("ok", "pass"), ("BAD", "fail")]
        assert inner.calls == 2


class TestPartition:
    """`check_all` gives one record per text, in order; its verdicts split
    a pool into passing and failing assertions, as stage 3 does."""

    def test_mixed(self):
        records = check_all([VALID_BARE_ASSERT, INVALID_ASSERT], BuiltinChecker())
        assert [r.text for r in records] == [VALID_BARE_ASSERT, INVALID_ASSERT]
        assert [r.status for r in records] == ["pass", "fail"]

    def test_all_valid(self):
        records = check_all([VALID_BARE_ASSERT, VALID_PROPERTY_UNIT], BuiltinChecker())
        assert [r.status for r in records] == ["pass", "pass"]

    def test_check_all_stops_at_the_first_unavailable_text(self):
        class DownForY(StubChecker):
            def check(self, text):
                if text == "y":
                    self.calls += 1
                    raise CheckerUnavailableError("tool missing")
                return super().check(text)

        checker = DownForY()
        with pytest.raises(CheckerUnavailableError, match="^tool missing$"):
            check_all(["x", "y", "z", "BAD"], checker)
        assert checker.calls == 2  # "x", then "y"; no later text

    def test_status_reads_the_diagnostics(self):
        from svagen.sva.parser import Diagnostic

        warning = Diagnostic("warning", 1, 1, "w", "style")
        assert AssertionRecord("x").status == "pass"
        assert AssertionRecord("x", [warning]).status == "pass"
        assert AssertionRecord("x", [warning, Diagnostic("error", 1, 2, "e", "bad")]).status == "fail"

    @given(
        flags=st.lists(st.booleans(), min_size=0, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_laws(self, flags):
        texts = [("BAD" if bad else "ok") + str(i) for i, bad in enumerate(flags)]
        checker = StubChecker()
        records = check_all(texts, checker)
        assert checker.calls == len(texts)  # each checked exactly once
        assert [r.text for r in records] == texts  # order preserved
        assert [r.status == "fail" for r in records] == flags
        assert [r.diagnostics for r in records] == [StubChecker().check(t) for t in texts]


class TestFormatLog:
    def test_pass_block(self):
        assert "PASS" in format_log(check_all([VALID_BARE_ASSERT], BuiltinChecker()))

    def test_fail_block_lists_positions(self):
        [record] = check_all(["property p; @(posedge clk) a |-> ; endproperty"], BuiltinChecker())
        log = format_log([record])
        assert "FAIL" in log
        for d in record.diagnostics:
            assert f"{d.line}:{d.column}" in log

    def test_two_diagnostics_two_position_entries(self):
        from svagen.sva.parser import Diagnostic

        record = AssertionRecord(
            "x", [Diagnostic("error", 1, 2, "a", "first"), Diagnostic("error", 3, 4, "b", "second")]
        )
        log = format_log([record])
        assert "1:2" in log and "3:4" in log

    def test_empty_list(self):
        assert format_log([]) == ""

    def test_stable_ordering(self):
        log = format_log(check_all([VALID_BARE_ASSERT] * 3, BuiltinChecker()))
        assert log.index("[1]") < log.index("[2]") < log.index("[3]")


def _write_script(path, body: str) -> str:
    with open(path, "w") as f:
        f.write("#!/bin/sh\n" + body)
    os.chmod(path, os.stat(path).st_mode | stat.S_IEXEC)
    return str(path)


class TestExternalChecker:
    def test_silent_success(self, tmp_path):
        script = _write_script(tmp_path / "ok.sh", "exit 0\n")
        checker = ExternalChecker(f"{script} {{file}}")
        assert checker.check("assert property (x);") == []

    def test_error_line_parsed(self, tmp_path):
        script = _write_script(
            tmp_path / "fail.sh", "echo 'ERROR (line 3): unexpected token'\nexit 1\n"
        )
        checker = ExternalChecker(f"{script} {{file}}")
        diags = checker.check("assert property (x);")
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert diags[0].line == 3
        assert "unexpected token" in diags[0].message

    def test_command_not_found(self):
        checker = ExternalChecker("/nonexistent/jg-lint {file}")
        with pytest.raises(CheckerUnavailableError):
            checker.check("assert property (x);")

    def test_tool_past_its_timeout(self, tmp_path):
        script = _write_script(tmp_path / "slow.sh", "exec sleep 10\n")  # exec: the kill reaches sleep
        checker = ExternalChecker(f"{script} {{file}}", timeout_s=0.2)
        with pytest.raises(CheckerUnavailableError, match=r"timed out after 0\.2s"):
            checker.check("assert property (x);")

    def test_nonzero_exit_without_match_still_fails(self, tmp_path):
        script = _write_script(tmp_path / "odd.sh", "echo 'unrecognized noise'\nexit 7\n")
        checker = ExternalChecker(f"{script} {{file}}")
        diags = checker.check("assert property (x);")
        assert any(d.severity == "error" for d in diags)

    def test_custom_pattern(self, tmp_path):
        script = _write_script(
            tmp_path / "custom.sh", "echo 'E42 at 5:9 bad delay'\nexit 1\n"
        )
        checker = ExternalChecker(
            f"{script} {{file}}",
            patterns=[
                DiagnosticPattern(
                    pattern=r"E42 at (?P<line>\d+):(?P<column>\d+) (?P<message>.+)",
                    severity="error",
                    code="E42",
                )
            ],
        )
        diags = checker.check("assert property (x);")
        assert diags[0].line == 5 and diags[0].column == 9 and diags[0].code == "E42"

    def test_pattern_without_position_groups_reports_1_1(self):
        [d] = DiagnosticPattern(r"lint: (?P<message>.+)").match_all("ok\nlint: bad delay\n")
        assert d.render() == "1:1 error [external-tool] bad delay"

    def test_pattern_without_message_group_reports_the_whole_match_stripped(self):
        pattern = DiagnosticPattern(r"\s*E42 at line (?P<line>\d+)\s*", severity="warning", code="E42")
        [d] = pattern.match_all("  E42 at line 5  \nnext")
        assert d.render() == "5:1 warning [E42] E42 at line 5"

    def test_template_requires_file_placeholder(self):
        with pytest.raises(ValueError):
            ExternalChecker("lint --fast")

    def test_misspelled_severity_rejected_when_made(self):
        # an "Error" pattern would match and yet never fail an assertion
        pattern = DiagnosticPattern("ERROR: (?P<message>.+)", severity="Error")
        message = r"^patterns\[0\]\.severity must be error or warning, not 'Error'$"
        with pytest.raises(ValueError, match=message):
            ExternalChecker("sh -c 'echo ERROR: bad; exit 0' {file}", [pattern])

    @pytest.mark.parametrize("timeout_s", [-1.0, float("nan")])
    def test_timeout_must_be_positive(self, timeout_s):
        with pytest.raises(ValueError, match=r"^timeout_s must be positive$"):
            ExternalChecker("lint {file}", timeout_s=timeout_s)

    def test_explicit_empty_patterns_mean_none(self):
        assert ExternalChecker("lint {file}", []).patterns == []

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_output_byte_not_utf8_is_replaced(self, tmp_path, stream):
        redirect = " >&2" if stream == "stderr" else ""
        script = _write_script(
            tmp_path / "latin1.sh", f"printf 'ERROR (line 1): bad \\377 byte\\n'{redirect}\nexit 1\n"
        )
        diags = ExternalChecker(f"{script} {{file}}").check("assert property (x);")
        assert [(d.severity, d.line, d.message) for d in diags] == [("error", 1, "bad \ufffd byte")]

    def test_temp_file_is_utf8(self, tmp_path):
        copy = tmp_path / "seen.sv"
        script = _write_script(tmp_path / "copier.sh", f'cp "$1" {copy}\nexit 0\n')
        text = "assert property (@(posedge clk) a |-> b); // \u00e9t\u00e9 \u2192 \u03a3"
        assert ExternalChecker(f"{script} {{file}}").check(text) == []
        assert copy.read_bytes() == text.encode("utf-8")

    def test_tool_that_deletes_its_input_keeps_its_verdict(self, tmp_path):
        script = _write_script(
            tmp_path / "eater.sh", 'rm "$1"\necho "ERROR (line 2): gone"\nexit 1\n'
        )
        diags = ExternalChecker(f"{script} {{file}}").check("assert property (x);")
        assert [(d.severity, d.line, d.message) for d in diags] == [("error", 2, "gone")]

    def test_assertion_written_to_temp_file(self, tmp_path):
        # the tool sees exactly the assertion text
        script = _write_script(
            tmp_path / "echoer.sh",
            'grep -q "assert property" "$1" || { echo "ERROR (line 1): empty"; exit 1; }\nexit 0\n',
        )
        checker = ExternalChecker(f"{script} {{file}}")
        assert checker.check("assert property (x);") == []
        assert checker.check("not an assertion") != []
