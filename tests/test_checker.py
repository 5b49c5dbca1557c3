"""Syntax-checker tests: the builtin checker's purity, the per-run memo,
partition laws, log formatting, and the external-tool adapter against stub
scripts."""

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
    format_log,
    partition,
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
            records = [AssertionRecord(text="ok"), AssertionRecord(text="BAD")]
            passing, failing = partition(records, memo)
            assert [r.text for r in passing] == ["ok"]
            assert [r.text for r in failing] == ["BAD"]
        assert inner.calls == 2


class TestPartition:
    def test_mixed(self):
        records = [
            AssertionRecord(text=VALID_BARE_ASSERT, signal="a"),
            AssertionRecord(text=INVALID_ASSERT, signal="a"),
        ]
        a1, a2 = partition(records, BuiltinChecker())
        assert len(a1) == 1 and len(a2) == 1
        assert a1[0].status == "pass" and a2[0].status == "fail"

    def test_all_valid(self):
        records = [
            AssertionRecord(text=VALID_BARE_ASSERT),
            AssertionRecord(text=VALID_PROPERTY_UNIT),
        ]
        a1, a2 = partition(records, BuiltinChecker())
        assert len(a1) == 2 and a2 == []

    def test_checker_unavailable_aggregates(self):
        class Broken:
            def check(self, text):
                raise CheckerUnavailableError("tool missing")

        records = [AssertionRecord(text="x", signal="s1"), AssertionRecord(text="y", signal="s2")]
        with pytest.raises(CheckerUnavailableError) as err:
            partition(records, Broken())
        assert "2 assertion(s)" in str(err.value)
        assert all(r.status == "unchecked" for r in records)

    def test_unavailable_names_the_record_index(self):
        class DownForY:
            def check(self, text):
                if text == "y":
                    raise CheckerUnavailableError("tool missing")
                return []

        records = [AssertionRecord(text="x", signal="s"), AssertionRecord(text="y", signal="s")]
        with pytest.raises(CheckerUnavailableError) as err:
            partition(records, DownForY())
        assert str(err.value) == "1 assertion(s) could not be checked: s#1"
        assert [r.status for r in records] == ["pass", "unchecked"]

    @given(
        flags=st.lists(st.booleans(), min_size=0, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_laws(self, flags):
        records = [
            AssertionRecord(text=("BAD" if bad else "ok") + str(i))
            for i, bad in enumerate(flags)
        ]
        checker = StubChecker()
        a1, a2 = partition(records, checker)
        assert checker.calls == len(records)  # each checked exactly once
        assert len(a1) + len(a2) == len(records)
        assert set(id(r) for r in a1).isdisjoint(id(r) for r in a2)
        assert [r for r in records if r.status == "pass"] == a1  # order preserved
        assert [r for r in records if r.status == "fail"] == a2


class TestFormatLog:
    def test_pass_block(self):
        record = AssertionRecord(text=VALID_BARE_ASSERT)
        record.apply_check(BuiltinChecker().check(record.text))
        assert "PASS" in format_log([record])

    def test_fail_block_lists_positions(self):
        record = AssertionRecord(text="property p; @(posedge clk) a |-> ; endproperty")
        record.apply_check(BuiltinChecker().check(record.text))
        log = format_log([record])
        assert "FAIL" in log
        for d in record.diagnostics:
            assert f"{d.line}:{d.column}" in log

    def test_two_diagnostics_two_position_entries(self):
        from svagen.sva.parser import Diagnostic

        record = AssertionRecord(text="x")
        record.diagnostics = [
            Diagnostic("error", 1, 2, "a", "first"),
            Diagnostic("error", 3, 4, "b", "second"),
        ]
        record.status = "fail"
        log = format_log([record])
        assert "1:2" in log and "3:4" in log

    def test_empty_list(self):
        assert format_log([]) == ""

    def test_stable_ordering(self):
        records = [AssertionRecord(text=VALID_BARE_ASSERT) for _ in range(3)]
        for r in records:
            r.apply_check(BuiltinChecker().check(r.text))
        log = format_log(records)
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

    def test_template_requires_file_placeholder(self):
        with pytest.raises(ValueError):
            ExternalChecker("lint --fast")

    def test_assertion_written_to_temp_file(self, tmp_path):
        # the tool sees exactly the assertion text
        script = _write_script(
            tmp_path / "echoer.sh",
            'grep -q "assert property" "$1" || { echo "ERROR (line 1): empty"; exit 1; }\nexit 0\n',
        )
        checker = ExternalChecker(f"{script} {{file}}")
        assert checker.check("assert property (x);") == []
        assert checker.check("not an assertion") != []
