"""A split unit carries its tokens and its normal form, so the checker and
the deduplication steps do not read its text again. These tests hold both
to the text paths: the key equals `normalize_assertion` of the same text as
a plain str, the tokens equal `scan` of the text, and the checker gives the
same diagnostics either way."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svagen.agents import extract_assertions, normalize_assertion, split_assertion_units
from svagen.sva.checker import BuiltinChecker, MemoChecker
from svagen.sva.tokens import Unit, scan

from conftest import VALID_BARE_ASSERT, fenced
from sva_corpus import CORPUS
from test_sva_golden import corpus_and_deletions, seeded_mutants, seeded_random_strings

CHECKER = BuiltinChecker()


def assert_unit_matches_its_text(unit: str) -> None:
    text = str(unit)
    if not isinstance(unit, Unit):  # still open at a lexer stop or the end: the text paths
        return
    assert unit.key == normalize_assertion(text)
    assert normalize_assertion(unit) == unit.key
    assert unit.tokens == list(scan(text))
    assert CHECKER.check(unit) == CHECKER.check(text)


# Pieces of model output: unit openers and closers, operands, sized literals
# with inner whitespace, string literals, comments, `\r\n`, characters the
# lexer rejects (some of them whitespace to `str.split`), and lexer stops.
PIECES = (
    "assert property (", "assume property (", "cover property (", "lbl :", "property p ;",
    "endproperty", "sequence s ;", "endsequence", "@(posedge clk)", "disable iff (rst)",
    ")", "(", ";", ";;", "a", "req", "$rose(b)", "|->", "|=>", "##1", "##[1:$]", "&&", "!",
    "4  'd 7", "8'h FF", "'0", "1_000", "3.5", '"msg"', '"a;  b"', '"esc \\" q"',
    "/* c */", "/**/", "// note\n", "/* multi\nline */", "\r\n", "\n", "\t",
    "é", "`", "\\", "\x0b", "\x0c", "\xa0", " ", "/* open", '"open',
)
SEPARATORS = ("", " ", "  ", "\n", "\r\n", "/* c */", "// c\n", "\x0c")


@st.composite
def model_code(draw) -> str:
    pieces = draw(st.lists(st.sampled_from(PIECES), max_size=30))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(pieces), max_size=len(pieces)))
    return "".join(p + s for p, s in zip(pieces, seps))


@given(model_code())
@example("assert property (a  /* c */ ##1\r\n4  'd 7 é ` b) ; ;")
@example("assert property (\x0c a \x0c;\x0c;")
@example('assert property (a) else $error("a  b");  // done')
@example("assert property (a |-> b)\n  else /* open\nassert property (c);")
@example("property p ;endproperty/* c */assert property (/* open")
@example("assert property (\x0c")
@settings(max_examples=600, deadline=None)
def test_unit_key_tokens_and_check_equal_the_text_paths(code):
    for unit in split_assertion_units(code):
        assert_unit_matches_its_text(unit)


def golden_inputs() -> list[str]:
    return corpus_and_deletions() + seeded_mutants(400) + seeded_random_strings(400)


def test_golden_inputs_fenced_and_split_check_as_their_text():
    units = 0
    for source in golden_inputs():
        for unit in extract_assertions(fenced(source)):
            assert_unit_matches_its_text(unit)
            units += isinstance(unit, Unit)
    assert units > len(CORPUS)


def test_only_a_unit_left_open_is_plain_text():
    closed, stopped, unclosed = split_assertion_units(
        f"{VALID_BARE_ASSERT}\nassert property (a)\n  else $error(\"open\nassert property (b)"
    )
    assert isinstance(closed, Unit) and closed.tokens
    assert type(stopped) is str and type(unclosed) is str
    assert normalize_assertion(stopped) == 'assert property (a) else $error("open'


def test_unit_is_its_text():
    (unit,) = split_assertion_units(f"  {VALID_BARE_ASSERT}  // note\n")
    assert unit == VALID_BARE_ASSERT + "  // note"
    assert hash(unit) == hash(str(unit))
    assert {unit: 1}[str(unit)] == 1


@pytest.mark.parametrize("hits", [0, 1])
def test_memo_drops_the_tokens_at_the_first_check(hits):
    checker = MemoChecker(BuiltinChecker())
    for _ in range(hits):  # an equal text first, so the unit's check is a memo hit
        checker.check(VALID_BARE_ASSERT)
    (unit,) = split_assertion_units(VALID_BARE_ASSERT)
    assert unit.tokens
    assert checker.check(unit) == []
    assert unit.tokens is None
    assert normalize_assertion(unit) == VALID_BARE_ASSERT[:-1]
    assert checker.check(unit) == []  # re-lexed from the text, if it had to be
