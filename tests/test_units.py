"""A split unit carries its tokens and its normal form, so the checker and
the deduplication steps do not read its text again. These tests hold both
to the text paths: the key equals the normal form of the same text, as a
plain str and by the reference rule below, the tokens, which are a slice
of the code block's, equal `scan` of the text once shifted by the unit's
offset in the block, and the checker gives the same diagnostics either
way."""

from __future__ import annotations

import re

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

# The reference for the normal form, stated on the text without the lexer:
# each run of whitespace and comments outside a string literal made one
# space, string literals kept, the ends stripped and then trailing `;`s.
# Its string literal may span a line break, which the lexer's never does; a
# unit's text holds no such string, since the lexer stops at its open quote.
COMMENT_OR_STRING_RE = re.compile(r'("(?:\\.|[^"\\])*")|//[^\n]*|/\*.*?\*/', re.DOTALL)


def reference_normal_form(text: str) -> str:
    parts: list[str] = []

    def add_code(segment: str) -> None:
        collapsed = re.sub(r"\s+", " ", segment)
        if parts and parts[-1].endswith(" ") and collapsed.startswith(" "):
            collapsed = collapsed[1:]
        if collapsed:
            parts.append(collapsed)

    pos = 0
    for m in COMMENT_OR_STRING_RE.finditer(text):
        add_code(text[pos : m.start()])
        if m.group(1) is not None:
            parts.append(m.group(1))
        else:
            add_code(" ")
        pos = m.end()
    add_code(text[pos:])
    result = "".join(parts).strip()
    while result.endswith(";"):
        result = result[:-1].rstrip()
    return result


def assert_unit_matches_its_text(unit: str) -> None:
    text = str(unit)
    assert normalize_assertion(unit) == normalize_assertion(text) == reference_normal_form(text)
    if not isinstance(unit, Unit):  # still open at a lexer stop or the end: the text paths
        return
    assert [(kind, tok, offset - unit.tokens[0][2]) for kind, tok, offset in unit.tokens] == scan(text)
    assert CHECKER.check(unit) == CHECKER.check(text)


# Pieces of model output: unit openers and closers, operands, sized literals
# with inner whitespace, string literals, comments, `\r\n`, characters the
# lexer rejects (some of them whitespace to `str.split`), lexer stops, and
# block comments whose last line alone lexes as a comment.
PIECES = (
    "assert property (", "assume property (", "cover property (", "lbl :", "property p ;",
    "endproperty", "sequence s ;", "endsequence", "@(posedge clk)", "disable iff (rst)",
    ")", "(", ";", ";;", "a", "req", "$rose(b)", "|->", "|=>", "##1", "##[1:$]", "&&", "!",
    "4  'd 7", "8'h FF", "'0", "1_000", "3.5", '"msg"', '"a;  b"', '"esc \\" q"',
    "/* c */", "/**/", "// note\n", "/* multi\nline */", "\r\n", "\n", "\t",
    "é", "`", "\\", "\x0b", "\x0c", "\xa0", " ", "/* open", '"open',
    "/* a\n// b */", "/* a\n/* b */",
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
@example('assert property (a) else $error("open  // c')
@example("assert property (a) /* open  // c\n  ;")
@example("assert property (a == 4 \t'd7 || b == 8\n  'hFF);")
@example("assert property (a);  assert property (é b |-> );")
@example("x = 1; assert property (@(posedge clk) a ##);")
@example("/* note\n */ assert property (\x0c c ##); /* c */ cover property (d é);")
@example("/* a\n// b */ assert property (c);")
@settings(max_examples=600, deadline=None)
def test_unit_key_tokens_and_check_equal_the_text_paths(code):
    for unit in split_assertion_units(code):
        assert_unit_matches_its_text(unit)
        if isinstance(unit, Unit):  # its text starts at its first token
            assert (code + "\n")[unit.tokens[0][2] :].startswith(unit)


def spans_a_line_as_a_string(text: str) -> bool:
    """Whether the reference reads a string literal across a line break."""
    return any(m.group(1) and "\n" in m.group(1) for m in COMMENT_OR_STRING_RE.finditer(text))


@given(model_code())
@example('a "open  // c\n b')
@example('$error("open /* c */ x;\ny;')
@settings(max_examples=300, deadline=None)
def test_text_normal_form_equals_the_reference_but_for_strings_across_lines(code):
    if spans_a_line_as_a_string(code):
        return
    assert normalize_assertion(code) == reference_normal_form(code)


def golden_inputs() -> list[str]:
    return corpus_and_deletions() + seeded_mutants(400) + seeded_random_strings(400)


def test_golden_inputs_fenced_and_split_check_as_their_text():
    units = 0
    for source in golden_inputs():
        if not spans_a_line_as_a_string(source):
            assert normalize_assertion(source) == reference_normal_form(source)
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
