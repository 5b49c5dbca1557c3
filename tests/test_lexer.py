"""The lexer against a reference: `scan` and `scan_through` build their
lists from one `findall` and read each piece's kind off its text, where
the reference below takes one `finditer` match per piece and reads the
kind off its named group. Both must give the same tokens from any start
offset of any text."""

from __future__ import annotations

import re
from collections.abc import Iterator

from hypothesis import example, given, settings
from hypothesis import strategies as st

from svagen.sva.operators import OPERATORS
from svagen.sva.tokens import KEYWORDS, rescan, scan, scan_through

_REFERENCE_SYMBOLS = sorted(
    {op.lexeme for op in OPERATORS if not op.lexeme.isidentifier()},
    key=lambda lexeme: (-len(lexeme), lexeme),
)
_REFERENCE_RE = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r\n]+"),
            ("punctuation", r"[()\[\]{};,@.]|#(?!#)"),
            ("identifier", r"\$?[A-Za-z_][A-Za-z0-9_$]*|\$"),
            ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
            ("open_comment", r"/\*"),
            ("operator", "|".join(map(re.escape, _REFERENCE_SYMBOLS))),
            (
                "number",
                r"(?:[0-9][0-9_]*\s*)?'[sS]?[bodhBODH]\s*[0-9a-fA-FxzXZ_?]+"
                r"|'[01xzXZ]"
                r"|[0-9][0-9_]*(?:\.[0-9][0-9_]*)?",
            ),
            ("string", r'"(?:\\.|[^"\\\n])*"'),
            ("open_string", '"'),
            ("error", r"[\s\S]"),
        )
    )
)
_REFERENCE_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}


def reference_scan(source: str, pos: int = 0) -> Iterator[tuple[str, str, int]]:
    for m in _REFERENCE_RE.finditer(source, pos):
        kind = m.lastgroup
        if kind == "space" or kind == "comment":
            continue
        if kind in _REFERENCE_UNTERMINATED:
            yield "error", _REFERENCE_UNTERMINATED[kind], m.start()
            return
        text = m.group()
        if kind == "identifier" and text in KEYWORDS:
            kind = "keyword"
        elif kind == "error":
            text = f"unexpected character {text!r}"
        yield kind, text, m.start()


def reference_scan_through(source: str, pos: int = 0) -> Iterator[tuple[str, str, int]]:
    while True:
        for token in reference_scan(source, pos):
            yield token
            if token[0] == "error" and token[1] in _REFERENCE_UNTERMINATED.values():
                pos = token[2] + 1
                break
        else:
            return


# Fragments of SystemVerilog and of what a model writes around it: every
# token class, the stops, comments of every shape, `#` beside `##`, sized
# literals with inner whitespace and line breaks, and characters the lexer
# rejects, some of them whitespace to `str.split`.
FRAGMENTS = (
    "assert", "property", "endproperty", "and", "not", "a", "req_1", "$rose", "$", "$$x",
    "(", ")", "[", "]", "{", "}", ";", ",", "@", ".", "#", "##", "###", "#0", "##[1:$]",
    "|->", "|=>", "||", "|", "==", "===", "!==", "<<<", ">>", "->", "=", ":", "?", "~^", "^~",
    "*", "/", "%", "+", "-", "**", "*/", "/*/", "/**/",
    "0", "42", "1_000", "3.5", "3.", "'0", "'x", "'", "'b", "8'hFF", "4 'd 7", "5\n'D\n3",
    "8'h FF", "16'sd 1\x0c2", "8' hFF", "'hz",
    '"msg"', '"a;  b"', '"esc \\" q"', '"', '"open', '"\\', '""',
    "//", "// note", "/*", "/* c */", "/* multi\nline */", "/* open", "*/",
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\xa0", "é", "`", "\\", " ",
)


@st.composite
def sv_text(draw) -> tuple[str, int]:
    source = "".join(draw(st.lists(st.sampled_from(FRAGMENTS), max_size=40)))
    return source, draw(st.integers(0, len(source)))


@given(sv_text())
@example(("assert property (a) /* open\n  ;", 0))
@example(('$error("open /* c\n */ x', 3))
@example(("# ## ### #(", 0))
@example(("4\n 'd\n 7 é\x0c 8' hFF", 1))
@example(("a / b /* c */ /*/ d", 0))
@settings(max_examples=1500, deadline=None)
def test_scan_and_scan_through_equal_the_reference(case):
    source, pos = case
    assert scan(source, pos) == list(reference_scan(source, pos))
    assert scan_through(source) == list(reference_scan_through(source))
    assert scan_through(source, pos) == list(reference_scan_through(source, pos))


@given(sv_text(), st.integers(0, 40))
@example(('$error("open /* c\n */ x', 3), 0)
@example(('"a 4\n\'d7 b', 2), 0)
@example(('"a  \n  b', 4), 0)
@settings(max_examples=1000, deadline=None)
def test_rescan_equals_a_scan_through_from_its_offset(case, k):
    source, pos = case
    tokens = scan_through(source)
    before = [i for i, token in enumerate(tokens) if token[2] < pos]
    if not before:
        return
    rest, j = rescan(source, tokens, before[k % len(before)], pos)
    assert rest[j:] == scan_through(source, pos)
