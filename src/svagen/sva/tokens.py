"""Lexer for the SVA subset, and the one lexer of SystemVerilog in svagen.

`scan` yields a flat stream of `(kind, text, offset)` tuples, which the
parser and the unit splitter read; `scan_through` lexes on past an
unterminated comment or string. `normal_form` reads an assertion's normal
form off such tuples, and `position` gives an offset's 1-based line and
column, for `tokenize` and the parser's diagnostics. Comments and
whitespace are skipped; lexical problems surface as `error` tokens so the
parser can report them with positions instead of aborting.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from svagen.sva.operators import OPERATORS

# Word operators (and, or, not) lex as keywords; the symbol operators form
# one alternation, longest first so e.g. "|=>" never lexes as "|" "=" ">".
KEYWORDS = frozenset(
    {
        "property",
        "endproperty",
        "assert",
        "assume",
        "cover",
        "disable",
        "iff",
        "posedge",
        "negedge",
        "else",
    }
    | {op.lexeme for op in OPERATORS if op.lexeme.isidentifier()}
)
_SYMBOLS = sorted(
    {op.lexeme for op in OPERATORS if not op.lexeme.isidentifier()},
    key=lambda lexeme: (-len(lexeme), lexeme),
)

# One named group per token class, tried in this order at each position,
# the most frequent first (the comments must precede the operators, and a
# string its open quote). Verilog integer literals: optional size, base
# marker, digits; or plain decimal, or unbased unsized ('0, '1, 'x, 'z).
# As in IEEE 1800-2017 5.7.1, whitespace may part the size from the `'` and
# the base letter from the digits, never the `'` from the base (`5 'D 3`).
# The last group takes any character no other group does.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r\n]+"),
            ("punctuation", r"[()\[\]{};,@.]|#(?!#)"),  # `##` is the delay operator
            ("identifier", r"\$?[A-Za-z_][A-Za-z0-9_$]*|\$"),
            ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
            ("open_comment", r"/\*"),
            ("operator", "|".join(map(re.escape, _SYMBOLS))),
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
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}
STOP_MESSAGES = frozenset(_UNTERMINATED.values())  # the error texts a scan stops at


class Token(NamedTuple):  # the public view of `tokenize`; the parser reads `scan`'s tuples
    kind: str  # identifier | keyword | number | string | operator | punctuation | error
    lexeme: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact, for diagnostics and test output
        return f"{self.kind}({self.lexeme!r}@{self.line}:{self.column})"


def scan(source: str, pos: int = 0) -> Iterator[tuple[str, str, int]]:
    """Yield `(kind, text, offset)` per token from `pos` on; the one lexer
    of the parser and the unit splitter. An unterminated block comment or
    string yields an `error` token with a text in STOP_MESSAGES, and ends it."""
    for m in _TOKEN_RE.finditer(source, pos):
        kind = m.lastgroup
        if kind == "space" or kind == "comment":
            continue
        if kind in _UNTERMINATED:
            yield "error", _UNTERMINATED[kind], m.start()
            return
        text = m.group()
        if kind == "identifier" and text in KEYWORDS:
            kind = "keyword"
        elif kind == "error":
            text = f"unexpected character {text!r}"
        yield kind, text, m.start()


def scan_through(source: str) -> Iterator[tuple[str, str, int]]:
    """`scan` of all of `source`: an unterminated block comment or string
    is its stop token, whose first character counts as an ordinary one, and
    the lexing goes on after that character."""
    pos = 0
    while True:
        for token in scan(source, pos):
            yield token
            if token[0] == "error" and token[1] in STOP_MESSAGES:
                pos = token[2] + 1
                break
        else:
            return


def normal_form(source: str, tokens: Iterable[tuple[str, str, int]]) -> str:
    """The normal form of `source` from its tokens: their source texts,
    joined by one space where whitespace or a comment parts them and by
    nothing where they touch, trailing `;` tokens dropped. An error token
    stands for its source character; one that is whitespace is a gap."""
    parts, end = [], 0
    for kind, text, offset in tokens:
        if kind == "error":
            text = source[offset]  # the source character, not the message
            if text.isspace():
                continue
        if parts and offset > end:
            parts.append(" ")
        end = offset + len(text)
        parts.append(" ".join(text.split()) if kind == "number" else text)  # `4  'd7`
    while parts and parts[-1] in (";", " "):
        parts.pop()
    return "".join(parts)


class Unit(str):
    """An assertion unit's text as the splitter cut it, with the `scan`
    tuples of that text (offsets into the unit) and its normal form, `key`,
    computed from them when the Unit is built.

    The parser reads `tokens` instead of lexing the text again; the run's
    memo checker sets them to None once the unit is checked, so a run does
    not keep every unit's tokens. A Unit is equal to, and hashes as, its
    text.
    """

    __slots__ = ("tokens", "key")

    def __new__(cls, text: str, tokens: list[tuple[str, str, int]]) -> Unit:
        unit = super().__new__(cls, text)
        unit.tokens, unit.key = tokens, normal_form(text, tokens)
        return unit


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset` in `source`."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> list[Token]:
    """Lex `source` into tokens with 1-based line/column positions; never
    raises."""
    return [Token(kind, text, *position(source, start)) for kind, text, start in scan(source)]


def token_signature(tokens: list[Token]) -> list[tuple[str, str]]:
    """Position-free view of a token stream, used for round-trip checks."""
    return [(t.kind, t.lexeme) for t in tokens]
