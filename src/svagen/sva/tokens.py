"""Lexer for the SVA subset.

`scan` yields a flat stream of `(kind, text, offset)` tuples, which the
parser and the unit splitter read; `tokenize` adds 1-based line/column
positions. Comments and whitespace are skipped; lexical problems surface as
`error` tokens so the parser can report them with positions instead of
aborting.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
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
                r"[0-9][0-9_]*\s*'\s*[sS]?[bodhBODH][0-9a-fA-FxzXZ_?]+"
                r"|'[sS]?[bodhBODH][0-9a-fA-FxzXZ_?]+"
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


class Unit(str):
    """An assertion unit's text as the splitter cut it, with the `scan`
    tuples of that text (offsets into the unit) and its normal form, `key`.

    The parser reads `tokens` instead of lexing the text again; the run's
    memo checker sets them to None once the unit is checked, so a run does
    not keep every unit's tokens. A Unit is equal to, and hashes as, its
    text.
    """

    __slots__ = ("tokens", "key")

    def __new__(cls, text: str, tokens: list[tuple[str, str, int]] | None, key: str) -> Unit:
        unit = super().__new__(cls, text)
        unit.tokens, unit.key = tokens, key
        return unit


def tokenize(source: str) -> list[Token]:
    """Lex `source` into tokens with 1-based line/column positions; never
    raises."""
    tokens: list[Token] = []
    line, last = 1, 0  # last: offset of the previous token
    for kind, text, start in scan(source):
        line += source.count("\n", last, start)
        last = start
        tokens.append(Token(kind, text, line, start - source.rfind("\n", 0, start)))
    return tokens


def token_signature(tokens: list[Token]) -> list[tuple[str, str]]:
    """Position-free view of a token stream, used for round-trip checks."""
    return [(t.kind, t.lexeme) for t in tokens]
