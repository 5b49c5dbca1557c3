"""Lexer for the SVA subset.

Produces a flat token stream with 1-based line/column positions. Comments
and whitespace are skipped; lexical problems surface as `error` tokens so
the parser can report them with positions instead of aborting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

# One named group per token class, tried in this order at each position.
# Verilog integer literals: optional size, base marker, digits; or plain
# decimal, or unbased unsized ('0, '1, 'x, 'z). The last group takes any
# character no other group does.
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("space", r"[ \t\r\n]+"),
            ("comment", r"//[^\n]*|/\*[\s\S]*?\*/"),
            ("open_comment", r"/\*"),
            ("string", r'"(?:\\.|[^"\\\n])*"'),
            ("open_string", '"'),
            (
                "number",
                r"[0-9][0-9_]*\s*'\s*[sS]?[bodhBODH][0-9a-fA-FxzXZ_?]+"
                r"|'[sS]?[bodhBODH][0-9a-fA-FxzXZ_?]+"
                r"|'[01xzXZ]"
                r"|[0-9][0-9_]*(?:\.[0-9][0-9_]*)?",
            ),
            ("identifier", r"\$?[A-Za-z_][A-Za-z0-9_$]*|\$"),
            ("operator", "|".join(map(re.escape, _SYMBOLS))),
            ("punctuation", r"[()\[\]{};,@.]"),
            ("error", r"[\s\S]"),
        )
    )
)
_SKIPPED = ("space", "comment")
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
}


@dataclass(frozen=True)
class Token:
    kind: str  # identifier | keyword | number | string | operator | punctuation | error
    lexeme: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact, for diagnostics and test output
        return f"{self.kind}({self.lexeme!r}@{self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Lex `source` into tokens; never raises.

    Unterminated block comments and strings, and characters outside the
    subset alphabet, become `error` tokens positioned at the offending text.
    """
    tokens: list[Token] = []
    line = 1
    line_start = 0  # offset of the first character of `line`
    for m in _TOKEN_RE.finditer(source):
        kind, text, start = m.lastgroup, m.group(), m.start()
        column = start - line_start + 1
        if kind in _UNTERMINATED:
            tokens.append(Token("error", _UNTERMINATED[kind], line, column))
            break
        if kind == "identifier" and text in KEYWORDS:
            tokens.append(Token("keyword", text, line, column))
        elif kind == "error":
            tokens.append(Token("error", f"unexpected character {text!r}", line, column))
        elif kind not in _SKIPPED:
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = start + text.rfind("\n") + 1
    return tokens


def token_signature(tokens: list[Token]) -> list[tuple[str, str]]:
    """Position-free view of a token stream, used for round-trip checks."""
    return [(t.kind, t.lexeme) for t in tokens]
