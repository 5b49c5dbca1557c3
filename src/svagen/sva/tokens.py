"""Lexer for the SVA subset, and the one lexer of SystemVerilog in svagen.

`scan` builds a flat list of `(kind, text, offset)` tuples, which the
parser and the unit splitter read, from one `findall` that cuts the text
into pieces; `scan_through` lexes on past an unterminated comment or
string, and `rescan` resumes such a list at a later offset. `normal_form`
reads an assertion's normal form off such tuples, and `position` gives an
offset's 1-based line and column, for `tokenize` and the parser's
diagnostics. Comments and whitespace are skipped; lexical problems surface
as `error` tokens so the parser can report them with positions instead of
aborting.
"""

from __future__ import annotations

import re
import string
from collections.abc import Iterable
from typing import NamedTuple

from svagen.sva.operators import OPERATORS

Tok = tuple[str, str, int]  # (kind, text, offset), as `scan` lists it

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

# One alternative per token class, tried in this order at each position,
# the most frequent first (the comments must precede the operators, and a
# string its open quote). Verilog integer literals: optional size, base
# marker, digits; or plain decimal, or unbased unsized ('0, '1, 'x, 'z).
# As in IEEE 1800-2017 5.7.1, whitespace may part the size from the `'` and
# the base letter from the digits, never the `'` from the base (`5 'D 3`).
# The last alternative takes any character no other one does. Together
# they cut any text into pieces; an unterminated block comment or string
# is a piece of its first character, and the lexing goes on after it.
_PIECE_RE = re.compile(
    "|".join(
        f"(?:{pattern})"
        for pattern in (
            r"[ \t\r\n]+",  # whitespace
            r"[()\[\]{};,@.]|#(?!#)",  # punctuation; `##` is the delay operator
            r"\$?[A-Za-z_][A-Za-z0-9_$]*|\$",  # identifier or keyword
            r"//[^\n]*|/\*[\s\S]*?\*/",  # comment
            r"/(?=\*)",  # an unterminated block comment
            "|".join(map(re.escape, _SYMBOLS)),  # operator
            r"(?:[0-9][0-9_]*\s*)?'[sS]?[bodhBODH]\s*[0-9a-fA-FxzXZ_?]+"
            r"|'[01xzXZ]"
            r"|[0-9][0-9_]*(?:\.[0-9][0-9_]*)?",  # number
            r'"(?:\\.|[^"\\\n])*"',  # string
            '"',  # an unterminated string
            r"[\s\S]",  # error
        )
    )
)
# A piece's kind is read off its text. A keyword's, an operator's or a
# punctuation mark's piece is known by its whole text (None marks the
# commonest whitespace, which is skipped); any other piece by its first
# character, since one alternative alone takes pieces that start with it.
# But a lone `/` is an operator, or an unterminated comment's stop when a
# `*` follows; a lone `'` is an error, and a lone `"` a stop.
_TEXTS: dict[str, str | None] = {
    **dict.fromkeys(KEYWORDS, "keyword"),
    **dict.fromkeys(set(_SYMBOLS) - {"/"}, "operator"),
    **dict.fromkeys("()[]{};,@.#", "punctuation"),
    " ": None,
    "\n": None,
}
_LEADS = {
    **dict.fromkeys(" \t\r\n", "space"),
    **dict.fromkeys(string.ascii_letters + "_$", "identifier"),
    **dict.fromkeys(string.digits + "'", "number"),
    "/": "comment",
    '"': "string",
}
_STOPS = {"comment": "unterminated block comment", "string": "unterminated string literal"}
STOP_MESSAGES = frozenset(_STOPS.values())  # the error texts a scan stops at


class Token(NamedTuple):  # the public view of `tokenize`; the parser reads `scan`'s tuples
    kind: str  # identifier | keyword | number | string | operator | punctuation | error
    lexeme: str
    line: int
    column: int

    def __repr__(self) -> str:  # compact, for diagnostics and test output
        return f"{self.kind}({self.lexeme!r}@{self.line}:{self.column})"


def scan(source: str, pos: int = 0) -> list[Tok]:
    """The `(kind, text, offset)` tuples of the tokens from `pos` on; the
    one lexer of the parser and the unit splitter. An unterminated block
    comment or string gives an `error` token with a text in STOP_MESSAGES,
    and ends the list."""
    return _lex(source, pos, stop=True)


def scan_through(source: str, pos: int = 0) -> list[Tok]:
    """`scan` to the end of `source`: an unterminated block comment or
    string is its stop token, whose first character counts as an ordinary
    one, and the lexing goes on after that character."""
    return _lex(source, pos, stop=False)


def _lex(source: str, pos: int, stop: bool) -> list[Tok]:
    tokens: list[Tok] = []
    for piece in _PIECE_RE.findall(source, pos):
        offset = pos
        pos += len(piece)
        kind = _TEXTS.get(piece, "")
        if kind:
            tokens.append((kind, piece, offset))
            continue
        if kind is None:
            continue
        kind = _LEADS.get(piece[0], "error")
        if kind == "identifier" or (kind == "number" and piece != "'"):
            tokens.append((kind, piece, offset))
        elif kind == "space" or (kind == "comment" and len(piece) > 1):
            continue
        elif kind == "string" and piece != '"':
            tokens.append((kind, piece, offset))
        elif kind == "comment" and not source.startswith("*", pos):
            tokens.append(("operator", piece, offset))
        elif kind == "comment" or kind == "string":
            tokens.append(("error", _STOPS[kind], offset))
            if stop:
                break
        else:  # any character no other alternative takes, a lone `'` included
            tokens.append(("error", f"unexpected character {piece!r}", offset))
    return tokens


def rescan(source: str, tokens: list[Tok], i: int, pos: int) -> tuple[list[Tok], int]:
    """`scan_through(source, pos)` as a list and the index of its first
    token, given `tokens`, a `scan_through` of `source` whose `tokens[i]`
    starts before `pos`. Lexing from `pos` gives `tokens`' own pieces from
    there on when one of them starts at `pos`, or whitespace spans it; so
    `source` is lexed again only when a comment or a number runs past
    `pos`."""
    while i + 1 < len(tokens) and tokens[i + 1][2] < pos:
        i += 1
    kind, text, end = tokens[i]
    end += 1 if kind == "error" else len(text)
    piece = ""
    while end < pos:  # whitespace and comments, up to or past `pos`
        piece = _PIECE_RE.match(source, end).group()
        end += len(piece)
    if end == pos or _LEADS.get(piece[:1]) == "space":
        return tokens, i + 1
    return scan_through(source, pos), 0


def normal_form(source: str, tokens: Iterable[Tok], base: int = 0) -> str:
    """The normal form of `source` from its tokens, whose offsets exceed
    their positions in `source` by `base`: their source texts, joined by
    one space where whitespace or a comment parts them and by nothing where
    they touch, trailing `;` tokens dropped. An error token stands for its
    source character; one that is whitespace is a gap."""
    parts, end = [], 0
    for kind, text, offset in tokens:
        if kind == "error":
            text = source[offset - base]  # the source character, not the message
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
    tuples of that text and its normal form, `key`, computed from them when
    the Unit is built. The tuples are a slice of the tokens of the code
    block the unit was cut from, so their offsets count from the block's
    start; `base` is the unit's offset in the block, which the parser and
    `normal_form` subtract where they need a position in the unit.

    The parser reads `tokens` instead of lexing the text again; the run's
    memo checker sets them to None once the unit is checked, so a run does
    not keep every unit's tokens. A Unit is equal to, and hashes as, its
    text.
    """

    __slots__ = ("tokens", "base", "key")

    def __new__(cls, text: str, tokens: list[Tok], base: int) -> Unit:
        unit = super().__new__(cls, text)
        unit.tokens, unit.base, unit.key = tokens, base, normal_form(text, tokens, base)
        return unit


def position(source: str, offset: int) -> tuple[int, int]:
    """1-based line and column of `offset` in `source`."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def tokenize(source: str) -> list[Token]:
    """Lex `source` into tokens with 1-based line/column positions; never
    raises."""
    return [Token(kind, text, *position(source, start)) for kind, text, start in scan(source)]
