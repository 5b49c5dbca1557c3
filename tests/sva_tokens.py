"""The token serializer of the parser's AST, for the round-trip tests.

`tokens(node)` gives the `(kind, lexeme)` pairs the lexer reads from the
source text a node was parsed from, so a round trip compares
`tokens(unit)` with `lexed(source)`. It knows every AST class of
`svagen.sva.parser` and raises TypeError on any other object, so a new AST
class cannot pass a round trip until it is printed here.
"""

from __future__ import annotations

from svagen.sva.parser import (
    AssertStmt,
    Binary,
    Call,
    Clocking,
    Concat,
    Delay,
    DelayBounds,
    Identifier,
    Implication,
    Index,
    Number,
    Paren,
    PropertyDecl,
    PropertySpec,
    Repetition,
    Replication,
    StringLit,
    Ternary,
    Unary,
)
from svagen.sva.tokens import KEYWORDS, scan

TokenSig = tuple[str, str]


def lexed(source: str) -> list[TokenSig]:
    """The `(kind, lexeme)` pairs of `source`'s tokens."""
    return [(kind, text) for kind, text, _ in scan(source)]


def _op(text: str) -> TokenSig:
    """An operator's token: a keyword for a word operator, as the lexer
    reads it."""
    return ("keyword" if text in KEYWORDS else "operator", text)


def _bound(text: str) -> TokenSig:
    """A range's upper bound: a number, or `$` for an unbounded one."""
    return ("identifier", "$") if text == "$" else ("number", text)


def _comma_list(items: list) -> list[TokenSig]:
    out: list[TokenSig] = []
    for i, item in enumerate(items):
        if i:
            out.append(("punctuation", ","))
        out += tokens(item)
    return out


def tokens(node) -> list[TokenSig]:
    """The `(kind, lexeme)` pairs of `node`'s source text; a list of units
    is their texts in a row, and an absent part (None) prints nothing."""
    P = "punctuation"
    match node:
        case None:
            return []
        case list():
            return [t for unit in node for t in tokens(unit)]
        case Identifier(name):
            return [("identifier", name)]
        case Number(text):
            return [("number", text)]
        case StringLit(text):
            return [("string", text)]
        case Paren(inner):
            return [(P, "("), *tokens(inner), (P, ")")]
        case Unary(op, operand):
            return [_op(op), *tokens(operand)]
        case Binary(op, left, right) | Implication(op, left, right):
            return [*tokens(left), _op(op), *tokens(right)]
        case Ternary(cond, if_true, if_false):
            return [*tokens(cond), _op("?"), *tokens(if_true), _op(":"), *tokens(if_false)]
        case DelayBounds(low, _, False):
            return [("number", low)]
        case DelayBounds(low, high, True):
            return [(P, "["), ("number", low), _op(":"), _bound(high), (P, "]")]
        case Delay(lhs, bounds, rhs):
            return [*tokens(lhs), _op("##"), *tokens(bounds), *tokens(rhs)]
        case Repetition(operand, low, high):
            count = [] if low is None else [("number", low)]
            if high is not None:
                count += [_op(":"), _bound(high)]
            return [*tokens(operand), (P, "["), _op("*"), *count, (P, "]")]
        case Index(base, low, high):
            part = [] if high is None else [_op(":"), *tokens(high)]
            return [*tokens(base), (P, "["), *tokens(low), *part, (P, "]")]
        case Call(name, args, parenthesized):
            arguments = [(P, "("), *_comma_list(args), (P, ")")] if parenthesized else []
            return [("identifier", name), *arguments]
        case Concat(parts):
            return [(P, "{"), *_comma_list(parts), (P, "}")]
        case Replication(count, inner):
            return [(P, "{"), *tokens(count), *tokens(inner), (P, "}")]
        case Clocking(edge, expr):
            return [(P, "@"), (P, "("), ("keyword", edge), *tokens(expr), (P, ")")]
        case PropertySpec(clocking, disable_expr, body):
            disable = []
            if disable_expr is not None:
                disable = [("keyword", "disable"), ("keyword", "iff"), (P, "("), *tokens(disable_expr), (P, ")")]
            return [*tokens(clocking), *disable, *tokens(body)]
        case AssertStmt(spec, label, verb, else_action):
            head = [] if label is None else [("identifier", label), _op(":")]
            action = [] if else_action is None else [("keyword", "else"), *tokens(else_action)]
            return [
                *head, ("keyword", verb), ("keyword", "property"), (P, "("), *tokens(spec), (P, ")"),
                *action, (P, ";"),
            ]
        case PropertyDecl(name, spec, attached_assert):
            return [
                ("keyword", "property"), ("identifier", name), (P, ";"), *tokens(spec), (P, ";"),
                ("keyword", "endproperty"), *tokens(attached_assert),
            ]
    raise TypeError(f"tokens() does not know {type(node).__name__}")
