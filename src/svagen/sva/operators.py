"""The operator table of the SVA subset, shared by the lexer and the parser.

One row per operator role: the lexeme, where it stands (infix or prefix),
its binding power (higher binds tighter), its associativity and the shape
of the AST node the parser builds for it. The lexer lexes every lexeme
listed here and the parser's precedence-climbing loop knows operators only
through this table, so supporting another operator is one more row.

Levels follow IEEE 1800-2017 Table 16-3 (sequences and properties) and
Table 11-2 (expressions), restricted to the subset. They are spaced by ten
so a new level fits between two existing ones.
"""

from __future__ import annotations

from typing import NamedTuple


class Operator(NamedTuple):
    lexeme: str
    fixity: str  # "infix" | "prefix" | "lexeme" (lexed, but no operator role)
    bp: int = 0
    assoc: str = "left"  # "left" | "right"
    shape: str = ""  # binary | unary | implication | delay | ternary

    @property
    def operand_bp(self) -> int:
        """Binding power the operand to the right is parsed at: one level
        tighter for a left-associative operator, the same level for a
        right-associative one."""
        return self.bp + 1 if self.assoc == "left" else self.bp


OPERATORS = (
    # sequences and properties, loosest first
    Operator("|->", "infix", 10, "right", "implication"),
    Operator("|=>", "infix", 10, "right", "implication"),
    Operator("or", "infix", 20, "left", "binary"),
    Operator("and", "infix", 30, "left", "binary"),
    Operator("not", "prefix", 40, "right", "unary"),
    Operator("##", "prefix", 40, "left", "delay"),  # leading delay: ##1 a
    Operator("##", "infix", 40, "left", "delay"),
    # boolean expressions; an expression operand is parsed at the level of ?:
    Operator("?", "infix", 50, "right", "ternary"),
    Operator("||", "infix", 60, "left", "binary"),
    Operator("&&", "infix", 70, "left", "binary"),
    Operator("|", "infix", 80, "left", "binary"),
    Operator("^", "infix", 90, "left", "binary"),
    Operator("~^", "infix", 90, "left", "binary"),
    Operator("^~", "infix", 90, "left", "binary"),
    Operator("&", "infix", 100, "left", "binary"),
    Operator("==", "infix", 110, "left", "binary"),
    Operator("!=", "infix", 110, "left", "binary"),
    Operator("===", "infix", 110, "left", "binary"),
    Operator("!==", "infix", 110, "left", "binary"),
    Operator("<", "infix", 120, "left", "binary"),
    Operator("<=", "infix", 120, "left", "binary"),
    Operator(">", "infix", 120, "left", "binary"),
    Operator(">=", "infix", 120, "left", "binary"),
    Operator("<<", "infix", 130, "left", "binary"),
    Operator(">>", "infix", 130, "left", "binary"),
    Operator("<<<", "infix", 130, "left", "binary"),
    Operator(">>>", "infix", 130, "left", "binary"),
    Operator("+", "infix", 140, "left", "binary"),
    Operator("-", "infix", 140, "left", "binary"),
    Operator("*", "infix", 150, "left", "binary"),
    Operator("/", "infix", 150, "left", "binary"),
    Operator("%", "infix", 150, "left", "binary"),
    Operator("!", "prefix", 160, "right", "unary"),
    Operator("~", "prefix", 160, "right", "unary"),
    Operator("-", "prefix", 160, "right", "unary"),
    Operator("+", "prefix", 160, "right", "unary"),
    Operator("&", "prefix", 160, "right", "unary"),
    Operator("|", "prefix", 160, "right", "unary"),
    Operator("^", "prefix", 160, "right", "unary"),
    # separators of ?:, ranges and labels, and lexemes the subset rejects
    Operator(":", "lexeme"),
    Operator("=", "lexeme"),
    Operator("->", "lexeme"),
)

# No identifier, number, string or punctuation token can spell an operator
# lexeme, so the parser looks rows up by lexeme alone.
INFIX = {op.lexeme: op for op in OPERATORS if op.fixity == "infix"}
PREFIX = {op.lexeme: op for op in OPERATORS if op.fixity == "prefix"}
