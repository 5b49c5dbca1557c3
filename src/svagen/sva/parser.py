"""Parser for the SVA subset.

Covers property declarations with clocking events and `disable iff`,
implication (|->, |=>), sequence and/or/not, bounded and unbounded delays
(##N, ##[m:n], ##[m:$]), repetition ([*n], [*m:n]), the usual boolean,
relational, shift and arithmetic operators, concatenation and replication,
indexing and part-selects, and system-function calls.

Declarations, statements and operands are parsed by recursive descent.
Operator expressions are parsed by one precedence-climbing loop (Pratt's
top-down operator precedence) driven by the table in `operators.py`, which
holds every operator's lexeme, binding power, associativity and AST shape:
adding an operator means adding one row there.

The parser is permissive where RTL context would be needed: identifier
references are never resolved, so a name the design does not declare
passes without a diagnostic (ROADMAP item 3 plans a scope pass to flag
it). The AST is plain data: `tokens` in the tests' `sva_tokens.py`
re-serializes any node to the exact token stream it was parsed from, and
the round-trip tests check that it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from svagen.sva.operators import INFIX, PREFIX
# The parser does not call `tokenize`; bench/run_bench.py traces it as `parser.tokenize`.
from svagen.sva.tokens import STOP_MESSAGES, Tok, Unit, position, scan, tokenize  # noqa: F401

# The known system functions, each with its minimum argument count: the
# sampled-value and counting functions need an operand to sample.
SYSTEM_FUNCTIONS = {
    "$rose": 1,
    "$fell": 1,
    "$stable": 1,
    "$changed": 1,
    "$sampled": 1,
    "$past": 1,
    "$onehot": 1,
    "$onehot0": 1,
    "$countones": 1,
    "$isunknown": 1,
    "$error": 0,
    "$warning": 0,
    "$info": 0,
    "$fatal": 0,
    "$display": 0,
}

# The keywords that start an assert statement.
VERBS = ("assert", "assume", "cover")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column} {self.severity} [{self.code}] {self.message}"


def has_error(diagnostics: list[Diagnostic]) -> bool:
    """Whether any diagnostic fails the text (warnings do not)."""
    return any(d.severity == "error" for d in diagnostics)


# --------------------------------------------------------------------------
# AST nodes: plain data, compared field by field.


@dataclass(slots=True)
class Identifier:
    name: str


@dataclass(slots=True)
class Number:
    text: str


@dataclass(slots=True)
class StringLit:
    text: str  # includes the quotes


@dataclass(slots=True)
class Paren:
    inner: object


@dataclass(slots=True)
class Unary:
    op: str  # a prefix lexeme of OPERATORS
    operand: object


@dataclass(slots=True)
class Binary:
    op: str  # an infix lexeme of OPERATORS
    left: object
    right: object


@dataclass(slots=True)
class Ternary:
    cond: object
    if_true: object
    if_false: object


@dataclass(slots=True)
class Implication:
    op: str  # "|->" | "|=>"
    antecedent: object
    consequent: object


@dataclass(slots=True)
class DelayBounds:
    low: str  # number lexeme
    high: str | None = None  # number lexeme or "$"; None for a plain ##N
    ranged: bool = False


@dataclass(slots=True)
class Delay:
    """Sequence delay: `lhs ##bounds rhs`; lhs is None for a leading delay."""

    lhs: object | None
    bounds: DelayBounds
    rhs: object


@dataclass(slots=True)
class Repetition:
    """Consecutive repetition suffix: expr[*], expr[*n], expr[*m:n]."""

    operand: object
    low: str | None = None
    high: str | None = None  # number lexeme or "$"


@dataclass(slots=True)
class Index:
    base: object
    low: object
    high: object | None = None  # part-select when present


@dataclass(slots=True)
class Call:
    name: str
    args: list = field(default_factory=list)
    parenthesized: bool = True  # $fatal; is a call without parens


@dataclass(slots=True)
class Concat:
    parts: list


@dataclass(slots=True)
class Replication:
    count: object
    inner: Concat


@dataclass(slots=True)
class Clocking:
    edge: str  # "posedge" | "negedge"; the subset requires an explicit edge
    expr: object


@dataclass(slots=True)
class PropertySpec:
    clocking: Clocking | None
    disable_expr: object | None
    body: object


@dataclass(slots=True)
class AssertStmt:
    spec: PropertySpec
    label: str | None = None
    verb: str = "assert"  # assert | assume | cover
    else_action: Call | None = None


@dataclass(slots=True)
class PropertyDecl:
    name: str
    spec: PropertySpec
    attached_assert: AssertStmt | None = None


SvaAst = PropertyDecl | AssertStmt

# Minimum binding powers of the two expression contexts: a property body
# admits every operator; a boolean operand (clocking event, disable
# condition, call argument, index, delay operand) starts at the level of ?:.
_PROPERTY_BP = 0
_EXPRESSION_BP = INFIX["?"].bp


# --------------------------------------------------------------------------
# Parser


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


class _Parser:
    """Parses `source` from its `tokens`, whose offsets exceed their
    positions in `source` by `base` (a `Unit`'s tokens are its block's)."""

    def __init__(self, source: str, tokens: list[Tok], base: int = 0) -> None:
        self.source = source
        self.base = base
        end = base
        if tokens:  # just past the last token's source text
            kind, text, offset = tokens[-1]
            if kind == "error":  # its text is a message: one character, or a stop's rest
                end = base + len(source) if text in STOP_MESSAGES else offset + 1
            else:
                end = offset + len(text)
        self.tokens = tokens + [("end", "", end)]  # a look one token ahead follows a real token
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token helpers

    def peek(self) -> Tok:
        return self.tokens[self.pos]

    def at(self, kind: str, lexeme: str | None = None, offset: int = 0) -> bool:
        t = self.tokens[self.pos + offset]
        return t[0] == kind and (lexeme is None or t[1] == lexeme)

    def at_label(self) -> bool:
        return self.at("identifier") and self.at("operator", ":", 1)

    def at_assert(self) -> bool:
        """At an assert statement: a verb, or a label followed by ':'."""
        t = self.peek()
        return (t[0] == "keyword" and t[1] in VERBS) or self.at_label()

    def take(self) -> Tok:
        """Consume the next token; an error token raises its lex-error. Every
        caller has first seen that the next token is not the end token."""
        t = self.tokens[self.pos]
        self.pos += 1
        if t[0] == "error":
            raise self.error("lex-error", t[1], t)
        return t

    def take_kind(self, kind: str, message: str, lexemes: tuple[str, ...] | None = None) -> Tok:
        """Consume the next token if it is of `kind` (and, given `lexemes`,
        one of them); otherwise fail with `message` at it."""
        t = self.peek()
        if t[0] != kind or (lexemes is not None and t[1] not in lexemes):
            raise self.error("parse-expected", message)
        return self.take()

    def expect(self, kind: str, lexeme: str, what: str | None = None) -> Tok:
        t = self.tokens[self.pos]
        if t[1] == lexeme and t[0] == kind:
            self.pos += 1
            return t
        if t[0] == "end":
            raise self.error(
                "parse-expected", f"expected {what or lexeme!r} but reached end of input"
            )
        if t[0] != "error" and (t[0] != kind or t[1] != lexeme):
            raise self.error("parse-expected", f"expected {what or lexeme!r}, found {t[1]!r}")
        return self.take()

    def diagnostic(self, severity: str, code: str, message: str, token: Tok | None) -> Diagnostic:
        """A diagnostic at `token`, else at the next token (which may be
        the end of input)."""
        line, column = position(self.source, (token or self.peek())[2] - self.base)
        return Diagnostic(severity, line, column, code, message)

    def error(self, code: str, message: str, token: Tok | None = None) -> _ParseError:
        return _ParseError(self.diagnostic("error", code, message, token))

    def warn(self, code: str, message: str, token: Tok | None = None) -> None:
        self.diagnostics.append(self.diagnostic("warning", code, message, token))

    # -- entry points

    def parse_units(self) -> list[SvaAst]:
        units: list[SvaAst] = []
        while not self.at("end"):
            start = self.pos
            try:
                units.append(self.parse_unit())
            except _ParseError as err:
                self.diagnostics.append(err.diagnostic)
                if self.pos == start:
                    self.pos += 1
                self._resync()
        self._lint(units)
        return units

    def parse_unit(self) -> SvaAst:
        if self.at("keyword", "property"):
            return self.parse_property_decl()
        if self.at_assert():
            return self.parse_assert_stmt()
        t = self.peek()
        raise self.error(
            "parse-expected",
            f"expected 'property' or an assert statement, found {t[1]!r}",
        )

    def _resync(self) -> None:
        """Skip ahead to a plausible unit boundary after an error."""
        while not self.at("end"):
            t = self.peek()
            if t[0] == "keyword" and t[1] in ("property", *VERBS):
                return
            self.pos += 1
            if t[0] == "punctuation" and t[1] == ";":
                # swallow an endproperty closing the broken declaration
                if self.at("keyword", "endproperty"):
                    self.pos += 1
                return
            if t[0] == "keyword" and t[1] == "endproperty":
                return

    # -- declarations and statements

    def parse_property_decl(self) -> PropertyDecl:
        self.expect("keyword", "property")
        name = self.take_kind("identifier", "expected property name after 'property'")[1]
        if self.at("punctuation", "("):
            raise self.error(
                "parse-unsupported",
                "property port lists are not supported by this checker",
            )
        self.expect("punctuation", ";", "';' after property name")
        spec = self.parse_property_spec()
        self.expect("punctuation", ";", "';' after the property body")
        self.expect("keyword", "endproperty")
        decl = PropertyDecl(name=name, spec=spec)
        if self.at_assert():
            decl.attached_assert = self.parse_assert_stmt()
        return decl

    def parse_assert_stmt(self) -> AssertStmt:
        label = None
        if self.at_label():
            label = self.take()[1]
            self.take()  # ':'
        verb = self.take_kind("keyword", "expected 'assert', 'assume' or 'cover'", VERBS)[1]
        self.expect("keyword", "property", "'property' after 'assert'")
        self.expect("punctuation", "(")
        spec = self.parse_property_spec()
        self.expect("punctuation", ")")
        else_action = None
        if self.at("keyword", "else"):
            self.take()
            else_action = self.parse_action_call()
        self.expect("punctuation", ";", "';' terminating the assert statement")
        return AssertStmt(spec=spec, label=label, verb=verb, else_action=else_action)

    def parse_action_call(self) -> Call:
        t = self.take_kind("identifier", "expected a task call after 'else'")
        if not t[1].startswith("$"):
            self.warn(
                "lint-action-call",
                f"action block calls a non-system task {t[1]!r}",
                t,
            )
        if not self.at("punctuation", "("):
            return Call(name=t[1], parenthesized=False)
        self.take()
        return Call(name=t[1], args=self.parse_list(")"))

    def parse_property_spec(self) -> PropertySpec:
        clocking = None
        if self.at("punctuation", "@"):
            clocking = self.parse_clocking()
        disable_expr = None
        if self.at("keyword", "disable"):
            self.take()
            self.expect("keyword", "iff", "'iff' after 'disable'")
            self.expect("punctuation", "(")
            disable_expr = self.parse_expression()
            self.expect("punctuation", ")")
        body = self.parse_expression(_PROPERTY_BP)
        return PropertySpec(clocking=clocking, disable_expr=disable_expr, body=body)

    def parse_clocking(self) -> Clocking:
        self.expect("punctuation", "@")
        self.expect("punctuation", "(")
        edge = self.take_kind(
            "keyword", "expected 'posedge' or 'negedge' in clocking event", ("posedge", "negedge")
        )[1]
        expr = self.parse_expression()
        self.expect("punctuation", ")", "')' closing the clocking event")
        return Clocking(edge=edge, expr=expr)

    # -- operator expressions: precedence climbing over the operator table

    def parse_expression(self, min_bp: int = _EXPRESSION_BP):
        """Parse an operand, then fold in every infix operator that binds at
        least as tightly as `min_bp`. A prefix operator starts the operand
        only where `min_bp` admits its level. At `_PROPERTY_BP` this parses
        a property expression; at the default, a boolean expression."""
        op = PREFIX.get(self.tokens[self.pos][1])
        if op is None or op.bp < min_bp:
            node = self.parse_postfix()
        elif op.shape == "delay":
            self.pos += 1
            bounds = self.parse_delay_bounds()
            node = Delay(lhs=None, bounds=bounds, rhs=self.parse_expression(op.operand_bp))
        else:
            self.pos += 1
            node = Unary(op=op.lexeme, operand=self.parse_expression(op.operand_bp))
        while True:
            op = INFIX.get(self.tokens[self.pos][1])
            if op is None or op.bp < min_bp:
                return node
            self.pos += 1  # only an operator's token spells an operator's lexeme
            if op.shape == "binary":
                node = Binary(op=op.lexeme, left=node, right=self.parse_expression(op.operand_bp))
            elif op.shape == "delay":
                bounds = self.parse_delay_bounds()
                node = Delay(lhs=node, bounds=bounds, rhs=self.parse_expression(op.operand_bp))
            elif op.shape == "ternary":
                if_true = self.parse_expression(op.operand_bp)
                self.expect("operator", ":", "':' in conditional expression")
                if_false = self.parse_expression(op.operand_bp)
                node = Ternary(cond=node, if_true=if_true, if_false=if_false)
            else:
                before = self.pos
                try:
                    rhs = self.parse_expression(op.operand_bp)
                except _ParseError as err:
                    if self.pos != before:
                        raise
                    # nothing consumable followed the implication operator,
                    # so the error stands at the same token
                    raise self.error(
                        "parse-expected", f"expected expression after {op.lexeme}"
                    ) from err
                node = Implication(op=op.lexeme, antecedent=node, consequent=rhs)

    def parse_delay_bounds(self) -> DelayBounds:
        if self.at("number"):
            return DelayBounds(low=self.take()[1])
        if self.at("punctuation", "["):
            self.take()
            low = self.take_kind("number", "expected lower delay bound")[1]
            self.expect("operator", ":", "':' in delay range")
            high = self.parse_upper_bound("upper delay bound")
            self.expect("punctuation", "]")
            return DelayBounds(low=low, high=high, ranged=True)
        raise self.error("parse-expected", "expected delay count or '[' after '##'")

    def parse_upper_bound(self, what: str) -> str:
        """The upper bound of a delay or repetition range: a number or `$`."""
        if self.at("number") or self.at("identifier", "$"):
            return self.take()[1]
        raise self.error("parse-expected", f"expected {what} or '$'")

    def parse_postfix(self):
        node = self.parse_primary()
        while self.tokens[self.pos][1] == "[" and self.tokens[self.pos][0] == "punctuation":
            if self.at("operator", "*", 1):
                node = self.parse_repetition(node)
                continue
            self.take()
            low = self.parse_expression()
            high = None
            if self.at("operator", ":"):
                self.take()
                high = self.parse_expression()
            self.expect("punctuation", "]", "']' closing the index")
            node = Index(base=node, low=low, high=high)
        return node

    def parse_repetition(self, operand) -> Repetition:
        self.expect("punctuation", "[")
        self.expect("operator", "*")
        low = None
        high = None
        if self.at("number"):
            low = self.take()[1]
            if self.at("operator", ":"):
                self.take()
                high = self.parse_upper_bound("repetition upper bound")
        self.expect("punctuation", "]", "']' closing the repetition")
        return Repetition(operand=operand, low=low, high=high)

    def parse_primary(self):
        t = self.tokens[self.pos]
        kind = t[0]
        if kind == "number":
            self.pos += 1
            return Number(text=t[1])
        if kind == "string":
            self.pos += 1
            return StringLit(text=t[1])
        if kind == "punctuation" and t[1] == "(":
            self.pos += 1
            inner = self.parse_expression(_PROPERTY_BP)
            self.expect("punctuation", ")", "')' closing the parenthesized expression")
            return Paren(inner=inner)
        if kind == "punctuation" and t[1] == "{":
            return self.parse_concat()
        if kind != "identifier":
            if kind == "end":
                raise self.error("parse-expected", "expected an expression")
            if kind == "error":
                self.take()  # raises its lex-error
            raise self.error("parse-expected", f"expected an expression, found {t[1]!r}")
        self.pos += 1
        after = self.tokens[self.pos]
        if after[1] != "(" or after[0] != "punctuation":
            return Identifier(name=t[1])
        if not t[1].startswith("$"):
            # no sequence/property declarations in the subset, so an
            # identifier call can never resolve
            raise self.error(
                "parse-unsupported",
                f"call of {t[1]!r}: only system functions may be called",
                t,
            )
        if t[1] not in SYSTEM_FUNCTIONS:
            self.warn("lint-unknown-system-function", f"unknown system function {t[1]!r}", t)
        self.take()
        args = self.parse_list(")", "')' closing the call")
        if len(args) < SYSTEM_FUNCTIONS.get(t[1], 0):
            raise self.error(
                "parse-arity",
                f"{t[1]} expects at least {SYSTEM_FUNCTIONS[t[1]]} argument(s)",
                t,
            )
        return Call(name=t[1], args=args)

    def parse_concat(self):
        self.expect("punctuation", "{")
        first = self.parse_expression()
        if self.at("punctuation", "{"):
            inner = self.parse_concat()
            self.expect("punctuation", "}", "'}' closing the replication")
            return Replication(count=first, inner=inner)
        return Concat(parts=self.parse_list("}", "'}' closing the concatenation", first))

    def parse_list(self, close: str, what: str | None = None, first=None) -> list:
        """Comma-separated expressions up to and including `close`. A caller
        that has already parsed the first item passes it as `first`;
        without one the list may be empty."""
        if first is None:
            if self.at("punctuation", close):
                self.take()
                return []
            first = self.parse_expression()
        items = [first]
        while self.at("punctuation", ","):
            self.take()
            items.append(self.parse_expression())
        self.expect("punctuation", close, what)
        return items

    # -- lint pass

    def _lint(self, units: list[SvaAst]) -> None:
        declared = {u.name for u in units if isinstance(u, PropertyDecl)}
        attached = [u.attached_assert for u in units if isinstance(u, PropertyDecl) and u.attached_assert]
        for stmt in [u for u in units if isinstance(u, AssertStmt)] + attached:
            spec = stmt.spec
            if (
                isinstance(spec.body, Identifier)
                and spec.clocking is None
                and spec.disable_expr is None
                and spec.body.name not in declared
            ):
                self.warn(
                    "lint-unresolved-property",
                    f"unresolved property reference {spec.body.name!r}",
                )


# --------------------------------------------------------------------------
# Public API


def parse_units(source: str) -> tuple[list[SvaAst], list[Diagnostic]]:
    """Parse a file of one or more assertion units.

    Returns (units, diagnostics). A unit is a property declaration (with any
    immediately-following assert statement attached) or a bare assert
    statement. Errors never abort the parse; they land in diagnostics and the
    parser resynchronizes at the next plausible boundary.

    A `Unit` that still carries the splitter's tokens, a slice of its code
    block's, is parsed from them; the parser subtracts the first token's
    offset, where the unit's text starts, from their offsets, so the
    diagnostics are those of lexing its text. Any other text is lexed here.
    """
    if isinstance(source, Unit) and source.tokens is not None:
        parser = _Parser(source, source.tokens, source.tokens[0][2])
    else:
        parser = _Parser(source, scan(source))
    units = parser.parse_units()
    return units, parser.diagnostics


def parse_assertion(source: str) -> tuple[SvaAst | None, list[Diagnostic]]:
    """Parse exactly one assertion unit.

    Returns (ast, diagnostics); ast is None when error-severity diagnostics
    were produced. Text containing more than one unit is rejected, since a
    unit is the granularity the checker and the combination stage work at.
    """
    units, diagnostics = parse_units(source)
    if has_error(diagnostics):
        return None, diagnostics
    if len(units) == 1:
        return units[0], diagnostics
    if units:
        code, message = "parse-multiple-units", f"expected a single assertion unit, found {len(units)}"
    else:
        code, message = "parse-empty", "no assertion unit found"
    return None, diagnostics + [Diagnostic("error", 1, 1, code, message)]

