"""Tokenizer and parser tests: worked examples, the corpus round-trip law,
mutation sensitivity via single-token deletion, and assertions generated
from the operator table that must parse back to the tree they print."""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.sva import parser
from svagen.sva.checker import BuiltinChecker
from svagen.sva.operators import INFIX, OPERATORS, PREFIX
from svagen.sva.parser import (
    AssertStmt,
    Binary,
    Call,
    Clocking,
    Concat,
    Delay,
    DelayBounds,
    Diagnostic,
    Identifier,
    Implication,
    Index,
    Number,
    Paren,
    PropertyDecl,
    PropertySpec,
    Repetition,
    Replication,
    Ternary,
    Unary,
    has_error,
    parse_assertion,
    parse_units,
)
from svagen.sva.tokens import Token, scan, tokenize

from sva_corpus import CORPUS, TIMER_INTERRUPT_ASSERTION
from sva_tokens import lexed, tokens


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


class TestTokenize:
    def test_implication_statement(self):
        toks = tokenize("a |-> b;")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("identifier", "a"),
            ("operator", "|->"),
            ("identifier", "b"),
            ("punctuation", ";"),
        ]

    def test_clocking_event(self):
        toks = tokenize("@(posedge clk_i)")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("punctuation", "@"),
            ("punctuation", "("),
            ("keyword", "posedge"),
            ("identifier", "clk_i"),
            ("punctuation", ")"),
        ]

    def test_unterminated_block_comment(self):
        toks = tokenize("/* open")
        assert toks == [Token("error", "unterminated block comment", 1, 1)]

    def test_positions_are_one_based(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_repr_is_kind_lexeme_and_position(self):
        assert repr(tokenize("a\n  b")) == "[identifier('a'@1:1), identifier('b'@2:3)]"

    def test_sized_literals_and_strings(self):
        toks = tokenize("4'b01_01 8'hFF '0 \"msg\"")
        assert [t.kind for t in toks] == ["number", "number", "number", "string"]

    @pytest.mark.parametrize("literal", ["8'h FF", "5 'D 3", "4'sb 1010", "'h FF", "4 'd\n 7"])
    def test_whitespace_around_a_sized_literal_base(self, literal):
        # IEEE 1800-2017 5.7.1: space may follow the size and the base letter
        assert lexed(literal) == [("number", literal)]

    def test_no_whitespace_between_apostrophe_and_base(self):
        assert lexed("8' hFF") == [
            ("number", "8"),
            ("error", "unexpected character \"'\""),
            ("identifier", "hFF"),
        ]

    def test_comments_skipped(self):
        toks = tokenize("a // line\n/* block */ b")
        assert [t.lexeme for t in toks] == ["a", "b"]

    def test_longest_match_operators(self):
        toks = tokenize("a |=> b |-> c ## d")
        ops = [t.lexeme for t in toks if t.kind == "operator"]
        assert ops == ["|=>", "|->", "##"]

    def test_lone_hash_is_punctuation(self):
        toks = tokenize("#0 a ##1 b ### c")
        assert [(t.kind, t.lexeme) for t in toks if "#" in t.lexeme] == [
            ("punctuation", "#"),
            ("operator", "##"),
            ("operator", "##"),
            ("punctuation", "#"),
        ]


class TestParseAssertion:
    def test_timer_interrupt_assertion(self):
        ast, diagnostics = parse_assertion(TIMER_INTERRUPT_ASSERTION)
        assert errors_of(diagnostics) == []
        assert isinstance(ast, PropertyDecl)
        assert ast.name == "mtime_intr_p"
        assert ast.spec.clocking.edge == "posedge"
        assert ast.spec.disable_expr is not None
        assert isinstance(ast.spec.body, Implication)
        assert ast.spec.body.op == "|->"
        assert ast.attached_assert is not None

    def test_missing_consequent(self):
        ast, diagnostics = parse_assertion(
            "property p; @(posedge clk) a |-> ; endproperty"
        )
        assert ast is None
        errs = errors_of(diagnostics)
        assert errs
        assert "expected expression after |->" in errs[0].message

    def test_bare_reference_warns_unresolved(self):
        ast, diagnostics = parse_assertion("assert property (p);")
        assert isinstance(ast, AssertStmt)
        assert errors_of(diagnostics) == []
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert any("unresolved property reference 'p'" in w.message for w in warnings)

    def test_declared_reference_not_warned(self):
        _, diagnostics = parse_assertion(TIMER_INTERRUPT_ASSERTION)
        assert not any("unresolved" in d.message for d in diagnostics)

    def test_unknown_system_function_warns(self):
        _, diagnostics = parse_assertion(
            "assert property (@(posedge clk) $bogus(a) |-> b);"
        )
        warnings = [d for d in diagnostics if d.severity == "warning"]
        assert any("unknown system function" in w.message for w in warnings)

    def test_multiple_units_rejected(self):
        ast, diagnostics = parse_assertion(
            "assert property (@(posedge clk) a |-> b);\n"
            "assert property (@(posedge clk) c |-> d);"
        )
        assert ast is None
        assert any(d.code == "parse-multiple-units" for d in diagnostics)

    def test_empty_source(self):
        ast, diagnostics = parse_assertion("   \n")
        assert ast is None
        assert any(d.code == "parse-empty" for d in diagnostics)

    def test_edgeless_clocking_rejected(self):
        ast, diagnostics = parse_assertion("assert property (@(clk) a |-> b);")
        assert ast is None
        assert any("posedge" in d.message for d in errors_of(diagnostics))

    def test_diagnostics_carry_positions(self):
        _, diagnostics = parse_assertion("property p; @(posedge clk) a |-> ; endproperty")
        err = errors_of(diagnostics)[0]
        assert err.line == 1
        assert err.column == 34  # the ';' where the consequent should be


class TestElseAction:
    """The action-block paths: a call with no parentheses, an empty argument
    list, and a non-system task (a warning, not an error)."""

    HEAD = "assert property (@(posedge clk) a |-> b) else "
    ACTIONS = ["$fatal;", "$error();", '$error("x", a);', "my_task(1, 2);"]

    @pytest.mark.parametrize("action", ACTIONS)
    def test_round_trip(self, action):
        source = self.HEAD + action
        units, diagnostics = parse_units(source)
        assert errors_of(diagnostics) == []
        assert tokens(units) == lexed(source)

    def test_call_without_parentheses(self):
        ast, diagnostics = parse_assertion(self.HEAD + "$fatal;")
        assert diagnostics == []
        assert (ast.else_action.name, ast.else_action.args) == ("$fatal", [])
        assert ast.else_action.parenthesized is False

    def test_empty_argument_list(self):
        ast, diagnostics = parse_assertion(self.HEAD + "$error();")
        assert diagnostics == []
        assert ast.else_action.args == []
        assert ast.else_action.parenthesized is True

    def test_non_system_task_warns(self):
        ast, diagnostics = parse_assertion(self.HEAD + "my_task(1, 2);")
        assert ast is not None
        assert [d.render() for d in diagnostics] == [
            "1:47 warning [lint-action-call] action block calls a non-system task 'my_task'"
        ]

    def test_unclosed_task_arguments(self):
        _, diagnostics = parse_assertion(self.HEAD + "my_task(1, 2;")
        assert [d.render() for d in diagnostics] == [
            "1:47 warning [lint-action-call] action block calls a non-system task 'my_task'",
            "1:59 error [parse-expected] expected ')', found ';'",
        ]

    def test_missing_task(self):
        _, diagnostics = parse_assertion(self.HEAD + "5;")
        assert [d.render() for d in diagnostics] == [
            "1:47 error [parse-expected] expected a task call after 'else'"
        ]


class TestParseUnits:
    def test_mixed_file(self):
        source = CORPUS[1] + "\n" + TIMER_INTERRUPT_ASSERTION
        units, diagnostics = parse_units(source)
        assert errors_of(diagnostics) == []
        assert len(units) == 2

    def test_recovery_continues_after_error(self):
        source = "assert property (@(posedge clk) a |-> );\n" + CORPUS[1]
        units, diagnostics = parse_units(source)
        assert errors_of(diagnostics)
        assert len(units) == 1  # the good one still parses

    @pytest.mark.parametrize(
        "source, where",
        [
            ("assert property (p); `", "1:23"),  # just past the one bad character
            ("assert property (p); /* open", "1:29"),  # a lexer stop runs to the end
            ('assert property (p);\n"a string', "2:10"),
        ],
    )
    def test_end_of_input_after_an_error_token(self, source, where):
        _, diagnostics = parse_units(source)
        warning = diagnostics[-1]
        assert warning.code == "lint-unresolved-property"
        assert f"{warning.line}:{warning.column}" == where


class TestCorpus:
    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_parses_clean(self, idx):
        ast, diagnostics = parse_assertion(CORPUS[idx])
        assert ast is not None, diagnostics
        assert errors_of(diagnostics) == []

    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_token_round_trip(self, idx):
        source = CORPUS[idx]
        units, diagnostics = parse_units(source)
        assert errors_of(diagnostics) == []
        assert tokens(units) == lexed(source)


def mutation_rate(corpus: list[str]) -> tuple[int, int]:
    """(caught, total) over all single-token deletions of all corpus items."""
    caught = 0
    total = 0
    for source in corpus:
        lexemes = [t.lexeme for t in tokenize(source)]
        for skip in range(len(lexemes)):
            mutant = " ".join(lexemes[:skip] + lexemes[skip + 1 :])
            total += 1
            _, diagnostics = parse_assertion(mutant)
            if any(d.severity == "error" for d in diagnostics):
                caught += 1
    return caught, total


def test_single_token_deletion_sensitivity():
    caught, total = mutation_rate(CORPUS)
    assert total > 500
    assert caught / total >= 0.95, f"only {caught}/{total} mutants caught"


# --------------------------------------------------------------------------
# The table-driven generator: ASTs at the three levels of IEEE 1800-2017
# §16, each operator row drawn from OPERATORS, printed through `tokens` with
# the parentheses the rows' bp and assoc columns need and no others. The
# parser must give back exactly the drawn tree, its Paren nodes included.
#
# The levels keep each operand legal SVA: a boolean operand is never a
# sequence or a property, an implication's antecedent is a sequence, and
# `$` is only a range bound. So the checker's false accepts, such as
# `(a |-> b) && c` or `$past(a) == a[*2]`, are never drawn.

_BOOLEAN_BP = INFIX["?"].bp  # a boolean operand is parsed at the level of ?:
ROWS = [op for op in OPERATORS if op.fixity != "lexeme"]
BOOLEAN_ROWS = [op for op in ROWS if op.bp >= _BOOLEAN_BP]
SEQUENCE_ROWS = [op for op in ROWS if op.bp < _BOOLEAN_BP and op.shape in ("delay", "binary")]
PROPERTY_ROWS = [op for op in ROWS if op.bp < _BOOLEAN_BP and op.shape in ("unary", "implication", "binary")]

_NAMES = ["clk", "rst_n", "req", "ack", "data", "busy", "sel"]
LEAVES = [
    *map(Identifier, _NAMES),
    *map(Number, ["1", "3", "4'd7", "8'hFF", "2'b01"]),
    *(Call(f, [Identifier("req")]) for f in ("$rose", "$fell", "$stable", "$past")),
    *(Index(Identifier("data"), Number(i)) for i in ("0", "3", "7")),
    Concat([Identifier("req"), Identifier("ack")]),
    *(Replication(Number(n), Concat([Identifier("sel")])) for n in ("2", "4")),
]
DELAY_BOUNDS = [  # ##n, ##[m:n], ##[m:$]
    DelayBounds("1"),
    DelayBounds("2"),
    DelayBounds("0", "2", ranged=True),
    DelayBounds("1", "3", ranged=True),
    DelayBounds("1", "$", ranged=True),
]
REPETITION_COUNTS = [(None, None), ("3", None), ("1", "3"), ("2", "$")]  # [*], [*n], [*m:n], [*m:$]


def _arity(op) -> int:
    return 1 if op.fixity == "prefix" else 3 if op.shape == "ternary" else 2


def _node(op, operands, bounds=DELAY_BOUNDS[0]):
    """The node the parser builds for row `op` over `operands`, left to
    right."""
    if op.shape == "delay":
        return Delay(operands[0] if op.fixity == "infix" else None, bounds, operands[-1])
    if op.shape == "ternary":
        return Ternary(*operands)
    if op.fixity == "prefix":
        return Unary(op.lexeme, *operands)
    return (Implication if op.shape == "implication" else Binary)(op.lexeme, *operands)


def _row(node):
    """The row whose parse built `node`; None for an operand that is not an
    operator expression."""
    match node:
        case Unary(op):
            return PREFIX[op]
        case Binary(op) | Implication(op):
            return INFIX[op]
        case Ternary():
            return INFIX["?"]
        case Delay(lhs):
            return PREFIX["##"] if lhs is None else INFIX["##"]
    return None


def _takes(node, op) -> bool:
    """Whether `node`, printed left of the infix row `op`, would take `op`
    into its right end: a row on its right spine binds more loosely than
    `op`, or as tightly and to the right (`not a ##1 b` is `not (a ##1 b)`)."""
    row = _row(node)
    if row is None:
        return False
    if op.bp > row.bp or (op.bp == row.bp and row.assoc == "right"):
        return True
    match node:
        case Unary(_, last) | Binary(_, _, last) | Implication(_, _, last) | Ternary(_, _, last) | Delay(_, _, last):
            return _takes(last, op)


def _loose(node, op) -> bool:
    """Whether `node`, read as an operand right of row `op`, binds more
    loosely than `op` admits there: at a lower level, or at the same level
    of a left-associative `op`."""
    row = _row(node)
    return row is not None and (row.bp < op.bp or (row.bp == op.bp and op.assoc == "left"))


def parenthesized(node):
    """`node` with a Paren around each operand the parser would otherwise
    read into another tree, decided from the bp and assoc columns alone. A
    repetition suffix binds tighter than every row."""
    p = parenthesized
    row = _row(node)

    def left(x):
        return Paren(x) if _takes(x, row) else x

    def right(x):
        return Paren(x) if _loose(x, row) else x

    match node:
        case Unary(op, operand):
            return Unary(op, right(p(operand)))
        case Binary(op, lhs, rhs) | Implication(op, lhs, rhs):
            return type(node)(op, left(p(lhs)), right(p(rhs)))
        case Ternary(cond, if_true, if_false):
            return Ternary(left(p(cond)), right(p(if_true)), right(p(if_false)))
        case Delay(lhs, bounds, rhs):
            return Delay(None if lhs is None else left(p(lhs)), bounds, right(p(rhs)))
        case Repetition(operand, low, high):
            operand = p(operand)
            return Repetition(operand if _row(operand) is None else Paren(operand), low, high)
    return node


def _over(op, operand, antecedent):
    """Row `op`'s node over operands drawn from `operand`; an implication's
    antecedent from `antecedent`."""
    first = antecedent if op.shape == "implication" else operand
    rest = [operand] * (_arity(op) - 1)
    return st.builds(lambda bounds, *xs: _node(op, xs, bounds), st.sampled_from(DELAY_BOUNDS), first, *rest)


def _rows(rows, operand, antecedent=None):
    return st.sampled_from(rows).flatmap(lambda op: _over(op, operand, antecedent))


@functools.cache
def _booleans(depth: int):
    if depth == 0:
        return st.sampled_from(LEAVES)
    return st.one_of(st.sampled_from(LEAVES), _rows(BOOLEAN_ROWS, _booleans(depth - 1)))


@functools.cache
def _sequences(depth: int):
    """A boolean, a sequence row, or a repetition of a boolean or a
    sequence row (IEEE 1800-2017 repeats a sequence only in parentheses,
    so never a repetition directly)."""
    if depth == 0:
        return _booleans(2)
    rows = _rows(SEQUENCE_ROWS, _sequences(depth - 1))
    repeated = st.builds(
        lambda operand, count: Repetition(operand, *count),
        st.one_of(_booleans(2), rows),
        st.sampled_from(REPETITION_COUNTS),
    )
    return st.one_of(_booleans(2), repeated, rows)


@functools.cache
def _properties(depth: int):
    """A sequence or a property row; an implication's antecedent is a
    sequence."""
    if depth == 0:
        return _sequences(2)
    return st.one_of(_sequences(2), _rows(PROPERTY_ROWS, _properties(depth - 1), _sequences(2)))


def assert_prints_back(body, disable=None, edge="posedge"):
    """Parenthesize `body` (and `disable`), print the assertion through
    `tokens` joined by spaces, and check that the checker passes the text,
    the parser gives back exactly that tree and the text lexes to its
    tokens."""
    disable = None if disable is None else parenthesized(disable)
    spec = PropertySpec(Clocking(edge, Identifier("clk")), disable, parenthesized(body))
    stmt = AssertStmt(spec)
    text = " ".join(lexeme for _, lexeme in tokens(stmt))
    assert not has_error(BuiltinChecker().check(text)), text
    assert parse_units(text)[0] == [stmt], text
    assert lexed(text) == tokens(stmt)
    return stmt


@given(
    body=_properties(2),
    disable=st.one_of(st.none(), _booleans(1)),
    edge=st.sampled_from(["posedge", "negedge"]),
)
@settings(max_examples=200, deadline=None)
def test_generated_assertions_round_trip(body, disable, edge):
    assert_prints_back(body, disable, edge)


def test_the_levels_cover_every_row():
    assert {*BOOLEAN_ROWS, *SEQUENCE_ROWS, *PROPERTY_ROWS} == set(ROWS)


def _row_case(op):
    """Row `op` over leaves, with its own node again as the last operand,
    so its associativity decides the parentheses."""
    leaves = LEAVES[2 : 2 + _arity(op)]
    return _node(op, [*leaves[:-1], _node(op, leaves)])


@pytest.mark.parametrize("op", ROWS, ids=lambda op: f"{op.fixity} {op.lexeme}")
def test_each_row_prints_back(op):
    assert_prints_back(_row_case(op))


FORM_CASES = [
    *LEAVES,
    *(Delay(LEAVES[2], bounds, LEAVES[3]) for bounds in DELAY_BOUNDS),
    *(Repetition(LEAVES[2], *count) for count in REPETITION_COUNTS),
]


@pytest.mark.parametrize("form", FORM_CASES, ids=lambda form: " ".join(lexeme for _, lexeme in tokens(form)))
def test_each_form_prints_back(form):
    assert_prints_back(form)


def _classes(node) -> set[type]:
    """The classes of `node` and of every node under it."""
    if isinstance(node, list):
        return set().union(*map(_classes, node))
    if not dataclasses.is_dataclass(node):
        return set()
    return {type(node)}.union(*(_classes(getattr(node, f.name)) for f in dataclasses.fields(node)))


def test_round_trips_reach_every_ast_class():
    # the corpus, the else-action cases and the generator's fixed cases
    sources = CORPUS + [TestElseAction.HEAD + action for action in TestElseAction.ACTIONS]
    reached = _classes([parse_units(source)[0] for source in sources])
    reached |= _classes([assert_prints_back(case) for case in [*map(_row_case, ROWS), *FORM_CASES]])
    ast_classes = {
        value
        for value in vars(parser).values()
        if dataclasses.is_dataclass(value) and value.__module__ == parser.__name__
    }
    assert reached == ast_classes - {Diagnostic}


@pytest.mark.parametrize("stranger", [object(), Diagnostic("error", 1, 1, "x", "y"), "a"])
def test_tokens_rejects_what_it_does_not_know(stranger):
    with pytest.raises(TypeError, match=type(stranger).__name__):
        tokens(stranger)


@pytest.mark.parametrize("op", ROWS, ids=lambda op: f"{op.fixity} {op.lexeme}")
def test_operator_token_kind_matches_the_lexer(op):
    # a word operator serializes as the keyword the lexer reads, whatever its row
    a, b = Identifier("a"), Identifier("b")
    node = Binary(op.lexeme, a, b) if op.fixity == "infix" else Unary(op.lexeme, a)
    [(kind, text)] = [t for t in tokens(node) if t[1] == op.lexeme]
    [(lexed_kind, lexed_text, _)] = list(scan(op.lexeme))
    assert (kind, text) == (lexed_kind, lexed_text)
