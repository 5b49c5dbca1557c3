"""Tokenizer and parser tests: worked examples, the corpus round-trip law,
and mutation sensitivity via single-token deletion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.sva.operators import OPERATORS
from svagen.sva.parser import (
    AssertStmt,
    Binary,
    Identifier,
    Implication,
    PropertyDecl,
    Unary,
    parse_assertion,
    parse_units,
    units_to_token_signature,
)
from svagen.sva.tokens import Token, scan, token_signature, tokenize

from sva_corpus import CORPUS, TIMER_INTERRUPT_ASSERTION


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
        assert token_signature(tokenize(literal)) == [("number", literal)]

    def test_no_whitespace_between_apostrophe_and_base(self):
        assert token_signature(tokenize("8' hFF")) == [
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

    @pytest.mark.parametrize(
        "action", ["$fatal;", "$error();", '$error("x", a);', "my_task(1, 2);"]
    )
    def test_round_trip(self, action):
        source = self.HEAD + action
        units, diagnostics = parse_units(source)
        assert errors_of(diagnostics) == []
        assert units_to_token_signature(units) == token_signature(tokenize(source))

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
        assert units_to_token_signature(units) == token_signature(tokenize(source))


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
# Generator-based round trip: random grammar-valid assertions must
# re-serialize to their own token stream.

_ident = st.sampled_from(["clk", "rst_n", "req", "ack", "data", "busy", "sel"])
_number = st.sampled_from(["1", "3", "4'd7", "8'hFF", "2'b01"])


def _leaf() -> st.SearchStrategy[str]:
    return st.one_of(
        _ident,
        _number,
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["$rose", "$fell", "$stable", "$past"]), _ident),
        st.builds(lambda b, i: f"{b}[{i}]", _ident, st.sampled_from(["0", "3", "7"])),
        st.builds(lambda a, b: f"{{{a}, {b}}}", _ident, _ident),
        st.builds(lambda n, a: f"{{{n}{{{a}}}}}", st.sampled_from(["2", "4"]), _ident),
    )


def _bool_expr(depth: int) -> st.SearchStrategy[str]:
    if depth <= 0:
        return _leaf()
    sub = _bool_expr(depth - 1)
    return st.one_of(
        _leaf(),
        st.builds(lambda a: f"(!{a})", sub),
        st.builds(
            lambda a, op, b: f"({a} {op} {b})",
            sub,
            st.sampled_from(["&&", "||", "==", "!=", "<", ">=", "+", "&", "|"]),
            sub,
        ),
    )


def _seq_expr(depth: int) -> st.SearchStrategy[str]:
    base = _bool_expr(depth)
    return st.one_of(
        base,
        st.builds(lambda a, n, b: f"{a} ##{n} {b}", base, st.sampled_from(["1", "2"]), base),
        st.builds(lambda a, m, n: f"({a})[*{m}:{n}]", base, st.sampled_from(["1", "2"]), st.sampled_from(["3", "$"])),
    )


_assertions = st.builds(
    lambda edge, dis, ante, op, cons: (
        f"assert property (@({edge} clk) "
        + (f"disable iff ({dis}) " if dis else "")
        + f"{ante} {op} {cons});"
    ),
    st.sampled_from(["posedge", "negedge"]),
    st.one_of(st.none(), _bool_expr(1)),
    _seq_expr(2),
    st.sampled_from(["|->", "|=>"]),
    _seq_expr(2),
)


@given(source=_assertions)
@settings(max_examples=200, deadline=None)
def test_generated_assertions_round_trip(source):
    units, diagnostics = parse_units(source)
    assert [d for d in diagnostics if d.severity == "error"] == []
    assert units_to_token_signature(units) == token_signature(tokenize(source))


@pytest.mark.parametrize(
    "op", [op for op in OPERATORS if op.fixity != "lexeme"], ids=lambda op: f"{op.fixity} {op.lexeme}"
)
def test_operator_token_kind_matches_the_lexer(op):
    # a word operator serializes as the keyword the lexer reads, whatever its row
    a, b = Identifier("a"), Identifier("b")
    node = Binary(op.lexeme, a, b) if op.fixity == "infix" else Unary(op.lexeme, a)
    [(kind, text)] = [t for t in node.to_tokens() if t[1] == op.lexeme]
    [(lexed_kind, lexed, _)] = list(scan(op.lexeme))
    assert (kind, text) == (lexed_kind, lexed)
