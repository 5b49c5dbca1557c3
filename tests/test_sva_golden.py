"""Golden equivalence suite for the SVA lexer and parser.

For every input it records the token stream (kind, lexeme, line, column),
the parsed units, and the rendered `parse_units` and `parse_assertion`
diagnostics. Outputs for the corpus and for every single-token deletion of
it are stored verbatim in `sva_golden.jsonl`; outputs for seeded mutants,
seeded random strings and seeded random operator expressions are pinned by
one SHA-256 digest. Any change to tokens, AST shape or diagnostics shows up
here.

Regenerate (only when a change to the accepted language or to a diagnostic
is intended) with `PYTHONPATH=src python tests/test_sva_golden.py`, which
rewrites the JSONL file and prints the digest to paste below.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from svagen.sva.parser import parse_assertion, parse_units
from svagen.sva.tokens import tokenize

from sva_corpus import CORPUS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "sva_golden.jsonl")
SEEDED_DIGEST = "c1c3261228c7d96acb4731090a5d136c11136236e97b8dd47661895d96de2bf1"
MUTANT_COUNT = 2400
RANDOM_COUNT = 1500
EXPRESSION_COUNT = 1500

# Every operator lexeme of the subset, written out here (not imported) so the
# inputs do not depend on the code under test.
OPERATORS = (
    "|=>", "|->", "===", "!==", "<<<", ">>>", "##", "&&", "||", "==", "!=",
    "<=", ">=", "<<", ">>", "~^", "^~", "->", "+", "-", "*", "/", "%", "<",
    ">", "!", "~", "&", "|", "^", "?", ":", "=",
)
PUNCTUATION = tuple("()[]{};,@.")
KEYWORDS = (
    "property", "endproperty", "assert", "assume", "cover", "disable", "iff",
    "posedge", "negedge", "and", "or", "not", "else",
)
IDENTIFIERS = ("a", "req", "clk", "_x1", "$", "$rose", "$past", "$bogus", "q$2")
NUMBERS = (
    "0", "1", "15", "1_000", "3.5", "4'b01_01", "8'hFF", "4 'd 7", "12'sd3",
    "2'b1?", "'0", "'1", "'x", "'z", "'hA", "'sb1", "16'hBEEF",
)
FRAGMENTS = (
    '"msg"', '"esc \\" q"', '"open', '"line\nbreak"', "// note\n", "// end",
    "/* block */", "/* multi\nline */", "/* open", "/*/", "'", "#", "`", "\\",
    "é", "\x0b", "\t", "\r\n", "\n", " ",
)
ALPHABET = OPERATORS + PUNCTUATION + KEYWORDS + IDENTIFIERS + NUMBERS + FRAGMENTS


def record(source: str) -> dict:
    """Canonical lexer and parser output for one input."""
    units, unit_diagnostics = parse_units(source)
    _, diagnostics = parse_assertion(source)
    return {
        "source": source,
        "tokens": [[t.kind, t.lexeme, t.line, t.column] for t in tokenize(source)],
        "units": repr(units),
        "parse_units": [d.render() for d in unit_diagnostics],
        "parse_assertion": [d.render() for d in diagnostics],
    }


def canonical(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, ensure_ascii=True, separators=(",", ":"))


def corpus_and_deletions() -> list[str]:
    inputs = list(CORPUS)
    for source in CORPUS:
        lexemes = [t.lexeme for t in tokenize(source)]
        for skip in range(len(lexemes)):
            inputs.append(" ".join(lexemes[:skip] + lexemes[skip + 1 :]))
    return inputs


def seeded_mutants(count: int = MUTANT_COUNT, seed: int = 1800) -> list[str]:
    """Corpus items with 1-3 token deletions, duplications, swaps or
    operator insertions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lexemes = [t.lexeme for t in tokenize(rng.choice(CORPUS))]
        for _ in range(rng.randrange(1, 4)):
            i = rng.randrange(len(lexemes))
            edit = rng.randrange(4)
            if edit == 0 and len(lexemes) > 1:
                del lexemes[i]
            elif edit == 1:
                lexemes.insert(i, lexemes[i])
            elif edit == 2:
                j = rng.randrange(len(lexemes))
                lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
            else:
                lexemes.insert(i, rng.choice(OPERATORS))
        out.append(rng.choice((" ", "\n")).join(lexemes))
    return out


def seeded_random_strings(count: int = RANDOM_COUNT, seed: int = 2017) -> list[str]:
    """Strings over the lexer alphabet, pieces joined with or without
    whitespace so adjacent operators can fuse."""
    rng = random.Random(seed)
    out = [" ".join(OPERATORS), "".join(OPERATORS), " ".join(ALPHABET)]
    while len(out) < count:
        pieces = [rng.choice(ALPHABET) for _ in range(rng.randrange(1, 30))]
        out.append("".join(p + rng.choice(("", "", " ", "\n")) for p in pieces))
    return out


def _random_expression(rng: random.Random, depth: int) -> str:
    shape = rng.randrange(8) if depth else 0
    if shape == 0:
        return rng.choice(
            IDENTIFIERS[:4] + NUMBERS[:9]
            + ("$rose(a)", "v[3]", "v[7:4]", "{a, b}", "{2{a}}", "s[*2]", "s[*1:$]")
        )
    sub = _random_expression(rng, depth - 1)
    if shape == 1:
        prefix = rng.choice(("!", "~", "-", "+", "&", "|", "^", "not ", "##1 ", "##[1:$] "))
        return prefix + sub
    if shape == 6:
        return f"{sub} ? {_random_expression(rng, depth - 1)} : {_random_expression(rng, depth - 1)}"
    if shape == 7:
        return f"({sub})"
    infix = rng.choice(
        [op for op in OPERATORS if op not in ("!", "~", "?", ":")]
        + ["and", "or", "##2", "##[0:3]", "##[1:$]"]
    )
    return f"{sub} {infix} {_random_expression(rng, depth - 1)}"


def seeded_expressions(count: int = EXPRESSION_COUNT, seed: int = 1973) -> list[str]:
    """Random operator expressions as the body of an assertion, so the
    precedence and associativity of every operator pair is exercised."""
    rng = random.Random(seed)
    return [
        f"assert property (@(posedge clk) {_random_expression(rng, rng.randrange(1, 6))});"
        for _ in range(count)
    ]


def seeded_digest() -> str:
    h = hashlib.sha256()
    for source in seeded_mutants() + seeded_random_strings() + seeded_expressions():
        h.update(canonical(record(source)).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def test_corpus_and_deletions_match_golden():
    with open(GOLDEN_PATH, encoding="ascii") as f:
        expected = [json.loads(line) for line in f]
    inputs = corpus_and_deletions()
    assert len(inputs) == len(expected)
    for source, want in zip(inputs, expected):
        assert record(source) == want


def test_seeded_mutants_and_random_strings_match_digest():
    assert seeded_digest() == SEEDED_DIGEST


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="ascii") as f:
        for source in corpus_and_deletions():
            f.write(canonical(record(source)) + "\n")
    print(seeded_digest())
