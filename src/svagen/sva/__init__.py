"""SystemVerilog assertion subset: tokenizer, parser, and syntax checkers."""

from svagen.sva.tokens import Token, tokenize
from svagen.sva.parser import parse_assertion, parse_units
from svagen.sva.checker import (
    AssertionRecord,
    BuiltinChecker,
    CheckerUnavailableError,
    Diagnostic,
    ExternalChecker,
    MemoChecker,
    SyntaxChecker,
    format_log,
    partition,
)

__all__ = [
    "Token",
    "tokenize",
    "parse_assertion",
    "parse_units",
    "AssertionRecord",
    "BuiltinChecker",
    "CheckerUnavailableError",
    "Diagnostic",
    "ExternalChecker",
    "MemoChecker",
    "SyntaxChecker",
    "format_log",
    "partition",
]
