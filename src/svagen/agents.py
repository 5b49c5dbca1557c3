"""Agent operations for the search and combination stages: weak-answer
generation, critique with score suppression, refinement, syntax correction
and deduplication.

Every agent renders its prompt from the templates and the context of a
`CallLog` and sends it through that log, which charges the call; the wire
conventions the models must follow are (a) assertions travel inside fenced
code blocks, cut into units on the checker's token stream (docs/formats.md,
"Model replies"), and (b) the critic ends with a `[SCORE: n]` marker, of
which the last occurrence wins so chain-of-thought preambles cannot confuse
the parse.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from svagen.bank import SignalInfo
from svagen.prompts import CRITIC_ATTEMPTS, Call, CallLog, render_prompt
from svagen.sva.checker import AssertionRecord
from svagen.sva.parser import VERBS
from svagen.sva.tokens import STOP_MESSAGES, Unit, normal_form, rescan, scan, scan_through
from svagen.tree import SCORE_MAX, SCORE_MIN, AnswerContent, SearchParams


class ScoreParseError(ValueError):
    """No usable score in the critic's reply: no marker, or one off the scale."""

    def __init__(self, message: str, raw_text: str) -> None:
        super().__init__(message)
        self.raw_text = raw_text


@dataclass(frozen=True)
class CritiqueResult:
    """A critic call whose score parsed: the node and search phase it scored,
    its reply, and its raw and suppressed scores."""

    node: int | None
    phase: str | None
    feedback: str
    raw_score: float
    suppressed_score: float


_SCORE_RE = re.compile(r"\[\s*score\s*:\s*([+-]?\d+(?:\.\d+)?)\s*\]", re.IGNORECASE)
# a block closes at the next fence; an unclosed last block, as in a reply
# cut at its length limit, runs to the end of the reply
_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)(?:```|\Z)", re.DOTALL)


def parse_score(text: str) -> float:
    """The value of the last `[SCORE: n]` marker, which must lie on the
    critic's scale [SCORE_MIN, SCORE_MAX]; ScoreParseError otherwise."""
    matches = _SCORE_RE.findall(text)
    if not matches:
        raise ScoreParseError("no [SCORE: n] marker found in critic reply", text)
    value = float(matches[-1])
    if not (SCORE_MIN <= value <= SCORE_MAX):
        raise ScoreParseError(f"score {value} outside [{SCORE_MIN}, {SCORE_MAX}]", text)
    return value


def suppress_score(score: float, params: SearchParams) -> float:
    """Full-score suppression: clamp optimistic scores down to the cap."""
    return min(score, params.score_cap)


# --------------------------------------------------------------------------
# Answer wire format: fenced code blocks, split into assertion units.


def extract_assertions(text: str) -> list[str]:
    """Pull assertion units out of fenced code blocks, in order.

    A unit is a `property` or `sequence` declaration with the statement that
    immediately follows it, or a bare, possibly labelled, `assert/assume/
    cover` statement; units may share a line. No fences, no units; an
    unclosed last fence runs to the end of the text.
    """
    return parse_answer(text).assertions


def parse_answer(text: str) -> AnswerContent:
    """The assertion units of `text`'s fenced code blocks (`extract_assertions`)
    and its commentary: everything outside those blocks, an unclosed last
    block included, or all of `text` when it holds no unit."""
    parts = _FENCE_RE.split(text)  # the text outside the blocks, each block's code between
    units = [unit for code in parts[1::2] for unit in split_assertion_units(code)]
    commentary = "".join(parts[::2]) if units else text
    return AnswerContent(assertions=units, commentary=commentary.strip())


def split_assertion_units(code: str) -> list[str]:
    """Split code into assertion units, each in its original text, by the
    rule in docs/formats.md ("Model replies"). The boundaries come from the
    checker's lexer, so nothing inside a comment or a string starts or ends
    a unit; stray code, comments and blank lines between units are dropped.

    Each closed unit is a `Unit` carrying the code's tokens of its text and
    its normal form (docs/formats.md, "Normal form"); a unit still open at
    a lexer stop or at the end of the code is a plain str. The code is
    lexed once, through its lexer stops, and again after a stop only where
    `rescan` must; labels and joins are read off its tokens, and a unit's
    text starts at its first token.
    """
    code += "\n"  # every line ends in a newline
    spans: list[list] = []  # [start, end, its tokens or None]
    ends: tuple[str, ...] | None = None  # the texts that close the open unit
    joinable = False  # the last span is a declaration a statement may join
    tokens, i = scan_through(code), 0
    while True:
        stop = len(code) - 1
        after = i  # index in `tokens` of the first token outside a unit since the last one closed or a stop
        while i < len(tokens):
            kind, text, offset = tokens[i]
            if kind == "error" and text in STOP_MESSAGES:
                stop = offset
                break
            if ends is not None:
                if text in ends:
                    spans[-1][1:] = offset + len(text), tokens[first : i + 1]
                    joinable, ends, after = ";" not in ends, None, i + 1
            elif _opens_unit(tokens, i):
                verb = text in VERBS
                label = verb and i - after >= 2 and tokens[i - 1][1] == ":" and tokens[i - 2][0] == "identifier"
                if not (verb and joinable and i - after == 2 * label):
                    first = i - 2 * label  # index in `tokens` of the unit's first token
                    spans.append([tokens[first][2], -1, None])
                ends, joinable = (";",) if verb else ("endproperty", "endsequence"), False
            i += 1
        if ends is not None:  # at a lexer stop or the end: to the end of that line, without tokens
            spans[-1][1:], ends = (stop, None), None
        if i == len(tokens):
            break
        joinable = False  # nothing joins a unit across a stop
        tokens, i = rescan(code, tokens, i, code.find("\n", stop) + 1)
    units: list[str] = []
    for start, end, tokens in spans:
        hi = code.find("\n", end)
        if tokens is not None and end < hi and scan(code[end:hi]):
            hi = end  # a token or a lexer stop follows on the last line
        text = code[start:hi].rstrip()
        units.append(text if tokens is None else Unit(text, tokens))
    return units


def _opens_unit(tokens: list[tuple[str, str, int]], i: int) -> bool:
    """Whether `tokens[i]`, outside a unit, starts one: a verb followed by
    `property` or `(` (or `sequence`, `final` or `#`, as in `cover
    sequence`, `assert final` and `assert #0`, which the checker then
    rejects), or `property` or `sequence` followed by a name and `;` or
    `(`. Prose that uses these words starts none."""
    text, after = tokens[i][1], tokens[i + 1 : i + 3]
    if text in VERBS:
        return bool(after) and after[0][1] in ("property", "(", "sequence", "final", "#")
    if text == "property" or text == "sequence":
        return len(after) == 2 and after[0][0] == "identifier" and after[1][1] in (";", "(")
    return False


# --------------------------------------------------------------------------
# Normalization pre-pass used before deduplication.


def normalize_assertion(text: str) -> str:
    """Canonical form for equality (docs/formats.md, "Normal form"). A
    `Unit` answers with the key it was built with; a plain text is lexed
    here, through any unterminated comment or string."""
    if isinstance(text, Unit):
        return text.key
    return normal_form(text, scan_through(text))


def merge_normalized(pool: list[str]) -> list[str]:
    """Drop later entries whose normalized text already occurred; keeps the
    first original spelling."""
    seen: set[str] = set()
    out: list[str] = []
    for text in pool:
        key = normalize_assertion(text)
        if key and key not in seen:
            seen.add(key)
            out.append(text)
    return out


# --------------------------------------------------------------------------
# Agent operations


def signal_context(signal: SignalInfo, workflow: str) -> dict[str, str]:
    """A signal's name, bank entry (`describe()`) and workflow information:
    the `CallLog.context` of its stage-2/3 prompts. ValueError for a signal
    the weak answer cannot start from, unnamed or undescribed."""
    if not signal.verilog_name or not (signal.description or signal.definition or signal.functionality):
        raise ValueError("weak answer needs a named, described signal")
    return {"signal_name": signal.verilog_name, "specification_text": signal.describe(), "workflow_info": workflow}


def _call(log: CallLog, key: str, **values: str) -> Call:
    """Render `log`'s template `key` with the log's context and this call's
    `values`, as the `(role, messages)` call `log` sends."""
    template = log.templates[key]
    return template.role_name, render_prompt(template, {**log.context, **values})


def generate_weak_answer(log: CallLog) -> AnswerContent:
    """First, deliberately short assertion set seeding the tree root."""
    return parse_answer(log.complete(*_call(log, "sva_weak")))


def critique(
    log: CallLog,
    answer: AnswerContent,
    params: SearchParams,
    node: int | None = None,
    phase: str | None = None,
    then: Callable[[], Call | None] | None = None,
) -> CritiqueResult:
    """Score an assertion set with its syntax log; the returned
    suppressed_score is what feeds the tree. `then` builds a call the log
    may send beside this one (`CallLog.complete`). A reply with no usable
    score (`parse_score`) is asked again, with the same messages and no
    `then`, up to `CRITIC_ATTEMPTS` calls; ScoreParseError holds the last.
    """
    role, messages = _call(
        log, "critic",
        assertions="\n\n".join(answer.assertions) or "(no assertions)",
        syntax_log=answer.syntax_log or "(not available)",
    )
    for attempt in range(CRITIC_ATTEMPTS):
        reply = log.complete(role, messages, node, phase, None if attempt else then)
        try:
            raw = parse_score(reply)
            break
        except ScoreParseError as err:
            if attempt == CRITIC_ATTEMPTS - 1:
                raise ScoreParseError(f"critic score unparseable twice: {err}", reply) from err
    return CritiqueResult(node, phase, reply, raw, suppress_score(raw, params))


def refine(log: CallLog, answer: AnswerContent, feedback: str, rag_context: str) -> AnswerContent:
    """Produce an improved assertion set from both feedback channels: the
    critic's `feedback` and the answer's syntax log.

    The input answer is read-only; the result is a fresh AnswerContent.
    """
    reply = log.complete(*_call(
        log, "sva_refine",
        assertions="\n\n".join(answer.assertions) or "(no assertions yet)",
        feedback=feedback or "(none)",
        syntax_log=answer.syntax_log or "(none)",
        rag_context=rag_context or "(none)",
    ))
    return parse_answer(reply)


def format_bad_assertions(records: list[AssertionRecord]) -> str:
    """Render failing assertions with their diagnostics, verbatim, for the
    correction prompt."""
    blocks = []
    for i, record in enumerate(records, start=1):
        lines = [f"Assertion {i}:", record.text, "Syntax issues:"]
        lines += [f"  {d.render()}" for d in record.diagnostics]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def correction_call(log: CallLog, bad: list[AssertionRecord]) -> Call | None:
    """The call `correct_syntax` sends for `bad`; None for an empty input.
    Every input record must carry diagnostics."""
    if not all(record.diagnostics for record in bad):
        raise ValueError("correction input must carry at least one diagnostic per assertion")
    return _call(log, "syntax_correction", assertions=format_bad_assertions(bad)) if bad else None


def correct_syntax(log: CallLog, bad: list[AssertionRecord]) -> list[str]:
    """Ask the correction agent to fix failing assertions (`correction_call`).
    An empty input returns empty without a call."""
    call = correction_call(log, bad)
    return extract_assertions(log.complete(*call)) if call else []


def deduplication_call(log: CallLog, pool: list[str]) -> Call | None:
    """The call `deduplicate` sends for `pool`; None for a pool of one or fewer."""
    return _call(log, "deduplication", assertions="\n\n".join(pool)) if len(pool) > 1 else None


def deduplicate(log: CallLog, pool: list[str]) -> tuple[list[str], list[str]]:
    """Ask the deduplication agent which pool entries to retain.

    The output is constrained to be a subset of the pool under normalized
    equality; a reply that modifies or invents assertions is rejected and
    the whole pool kept, with a warning. Returns (assertions, warnings).
    """
    call = deduplication_call(log, pool)
    if call is None:
        return list(pool), []
    reply_assertions = extract_assertions(log.complete(*call))
    pool_norms = {normalize_assertion(t) for t in pool}
    kept_norms: set[str] = set()
    for text in reply_assertions:
        key = normalize_assertion(text)
        if key not in pool_norms:
            return list(pool), [
                f"deduplication reply contained an assertion not in the pool; pool kept as-is: {text[:80]!r}"
            ]
        kept_norms.add(key)
    if not kept_norms:
        return list(pool), [
            "deduplication reply contained no assertions; pool kept as-is"
        ]
    # preserve pool order, keep the pool's original spelling
    return [t for t in pool if normalize_assertion(t) in kept_norms], []
