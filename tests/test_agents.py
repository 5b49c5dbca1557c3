"""Agent-layer tests: prompt rendering, score parsing and suppression,
assertion extraction, normalization, and the agent operations over a
scripted backend."""

from __future__ import annotations

import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svagen.agents import (
    CritiqueResult,
    ScoreParseError,
    correct_syntax,
    critique,
    deduplicate,
    extract_assertions,
    generate_weak_answer,
    merge_normalized,
    normalize_assertion,
    parse_answer,
    parse_score,
    refine,
    signal_context,
    split_assertion_units,
    suppress_score,
)
from svagen.backends import BackendError, ScriptEntry, ScriptedBackend
from svagen.bank import (
    SignalInfo,
    analyze_signal,
    analyze_waveform,
    analyzer_call,
    map_signals,
)
from svagen.prompts import (
    DEFAULT_TEMPLATES,
    CallLog,
    PromptTemplate,
    RenderError,
    render_prompt,
)
from svagen.sva.checker import AssertionRecord, BuiltinChecker, check_all
from svagen.sva.tokens import Unit
from svagen.tree import AnswerContent, SearchParams

from sva_corpus import CORPUS

from conftest import (
    INVALID_ASSERT,
    VALID_BARE_ASSERT,
    VALID_PROPERTY_UNIT,
    critic_reply,
    fenced,
)

ASSERTION_1 = """\
property mtime_intr_p;
  @(posedge clk_i) disable iff (!rst_ni)
  (mtime >= mtimecmp[0]) |-> intr[0];
endproperty
assert property (mtime_intr_p);"""


class RecordingBackend:
    """Wraps a scripted backend and keeps every prompt it saw."""

    def __init__(self, responses: list[str]) -> None:
        self._inner = ScriptedBackend.from_responses(responses)
        self.prompts: list[str] = []

    def complete(self, messages):
        self.prompts.append("\n".join(m["content"] for m in messages))
        return self._inner.complete(messages)


def signal_log(backend, signal, workflow: str = "w") -> CallLog:
    """A call log over `backend` carrying `signal`'s prompt context, as
    stage 2 leaves a signal's log."""
    log = CallLog("s", backend)
    log.context = signal_context(signal, workflow)
    return log


class TestRenderPrompt:
    def test_substitution(self):
        messages = render_prompt(
            DEFAULT_TEMPLATES["critic"],
            {
                "workflow_info": "w",
                "signal_name": "wb_rst_i",
                "specification_text": "reset description",
                "assertions": "assert property (x);",
                "syntax_log": "[1] PASS",
            },
        )
        assert len(messages) == 2
        assert messages[0]["role"] == "system"
        assert "wb_rst_i" in messages[1]["content"]

    def test_missing_placeholder_named(self):
        with pytest.raises(RenderError) as err:
            render_prompt(
                DEFAULT_TEMPLATES["critic"],
                {"workflow_info": "w", "signal_name": "s", "specification_text": "t",
                 "syntax_log": ""},
            )
        assert err.value.placeholder == "assertions"

    def test_no_other_transformation(self):
        # braces in substituted values and non-placeholder braces pass through
        template = PromptTemplate("sva", "sys", "A {x} B {NOT_A_KEY} C {3{SIG}} D")
        messages = render_prompt(template, {"x": "a && {b, c}"})
        assert messages[1]["content"] == "A a && {b, c} B {NOT_A_KEY} C {3{SIG}} D"

    def test_rendering_is_pure(self):
        context = {"specification_text": "s", "signal_name": "n"}
        first = render_prompt(DEFAULT_TEMPLATES["spec_analyzer"], context)
        second = render_prompt(DEFAULT_TEMPLATES["spec_analyzer"], context)
        assert first == second


class TestTemplateFidelity:
    """The shipped templates carry the role-defining anchor phrases."""

    def test_signal_mapper_anchor(self):
        assert DEFAULT_TEMPLATES["signal_mapper"].system_text.startswith(
            "Please act as a signal name mapping tool"
        )

    def test_spec_analyzer_anchor(self):
        assert "professional VLSI specification analyzer" in DEFAULT_TEMPLATES[
            "spec_analyzer"
        ].system_text

    def test_waveform_analyzer_anchor(self):
        system = DEFAULT_TEMPLATES["waveform_analyzer"].system_text
        assert "professional waveform analyzer" in system
        for section in (
            "[Timing Relationship]",
            "[Causal Dependencies]",
            "[State Transitions]",
        ):
            assert section in system

    def test_critic_anchors(self):
        system = DEFAULT_TEMPLATES["critic"].system_text
        assert system.startswith("Please act as a critic to a professional")
        for anchor in ("CORRECTNESS", "CONSISTENCY", "COMPLETENESS"):
            assert anchor in system

    def test_sva_anchors(self):
        system = DEFAULT_TEMPLATES["sva_refine"].system_text
        assert "write all the corresponding SVAs" in system
        assert "[width] [connectivity] [function]" in system
        for anchor in ("CORRECTNESS", "CONSISTENCY", "COMPLETENESS"):
            assert anchor in system

    def test_correction_anchor(self):
        assert "with their syntax issue fixed" in DEFAULT_TEMPLATES[
            "syntax_correction"
        ].user_text_template

    def test_deduplication_anchor(self):
        assert "Extract all unique and valid assertions" in DEFAULT_TEMPLATES[
            "deduplication"
        ].user_text_template


class TestTemplateContract:
    """The default template of each key is the one definition of the
    placeholders its agent fills; a template file may use only those."""

    def test_each_agent_fills_its_default_placeholders(self, monkeypatch, signal, params):
        filled: dict[str, list[str]] = {}

        def recording_render(template, context):
            key = next(k for k, t in DEFAULT_TEMPLATES.items() if t is template)
            filled[key] = sorted(context)
            return render_prompt(template, context)

        monkeypatch.setattr("svagen.agents.render_prompt", recording_render)
        monkeypatch.setattr("svagen.bank.render_prompt", recording_render)
        replies = ["ack_o: acknowledge", "[Signal Name]: ack_o", "[Signals]: ack_o"]
        replies += [fenced(VALID_BARE_ASSERT), critic_reply(40)] + [fenced(VALID_BARE_ASSERT)] * 3
        log = CallLog("s", ScriptedBackend.from_responses(replies))
        answer = AnswerContent(assertions=[VALID_BARE_ASSERT])
        map_signals(log, "spec", "output ack_o;")
        calls = [analyzer_call(log, "spec_analyzer", "spec", signal_name="ack_o")]
        calls.append(analyzer_call(log, "waveform_analyzer", "spec", waveform_text="handshake"))
        signal_reply, waveform_reply = log.complete_many(calls, 1)
        analyze_signal(signal_reply, "ack_o")
        analyze_waveform(waveform_reply, "handshake")
        log.context = signal_context(signal, "workflow")
        generate_weak_answer(log)
        critique(log, answer, params)
        refine(log, answer, "feedback", "")
        correct_syntax(log, _bad_records())
        deduplicate(log, [VALID_BARE_ASSERT, VALID_PROPERTY_UNIT])
        assert len(log) == 8
        # stages 2 and 3 render with the log's whole context, whose workflow
        # the correction and deduplication templates leave out
        expected = {key: t.placeholders() for key, t in DEFAULT_TEMPLATES.items()}
        for key in ("syntax_correction", "deduplication"):
            expected[key] = sorted(expected[key] + ["workflow_info"])
        assert filled == expected


class TestParseScore:
    def test_last_marker_wins(self):
        assert parse_score("...[SCORE: 40]... [SCORE: 55]") == 55.0

    def test_case_insensitive_boundary(self):
        assert parse_score("[score: -100]") == -100.0

    def test_out_of_range(self):
        with pytest.raises(ScoreParseError, match=r"score 150\.0 outside \[-100\.0, 100\.0\]") as err:
            parse_score("[SCORE: 150]")
        assert err.value.raw_text == "[SCORE: 150]"

    def test_no_marker(self):
        with pytest.raises(ScoreParseError) as err:
            parse_score("no score here")
        assert err.value.raw_text == "no score here"

    def test_decimals_and_sign(self):
        assert parse_score("[SCORE: +12.5]") == 12.5


class TestSuppression:
    def test_above_cap_clamped(self, params):
        assert suppress_score(97.0, params) == 95.0

    def test_in_range_untouched(self, params):
        assert suppress_score(-20.0, params) == -20.0

    @given(score=st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_suppression_law(self, score):
        params = SearchParams()
        suppressed = suppress_score(score, params)
        assert suppressed == min(score, 95.0)
        assert suppressed <= 95.0


class TestExtractAssertions:
    def test_assertion_listing_single_unit(self):
        units = extract_assertions(fenced(ASSERTION_1))
        assert len(units) == 1
        assert "mtime_intr_p" in units[0]

    def test_two_bare_asserts(self):
        text = fenced("assert property (a);\nassert property (b);")
        assert len(extract_assertions(text)) == 2

    def test_no_fences(self):
        assert extract_assertions("just prose, no code") == []

    def test_unclosed_last_fence_runs_to_the_end(self):
        unit = "assert property (@(posedge clk) a |-> b);"
        reply = "ok\n```sv\n" + unit + "\n"
        assert extract_assertions(reply) == [unit]
        answer = parse_answer("before\n" + fenced("assert property (c);") + "\nafter\n```sv\n" + unit)
        assert answer.assertions == ["assert property (c);", unit]
        assert answer.commentary == "before\n\nafter"

    def test_unit_cut_inside_an_unclosed_fence_is_kept_as_written(self):
        reply = "```sv\nassert property (a);\nassert property (@(posedge clk) b |->"
        units = extract_assertions(reply)
        assert units == ["assert property (a);", "assert property (@(posedge clk) b |->"]
        assert type(units[0]) is Unit and type(units[1]) is str  # open at the end: the checker reports it

    def test_closed_fences_are_unchanged(self):
        reply = "x\n```sv\nassert property (a);\n```\ny\n```\nassert property (b);\n```\nz ```assert property (q);```"
        assert extract_assertions(reply) == ["assert property (a);", "assert property (b);"]
        assert parse_answer(reply).commentary == "x\n\ny\n\nz ```assert property (q);```"

    def test_every_statement_complete_at_a_cut_is_a_unit_of_the_reply(self):
        reply = (
            "Two checks.\n```systemverilog\nassert property (@(posedge clk) req |-> ##[1:3] ack);\n"
            "a_2: assert property (@(posedge clk) $rose(ack) |-> !req); // then\n```\n"
            "And one more:\n```sv\ncover property (@(posedge clk) req ##1 ack); assert property (x);\n```\n"
        )
        keys = {u.key for u in extract_assertions(reply)}
        assert len(keys) == 4
        for cut in range(len(reply) + 1):
            complete = [u for u in extract_assertions(reply[:cut]) if isinstance(u, Unit)]
            assert {u.key for u in complete} <= keys, cut

    def test_multiline_assert_statement(self):
        unit = "assert property (@(posedge clk)\n  a |-> b);"
        assert extract_assertions(fenced(unit)) == [unit]

    def test_property_without_assert_is_a_unit(self):
        prop = "property p;\n  a |-> b;\nendproperty"
        assert extract_assertions(fenced(prop)) == [prop]

    def test_commentary_conventions(self):
        answer = parse_answer("prose only")
        assert answer.assertions == []
        assert answer.commentary == "prose only"
        answer2 = parse_answer("before\n" + fenced(VALID_BARE_ASSERT) + "\nafter")
        assert len(answer2.assertions) == 1
        assert "before" in answer2.commentary and "after" in answer2.commentary
        assert VALID_BARE_ASSERT not in answer2.commentary

    def test_split_units_plain_text(self):
        units = split_assertion_units(VALID_PROPERTY_UNIT + "\n" + VALID_BARE_ASSERT)
        assert len(units) == 2

    @pytest.mark.parametrize(
        "unit",
        [
            # a ';' inside a line comment does not end the statement
            "assert property (@(posedge clk) // wait; then check\n    req |-> ##1 ack);",
            # an 'endproperty' inside a line comment does not close the block
            "property p;\n  @(posedge clk) a |-> b; // endproperty follows\nendproperty\n"
            "assert property (p);",
            # a ';' inside a string literal does not end the statement
            'assert property (@(posedge clk) req |-> ##1 ack)\n  else $error("a; b"\n  );',
        ],
    )
    def test_boundaries_ignore_comments_and_strings(self, unit):
        units = split_assertion_units(unit + "\n" + VALID_BARE_ASSERT)
        assert units == [unit, VALID_BARE_ASSERT]
        assert BuiltinChecker().check(unit) == []

    def test_two_asserts_on_one_line(self):
        first = "assert property (@(posedge clk) a |-> b);"
        second = "assert property (@(posedge clk) c |-> d);"
        units = split_assertion_units(f"{first} {second}")
        assert units == [first, second]
        assert all(BuiltinChecker().check(u) == [] for u in units)

    def test_declaration_after_an_assert_on_its_line(self):
        p = "property p;\n  @(posedge clk) a |-> b;\nendproperty\nassert property (p);"
        q = "property q;\n  @(posedge clk) c |-> d;\nendproperty\nassert property (q);"
        units = split_assertion_units(f"{p} {q}")
        assert units == [p, q]
        assert all(BuiltinChecker().check(u) == [] for u in units)

    def test_sequence_declaration_stays_with_its_assert(self):
        unit = (
            "sequence s_req_ack;\n  req ##1 ack;\nendsequence\n"
            "assert property (@(posedge clk) s_req_ack |-> done);"
        )
        assert split_assertion_units(f"{unit}\n{VALID_BARE_ASSERT}") == [unit, VALID_BARE_ASSERT]

    @pytest.mark.parametrize(
        "prose",
        [
            "The property below checks the handshake",  # no name and ';' or '(' after 'property'
            "This will cover reset; then",  # no 'property' or '(' after the verb
        ],
    )
    def test_prose_with_a_unit_keyword_starts_no_unit(self, prose):
        assert split_assertion_units(f"{prose}\n{VALID_BARE_ASSERT}") == [VALID_BARE_ASSERT]

    @pytest.mark.parametrize(
        "unit",
        ["cover sequence (@(posedge clk) a ##1 b);", "assert final (a == b);", "assert #0 (a);"],
    )
    def test_statement_forms_outside_the_subset_stay_units(self, unit):
        # the checker rejects them, so they reach the correction agent
        assert split_assertion_units(f"{unit}\n{VALID_BARE_ASSERT}") == [unit, VALID_BARE_ASSERT]
        assert any(d.severity == "error" for d in BuiltinChecker().check(unit))

    def test_assert_after_stray_code_on_its_line(self):
        code = f"x = 1; {VALID_BARE_ASSERT}\ny = 2;"
        assert split_assertion_units(code) == [VALID_BARE_ASSERT]

    def test_label_after_stray_code_starts_the_unit(self):
        unit = "lbl: assert property (@(posedge clk) a);"
        assert split_assertion_units(f"x = 1; {unit}") == [unit]

    @pytest.mark.parametrize("opening", ['$error("oops', "/* note"])
    def test_lexer_stop_ends_the_unit_at_its_line(self, opening):
        # the unterminated string or comment stops the lexer; the unit ends
        # at the end of that line and the next line's unit still splits
        unit = f"assert property (@(posedge clk) a |-> b)\n  else {opening}"
        code = f"{unit}\n{VALID_BARE_ASSERT}\n{VALID_PROPERTY_UNIT}"
        assert split_assertion_units(code) == [unit, VALID_BARE_ASSERT, VALID_PROPERTY_UNIT]

    def test_splitting_stays_linear_across_lexer_stops(self):
        # each line stops the lexer; the tokens after each stop come from
        # the one lexing of the block, so 8x the lines take about 8x as long
        line = 'assert property (a) else $error("open'

        def seconds_to_split(n: int) -> float:
            code = f"{line}\n" * n
            start = time.perf_counter()
            units = split_assertion_units(code)
            seconds = time.perf_counter() - start
            assert units == [line] * n
            return seconds

        gc.collect()
        gc.disable()
        try:  # best of three, the two sizes taking turns
            small, large = zip(*[(seconds_to_split(500), seconds_to_split(4000)) for _ in range(3)])
        finally:
            gc.enable()
        assert min(large) < 12 * min(small)

    @pytest.mark.parametrize("rest", [" /* open", ' "open', " /* note\n   ends here */"])
    def test_closed_unit_ends_at_its_last_token_before_an_open_comment_or_string(self, rest):
        # the comment or string that runs past the line is not the unit's
        units = split_assertion_units(f"{VALID_BARE_ASSERT}{rest}\n{VALID_PROPERTY_UNIT}")
        assert units == [VALID_BARE_ASSERT, VALID_PROPERTY_UNIT]
        assert BuiltinChecker().check(units[0]) == []

    def test_comment_from_an_earlier_line_is_not_the_units(self):
        code = f"x = 1; /* a note\n   that ends here */ {VALID_BARE_ASSERT}"
        assert split_assertion_units(code) == [VALID_BARE_ASSERT]

    def test_a_lexer_stop_parts_a_declaration_from_the_next_statement(self):
        decl = "property p;\n  @(posedge clk) a |-> b;\nendproperty"
        code = f"{decl} /* open\n{VALID_BARE_ASSERT}"
        assert split_assertion_units(code) == [decl, VALID_BARE_ASSERT]

    @given(
        st.lists(st.sampled_from(CORPUS), max_size=6),
        st.lists(st.sampled_from(["\n", "\n\n", " "]), min_size=5, max_size=5),
    )
    @settings(max_examples=300, deadline=None)
    def test_corpus_units_split_back(self, units, separators):
        code = units[0] if units else ""
        for unit, sep in zip(units[1:], separators):
            code += sep + unit
        assert split_assertion_units(code) == units


class TestNormalization:
    def test_comments_whitespace_semicolons(self):
        a = "assert property (x);  // trailing comment"
        b = "assert  property\n(x)"
        assert normalize_assertion(a) == normalize_assertion(b)

    def test_block_comment_stripped(self):
        assert normalize_assertion("assert /* note */ property (x);") == "assert property (x)"

    def test_strings_preserved(self):
        a = 'assert property (x) else $error("a  b");'
        assert '"a  b"' in normalize_assertion(a)

    def test_merge_drops_byte_identical(self):
        pool = [VALID_BARE_ASSERT, VALID_BARE_ASSERT]
        assert merge_normalized(pool) == [VALID_BARE_ASSERT]

    def test_merge_keeps_first_spelling(self):
        pool = ["assert property (x);", "assert property (x)"]
        assert merge_normalized(pool) == ["assert property (x);"]


class TestSignalContext:
    def test_name_bank_entry_and_workflow(self, signal):
        assert signal_context(signal, "w") == {
            "signal_name": "ack_o", "specification_text": signal.describe(), "workflow_info": "w",
        }

    @pytest.mark.parametrize("info", [SignalInfo("ack_o"), SignalInfo("", description="ack")], ids=["undescribed", "unnamed"])
    def test_signal_the_weak_answer_cannot_start_from(self, info):
        with pytest.raises(ValueError, match="^weak answer needs a named, described signal$"):
            signal_context(info, "w")


class TestGenerateWeakAnswer:
    def test_single_assertion(self, signal):
        backend = ScriptedBackend.from_responses([fenced(VALID_BARE_ASSERT)])
        answer = generate_weak_answer(signal_log(backend, signal))
        assert answer.assertions == [VALID_BARE_ASSERT]

    def test_prose_reply_gives_degenerate_answer(self, signal):
        backend = ScriptedBackend.from_responses(["cannot comply"])
        answer = generate_weak_answer(signal_log(backend, signal))
        assert answer.assertions == []
        assert answer.commentary == "cannot comply"

    def test_exhausted_backend(self, signal):
        backend = ScriptedBackend.from_responses([])
        with pytest.raises(BackendError):
            generate_weak_answer(signal_log(backend, signal))

    def test_prompt_carries_brevity_instruction(self, signal):
        backend = RecordingBackend([fenced(VALID_BARE_ASSERT)])
        generate_weak_answer(signal_log(backend, signal))
        assert "short" in backend.prompts[0]


class TestCritique:
    def test_suppression_applied(self, signal, params):
        backend = ScriptedBackend.from_responses([critic_reply(97)])
        result = critique(signal_log(backend, signal), AnswerContent(assertions=["a"]), params)
        assert isinstance(result, CritiqueResult)
        assert result.raw_score == 97.0
        assert result.suppressed_score == 95.0

    def test_in_range_score(self, signal, params):
        backend = ScriptedBackend.from_responses([critic_reply(-20)])
        result = critique(signal_log(backend, signal), AnswerContent(assertions=["a"]), params)
        assert result.suppressed_score == -20.0

    def test_missing_marker(self, signal, params):
        backend = ScriptedBackend.from_responses(["no score at all", "no score again"])
        with pytest.raises(ScoreParseError):
            critique(signal_log(backend, signal), AnswerContent(assertions=["a"]), params)

    def test_unusable_score_is_asked_again_once(self, monkeypatch, signal, params):
        renders = []

        def counting_render(template, context):
            renders.append(template.role_name)
            return render_prompt(template, context)

        monkeypatch.setattr("svagen.agents.render_prompt", counting_render)
        backend = RecordingBackend(["no score at all", critic_reply(40)])
        log = signal_log(backend, signal)
        result = critique(log, AnswerContent(assertions=["a"]), params, node=3, phase="resample")
        assert (result.node, result.phase, result.raw_score) == (3, "resample", 40.0)
        assert result.feedback == critic_reply(40)
        assert [(e.role, e.node, e.phase) for e in log.events] == [("critic", 3, "resample")] * 2
        assert renders == ["critic"]  # rendered once, sent twice
        assert backend.prompts[0] == backend.prompts[1]

    def test_second_unusable_score_raises_with_the_second_reply(self, signal, params):
        backend = ScriptedBackend.from_responses(["no score at all", "[SCORE: 150]"])
        log = signal_log(backend, signal)
        with pytest.raises(ScoreParseError) as err:
            critique(log, AnswerContent(assertions=["a"]), params)
        assert str(err.value).startswith("critic score unparseable twice: ")
        assert str(err.value).endswith("score 150.0 outside [-100.0, 100.0]")
        assert err.value.raw_text == "[SCORE: 150]"
        assert [(e.role, e.node, e.phase) for e in log.events] == [("critic", None, None)] * 2

    def test_feedback_is_full_reply(self, signal, params):
        reply = critic_reply(10, feedback="The reset polarity is wrong.")
        backend = ScriptedBackend.from_responses([reply])
        result = critique(signal_log(backend, signal), AnswerContent(assertions=["a"]), params)
        assert result.feedback == reply

    def test_prompt_carries_the_answers_syntax_log(self, signal, params):
        backend = RecordingBackend([critic_reply(10)])
        answer = AnswerContent(assertions=["a"], syntax_log="[1] FAIL\n  1:1 error [x] marked")
        critique(signal_log(backend, signal), answer, params)
        assert answer.syntax_log in backend.prompts[0]
        assert signal.describe() in backend.prompts[0]


class TestRefine:
    def test_three_assertions(self, signal):
        reply = fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT, INVALID_ASSERT)
        backend = ScriptedBackend.from_responses([reply])
        answer = refine(signal_log(backend, signal), AnswerContent(assertions=["assert property (a);"]), "feedback", "")
        assert len(answer.assertions) == 3

    def test_empty_feedback_channels_allowed(self, signal):
        backend = ScriptedBackend.from_responses([fenced(VALID_BARE_ASSERT)])
        answer = refine(signal_log(backend, signal, ""), AnswerContent(), "", "")
        assert len(answer.assertions) == 1

    def test_prompt_contains_prior_assertions(self, signal):
        backend = RecordingBackend([fenced(VALID_BARE_ASSERT)])
        prior = AnswerContent(assertions=["assert property (q_old);"], syntax_log="[1] PASS")
        refine(signal_log(backend, signal), prior, "fb", "rag")
        assert "assert property (q_old);" in backend.prompts[0]
        assert "[1] PASS" in backend.prompts[0]

    def test_input_answer_not_mutated(self, signal):
        backend = ScriptedBackend.from_responses([fenced(VALID_BARE_ASSERT)])
        prior = AnswerContent(assertions=["assert property (q_old);"], commentary="c", syntax_log="log")
        refine(signal_log(backend, signal), prior, "fb", "rag")
        assert prior.assertions == ["assert property (q_old);"]
        assert prior.commentary == "c"


def _bad_records() -> list[AssertionRecord]:
    return check_all([INVALID_ASSERT, "property p; a |-> ; endproperty"], BuiltinChecker())


class TestCorrectSyntax:
    def test_empty_input_no_backend_call(self, signal):
        backend = ScriptedBackend.from_responses([])  # would raise if called
        assert correct_syntax(signal_log(backend, signal), []) == []

    def test_two_fixed(self, signal):
        backend = ScriptedBackend.from_responses(
            [fenced("assert property (a);", "assert property (b);")]
        )
        fixed = correct_syntax(signal_log(backend, signal), _bad_records())
        assert len(fixed) == 2

    def test_prompt_contains_diagnostics_verbatim(self, signal):
        backend = RecordingBackend([fenced("assert property (a);")])
        records = _bad_records()
        correct_syntax(signal_log(backend, signal), records)
        for record in records:
            for diagnostic in record.diagnostics:
                assert diagnostic.message in backend.prompts[0]

    def test_record_without_diagnostics_rejected(self, signal):
        backend = ScriptedBackend.from_responses([])
        with pytest.raises(ValueError):
            correct_syntax(signal_log(backend, signal), [AssertionRecord(text="assert property (a);")])


class TestDeduplicate:
    def test_singleton_skips_backend(self, signal):
        backend = ScriptedBackend.from_responses([])
        kept, warnings = deduplicate(signal_log(backend, signal), ["assert property (a);"])
        assert kept == ["assert property (a);"]
        assert warnings == []

    def test_subset_retained_in_pool_order(self, signal):
        pool = ["assert property (a);", "assert property (b);", "assert property (c);"]
        backend = ScriptedBackend.from_responses(
            [fenced("assert property (c);", "assert property (a);")]
        )
        kept, warnings = deduplicate(signal_log(backend, signal), pool)
        assert kept == ["assert property (a);", "assert property (c);"]
        assert warnings == []

    def test_non_subset_reply_rejected(self, signal):
        pool = ["assert property (a);", "assert property (b);"]
        backend = ScriptedBackend.from_responses([fenced("assert property (zzz);")])
        kept, warnings = deduplicate(signal_log(backend, signal), pool)
        assert kept == pool
        assert len(warnings) == 1

    def test_normalized_match_keeps_pool_spelling(self, signal):
        pool = ["assert property (a);  // keep me"]
        pool.append("assert property (b);")
        backend = ScriptedBackend.from_responses([fenced("assert  property (a)")])
        kept, _ = deduplicate(signal_log(backend, signal), pool)
        assert kept == ["assert property (a);  // keep me"]


class TestScriptedBackend:
    def test_keyed_entries(self):
        backend = ScriptedBackend(
            [
                # keyed entry for another signal is skipped over
                ScriptEntry(response="for-b", match="signal-b"),
                ScriptEntry(response="for-a", match="signal-a"),
            ]
        )
        assert backend.complete([{"role": "user", "content": "about signal-a"}]) == "for-a"
        assert backend.complete([{"role": "user", "content": "about signal-b"}]) == "for-b"

    def test_exhaustion_raises(self):
        backend = ScriptedBackend.from_responses(["only one"])
        backend.complete([{"role": "user", "content": "x"}])
        with pytest.raises(BackendError):
            backend.complete([{"role": "user", "content": "x"}])
