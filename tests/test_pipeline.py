"""Pipeline tests: the call schedule and budget accounting, early stop,
rollout failure policy, stage-3 set laws, isolation, artifact replay, and
the once-per-signal retrieval and once-per-run checks."""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
import time
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svagen.agents as agents
from svagen.backends import ScriptedBackend, ScriptEntry
from svagen.bank import BankLoadError, InformationBank, SignalInfo, StageError, load_bank, save_bank
from svagen.config import ConfigError, default_call_budget
from svagen.pipeline import (
    RunSummary,
    SignalRecord,
    SignalRunResult,
    run_all,
    run_signal,
    run_stage1,
    run_stage2,
    run_stage3,
)
from svagen.prompts import BudgetExceededError, CallEvent, CallLog, render_prompt
from svagen.rag import HashedBowEmbedder, VectorIndex
from svagen.records import load, loads
from svagen.sva.checker import BuiltinChecker, CheckerUnavailableError, ExternalChecker
from svagen.sva.parser import Diagnostic
from svagen.sva.tokens import Unit
from svagen.tree import ReasoningTree

from conftest import (
    CORRECTED_ASSERT,
    INVALID_ASSERT,
    VALID_BARE_ASSERT,
    VALID_PROPERTY_UNIT,
    config_for,
    correction_entry,
    critic_reply,
    dedup_entry,
    fenced,
    fits_schedule,
    full_signal_script,
    make_bank,
    signal_result,
    stage2_script,
)


def call_log(name: str, cap: int | None = None) -> CallLog:
    """A call log over a backend that answers every call."""
    return CallLog(name, ScriptedBackend.from_responses(["reply"] * 9), cap=cap)


class TestCallLedger:
    def test_cap_enforced(self):
        log = call_log("s", cap=2)
        log.complete("sva", [])
        log.complete("critic", [])
        with pytest.raises(BudgetExceededError):
            log.complete("critic", [])

    def test_monotone_and_isolated_per_signal(self):
        a, b = call_log("a", cap=3), call_log("b", cap=3)
        a.complete("sva", [])
        b.complete("sva", [])
        assert len(a) == 1
        assert len(b) == 1
        results = [SignalRunResult("a", a), SignalRunResult("b", b)]
        summary = RunSummary("d", results, call_log("stage 1"), max_per_signal=3)
        assert summary.to_dict()["totals"]["total_llm_calls"] == 2

    def test_stage1_not_counted_against_signals(self):
        stage1, a, idle = call_log("stage 1"), call_log("a", cap=1), call_log("idle", cap=1)
        for _ in range(5):
            stage1.complete("spec_analyzer", [])
        a.complete("sva", [])  # still fits
        results = [SignalRunResult("idle", idle), SignalRunResult("a", a)]
        out = RunSummary("d", results, stage1, max_per_signal=1).to_dict()
        assert out["totals"]["total_llm_calls"] == 6
        assert out["totals"]["stage1_calls"] == 5
        assert out["totals"]["max_api_calls"] == 2
        assert out["signals"]["idle"]["calls"] == 0
        # a signal that made no call has no ledger entry
        assert out["ledger"] == {
            "max_per_signal": 1,
            "stage1": {"spec_analyzer": 5},
            "signals": {"a": {"sva": 1}},
            "total_calls": 6,
        }

    def test_refuses_exactly_the_call_past_the_cap(self):
        backend = ScriptedBackend.from_responses(["reply"] * 9)
        log = CallLog("s", backend, cap=3)
        for _ in range(3):
            assert log.complete("critic", []) == "reply"
        with pytest.raises(BudgetExceededError):
            log.complete("critic", [])
        assert len(log) == backend.calls == 3  # the refused call was neither sent nor charged


class TestStage2Schedule:
    def test_four_rollouts_five_nodes_eighteen_calls(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        backend = ScriptedBackend(full_signal_script("ack_o"))
        stage2 = signal_result(config, backend)
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert len(stage2.tree) == 5
        assert stage2.tree.rollouts_completed == 4
        assert stage2.total_calls == 18
        assert stage2.warnings == []
        assert len(stage2.record().critiques) == 13  # every scored critic call retained
        stage2.tree.validate()

    def test_call_roles_match_schedule(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        backend = ScriptedBackend(full_signal_script("ack_o"))
        result = signal_result(config, backend)
        run_stage2(config, bank, result, BuiltinChecker())
        slice_ = result.log.counts()
        # 1 weak answer + 4 refinements; 1 root eval + 3 critic calls/rollout
        assert slice_ == {"critic": 13, "sva": 5}

    def test_unknown_signal(self, tmp_path, bank):
        config = config_for(tmp_path)
        backend = ScriptedBackend([])
        with pytest.raises(StageError):
            run_stage2(config, bank, signal_result(config, backend, "nope"), BuiltinChecker())

    def test_syntax_log_attached_to_evaluated_nodes(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        script = stage2_script(
            "ack_o",
            fenced(VALID_BARE_ASSERT),
            [fenced(VALID_PROPERTY_UNIT)],
            [30.0, 40.0, 50.0, 60.0],
        )
        backend = ScriptedBackend(script)
        result = signal_result(config, backend)
        run_stage2(config, bank, result, BuiltinChecker())
        tree = result.tree
        for node in tree.nodes.values():
            assert node.answer.syntax_log is not None
            assert "PASS" in node.answer.syntax_log


class TestEarlyStop:
    def _script_with_high_score_at_rollout(self, stop_at: int, n_rollouts: int = 4):
        """Evaluation score >= 90 at rollout `stop_at`, low elsewhere."""
        weak = fenced(VALID_BARE_ASSERT)
        answers = [fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT)] * n_rollouts
        scores = [30.0]
        for r in range(1, n_rollouts + 1):
            evaluation = 95.0 if r == stop_at else 40.0 + r
            scores += [35.0, 36.0, evaluation]
        return stage2_script("ack_o", weak, answers, scores)

    def test_stop_after_second_rollout(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=4, early_stop=True)
        backend = ScriptedBackend(self._script_with_high_score_at_rollout(2))
        stage2 = signal_result(config, backend)
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert len(stage2.tree) == 3
        assert stage2.tree.rollouts_completed == 2
        assert stage2.total_calls == 10  # 2 + 4*2
        assert any("early stop" in w for w in stage2.warnings)

    def test_no_early_stop_flag(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        backend = ScriptedBackend(self._script_with_high_score_at_rollout(2))
        result = signal_result(config, backend)
        run_stage2(config, bank, result, BuiltinChecker())
        assert len(result.tree) == 5
        assert result.total_calls == 18

    def test_failing_syntax_blocks_early_stop(self, tmp_path, bank):
        # high score but the best node contains a syntactically bad assertion
        weak = fenced(VALID_BARE_ASSERT)
        answers = [fenced(INVALID_ASSERT)] * 2
        scores = [30.0, 35.0, 36.0, 95.0, 35.0, 36.0, 41.0]
        config = config_for(tmp_path, n_rollouts=2, early_stop=True)
        backend = ScriptedBackend(stage2_script("ack_o", weak, answers, scores))
        stage2 = signal_result(config, backend)
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert stage2.tree.rollouts_completed == 2
        assert not any("early stop" in w for w in stage2.warnings)

    def test_no_early_stop_after_the_last_rollout(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=2, early_stop=True)
        backend = ScriptedBackend(self._script_with_high_score_at_rollout(2, n_rollouts=2))
        result = signal_result(config, backend)
        run_stage2(config, bank, result, BuiltinChecker())
        assert result.tree.rollouts_completed == 2
        assert result.tree.node(2).reward_samples == [95.0]
        assert not any("early stop" in w for w in result.warnings)

    def test_best_node_without_assertions_blocks_early_stop(self, tmp_path, bank):
        # the best-Q node is a refinement whose reply held no assertion
        answers = ["No change is needed.", fenced(VALID_BARE_ASSERT)]
        scores = [30.0, 35.0, 36.0, 95.0, 35.0, 36.0, 41.0]
        config = config_for(tmp_path, n_rollouts=2, early_stop=True)
        backend = ScriptedBackend(stage2_script("ack_o", fenced(VALID_BARE_ASSERT), answers, scores))
        stage2 = signal_result(config, backend)
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert stage2.tree.node(1).answer.assertions == []
        assert stage2.tree.rollouts_completed == 2
        assert not any("early stop" in w for w in stage2.warnings)


class TestRolloutFailurePolicy:
    def test_score_parse_retry_succeeds(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),  # weak answer
            ScriptEntry(response="no score marker"),          # root eval, bad
            ScriptEntry(response=critic_reply(30)),           # retry succeeds
            ScriptEntry(response=critic_reply(31)),           # re-sample
            ScriptEntry(response=critic_reply(32)),           # feedback
            ScriptEntry(response=fenced(VALID_PROPERTY_UNIT)),  # refine
            ScriptEntry(response=critic_reply(50)),           # child eval
        ]
        stage2 = signal_result(config, ScriptedBackend(script))
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert len(stage2.tree) == 2
        assert stage2.warnings == []
        assert stage2.total_calls == 7  # one extra critic call

    def test_double_parse_failure_aborts_rollout_keeps_tree(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=2, early_stop=False)
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),
            ScriptEntry(response=critic_reply(30)),    # root eval ok
            ScriptEntry(response="garbled"),           # rollout 1 re-sample fails
            ScriptEntry(response="garbled again"),     # retry fails
        ]
        stage2 = signal_result(config, ScriptedBackend(script))
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert len(stage2.tree) == 1  # partial tree kept
        assert stage2.tree.rollouts_completed == 0
        assert any("aborted" in w for w in stage2.warnings)

    def test_root_eval_failure_returns_degenerate_tree(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=2, early_stop=False)
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),
            ScriptEntry(response="no marker"),
            ScriptEntry(response="still no marker"),
        ]
        stage2 = signal_result(config, ScriptedBackend(script))
        run_stage2(config, bank, stage2, BuiltinChecker())
        assert len(stage2.tree) == 1
        assert any("search skipped" in w for w in stage2.warnings)


class TestBudget:
    """A refused call ends the search or skips the stage-3 step that asked;
    it never fails the signal."""

    @pytest.mark.parametrize("n_rollouts", [1, 2])
    @pytest.mark.parametrize("with_bad_assertion", [True, False])
    def test_every_cap_ends_the_search_early(self, tmp_path, bank, n_rollouts, with_bad_assertion):
        planned = default_call_budget(n_rollouts) - (0 if with_bad_assertion else 1)
        for cap in range(1, default_call_budget(n_rollouts) + 1):
            config = config_for(
                tmp_path / str(cap), n_rollouts=n_rollouts, early_stop=False,
                max_api_calls_per_signal=cap,
            )
            backend = ScriptedBackend(
                full_signal_script("ack_o", n_rollouts, with_bad_assertion=with_bad_assertion)
            )
            result = run_signal(config, backend, bank, "ack_o", BuiltinChecker())
            assert not result.failed, (cap, result.error)
            assert result.total_calls == backend.calls == min(cap, planned)
            assert result.a1 and result.deduplicated
            assert result.a3 == result.a1 + result.a2_prime
            assert set(result.deduplicated) <= set(result.a3)
            if cap < planned:
                assert any("budget" in w or f"exceed {cap} calls" in w for w in result.warnings)

    def test_score_retries_at_the_default_cap(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=2, early_stop=False)
        assert config.max_api_calls_per_signal == 12
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),  # weak answer
            ScriptEntry(response=critic_reply(30)),           # root evaluation
            ScriptEntry(response="no score"),                 # rollout 1 re-sample
            ScriptEntry(response=critic_reply(31)),           # its retry
            ScriptEntry(response="no score"),                 # expansion feedback
            ScriptEntry(response=critic_reply(32)),           # its retry
            ScriptEntry(response=fenced(VALID_PROPERTY_UNIT)),  # refine
            ScriptEntry(response="no score"),                 # child evaluation
            ScriptEntry(response=critic_reply(50)),           # its retry
            ScriptEntry(response=critic_reply(33)),           # rollout 2 re-sample
            ScriptEntry(response=critic_reply(34)),           # expansion feedback
            ScriptEntry(response=fenced(INVALID_ASSERT)),     # refine, the 12th call
        ]
        backend = ScriptedBackend(script)
        result = run_signal(config, backend, bank, "ack_o", BuiltinChecker())
        assert not result.failed, result.error
        assert result.total_calls == backend.calls == 12
        assert result.tree.rollouts_completed == 1
        assert any(w.startswith("rollout 2 aborted: ") for w in result.warnings)
        assert "syntax correction skipped: per-signal call budget exhausted" in result.warnings
        assert "deduplication skipped: per-signal call budget exhausted" in result.warnings
        assert result.a1 == [VALID_BARE_ASSERT, VALID_PROPERTY_UNIT]
        assert result.a2 == [INVALID_ASSERT]
        assert result.a3 == result.deduplicated == result.a1


class TestStage3:
    def _tree_with_pool(self, tmp_path, bank, pool_units: list[str]):
        """Build a 1-node evaluated tree whose root holds the pooled texts."""
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        from svagen.tree import AnswerContent, ReasoningTree

        tree = ReasoningTree("ack_o", AnswerContent(assertions=list(pool_units)))
        tree.record_reward(0, 10.0)
        return config, tree

    def test_mixed_pool_corrected(self, tmp_path, bank):
        config, tree = self._tree_with_pool(
            tmp_path, bank, [VALID_BARE_ASSERT, INVALID_ASSERT]
        )
        script = [
            ScriptEntry(response=fenced(CORRECTED_ASSERT)),  # correction
            ScriptEntry(response=fenced(VALID_BARE_ASSERT, CORRECTED_ASSERT)),  # dedup
        ]
        result = signal_result(config, ScriptedBackend(script), tree=tree, bank=bank)
        run_stage3(result, BuiltinChecker())
        assert result.a1 == [VALID_BARE_ASSERT]
        assert result.a2 == [INVALID_ASSERT]
        assert result.a2_prime == [CORRECTED_ASSERT]
        assert result.a3 == [VALID_BARE_ASSERT, CORRECTED_ASSERT]
        assert result.deduplicated == [VALID_BARE_ASSERT, CORRECTED_ASSERT]
        assert result.total_calls == 2

    def test_all_valid_skips_correction(self, tmp_path, bank):
        config, tree = self._tree_with_pool(
            tmp_path, bank, [VALID_BARE_ASSERT, VALID_PROPERTY_UNIT]
        )
        script = [ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT))]
        result = signal_result(config, ScriptedBackend(script), tree=tree, bank=bank)
        run_stage3(result, BuiltinChecker())
        assert result.a2 == []
        assert result.total_calls == 1  # dedup only

    def test_still_failing_correction_dropped(self, tmp_path, bank):
        config, tree = self._tree_with_pool(tmp_path, bank, [INVALID_ASSERT])
        script = [ScriptEntry(response=fenced("assert property (@(posedge clk) x |-> );"))]
        result = signal_result(config, ScriptedBackend(script), tree=tree, bank=bank)
        run_stage3(result, BuiltinChecker())
        assert result.a2_prime == []
        assert result.deduplicated == []
        assert any("still fails" in w for w in result.warnings)

    def test_singleton_pool_skips_both_calls(self, tmp_path, bank):
        config, tree = self._tree_with_pool(tmp_path, bank, [VALID_BARE_ASSERT])
        result = signal_result(config, ScriptedBackend([]), tree=tree, bank=bank)
        run_stage3(result, BuiltinChecker())
        assert result.deduplicated == [VALID_BARE_ASSERT]
        assert result.total_calls == 0

    def test_normalization_merges_across_nodes(self, tmp_path, bank):
        config, tree = self._tree_with_pool(tmp_path, bank, [VALID_BARE_ASSERT])
        child = tree.add_child(0, __import__("svagen.tree", fromlist=["AnswerContent"]).AnswerContent(
            assertions=[VALID_BARE_ASSERT + "  // same thing"]
        ))
        tree.record_reward(child, 20.0)
        result = signal_result(config, ScriptedBackend([]), tree=tree, bank=bank)
        run_stage3(result, BuiltinChecker())
        assert len(result.a1) == 1


class StubChecker:
    def check(self, text):
        if "BAD" in text:
            return [Diagnostic("error", 1, 1, "stub", "marked bad")]
        return []


@given(
    flags=st.lists(st.booleans(), min_size=0, max_size=12),
    fix_all=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_stage3_set_laws(tmp_path_factory, flags, fix_all):
    """Randomized pools with a stub checker: partition, concatenation,
    subset, and final-pass laws."""
    from svagen.tree import AnswerContent, ReasoningTree

    tmp_path = tmp_path_factory.mktemp("laws")
    pool = [f"assert property (ok_{i});" if not bad else f"assert property (BAD_{i});"
            for i, bad in enumerate(flags)]
    bank = make_bank()
    config = config_for(tmp_path)
    tree = ReasoningTree("ack_o", AnswerContent(assertions=pool))
    tree.record_reward(0, 10.0)

    bad_count = sum(flags)
    script = []
    if bad_count:
        fixes = [f"assert property (fixed_{i});" for i in range(bad_count if fix_all else 1)]
        script.append(ScriptEntry(response=fenced(*fixes)))
    script.append(ScriptEntry(response="echo nothing useful"))  # dedup reply: no fences
    result = signal_result(config, ScriptedBackend(script), tree=tree, bank=bank)
    run_stage3(result, StubChecker())

    # partition law: A1 and A2 split the pool, order preserved within groups
    assert result.a1 == [t for t in pool if "BAD" not in t]
    assert result.a2 == [t for t in pool if "BAD" in t]
    assert set(result.a1) | set(result.a2) == set(pool)
    assert set(result.a1).isdisjoint(result.a2)
    # concatenation law
    assert result.a3 == result.a1 + result.a2_prime
    # the dedup reply was rejected (no fenced pool subset), pool retained
    from svagen.agents import normalize_assertion

    normalized_a3 = {normalize_assertion(t) for t in result.a3}
    assert {normalize_assertion(t) for t in result.deduplicated} <= normalized_a3
    # every final assertion passes the checker
    for text in result.deduplicated:
        assert not any(d.severity == "error" for d in StubChecker().check(text))
    # budget: at most 2 combination calls
    assert result.total_calls <= 2


class TestStage1:
    MAPPER_REPLY = "clk_i: clock\nreq_i: request\nack_o: acknowledge"
    ANALYSIS = "[Signal Name]: {n}\n[Description]: about {n}"
    WAVEFORM = (
        "[Waveform Name]: hs\n[Signals]: req_i, ack_o\n[Timing Relationship]: t"
    )
    SPEC = "spec text body"
    VERILOG = "module m(input clk_i, input req_i, output ack_o); endmodule"

    def _backend(self, with_waveform: bool = True) -> ScriptedBackend:
        responses = [self.MAPPER_REPLY]
        responses += [self.ANALYSIS.format(n=n) for n in ("clk_i", "req_i", "ack_o")]
        if with_waveform:
            responses.append(self.WAVEFORM)
        return ScriptedBackend.from_responses(responses)

    def test_three_signals_one_waveform_five_calls(self, tmp_path):
        config = config_for(tmp_path)
        log = CallLog("stage 1", self._backend())
        bank, warnings = run_stage1(
            config, self.SPEC, self.VERILOG, ["waveform text"], log
        )
        assert len(bank.signals) == 3
        assert len(bank.waveforms) == 1
        assert len(log) == 5
        assert os.path.exists(config.paths.bank_file)

    def test_no_waveforms(self, tmp_path):
        config = config_for(tmp_path)
        log = CallLog("stage 1", self._backend(with_waveform=False))
        bank, _ = run_stage1(
            config, self.SPEC, self.VERILOG, [], log
        )
        assert bank.waveforms == []
        assert len(log) == 4

    def test_failed_signal_dropped(self, tmp_path):
        config = config_for(tmp_path)
        responses = [
            self.MAPPER_REPLY,
            self.ANALYSIS.format(n="clk_i"),
            "reply that never mentions the target",  # req_i analysis fails
            self.ANALYSIS.format(n="ack_o"),
        ]
        log = CallLog("stage 1", ScriptedBackend.from_responses(responses))
        bank, warnings = run_stage1(
            config, self.SPEC, self.VERILOG, [], log
        )
        assert [s.verilog_name for s in bank.signals] == ["clk_i", "ack_o"]
        assert any("req_i" in w for w in warnings)

    def test_no_signal_surviving_is_stage_error(self, tmp_path):
        config = config_for(tmp_path)
        responses = [self.MAPPER_REPLY] + ["reply that never mentions the target"] * 3
        log = CallLog("stage 1", ScriptedBackend.from_responses(responses))
        with pytest.raises(StageError, match="no signal survived specification analysis"):
            run_stage1(config, self.SPEC, self.VERILOG, [], log)
        assert not os.path.exists(config.paths.bank_file)

    def test_workflow_info_contains_mapping(self, tmp_path):
        config = config_for(tmp_path)
        log = CallLog("stage 1", self._backend(with_waveform=False))
        bank, _ = run_stage1(
            config, self.SPEC, self.VERILOG, [], log
        )
        assert "clk_i: clock" in bank.workflow_info


def read_record(output_dir: str, name: str) -> SignalRecord:
    path = os.path.join(output_dir, "signals", f"{name}.json")
    return load(SignalRecord, path, "signal record", ValueError)


def assert_record_holds(output_dir: str, result: SignalRunResult) -> None:
    """The decoded `signals/<name>.json` holds exactly `result`'s tree,
    lists, warnings, critiques (every critic call whose score parsed, in
    call order) and syntax log."""
    record = read_record(output_dir, result.signal)
    assert ReasoningTree.from_record(record.tree).record() == result.tree.record()
    fields = ("a1", "a2", "a2_prime", "a3", "deduplicated", "warnings", "syntax_log")
    assert {k: getattr(record, k) for k in fields} == {k: getattr(result, k) for k in fields}
    assert record.critiques == result.critiques
    # each critique is a critic call's, in call order
    calls = iter((e.node, e.phase) for e in result.log.events if e.role == "critic")
    assert all((c.node, c.phase) in calls for c in result.critiques)


def output_files(output_dir: str) -> dict[str, bytes]:
    """Every file under `output_dir` by relative path, with its bytes."""
    files = {}
    for root, _, names in os.walk(output_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, output_dir)] = f.read()
    return files


class TestStage1Batch:
    """The spec and waveform analyses go as one batch of `parallel`
    concurrent calls; with a keyed script the run is the same at any
    `parallel`."""

    SPEC = "The ack_o output acknowledges req_i on the clk_i edge."
    VERILOG = "module m(input clk_i, input req_i, output ack_o); endmodule"
    MAPPER_REPLY = "clk_i: clock\nreq_i: request\nack_o: acknowledge"
    WAVEFORMS = ["waveform wf0: req_i then ack_o", "waveform wf1: noise", "waveform wf2: clk_i"]
    KEPT = ["clk_i", "ack_o"]
    DESIGN_SUMMARY = "A one-cycle request/acknowledge handshake."

    def _script(self) -> list[ScriptEntry]:
        entries = [ScriptEntry(self.MAPPER_REPLY, match="Verilog declarations:")]
        for name in ("clk_i", "req_i", "ack_o"):
            reply = f"[Signal Name]: {name}\n[Description]: about {name}"
            if name == "clk_i":  # no description: the mapper's is kept
                reply = f"[Signal Name]: {name}\n[Definition]: 1-bit input"
            if name == "req_i":  # names no signal: req_i is dropped
                reply = "a reply about nothing in particular"
            entries.append(ScriptEntry(reply, match=f"related to the {name} from the spec"))
        for i, text in enumerate(self.WAVEFORMS):
            reply = f"[Waveform Name]: wf{i}\n[Signals]: req_i, ack_o"
            if i == 1:  # unparseable: wf1 is skipped
                reply = "no structure"
            entries.append(ScriptEntry(reply, match=text))
        for name in self.KEPT:
            entries += full_signal_script(name, n_rollouts=1, keyed=True)
        return entries

    def _run(self, tmp_path, parallel: int):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False, parallel=parallel)
        paths = config.paths
        paths.spec_file, paths.verilog_file = str(tmp_path / "spec.txt"), str(tmp_path / "m.v")
        paths.waveform_files = [str(tmp_path / f"wf{i}.txt") for i in range(3)]
        paths.design_summary_file = str(tmp_path / "summary.txt")
        inputs = [paths.spec_file, paths.verilog_file, *paths.waveform_files, paths.design_summary_file]
        texts = [self.SPEC, self.VERILOG, *self.WAVEFORMS, self.DESIGN_SUMMARY]
        for path, text in zip(inputs, texts):
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
        backend = PromptRecordingBackend(self._script())
        summary = run_all(config, backend=backend, checker=BuiltinChecker())
        with open(paths.bank_file, "rb") as f:
            bank_bytes = f.read()
        return summary, bank_bytes, output_files(paths.output_dir), backend.prompts

    def test_design_summary_and_mapper_description_reach_stage2(self, tmp_path):
        summary, _, _, prompts = self._run(tmp_path, parallel=1)
        bank = load_bank(str(tmp_path / "bank.json"))
        assert bank.workflow_info.endswith(f"\n\n[Design Summary]\n{self.DESIGN_SUMMARY}")
        assert bank.signal("clk_i").description == "clock"
        # each kept signal's six stage-2 prompts carry the workflow text
        stage2 = [p for p in prompts[len(summary.stage1) :] if bank.workflow_info in p]
        assert len(stage2) == 6 * len(self.KEPT)
        assert sum("[Description]: clock" in p for p in stage2) == 6

    def test_parallel_batch_matches_one_at_a_time(self, tmp_path):
        serial, serial_bank, serial_files, _ = self._run(tmp_path / "p1", parallel=1)
        batched, batched_bank, batched_files, _ = self._run(tmp_path / "p3", parallel=3)
        assert [w.split(":")[0] for w in serial.stage1_warnings] == [
            "signal 'req_i' dropped",
            "waveform analysis skipped",
        ]
        assert len(serial.stage1) == 1 + 3 + 3
        assert batched.stage1_warnings == serial.stage1_warnings
        assert len(batched.stage1) == len(serial.stage1)
        assert batched_bank == serial_bank
        assert batched_files == serial_files
        assert [r.signal for r in batched.results] == self.KEPT
        assert not batched.failed_signals


class TestRunAll:
    def _write_bank(self, config, names):
        from svagen.bank import save_bank

        save_bank(make_bank(names), config.paths.bank_file)

    def test_two_signals_isolated_failure(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        self._write_bank(config, ["sig_a", "sig_b"])
        # sig_a gets a full script; sig_b's script is missing -> fails
        script = stage2_script(
            "sig_a",
            fenced(VALID_BARE_ASSERT),
            [fenced(VALID_PROPERTY_UNIT)],
            [30.0, 31.0, 32.0, 50.0],
            keyed=True,
        )
        script.append(
            dedup_entry("sig_a", fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT), keyed=True)
        )
        summary = run_all(config, backend=ScriptedBackend(script), checker=BuiltinChecker())
        by_name = {r.signal: r for r in summary.results}
        assert not by_name["sig_a"].failed
        assert by_name["sig_b"].failed
        assert "BackendError" in by_name["sig_b"].error
        assert summary.failed_signals == ["sig_b"]

    def test_failed_signal_keeps_what_it_produced(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        self._write_bank(config, ["sig_a"])
        # weak answer, root evaluation, rollout 1, rollout 2's re-sample and
        # feedback: rollout 2's refine call, the 9th, finds the script empty
        backend = ScriptedBackend(full_signal_script("sig_a")[:8])
        summary = run_all(config, backend=backend, checker=BuiltinChecker())
        assert summary.failed_signals == ["sig_a"]
        assert_record_holds(config.paths.output_dir, summary.results[0])
        record = read_record(config.paths.output_dir, "sig_a")
        assert len(record.tree.nodes) == 2 and record.tree.rollouts_completed == 1
        assert [c.phase for c in record.critiques] == [
            "root-evaluation", "resample", "expansion-feedback", "evaluation",
            "resample", "expansion-feedback",
        ]
        assert [c.raw_score for c in record.critiques] == [30.0, 40.0, 41.0, 42.0, 43.0, 44.0]
        assert record.a1 == record.deduplicated == [] and record.syntax_log == ""  # stage 3 never ran
        assert backend.calls == 9
        with open(os.path.join(config.paths.output_dir, "summary.json")) as f:
            written = json.load(f)
        assert written["ledger"]["signals"]["sig_a"] == {"critic": 6, "sva": 3}
        assert written["signals"]["sig_a"]["failed"] is True
        assert "BackendError" in written["signals"]["sig_a"]["error"]
        assert written["signals"]["sig_a"]["calls"] == 9
        assert written["totals"]["total_llm_calls"] == 9

    def test_missing_checker_tool_fails_the_signal_in_stage2(self, tmp_path, bank):
        config = config_for(tmp_path, n_rollouts=1)
        backend = ScriptedBackend(full_signal_script("ack_o", n_rollouts=1))
        checker = ExternalChecker("svagen-no-such-checker {file}")
        result = run_signal(config, backend, bank, "ack_o", checker)
        assert result.failed and "checker command not found" in result.error
        assert len(result.tree) == 1 and result.total_calls == 1  # the root is checked before its critic call

    def test_checker_down_at_the_corrected_text_fails_the_signal(self, tmp_path, bank):
        class DownForCorrected(BuiltinChecker):
            def check(self, text):
                if text == CORRECTED_ASSERT:
                    raise CheckerUnavailableError("checker timed out after 30.0s")
                return super().check(text)

        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        backend = ScriptedBackend(full_signal_script("ack_o", n_rollouts=1))
        result = run_signal(config, backend, bank, "ack_o", DownForCorrected())
        assert result.failed
        assert result.error == "CheckerUnavailableError: checker timed out after 30.0s"
        assert result.a2 == [INVALID_ASSERT] and result.a2_prime == [] and result.deduplicated == []
        assert result.total_calls == 7  # stage 2, then the correction; no deduplication call

    def test_undescribed_signal_fails_without_a_call(self, tmp_path):
        # a bank may omit every description field; the weak answer refuses
        # such a signal before its prompt is sent
        config = config_for(tmp_path, n_rollouts=1)
        save_bank(InformationBank("demo", signals=[SignalInfo("ack_o")]), config.paths.bank_file)
        backend = ScriptedBackend(full_signal_script("ack_o", n_rollouts=1))
        summary = run_all(config, backend=backend, checker=BuiltinChecker())
        assert summary.failed_signals == ["ack_o"]
        assert backend.calls == 0
        assert os.listdir(os.path.join(config.paths.output_dir, "signals")) == []  # no tree, no record
        with open(os.path.join(config.paths.output_dir, "summary.json")) as f:
            written = json.load(f)["signals"]["ack_o"]
        assert written["calls"] == 0 and written["failed"] is True
        assert written["error"] == "ValueError: weak answer needs a named, described signal"

    def test_signal_without_a_tree_drops_an_earlier_record(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1)
        self._write_bank(config, ["ack_o"])
        run_all(config, backend=ScriptedBackend(full_signal_script("ack_o", n_rollouts=1)), checker=BuiltinChecker())
        assert os.listdir(os.path.join(config.paths.output_dir, "signals")) == ["ack_o.json"]
        save_bank(InformationBank("demo", signals=[SignalInfo("ack_o")]), config.paths.bank_file)
        summary = run_all(config, backend=ScriptedBackend([]), checker=BuiltinChecker())
        assert summary.failed_signals == ["ack_o"] and summary.results[0].tree is None
        assert os.listdir(os.path.join(config.paths.output_dir, "signals")) == []

    def test_unknown_placeholder_fails_without_a_call(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1)
        templates = tmp_path / "templates"
        templates.mkdir()
        (templates / "sva_weak.txt").write_text("[system]\ns\n[user]\n{no_such_key}\n")
        config.templates_dir = str(templates)
        self._write_bank(config, ["ack_o"])
        backend = ScriptedBackend(full_signal_script("ack_o", n_rollouts=1))
        with pytest.raises(ConfigError, match=r"'sva_weak.txt': unknown placeholder \{no_such_key\}"):
            run_all(config, backend=backend, checker=BuiltinChecker())
        assert backend.calls == 0
        assert not os.path.exists(config.paths.output_dir)

    def test_budget_reporting(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=4)
        names = [f"sig_{i:02d}" for i in range(10)]
        self._write_bank(config, names)
        entries = []
        for name in names:
            entries += full_signal_script(name, keyed=True)
        summary = run_all(config, backend=ScriptedBackend(entries), checker=BuiltinChecker())
        assert summary.max_api_calls == 200
        assert summary.to_dict()["totals"]["max_api_calls"] == 200
        assert not summary.failed_signals
        for result in summary.results:
            assert result.total_calls <= 20

    def test_artifacts_written(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        self._write_bank(config, ["sig_a"])
        script = stage2_script(
            "sig_a", fenced(VALID_BARE_ASSERT), [fenced(VALID_PROPERTY_UNIT)],
            [30.0, 31.0, 32.0, 50.0],
        )
        script.append(ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)))
        [result] = run_all(config, backend=ScriptedBackend(script), checker=BuiltinChecker()).results
        assert not result.failed and len(result.deduplicated) == 2 and result.syntax_log
        out = config.paths.output_dir
        assert sorted(output_files(out)) == ["signals/sig_a.json", "summary.json"]
        assert_record_holds(out, result)
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        assert summary["totals"]["signals"] == 1

    def test_resume_skips_stage1(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        self._write_bank(config, ["sig_a"])
        script = stage2_script(
            "sig_a", fenced(VALID_BARE_ASSERT), [fenced(VALID_PROPERTY_UNIT)],
            [30.0, 31.0, 32.0, 50.0],
        )
        script.append(ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)))
        summary = run_all(config, backend=ScriptedBackend(script), checker=BuiltinChecker())
        assert len(summary.stage1) == 0  # bank existed, no stage-1 calls

    def test_missing_inputs_abort(self, tmp_path):
        config = config_for(tmp_path)
        with pytest.raises(StageError):
            run_all(config, backend=ScriptedBackend([]), checker=BuiltinChecker())

    def test_unreadable_spec_path_aborts(self, tmp_path):
        config = config_for(tmp_path)
        config.paths.spec_file = str(tmp_path / "missing_spec.txt")
        config.paths.verilog_file = str(tmp_path / "missing.v")
        with pytest.raises(StageError) as err:
            run_all(config, backend=ScriptedBackend([]), checker=BuiltinChecker())
        assert "missing_spec.txt" in str(err.value)

    def test_parallel_signals_with_keyed_script(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False, parallel=3)
        names = ["sig_a", "sig_b", "sig_c"]
        self._write_bank(config, names)
        entries = []
        for name in names:
            entries += stage2_script(
                name, fenced(VALID_BARE_ASSERT), [fenced(VALID_PROPERTY_UNIT)],
                [30.0, 31.0, 32.0, 50.0], keyed=True,
            )
            entries.append(
                dedup_entry(name, fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT), keyed=True)
            )
        summary = run_all(config, backend=ScriptedBackend(entries), checker=BuiltinChecker())
        assert not summary.failed_signals
        for result in summary.results:
            assert result.total_calls == 7
            assert len(result.deduplicated) == 2

    def test_only_signal_filter(self, tmp_path):
        config = config_for(tmp_path, n_rollouts=1, early_stop=False)
        self._write_bank(config, ["sig_a", "sig_b"])
        script = stage2_script(
            "sig_b", fenced(VALID_BARE_ASSERT), [fenced(VALID_PROPERTY_UNIT)],
            [30.0, 31.0, 32.0, 50.0], keyed=True,
        )
        script.append(
            dedup_entry("sig_b", fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT), keyed=True)
        )
        summary = run_all(config, backend=ScriptedBackend(script),
                          checker=BuiltinChecker(), only_signal="sig_b")
        assert [r.signal for r in summary.results] == ["sig_b"]
        with pytest.raises(StageError):
            run_all(config, backend=ScriptedBackend([]), checker=BuiltinChecker(),
                    only_signal="missing")


class TestReplayDeterminism:
    def _run_once(self, tmp_path, tag: str):
        config = config_for(tmp_path / tag, n_rollouts=2, early_stop=False)
        os.makedirs(tmp_path / tag, exist_ok=True)
        from svagen.bank import save_bank

        save_bank(make_bank(["sig_a"]), config.paths.bank_file)
        script = stage2_script(
            "sig_a",
            fenced(VALID_BARE_ASSERT),
            [fenced(VALID_PROPERTY_UNIT), fenced(VALID_PROPERTY_UNIT, INVALID_ASSERT)],
            [30.0, 31.0, 32.0, 50.0, 51.0, 52.0, 60.0],
        )
        script.append(ScriptEntry(response=fenced(CORRECTED_ASSERT)))
        script.append(ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)))
        run_all(config, backend=ScriptedBackend(script), checker=BuiltinChecker())
        return config.paths.output_dir

    def test_byte_identical_artifacts(self, tmp_path):
        out1 = self._run_once(tmp_path, "run1")
        out2 = self._run_once(tmp_path, "run2")
        files1 = sorted(
            os.path.relpath(os.path.join(root, f), out1)
            for root, _, files in os.walk(out1)
            for f in files
        )
        files2 = sorted(
            os.path.relpath(os.path.join(root, f), out2)
            for root, _, files in os.walk(out2)
            for f in files
        )
        assert files1 == files2
        for rel in files1:
            with open(os.path.join(out1, rel), "rb") as f:
                b1 = f.read()
            with open(os.path.join(out2, rel), "rb") as f:
                b2 = f.read()
            assert b1 == b2, f"artifact differs: {rel}"


class LiveBackend:
    """A keyed script behind a backend with no `serial` flag, as a live
    model is, so `CallLog` sends a batch's calls from two threads. Each
    call sleeps `sleep_s` and is recorded as (prompt, start, end)."""

    def __init__(self, entries, sleep_s: float = 0.0) -> None:
        self.inner = ScriptedBackend(entries)
        self.sleep_s = sleep_s
        self.records: list[tuple[str, float, float]] = []
        self._lock = threading.Lock()

    def complete(self, messages):
        start = time.perf_counter()
        try:
            time.sleep(self.sleep_s)
            return self.inner.complete(messages)
        finally:
            with self._lock:
                self.records.append((messages[1]["content"], start, time.perf_counter()))


class SerialLiveBackend(LiveBackend):
    """The same keyed script behind a `serial` backend, which `CallLog`
    sends every call alone, in call order: the reference run."""

    serial = True


class TestLastEvaluationBatch:
    """On a backend that is not `serial` the last rollout's child evaluation
    and stage 3's first call go as one batch, at any `parallel`; every
    artifact equals that of a serial run of the same keyed script."""

    N_ROLLOUTS = 2
    LAST_EVALUATION = 1 + 4 * N_ROLLOUTS  # its index in full_signal_script

    def _script(self, bad: bool, retry: bool, stage3: bool = True) -> list[ScriptEntry]:
        entries = full_signal_script("ack_o", self.N_ROLLOUTS, keyed=True, with_bad_assertion=bad)
        if retry:  # the last evaluation's score fails to parse; its retry gets the scripted one
            entries.insert(self.LAST_EVALUATION, ScriptEntry("no score", match="Signal name: ack_o"))
        return entries if stage3 else entries[: self.LAST_EVALUATION + 1 + retry]

    def _run(self, tmp_path, backend, parallel: int = 1, cap: int | None = None):
        config = config_for(
            tmp_path, n_rollouts=self.N_ROLLOUTS, early_stop=False, parallel=parallel,
            max_api_calls_per_signal=cap,
        )
        save_bank(make_bank(["ack_o"]), config.paths.bank_file)
        summary = run_all(config, backend=backend, checker=BuiltinChecker())
        events = summary.results[0].log.events
        assert fits_schedule(events, self.N_ROLLOUTS, getattr(backend, "serial", False)), events
        return summary.results[0], output_files(config.paths.output_dir)

    @pytest.mark.parametrize("bad", [True, False], ids=["correction", "deduplication"])
    @pytest.mark.parametrize("retry", [False, True], ids=["no-retry", "retry"])
    def test_every_cap_gives_the_serial_artifacts(self, tmp_path, bad, retry):
        for cap in range(1, default_call_budget(self.N_ROLLOUTS) + 1):
            _, serial = self._run(tmp_path / f"{cap}-serial", SerialLiveBackend(self._script(bad, retry)), cap=cap)
            for parallel in (1, 2):
                backend = LiveBackend(self._script(bad, retry))
                _, batched = self._run(tmp_path / f"{cap}-p{parallel}", backend, parallel, cap)
                assert batched == serial, (cap, parallel)

    @pytest.mark.parametrize("retry", [False, True], ids=["no-retry", "retry"])
    def test_each_critique_keeps_its_own_event(self, tmp_path, retry):
        serial_result, serial = self._run(tmp_path / "serial", SerialLiveBackend(self._script(True, retry)), cap=13)
        batched_result, batched = self._run(tmp_path / "live", LiveBackend(self._script(True, retry)), cap=13)
        assert batched == serial
        roles = [e.role for e in batched_result.log.events[self.LAST_EVALUATION :]]
        assert roles == ["critic", "syntax_correction"] + ["critic"] * retry + ["deduplication"]
        serial_roles = [e.role for e in serial_result.log.events[self.LAST_EVALUATION :]]
        assert serial_roles == ["critic"] * (1 + retry) + ["syntax_correction", "deduplication"]
        critiques = json.loads(batched["signals/ack_o.json"])["critiques"]
        assert len(critiques) == 3 * self.N_ROLLOUTS + 1
        assert critiques[-1]["node"] == self.N_ROLLOUTS and critiques[-1]["phase"] == "evaluation"

    def test_stage3_call_starts_before_the_evaluation_returns(self, tmp_path):
        def last_evaluation_and_correction(backend, parallel: int):
            result, _ = self._run(tmp_path / f"{type(backend).__name__}-p{parallel}", backend, parallel)
            assert not result.failed, result.error
            # only the last child holds the invalid unit, and the correction fixes it
            [(_, _, evaluation_end)] = [
                r for r in backend.records if "Signal name: ack_o" in r[0] and INVALID_ASSERT in r[0]
            ]
            [(_, correction_start, _)] = [r for r in backend.records if "corrected assertions for ack_o" in r[0]]
            return evaluation_end, correction_start

        for parallel in (1, 2):
            evaluation_end, correction_start = last_evaluation_and_correction(
                LiveBackend(self._script(True, False), sleep_s=0.05), parallel
            )
            assert correction_start < evaluation_end, parallel
        evaluation_end, correction_start = last_evaluation_and_correction(
            SerialLiveBackend(self._script(True, False), sleep_s=0.05), 2
        )
        assert correction_start >= evaluation_end

    def test_failed_stage3_call_after_a_good_evaluation(self, tmp_path):
        _, serial = self._run(tmp_path / "serial", SerialLiveBackend(self._script(True, False, stage3=False)))
        result, batched = self._run(tmp_path / "live", LiveBackend(self._script(True, False, stage3=False)))
        assert result.failed and "BackendError" in result.error
        assert batched == serial
        record = loads(SignalRecord, batched["signals/ack_o.json"].decode(), ValueError)
        tree = ReasoningTree.from_record(record.tree)
        assert tree.rollouts_completed == self.N_ROLLOUTS
        assert tree.node(len(tree) - 1).reward_samples == [40.0 + 3 * self.N_ROLLOUTS - 1]  # its scripted score

    def test_failed_last_evaluation_counts_the_stage3_call(self, tmp_path):
        script = self._script(True, False)
        del script[self.LAST_EVALUATION]
        backend = LiveBackend(script)
        result, _ = self._run(tmp_path, backend)
        assert result.failed and "BackendError" in result.error
        assert [e.role for e in result.log.events[self.LAST_EVALUATION :]] == ["critic", "syntax_correction"]
        assert len(backend.records) == len(result.log)

    def test_serial_backend_renders_the_stage3_call_once(self, tmp_path, monkeypatch):
        renders = Counter()

        def counting_render(template, context):
            renders[template.role_name] += 1
            return render_prompt(template, context)

        monkeypatch.setattr(agents, "render_prompt", counting_render)
        script = self._script(True, False)
        for backend, builds in ((ScriptedBackend(script), 0), (LiveBackend(script), 1)):
            renders.clear()
            result, _ = self._run(tmp_path / type(backend).__name__, backend)
            assert not result.failed, result.error
            assert result.log.counts()["syntax_correction"] == 1
            assert renders["syntax_correction"] == 1 + builds  # the live backend's early build, then stage 3's

    def test_serial_backend_replays_an_unkeyed_script_at_parallel_2(self, tmp_path):
        def unkeyed():
            return ScriptedBackend([ScriptEntry(e.response) for e in self._script(True, True)])

        _, serial = self._run(tmp_path / "p1", unkeyed())
        result, batched = self._run(tmp_path / "p2", unkeyed(), 2)
        assert not result.failed, result.error
        assert batched == serial


@given(stop_after=st.integers(min_value=0, max_value=4))
@settings(max_examples=20, deadline=None)
def test_budget_law_under_random_early_stop(tmp_path_factory, stop_after):
    """Budget holds wherever the early stop lands (0 = stop before any
    rollout completes is impossible here, so 0 means no early stop)."""
    tmp_path = tmp_path_factory.mktemp("budget")
    config = config_for(tmp_path, n_rollouts=4, early_stop=stop_after > 0)
    from svagen.bank import save_bank

    save_bank(make_bank(["sig_a"]), config.paths.bank_file)
    weak = fenced(VALID_BARE_ASSERT)
    answers = [fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT)] * 4
    scores = [30.0]
    for r in range(1, 5):
        scores += [35.0, 36.0, 95.0 if r == stop_after else 40.0]
    script = stage2_script("sig_a", weak, answers, scores)
    script.append(ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)))
    summary = run_all(config, backend=ScriptedBackend(script), checker=BuiltinChecker())
    result = summary.results[0]
    assert not result.failed
    assert result.total_calls <= 20
    expected_rollouts = stop_after if stop_after else 4
    assert result.tree.rollouts_completed == expected_rollouts


# Units for the pipeline fuzz: good, bad, and left open by an unterminated
# comment or string.
FUZZ_UNITS = [
    VALID_PROPERTY_UNIT,
    VALID_BARE_ASSERT,
    CORRECTED_ASSERT,
    INVALID_ASSERT,
    "assert property (@(posedge clk_i) req_i |-> ack_o); /* left open",
    'assert property (@(posedge clk_i) req_i) else $error("left open',
]
FUZZ_SIGNALS = ["ack_o", "req_q", "cnt_r"]


def _mostly(usual, *rare):
    """`usual` seven times in eight, else one of `rare`."""
    return st.integers(0, 7).flatmap(lambda k: usual if k else st.one_of(*rare))


def _with_crlf(replies):
    return st.tuples(replies, st.booleans()).map(lambda r: r[0].replace("\n", "\r\n") if r[1] else r[0])


def _at_any_offset(replies, edit):
    """`edit(reply, k)` of each reply at an offset `k` drawn within it."""
    return replies.flatmap(lambda r: st.integers(0, len(r)).map(lambda k: edit(r, k)))


_fenced_replies = st.lists(st.sampled_from(FUZZ_UNITS), min_size=1, max_size=3).map(lambda units: fenced(*units))
_answer_replies = _with_crlf(
    _mostly(
        _fenced_replies,
        st.lists(st.sampled_from(FUZZ_UNITS), min_size=1, max_size=2).map("\n".join),
        st.sampled_from(["The request is acknowledged one cycle later.", "", fenced()]),
        _at_any_offset(_fenced_replies, lambda r, k: r[:k]),  # cut short
        _at_any_offset(_fenced_replies, lambda r, k: r[:k] + "\0" + r[k:]),  # a NUL byte
    )
)
_critic_replies = _with_crlf(
    _mostly(
        st.one_of(st.integers(-100, 100), st.sampled_from([90, 95, 100])).map(critic_reply),  # in range
        st.sampled_from([-101.0, 100.5, 250.0]).map(critic_reply),  # out of range
        st.sampled_from(["Fine as it is, no score.", ""]),  # missing
    )
)


@st.composite
def _signal_replies(draw, n_rollouts: int) -> list[str]:
    """Replies in the slots of the full schedule (answer, critic, four per
    rollout, correction, deduplication) and a few past it; a retry shifts
    every later reply, and some scripts are cut short of the run."""
    slots = [_answer_replies, _critic_replies]
    slots += [_critic_replies, _critic_replies, _answer_replies, _critic_replies] * n_rollouts
    slots += [_answer_replies, _answer_replies]
    replies = [draw(slot) for slot in slots] + draw(st.lists(st.one_of(_answer_replies, _critic_replies), max_size=3))
    return replies[: draw(_mostly(st.none(), st.integers(0, len(replies))))]


@st.composite
def _fuzz_runs(draw):
    n_rollouts = draw(st.integers(1, 3))
    budget = default_call_budget(n_rollouts)
    cap = draw(_mostly(st.just(budget), st.integers(1, budget)))
    replies = {name: draw(_signal_replies(n_rollouts)) for name in FUZZ_SIGNALS}
    return n_rollouts, cap, draw(st.booleans()), replies


def _keyed_by_stage(replies: dict[str, list[str]], n_rollouts: int) -> list[ScriptEntry]:
    """Each signal's replies keyed as `full_signal_script(keyed=True)` keys
    them: the stage-2 slots, and the replies past the schedule that only a
    retry reaches, by `Signal name: <sig>`; the correction slot and the
    deduplication slot by their own keys. So the two calls of the batch at
    the end of a signal each find their own entries."""
    n = 2 + 4 * n_rollouts  # stage 2's slots
    entries = []
    for name, rs in replies.items():
        entries += [ScriptEntry(r, match=f"Signal name: {name}\n") for r in rs[:n] + rs[n + 2 :]]
        entries += [correction_entry(name, r, keyed=True) for r in rs[n : n + 1]]
        entries += [dedup_entry(name, r, keyed=True) for r in rs[n + 1 : n + 2]]
    return entries


@given(run=_fuzz_runs())
@settings(max_examples=100, deadline=None)
def test_run_all_keeps_its_laws_under_generated_replies(tmp_path_factory, run):
    """`run_all` over generated replies, keyed per signal: no exception
    escapes it, the logs keep their caps and the backend's count, the set
    laws hold by normal form, every final assertion passes the checker,
    every log fits the call schedule and every record loads through `svagen
    tree show`. Keyed by each signal's bank entry, `parallel` 1 and 3 write
    the same bytes. Keyed by stage, a backend that is not `serial` at
    `parallel` 3, which sends stage 3's first call beside the last
    evaluation, writes the bytes of a `serial` one, unless a signal failed
    in either run (a last evaluation that fails at the backend has charged
    that call already)."""
    from svagen.cli import main

    n_rollouts, cap, early_stop, replies = run
    tmp_path = tmp_path_factory.mktemp("fuzz")
    # each signal's prompts, and no other's, hold its bank entry's name line
    by_name = [ScriptEntry(r, match=f"[Verilog Name]: {name}\n") for name, rs in replies.items() for r in rs]
    by_stage = _keyed_by_stage(replies, n_rollouts)
    runs = {
        "p1": (ScriptedBackend(by_name), 1),
        "p3": (ScriptedBackend(by_name), 3),
        "staged-serial": (ScriptedBackend(by_stage), 1),
        "staged-live": (LiveBackend(by_stage), 3),
    }
    outputs, failed = {}, {}
    for tag, (backend, parallel) in runs.items():
        config = config_for(
            tmp_path / tag, n_rollouts=n_rollouts, early_stop=early_stop, parallel=parallel,
            max_api_calls_per_signal=cap,
        )
        save_bank(make_bank(FUZZ_SIGNALS), config.paths.bank_file)
        summary = run_all(config, backend=backend, checker=BuiltinChecker())

        scripted = getattr(backend, "inner", backend)
        assert scripted.calls == len(summary.stage1) + sum(len(r.log) for r in summary.results)
        for result in summary.results:
            assert len(result.log) <= cap
            assert fits_schedule(result.log.events, n_rollouts, getattr(backend, "serial", False)), result.log.events
            if result.tree is None:
                continue
            norm = agents.normalize_assertion
            pool = {norm(t) for node in result.tree.nodes.values() for t in node.answer.assertions}
            assert {norm(t) for t in result.a1 + result.a2} <= pool
            assert {norm(t) for t in result.deduplicated} <= {norm(t) for t in result.a3}
            for text in result.deduplicated:
                assert not any(d.severity == "error" for d in BuiltinChecker().check(text)), text
        outputs[tag], failed[tag] = output_files(config.paths.output_dir), summary.failed_signals
        for name in outputs[tag]:
            if name.startswith("signals" + os.sep):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(["tree", "show", os.path.join(config.paths.output_dir, name)]) == 0, name
    assert outputs["p1"] == outputs["p3"]
    if not failed["staged-serial"] and not failed["staged-live"]:
        assert outputs["staged-serial"] == outputs["staged-live"]


ROOT_CALLS = [("sva", None), ("critic", "root-evaluation")]
ROLLOUT_CALLS = [("critic", "resample"), ("critic", "expansion-feedback"), ("sva", None), ("critic", "evaluation")]
CORRECTION, DEDUPLICATION = ("syntax_correction", None), ("deduplication", None)


@pytest.mark.parametrize(
    "calls, serial, fits",
    [
        (ROOT_CALLS + ROLLOUT_CALLS + [CORRECTION, DEDUPLICATION], True, True),
        (ROOT_CALLS + ROLLOUT_CALLS + ROLLOUT_CALLS[3:] + [CORRECTION, DEDUPLICATION], True, True),
        (ROOT_CALLS + ROLLOUT_CALLS[:1] * 2 + [DEDUPLICATION], True, True),
        (ROOT_CALLS + ROLLOUT_CALLS + [CORRECTION, ROLLOUT_CALLS[3], DEDUPLICATION], False, True),
        (ROOT_CALLS + ROLLOUT_CALLS + [CORRECTION, ROLLOUT_CALLS[3], DEDUPLICATION], True, False),
        (ROOT_CALLS + [ROLLOUT_CALLS[1], ROLLOUT_CALLS[0], *ROLLOUT_CALLS[2:]], True, False),
        (ROOT_CALLS[:1] + ROOT_CALLS + ROLLOUT_CALLS, True, False),
        (ROOT_CALLS + ROLLOUT_CALLS + [DEDUPLICATION, CORRECTION], False, False),
        (ROOT_CALLS + ROLLOUT_CALLS * 2, True, False),
    ],
    ids=[
        "full", "evaluation-retry", "stop-after-resample", "batched-stage3-call",
        "batched-on-serial", "feedback-before-resample", "second-weak-answer",
        "deduplication-before-correction", "rollout-past-n",
    ],
)
def test_schedule_matcher(calls, serial, fits):
    """`fits_schedule` over hand-built one-rollout logs."""
    assert fits_schedule([CallEvent(role, phase=phase) for role, phase in calls], 1, serial) is fits


class CountingIndex(VectorIndex):
    def __init__(self) -> None:
        super().__init__()
        self.queries: list[str] = []

    def query(self, query_text, k, embedder):
        self.queries.append(query_text)
        return super().query(query_text, k, embedder)


class PromptRecordingBackend(ScriptedBackend):
    def __init__(self, entries) -> None:
        super().__init__(entries)
        self.prompts: list[str] = []

    def complete(self, messages):
        self.prompts.append("\n".join(m["content"] for m in messages))
        return super().complete(messages)


EMPTY_INDEX_WARNING = "rag index is empty; refining without reference context"


class TestRetrievalOncePerSignal:
    REFERENCE = "use disable iff around the ack_o handshake"

    def _index(self) -> CountingIndex:
        index = CountingIndex()
        index.add("guide.txt", [self.REFERENCE], HashedBowEmbedder())
        return index

    def _stage2(self, tmp_path, bank, script, index, n_rollouts=4):
        config = config_for(tmp_path, n_rollouts=n_rollouts, early_stop=False)
        backend = PromptRecordingBackend(script)
        stage2 = signal_result(config, backend)
        run_stage2(config, bank, stage2, BuiltinChecker(), index)
        return stage2, backend

    def test_one_query_across_four_rollouts(self, tmp_path, bank):
        index = self._index()
        stage2, backend = self._stage2(tmp_path, bank, full_signal_script("ack_o"), index)
        assert stage2.tree.rollouts_completed == 4
        assert index.queries == ["ack_o ack_o handshake output"]
        # every refine prompt still carries the retrieved context
        assert sum(self.REFERENCE in p for p in backend.prompts) == 4

    def test_no_query_when_root_evaluation_aborts(self, tmp_path, bank):
        index = self._index()
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),
            ScriptEntry(response="no marker"),
            ScriptEntry(response="still no marker"),
        ]
        stage2, _ = self._stage2(tmp_path, bank, script, index)
        assert any("search skipped" in w for w in stage2.warnings)
        assert index.queries == []

    def test_no_query_when_first_rollout_aborts_before_refine(self, tmp_path, bank):
        index = CountingIndex()  # empty: a query would also warn
        script = [
            ScriptEntry(response=fenced(VALID_BARE_ASSERT)),
            ScriptEntry(response=critic_reply(30)),
            ScriptEntry(response="garbled"),
            ScriptEntry(response="garbled again"),
        ]
        stage2, _ = self._stage2(tmp_path, bank, script, index)
        assert stage2.warnings[0].startswith("rollout 1 aborted")
        assert index.queries == []
        assert EMPTY_INDEX_WARNING not in stage2.warnings

    def test_empty_index_warns_exactly_once(self, tmp_path, bank):
        index = CountingIndex()
        stage2, _ = self._stage2(tmp_path, bank, full_signal_script("ack_o"), index)
        assert stage2.tree.rollouts_completed == 4
        assert stage2.warnings.count(EMPTY_INDEX_WARNING) == 1
        assert len(index.queries) == 1

    def test_run_all_queries_once_per_signal(self, tmp_path, monkeypatch):
        from svagen.bank import save_bank

        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        config.rag.index_path = str(tmp_path / "index.json")
        self._index().save(config.rag.index_path)
        names = ["sig_a", "sig_b"]
        save_bank(make_bank(names), config.paths.bank_file)
        queries: list[str] = []
        query = VectorIndex.query

        def counting_query(self, query_text, k, embedder):
            queries.append(query_text)
            return query(self, query_text, k, embedder)

        monkeypatch.setattr(VectorIndex, "query", counting_query)
        entries = []
        for name in names:
            entries += full_signal_script(name, keyed=True)
        summary = run_all(config, backend=ScriptedBackend(entries))
        assert not summary.failed_signals
        assert sorted(queries) == ["sig_a sig_a handshake output", "sig_b sig_b handshake output"]


    def test_run_all_queries_an_index_of_another_dimension(self, tmp_path):
        from svagen.bank import save_bank

        config = config_for(tmp_path, n_rollouts=4, early_stop=False)
        config.rag.index_path = str(tmp_path / "index.json")
        index = VectorIndex()
        index.add("guide.txt", [self.REFERENCE], HashedBowEmbedder(dimension=64))
        index.save(config.rag.index_path)
        save_bank(make_bank(["ack_o"]), config.paths.bank_file)
        backend = PromptRecordingBackend(full_signal_script("ack_o"))
        summary = run_all(config, backend=backend)
        assert not summary.failed_signals
        assert sum(self.REFERENCE in p for p in backend.prompts) == 4


class CountingChecker:
    def __init__(self) -> None:
        self.texts: Counter[str] = Counter()

    def check(self, text):
        self.texts[text] += 1
        return BuiltinChecker().check(text)


class TestCheckMemoPerRun:
    def _run(self, tmp_path, checker, early_stop=False):
        from svagen.bank import save_bank

        config = config_for(tmp_path, n_rollouts=4, early_stop=early_stop)
        names = ["sig_a", "sig_b"]
        save_bank(make_bank(names), config.paths.bank_file)
        entries = []
        for name in names:
            entries += full_signal_script(name, keyed=True)
        summary = run_all(config, backend=ScriptedBackend(entries), checker=checker)
        assert not summary.failed_signals
        return summary

    def test_each_distinct_text_checked_once_per_run(self, tmp_path):
        checker = CountingChecker()
        summary = self._run(tmp_path, checker)
        # stage 3 corrected the invalid assertion and re-checked the fix
        assert all(r.a2_prime == [CORRECTED_ASSERT] for r in summary.results)
        assert set(checker.texts) == {
            VALID_PROPERTY_UNIT, VALID_BARE_ASSERT, INVALID_ASSERT, CORRECTED_ASSERT
        }
        assert set(checker.texts.values()) == {1}

    def test_no_unit_keeps_its_tokens_after_the_run(self, tmp_path):
        # a unit's tokens are dropped at its first check, so the trees of a
        # run do not hold every unit's tokens
        summary = self._run(tmp_path, BuiltinChecker())
        texts = [
            text
            for r in summary.results
            for node in r.tree.nodes.values()
            for text in node.answer.assertions + r.a1 + r.a2 + r.a2_prime + r.deduplicated
        ]
        assert texts and all(isinstance(t, Unit) for t in texts)
        assert all(t.tokens is None for t in texts)

    def test_early_stop_check_is_a_memo_hit(self, tmp_path):
        from svagen.bank import save_bank

        config = config_for(tmp_path, n_rollouts=4, early_stop=True)
        save_bank(make_bank(["sig_a"]), config.paths.bank_file)
        weak = fenced(VALID_BARE_ASSERT)
        answers = [fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT)] * 4
        scores = [30.0, 35.0, 36.0, 95.0] + [35.0, 36.0, 40.0] * 3
        script = stage2_script("sig_a", weak, answers, scores)
        script.append(ScriptEntry(response=fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT)))
        checker = CountingChecker()
        summary = run_all(config, backend=ScriptedBackend(script), checker=checker)
        assert any("early stop" in w for w in summary.results[0].warnings)
        assert checker.texts == Counter({VALID_BARE_ASSERT: 1, VALID_PROPERTY_UNIT: 1})

    def test_memo_does_not_outlive_the_run(self, tmp_path):
        checker = CountingChecker()
        self._run(tmp_path / "run1", checker)
        self._run(tmp_path / "run2", checker)
        assert set(checker.texts.values()) == {2}


class TestSignalNamesStayInOutputDir:
    @pytest.mark.parametrize("name", ["../../escape", "../escape", "a/b", "a\\b", ".", "..", "a\x00b", "ack o"])
    def test_run_all_rejects_before_writing(self, tmp_path, name):
        config = config_for(tmp_path / "run", n_rollouts=1, early_stop=False)
        bank = asdict(make_bank(["ack_o"]))
        bank["signals"][0]["verilog_name"] = name
        with open(config.paths.bank_file, "w") as f:
            json.dump(bank, f)
        backend = ScriptedBackend([])
        with pytest.raises(BankLoadError, match=r"verilog_name: .* is not a Verilog identifier"):
            run_all(config, backend=backend, checker=BuiltinChecker())
        assert backend.calls == 0
        assert sorted(os.listdir(tmp_path)) == ["run"]
        assert os.listdir(tmp_path / "run") == ["bank.json"]
