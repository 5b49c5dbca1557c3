"""`CallLog.complete_many`: a batch is charged in input order on the
caller's thread, sent from a bounded pool, and answered in input order; a
failed or refused batch leaves the log holding exactly the calls the
backend received. `CallLog.complete` with `then`: the log alone decides
whether to build and send a call beside another, from the backend and its
room; such a call is charged after the other and answered later without
being sent again. Every prompt of a scripted run keeps the bytes pinned in
`prompt_digests.txt`."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time

import pytest

from svagen.backends import BackendError, ScriptedBackend, ScriptEntry
from svagen.pipeline import run_all
from svagen.prompts import BudgetExceededError, CallLog
from svagen.rag import HashedBowEmbedder, VectorIndex
from svagen.sva.checker import BuiltinChecker

from conftest import config_for, full_signal_script

WAIT_S = 5.0  # bound on every wait, so a broken pool fails instead of hanging


def batch(n: int) -> list[tuple[str, list[dict[str, str]]]]:
    return [(f"role{i}", [{"role": "user", "content": f"call {i}"}]) for i in range(n)]


def index_of(messages) -> int:
    return int(messages[0]["content"].split()[1])


class ReverseBackend:
    """Answers the last call of an n-call batch first: call i returns only
    after call i + 1 has returned."""

    def __init__(self, n: int) -> None:
        self.returned = [threading.Event() for _ in range(n)]
        self.return_order: list[int] = []
        self._lock = threading.Lock()

    def complete(self, messages) -> str:
        i = index_of(messages)
        if i + 1 < len(self.returned):
            assert self.returned[i + 1].wait(WAIT_S)
        with self._lock:
            self.return_order.append(i)
        self.returned[i].set()
        return f"reply {i}"


class CountingBackend:
    """Records the most calls ever in flight at once; each group of
    `meet` calls waits for one another, so a pool of `meet` threads
    really has that many in flight."""

    def __init__(self, meet: int) -> None:
        self.barrier = threading.Barrier(meet, timeout=WAIT_S)
        self.in_flight = self.most_in_flight = 0
        self.threads: set[int] = set()
        self._lock = threading.Lock()

    def complete(self, messages) -> str:
        with self._lock:
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            self.threads.add(threading.get_ident())
        try:
            self.barrier.wait()
        finally:
            with self._lock:
                self.in_flight -= 1
        return f"reply {index_of(messages)}"


class Threaded:
    """`inner` without its `serial` flag, so batches reach it on threads."""

    def __init__(self, inner) -> None:
        self.complete = inner.complete


class TestCompleteMany:
    def test_replies_and_events_in_input_order_when_later_calls_answer_first(self):
        backend = ReverseBackend(3)
        log = CallLog("stage 1", backend)
        replies = log.complete_many(batch(3), workers=3)
        assert backend.return_order == [2, 1, 0]
        assert replies == ["reply 0", "reply 1", "reply 2"]
        assert [e.role for e in log.events] == ["role0", "role1", "role2"]

    def test_one_worker_sends_in_input_order(self):
        log = CallLog("stage 1", ScriptedBackend.from_responses(["a", "b", "c"]))
        assert log.complete_many(batch(3), workers=1) == ["a", "b", "c"]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_workers_calls_in_flight(self, workers):
        backend = CountingBackend(meet=workers)
        log = CallLog("stage 1", backend)
        replies = log.complete_many(batch(2 * workers), workers=workers)
        assert replies == [f"reply {i}" for i in range(2 * workers)]
        assert backend.most_in_flight == workers
        assert len(backend.threads) == workers
        assert len(log) == 2 * workers

    def test_empty_batch_sends_nothing(self):
        log = CallLog("stage 1", ScriptedBackend.from_responses([]))
        assert log.complete_many([], workers=2) == []
        assert len(log) == 0

    def test_backend_error_at_call_k_logs_exactly_k_calls(self):
        backend = ScriptedBackend.from_responses(["a", "b", "c"])  # the fourth call fails
        log = CallLog("stage 1", backend)
        log.complete("role", [])  # events before the batch are kept
        with pytest.raises(BackendError):
            log.complete_many(batch(5), workers=1)
        assert backend.calls == 4
        assert len(log) == backend.calls
        assert [e.role for e in log.events] == ["role", "role0", "role1", "role2"]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_backend_error_log_matches_calls_received(self, workers):
        backend = ScriptedBackend.from_responses(["a", "b"])
        log = CallLog("stage 1", backend)
        with pytest.raises(BackendError):
            log.complete_many(batch(8), workers=workers)
        assert len(log) == backend.calls

    def test_capped_log_refuses_a_batch_past_the_cap_unsent(self):
        backend = ScriptedBackend.from_responses(["a", "b", "c"])
        log = CallLog("s", backend, cap=3)
        log.complete("role", [])
        with pytest.raises(BudgetExceededError):
            log.complete_many(batch(3), workers=2)
        assert backend.calls == 1
        assert len(log) == 1
        assert log.complete_many(batch(2), workers=2) == ["b", "c"]
        with pytest.raises(BudgetExceededError):
            log.complete("role", [])
        assert backend.calls == len(log) == 3

    def test_keyed_replies_survive_many_threads_switching_often(self):
        n = 64
        entries = [ScriptEntry(f"reply {i}", match=f"call {i}\n") for i in reversed(range(n))]
        calls = [(role, [m, {"role": "user", "content": ""}]) for role, [m] in batch(n)]
        log = CallLog("stage 1", Threaded(ScriptedBackend(entries)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            began = time.perf_counter()
            replies = log.complete_many(calls, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - began < WAIT_S
        assert replies == [f"reply {i}" for i in range(n)]
        assert [e.role for e in log.events] == [f"role{i}" for i in range(n)]

    def test_serial_backend_gets_a_batch_in_input_order_on_one_thread(self):
        threads = set()

        class Recording(ScriptedBackend):
            def complete(self, messages):
                threads.add(threading.get_ident())
                return super().complete(messages)

        log = CallLog("stage 1", Recording.from_responses(["a", "b", "c", "d"]))
        assert log.complete_many(batch(4), workers=4) == ["a", "b", "c", "d"]
        assert len(threads) == 1


class Builder:
    """A `then` builder that returns `call` and counts how often it ran."""

    def __init__(self, call) -> None:
        self.call = call
        self.runs = 0

    def __call__(self):
        self.runs += 1
        return self.call


class TestCompleteThen:
    def test_then_is_charged_after_and_answered_without_a_second_send(self):
        backend = ReverseBackend(2)  # call 0 returns only after call 1 has returned
        log = CallLog("s", Threaded(backend), cap=3)  # room for both calls and a retry
        [(role0, messages0), call1] = batch(2)
        assert log.complete(role0, messages0, node=3, phase="evaluation", then=lambda: call1) == "reply 0"
        assert [(e.role, e.node, e.phase) for e in log.events] == [
            ("role0", 3, "evaluation"), ("role1", None, None),
        ]
        assert backend.return_order == [1, 0]
        assert log.complete(*call1) == "reply 1"
        assert len(log) == 2 and backend.return_order == [1, 0]

    def test_a_failed_then_call_raises_where_its_reply_is_asked(self):
        backend = ScriptedBackend([ScriptEntry("first", match="call 0")])
        log = CallLog("s", Threaded(backend))
        [(role0, messages0), call1] = batch(2)
        assert log.complete(role0, messages0, then=lambda: call1) == "first"
        with pytest.raises(BackendError):
            log.complete(*call1)
        assert backend.calls == len(log) == 2

    def test_another_call_between_is_sent_alone(self):
        backend = Threaded(ScriptedBackend([ScriptEntry(f"reply {i}", match=f"call {i}") for i in range(3)]))
        log = CallLog("s", backend)
        [(role0, messages0), call1, (role2, messages2)] = batch(3)
        log.complete(role0, messages0, then=lambda: call1)
        assert log.complete(role2, messages2) == "reply 2"
        assert log.complete(*call1) == "reply 1"
        assert [e.role for e in log.events] == ["role0", "role1", "role2"]

    def test_serial_backend_gets_then_where_it_is_asked(self):
        backend = ScriptedBackend.from_responses(["a", "b", "c"])
        log = CallLog("s", backend)
        [(role0, messages0), call1, (role2, messages2)] = batch(3)
        assert log.complete(role0, messages0, then=lambda: call1) == "a"
        assert backend.calls == len(log) == 1
        assert log.complete(role2, messages2) == "b"
        assert log.complete(*call1) == "c"
        assert [e.role for e in log.events] == ["role0", "role2", "role1"]

    @pytest.mark.parametrize("cap", [None, 3, 1])
    def test_serial_backend_never_calls_the_builder(self, cap):
        backend = ScriptedBackend.from_responses(["a"])
        log = CallLog("s", backend, cap=cap)
        [(role0, messages0), call1] = batch(2)
        build = Builder(call1)
        assert log.complete(role0, messages0, then=build) == "a"
        assert build.runs == 0
        assert backend.calls == len(log) == 1

    @pytest.mark.parametrize("spent", [0, 1])
    def test_no_room_for_a_retry_sends_the_call_alone(self, spent):
        backend = ScriptedBackend([ScriptEntry(f"reply {i}", match=f"call {i}") for i in range(4)])
        log = CallLog("s", Threaded(backend), cap=spent + 2)  # room for both calls, not a retry
        calls = batch(4)
        for role, messages in calls[:spent]:
            log.complete(role, messages)
        build = Builder(calls[spent + 1])
        assert log.complete(*calls[spent], then=build) == f"reply {spent}"
        assert build.runs == 0
        assert backend.calls == len(log) == spent + 1
        assert log.complete(*calls[spent + 1]) == f"reply {spent + 1}"  # sent now, within the cap
        assert backend.calls == len(log) == spent + 2

    def test_a_builder_returning_none_sends_the_call_alone(self):
        backend = ScriptedBackend([ScriptEntry(f"reply {i}", match=f"call {i}") for i in range(2)])
        log = CallLog("s", Threaded(backend))
        [(role0, messages0), call1] = batch(2)
        build = Builder(None)
        assert log.complete(role0, messages0, then=build) == "reply 0"
        assert build.runs == 1
        assert backend.calls == len(log) == 1
        assert log.complete(*call1) == "reply 1"
        assert [e.role for e in log.events] == ["role0", "role1"]


PROMPT_DIGESTS = os.path.join(os.path.dirname(__file__), "prompt_digests.txt")


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps every message list it is sent."""

    def __init__(self, entries) -> None:
        super().__init__(entries)
        self.sent: list[list[dict[str, str]]] = []

    def complete(self, messages):
        self.sent.append(messages)
        return super().complete(messages)


def prompt_digest_lines(tmp_path) -> list[str]:
    """One `role sha256` line per call of a scripted run, in call order:
    stage 1 from a spec, a waveform and a design summary, then `ack_o`
    through two rollouts with retrieval, a critic retry, a correction and
    a deduplication. The digest is of the call's messages as sorted JSON."""
    config = config_for(tmp_path, n_rollouts=2, early_stop=False, max_api_calls_per_signal=13)  # room for the retry
    paths = config.paths
    inputs = {
        "spec.txt": "The ack_o output acknowledges req_i one cycle later, on the clk_i edge.",
        "m.v": "module m(input clk_i, input req_i, output reg ack_o); endmodule",
        "wf0.txt": "waveform wf0: req_i rises, ack_o rises one cycle later",
        "summary.txt": "A one-cycle request/acknowledge handshake.",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    paths.spec_file, paths.verilog_file = str(tmp_path / "spec.txt"), str(tmp_path / "m.v")
    paths.waveform_files = [str(tmp_path / "wf0.txt")]
    paths.design_summary_file = str(tmp_path / "summary.txt")
    index = VectorIndex()
    index.add("guide.txt", ["Reset ack_o with disable iff (rst_i) around the handshake."], HashedBowEmbedder())
    index.save(str(tmp_path / "index.jsonl"))
    config.rag.index_path = str(tmp_path / "index.jsonl")

    script = [
        ScriptEntry("ack_o: acknowledge output"),
        ScriptEntry("[Signal Name]: ack_o\n[Description]: acknowledge output\n[Functionality]: rises after req_i"),
        ScriptEntry("[Waveform Name]: wf0\n[Signals]: req_i, ack_o\n[Timing Relationship]: ack_o one cycle later"),
    ]
    signal_script = full_signal_script("ack_o", n_rollouts=2)
    signal_script.insert(1, ScriptEntry("no score yet"))  # the root evaluation asks again
    backend = RecordingBackend(script + signal_script)
    summary = run_all(config, backend=backend, checker=BuiltinChecker())

    assert [(r.signal, r.failed) for r in summary.results] == [("ack_o", False)]
    events = summary.stage1.events + summary.results[0].log.events
    assert len(events) == len(backend.sent) == backend.calls
    return [
        f"{event.role} {hashlib.sha256(json.dumps(messages, sort_keys=True).encode()).hexdigest()}"
        for event, messages in zip(events, backend.sent)
    ]


def test_every_rendered_prompt_keeps_its_bytes(tmp_path):
    """Every message list of a scripted run, stage 1 to deduplication,
    hashes as pinned in `prompt_digests.txt`."""
    lines = prompt_digest_lines(tmp_path)
    with open(PROMPT_DIGESTS, encoding="utf-8") as f:
        pinned = f.read().splitlines()
    assert [line.split()[0] for line in lines] == [line.split()[0] for line in pinned]
    assert lines == pinned
