"""Shared test fixtures: canned model replies and script builders for
deterministic full-pipeline runs."""

from __future__ import annotations

import json
import os
import re
import threading

import pytest

from svagen.agents import signal_context
from svagen.backends import ScriptEntry, ScriptedBackend
from svagen.bank import InformationBank, SignalInfo
from svagen.config import RunConfig
from svagen.pipeline import SignalRunResult
from svagen.prompts import CallLog
from svagen.tree import ReasoningTree, SearchParams

from chat_server import ChatServer

# A syntactically valid assertion pair (property + assert).
VALID_PROPERTY_UNIT = """\
property p_handshake;
  @(posedge clk_i) disable iff (rst_i)
  req_i |-> ##1 ack_o;
endproperty
assert property (p_handshake);"""

VALID_BARE_ASSERT = "assert property (@(posedge clk_i) !rst_i |-> $stable(cfg_q));"

INVALID_ASSERT = "assert property (@(posedge clk_i) req_i |-> );"

CORRECTED_ASSERT = "assert property (@(posedge clk_i) req_i |-> ack_o);"


def fenced(*units: str) -> str:
    blocks = "\n\n".join(units)
    return f"```systemverilog\n{blocks}\n```"


def critic_reply(score: float, feedback: str = "Needs work on completeness.") -> str:
    return f"{feedback}\n[SCORE: {score:g}]"


def make_signal(name: str = "ack_o") -> SignalInfo:
    return SignalInfo(
        verilog_name=name,
        spec_name=name,
        description=f"{name} handshake output",
        definition="1-bit output",
        functionality="acknowledges an accepted request",
    )


def make_bank(signal_names: list[str] | None = None) -> InformationBank:
    names = signal_names or ["ack_o"]
    return InformationBank(
        design_name="demo",
        workflow_info="[Signal Mapping]\n"
        + "\n".join(f"{n}: mapped signal" for n in names),
        signals=[make_signal(n) for n in names],
    )


def stage2_script(
    signal: str,
    weak_answer: str,
    rollout_answers: list[str],
    scores: list[float],
    keyed: bool = False,
) -> list[ScriptEntry]:
    """Script for one signal's stage 2.

    `scores` holds 1 + 3 * len(rollout_answers) values: the root evaluation,
    then per rollout (re-sample, expansion feedback, child evaluation).
    """
    assert len(scores) == 1 + 3 * len(rollout_answers)
    match = f"Signal name: {signal}" if keyed else None
    entries = [
        ScriptEntry(response=weak_answer, match=match),
        ScriptEntry(response=critic_reply(scores[0]), match=match),
    ]
    for i, answer in enumerate(rollout_answers):
        resample, feedback, evaluation = scores[1 + 3 * i : 4 + 3 * i]
        entries += [
            ScriptEntry(response=critic_reply(resample), match=match),
            ScriptEntry(response=critic_reply(feedback), match=match),
            ScriptEntry(response=answer, match=match),
            ScriptEntry(response=critic_reply(evaluation), match=match),
        ]
    return entries


# One letter per step of a signal's call schedule, by its event's (role, phase).
_STEP_LETTERS = {
    ("sva", None): "A",  # the weak answer, or a refinement
    ("critic", "root-evaluation"): "R",
    ("critic", "resample"): "S",
    ("critic", "expansion-feedback"): "F",
    ("critic", "evaluation"): "E",
    ("syntax_correction", None): "C",
    ("deduplication", None): "D",
}


def fits_schedule(events, n_rollouts: int, serial: bool = True) -> bool:
    """Whether a signal log's (role, phase) events follow the call schedule:
    the weak answer and the root evaluation, at most `n_rollouts` rollouts
    of resample, expansion feedback, refine and evaluation, then an
    optional correction and an optional deduplication. Each critic step may
    take one retry, and a run may stop after any step. On a backend that is
    not `serial`, stage 3's first call may sit between the last evaluation
    and that evaluation's retry."""
    letters = "".join(_STEP_LETTERS.get((e.role, e.phase), "?") for e in events)
    steps = ["A", "RR?"] + ["SS?", "FF?", "A", "EE?"] * n_rollouts
    pattern = "EE?C?D?" if serial else "E(?:E?C?D?|CE?D?|DE?)"  # the last step, then stage 3
    for step in reversed(steps[:-1]):
        pattern = f"{step}(?:{pattern}|C?D?)"  # a stop after `step` goes to stage 3
    return re.fullmatch(f"(?:{pattern})?", letters) is not None


def correction_entry(signal: str, response: str, keyed: bool = False) -> ScriptEntry:
    # the correction prompt ends "...corrected assertions for <signal>"
    return ScriptEntry(
        response=response,
        match=f"corrected assertions for {signal}" if keyed else None,
    )


def dedup_entry(signal: str, response: str, keyed: bool = False) -> ScriptEntry:
    # the deduplication prompt says "...from this list for the <signal>"
    return ScriptEntry(
        response=response, match=f"for the {signal}" if keyed else None
    )


def full_signal_script(
    signal: str,
    n_rollouts: int = 4,
    keyed: bool = False,
    with_bad_assertion: bool = True,
) -> list[ScriptEntry]:
    """A complete stage 2+3 script for one signal hitting the full budget:
    18 stage-2 calls (for 4 rollouts) plus correction and deduplication."""
    weak = fenced(VALID_PROPERTY_UNIT)
    last_units = [VALID_PROPERTY_UNIT, VALID_BARE_ASSERT]
    if with_bad_assertion:
        last_units.append(INVALID_ASSERT)
    rollout_answers = [fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT)] * (n_rollouts - 1)
    rollout_answers.append(fenced(*last_units))
    scores = [30.0] + [float(40 + i) for i in range(3 * n_rollouts)]
    entries = stage2_script(signal, weak, rollout_answers, scores, keyed=keyed)
    if with_bad_assertion:
        entries.append(correction_entry(signal, fenced(CORRECTED_ASSERT), keyed))
    entries.append(
        dedup_entry(signal, fenced(VALID_PROPERTY_UNIT, VALID_BARE_ASSERT), keyed)
    )
    return entries


@pytest.fixture
def signal() -> SignalInfo:
    return make_signal()


@pytest.fixture
def bank() -> InformationBank:
    return make_bank()


@pytest.fixture
def params() -> SearchParams:
    return SearchParams()


@pytest.fixture
def chat_server(monkeypatch):
    """A `ChatServer` served from a thread for the test, which `requests`
    reaches directly: the test clears every proxy variable."""
    for name in [n for n in os.environ if n.lower().endswith("_proxy")]:
        monkeypatch.delenv(name)
    server = ChatServer()
    # it looks for shutdown every 10 ms, not every 0.5 s, so teardown is quick
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), name="chat-server")
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


def config_for(tmp_path, n_rollouts: int = 4, **kwargs) -> RunConfig:
    os.makedirs(tmp_path, exist_ok=True)
    config = RunConfig(search=SearchParams(n_rollouts=n_rollouts), **kwargs)
    config.paths.bank_file = str(tmp_path / "bank.json")
    config.paths.output_dir = str(tmp_path / "out")
    return config


def signal_result(
    config: RunConfig, backend, name: str = "ack_o", tree: ReasoningTree | None = None,
    bank: InformationBank | None = None,
):
    """An empty result for one signal with its capped call log over
    `backend`, as `run_signal` makes it; `run_stage2` and `run_stage3` fill
    it. With `bank`, the log already carries the signal's prompt context,
    as `run_stage2` leaves it for `run_stage3`."""
    log = CallLog(name, backend, cap=config.max_api_calls_per_signal)
    if bank is not None:
        log.context = signal_context(bank.signal(name), bank.workflow_info)
    return SignalRunResult(name, log, tree)


def scripted(entries: list[ScriptEntry]) -> ScriptedBackend:
    return ScriptedBackend(entries)


# A tree's shape: one (id, parent, children) per node, in dump order.
TREE_SHAPE = [(0, None, [1, 2]), (1, 0, [3]), (2, 0, []), (3, 1, [])]

# (test id, shape, root, the field path the loader names), one per rule of
# `ReasoningTree.validate`
MALFORMED_TREES = [
    ("empty nodes", [], 0, r"nodes: empty"),
    ("root 1", TREE_SHAPE, 1, r"root: 1"),
    ("root with a parent", [(0, 3, [1, 2]), *TREE_SHAPE[1:]], 0, r"nodes\[0\]\.parent"),
    ("two roots", [(0, None, [1]), (1, 0, [3]), (2, None, []), (3, 1, [])], 0, r"nodes\[2\]\.parent"),
    ("cycle", [(0, None, [2]), (1, 3, [3]), (2, 0, []), (3, 1, [1])], 0, r"nodes\[1\]\.parent"),
    ("dangling child", [(0, None, [1, 2, 4]), *TREE_SHAPE[1:]], 0, r"nodes\[0\]\.children"),
    ("parent after child", [(0, None, [2]), (1, 2, [3]), (2, 0, [1]), (3, 1, [])], 0,
     r"nodes\[1\]\.parent"),
    ("ids 0 1 2 5", [(0, None, [1, 2]), (1, 0, [5]), (2, 0, []), (5, 1, [])], 0, r"nodes\[3\]\.id"),
    ("out of id order", [TREE_SHAPE[i] for i in (0, 1, 3, 2)], 0, r"nodes\[2\]\.id"),
    ("children out of id order", [(0, None, [2, 1]), *TREE_SHAPE[1:]], 0, r"nodes\[0\]\.children"),
]


def tree_dump(shape: list[tuple[int, int | None, list[int]]], root: int = 0) -> str:
    """A tree dump's text with one unevaluated node per entry of `shape`."""
    nodes = [
        {"id": i, "parent": parent, "children": children, "answer": {"assertions": ["assert property (x);"]}}
        for i, parent, children in shape
    ]
    return json.dumps({"signal_name": "ack_o", "root": root, "rollouts_completed": 0, "nodes": nodes})


def record_text(tree_text: str) -> str:
    """A signal record's text (`signals/<name>.json`) holding the tree
    whose JSON is `tree_text`, with empty lists and no critiques."""
    lists = ("a1", "a2", "a2_prime", "a3", "deduplicated", "warnings", "critiques")
    return json.dumps({"tree": json.loads(tree_text), **{k: [] for k in lists}, "syntax_log": ""})
