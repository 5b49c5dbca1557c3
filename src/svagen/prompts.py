"""Prompt templates for the seven agent roles, and the call log through
which every agent sends its rendered prompts to a model.

Rendering is pure substitution of {name} placeholders; a missing context
key is an error naming the placeholder, and nothing else in the template is
transformed. A plain-text file can override the texts of a shipped
default; the default's key fixes the role and the allowed placeholders.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Literal

from svagen import read_text
from svagen.backends import ChatBackend, Message
from svagen.tree import SCORE_MAX, SCORE_MIN

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")


class RenderError(ValueError):
    def __init__(self, placeholder: str) -> None:
        super().__init__(f"missing placeholder {placeholder!r} in prompt context")
        self.placeholder = placeholder


@dataclass(frozen=True)
class PromptTemplate:
    role_name: str
    system_text: str
    user_text_template: str

    def placeholders(self) -> list[str]:
        return sorted(set(_PLACEHOLDER_RE.findall(self.user_text_template)))


def render_prompt(template: PromptTemplate, context: dict[str, str]) -> list[Message]:
    """Substitute placeholders and return the (system, user) message pair."""

    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in context:
            raise RenderError(name)
        return str(context[name])

    user_text = _PLACEHOLDER_RE.sub(substitute, template.user_text_template)
    return [
        {"role": "system", "content": template.system_text},
        {"role": "user", "content": user_text},
    ]


def load_template(path: str, default: PromptTemplate) -> PromptTemplate:
    """`default` with the texts of a template file's `[system]` and `[user]`
    sections; text before the first of them is ignored. The `[user]` text
    may use only placeholders that `default` uses, and the `[system]` text,
    sent as written, none. ValueError when the file is unreadable, not
    UTF-8, lacks a section or uses a placeholder it may not."""
    text = read_text(path, "template", ValueError)
    sections: dict[str, list[str]] = {}
    current: list[str] = []  # lines before the first header: dropped
    for line in text.splitlines():
        header = line.strip().lower()
        if header in ("[system]", "[user]"):
            current = sections[header] = []
        else:
            current.append(line)
    if "[system]" not in sections or "[user]" not in sections:
        raise ValueError("needs [system] and [user] sections")
    template = replace(
        default,
        system_text="\n".join(sections["[system]"]).strip(),
        user_text_template="\n".join(sections["[user]"]).strip(),
    )
    in_system = _PLACEHOLDER_RE.search(template.system_text)
    if in_system:
        raise ValueError(f"placeholder {in_system.group()} in [system], which is sent as written")
    allowed = default.placeholders()
    unknown = [name for name in template.placeholders() if name not in allowed]
    if unknown:
        listed = ", ".join(f"{{{name}}}" for name in allowed)
        raise ValueError(f"unknown placeholder {{{unknown[0]}}}; allowed: {listed}")
    return template


# --------------------------------------------------------------------------
# Shipped defaults. The registry is keyed by template id; the `sva` role has
# two user shapes (initial short answer vs refinement). Each default is the
# contract of its key: the role its calls are charged to, and the
# placeholders its agent fills.

_SIGNAL_MAPPER_SYSTEM = """\
Please act as a signal name mapping tool to link the specification file and the Verilog code.
Firstly, I'll upload the design specification file, and a Verilog file containing all the signal definitions.
Only output a signal if it is present in both the specification and the Verilog file. Think step by step and verify your output before stopping.
The signal description should be short and to the point."""

_SIGNAL_MAPPER_USER = """\
Please analyze the specification file and the Verilog file (both the signal declarations and comments). Then map every signal (including IO ports, wires, and registers) defined in Verilog with the description in the specification. Finally, please output each signal in the following format:

[Signal name in Verilog]: Signal definition in Specification file

Specification:
{specification_text}

Verilog declarations:
{verilog_declarations}"""

_SPEC_ANALYZER_SYSTEM = """\
Please act as a professional VLSI specification analyzer.
Don't use any content outside the file for answering the questions. Think step by step.
When I ask for information on any signal, extract all the information, suitable for the SystemVerilog Assertions generation, and output all the information in the following format:

[Signal Name]; [Description] -> [Definition], [Functionality], [Interconnection], [Additional Information]; [Related Signals]."""

_SPEC_ANALYZER_USER = """\
Here is the design specification file, please analyze it carefully.

{specification_text}

Please extract all the information related to the {signal_name} from the spec file."""

_WAVEFORM_ANALYZER_SYSTEM = """\
Please act as a professional waveform analyzer specialized in VLSI design verification.
Your primary task is to extract and summarize signal interdependence information from the waveform diagrams.
For each waveform diagram, generate a structured signal interdependence summary in the following format:

[Waveform Name]: Name as mentioned in the SPEC
[Signals]: List of all signals present in the waveform
[Interdependence Analysis]:
- [Timing Relationship]: Define how signals interact over time (e.g., edge alignment, sequential dependencies, latency)
- [Causal Dependencies]: Identify signals that influence or trigger changes in others.
- [State Transitions]: Describe key transitions and conditions governing signal changes.
- [Protocol/Handshaking Mechanisms]: If applicable, explain interactions like request-acknowledge, arbitration, or synchronization.
- [Additional Observations]: Any other relevant information inferred from the waveform."""

_WAVEFORM_ANALYZER_USER = """\
Here is the specification. Analyze it carefully.

{specification_text}

Waveform description:
{waveform_text}

Extract information in specified format."""

_CRITIC_SYSTEM = f"""\
Please act as a critic to a professional VLSI verification engineer. You will be provided with a specification and workflow information.
Along with that, you will be provided with a signal name, its specification, and the SVAs generated by a professional VLSI verification engineer for that signal.
Analyze the SVAs strictly and criticize everything possible. You are not allowed to create new signal names apart from the specification.
Point out every possible flaw and give a score from {SCORE_MIN:g} to {SCORE_MAX:g}. Also focus on Clock Cycle Misinterpretations, and nested if-else and long conditions.
Be very strict, ensure CORRECTNESS, CONSISTENCY, and COMPLETENESS of the SVAs. Focus on these three things while grading the SVAs and providing feedback.
Let's think step by step.
End your reply with the final score on its own line in the exact form [SCORE: <number>]."""

_CRITIC_USER = """\
Workflow information:
{workflow_info}

Signal name: {signal_name}

Signal specification:
{specification_text}

SVAs under review:
{assertions}

Syntax check log:
{syntax_log}"""

_SVA_SYSTEM = """\
Please act as a professional VLSI verification engineer. You will be provided with a specification, workflow information, signal name and its description.
Please write all the corresponding SVAs based on the defined Verilog signals that benefit both the RTL design and verification processes.
Do not generate any new signals. Make sure that the generated SVAs have no syntax error and strictly follow the function of the given specification/description.
The generated SVAs should include but not be limited to the following types: [width] [connectivity] [function]
Ensure that you do not create a new signal than the specification.
Sometimes you may also be provided with improvement feedback, take it into consideration and improve your SVAs while maintaining CORRECTNESS, CONSISTENCY, and COMPLETENESS. Let's think step by step.
Return every assertion inside a fenced code block."""

_SVA_WEAK_USER = """\
Workflow information:
{workflow_info}

Signal name: {signal_name}

Signal specification:
{specification_text}

Write a first set of SVAs for this signal. Keep the generated answer short: at most two simple assertions, with no elaboration."""

_SVA_REFINE_USER = """\
Workflow information:
{workflow_info}

Signal name: {signal_name}

Signal specification:
{specification_text}

Current SVAs:
{assertions}

Improvement feedback:
{feedback}

Syntax check log:
{syntax_log}

Reference material:
{rag_context}

Improve the SVAs above, taking the feedback and the syntax check log into consideration."""

_CORRECTION_SYSTEM = "Please act as a professional VLSI verification engineer."

_CORRECTION_USER = """\
Using the following documentation for reference return the assertions (provided later) with their syntax issue fixed: {specification_text}. Here are the SystemVerilog assertions with syntax errors:

{assertions}

Please correct the syntax of the assertions provided earlier and return only the corrected assertions for {signal_name}. You are not allowed to create any new signals than the ones specified in the specification. Return every corrected assertion inside a fenced code block."""

_DEDUPLICATION_SYSTEM = "Please act as a professional VLSI verification engineer."

_DEDUPLICATION_USER = """\
Using the following documentation for reference: {specification_text}. Here are several SystemVerilog assertions:

{assertions}

Extract all unique and valid assertions from this list for the {signal_name}. Ensure that you maximise the number of retained assertions.
Do not attempt to modify the actual assertion in any way. Don't forget any assertion (width, connectivity, functionality). Return the retained assertions inside fenced code blocks."""

DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    "signal_mapper": PromptTemplate("signal_mapper", _SIGNAL_MAPPER_SYSTEM, _SIGNAL_MAPPER_USER),
    "spec_analyzer": PromptTemplate("spec_analyzer", _SPEC_ANALYZER_SYSTEM, _SPEC_ANALYZER_USER),
    "waveform_analyzer": PromptTemplate(
        "waveform_analyzer", _WAVEFORM_ANALYZER_SYSTEM, _WAVEFORM_ANALYZER_USER
    ),
    "critic": PromptTemplate("critic", _CRITIC_SYSTEM, _CRITIC_USER),
    "sva_weak": PromptTemplate("sva", _SVA_SYSTEM, _SVA_WEAK_USER),
    "sva_refine": PromptTemplate("sva", _SVA_SYSTEM, _SVA_REFINE_USER),
    "syntax_correction": PromptTemplate(
        "syntax_correction", _CORRECTION_SYSTEM, _CORRECTION_USER
    ),
    "deduplication": PromptTemplate("deduplication", _DEDUPLICATION_SYSTEM, _DEDUPLICATION_USER),
}


# --------------------------------------------------------------------------
# Call log: the one call site of every agent


class BudgetExceededError(RuntimeError):
    """The call log refused a call, or a batch, past its cap; nothing was
    sent. Stage 2 ends its search on it and stage 3 skips the step that
    asked."""


@dataclass
class CallEvent:
    """One LLM call. Critic calls name the node and search phase they score."""

    role: str
    node: int | None = None
    phase: str | None = None


Call = tuple[str, list[Message]]  # (role, messages), as `CallLog` sends it
CRITIC_ATTEMPTS = 2  # calls per critique at most: one more when a reply holds no usable score

# One signal's call schedule (MCTSr): each step is the (role, phase) of its `CallEvent`.
ROOT_STEPS = [("sva", None), ("critic", "root-evaluation")]
ROLLOUT_STEPS = [("critic", "resample"), ("critic", "expansion-feedback"), ("sva", None), ("critic", "evaluation")]
STAGE3_STEPS = [("syntax_correction", None), ("deduplication", None)]
Stop = Literal["done", "early-stop", "budget", "unscored", "failed"]  # why a signal's stage 2 ended


def fits_schedule(events: list[CallEvent], n_rollouts: int, stop: Stop, serial: bool, cap: int | None = None) -> bool:
    """Whether a signal's log follows the schedule of `n_rollouts` to `stop`
    (docs/formats.md, "Run artifacts"): stage 2's steps in order, a critic step
    asked up to `CRITIC_ATTEMPTS` times, then stage 3's, each optional; on a
    backend that is not `serial`, stage 3's first call may precede the last evaluation's retry."""
    calls = [(e.role, e.phase) for e in events]
    stage2, stage3 = [c for c in calls if c not in STAGE3_STEPS], [c for c in calls if c in STAGE3_STEPS]
    runs = [(step, len(list(asks))) for step, asks in groupby(stage2)]  # a step and its retries
    planned = ROOT_STEPS + ROLLOUT_STEPS * n_rollouts
    ends = {
        "done": len(runs) == len(planned),
        "early-stop": len(runs) in range(len(ROOT_STEPS + ROLLOUT_STEPS), len(planned), len(ROLLOUT_STEPS)),
        "budget": len(calls) == cap,  # the log refused a call
        "unscored": bool(runs) and runs[-1][1] == CRITIC_ATTEMPTS,  # a critic step's last attempt
        "failed": True,  # an exception may end the log at any call
    }
    beside = stage2[:-1] + stage3[:1] + stage2[-1:] + stage3[1:]
    return (
        ends[stop] and [step for step, _ in runs] == planned[: len(runs)]
        and all(n <= (CRITIC_ATTEMPTS if role == "critic" else 1) for (role, _), n in runs)
        and stage3 == [step for step in STAGE3_STEPS if step in stage3]
        and (calls == stage2 + stage3 or not serial and ends["done"] and runs[-1][1] > 1 and calls == beside)
    )


class CallLog:
    """The backend, templates and shared prompt `context` (set by stage 2)
    the agents of one signal, or of stage 1 when `cap` is None, reach a
    model through, and their calls in call order. Each log has one writer
    thread: a batch's events are charged on the caller's thread before any
    of its calls is sent, so its worker threads only wait on the backend. A
    backend that sets `serial` has no latency to overlap, and gets every
    call one at a time, in call order."""

    def __init__(
        self,
        name: str,
        backend: ChatBackend,
        templates: dict[str, PromptTemplate] | None = None,
        cap: int | None = None,
    ) -> None:
        self.name = name
        self.backend = backend
        self.templates = templates or DEFAULT_TEMPLATES
        self.cap = cap
        self.context: dict[str, str] = {}
        self.events: list[CallEvent] = []
        self._ahead: tuple[list[Message], Future] | None = None  # sent with an earlier call

    def __len__(self) -> int:
        return len(self.events)

    def complete(
        self, role: str, messages: list[Message], node: int | None = None, phase: str | None = None,
        then: Callable[[], Call | None] | None = None,
    ) -> str:
        """Charge one call to `role`, then send `messages` to the backend.
        Nothing is charged before the prompt is rendered, so the log holds
        exactly the calls the backend received, a failed one included. A
        call past the cap is refused unsent.

        `then` builds a call that needs no reply of this one, or None. The
        log alone decides whether to send it beside this call: only when
        the backend is not `serial` and the log has room for that call and
        `CRITIC_ATTEMPTS` of this one, and only then is `then` called. It
        is charged after this one, and a later `complete` of its messages
        returns its reply, or raises its error, without sending it again."""
        if self._ahead is not None and self._ahead[0] == messages:
            future, self._ahead = self._ahead[1], None
            return future.result()
        serial = getattr(self.backend, "serial", False)
        room = self.cap is None or len(self.events) + CRITIC_ATTEMPTS + 1 <= self.cap
        ahead = then() if then is not None and not serial and room else None
        if ahead is None:
            self._admit(1)
            self.events.append(CallEvent(role, node, phase))
            return self.backend.complete(messages)
        self.events += [CallEvent(role, node, phase), CallEvent(ahead[0])]
        with ThreadPoolExecutor(max_workers=1) as pool:  # this call stays on the caller's thread
            self._ahead = (ahead[1], pool.submit(self.backend.complete, ahead[1]))
            return self.backend.complete(messages)

    def complete_many(self, calls: list[Call], workers: int) -> list[str]:
        """Charge each `(role, messages)` call in input order, send them to
        the backend from at most `workers` threads, and return the replies
        in input order. A pool of one, as for a `serial` backend, sends the
        calls in input order. A batch that would pass the cap is refused
        whole and unsent. When a call fails, calls not yet started are not
        sent and their events are dropped, so the log again holds exactly
        the calls the backend received; the first failure in input order is
        raised."""
        if not calls:
            return []
        self._admit(len(calls))
        start = len(self.events)
        self.events += [CallEvent(role) for role, _ in calls]
        failed = threading.Event()

        def send(messages: list[Message]) -> str | None:
            if failed.is_set():
                return None  # not sent
            try:
                return self.backend.complete(messages)
            except BaseException:
                failed.set()
                raise

        workers = 1 if getattr(self.backend, "serial", False) else min(workers, len(calls))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(send, messages) for _, messages in calls]
        if not failed.is_set():
            return [f.result() for f in futures]
        errors = [f.exception() for f in futures]
        self.events[start:] = [
            event
            for event, future, error in zip(self.events[start:], futures, errors)
            if error is not None or future.result() is not None
        ]
        raise next(error for error in errors if error is not None)

    def _admit(self, n: int) -> None:
        """The only budget check: calls past the cap are refused unsent."""
        if self.cap is not None and len(self.events) + n > self.cap:
            raise BudgetExceededError(f"signal {self.name!r} would exceed {self.cap} calls")

    def counts(self) -> dict[str, int]:
        return dict(sorted(Counter(e.role for e in self.events).items()))
