"""Three-stage pipeline driver.

Stage 1 builds the signal-wise information bank: the signal mapper's
call, then every spec and waveform analysis as one batch on up to
`parallel` threads. Stage 2 runs the self-refine tree search per signal:
four phases per rollout (greedy UCT selection with reward re-sampling,
expansion from critic plus syntax-log feedback, critic evaluation of the
new node with score suppression, and Q backpropagation). Stage 3 pools
all tree nodes, splits the pool by syntax verdict, corrects the failures,
and deduplicates into the final assertion set. Both stages check every
assertion set through `check_all`, and every agent renders from the call
log's signal context; the critic and refiner read the node's answer and
its syntax log.

Every agent sends its LLM calls through a `CallLog` (`svagen.prompts`),
which charges each call as the backend receives it: one log per signal,
capped at the per-signal budget (`config.default_call_budget`), and one for
stage 1. The ledger counts and the summary totals are read from those
logs, and stage 2 keeps each critique whose score parsed on the signal's
result. The log refuses a call past its cap; the search is anytime, so a
refused call ends it with the tree built so far, and stage 3 skips the
step that asked.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING

from svagen import read_text
from svagen.agents import (
    CritiqueResult,
    ScoreParseError,
    correct_syntax,
    correction_call,
    critique,
    deduplicate,
    deduplication_call,
    generate_weak_answer,
    merge_normalized,
    # _checked_pool does not call it; bench/run_bench.py traces `pipeline.normalize_assertion`
    normalize_assertion,  # noqa: F401
    refine,
    signal_context,
)
from svagen.backends import ChatBackend
from svagen.bank import (
    InformationBank,
    StageError,
    analyze_signal,
    analyze_waveform,
    analyzer_call,
    build_workflow_info,
    load_bank,
    map_signals,
    save_bank,
)
from svagen.config import ConfigError, RunConfig
from svagen.prompts import BudgetExceededError, CallLog, PromptTemplate
from svagen.records import dumps, encode
from svagen.sva.checker import MemoChecker, SyntaxChecker, check_all, format_log
from svagen.tree import ReasoningTree, TreeRecord

if TYPE_CHECKING:  # svagen.rag (and numpy) load only where an index is loaded
    from svagen.rag import VectorIndex


@dataclass
class SignalRunResult:
    """One signal's stages 2 and 3, filled in place by `run_stage2` and
    `run_stage3`; a failed signal keeps what it produced before failing."""

    signal: str
    log: CallLog
    tree: ReasoningTree | None = None
    a1: list[str] = field(default_factory=list)
    a2: list[str] = field(default_factory=list)
    a2_prime: list[str] = field(default_factory=list)
    a3: list[str] = field(default_factory=list)
    deduplicated: list[str] = field(default_factory=list)
    syntax_log: str = ""
    warnings: list[str] = field(default_factory=list)
    critiques: list[CritiqueResult] = field(default_factory=list)  # scored ones, in call order
    failed: bool = False
    error: str | None = None

    @property
    def total_calls(self) -> int:
        return len(self.log)

    def record(self) -> SignalRecord:
        """What `signals/<name>.json` holds of this result; it needs the tree."""
        return SignalRecord(
            self.tree.record(), self.a1, self.a2, self.a2_prime, self.a3, self.deduplicated,
            self.warnings, self.critiques, self.syntax_log,
        )


@dataclass
class SignalRecord:
    """`signals/<name>.json`: what `summary.json` lacks of one signal (its
    calls, `failed` and `error` are there; docs/formats.md, "Run artifacts")."""

    tree: TreeRecord
    a1: list[str]
    a2: list[str]
    a2_prime: list[str]
    a3: list[str]
    deduplicated: list[str]
    warnings: list[str]
    critiques: list[CritiqueResult]  # in call order
    syntax_log: str


# --------------------------------------------------------------------------
# Stage 1


def run_stage1(
    config: RunConfig,
    spec_text: str,
    verilog_decls: str,
    waveform_texts: list[str],
    log: CallLog,
    design_summary: str = "",
) -> tuple[InformationBank, list[str]]:
    """Build and persist the information bank; returns (bank, warnings).

    One call through `log` per mapper invocation, per signal analysis and
    per waveform analysis. The analyses need only the mapper's reply, so
    they go as one `complete_many` batch on `config.parallel` threads, and
    stage 1 waits `1 + ceil((signals + waveforms) / parallel)` calls deep.
    Replies are parsed in input order, so warnings and the bank do not
    depend on `parallel`. A signal whose analysis fails is dropped with a
    warning; zero mapped signals aborts the stage.
    """
    warnings: list[str] = []
    pairs, map_warnings = map_signals(log, spec_text, verilog_decls)
    warnings += map_warnings

    calls = [analyzer_call(log, "spec_analyzer", spec_text, signal_name=name) for name, _ in pairs]
    calls += [analyzer_call(log, "waveform_analyzer", spec_text, waveform_text=w) for w in waveform_texts]
    replies = log.complete_many(calls, config.parallel)

    signals = []
    for (name, description), reply in zip(pairs, replies):
        try:
            info = analyze_signal(reply, name)
        except StageError as err:
            warnings.append(f"signal {name!r} dropped: {err}")
            continue
        if not info.description:
            info.description = description
        signals.append(info)
    if not signals:
        raise StageError("no signal survived specification analysis")

    waveforms = []
    for waveform_text, reply in zip(waveform_texts, replies[len(pairs) :]):
        summary, wf_warnings = analyze_waveform(reply, waveform_text)
        warnings += wf_warnings
        if summary is not None:
            waveforms.append(summary)

    bank = InformationBank(
        design_name=config.design_name,
        workflow_info=build_workflow_info(pairs, waveforms, design_summary),
        signals=signals,
        waveforms=waveforms,
    )
    warnings += bank.validate()
    save_bank(bank, config.paths.bank_file)
    return bank, warnings


# --------------------------------------------------------------------------
# Stage 2


def run_stage2(
    config: RunConfig,
    bank: InformationBank,
    result: SignalRunResult,
    checker: SyntaxChecker,
    rag_index: VectorIndex | None = None,
) -> None:
    """Grow the reasoning tree for one signal into `result.tree`, making
    each call through `result.log`, after setting its `signal_context`.

    The call schedule is the one `default_call_budget` counts: the weak root
    and its evaluation, then per rollout a re-sample of the selected node's
    score, critic feedback for expansion, refinement, and evaluation of the
    new node. `critique` asks again once for a reply with no usable score;
    when the second reply has none either, the rollout (or the root
    evaluation) ends with the tree so far, and a call the log refuses past
    the budget ends the search the same way. The last child evaluation, whose
    reply nothing in stage 3 reads, may carry stage 3's first call, as
    `CallLog.complete` decides (docs/formats.md, "Run configuration").

    Retrieval runs once per signal: its query text depends only on the
    signal, so the first rollout to reach the refine step queries
    `rag_index` and later rollouts reuse the context.
    """
    signal_name = result.signal
    try:
        signal = bank.signal(signal_name)
    except KeyError as err:
        raise StageError(str(err)) from err
    params = config.search
    log, warnings = result.log, result.warnings
    log.context = signal_context(signal, bank.workflow_info)
    rag_context: str | None = None  # set at the first refine step

    def scored_critique(node_id: int, phase: str, then=None):
        scored = critique(log, tree.node(node_id).answer, params, node_id, phase, then)
        result.critiques.append(scored)
        return scored

    def evaluate(node_id: int, phase: str, last: bool = False) -> None:
        answer = tree.node(node_id).answer
        answer.syntax_log = format_log(check_all(answer.assertions, checker))
        then = (lambda: _stage3_first_call(result, checker)) if last else None
        scored = scored_critique(node_id, phase, then)
        tree.record_reward(node_id, scored.suppressed_score)
        tree.backpropagate(node_id)

    # initial node: weak answer + its evaluation, the first two calls of default_call_budget
    root_answer = generate_weak_answer(log)
    tree = result.tree = ReasoningTree(signal_name, root_answer)
    try:
        evaluate(tree.root, "root-evaluation")
    except (ScoreParseError, BudgetExceededError) as err:
        warnings.append(f"root evaluation failed, search skipped: {err}")
        return

    for rollout in range(1, params.n_rollouts + 1):
        try:
            # phase 1: selection + reward re-sampling, an evaluation of the selected node
            selected_id = tree.select_node(params)
            evaluate(selected_id, "resample")

            # phase 2: expansion: critic feedback on the stored syntax log, then refine
            feedback = scored_critique(selected_id, "expansion-feedback")
            if rag_context is None:
                rag_context = ""
                if rag_index is not None:
                    rag_context = rag_index.context(f"{signal.verilog_name} {signal.description}", config.rag.k)
                    if not rag_context:
                        warnings.append("rag index is empty; refining without reference context")
            selected = tree.node(selected_id).answer  # evaluate() set its syntax log
            new_answer = refine(log, selected, feedback.feedback, rag_context)
            if not new_answer.assertions:
                warnings.append(f"rollout {rollout} refinement produced no assertions")
            child_id = tree.add_child(selected_id, new_answer)

            # phase 3 + 4: evaluation of the new node, backpropagation; the last
            # one offers stage 3's first call to the log (`CallLog.complete`)
            evaluate(child_id, "evaluation", rollout == params.n_rollouts)
            tree.rollouts_completed = rollout
        except (ScoreParseError, BudgetExceededError) as err:
            warnings.append(f"rollout {rollout} aborted: {err}")
            break

        if config.early_stop and rollout < params.n_rollouts and _early_stop_reached(tree, checker, config):
            warnings.append(
                f"early stop after rollout {rollout}: best node passes all syntax checks"
            )
            break


def _early_stop_reached(tree: ReasoningTree, checker: SyntaxChecker, config: RunConfig) -> bool:
    """Stop when the best-Q node's assertions all pass syntax and its latest
    suppressed score clears the bar (so a trivially small correct set does
    not end the search)."""
    evaluated = [n for n in tree.nodes.values() if n.evaluated]
    best = max(evaluated, key=lambda n: n.q_value, default=None)  # the earliest of equal Qs
    if best is None or not best.answer.assertions:
        return False
    if best.reward_samples[-1] < config.early_stop_score:
        return False
    return all(r.status == "pass" for r in check_all(best.answer.assertions, checker))


# --------------------------------------------------------------------------
# Stage 3


def _checked_pool(tree: ReasoningTree, checker: SyntaxChecker):
    """Stage 3's pool, every assertion over the tree in node-id order with
    normalized duplicates merged (first spelling wins), checked: its
    records, the passing texts (A1) and the failing records (A2's)."""
    records = check_all(merge_normalized([t for n in tree.nodes.values() for t in n.answer.assertions]), checker)
    return records, [r.text for r in records if r.status == "pass"], [r for r in records if r.status == "fail"]


def _stage3_first_call(result: SignalRunResult, checker: SyntaxChecker):
    """The call `run_stage3` makes first on `result.tree`: the correction,
    or the deduplication of A1 when nothing fails; None when it makes neither."""
    _, passing, failing = _checked_pool(result.tree, checker)
    return correction_call(result.log, failing) or deduplication_call(result.log, passing)


def run_stage3(result: SignalRunResult, checker: SyntaxChecker) -> None:
    """Combine all nodes of `result.tree` into the final assertion set,
    making each call through `result.log`, whose context stage 2 set.

    Two calls at most, the last two that `default_call_budget` counts:
    syntax correction (skipped when nothing failed) and deduplication
    (skipped for pools of one or fewer); a step whose call the log refuses
    past the budget is skipped with a warning. The first of them may have
    gone with stage 2's last evaluation, as `CallLog.complete` decides;
    `result.log` then answers it without sending it again.
    Corrected texts are re-checked; still-failing ones are dropped with a
    warning. A text the checker cannot check raises CheckerUnavailableError,
    as in stage 2.
    """
    log, warnings = result.log, result.warnings

    records, result.a1, failing = _checked_pool(result.tree, checker)
    result.syntax_log = format_log(records)
    result.a2 = [r.text for r in failing]

    try:
        corrected = correct_syntax(log, failing)
    except BudgetExceededError:
        corrected = []
        warnings.append("syntax correction skipped: per-signal call budget exhausted")
    for record in check_all(corrected, checker):
        if record.status == "fail":
            warnings.append(f"corrected assertion still fails the checker, dropped: {record.text[:60]!r}")
        else:
            result.a2_prime.append(record.text)

    result.a3 = result.a1 + result.a2_prime
    dedup_input = merge_normalized(result.a3)
    try:
        result.deduplicated, dedup_warnings = deduplicate(log, dedup_input)
        warnings += dedup_warnings
    except BudgetExceededError:
        result.deduplicated = dedup_input
        warnings.append("deduplication skipped: per-signal call budget exhausted")


# --------------------------------------------------------------------------
# Full pipeline


@dataclass
class RunSummary:
    design_name: str
    results: list[SignalRunResult]
    stage1: CallLog
    max_per_signal: int
    stage1_warnings: list[str] = field(default_factory=list)

    @property
    def failed_signals(self) -> list[str]:
        return [r.signal for r in self.results if r.failed]

    @property
    def max_api_calls(self) -> int:
        return len(self.results) * self.max_per_signal

    def to_dict(self) -> dict:
        results = sorted(self.results, key=lambda r: r.signal)
        total_calls = len(self.stage1) + sum(r.total_calls for r in results)
        return {
            "design_name": self.design_name,
            "signals": {
                r.signal: {
                    "assertions": len(r.deduplicated),
                    "a1": len(r.a1),
                    "a2": len(r.a2),
                    "calls": r.total_calls,
                    "failed": r.failed,
                    "error": r.error,
                }
                for r in results
            },
            "totals": {
                "signals": len(results),
                "assertions": sum(len(r.deduplicated) for r in results),
                "failed_signals": len(self.failed_signals),
                "max_api_calls": self.max_api_calls,
                "total_llm_calls": total_calls,
                "stage1_calls": len(self.stage1),
            },
            "stage1_warnings": self.stage1_warnings,
            "ledger": {
                "max_per_signal": self.max_per_signal,
                "stage1": self.stage1.counts(),
                "signals": {r.signal: r.log.counts() for r in results if r.total_calls},
                "total_calls": total_calls,
            },
        }


def build_bank(config: RunConfig, log: CallLog) -> tuple[InformationBank, list[str]]:
    """Stage 1 from the input files named in config.paths (specification,
    Verilog declarations, waveforms, design summary); StageError before any
    call when a required path is unset or a file cannot be read as UTF-8,
    and OSError when the bank file's directory cannot be made."""
    paths = config.paths
    if not paths.spec_file or not paths.verilog_file:
        raise StageError("stage 1 needs paths.spec_file and paths.verilog_file")

    spec_text = read_text(paths.spec_file, "specification", StageError)
    verilog_decls = read_text(paths.verilog_file, "Verilog declarations", StageError)
    waveform_texts = [read_text(p, "waveform", StageError) for p in paths.waveform_files]
    design_summary = ""
    if paths.design_summary_file:
        design_summary = read_text(paths.design_summary_file, "design summary", StageError)
    os.makedirs(os.path.dirname(os.path.abspath(paths.bank_file)), exist_ok=True)
    return run_stage1(config, spec_text, verilog_decls, waveform_texts, log, design_summary)


def run_signal(
    config: RunConfig,
    backend: ChatBackend,
    bank: InformationBank,
    signal_name: str,
    checker: SyntaxChecker,
    rag_index: VectorIndex | None = None,
    templates: dict[str, PromptTemplate] | None = None,
) -> SignalRunResult:
    """Stages 2 and 3 for one signal, with its own capped call log.
    Failures are captured, not raised: a failed signal keeps its tree,
    stage-3 lists, warnings and calls as far as they got."""
    log = CallLog(signal_name, backend, templates, config.max_api_calls_per_signal)
    result = SignalRunResult(signal_name, log)
    try:
        run_stage2(config, bank, result, checker, rag_index)
        run_stage3(result, checker)
    except Exception as err:  # isolation: one signal's failure never spreads
        result.failed = True
        result.error = f"{type(err).__name__}: {err}"
    return result


def run_all(
    config: RunConfig,
    backend: ChatBackend | None = None,
    checker: SyntaxChecker | None = None,
    only_signal: str | None = None,
) -> RunSummary:
    """Run the full pipeline and write run artifacts.

    Stage 1 is skipped when the configured bank file already exists
    (resumability); otherwise its analyses after the mapper go as one
    batch of up to config.parallel concurrent calls. Stages 2-3 run per
    signal, in parallel up to config.parallel. Per-signal failures are
    isolated and reported in the summary. The checker is memoized for this
    run only: each distinct assertion text is checked once. The backend is
    made first: an unset API key raises ConfigError before any call. The
    retrieval index is loaded next: a missing file, or one that
    `VectorIndex.load` rejects, raises ConfigError before any call. The
    output directory is made before the first call too, so one that cannot
    be made costs none.
    """
    backend = backend if backend is not None else config.make_backend()
    checker = MemoChecker(checker if checker is not None else config.make_checker())
    templates = config.load_templates()
    stage1 = CallLog("stage 1", backend, templates)

    rag_index = None  # loaded before stage 1, so a bad file costs no call
    if config.rag.index_path:
        from svagen.rag import VectorIndex

        try:
            rag_index = VectorIndex.load(config.rag.index_path)
        except ValueError as err:
            raise ConfigError(f"rag.index_path: {err}; build it with `svagen rag build`") from err

    stage1_warnings: list[str] = []
    bank = load_bank(config.paths.bank_file) if os.path.exists(config.paths.bank_file) else None
    os.makedirs(config.paths.output_dir, exist_ok=True)
    if bank is None:
        bank, stage1_warnings = build_bank(config, stage1)

    signal_names = [s.verilog_name for s in bank.signals]
    if only_signal is not None:
        if only_signal not in signal_names:
            raise StageError(f"signal {only_signal!r} not present in the bank")
        signal_names = [only_signal]

    def work(name: str) -> SignalRunResult:
        return run_signal(config, backend, bank, name, checker, rag_index, templates)

    with ThreadPoolExecutor(max_workers=config.parallel) as pool:
        results = list(pool.map(work, signal_names))

    summary = RunSummary(
        design_name=config.design_name,
        results=results,
        stage1=stage1,
        max_per_signal=config.max_api_calls_per_signal,
        stage1_warnings=stage1_warnings,
    )
    write_artifacts(config.paths.output_dir, summary)
    return summary


def write_artifacts(output_dir: str, summary: RunSummary) -> None:
    """`summary.json`, and one `signals/<name>.json` record per signal
    that has a tree (docs/formats.md, "Run artifacts"); keys are sorted, so
    identical runs write identical bytes."""
    os.makedirs(os.path.join(output_dir, "signals"), exist_ok=True)
    for r in summary.results:
        path = os.path.join(output_dir, "signals", f"{r.signal}.json")
        if r.tree is None and os.path.exists(path):
            os.remove(path)  # an earlier run's record: this run has no tree for the signal
    # one record at a time: a run holds no more than one encoded record
    records = (
        (f"signals/{r.signal}.json", encode(r.record())) for r in summary.results if r.tree is not None
    )
    for name, payload in chain(records, [("summary.json", summary.to_dict())]):
        with open(os.path.join(output_dir, name), "w", encoding="utf-8") as f:
            f.write(dumps(payload))
