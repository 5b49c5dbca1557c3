"""Three-stage pipeline driver.

Stage 1 builds the signal-wise information bank. Stage 2 runs the
self-refine tree search per signal: four phases per rollout (greedy UCT
selection with reward re-sampling, expansion from critic plus syntax-log
feedback, critic evaluation of the new node with score suppression, and Q
backpropagation). Stage 3 pools all tree nodes, partitions by syntax,
corrects, and deduplicates into the final assertion set.

Call accounting is enforced per signal: 2 calls for the initial node,
4 per rollout, up to 2 for combination. The ledger raises rather than
exceed the cap, so a blown budget is always an orchestration bug surfacing
loudly, never silent overdraft.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from svagen.agents import (
    ScoreParseError,
    correct_syntax,
    critique,
    deduplicate,
    generate_weak_answer,
    merge_normalized,
    normalize_assertion,
    refine,
)
from svagen.backends import ChatBackend
from svagen.bank import (
    InformationBank,
    StageError,
    analyze_signal,
    analyze_waveform,
    build_workflow_info,
    load_bank,
    map_signals,
    save_bank,
)
from svagen.config import ConfigError, RunConfig
from svagen.prompts import PromptTemplate
from svagen.rag import DEFAULT_DIMENSION, HashedBowEmbedder, VectorIndex, format_context
from svagen.sva.checker import (
    AssertionRecord,
    MemoChecker,
    SyntaxChecker,
    format_log,
    partition,
)
from svagen.tree import AnswerContent, ReasoningTree


class BudgetExceededError(RuntimeError):
    """A per-signal call would overdraw the budget; indicates an
    orchestration bug since every optional call is guarded."""


class RolloutAborted(RuntimeError):
    """The current rollout could not complete (score parse failed twice or
    no budget for the retry); the tree so far is kept."""


class CallLedger:
    """Thread-safe call accounting.

    Stage-1 analyzer calls are tracked per role at design level; stage-2/3
    calls are tracked per signal and capped at max_per_signal, matching the
    per-signal budget 2 + 4*n_rollouts + 2.
    """

    def __init__(self, max_per_signal: int) -> None:
        self.max_per_signal = max_per_signal
        self._stage1: Counter[str] = Counter()
        self._per_signal: dict[str, Counter[str]] = {}
        self._lock = threading.Lock()

    def charge_stage1(self, role: str) -> None:
        with self._lock:
            self._stage1[role] += 1

    def charge(self, signal: str, role: str) -> None:
        with self._lock:
            counter = self._per_signal.setdefault(signal, Counter())
            if sum(counter.values()) + 1 > self.max_per_signal:
                raise BudgetExceededError(
                    f"signal {signal!r} would exceed {self.max_per_signal} calls"
                )
            counter[role] += 1

    def can_charge(self, signal: str, n: int = 1) -> bool:
        with self._lock:
            counter = self._per_signal.get(signal, Counter())
            return sum(counter.values()) + n <= self.max_per_signal

    def signal_total(self, signal: str) -> int:
        with self._lock:
            return sum(self._per_signal.get(signal, Counter()).values())

    def signal_slice(self, signal: str) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._per_signal.get(signal, Counter()).items()))

    def stage1_total(self) -> int:
        with self._lock:
            return sum(self._stage1.values())

    def total_calls(self) -> int:
        with self._lock:
            return sum(self._stage1.values()) + sum(
                sum(c.values()) for c in self._per_signal.values()
            )

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "max_per_signal": self.max_per_signal,
                "stage1": dict(sorted(self._stage1.items())),
                "signals": {
                    name: dict(sorted(counter.items()))
                    for name, counter in sorted(self._per_signal.items())
                },
                "total_calls": sum(self._stage1.values())
                + sum(sum(c.values()) for c in self._per_signal.values()),
            }


@dataclass
class Stage2Result:
    tree: ReasoningTree
    warnings: list[str] = field(default_factory=list)
    # every scored critic call, for post-hoc review: feedback is not fed
    # forward during evaluation but it is kept in the run artifacts
    critiques: list[dict] = field(default_factory=list)


@dataclass
class SignalRunResult:
    signal: str
    tree: ReasoningTree | None = None
    a1: list[str] = field(default_factory=list)
    a2: list[str] = field(default_factory=list)
    a2_prime: list[str] = field(default_factory=list)
    a3: list[str] = field(default_factory=list)
    deduplicated: list[str] = field(default_factory=list)
    syntax_log: str = ""
    critiques: list[dict] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    total_calls: int = 0
    warnings: list[str] = field(default_factory=list)
    failed: bool = False
    error: str | None = None

    def stage3_dict(self) -> dict:
        return {
            "a1": self.a1,
            "a2": self.a2,
            "a2_prime": self.a2_prime,
            "a3": self.a3,
            "deduplicated": self.deduplicated,
            "warnings": self.warnings,
        }


# --------------------------------------------------------------------------
# Stage 1


def run_stage1(
    config: RunConfig,
    backend: ChatBackend,
    spec_text: str,
    verilog_decls: str,
    waveform_texts: list[str],
    ledger: CallLedger,
    design_summary: str = "",
    templates: dict[str, PromptTemplate] | None = None,
) -> tuple[InformationBank, list[str]]:
    """Build and persist the information bank; returns (bank, warnings).

    One backend call is charged per mapper invocation, per signal analysis
    and per waveform analysis. A signal whose analysis fails is dropped with
    a warning; zero mapped signals aborts the stage.
    """
    warnings: list[str] = []
    ledger.charge_stage1("signal_mapper")
    pairs, map_warnings = map_signals(backend, spec_text, verilog_decls, templates)
    warnings += map_warnings

    signals = []
    for name, description in pairs:
        ledger.charge_stage1("spec_analyzer")
        try:
            info = analyze_signal(backend, spec_text, name, templates)
        except StageError as err:
            warnings.append(f"signal {name!r} dropped: {err}")
            continue
        if not info.description:
            info.description = description
        signals.append(info)
    if not signals:
        raise StageError("no signal survived specification analysis")

    waveforms = []
    for waveform_text in waveform_texts:
        ledger.charge_stage1("waveform_analyzer")
        summary, wf_warnings = analyze_waveform(backend, spec_text, waveform_text, templates)
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
    backend: ChatBackend,
    bank: InformationBank,
    signal_name: str,
    ledger: CallLedger,
    checker: SyntaxChecker,
    rag_index: VectorIndex | None = None,
    embedder=None,
    templates: dict[str, PromptTemplate] | None = None,
) -> Stage2Result:
    """Grow the reasoning tree for one signal.

    Schedule per rollout (4 calls): re-sample the selected node's score,
    critic feedback for expansion, refinement, evaluation of the new node.
    Plus 2 calls up front for the weak root and its evaluation. A score
    parse failure is retried once (budget permitting), then the rollout is
    aborted and the partial tree kept.

    Retrieval runs once per signal: its query text depends only on the
    signal, so the first rollout to reach the refine step queries
    `rag_index` and later rollouts reuse the context.
    """
    try:
        signal = bank.signal(signal_name)
    except KeyError as err:
        raise StageError(str(err)) from err
    params = config.search
    workflow = bank.workflow_info
    excerpt = signal.describe()
    warnings: list[str] = []
    critiques: list[dict] = []
    if embedder is None and rag_index is not None:
        # queries embed in the index's dimension; an index with no chunks has none yet
        embedder = HashedBowEmbedder(rag_index.dimension or DEFAULT_DIMENSION)
    rag_context: str | None = None  # set at the first refine step

    def scored_critique(node_id: int, phase: str, answer: AnswerContent, syntax_log: str):
        def one_call():
            ledger.charge(signal_name, "critic")
            return critique(
                backend, signal, excerpt, answer, syntax_log, params, workflow, templates
            )

        try:
            result = one_call()
        except ScoreParseError as err:
            if not ledger.can_charge(signal_name):
                raise RolloutAborted(
                    f"critic score unparseable and no budget left to retry: {err}"
                ) from err
            try:
                result = one_call()
            except ScoreParseError as err2:
                raise RolloutAborted(f"critic score unparseable twice: {err2}") from err2
        critiques.append(
            {
                "node": node_id,
                "phase": phase,
                "raw_score": result.raw_score,
                "suppressed_score": result.suppressed_score,
                "feedback": result.feedback,
            }
        )
        return result

    def evaluate(node_id: int, phase: str) -> None:
        node = tree.node(node_id)
        records = [AssertionRecord(text=t, signal=signal_name) for t in node.answer.assertions]
        for record in records:
            record.apply_check(checker.check(record.text))
        node.answer.syntax_log = format_log(records)
        result = scored_critique(node_id, phase, node.answer, node.answer.syntax_log)
        tree.record_reward(node_id, result.suppressed_score, params)
        tree.backpropagate(node_id)

    # initial node: weak answer + its evaluation (2 calls)
    ledger.charge(signal_name, "sva")
    root_answer = generate_weak_answer(backend, signal, workflow, templates)
    tree = ReasoningTree(signal_name, root_answer)
    try:
        evaluate(tree.root, "root-evaluation")
    except RolloutAborted as err:
        warnings.append(f"root evaluation failed, search skipped: {err}")
        return Stage2Result(tree, warnings, critiques)

    for rollout in range(1, params.n_rollouts + 1):
        try:
            # phase 1: selection + reward re-sampling
            selected_id = tree.select_node(params)
            selected = tree.node(selected_id)
            # set by evaluate() before its critic call, so every node has one
            selected_log = selected.answer.syntax_log
            resample = scored_critique(selected_id, "resample", selected.answer, selected_log)
            tree.record_reward(selected_id, resample.suppressed_score, params)
            tree.backpropagate(selected_id)

            # phase 2: expansion: critic feedback on the stored syntax log, then refine
            feedback = scored_critique(
                selected_id, "expansion-feedback", selected.answer, selected_log
            )
            if rag_context is None:
                hits = []
                if rag_index is not None:
                    hits = rag_index.query(
                        f"{signal.verilog_name} {signal.description}", config.rag.k, embedder
                    )
                    if not hits:
                        warnings.append("rag index is empty; refining without reference context")
                rag_context = format_context(hits)
            ledger.charge(signal_name, "sva")
            new_answer = refine(
                backend,
                signal,
                selected.answer,
                feedback.feedback,
                selected_log,
                rag_context,
                workflow,
                templates,
            )
            if not new_answer.assertions:
                warnings.append(f"rollout {rollout} refinement produced no assertions")
            child_id = tree.add_child(selected_id, new_answer)

            # phase 3 + 4: evaluation of the new node, backpropagation
            evaluate(child_id, "evaluation")
            tree.rollouts_completed = rollout
        except RolloutAborted as err:
            warnings.append(f"rollout {rollout} aborted: {err}")
            break

        if config.early_stop and _early_stop_reached(tree, checker, config):
            warnings.append(
                f"early stop after rollout {rollout}: best node passes all syntax checks"
            )
            break

    return Stage2Result(tree, warnings, critiques)


def _early_stop_reached(tree: ReasoningTree, checker: SyntaxChecker, config: RunConfig) -> bool:
    """Stop when the best-Q node's assertions all pass syntax and its latest
    suppressed score clears the bar (so a trivially small correct set does
    not end the search)."""
    best = None
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        if node.evaluated and (best is None or node.q_value > best.q_value):
            best = node
    if best is None or not best.answer.assertions:
        return False
    if best.reward_samples[-1] < config.early_stop_score:
        return False
    for text in best.answer.assertions:
        if any(d.severity == "error" for d in checker.check(text)):
            return False
    return True


# --------------------------------------------------------------------------
# Stage 3


def pool_assertions(tree: ReasoningTree) -> list[tuple[str, int]]:
    """All (assertion, node_id) pairs over the tree in node-id order, with
    normalized duplicates merged (first spelling wins)."""
    seen: set[str] = set()
    pooled: list[tuple[str, int]] = []
    for node_id in sorted(tree.nodes):
        for text in tree.nodes[node_id].answer.assertions:
            key = normalize_assertion(text)
            if key and key not in seen:
                seen.add(key)
                pooled.append((text, node_id))
    return pooled


def run_stage3(
    config: RunConfig,
    backend: ChatBackend,
    tree: ReasoningTree,
    bank: InformationBank,
    signal_name: str,
    ledger: CallLedger,
    checker: SyntaxChecker,
    templates: dict[str, PromptTemplate] | None = None,
) -> SignalRunResult:
    """Combine all tree nodes into the final assertion set.

    At most two calls: syntax correction (skipped when nothing failed) and
    deduplication (skipped for pools of one or fewer). Corrected texts are
    re-checked; still-failing ones are dropped with a warning.
    """
    signal = bank.signal(signal_name)
    excerpt = signal.describe()
    warnings: list[str] = []

    records = [
        AssertionRecord(text=text, signal=signal_name, node_id=node_id)
        for text, node_id in pool_assertions(tree)
    ]
    a1_records, a2_records = partition(records, checker)
    syntax_log = format_log(records)
    a1 = [r.text for r in a1_records]
    a2 = [r.text for r in a2_records]

    a2_prime: list[str] = []
    if a2_records:
        if ledger.can_charge(signal_name):
            ledger.charge(signal_name, "syntax_correction")
            corrected = correct_syntax(backend, a2_records, excerpt, signal_name, templates)
            for text in corrected:
                if any(d.severity == "error" for d in checker.check(text)):
                    warnings.append(
                        f"corrected assertion still fails the checker, dropped: {text[:60]!r}"
                    )
                else:
                    a2_prime.append(text)
        else:
            warnings.append("syntax correction skipped: per-signal call budget exhausted")

    a3 = a1 + a2_prime
    dedup_input = merge_normalized(a3)
    if len(dedup_input) <= 1:
        deduplicated = dedup_input
    elif ledger.can_charge(signal_name):
        ledger.charge(signal_name, "deduplication")
        deduplicated, dedup_warnings = deduplicate(
            backend, dedup_input, excerpt, signal_name, templates
        )
        warnings += dedup_warnings
    else:
        deduplicated = dedup_input
        warnings.append("deduplication skipped: per-signal call budget exhausted")

    return SignalRunResult(
        signal=signal_name,
        tree=tree,
        a1=a1,
        a2=a2,
        a2_prime=a2_prime,
        a3=a3,
        deduplicated=deduplicated,
        syntax_log=syntax_log,
        calls=ledger.signal_slice(signal_name),
        total_calls=ledger.signal_total(signal_name),
        warnings=warnings,
    )


# --------------------------------------------------------------------------
# Full pipeline


@dataclass
class RunSummary:
    design_name: str
    results: list[SignalRunResult]
    ledger: CallLedger
    max_api_calls: int
    stage1_warnings: list[str] = field(default_factory=list)

    @property
    def failed_signals(self) -> list[str]:
        return [r.signal for r in self.results if r.failed]

    def to_dict(self) -> dict:
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
                for r in sorted(self.results, key=lambda r: r.signal)
            },
            "totals": {
                "signals": len(self.results),
                "assertions": sum(len(r.deduplicated) for r in self.results),
                "failed_signals": len(self.failed_signals),
                "max_api_calls": self.max_api_calls,
                "total_llm_calls": self.ledger.total_calls(),
                "stage1_calls": self.ledger.stage1_total(),
            },
            "stage1_warnings": self.stage1_warnings,
            "ledger": self.ledger.to_dict(),
        }


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as err:
        raise StageError(f"cannot read {what} file {path!r}: {err}") from err


def build_bank(
    config: RunConfig,
    backend: ChatBackend,
    ledger: CallLedger,
    templates: dict[str, PromptTemplate] | None = None,
) -> tuple[InformationBank, list[str]]:
    """Stage 1 from the input files named in config.paths (specification,
    Verilog declarations, waveforms, design summary); StageError before any
    call when a required path is unset or a file cannot be read."""
    paths = config.paths
    if not paths.spec_file or not paths.verilog_file:
        raise StageError("stage 1 needs paths.spec_file and paths.verilog_file")
    spec_text = _read(paths.spec_file, "specification")
    verilog_decls = _read(paths.verilog_file, "Verilog declarations")
    waveform_texts = [_read(p, "waveform") for p in paths.waveform_files]
    design_summary = (
        _read(paths.design_summary_file, "design summary") if paths.design_summary_file else ""
    )
    return run_stage1(
        config, backend, spec_text, verilog_decls, waveform_texts, ledger,
        design_summary, templates,
    )


def run_signal(
    config: RunConfig,
    backend: ChatBackend,
    bank: InformationBank,
    signal_name: str,
    ledger: CallLedger,
    checker: SyntaxChecker,
    rag_index: VectorIndex | None = None,
    templates: dict[str, PromptTemplate] | None = None,
) -> SignalRunResult:
    """Stages 2 and 3 for one signal; failures are captured, not raised."""
    stage2: Stage2Result | None = None
    try:
        stage2 = run_stage2(
            config, backend, bank, signal_name, ledger, checker, rag_index,
            templates=templates,
        )
        result = run_stage3(
            config, backend, stage2.tree, bank, signal_name, ledger, checker, templates
        )
        result.warnings = stage2.warnings + result.warnings
        result.critiques = stage2.critiques
        return result
    except Exception as err:  # isolation: one signal's failure never spreads
        return SignalRunResult(
            signal=signal_name,
            tree=stage2.tree if stage2 is not None else None,
            critiques=stage2.critiques if stage2 is not None else [],
            calls=ledger.signal_slice(signal_name),
            total_calls=ledger.signal_total(signal_name),
            failed=True,
            error=f"{type(err).__name__}: {err}",
        )


def run_all(
    config: RunConfig,
    backend: ChatBackend | None = None,
    checker: SyntaxChecker | None = None,
    only_signal: str | None = None,
) -> RunSummary:
    """Run the full pipeline and write run artifacts.

    Stage 1 is skipped when the configured bank file already exists
    (resumability); stages 2-3 run per signal, in parallel up to
    config.parallel. Per-signal failures are isolated and reported in the
    summary. The checker is memoized for this run only: each distinct
    assertion text is checked once. The retrieval index is loaded first: a
    file that `VectorIndex.load` rejects raises ConfigError before any call.
    """
    backend = backend if backend is not None else config.make_backend()
    checker = MemoChecker(checker if checker is not None else config.make_checker())
    templates = config.load_templates()
    ledger = CallLedger(config.max_api_calls_per_signal)

    rag_index = None  # loaded before stage 1, so a bad file costs no call
    if config.rag.index_path and os.path.exists(config.rag.index_path):
        try:
            rag_index = VectorIndex.load(config.rag.index_path)
        except ValueError as err:
            raise ConfigError(
                f"cannot use rag index {config.rag.index_path}: {err}; "
                "rebuild it with `svagen rag build`"
            ) from err

    stage1_warnings: list[str] = []
    if os.path.exists(config.paths.bank_file):
        bank = load_bank(config.paths.bank_file)
    else:
        bank, stage1_warnings = build_bank(config, backend, ledger, templates)

    signal_names = [s.verilog_name for s in bank.signals]
    if only_signal is not None:
        if only_signal not in signal_names:
            raise StageError(f"signal {only_signal!r} not present in the bank")
        signal_names = [only_signal]

    def work(name: str) -> SignalRunResult:
        return run_signal(config, backend, bank, name, ledger, checker, rag_index, templates)

    if config.parallel > 1:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            results = list(pool.map(work, signal_names))
    else:
        results = [work(name) for name in signal_names]

    summary = RunSummary(
        design_name=config.design_name,
        results=results,
        ledger=ledger,
        max_api_calls=len(signal_names) * config.max_api_calls_per_signal,
        stage1_warnings=stage1_warnings,
    )
    write_artifacts(config.paths.output_dir, summary)
    return summary


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_artifacts(output_dir: str, summary: RunSummary) -> None:
    """One directory per signal (tree dump, stage-3 lists, syntax log,
    ledger slice) plus a design-level summary file. Layout and field names
    are fixed so runs are diffable."""
    os.makedirs(output_dir, exist_ok=True)
    for result in summary.results:
        signal_dir = os.path.join(output_dir, "signals", result.signal)
        os.makedirs(signal_dir, exist_ok=True)
        if result.tree is not None:
            with open(os.path.join(signal_dir, "tree.json"), "w", encoding="utf-8") as f:
                f.write(result.tree.dumps())
        _dump_json(os.path.join(signal_dir, "stage3.json"), result.stage3_dict())
        _dump_json(os.path.join(signal_dir, "critiques.json"), {"critiques": result.critiques})
        _dump_json(
            os.path.join(signal_dir, "ledger.json"),
            {"calls": result.calls, "total": result.total_calls},
        )
        with open(os.path.join(signal_dir, "syntax_log.txt"), "w", encoding="utf-8") as f:
            f.write(result.syntax_log)
            if result.syntax_log:
                f.write("\n")
    _dump_json(os.path.join(output_dir, "summary.json"), summary.to_dict())
