"""Command-line interface.

Subcommands: `bank build`, `rag build`, `run`, `check`, `tree show`.
Exit codes: 0 success, 1 when per-signal failures occurred, 2 for
configuration or stage errors.
"""

from __future__ import annotations

import argparse
import sys

from svagen.agents import split_assertion_units
from svagen.bank import BankLoadError, StageError
from svagen.config import (
    ConfigError,
    RunConfig,
    default_call_budget,
    load_config,
    replace_search,
)
from svagen.pipeline import CallLedger, run_all, run_stage1
from svagen.rag import HashedBowEmbedder, build_index_from_dir
from svagen.sva.checker import AssertionRecord, BuiltinChecker, format_log
from svagen.tree import ReasoningTree


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svagen",
        description="Signal-wise SystemVerilog assertion generation via tree self-refine search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bank = sub.add_parser("bank", help="information bank operations")
    bank_sub = bank.add_subparsers(dest="bank_command", required=True)
    bank_build = bank_sub.add_parser("build", help="build the signal-wise information bank")
    bank_build.add_argument("--config", help="JSON config file")
    bank_build.add_argument("--spec", help="specification text file")
    bank_build.add_argument("--verilog", help="Verilog declarations file")
    bank_build.add_argument("--waveform", action="append", default=[], help="waveform text file (repeatable)")
    bank_build.add_argument("--design-summary", help="architecture/design summary text file")
    bank_build.add_argument("--out", help="bank file path (overrides config)")

    rag = sub.add_parser("rag", help="retrieval index operations")
    rag_sub = rag.add_subparsers(dest="rag_command", required=True)
    rag_build = rag_sub.add_parser("build", help="index a directory of reference texts")
    rag_build.add_argument("directory", help="directory of .txt/.md reference files")
    rag_build.add_argument("--out", required=True, help="index file to write")
    rag_build.add_argument("--chunk-size", type=int, default=1200)
    rag_build.add_argument("--chunk-overlap", type=int, default=200)
    rag_build.add_argument("--dimension", type=int, default=512)

    run = sub.add_parser("run", help="run the full pipeline")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--signal", help="run stages 2-3 for this signal only")
    run.add_argument("--rollouts", type=int, help="override search.n_rollouts")
    run.add_argument("--c", type=float, dest="c_value", help="override exploration constant")
    run.add_argument("--epsilon", type=float, help="override UCT epsilon")
    run.add_argument("--score-cap", type=float, help="override score suppression cap")
    run.add_argument("--checker", choices=("builtin", "external"), help="override checker kind")
    run.add_argument("--parallel", type=int, help="signals processed concurrently")
    run.add_argument("--no-early-stop", action="store_true", help="disable early stopping")
    run.add_argument("--output", help="override output directory")

    check = sub.add_parser("check", help="run the built-in SVA linter on a file")
    check.add_argument("file", help="file holding one or more assertion units")

    tree = sub.add_parser("tree", help="tree artifact operations")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)
    tree_show = tree_sub.add_parser("show", help="pretty-print a tree dump")
    tree_show.add_argument("artifact", help="tree.json produced by a run")

    return parser


def _apply_run_overrides(config: RunConfig, args: argparse.Namespace) -> None:
    search_overrides = {
        name: value
        for name, value in (
            ("n_rollouts", args.rollouts),
            ("c", args.c_value),
            ("epsilon", args.epsilon),
            ("score_cap", args.score_cap),
        )
        if value is not None
    }
    config.search = replace_search(config.search, **search_overrides)
    if args.rollouts is not None:
        config.max_api_calls_per_signal = default_call_budget(args.rollouts)
    if args.checker is not None:
        config.checker.kind = args.checker
    if args.parallel is not None:
        config.parallel = args.parallel
    if args.no_early_stop:
        config.early_stop = False
    if args.output is not None:
        config.paths.output_dir = args.output


def _cmd_bank_build(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    if args.spec:
        config.paths.spec_file = args.spec
    if args.verilog:
        config.paths.verilog_file = args.verilog
    if args.waveform:
        config.paths.waveform_files = args.waveform
    if args.design_summary:
        config.paths.design_summary_file = args.design_summary
    if args.out:
        config.paths.bank_file = args.out
    paths = config.paths
    if not paths.spec_file or not paths.verilog_file:
        raise ConfigError("bank build needs --spec and --verilog (or config paths)")

    def read(path: str) -> str:
        with open(path, encoding="utf-8") as f:
            return f.read()

    backend = config.make_backend()
    ledger = CallLedger(config.max_api_calls_per_signal)
    bank, warnings = run_stage1(
        config,
        backend,
        read(paths.spec_file),
        read(paths.verilog_file),
        [read(p) for p in paths.waveform_files],
        ledger,
        read(paths.design_summary_file) if paths.design_summary_file else "",
        config.load_templates(),
    )
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"bank written to {paths.bank_file}: {len(bank.signals)} signals, "
        f"{len(bank.waveforms)} waveforms, {ledger.stage1_total()} calls"
    )
    return 0


def _cmd_rag_build(args: argparse.Namespace) -> int:
    embedder = HashedBowEmbedder(dimension=args.dimension)
    index = build_index_from_dir(
        args.directory, embedder, args.chunk_size, args.chunk_overlap
    )
    index.save(args.out)
    print(f"index written to {args.out}: {len(index)} chunks, dimension {index.dimension}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_run_overrides(config, args)
    summary = run_all(config, only_signal=args.signal)
    totals = summary.to_dict()["totals"]
    print(
        f"{summary.design_name}: {totals['assertions']} assertions over "
        f"{totals['signals']} signals, {totals['total_llm_calls']} LLM calls "
        f"(budget {totals['max_api_calls']}), artifacts in {config.paths.output_dir}"
    )
    for result in summary.results:
        status = "FAILED" if result.failed else f"{len(result.deduplicated)} assertions"
        print(f"  {result.signal}: {status}")
    return 1 if summary.failed_signals else 0


def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.file, encoding="utf-8") as f:
        source = f.read()
    unit_texts = split_assertion_units(source)
    if not unit_texts and source.strip():
        unit_texts = [source]
    checker = BuiltinChecker()
    records = [AssertionRecord(text=t) for t in unit_texts]
    for record in records:
        record.apply_check(checker.check(record.text))
    print(format_log(records))
    return 0 if all(r.status == "pass" for r in records) else 1


def _render_tree(tree: ReasoningTree) -> str:
    lines = [
        f"signal: {tree.signal_name}  nodes: {len(tree)}  rollouts: {tree.rollouts_completed}"
    ]

    def walk(node_id: int, depth: int) -> None:
        node = tree.nodes[node_id]
        samples = ", ".join(f"{s:g}" for s in node.reward_samples)
        lines.append(
            f"{'  ' * depth}[{node.id}] Q={node.q_value:g} N={node.visit_count} "
            f"assertions={len(node.answer.assertions)} rewards=[{samples}]"
        )
        for child in node.children:
            walk(child, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines)


def _cmd_tree_show(args: argparse.Namespace) -> int:
    with open(args.artifact, encoding="utf-8") as f:
        tree = ReasoningTree.loads(f.read())
    print(_render_tree(tree))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bank":
            return _cmd_bank_build(args)
        if args.command == "rag":
            return _cmd_rag_build(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "tree":
            return _cmd_tree_show(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, StageError, BankLoadError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
