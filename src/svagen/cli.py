"""Command-line interface.

Subcommands: `bank build`, `rag build`, `run`, `check`, `tree show`.
Exit codes: 0 success, 1 when per-signal failures occurred, 2 for
configuration, input, backend or stage errors.
"""

from __future__ import annotations

import argparse
import sys

from svagen import read_text
from svagen.agents import split_assertion_units
from svagen.backends import BackendError
from svagen.bank import BankLoadError, StageError
from svagen.config import ConfigError, RagSettings, config_from_dict, load_config
from svagen.pipeline import SignalRecord, build_bank, run_all
from svagen.prompts import CallLog
from svagen.records import load
from svagen.sva.checker import BuiltinChecker, check_all, format_log
from svagen.tree import ReasoningTree, TreeError


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
    bank_build.add_argument("--waveform", action="append", help="waveform text file (repeatable)")
    bank_build.add_argument("--design-summary", help="architecture/design summary text file")
    bank_build.add_argument("--out", help="bank file path (overrides config)")

    rag = sub.add_parser("rag", help="retrieval index operations")
    rag_sub = rag.add_subparsers(dest="rag_command", required=True)
    rag_build = rag_sub.add_parser("build", help="index a directory of reference texts")
    rag_build.add_argument("directory", help="directory of .txt/.md reference files")
    rag_build.add_argument("--out", required=True, help="index file to write")
    rag_build.add_argument("--config", help="JSON config file whose rag section sets the chunking")
    rag_build.add_argument("--dimension", type=int, help="embedding dimension")

    run = sub.add_parser("run", help="run the full pipeline")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--signal", help="run stages 2-3 for this signal only")
    run.add_argument("--rollouts", type=int, help="override search.n_rollouts")
    run.add_argument("--c", type=float, dest="c_value", help="override exploration constant")
    run.add_argument("--epsilon", type=float, help="override UCT epsilon")
    run.add_argument("--score-cap", type=float, help="override score suppression cap")
    run.add_argument("--checker", choices=("builtin", "external"), help="override checker kind")
    run.add_argument(
        "--parallel",
        type=int,
        help="concurrent signals in stages 2-3, and concurrent analyses in stage 1",
    )
    run.add_argument("--no-early-stop", action="store_true", help="disable early stopping")
    run.add_argument("--output", help="override output directory")

    check = sub.add_parser("check", help="run the built-in SVA linter on a file")
    check.add_argument("file", help="file holding one or more assertion units")

    tree = sub.add_parser("tree", help="tree artifact operations")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)
    tree_show = tree_sub.add_parser("show", help="pretty-print a signal's reasoning tree")
    tree_show.add_argument("artifact", help="signal record signals/<name>.json written by a run")

    return parser


def _set(**flags) -> dict:
    """The flags given on the command line, as config keys."""
    return {key: value for key, value in flags.items() if value is not None}


def _cmd_bank_build(args: argparse.Namespace) -> int:
    paths = _set(
        spec_file=args.spec,
        verilog_file=args.verilog,
        waveform_files=args.waveform,
        design_summary_file=args.design_summary,
        bank_file=args.out,
    )
    config = config_from_dict({"paths": paths}, load_config(args.config) if args.config else None)
    log = CallLog("stage 1", config.make_backend(), config.load_templates())
    bank, warnings = build_bank(config, log)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(
        f"bank written to {config.paths.bank_file}: {len(bank.signals)} signals, "
        f"{len(bank.waveforms)} waveforms, {len(log)} calls"
    )
    return 0


def _cmd_rag_build(args: argparse.Namespace) -> int:
    from svagen.rag import HashedBowEmbedder, build_index_from_dir  # numpy: only here

    rag = load_config(args.config).rag if args.config else RagSettings()
    try:
        embedder = HashedBowEmbedder(**_set(dimension=args.dimension))
    except ValueError as err:
        raise ConfigError(f"--dimension: {err}") from err
    try:
        index = build_index_from_dir(args.directory, embedder, rag.chunk_size, rag.chunk_overlap)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    index.save(args.out)
    print(f"index written to {args.out}: {len(index)} chunks, dimension {index.dimension}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    flags = _set(
        search=_set(
            n_rollouts=args.rollouts, c=args.c_value, epsilon=args.epsilon, score_cap=args.score_cap
        ),
        checker=_set(kind=args.checker),
        paths=_set(output_dir=args.output),
        parallel=args.parallel,
        early_stop=False if args.no_early_stop else None,
    )
    config = config_from_dict(flags, load_config(args.config))
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
    source = read_text(args.file, "assertion", ConfigError)
    records = check_all(split_assertion_units(source) or [source], BuiltinChecker())
    print(format_log(records))
    return 0 if all(r.status == "pass" for r in records) else 1


def _render_tree(tree: ReasoningTree) -> str:
    """One header line, then one line per node in pre-order, indented by
    depth; an explicit stack, so a deep chain does not exhaust Python's."""
    lines = [
        f"signal: {tree.signal_name}  nodes: {len(tree)}  rollouts: {tree.rollouts_completed}"
    ]
    stack = [(tree.root, 0)]
    while stack:
        node_id, depth = stack.pop()
        node = tree.nodes[node_id]
        samples = ", ".join(f"{s:g}" for s in node.reward_samples)
        lines.append(
            f"{'  ' * depth}[{node.id}] Q={node.q_value:g} N={node.visit_count} "
            f"assertions={len(node.answer.assertions)} rewards=[{samples}]"
        )
        stack += [(child, depth + 1) for child in reversed(node.children)]
    return "\n".join(lines)


def _tree_of(record: SignalRecord) -> ReasoningTree:
    try:
        return ReasoningTree.from_record(record.tree)
    except TreeError as err:  # its path is within the tree
        raise TreeError(f"tree.{err}") from err


def _cmd_tree_show(args: argparse.Namespace) -> int:
    print(_render_tree(load(SignalRecord, args.artifact, "signal record", TreeError, _tree_of)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {  # argparse's required subparsers admit no other command
        "bank": _cmd_bank_build,
        "rag": _cmd_rag_build,
        "run": _cmd_run,
        "check": _cmd_check,
        "tree": _cmd_tree_show,
    }[args.command]
    try:
        return command(args)
    except (ConfigError, StageError, BankLoadError, BackendError, TreeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
