"""svagen benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run_bench.py --workload search-cpu --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed under `.bench_work/`, then
for `--seconds` runs `svagen.pipeline.run_all` over the design again and
again (at least twice), one design at a time. Between passes it sets up as
a user would (load_config, and build_index_from_dir plus VectorIndex.save
where the workload has a corpus), so set-up repeats are spread over the
whole run like the passes. Every pass goes through the correctness gate,
and all passes must write byte-identical output trees.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates
untraced and traced passes, and reports the per-layer metrics and the
tracing overhead (traced minus untraced median design_s). The last line
of stdout is one JSON object; the lines before it are a readable report.
The exit code is 1 when the gate finds a violation, 2 on bad arguments or
when the svagen sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

from gate import signal_violations, tree_digest
from latency import LatencyBackend, serial_depth
from spans import Target, Tracer, self_times
from workloads import CONFIG_FILE, WORKLOADS, generate, signal_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Set-up runs before a pass while it has taken at most SETUP_SHARE of the
# run so far; one sample is the mean over a slice of SETUP_SLICE_S, or one
# set-up when that takes longer. The machine's speed drifts over seconds,
# so samples spread over the whole run give a steadier median than a burst
# at the start. At least MIN_SETUPS samples.
SETUP_SHARE = 1 / 3
SETUP_SLICE_S = 0.2
MIN_SETUPS = 3
MIN_PASSES = 2

# name -> (unit, better); the order is the report order
END_TO_END = {
    "setup_s": ("s", "lower"),
    "design_s": ("s", "lower"),
    "llm_calls_per_signal": ("count", "lower"),
    "llm_serial_depth_per_signal": ("count", "lower"),
    "prompt_chars_per_signal": ("chars", "lower"),
    "reply_chars_per_signal": ("chars", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "sva.check_s": ("s", "lower", "design_s: search-cpu most, rag-heavy some, design-live little"),
    "sva.tokenize_s": ("s", "lower", "design_s: search-cpu most, rag-heavy some, design-live little"),
    "sva.parse_s": ("s", "lower", "design_s: search-cpu most, rag-heavy some, design-live little"),
    "sva.check_calls_per_signal": ("count", "lower", "design_s: search-cpu most, rag-heavy some"),
    "sva.distinct_check_ratio": ("ratio", "higher", "design_s: search-cpu most, rag-heavy some"),
    "sva.reject_ratio": ("ratio", "lower", "llm_calls_per_signal: all three"),
    "rag.query_s": ("s", "lower", "design_s: rag-heavy; no change on search-cpu, none on design-live"),
    "rag.query_calls_per_signal": ("count", "lower", "design_s: rag-heavy; no change on search-cpu"),
    "rag.distinct_query_ratio": ("ratio", "higher", "design_s: rag-heavy; no change on search-cpu"),
    "rag.index_load_s": ("s", "lower", "design_s: rag-heavy"),
    "rag.index_build_s": ("s", "lower", "setup_s: rag-heavy"),
    "rag.index_save_s": ("s", "lower", "setup_s: rag-heavy"),
    "backends.wait_s": ("s", "lower", "design_s, llm_serial_depth_per_signal: design-live; 0 elsewhere"),
    "backends.dispatch_s": ("s", "lower", "design_s: search-cpu"),
    "backends.errors": ("count", "lower", "signal failures: all three; 0 at the seed"),
    "pipeline.stage1_s": ("s", "lower", "design_s: design-live only"),
    "pipeline.stage2_s": ("s", "lower", "design_s: all three"),
    "pipeline.stage3_s": ("s", "lower", "design_s: all three"),
    "pipeline.signal_s": ("s", "lower", "design_s: all three (median per signal)"),
    "pipeline.signal_s_high": ("s", "lower", "design_s: all three (highest percentile with 10 samples beyond)"),
    "pipeline.write_artifacts_s": ("s", "lower", "design_s: search-cpu"),
    "prompts.render_s": ("s", "lower", "design_s: a little; size shows in prompt_chars_per_signal"),
    "agents.parse_s": ("s", "lower", "design_s: search-cpu"),
    "agents.normalize_s": ("s", "lower", "design_s: search-cpu"),
    "agents.score_parse_failures": ("count", "lower", "llm_calls_per_signal: all three; 0 at the seed"),
    "tree.update_s": ("s", "lower", "none expected: shows a tree change costs nothing"),
    "tree.nodes_per_signal": ("count", "lower", "none expected: shows a tree change costs nothing"),
    "bank.load_s": ("s", "lower", "design_s: design-live"),
    "bank.analyze_s": ("s", "lower", "design_s: design-live"),
    "config.load_s": ("s", "lower", "setup_s: all three"),
    "sva.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "rag.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "backends.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "pipeline.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "prompts.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "agents.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "tree.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "bank.self_s": ("s", "lower", "design_s: layer share of the traced pass"),
    "trace.design_s": ("s", "lower", "design_s under tracing"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced design_s"),
    "trace.spans_per_pass": ("count", "lower", "tracing cost: spans recorded per traced pass"),
    "trace.self_time_ratio": ("ratio", "higher", "sum of self times / traced design_s: 1 serial, busy threads on design-live"),
}

LAYERS = ("sva", "rag", "backends", "pipeline", "prompts", "agents", "tree", "bank")


def trace_targets() -> list[Target]:
    """Every function the traced run wraps, at the name its callers use."""
    import svagen.agents as agents
    import svagen.bank as bank
    import svagen.pipeline as pipeline
    import svagen.sva.checker as checker
    import svagen.sva.parser as parser
    from svagen.backends import ScriptedBackend
    from svagen.rag import VectorIndex
    from svagen.tree import ReasoningTree

    targets = [
        Target(pipeline, "run_stage1", "pipeline.stage1"),
        Target(pipeline, "run_signal", "pipeline.signal", signal_arg=3),
        Target(pipeline, "run_stage2", "pipeline.stage2"),
        Target(pipeline, "run_stage3", "pipeline.stage3"),
        Target(pipeline, "write_artifacts", "pipeline.write_artifacts"),
        Target(pipeline, "load_bank", "bank.load"),
        Target(pipeline, "save_bank", "bank.save"),
        Target(pipeline, "normalize_assertion", "agents.normalize"),
        Target(agents, "normalize_assertion", "agents.normalize"),
        Target(agents, "parse_answer", "agents.parse"),
        Target(agents, "extract_assertions", "agents.parse"),
        Target(agents, "parse_score", "agents.score"),
        Target(agents, "render_prompt", "prompts.render"),
        Target(bank, "render_prompt", "prompts.render"),
        Target(checker.BuiltinChecker, "check", "sva.check", keep_arg=1),
        Target(checker, "parse_assertion", "sva.parse"),
        Target(parser, "tokenize", "sva.tokenize"),
        Target(VectorIndex, "query", "rag.query", keep_arg=1),
        Target(VectorIndex, "load", "rag.index_load"),
        Target(LatencyBackend, "complete", "backends.complete"),
        Target(LatencyBackend, "wait", "backends.wait"),
        Target(ScriptedBackend, "complete", "backends.dispatch"),
    ]
    targets += [
        Target(pipeline, fn, "bank.analyze")
        for fn in ("map_signals", "analyze_signal", "analyze_waveform")
    ]
    targets += [
        Target(pipeline, fn, f"agents.{fn}")
        for fn in (
            "generate_weak_answer", "critique", "refine", "correct_syntax",
            "deduplicate", "merge_normalized",
        )
    ]
    targets += [
        Target(ReasoningTree, fn, "tree.update")
        for fn in ("select_node", "record_reward", "backpropagate")
    ]
    return targets


# --------------------------------------------------------------------------
# Statistics


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile (nearest rank) with at least ten samples
    above its rank, and its value; None when no percentile above the median
    qualifies."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def describe_timing(samples: list[float]) -> str:
    text = f"median {statistics.median(samples):.6f} s"
    hp = high_percentile(samples)
    if hp is not None:
        text += f", p{hp[0]} {hp[1]:.6f} s"
    return text + f" (n={len(samples)})"


# --------------------------------------------------------------------------
# Set-up and passes


def set_up(plan):
    """The calls a user makes before run_all; returns the config and the
    timings of the calls."""
    from svagen.config import load_config
    from svagen.rag import build_index_from_dir

    t0 = time.perf_counter()
    config = load_config(CONFIG_FILE)
    t1 = t2 = t3 = time.perf_counter()
    if plan.corpus_dir:
        index = build_index_from_dir(
            plan.corpus_dir, size=config.rag.chunk_size, overlap=config.rag.chunk_overlap
        )
        t2 = time.perf_counter()
        index.save(config.rag.index_path)
        t3 = time.perf_counter()
    return config, {
        "setup": t3 - t0,
        "config.load": t1 - t0,
        "rag.index_build": t2 - t1,
        "rag.index_save": t3 - t2,
    }


def set_up_slice(plan):
    """Set up repeatedly for SETUP_SLICE_S (at least once); returns the last
    config and the mean timings."""
    gc.collect()
    began = time.perf_counter()
    sums: dict[str, float] = defaultdict(float)
    n = 0
    while n == 0 or time.perf_counter() - began < SETUP_SLICE_S:
        config, timings = set_up(plan)
        for key, value in timings.items():
            sums[key] += value
        n += 1
    return config, {key: value / n for key, value in sums.items()}


@dataclass
class PassResult:
    seconds: float
    summary: object  # svagen.pipeline.RunSummary
    records: list  # latency.CallRecord per backend call
    digest: str
    tracer: Tracer | None


def run_pass(config, plan, tracer: Tracer | None, targets) -> PassResult:
    from svagen.backends import ScriptedBackend
    from svagen.pipeline import run_all

    if plan.workload.stage1 and os.path.exists(config.paths.bank_file):
        os.remove(config.paths.bank_file)  # else run_all skips stage 1
    if os.path.exists(config.paths.output_dir):
        shutil.rmtree(config.paths.output_dir)
    latency_s = plan.workload.latency_ms / 1000.0
    gc.collect()
    with tracer.installed(targets) if tracer else nullcontext():
        t0 = time.perf_counter()
        with tracer.root("pipeline.design") if tracer else nullcontext():
            backend = LatencyBackend(
                ScriptedBackend.from_file(config.backend.script_path), latency_s, signal_of
            )
            summary = run_all(config, backend)
        t1 = time.perf_counter()
    return PassResult(t1 - t0, summary, backend.records, tree_digest(config.paths.output_dir), tracer)


def gate_pass(p: PassResult, config, plan, checker, normalize) -> list[str]:
    calls = defaultdict(int)
    for r in p.records:
        if r.signal is not None:
            calls[r.signal] += 1
    out = []
    results = {r.signal: r for r in p.summary.results}
    if set(results) != set(plan.signals):
        out.append(f"signals run {sorted(results)} != planned {sorted(plan.signals)}")
    for name, result in results.items():
        if name in plan.signals:
            out += signal_violations(
                result, plan.signals[name], config.max_api_calls_per_signal, calls[name], checker, normalize,
            )
    return out


def call_metrics(p: PassResult, n_signals: int) -> dict[str, float]:
    per_signal = defaultdict(list)
    for r in p.records:
        if r.signal is not None:
            per_signal[r.signal].append(r)
    records = [r for rs in per_signal.values() for r in rs]
    return {
        "llm_calls_per_signal": len(records) / n_signals,
        "llm_serial_depth_per_signal": sum(
            serial_depth([(r.start, r.end) for r in rs]) for rs in per_signal.values()
        ) / n_signals,
        "prompt_chars_per_signal": sum(r.prompt_chars for r in records) / n_signals,
        "reply_chars_per_signal": sum(r.reply_chars for r in records) / n_signals,
    }


def layer_metrics(p: PassResult, n_signals: int) -> tuple[dict[str, float], list[float]]:
    """Per-layer figures of one traced pass, and its per-signal durations."""
    spans = p.tracer.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    layer_self = defaultdict(float)
    for s in spans:
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        count[s.name] += 1
        layer_self[s.layer] += selfs[s.id]
    root = next(s for s in spans if s.name == "pipeline.design")
    design = root.end - root.start
    kept, errors = p.tracer.kept, p.tracer.errors
    results = p.summary.results
    pooled = sum(len(r.a1) + len(r.a2) for r in results)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "sva.check_s": total["sva.check"],
        "sva.tokenize_s": own["sva.tokenize"],
        "sva.parse_s": own["sva.parse"],
        "sva.check_calls_per_signal": count["sva.check"] / n_signals,
        "sva.distinct_check_ratio": ratio(len(set(kept["sva.check"])), count["sva.check"]),
        "sva.reject_ratio": ratio(sum(len(r.a2) for r in results), pooled),
        "rag.query_s": total["rag.query"],
        "rag.query_calls_per_signal": count["rag.query"] / n_signals,
        "rag.distinct_query_ratio": ratio(len(set(kept["rag.query"])), count["rag.query"]),
        "rag.index_load_s": total["rag.index_load"],
        "backends.wait_s": total["backends.wait"],
        "backends.dispatch_s": own["backends.dispatch"],
        "backends.errors": errors["backends.complete"],
        "pipeline.stage1_s": total["pipeline.stage1"],
        "pipeline.stage2_s": total["pipeline.stage2"],
        "pipeline.stage3_s": total["pipeline.stage3"],
        "pipeline.write_artifacts_s": total["pipeline.write_artifacts"],
        "prompts.render_s": own["prompts.render"],
        "agents.parse_s": own["agents.parse"],
        "agents.normalize_s": own["agents.normalize"],
        "agents.score_parse_failures": errors["agents.score"],
        "tree.update_s": own["tree.update"],
        "tree.nodes_per_signal": sum(len(r.tree.nodes) for r in results) / n_signals,
        "bank.load_s": own["bank.load"],
        "bank.analyze_s": own["bank.analyze"],
        "trace.design_s": design,
        "trace.spans_per_pass": len(spans),
        "trace.self_time_ratio": sum(selfs.values()) / design,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    signal_durations = [s.end - s.start for s in spans if s.name == "pipeline.signal"]
    return m, signal_durations


# --------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from svagen.agents import normalize_assertion
    from svagen.sva.checker import BuiltinChecker

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
    cwd = os.getcwd()
    try:
        plan = generate(workload, seed, workdir)
        os.chdir(workdir)  # the generated config uses paths relative to it
        n_signals = len(plan.signals)
        targets = trace_targets() if trace else []
        checker = BuiltinChecker()

        # each pass is checked and reduced to figures at once, so memory
        # does not grow with the number of passes
        setup_reps: list[dict[str, float]] = []
        setup_spent = 0.0
        design_times: list[float] = []
        calls: list[dict[str, float]] = []
        per_pass: list[tuple[dict[str, float], list[float]]] = []
        violations: list[str] = []
        digests: set[str] = set()
        failed = 0

        def check(p: PassResult) -> None:
            nonlocal failed
            found = gate_pass(p, config, plan, checker, normalize_assertion)
            failed += len({v.split(":", 1)[0] for v in found})
            violations.extend(found)
            digests.add(p.digest)

        began = time.perf_counter()
        while len(design_times) < MIN_PASSES or time.perf_counter() - began < seconds:
            if setup_spent <= SETUP_SHARE * (time.perf_counter() - began):
                slice_began = time.perf_counter()
                config, timings = set_up_slice(plan)
                setup_reps.append(timings)
                setup_spent += time.perf_counter() - slice_began
            p = run_pass(config, plan, None, targets)
            check(p)
            design_times.append(p.seconds)
            calls.append(call_metrics(p, n_signals))
            if trace:
                p = run_pass(config, plan, Tracer(), targets)
                check(p)
                per_pass.append(layer_metrics(p, n_signals))
            del p
        while len(setup_reps) < MIN_SETUPS:
            setup_reps.append(set_up_slice(plan)[1])
        if len(digests) != 1:
            violations.append("passes of one seed wrote different output trees")
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it

    setup_times = [r["setup"] for r in setup_reps]
    print(f"workload {workload} seed {seed}: {n_signals} signals, "
          f"{len(design_times)} untraced and {len(per_pass)} traced passes, "
          f"{len(setup_reps)} set-ups")
    print(f"  setup_s: {describe_timing(setup_times)}")
    print(f"  design_s: {describe_timing(design_times)}")
    attempted = n_signals * (len(design_times) + len(per_pass))
    print(f"  signal_failure_rate: {failed / attempted:g} ({failed} of {attempted} signal runs)")
    for v in violations[:20]:
        print(f"  VIOLATION {v}")

    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "design_s": statistics.median(design_times),
            **{k: statistics.median(c[k] for c in calls) for k in calls[0]},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = {k: (END_TO_END[k][0], "") for k in END_TO_END}
    else:
        values = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
        durations = [d for _, ds in per_pass for d in ds]
        values["pipeline.signal_s"] = statistics.median(durations)
        hp = high_percentile(durations)
        values["pipeline.signal_s_high"] = hp[1] if hp else max(durations)
        print(f"  pipeline.signal_s: {describe_timing(durations)}")
        for key in ("config.load", "rag.index_build", "rag.index_save"):
            values[f"{key}_s"] = statistics.median(r[key] for r in setup_reps)
        values["trace.overhead_s"] = values["trace.design_s"] - statistics.median(design_times)
        table = {k: (v[0], v[2]) for k, v in PER_LAYER.items()}

    metrics = {}
    for name, (unit, moves) in table.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name} = {values[name]:.6g} {unit}" + (f"   [moves {moves}]" if moves else ""))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not violations else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "svagen", "pipeline.py")):
        print(f"svagen sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before svagen imports numpy: the workloads'
    # thread counts are the pipeline's own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
