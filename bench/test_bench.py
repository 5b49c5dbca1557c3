"""Tests of the benchmark's own code. Run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import os
import random
import threading

import pytest

import run_bench
from latency import LatencyBackend, serial_depth
from spans import Span, Target, Tracer, self_times
from workloads import (
    WORKLOADS,
    assertion_unit,
    correction_key,
    dedup_key,
    generate,
    invalid_unit,
    signal_of,
    stage2_key,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree(directory: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, directory)] = f.read()
    return out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    generate(workload, 7, str(tmp_path / "a"))
    generate(workload, 7, str(tmp_path / "b"))
    generate(workload, 8, str(tmp_path / "c"))
    a, b, c = (_tree(str(tmp_path / d)) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_plan_work_does_not_depend_on_seed(tmp_path, workload):
    def shape(seed):
        plan = generate(workload, seed, str(tmp_path / str(seed)))
        return sorted((p.rollouts, p.correction, len(p.final)) for p in plan.signals.values())

    assert shape(1) == shape(2)


def test_generated_units_pass_the_checker_and_the_invalid_one_fails():
    from svagen.sva.checker import BuiltinChecker

    checker = BuiltinChecker()
    rng = random.Random(0)
    names = ["req00_i", "ack01_o", "cnt02_q"]

    def errors(text):
        return [d for d in checker.check(text) if d.severity == "error"]

    for i in range(300):
        unit = assertion_unit(rng, names, f"u{i}")
        assert not errors(unit), unit
    for _ in range(20):
        assert errors(invalid_unit(rng, names))


def test_script_keys_match_rendered_prompts():
    from svagen.prompts import DEFAULT_TEMPLATES, render_prompt

    name = "gnt07_q"
    context = {
        "workflow_info": "[Signal Mapping]\ngnt07_q: grant\nack01_o: ack",
        "signal_name": name,
        "specification_text": "spec",
        "assertions": "a",
        "syntax_log": "",
        "feedback": "",
        "rag_context": "",
    }
    for template, key in (
        ("critic", stage2_key(name)),
        ("sva_weak", stage2_key(name)),
        ("sva_refine", stage2_key(name)),
        ("syntax_correction", correction_key(name)),
        ("deduplication", dedup_key(name)),
    ):
        prompt = "\n".join(m["content"] for m in render_prompt(DEFAULT_TEMPLATES[template], context))
        assert key in prompt
        assert signal_of(prompt) == name
    stage1 = render_prompt(
        DEFAULT_TEMPLATES["spec_analyzer"], {"specification_text": "spec", "signal_name": name}
    )
    assert signal_of("\n".join(m["content"] for m in stage1)) is None


def test_serial_depth_on_overlapping_calls():
    assert serial_depth([]) == 0
    assert serial_depth([(0, 1), (1, 2), (2, 3)]) == 3
    # (1, 4) overlaps (0, 2); (3, 5) starts before (1, 4) returns; (6, 7) waits
    assert serial_depth([(3, 5), (0, 2), (1, 4), (6, 7)]) == 2
    # a short call inside a long one does not end the long one's level
    assert serial_depth([(0, 10), (1, 2), (3, 4), (10, 11)]) == 2


def test_latency_backend_counts_and_overlaps_parallel_calls():
    class Echo:
        def complete(self, messages):
            return "reply"

    backend = LatencyBackend(Echo(), 0.05, signal_of)
    prompts = [f"Signal name: s{i}\nbody" for i in range(2)]
    threads = [
        threading.Thread(target=backend.complete, args=([{"role": "user", "content": p}],))
        for p in prompts
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    records = sorted(backend.records, key=lambda r: r.signal)
    assert [r.signal for r in records] == ["s0", "s1"]
    assert [r.reply_chars for r in records] == [5, 5]
    assert records[0].prompt_chars == len(prompts[0])
    # the two sleeps overlap, so across signals they form one level
    assert serial_depth([(r.start, r.end) for r in records]) == 1


def test_self_times_on_nested_spans():
    spans = [
        Span(0, "pipeline.design", 0.0, 10.0, None, None),
        Span(1, "pipeline.signal", 1.0, 6.0, 0, "a"),
        Span(2, "pipeline.signal", 4.0, 9.0, 0, "b"),  # overlaps span 1
        Span(3, "sva.check", 2.0, 3.0, 1, "a"),
        Span(4, "sva.parse", 2.25, 2.75, 3, "a"),
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 2.0, 1: 4.0, 2: 5.0, 3: 0.5, 4: 0.5})


def test_tracer_nests_across_threads_and_shares_signal_ids():
    class Work:
        def outer(self, name):
            return self.inner()

        def inner(self):
            return 1

    tracer = Tracer()
    targets = [
        Target(Work, "outer", "pipeline.signal", signal_arg=1),
        Target(Work, "inner", "sva.check"),
    ]
    with tracer.installed(targets):
        with tracer.root("pipeline.design"):
            threads = [threading.Thread(target=Work().outer, args=(n,)) for n in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=5)
                assert not t.is_alive()
    assert Work.outer.__name__ == "outer"  # restored
    by_id = {s.id: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s.name == "pipeline.design")
    signals = [s for s in tracer.spans if s.name == "pipeline.signal"]
    checks = [s for s in tracer.spans if s.name == "sva.check"]
    assert sorted(s.signal for s in signals) == ["a", "b"]
    assert all(s.parent == root.id for s in signals)
    assert all(by_id[c.parent].signal == c.signal for c in checks)
    assert sum(self_times(tracer.spans).values()) >= root.end - root.start - 1e-9


def test_tracer_counts_errors_and_keeps_arguments():
    class Thing:
        def check(self, text):
            if text == "bad":
                raise ValueError(text)
            return text

    tracer = Tracer()
    with tracer.installed([Target(Thing, "check", "sva.check", keep_arg=1)]):
        Thing().check("ok")
        with pytest.raises(ValueError):
            Thing().check("bad")
    assert tracer.errors["sva.check"] == 1
    assert tracer.kept["sva.check"] == ["ok", "bad"]
    assert len(tracer.spans) == 2


def test_high_percentile_needs_ten_samples_beyond():
    assert run_bench.high_percentile(list(range(15))) is None
    p, value = run_bench.high_percentile([float(i) for i in range(100)])
    assert p == 90 and value == 89.0


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in run_bench.PER_LAYER.items()
    }
