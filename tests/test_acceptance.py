"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line and enforcing
its stated tolerance and runtime budget. Expected values come from
independent oracles computed inside each test (direct formula evaluation,
brute-force scans, bottom-up recurrences), never from the code under test.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import os
import random
import time

import pytest

from svagen.agents import (
    ScoreParseError,
    merge_normalized,
    normalize_assertion,
    parse_score,
    suppress_score,
)
from svagen.backends import ScriptedBackend, ScriptEntry
from svagen.pipeline import run_all, run_stage2, run_stage3
from svagen.rag import HashedBowEmbedder, VectorIndex
from svagen.sva.checker import BuiltinChecker
from svagen.sva.parser import Diagnostic, parse_assertion, parse_units
from svagen.sva.tokens import tokenize
from svagen.tree import AnswerContent, ReasoningNode, ReasoningTree, SearchParams

from conftest import (
    INVALID_ASSERT,
    VALID_BARE_ASSERT,
    VALID_PROPERTY_UNIT,
    config_for,
    dedup_entry,
    fenced,
    full_signal_script,
    make_bank,
    signal_result,
    stage2_script,
)
from sva_corpus import CORPUS, TIMER_INTERRUPT_ASSERTION
from sva_tokens import lexed, tokens


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS: {name}{suffix}")


def test_uct_oracle_suite():
    """20 randomized UCT tuples vs direct formula evaluation, 1e-9 relative."""
    start = time.perf_counter()

    def oracle(q, n, n_father, c, eps):
        return q + c * math.sqrt((math.log(n_father) + 1.0) / (n + eps))

    from svagen.tree import compute_uct

    # the three worked examples
    n1 = ReasoningNode(0, None, AnswerContent(), q_value=50.0, visit_count=1,
                       reward_samples=[50.0])
    assert compute_uct(n1, 2, SearchParams()) == pytest.approx(51.8217, abs=1e-3)
    n2 = ReasoningNode(0, None, AnswerContent(), q_value=30.0, visit_count=4,
                       reward_samples=[30.0])
    assert compute_uct(n2, 6, SearchParams(c=0.0)) == 30.0
    n3 = ReasoningNode(0, None, AnswerContent(), q_value=0.0, visit_count=1,
                       reward_samples=[0.0])
    assert compute_uct(n3, 1, SearchParams()) == pytest.approx(1.4000, abs=1e-3)

    rng = random.Random(20240817)
    for _ in range(20):
        q = rng.uniform(-100, 100)
        n = rng.randint(1, 50)
        n_father = rng.randint(1, 50)
        c = rng.uniform(0, 3)
        eps = 10 ** rng.uniform(-9, -3)
        node = ReasoningNode(0, None, AnswerContent(), q_value=q, visit_count=n,
                             reward_samples=[q] * n)
        params = SearchParams(c=c, epsilon=eps)
        got = compute_uct(node, n_father, params)
        want = oracle(q, n, n_father, c, eps)
        assert got == pytest.approx(want, rel=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("UCT oracle suite", f"23 tuples, {elapsed:.3f}s")


def test_backprop_oracle_suite():
    """100 random trees (<= 8 nodes) vs a bottom-up recurrence on plain dicts."""
    start = time.perf_counter()
    rng = random.Random(97)
    for trial in range(100):
        size = rng.randint(1, 8)
        parents = {0: None}
        tree = ReasoningTree("s", AnswerContent())
        tree.record_reward(0, round(rng.uniform(-100, 100), 3))
        for i in range(1, size):
            parent = rng.randrange(i)
            node_id = tree.add_child(parent, AnswerContent())
            assert node_id == i
            parents[i] = parent
            tree.record_reward(i, round(rng.uniform(-100, 100), 3))
        start_node = rng.randrange(size)

        # independent oracle over plain dicts
        q = {i: tree.nodes[i].q_value for i in tree.nodes}
        children: dict[int, list[int]] = {i: [] for i in tree.nodes}
        for i, p in parents.items():
            if p is not None:
                children[p].append(i)
        a = parents[start_node]
        while a is not None:
            q[a] = 0.5 * (q[a] + max(q[c] for c in children[a]))
            a = parents[a]

        tree.backpropagate(start_node)
        for i in tree.nodes:
            assert tree.nodes[i].q_value == pytest.approx(q[i], rel=1e-12, abs=1e-12)
            assert -100.0 <= tree.nodes[i].q_value <= 100.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("backprop oracle suite", f"100 trees, {elapsed:.3f}s")


def test_node_count_and_budget_laws(tmp_path):
    """Scripted runs: 5 nodes / 18 stage-2 calls / <= 20 per signal; design
    budgets 200 (10 signals) and 460 (23 signals)."""
    start = time.perf_counter()

    # single signal, n_rollouts = 4
    config = config_for(tmp_path / "one", n_rollouts=4, early_stop=False)
    backend = ScriptedBackend(full_signal_script("ack_o"))
    result = signal_result(config, backend)
    bank = make_bank(["ack_o"])
    run_stage2(config, bank, result, BuiltinChecker())
    assert len(result.tree) == 5
    assert result.total_calls == 18
    run_stage3(result, BuiltinChecker())
    assert not result.failed
    assert result.total_calls <= 20

    def design_run(tag: str, n_signals: int) -> int:
        cfg = config_for(tmp_path / tag, n_rollouts=4, early_stop=False)
        names = [f"sig_{i:02d}" for i in range(n_signals)]
        from svagen.bank import save_bank

        save_bank(make_bank(names), cfg.paths.bank_file)
        entries = []
        for name in names:
            entries += full_signal_script(name)
        summary = run_all(cfg, backend=ScriptedBackend(entries), checker=BuiltinChecker())
        assert not summary.failed_signals
        for r in summary.results:
            assert r.total_calls <= 20
        return summary.max_api_calls

    assert design_run("ten", 10) == 200
    assert design_run("twentythree", 23) == 460
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("node-count and budget laws", f"{elapsed:.3f}s")


def test_suppression_law_fuzz():
    """10,000 embedded scores: suppressed == min(s, 95); out-of-range always
    rejected."""
    start = time.perf_counter()
    params = SearchParams()
    rng = random.Random(4242)
    for _ in range(10_000):
        s = round(rng.uniform(-100, 100), 2)
        text = f"critique prose...\n[SCORE: {s:.2f}]"
        parsed = parse_score(text)
        suppressed = suppress_score(parsed, params)
        assert suppressed == min(s, 95.0)
        assert suppressed <= 95.0
    for _ in range(1_000):
        magnitude = rng.uniform(100.01, 1e6)
        s = magnitude if rng.random() < 0.5 else -magnitude
        with pytest.raises(ScoreParseError):
            parse_score(f"[SCORE: {s:.2f}]")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("suppression law fuzz", f"11000 samples, {elapsed:.3f}s")


def test_sva_parser_corpus():
    """Timer assertion parses clean; corpus parses and round-trips; >= 95%
    of single-token-deletion mutants produce an error."""
    start = time.perf_counter()

    ast, diagnostics = parse_assertion(TIMER_INTERRUPT_ASSERTION)
    assert ast is not None
    assert [d for d in diagnostics if d.severity == "error"] == []

    for source in CORPUS:
        units, diags = parse_units(source)
        assert [d for d in diags if d.severity == "error"] == [], source
        assert tokens(units) == lexed(source)

    caught = 0
    total = 0
    for source in CORPUS:
        lexemes = [t.lexeme for t in tokenize(source)]
        for skip in range(len(lexemes)):
            mutant = " ".join(lexemes[:skip] + lexemes[skip + 1 :])
            total += 1
            _, diags = parse_assertion(mutant)
            if any(d.severity == "error" for d in diags):
                caught += 1
    assert caught / total >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        "SVA parser corpus",
        f"{len(CORPUS)} items, {caught}/{total} mutants caught, {elapsed:.3f}s",
    )


class _StubChecker:
    def check(self, text):
        if "BAD" in text:
            return [Diagnostic("error", 1, 1, "stub", "marked bad")]
        return []


def test_stage3_set_laws(tmp_path):
    """200 randomized pools: partition, concatenation, dedup-subset and
    final-pass laws, with at most 2 combination calls charged."""
    start = time.perf_counter()
    rng = random.Random(1337)
    bank = make_bank(["ack_o"])
    checker = _StubChecker()
    for trial in range(200):
        config = config_for(tmp_path / f"t{trial}")
        size = rng.randint(0, 15)
        flags = [rng.random() < 0.4 for _ in range(size)]
        pool = [
            f"assert property (BAD_{i});" if bad else f"assert property (ok_{i});"
            for i, bad in enumerate(flags)
        ]
        tree = ReasoningTree("ack_o", AnswerContent(assertions=pool))
        tree.record_reward(0, 10.0)

        n_bad = sum(flags)
        fixes = [f"assert property (fixed_{trial}_{i});" for i in range(n_bad)]
        expected_a1 = [t for t in pool if "BAD" not in t]
        script = []
        if n_bad:
            script.append(ScriptEntry(response=fenced(*fixes)))
        dedup_input = merge_normalized(expected_a1 + fixes)
        if len(dedup_input) > 1:
            if rng.random() < 0.5:
                keep = [t for t in dedup_input if rng.random() < 0.7]
                reply = fenced(*keep) if keep else "nothing kept"
            else:
                reply = "no fenced reply at all"
            script.append(ScriptEntry(response=reply))

        result = signal_result(config, ScriptedBackend(script), tree=tree, bank=bank)
        run_stage3(result, checker)
        assert result.a1 == expected_a1
        assert result.a2 == [t for t in pool if "BAD" in t]
        assert result.a3 == result.a1 + result.a2_prime
        normalized_a3 = {normalize_assertion(t) for t in result.a3}
        assert {normalize_assertion(t) for t in result.deduplicated} <= normalized_a3
        for text in result.deduplicated:
            assert not any(d.severity == "error" for d in checker.check(text))
        assert result.total_calls <= 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("stage-3 set laws", f"200 pools, {elapsed:.3f}s")


def test_rag_oracle_equivalence():
    """Top-k equals a brute-force scan over <= 500 chunks for 50 random
    queries; identical-text query scores 1.0 within 1e-9."""
    import numpy as np

    start = time.perf_counter()
    embedder = HashedBowEmbedder(dimension=96)
    index = VectorIndex()
    rng = random.Random(2025)
    vocabulary = [
        "clock", "reset", "enable", "request", "acknowledge", "stable",
        "rose", "fell", "interrupt", "timer", "counter", "overflow",
    ]
    for d in range(5):
        texts = [
            " ".join(rng.choices(vocabulary, k=rng.randint(2, 8)))
            for _ in range(100)
        ]
        index.add(f"doc{d}", texts, embedder)
    assert len(index) == 500

    def brute_force(query: str, k: int):
        q = embedder.embed_many([query])[0]
        qn = np.linalg.norm(q)
        scored = []
        for c in index.chunks:
            cn = np.linalg.norm(c.vector)
            sim = float(np.dot(q, c.vector) / (qn * cn)) if qn > 0 and cn > 0 else 0.0
            scored.append((-sim, c.doc_id, c.chunk_index))
        scored.sort()
        return [(doc, idx) for _, doc, idx in scored[:k]]

    for _ in range(50):
        query = " ".join(rng.choices(vocabulary, k=3))
        k = rng.randint(1, 10)
        got = [(c.doc_id, c.chunk_index) for c, _ in index.query(query, k, embedder)]
        assert got == brute_force(query, k)

    exact = index.chunks[137].text
    top, sim = index.query(exact, 1, embedder)[0]
    assert sim == pytest.approx(1.0, abs=1e-9)
    assert top.text == exact
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("RAG oracle equivalence", f"500 chunks, 50 queries, {elapsed:.3f}s")


def test_replay_determinism(tmp_path):
    """Two full scripted pipeline executions (stage 1 through 3) produce
    byte-identical run artifacts."""
    start = time.perf_counter()

    spec = tmp_path / "spec.txt"
    spec.write_text("The ack_o output acknowledges req_i. mode_q selects timing.")
    verilog = tmp_path / "design.v"
    verilog.write_text(
        "module m(input clk_i, input req_i, output ack_o);\nreg mode_q;\nendmodule"
    )

    def build_script() -> list[ScriptEntry]:
        entries = [
            ScriptEntry(response="ack_o: acknowledge output\nmode_q: mode register"),
            ScriptEntry(response="[Signal Name]: ack_o\n[Description]: acknowledge"),
            ScriptEntry(response="[Signal Name]: mode_q\n[Description]: mode register"),
        ]
        for name in ("ack_o", "mode_q"):
            entries += stage2_script(
                name,
                fenced(VALID_BARE_ASSERT),
                [fenced(VALID_PROPERTY_UNIT), fenced(VALID_PROPERTY_UNIT, INVALID_ASSERT)],
                [30.0, 31.0, 32.0, 50.0, 51.0, 52.0, 60.0],
                keyed=True,
            )
            entries.append(
                ScriptEntry(
                    response=fenced("assert property (@(posedge clk_i) req_i |-> ack_o);"),
                    match=f"corrected assertions for {name}",
                )
            )
            entries.append(
                dedup_entry(name, fenced(VALID_BARE_ASSERT, VALID_PROPERTY_UNIT), keyed=True)
            )
        return entries

    def run_once(tag: str) -> str:
        cfg = config_for(tmp_path / tag, n_rollouts=2, early_stop=False)
        cfg.paths.spec_file = str(spec)
        cfg.paths.verilog_file = str(verilog)
        (tmp_path / tag).mkdir(exist_ok=True)
        run_all(cfg, backend=ScriptedBackend(build_script()), checker=BuiltinChecker())
        return cfg.paths.output_dir

    out1 = run_once("r1")
    out2 = run_once("r2")
    rels = sorted(
        os.path.relpath(os.path.join(root, f), out1)
        for root, _, files in os.walk(out1)
        for f in files
    )
    rels2 = sorted(
        os.path.relpath(os.path.join(root, f), out2)
        for root, _, files in os.walk(out2)
        for f in files
    )
    assert rels == rels2 and rels
    for rel in rels:
        with open(os.path.join(out1, rel), "rb") as f:
            b1 = f.read()
        with open(os.path.join(out2, rel), "rb") as f:
            b2 = f.read()
        assert b1 == b2, f"artifact differs: {rel}"
    # the saved banks replay byte-identically too
    with open(tmp_path / "r1" / "bank.json", "rb") as f:
        bank1 = f.read()
    with open(tmp_path / "r2" / "bank.json", "rb") as f:
        bank2 = f.read()
    assert bank1 == bank2
    elapsed = time.perf_counter() - start
    _report("replay determinism", f"{len(rels)} artifacts, {elapsed:.3f}s")
