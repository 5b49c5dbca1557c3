"""Seeded workload generator for the svagen benchmark.

`generate(name, seed, directory)` writes every input the program sees into
`directory` (spec, Verilog declarations, waveform texts, bank, keyed script,
reference corpus, config) and returns a `Plan`: what a correct run must
produce per signal. The same name and seed always write byte-identical
files, and the per-signal work (calls, nodes, units) does not depend on the
seed, so different seeds measure the same amount of work.

Every scripted reply is keyed to its signal by a phrase of the rendered
prompt (see the `*_key` functions), so parallel signals never take each
other's replies. Stage-1 replies come first in the script.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    signals: int
    rollouts: int = 4
    parallel: int = 1
    latency_ms: float = 0.0
    early_stop: bool = False
    # stage 1 from spec + Verilog + waveforms instead of a pre-built bank
    stage1: bool = False
    waveforms: int = 0
    # rollout after which each early-stopping signal stops; the rest run all
    early_stops: tuple[int, ...] = ()
    corpus_docs: int = 0
    doc_chars: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="search-cpu",
            why=(
                "CPU path of the search: 48 pre-built signals with distinct assertion "
                "texts, no backend wait, small RAG index; the checker and artifact "
                "writes dominate"
            ),
            signals=48,
            corpus_docs=8,
            doc_chars=5000,
        ),
        Workload(
            name="design-live",
            why=(
                "live-model shape: stage 1 from spec, 16 signals at parallel=2, 20 ms "
                "per call, early stop on half the signals; backend waits dominate"
            ),
            signals=16,
            parallel=2,
            latency_ms=20.0,
            early_stop=True,
            stage1=True,
            waveforms=4,
            early_stops=(1, 1, 2, 2, 2, 3, 3, 3),
        ),
        Workload(
            name="rag-heavy",
            why=(
                "same search as search-cpu on 16 signals with a ~1800-chunk reference "
                "index built in set-up; RAG query and index load dominate"
            ),
            signals=16,
            corpus_docs=100,
            doc_chars=18000,
        ),
    )
}

# the per-node unit counts of one signal (root first), shuffled per signal;
# a fixed multiset keeps the work per signal independent of the seed
UNITS_PER_NODE = (2, 3, 4, 5, 6)
# units the deduplication reply keeps, out of the root's and first child's
FINAL_UNITS = 3
# critic scores: the default early_stop_score is 90 and score_cap 95, so a
# SCORE_STOP evaluation of an all-valid child stops the search, and no
# other score can
SCORE_BELOW_STOP = 85
SCORE_STOP = 92


# --------------------------------------------------------------------------
# Script keys: the prompt phrase that ties a reply to its signal. They follow
# the shipped prompt templates.


def stage2_key(signal: str) -> str:
    return f"Signal name: {signal}\n"


def correction_key(signal: str) -> str:
    return f"corrected assertions for {signal}."


def dedup_key(signal: str) -> str:
    return f"for the {signal}. Ensure"


_SIGNAL_OF_RE = re.compile(
    r"Signal name: (\S+)\n|corrected assertions for (\S+?)\.|for the (\S+?)\. Ensure"
)


def signal_of(prompt: str) -> str | None:
    """The signal a stage-2/3 prompt belongs to; None for stage-1 prompts."""
    m = _SIGNAL_OF_RE.search(prompt)
    if m is None:
        return None
    return next(g for g in m.groups() if g is not None)


# --------------------------------------------------------------------------
# Plan: what a correct run produces


@dataclass
class SignalPlan:
    rollouts: int
    correction: bool
    final: list[str] = field(default_factory=list)  # the dedup reply's units


@dataclass
class Plan:
    workload: Workload
    signals: dict[str, SignalPlan]
    corpus_dir: str | None = None  # relative to the workload directory


CONFIG_FILE = "config.json"


# --------------------------------------------------------------------------
# Text generation

_STEMS = ("req", "ack", "vld", "rdy", "cnt", "ptr", "err", "irq", "gnt", "sel", "cfg", "dat")
_SUFFIXES = ("i", "o", "q", "d")
_WORDS = (
    "clock", "reset", "request", "grant", "handshake", "pipeline", "register", "counter",
    "pointer", "overflow", "underflow", "arbiter", "priority", "interrupt", "mask", "enable",
    "valid", "ready", "stall", "flush", "burst", "address", "data", "write", "read", "fifo",
    "depth", "threshold", "status", "control", "assert", "property", "sequence", "cycle",
    "latency", "edge", "sampled", "stable", "transition", "state", "idle", "busy", "done",
    "error", "parity", "timeout", "window", "channel", "beat", "response", "the", "a", "of",
    "on", "when", "after", "before", "is", "must", "be", "held", "until", "and", "or",
)


def signal_names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct names of one shape, e.g. `gnt07_q`."""
    return [f"{rng.choice(_STEMS)}{i:02d}_{rng.choice(_SUFFIXES)}" for i in range(count)]


def _prose(rng: random.Random, words: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(words))


def _atom(rng: random.Random, names: list[str]) -> str:
    a, b = rng.choice(names), rng.choice(names)
    k = rng.randint(1, 3)
    return rng.choice(
        (
            a,
            f"!{a}",
            f"{a}[{k}]",
            f"({a}[7:0] == 8'h{rng.randint(0, 255):02X})",
            f"$rose({a})",
            f"$fell({a})",
            f"$stable({a})",
            f"$changed({a})",
            f"({a} == $past({b}, {k}))",
            f"$onehot0({a})",
            f"($countones({a}) <= {k})",
            f"!$isunknown({a})",
            f"({a} != {b})",
            f"({a} + {k} <= {b})",
            f"({{{a}, {b}}} != 2'b00)",
        )
    )


def _boolean(rng: random.Random, names: list[str]) -> str:
    shape = rng.randint(0, 2)
    if shape == 0:
        return _atom(rng, names)
    op = "&&" if shape == 1 else "||"
    return f"{_atom(rng, names)} {op} {_atom(rng, names)}"


def _antecedent(rng: random.Random, names: list[str]) -> str:
    a = rng.choice(names)
    return rng.choice(
        (
            _boolean(rng, names),
            f"{_atom(rng, names)} ##1 {_atom(rng, names)}",
            f"{a}[*{rng.randint(2, 4)}]",
            f"{a}[*1:{rng.randint(2, 4)}] ##1 {_atom(rng, names)}",
        )
    )


def _consequent(rng: random.Random, names: list[str]) -> str:
    lo = rng.randint(0, 2)
    return rng.choice(
        (
            _boolean(rng, names),
            f"##{rng.randint(1, 3)} {_atom(rng, names)}",
            f"##[{lo}:{lo + rng.randint(1, 3)}] {_atom(rng, names)}",
            f"##[1:$] {_atom(rng, names)}",
            f"{_atom(rng, names)} ##1 {_atom(rng, names)}",
        )
    )


def _property_body(rng: random.Random, names: list[str]) -> str:
    shape = rng.randint(0, 5)
    if shape == 0:
        return f"not ({_atom(rng, names)} && {_atom(rng, names)})"
    if shape == 1:
        return f"{_boolean(rng, names)} or {_boolean(rng, names)}"
    op = "|->" if shape < 4 else "|=>"
    return f"{_antecedent(rng, names)} {op} {_consequent(rng, names)}"


def _clocking(rng: random.Random) -> str:
    edge = rng.choice(("posedge", "negedge"))
    reset = rng.choice(("rst_i", "!rst_ni"))
    return f"@({edge} clk_i) disable iff ({reset})"


def assertion_unit(rng: random.Random, names: list[str], label: str) -> str:
    """One valid unit: a property block with its assert, or a bare (possibly
    labelled) assert, built only from constructs the built-in checker
    documents as accepted."""
    body = _property_body(rng, names)
    form = rng.randint(0, 2)
    if form == 0:
        return (
            f"property p_{label};\n  {_clocking(rng)}\n  {body};\nendproperty\n"
            f"assert property (p_{label});"
        )
    stmt = f"assert property ({_clocking(rng)} {body})"
    if form == 1:
        return f"{stmt};"
    return f'a_{label}: {stmt} else $error("{label} failed");'


def invalid_unit(rng: random.Random, names: list[str]) -> str:
    """A unit the checker rejects: the implication has no consequent."""
    return f"assert property ({_clocking(rng)} {_antecedent(rng, names)} |-> );"


def fenced(commentary: str, units: list[str]) -> str:
    return commentary + "\n\n```systemverilog\n" + "\n\n".join(units) + "\n```\n"


def critic_reply(rng: random.Random, signal: str, score: int) -> str:
    return (
        f"The assertions for {signal} cover part of the specification. "
        f"{_prose(rng, 24).capitalize()}.\n[SCORE: {score}]"
    )


# --------------------------------------------------------------------------
# Per-signal script


def _signal_script(
    rng: random.Random,
    w: Workload,
    name: str,
    names: list[str],
    stop_after: int | None,
) -> tuple[list[dict], SignalPlan]:
    """Stage 2+3 replies for one signal, and its plan.

    The root and every rollout child carry distinct valid units (counts from
    UNITS_PER_NODE); the last rollout adds one invalid unit, so correction
    runs when the search is not stopped early. An early-stopping signal gets
    a child evaluation at the early-stop score on rollout `stop_after`; every
    other score stays below it.
    """
    key = stage2_key(name)
    counts = list(UNITS_PER_NODE[: w.rollouts + 1])
    rng.shuffle(counts)
    seen: set[str] = set()

    def fresh_unit() -> str:
        while True:
            unit = assertion_unit(rng, names, f"{name}_{len(seen)}")
            if " ".join(unit.split()) not in seen:
                seen.add(" ".join(unit.split()))
                return unit

    nodes = [[fresh_unit() for _ in range(n)] for n in counts]
    nodes[-1].append(invalid_unit(rng, names))

    def critic(score: int | None = None) -> dict:
        if score is None:
            score = rng.randint(10, SCORE_BELOW_STOP)
        return {"response": critic_reply(rng, name, score), "match": key}

    entries = [
        {"response": fenced(f"First checks for {name}.", nodes[0]), "match": key},
        critic(),
    ]
    for r in range(1, w.rollouts + 1):
        entries.append(critic())  # re-sample
        entries.append(critic())  # expansion feedback
        entries.append(
            {"response": fenced(f"Refined checks for {name}, round {r}.", nodes[r]), "match": key}
        )
        entries.append(critic(SCORE_STOP if r == stop_after else None))

    rollouts = stop_after or w.rollouts
    correction = rollouts == w.rollouts
    if correction:
        entries.append(
            {"response": fenced("Corrected.", [fresh_unit()]), "match": correction_key(name)}
        )
    # a strict subset of the root and first child, which every run pools
    final = rng.sample(nodes[0] + nodes[1], FINAL_UNITS)
    entries.append(
        {"response": fenced("Unique assertions kept.", final), "match": dedup_key(name)}
    )
    return entries, SignalPlan(rollouts=rollouts, correction=correction, final=final)


# --------------------------------------------------------------------------
# Stage-1 inputs


def _signal_record(rng: random.Random, name: str, related: list[str]) -> dict:
    return {
        "verilog_name": name,
        "spec_name": name.upper(),
        "description": f"{name} {_prose(rng, 10)}",
        "definition": f"{rng.choice((1, 4, 8, 16))}-bit {rng.choice(('input', 'output', 'register'))}",
        "functionality": _prose(rng, 30),
        "interconnection": f"driven towards {', '.join(related)}",
        "additional_info": _prose(rng, 12),
        "related_signals": related,
    }


def _stage1_files(
    rng: random.Random, w: Workload, records: list[dict]
) -> tuple[dict[str, str], list[dict]]:
    """Spec, Verilog, waveform texts and the stage-1 replies that turn them
    into the same bank the other workloads load pre-built."""
    spec = "\n\n".join(
        f"Port {r['spec_name']}: {r['description']}. {r['functionality']}." for r in records
    )
    ports = ",\n".join(
        f"  {'output' if r['verilog_name'].endswith('o') else 'input'} logic [7:0] {r['verilog_name']}"
        for r in records
    )
    verilog = f"module dut (\n  input logic clk_i,\n  input logic rst_ni,\n{ports}\n);\nendmodule\n"
    files = {"spec.txt": spec + "\n", "dut.v": verilog}
    entries = [
        {
            "response": "\n".join(f"{r['verilog_name']}: {r['description']}" for r in records),
            "match": "Verilog declarations:",
        }
    ]
    for r in records:
        reply = (
            f"[Signal Name]: {r['spec_name']}\n[Description]: {r['description']}\n"
            f"[Definition]: {r['definition']}\n[Functionality]: {r['functionality']}\n"
            f"[Interconnection]: {r['interconnection']}\n"
            f"[Additional Information]: {r['additional_info']}\n"
            f"[Related Signals]: {', '.join(r['related_signals'])}"
        )
        entries.append(
            {"response": reply, "match": f"related to the {r['verilog_name']} from the spec"}
        )
    for i in range(w.waveforms):
        shown = rng.sample([r["verilog_name"] for r in records], 4)
        header = f"waveform wf{i}"
        lanes = "\n".join(
            f"{s}: " + "".join(rng.choice("01x.") for _ in range(24)) for s in shown
        )
        files[f"wave{i}.txt"] = f"{header}\n{lanes}\n"
        entries.append(
            {
                "response": (
                    f"[Waveform Name]: wf{i}\n[Signals]: {', '.join(shown)}\n"
                    f"[Timing Relationship]: {_prose(rng, 14)}\n"
                    f"[Causal Dependencies]: {_prose(rng, 14)}\n"
                    f"[State Transitions]: {_prose(rng, 14)}\n"
                    f"[Protocol/Handshaking Mechanisms]: {_prose(rng, 14)}\n"
                    f"[Additional Observations]: {_prose(rng, 14)}"
                ),
                "match": f"{header}\n",
            }
        )
    return files, entries


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _dump(path: str, payload) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def generate(name: str, seed: int, directory: str) -> Plan:
    """Write workload `name` for `seed` into `directory`; paths inside the
    config are relative to `directory`."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    names = signal_names(rng, w.signals)
    records = [_signal_record(rng, n, rng.sample([m for m in names if m != n], 3)) for n in names]

    stops: list[int | None] = list(w.early_stops) + [None] * (w.signals - len(w.early_stops))
    rng.shuffle(stops)
    script: list[dict] = []
    plans: dict[str, SignalPlan] = {}
    files: dict[str, str] = {}
    if w.stage1:
        files, script = _stage1_files(rng, w, records)
    for record, stop in zip(records, stops):
        n = record["verilog_name"]
        entries, plans[n] = _signal_script(
            rng, w, n, [n, *record["related_signals"]], stop
        )
        script += entries

    config: dict = {
        "design_name": f"{name.replace('-', '_')}_{seed}",
        "search": {"n_rollouts": w.rollouts},
        "backend": {"type": "scripted", "script_path": "script.json"},
        "paths": {"bank_file": "bank.json", "output_dir": "out"},
        "early_stop": w.early_stop,
        "parallel": w.parallel,
    }
    os.makedirs(directory, exist_ok=True)
    if w.stage1:
        config["paths"].update(
            spec_file="spec.txt",
            verilog_file="dut.v",
            waveform_files=[f"wave{i}.txt" for i in range(w.waveforms)],
        )
    else:
        workflow = "[Signal Mapping]\n" + "\n".join(
            f"{r['verilog_name']}: {r['description']}" for r in records
        )
        _dump(
            os.path.join(directory, "bank.json"),
            {"design_name": config["design_name"], "workflow_info": workflow,
             "signals": records, "waveforms": []},
        )
    corpus_dir = None
    if w.corpus_docs:
        corpus_dir = "corpus"
        config["rag"] = {"index_path": "index.json"}
        os.makedirs(os.path.join(directory, corpus_dir), exist_ok=True)
        for d in range(w.corpus_docs):
            words: list[str] = []
            length = 0
            while length < w.doc_chars:
                word = rng.choice(_WORDS + tuple(names))
                words.append(word)
                length += len(word) + 1
            files[os.path.join(corpus_dir, f"ref{d:03d}.txt")] = " ".join(words) + "\n"
    for rel, text in files.items():
        _write(os.path.join(directory, rel), text)
    _dump(os.path.join(directory, "script.json"), script)
    _dump(os.path.join(directory, CONFIG_FILE), config)
    return Plan(workload=w, signals=plans, corpus_dir=corpus_dir)
