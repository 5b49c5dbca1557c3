"""Correctness gate: what every signal of every benchmark pass must satisfy.

A violation is a one-line message; the benchmark fails on any of them.
"""

from __future__ import annotations

import hashlib
import os


def signal_violations(
    result,
    plan,
    cap: int,
    backend_calls: int,
    checker,
    normalize,
) -> list[str]:
    """Check one signal's result against the budget law, the set laws, the
    checker and the workload plan.

    `result` is the pipeline's SignalRunResult, `plan` the generator's
    SignalPlan, `backend_calls` the calls the backend saw for the signal and
    `normalize` the program's normalized-equality function.
    """
    name = result.signal
    if result.failed:
        return [f"{name}: signal failed: {result.error}"]
    out: list[str] = []
    rollouts = result.tree.rollouts_completed
    corrected = bool(result.a2)
    deduped = len({normalize(t) for t in result.a3}) > 1
    expected = 2 + 4 * rollouts + corrected + deduped
    if result.total_calls != expected:
        out.append(f"{name}: ledger total {result.total_calls} != budget law {expected}")
    if result.total_calls > cap:
        out.append(f"{name}: ledger total {result.total_calls} exceeds cap {cap}")
    if backend_calls != result.total_calls:
        out.append(f"{name}: backend saw {backend_calls} calls, ledger {result.total_calls}")

    tree_pool = {
        normalize(t) for node in result.tree.nodes.values() for t in node.answer.assertions
    }
    if not {normalize(t) for t in result.a1 + result.a2} <= tree_pool:
        out.append(f"{name}: partitioned set is not drawn from the tree")
    final = {normalize(t) for t in result.deduplicated}
    if not final <= {normalize(t) for t in result.a3}:
        out.append(f"{name}: final set is not a subset of the pool")
    for text in result.deduplicated:
        if any(d.severity == "error" for d in checker.check(text)):
            out.append(f"{name}: final assertion fails the checker: {text[:60]!r}")

    if rollouts != plan.rollouts:
        out.append(f"{name}: {rollouts} rollouts, planned {plan.rollouts}")
    if corrected != plan.correction:
        out.append(f"{name}: correction ran={corrected}, planned {plan.correction}")
    if final != {normalize(t) for t in plan.final}:
        out.append(f"{name}: final set differs from the deduplication reply")
    return out


def tree_digest(directory: str) -> str:
    """sha256 over every file's relative path and bytes under `directory`."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(directory):
        dirnames.sort()
        for fname in sorted(filenames):
            path = os.path.join(dirpath, fname)
            h.update(os.path.relpath(path, directory).encode("utf-8") + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()
