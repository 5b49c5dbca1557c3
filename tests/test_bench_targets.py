"""The traced benchmark (`bench/run_bench.py --trace 1`) wraps svagen
functions at the names their callers look up. A rename in `src/` must fail
here, before it breaks a traced run."""

from __future__ import annotations

import inspect
import os

import svagen.pipeline as pipeline

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def lookup(target):
    owner, attr = target.owner, target.attr
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_trace_target_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import run_bench
    from spans import Tracer

    targets = run_bench.trace_targets()
    originals = [lookup(t) for t in targets]  # KeyError/AttributeError: a target is gone
    tracer = Tracer()
    with tracer.installed(targets):
        assert all(lookup(t) is not o for t, o in zip(targets, originals))
    assert all(lookup(t) is o for t, o in zip(targets, originals))
    assert tracer.spans == []


def test_run_signal_takes_the_signal_name_fourth():
    # run_bench's `Target(pipeline, "run_signal", ..., signal_arg=3)`
    assert list(inspect.signature(pipeline.run_signal).parameters)[3] == "signal_name"
