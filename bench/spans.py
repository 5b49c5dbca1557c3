"""In-memory span recorder for the traced benchmark run.

The tracer wraps library functions at the name where callers look them up
(a module global or a class attribute) and records one span per call:
name, start, end, parent and signal. The parent stack is thread-local, so
signals running on worker threads nest correctly; a span opened on a thread
with an empty stack takes the open root span as parent. A span inherits the
signal of its parent, and `run_signal` spans set it, so every span of one
signal shares that id.

Nothing is written while spans are recorded; `Tracer.spans` is read once
the traced work has ended.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    signal: str | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass(frozen=True)
class Target:
    """One function to wrap: `owner.attr` is called as span `name`.

    `signal_arg` is the positional index of an argument naming the signal
    the call works on; `keep_arg` is the index of an argument to record
    (for distinct-input counts). Indexes count every positional argument the
    wrapped function receives, `self` and `cls` included.
    """

    owner: object
    attr: str
    name: str
    signal_arg: int | None = None
    keep_arg: int | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.kept: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._errors_lock = threading.Lock()
        self._local = threading.local()
        self._root: tuple[int, str | None] | None = None

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, signal: str | None, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if signal is None and parent is not None:
            signal = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, signal))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            with self._errors_lock:
                self.errors[name] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent[0] if parent else None, signal)
            )

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A span that parents every span opened while it is open, on any
        thread whose own stack is empty."""
        span_id = next(self._ids)
        self._root = (span_id, None)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._root = None
            self.spans.append(Span(span_id, name, start, time.perf_counter(), None, None))

    def wrap(self, fn, target: Target):
        tracer = self
        name, signal_arg, keep_arg = target.name, target.signal_arg, target.keep_arg

        def wrapper(*args, **kwargs):
            if keep_arg is not None:
                tracer.kept[name].append(args[keep_arg])
            signal = args[signal_arg] if signal_arg is not None else None
            return tracer._call(name, signal, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator[None]:
        """Replace every target by its wrapper; restore all on exit."""
        saved = []
        try:
            for t in targets:
                if t.keep_arg is not None:
                    self.kept.setdefault(t.name, [])  # no racing key creation
                original = t.owner.__dict__[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr)
                saved.append((t, original))
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(original.__func__, t))
                else:
                    replacement = self.wrap(original, t)
                setattr(t.owner, t.attr, replacement)
            yield
        finally:
            for t, original in reversed(saved):
                setattr(t.owner, t.attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children on other threads may overlap each other, so the covered part
    is the length of the union of the children's intervals, clipped to the
    parent.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out
