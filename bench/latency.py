"""Latency-injecting, counting wrapper around a chat backend.

`LatencyBackend.complete` sleeps a fixed time per call before handing the
call to the wrapped backend, so the sleep happens outside the scripted
backend's lock and parallel signals overlap their waits the way live model
calls do. Every call is recorded with its signal, start and end times and
prompt and reply sizes; `serial_depth` turns one signal's records into the
number of calls that had to wait for all earlier ones.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class CallRecord:
    signal: str | None
    start: float
    end: float
    prompt_chars: int
    reply_chars: int


class LatencyBackend:
    def __init__(
        self,
        inner,
        latency_s: float,
        signal_of: Callable[[str], str | None],
    ) -> None:
        self.inner = inner
        self.latency_s = latency_s
        self.signal_of = signal_of
        self.records: list[CallRecord] = []
        self._lock = threading.Lock()

    def wait(self) -> None:
        time.sleep(self.latency_s)

    def complete(self, messages: list[dict[str, str]]) -> str:
        prompt = "\n".join(m["content"] for m in messages)
        start = time.perf_counter()
        reply = ""
        try:
            if self.latency_s > 0:
                self.wait()
            reply = self.inner.complete(messages)
            return reply
        finally:
            record = CallRecord(
                self.signal_of(prompt), start, time.perf_counter(), len(prompt), len(reply)
            )
            with self._lock:
                self.records.append(record)


def serial_depth(calls: list[tuple[float, float]]) -> int:
    """Number of calls, given as (start, end), that started only after every
    call started before them had returned. Equals len(calls) for calls made
    one after another; overlapping calls share one level."""
    depth = 0
    latest_end = float("-inf")
    for start, end in sorted(calls):
        if start >= latest_end:
            depth += 1
        latest_end = max(latest_end, end)
    return depth
