"""Chat-completion backends behind one minimal contract.

Agents only ever see `complete(messages) -> text`. The scripted backend
replays canned responses for offline runs and tests; the HTTP backend talks
to any OpenAI-style chat-completions endpoint.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass
from typing import Protocol

from svagen.records import load

Message = dict[str, str]  # {"role": "system"|"user", "content": str}


class BackendError(RuntimeError):
    """The backend could not produce a response."""


class ChatBackend(Protocol):
    def complete(self, messages: list[Message]) -> str: ...


@dataclass
class ScriptEntry:
    response: str
    match: str | None = None  # substring the prompt must contain, if set


class ScriptedBackend:
    """Deterministic replay backend.

    Responses are consumed in order; an entry with a `match` substring is
    only eligible when the rendered prompt contains it, which lets one
    script serve interleaved per-signal calls. Raises BackendError when no
    entry is eligible (script exhausted or mismatched). It is `serial`
    (`CallLog`), so one signal's calls arrive one at a time, in call order.
    """

    serial = True

    def __init__(self, entries: list[ScriptEntry]) -> None:
        self._entries = list(entries)
        self._lock = threading.Lock()
        self.calls = 0

    @classmethod
    def from_responses(cls, responses: list[str]) -> ScriptedBackend:
        return cls([ScriptEntry(response=r) for r in responses])

    @classmethod
    def from_file(cls, path: str) -> ScriptedBackend:
        """ValueError naming the file when it is not a JSON list of entries."""
        return cls(load(list[ScriptEntry], path, "backend script", ValueError))

    def complete(self, messages: list[Message]) -> str:
        prompt_text = "\n".join(m["content"] for m in messages)
        with self._lock:
            self.calls += 1
            for i, entry in enumerate(self._entries):
                if entry.match is None or entry.match in prompt_text:
                    self._entries.pop(i)
                    return entry.response
        raise BackendError(
            "scripted backend exhausted: no canned response matches the prompt"
        )


class HttpChatBackend:
    """OpenAI-style chat-completions client.

    The API key is read once, when the backend is made, from the environment
    variable named `api_key_env`; it never appears in config files, and an
    unset or empty variable raises BackendError naming it before any call.
    Request body: {model, messages}; response: choices[0].message.content.
    Each call takes an idle `requests.Session`, or makes one, and gives it
    back when it returns, since requests does not document a Session as
    thread-safe: no session serves two calls at once, there are as many as
    the most calls ever in flight together, and a later batch's calls reuse
    their connections.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "SVAGEN_API_KEY",
        timeout_s: float = 120.0,
    ) -> None:
        key = os.environ.get(api_key_env, "")
        if not key:
            raise BackendError(f"API key environment variable {api_key_env} is not set")
        import requests  # here, not at module level: a scripted run never loads it

        self._requests = requests
        self.endpoint = endpoint
        self.model = model
        self.timeout_s = timeout_s
        self._headers = {"Authorization": f"Bearer {key}"}
        self._idle: list = []  # the sessions no call holds
        self._idle_lock = threading.Lock()

    @contextlib.contextmanager
    def _call_session(self):
        """A session no other call holds while this one does."""
        with self._idle_lock:
            session = self._idle.pop() if self._idle else None
        if session is None:
            session = self._requests.Session()
        try:
            yield session
        finally:
            with self._idle_lock:
                self._idle.append(session)

    def complete(self, messages: list[Message]) -> str:
        try:
            with self._call_session() as session:
                resp = session.post(
                    self.endpoint,
                    json={"model": self.model, "messages": messages},
                    headers=self._headers,
                    timeout=self.timeout_s,
                )
        except Exception as err:  # connection errors, timeouts
            raise BackendError(f"chat completion request failed: {err}") from err
        if resp.status_code != 200:
            raise BackendError(
                f"chat completion request returned HTTP {resp.status_code}"
            )
        try:
            text = resp.json()["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as err:
            raise BackendError(f"malformed chat completion response: {err}") from err
        if not isinstance(text, str) or not text:
            raise BackendError("chat completion response carried no text")
        return text
