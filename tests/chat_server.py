"""A loopback OpenAI-style chat-completions server for the HTTP backend's
tests: stdlib `ThreadingHTTPServer` on 127.0.0.1 at a free port. The
`chat_server` fixture in conftest.py serves it from a thread."""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from svagen.backends import BackendError, ScriptedBackend


class ChatServer(ThreadingHTTPServer):
    """Answers each POST with `status` and, as its JSON body, `payload` when
    that is set, or else `backend`'s reply to the request's messages as
    choices[0].message.content (status 500 when the script has none). Each
    request's path, headers and JSON body are appended to `requests` as it
    arrives.

    Replies are HTTP/1.0, so each connection closes with its reply and
    neither side holds a socket between calls."""

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.backend: ScriptedBackend | None = None
        self.status = 200
        self.payload: object = None
        self.requests: list[dict] = []

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"


class _Handler(BaseHTTPRequestHandler):
    # headers and body go out in two sends; without TCP_NODELAY the second
    # can wait for the client's delayed ACK of the first
    disable_nagle_algorithm = True
    server: ChatServer

    def do_POST(self) -> None:
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.requests.append({"path": self.path, "headers": dict(self.headers), "json": body})
        status, payload = server.status, server.payload
        if payload is None:
            try:
                reply = server.backend.complete(body["messages"])
                payload = {"choices": [{"message": {"role": "assistant", "content": reply}}]}
            except BackendError as err:
                status, payload = 500, {"error": {"message": str(err)}}
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        pass  # no access log on stderr
