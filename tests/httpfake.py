"""A scripted HTTP server on 127.0.0.1 for the remote-path tests.

Each POST takes the next step of the script, and the last step repeats. A
step is a `Reply` (a status, a JSON or raw body, extra headers and a delay
before answering) or a `Reset` (read the request, then drop the connection
with a TCP RST). A delay longer than the client's timeout scripts a timeout.
Every request is recorded with its path, headers and body.

Delays wait on an event rather than calling `time.sleep`, so a test that
replaces `time.sleep` to skip the client's backoff does not skip them.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


@dataclass(frozen=True)
class Reply:
    status: int = 200
    body: object = None  # bytes are sent as they are, anything else as JSON
    headers: tuple[tuple[str, str], ...] = ()
    delay: float = 0.0


@dataclass(frozen=True)
class Reset:
    pass


@dataclass(frozen=True)
class Seen:
    path: str
    headers: dict[str, str]
    body: bytes

    def json(self):
        return json.loads(self.body)


def chat_reply(content: str) -> Reply:
    return Reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})


class ScriptedServer:
    def __init__(self):
        self.seen: list[Seen] = []
        self._steps: list[Reply | Reset] = [Reply(404, {"error": "no script"})]
        self._lock = threading.Lock()
        self._stop = threading.Event()

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/endpoint"

    def script(self, *steps: Reply | Reset) -> None:
        with self._lock:
            self._steps = list(steps)

    def _next(self, seen: Seen) -> Reply | Reset:
        with self._lock:
            self.seen.append(seen)
            return self._steps.pop(0) if len(self._steps) > 1 else self._steps[0]

    def __enter__(self) -> "ScriptedServer":
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                step = server._next(Seen(self.path, dict(self.headers.items()), body))
                if isinstance(step, Reset):
                    linger = struct.pack("ii", 1, 0)
                    self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
                    self.connection.close()
                    return
                if server._stop.wait(step.delay):
                    return
                data = step.body if isinstance(step.body, bytes) else json.dumps(step.body).encode()
                try:
                    self.send_response(step.status)
                    for name, value in step.headers:
                        self.send_header(name, value)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                except OSError:
                    pass  # the client gave up waiting

            def log_message(self, format, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._httpd.shutdown()
        self._httpd.server_close()  # joins the request threads
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
