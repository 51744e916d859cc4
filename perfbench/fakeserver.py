"""In-process fake chat-completion server for the remote workload.

Binds 127.0.0.1 on an ephemeral port, sleeps a fixed latency per request,
and answers with the gold rendering of the prompt's input line (the text
after the last ``Sentence: ``). Requests are counted; a prompt whose input
line is unknown gets a 404 and is counted as unknown.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

INPUT_MARKER = "\nSentence: "


class FakeChatServer:
    def __init__(self, answers: dict[str, str], latency_s: float):
        self._answers = answers
        self._latency_s = latency_s
        self._lock = threading.Lock()
        self._requests = 0
        self._unknown = 0
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def counts(self) -> tuple[int, int]:
        """(requests served, requests whose input line was unknown)."""
        with self._lock:
            return self._requests, self._unknown

    def _answer(self, body: bytes) -> str | None:
        with self._lock:
            self._requests += 1
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = ""
        line = prompt.rsplit(INPUT_MARKER, 1)[-1].split("\n", 1)[0]
        answer = self._answers.get(line)
        if answer is None:
            with self._lock:
                self._unknown += 1
        return answer

    def __enter__(self) -> "FakeChatServer":
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                answer = server._answer(body)
                time.sleep(server._latency_s)
                if answer is None:
                    payload, status = {"error": "unknown input line"}, 404
                else:
                    payload = {"choices": [{"message": {"role": "assistant", "content": answer}}]}
                    status = 200
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = False
        self._httpd.block_on_close = True
        # A short poll interval keeps shutdown() quick; set-up starts many servers.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()  # joins the request threads
        self._thread.join(timeout=10)
