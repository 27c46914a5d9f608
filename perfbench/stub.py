"""Out-of-process scoring stub for the remote-stub workload.

Speaks zps's remote wire protocol (POST ``{"model", "items": [{"input",
"candidates"}]}`` -> ``{"results": [{"scores": [...]}]}``) over HTTP/1.1
keep-alive. Every response goes out in one write with Content-Length and
TCP_NODELAY set, so no delayed-ACK stall sits between the client and the
server. Each request sleeps a fixed latency to stand in for model time.

``GET /stats`` returns the running totals: requests, items, bytes received
(request line, headers and body) and busy seconds (from a fully read request
to its fully written response).

Run: ``python3 perfbench/stub.py --latency 0.01``; it prints ``PORT <n>``
on its first line and serves until terminated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def stub_score(input_text: str, candidate: str) -> float:
    """Deterministic fake log-likelihood; the same formula as the test suite's stub."""
    digest = hashlib.sha256(f"{input_text}|{candidate}".encode()).hexdigest()
    return -(0.5 + 3.0 * int(digest[:8], 16) / 0xFFFFFFFF)


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.items = 0
        self.bytes_received = 0
        self.busy_s = 0.0

    def as_dict(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "items": self.items,
                    "bytes_received": self.bytes_received, "busy_s": self.busy_s}


def make_handler(latency: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def _reply(self, status: int, body: bytes) -> None:
            head = (f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
            self.wfile.write(head + body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b"{}")
                return
            self._reply(200, json.dumps(stats.as_dict()).encode())

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            start = time.perf_counter()
            received = len(self.raw_requestline) + len(bytes(self.headers)) + len(body)
            try:
                items = json.loads(body)["items"]
                results = [{"scores": [stub_score(it["input"], c) for c in it["candidates"]]}
                           for it in items]
            except (ValueError, KeyError, TypeError):
                self._reply(400, b'{"error": "malformed request"}')
                return
            time.sleep(latency)
            self._reply(200, json.dumps({"results": results}).encode())
            busy = time.perf_counter() - start
            with stats.lock:
                stats.requests += 1
                stats.items += len(items)
                stats.bytes_received += received
                stats.busy_s += busy

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--latency", type=float, default=0.01,
                        help="seconds each request sleeps")
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(args.latency, Stats()))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
