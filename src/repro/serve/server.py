"""Threaded stdlib HTTP server for the dashboard and query/replay API.

Endpoint catalog (all GET, all read-only):

========================  ===================================================
``/``                     single-file HTML dashboard
``/api/status``           live campaign status (CLI-identical shaping)
``/api/stream``           long-poll tail of ``metrics.jsonl``
                          (``?offset=<byte>&wait=<s>``)
``/api/corpus``           corpus index rows
``/api/corpus/<fp>``      one entry: trace, triage, provenance chain
``/api/coverage``         behavior-map heatmap cells + gap analysis
``/api/rankings``         per-CCA vulnerability table
``/api/replay/<fp>``      re-simulate the entry (``?cca=<name>``), memoized
``/api/replay-stats``     replay cache statistics
``/metrics``              Prometheus text exposition (scrape-ready)
========================  ===================================================

Error contract: a JSON endpoint never returns a 500 and never a partial
body.  Responses are fully serialised before the first byte is sent
(``Content-Length`` always set); client errors get 400/404 with a JSON
``{"error": ...}`` body, and unexpected read races degrade to a 200 with an
``error`` field rather than tearing the connection.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exec.backend import EvaluationBackend
from .html import DASHBOARD_HTML
from .query import MAX_STREAM_WAIT_S, DashboardQuery
from .replay import ReplayService

DEFAULT_HOST = "127.0.0.1"


class _DashboardHandler(BaseHTTPRequestHandler):
    """Routes one request; the server instance hangs off ``self.server``."""

    server_version = "repro-dashboard/1"
    protocol_version = "HTTP/1.1"

    # Populated by DashboardServer via a subclass attribute.
    dashboard: "DashboardServer"

    def log_message(self, format: str, *args: Any) -> None:
        if self.dashboard.verbose:
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #

    def _send_bytes(
        self, body: bytes, content_type: str, status: int = 200
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: Dict[str, Any], status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(body, "application/json; charset=utf-8", status)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - the never-500 contract
            try:
                self._send_json({"error": f"{type(exc).__name__}: {exc}"})
            except OSError:
                pass

    def _route(self) -> None:
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        params = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        query = self.dashboard.query
        if path == "/":
            self._send_bytes(
                DASHBOARD_HTML.encode("utf-8"), "text/html; charset=utf-8"
            )
        elif path == "/api/status":
            self._send_json(query.status())
        elif path == "/api/stream":
            self._handle_stream(params)
        elif path == "/api/corpus":
            self._send_json(query.corpus_index())
        elif path.startswith("/api/corpus/"):
            fingerprint = path[len("/api/corpus/"):]
            payload = query.corpus_entry(fingerprint)
            if payload is None:
                self._send_json(
                    {"error": f"no corpus entry {fingerprint!r}"}, status=404
                )
            else:
                self._send_json(payload)
        elif path == "/api/coverage":
            self._send_json(query.coverage())
        elif path == "/api/rankings":
            self._send_json(query.rankings())
        elif path.startswith("/api/replay/"):
            self._handle_replay(path[len("/api/replay/"):], params)
        elif path == "/api/replay-stats":
            self._send_json(self.dashboard.replay.stats())
        elif path == "/metrics":
            self._send_bytes(
                query.prometheus().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json({"error": f"no route {path!r}"}, status=404)

    # ------------------------------------------------------------------ #
    # Endpoint details
    # ------------------------------------------------------------------ #

    @staticmethod
    def _stream_args(params: Dict[str, str]) -> Tuple[int, float]:
        try:
            offset = max(0, int(params.get("offset", 0)))
        except ValueError:
            offset = 0
        try:
            wait = min(max(0.0, float(params.get("wait", 0))), MAX_STREAM_WAIT_S)
        except ValueError:
            wait = 0.0
        return offset, wait

    def _handle_stream(self, params: Dict[str, str]) -> None:
        offset, wait = self._stream_args(params)
        self._send_json(self.dashboard.query.stream(offset=offset, wait=wait))

    def _handle_replay(self, fingerprint: str, params: Dict[str, str]) -> None:
        cca = params.get("cca", "")
        if not cca:
            self._send_json(
                {"error": "missing required query parameter 'cca'"}, status=400
            )
            return
        try:
            payload = self.dashboard.replay.replay(fingerprint, cca)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        if payload is None:
            self._send_json(
                {"error": f"no corpus entry {fingerprint!r}"}, status=404
            )
        else:
            self._send_json(payload)


class DashboardServer:
    """Owns the HTTP server, its worker threads, and the replay service.

    Binding happens in the constructor (``port=0`` picks a free port, read
    it back from :attr:`port`); request handling starts with :meth:`start`.
    Usable as a context manager::

        with DashboardServer(corpus_dir) as server:
            print(server.url)
    """

    def __init__(
        self,
        corpus_dir: str,
        host: str = DEFAULT_HOST,
        port: int = 0,
        backend: Optional[EvaluationBackend] = None,
        verbose: bool = False,
    ) -> None:
        self.corpus_dir = str(corpus_dir)
        self.verbose = verbose
        self.query = DashboardQuery(self.corpus_dir)
        self.replay = ReplayService(self.corpus_dir, backend=backend)
        handler = type("Handler", (_DashboardHandler,), {"dashboard": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "DashboardServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-dashboard",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve loop (the CLI entry point's mode)."""
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.replay.close()
        self.query.close()

    def __enter__(self) -> "DashboardServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
