"""Stdlib-only concurrent JSON-lines TCP server over a CacheMindService.

Protocol: newline-delimited JSON, many requests per connection, one thread
per connection (see the :mod:`repro.serve` package docstring for the full
request/response shapes).  All handlers funnel into one shared
:class:`~repro.serve.service.CacheMindService`, so remote answers are
byte-identical to in-process ones.

Resilience contract:

* **Structured errors** — every ``{"ok": false}`` reply carries a ``kind``
  (``bad_request``, ``overloaded``, ``shutting_down``, ``deadline``,
  ``internal``) so clients can tell "retry this" from "fix your request".
* **Admission control** — at most ``max_in_flight`` requests execute at
  once; excess requests are shed immediately with ``kind="overloaded"``
  instead of piling up threads behind the serving lock.
* **Per-op deadlines** — requests may carry ``deadline_ms``; one that
  expires while queued is answered ``kind="deadline"`` rather than
  executing arbitrarily late.
* **Health** — the ``health`` op reports degradation state (in-flight
  load, shed/deadline counters, draining flag) and is exempt from
  admission control, so probes answer even while the server is saturated.
* **Graceful drain** — :meth:`CacheMindServer.close` stops accepting new
  connections, refuses new requests with ``kind="shutting_down"``, waits
  for in-flight requests to finish (bounded by ``drain_timeout``), and
  warns instead of silently returning if the serving thread is wedged.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
import warnings
from typing import Any, Dict, Optional, Tuple

from repro.errors import DeadlineExceededError, UnknownNameError
from repro.serve.service import CacheMindService

#: protocol-level cap on one request line; a malformed client streaming an
#: unterminated line must not buffer unbounded memory server-side.
MAX_LINE_BYTES = 1 << 20

#: error kinds a server reply may carry.
ERROR_KINDS = ("bad_request", "overloaded", "shutting_down", "deadline",
               "internal")


class _AskRequestHandler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines until EOF, answer each in order.

    ``self.server`` is the :class:`_ThreadingTCPServer`, which carries a
    ``dispatch_line`` callback back into the owning :class:`CacheMindServer`.
    """

    def handle(self) -> None:
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not line:
                return
            if len(line) > MAX_LINE_BYTES:
                self._reply({"ok": False, "kind": "bad_request",
                             "error": f"request line exceeds "
                                      f"{MAX_LINE_BYTES} bytes"})
                return
            if not line.strip():
                continue
            self._reply(self.server.dispatch_line(line))

    def _reply(self, payload: Dict[str, Any]) -> None:
        self.wfile.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.wfile.flush()


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    # daemon_threads: an open (idle) client connection must never block
    # server shutdown or process exit; allow_reuse_address: restarts bind
    # immediately instead of waiting out TIME_WAIT.
    daemon_threads = True
    allow_reuse_address = True


class CacheMindServer:
    """Serve a :class:`CacheMindService` over newline-delimited JSON/TCP.

        >>> server = CacheMindServer(service, host="127.0.0.1", port=0)
        >>> host, port = server.address          # port resolved after bind
        >>> server.start()                       # background thread
        ...
        >>> server.close()

    ``serve_forever()`` runs in the calling thread (the CLI path);
    ``start()`` spawns a daemon thread (tests, embedding into another
    application).  Both are stopped by :meth:`close`, which drains
    gracefully: in-flight requests finish (up to ``drain_timeout``
    seconds) while new work is refused with structured errors.
    """

    def __init__(self, service: CacheMindService,
                 host: str = "127.0.0.1", port: int = 0,
                 max_in_flight: int = 32, drain_timeout: float = 10.0):
        self.service = service
        self.max_in_flight = max(1, int(max_in_flight))
        self.drain_timeout = drain_timeout
        self._tcp = _ThreadingTCPServer((host, port), _AskRequestHandler)
        # Hand the handler a route back to dispatch via the server object.
        self._tcp.dispatch_line = self.dispatch_line  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._lifecycle_lock = threading.Lock()
        self._serving = threading.Event()
        self._closed = False
        # Admission-control state: _idle wraps the same lock so drain can
        # wait for the in-flight count to reach zero.
        self._state_lock = threading.Lock()
        self._idle = threading.Condition(self._state_lock)
        self._in_flight = 0
        self._draining = False
        self._shed = 0
        self._deadline_rejects = 0
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (the real port when created with 0)."""
        host, port = self._tcp.server_address[:2]
        return host, port

    # ------------------------------------------------------------------
    # request dispatch (transport-independent, also used by tests)
    # ------------------------------------------------------------------
    def dispatch_line(self, line: bytes) -> Dict[str, Any]:
        """Decode one request line and produce the response payload."""
        try:
            payload = json.loads(line)
        except (ValueError, UnicodeDecodeError) as error:
            return {"ok": False, "kind": "bad_request",
                    "error": f"malformed JSON request: {error}"}
        if not isinstance(payload, dict):
            return {"ok": False, "kind": "bad_request",
                    "error": "request must be a JSON object"}
        op = payload.get("op", "ask")
        # Liveness/health probes bypass admission control and draining:
        # they must answer precisely when the server is degraded, and they
        # never touch the serving lock.
        if op == "ping":
            return {"ok": True,
                    "result": {"pong": True, "server": "cachemind"}}
        if op == "health":
            return {"ok": True, "result": self.health()}
        try:
            deadline_at = self._deadline_at(payload)
        except ValueError as error:
            return {"ok": False, "kind": "bad_request",
                    "error": str(error)}
        with self._state_lock:
            if self._draining:
                return {"ok": False, "kind": "shutting_down",
                        "error": "server is shutting down; retry against "
                                 "a restarted server"}
            if self._in_flight >= self.max_in_flight:
                self._shed += 1
                return {"ok": False, "kind": "overloaded",
                        "error": f"server overloaded "
                                 f"({self._in_flight} requests in flight, "
                                 f"capacity {self.max_in_flight}); retry "
                                 f"with backoff",
                        "retry_after_ms": 50}
            self._in_flight += 1
        try:
            if deadline_at is not None and time.monotonic() >= deadline_at:
                with self._state_lock:
                    self._deadline_rejects += 1
                return {"ok": False, "kind": "deadline",
                        "error": "request deadline expired before "
                                 "execution"}
            try:
                return {"ok": True,
                        "result": self._dispatch(payload, deadline_at)}
            except DeadlineExceededError as error:
                with self._state_lock:
                    self._deadline_rejects += 1
                return {"ok": False, "kind": "deadline",
                        "error": str(error)}
            except (UnknownNameError, ValueError, TypeError,
                    KeyError) as error:
                # Configuration/validation errors belong to the client; the
                # connection (and server) stay up.
                return {"ok": False, "kind": "bad_request",
                        "error": f"{type(error).__name__}: {error}"}
            except Exception as error:  # noqa: BLE001 — protocol contract
                # The documented contract is that errors never kill the
                # connection: an unexpected service failure must still
                # produce an {"ok": false} reply rather than a silent
                # hangup.
                return {"ok": False, "kind": "internal",
                        "error": f"internal error: "
                                 f"{type(error).__name__}: {error}"}
        finally:
            with self._idle:
                self._in_flight -= 1
                self._idle.notify_all()

    @staticmethod
    def _deadline_at(payload: Dict[str, Any]) -> Optional[float]:
        """Resolve a request's ``deadline_ms`` to a monotonic instant."""
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is None:
            return None
        if (isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))):
            raise ValueError("'deadline_ms' must be a number of "
                             "milliseconds")
        return time.monotonic() + max(0.0, float(deadline_ms)) / 1000.0

    def _dispatch(self, payload: Dict[str, Any],
                  deadline_at: Optional[float] = None) -> Any:
        op = payload.get("op", "ask")
        if op == "stats":
            return self.service.stats()
        if op == "ask":
            question = payload.get("question")
            if not isinstance(question, str) or not question.strip():
                raise ValueError("'ask' needs a non-empty 'question' string")
            response = self.service.ask_batch(
                [_request(payload, question)], deadline_at=deadline_at)[0]
            return _with_server_meta(response.to_dict())
        if op == "batch":
            questions = payload.get("questions")
            if (not isinstance(questions, list) or not questions
                    or not all(isinstance(question, str)
                               for question in questions)):
                raise ValueError("'batch' needs a non-empty 'questions' "
                                 "list of strings")
            retriever = payload.get("retriever")
            if retriever is not None and not isinstance(retriever, str):
                raise ValueError("'retriever' must be a registered name "
                                 "string")
            responses = self.service.ask_batch(questions,
                                               retriever=retriever,
                                               deadline_at=deadline_at)
            return [_with_server_meta(response.to_dict())
                    for response in responses]
        if op == "experiment":
            spec = payload.get("spec")
            if not isinstance(spec, dict):
                raise ValueError("'experiment' needs a 'spec' object "
                                 "(ExperimentSpec.to_dict form)")
            # No transport metadata is added: the result dictionary must
            # stay byte-identical to the in-process to_dict() so remote
            # and local cell tables compare equal.
            return self.service.run_experiment(spec).to_dict()
        if op == "query":
            fingerprint = payload.get("fingerprint")
            if not isinstance(fingerprint, str) or not fingerprint:
                raise ValueError("'query' needs a 'fingerprint' string "
                                 "(a unique prefix is enough)")
            query = payload.get("query")
            if not isinstance(query, dict):
                raise ValueError("'query' needs a 'query' object "
                                 "(Query.to_dict form)")
            # Older clients always send "backend": "stdlib"; it is the one
            # executor, so that value is accepted and any other rejected.
            backend = payload.get("backend", "stdlib")
            if backend != "stdlib":
                raise ValueError(f"unknown analytics backend {backend!r}; "
                                 "only 'stdlib' is supported")
            full, table = self.service.query_experiment(fingerprint, query)
            # Columns ride verbatim (no transport metadata) so the remote
            # result table compares byte-identical to an in-process run.
            return {"fingerprint": full, "columns": table.to_dict()}
        raise ValueError(f"unknown op {op!r}; supported: ask, batch, "
                         f"experiment, query, stats, health, ping")

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Degradation snapshot; never blocks on the serving lock."""
        with self._state_lock:
            in_flight = self._in_flight
            draining = self._draining
            shed = self._shed
            deadline_rejects = self._deadline_rejects
        if draining:
            status = "draining"
        elif in_flight >= self.max_in_flight:
            status = "overloaded"
        else:
            status = "ok"
        return {
            "status": status,
            "draining": draining,
            "in_flight": in_flight,
            "capacity": self.max_in_flight,
            "shed": shed,
            "deadline_rejects": deadline_rejects,
            "uptime_seconds": time.monotonic() - self._started_at,
            # Cache counters expose degradation (e.g. store writes failing
            # shows up as store_hits flatlining); the cache lock is
            # independent of the serving lock, so this stays responsive
            # while requests execute.
            "simulation_cache": self.service.session.simulation_cache.stats(),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`close` (CLI path)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._serving.set()
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> "CacheMindServer":
        """Serve on a background daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="cachemind-server",
                daemon=True)
            self._thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new requests and wait for in-flight ones to finish.

        Returns ``True`` when the server went idle within ``timeout``
        (default ``drain_timeout``) seconds, ``False`` otherwise.
        """
        timeout = self.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + max(0.0, timeout)
        with self._idle:
            self._draining = True
            # An already-idle server drains instantly even with timeout=0.
            while self._in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        """Stop serving and release the socket (idempotent, and safe on a
        server that never started serving — ``BaseServer.shutdown`` would
        otherwise wait forever on an event only ``serve_forever`` sets).

        Shutdown is graceful: the accept loop stops (new connections are
        refused), requests arriving on existing connections get
        ``kind="shutting_down"``, and in-flight requests are given
        ``drain_timeout`` seconds to finish before the thread is joined.
        A serving thread that fails to exit within 5s is reported with a
        ``RuntimeWarning`` instead of being silently abandoned.
        """
        with self._lifecycle_lock:
            already_closed = self._closed
            self._closed = True
            started = self._serving.is_set()
        if started:
            self._tcp.shutdown()
        self._tcp.server_close()
        if not already_closed and not self.drain():
            with self._state_lock:
                stuck = self._in_flight
            warnings.warn(
                f"CacheMindServer closed with {stuck} in-flight request(s) "
                f"still running after {self.drain_timeout:.1f}s drain "
                f"timeout", RuntimeWarning, stacklevel=2)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                warnings.warn(
                    "CacheMindServer serving thread did not exit within "
                    "5.0s of shutdown; it is likely wedged in a handler "
                    "(daemon thread, will not block process exit)",
                    RuntimeWarning, stacklevel=2)
            self._thread = None

    def __enter__(self) -> "CacheMindServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _request(payload: Dict[str, Any], question: str):
    from repro.core.plan import AskRequest
    retriever = payload.get("retriever")
    if retriever is not None and not isinstance(retriever, str):
        raise ValueError("'retriever' must be a registered name string")
    request_id = payload.get("id") or payload.get("request_id") or ""
    return AskRequest(question=question, retriever=retriever,
                      request_id=str(request_id))


def _with_server_meta(response_dict: Dict[str, Any]) -> Dict[str, Any]:
    response_dict["server"] = {"transport": "json-lines/tcp"}
    return response_dict
