"""Client for the CacheMind JSON-lines server (``repro ask --remote``).

One persistent TCP connection per client; requests are one JSON object per
line and responses come back in order, so a client can pipeline.  The
client rebuilds :class:`~repro.core.answer.AskResponse` objects from the
wire, so remote callers consume exactly the in-process response type.

Resilience: the protocol is strictly request/response (one line each way),
so an idempotent request that dies mid-flight — connection reset, server
restart, an ``overloaded`` shed — is safe to resend on a fresh connection.
:meth:`RemoteClient.request` does exactly that: capped exponential backoff
with seeded jitter between attempts, automatic reconnect, and an optional
per-request wall-clock deadline that bounds the whole retry loop and rides
to the server as ``deadline_ms`` so both sides give up together.  A server
restart between or during requests is therefore invisible to callers as
long as it comes back within the retry budget.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.answer import AskResponse
from repro.core.experiment import ExperimentResult, ExperimentSpec
from repro.faults import fault_point


class RemoteError(RuntimeError):
    """The server answered ``{"ok": false, ...}`` for a request.

    ``kind`` is the server's structured error class (``bad_request``,
    ``overloaded``, ``shutting_down``, ``deadline``, ``internal`` — or
    ``"error"`` for pre-``kind`` servers).
    """

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


class ServerOverloadedError(RemoteError):
    """The server shed this request at admission (``kind="overloaded"``).

    Retryable by definition: the request never started executing."""

    def __init__(self, message: str, kind: str = "overloaded"):
        super().__init__(message, kind)


class ServerShuttingDownError(RemoteError):
    """The server is draining and refused the request
    (``kind="shutting_down"``).  Safe to retry against a restarted server."""

    def __init__(self, message: str, kind: str = "shutting_down"):
        super().__init__(message, kind)


class DeadlineExceeded(RemoteError):
    """A request's wall-clock deadline expired (client- or server-side)."""

    def __init__(self, message: str, kind: str = "deadline"):
        super().__init__(message, kind)


#: Server error kinds that are safe to retry for idempotent requests.
RETRYABLE_KINDS = ("overloaded", "shutting_down")

_KIND_TO_ERROR = {
    "overloaded": ServerOverloadedError,
    "shutting_down": ServerShuttingDownError,
    "deadline": DeadlineExceeded,
}


def parse_address(address: str,
                  default_port: int = 9178) -> Tuple[str, int]:
    """Split ``"host:port"`` (port optional) into ``(host, port)``."""
    if not address:
        raise ValueError("empty server address")
    host, _, port_text = address.rpartition(":")
    if not host:
        return address, default_port
    try:
        return host, int(port_text)
    except ValueError:
        raise ValueError(f"malformed server address {address!r}; "
                         f"expected HOST or HOST:PORT") from None


class RemoteClient:
    """Talk to a :class:`~repro.serve.server.CacheMindServer`.

        >>> with RemoteClient("127.0.0.1", 9178) as client:
        ...     response = client.ask("What is the miss rate of lru on astar?")
        ...     print(response.answer)

    The connection opens lazily on the first request and is reused; use the
    context-manager form (or :meth:`close`) to release it.

    ``retries`` bounds resends of idempotent requests after transport
    failures or retryable server errors; ``backoff_base``/``backoff_cap``
    shape the exponential backoff between attempts (jittered by an RNG
    seeded with ``retry_seed``, so chaos tests are reproducible).
    ``deadline`` (seconds) is a default per-request wall-clock budget;
    individual calls may override it.
    """

    def __init__(self, host: str, port: Optional[int] = None,
                 timeout: float = 60.0, retries: int = 3,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 deadline: Optional[float] = None,
                 retry_seed: Optional[int] = None):
        if port is None:
            host, port = parse_address(host)
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self.retries_used = 0
        self._rng = random.Random(retry_seed)
        self._sock: Optional[socket.socket] = None
        self._reader = None

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout)
            self._reader = self._sock.makefile("rb")

    def close(self) -> None:
        """Close the connection (idempotent); the next request reconnects."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def request(self, payload: Dict[str, Any], idempotent: bool = True,
                deadline: Optional[float] = None) -> Any:
        """Send one protocol request; returns the ``result`` payload.

        Idempotent requests are retried (with reconnect + jittered backoff)
        after transport failures and retryable server errors, up to
        ``self.retries`` resends or the request deadline, whichever comes
        first.  Raises :class:`RemoteError` (or a subclass carrying the
        structured ``kind``) on a final ``ok: false`` reply, the underlying
        ``OSError``/``ConnectionError`` when the transport stays broken, and
        :class:`DeadlineExceeded` when the deadline expires mid-retry.
        """
        budget = self.deadline if deadline is None else deadline
        deadline_at = (None if budget is None
                       else time.monotonic() + budget)
        last_error: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.retries_used += 1
                delay = min(self.backoff_cap,
                            self.backoff_base * (2 ** (attempt - 1)))
                delay *= 0.5 + 0.5 * self._rng.random()
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= delay:
                        raise DeadlineExceeded(
                            f"request deadline ({budget:.3f}s) expired after "
                            f"{attempt} attempt(s); last error: "
                            f"{last_error!r}") from last_error
                time.sleep(delay)
            try:
                return self._attempt(payload, deadline_at, budget)
            except RemoteError as error:
                retryable = (idempotent and error.kind in RETRYABLE_KINDS
                             and attempt < self.retries)
                if not retryable:
                    raise
                if error.kind == "shutting_down":
                    # The connection belongs to a dying server; dial fresh
                    # so the retry can reach its restarted replacement.
                    self.close()
                last_error = error
            except (OSError, ValueError) as error:
                # OSError covers ConnectionError/TimeoutError/socket resets;
                # ValueError is a non-protocol reply (connection already
                # dropped by _attempt, so a resend starts clean).
                self.close()
                if not idempotent or attempt >= self.retries:
                    raise
                last_error = error
        raise RemoteError(f"request failed after {self.retries + 1} "
                          f"attempts: {last_error!r}")  # pragma: no cover

    def _attempt(self, payload: Dict[str, Any],
                 deadline_at: Optional[float],
                 budget: Optional[float]) -> Any:
        self._connect()
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"request deadline ({budget:.3f}s) expired before send")
            payload = dict(payload)
            payload.setdefault("deadline_ms", max(1, int(remaining * 1000)))
            self._sock.settimeout(min(self.timeout, remaining))
        try:
            fault_point("socket.send")
            self._sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            fault_point("socket.recv")
            line = self._reader.readline()
        except OSError:
            self.close()
            raise
        finally:
            if deadline_at is not None and self._sock is not None:
                self._sock.settimeout(self.timeout)
        if not line:
            self.close()
            raise ConnectionError(
                f"server at {self.host}:{self.port} closed the connection")
        try:
            reply = json.loads(line)
        except ValueError:
            # A non-protocol peer: drop the connection rather than leave
            # the rest of its reply buffered to desynchronize later calls.
            self.close()
            raise
        if not reply.get("ok"):
            kind = reply.get("kind", "error")
            message = reply.get("error", "unknown server error")
            raise _KIND_TO_ERROR.get(kind, RemoteError)(message, kind)
        return reply.get("result")

    # ------------------------------------------------------------------
    # high-level API (mirrors CacheMindService)
    # ------------------------------------------------------------------
    def ask(self, question: str, retriever: Optional[str] = None,
            request_id: str = "",
            deadline: Optional[float] = None) -> AskResponse:
        """Ask one question; returns the rebuilt :class:`AskResponse`."""
        result = self.request({"op": "ask", "question": question,
                               "retriever": retriever, "id": request_id},
                              deadline=deadline)
        return AskResponse.from_dict(result)

    def ask_batch(self, questions: Sequence[str],
                  retriever: Optional[str] = None,
                  deadline: Optional[float] = None) -> List[AskResponse]:
        """Ask a batch in one round trip (server-side job dedup applies)."""
        result = self.request({"op": "batch", "questions": list(questions),
                               "retriever": retriever}, deadline=deadline)
        return [AskResponse.from_dict(item) for item in result]

    def experiment(self, spec: Union[ExperimentSpec, Dict[str, Any]],
                   deadline: Optional[float] = None) -> ExperimentResult:
        """Run a declarative sweep grid server-side (one round trip).

        ``spec`` is an :class:`ExperimentSpec` or its ``to_dict`` payload;
        the rebuilt :class:`ExperimentResult` is cell-for-cell identical to
        running the same spec in-process against the server's session.
        """
        payload = spec.to_dict() if isinstance(spec, ExperimentSpec) else dict(spec)
        result = self.request({"op": "experiment", "spec": payload},
                              deadline=deadline)
        return ExperimentResult.from_dict(result)

    def query(self, fingerprint: str,
              query: Union[Dict[str, Any], "object"],
              deadline: Optional[float] = None):
        """Run a declarative analytics query against a store-backed
        experiment result on the server, without shipping the whole table.

        ``fingerprint`` may be a unique prefix of the stored experiment's
        fingerprint; ``query`` is a :class:`repro.analytics.Query` (or its
        ``to_dict`` wire form) over the experiment's ``cells`` table.
        Returns the result :class:`~repro.tracedb.table.Table`,
        byte-identical to running the same query in-process on the server's
        store.
        """
        from repro.analytics import as_query
        from repro.tracedb.table import Table

        payload = as_query(query).to_dict()
        result = self.request({"op": "query", "fingerprint": fingerprint,
                               "query": payload},
                              deadline=deadline)
        return Table.from_columns(result["columns"])

    def stats(self) -> Dict[str, Any]:
        """The server's serving-telemetry snapshot."""
        return self.request({"op": "stats"})

    def health(self) -> Dict[str, Any]:
        """The server's degradation snapshot (always answered, even while
        the server is overloaded or draining)."""
        return self.request({"op": "health"})

    def ping(self) -> bool:
        """Whether the server answers the protocol ping."""
        try:
            result = self.request({"op": "ping"}, idempotent=False)
        except (OSError, ValueError, RemoteError):
            return False
        return bool(result and result.get("pong"))

    # ------------------------------------------------------------------
    @staticmethod
    def wait_ready(host: str, port: Optional[int] = None,
                   timeout: float = 30.0, interval: float = 0.1) -> bool:
        """Poll until a server accepts and answers ping (startup helper).

        Each attempt uses a fresh connection, so this works while the
        server is still binding, with exponential backoff between probes
        (starting at ``interval``, capped at 2s).  Returns ``True`` once
        ready; raises ``ConnectionError`` carrying the last probe failure
        on timeout.
        """
        if port is None:
            host, port = parse_address(host)
        deadline = time.monotonic() + timeout
        delay = max(0.01, interval)
        last_error: Optional[BaseException] = None
        while True:
            try:
                with RemoteClient(host, port, timeout=delay + 1.0,
                                  retries=0) as probe:
                    result = probe.request({"op": "ping"}, idempotent=False)
                    if result and result.get("pong"):
                        return True
                    last_error = RemoteError(
                        f"peer at {host}:{port} answered but is not a "
                        f"CacheMind server")
            except (OSError, ValueError, RemoteError) as error:
                last_error = error
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ConnectionError(
                    f"no server became ready at {host}:{port} within "
                    f"{timeout:.1f}s (last error: {last_error!r})"
                ) from last_error
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 2.0)
