"""Retrying blocking client for the experiment daemon.

One TCP connection, JSON lines in both directions, no dependencies::

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", 7351) as client:
        client.ping()
        artifact = client.sweep(figure="alpha", samples=2000, points=26)
        stats = client.stats()

Convenience methods raise :class:`ServiceError` on ``ok: false``
responses and return the useful member (the artifact payload, the stats
dict, ...); :meth:`ServiceClient.request` is the raw escape hatch that
returns the full response object either way.

Fault tolerance
---------------

Every daemon op is idempotent (queries are deterministic and
cache-backed), so the convenience methods retry transient transport
failures — connection resets, stalls past the socket timeout, torn
response lines, daemon *busy* answers — under a shared
:class:`~repro.service.retry.RetryPolicy` with deterministic seeded
backoff.  A failed :meth:`request` always marks the connection broken
and drops it, so the next attempt reconnects and resyncs instead of
reading a stale or half-consumed line off the old stream; a response
line that cannot be parsed is treated the same way (never trusted).
:meth:`request` itself stays single-shot for callers that need manual
control.  Non-transient failures (:class:`ServiceError` answers from
the daemon) propagate immediately.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, Mapping, Optional

from .retry import RetryPolicy, TransientServiceError


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false``; the message is its ``error``."""


class ServiceBusyError(ServiceError, TransientServiceError):
    """The daemon answered *busy* (``retryable: true``) — try again."""


#: Default client policy: three attempts, 50 ms seeded-jitter backoff.
DEFAULT_CLIENT_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.05)


class ServiceClient:
    """A persistent JSON-lines connection to one daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7351,
                 timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        self._sock: Optional[socket.socket] = None
        self._file = None

    def connect(self) -> "ServiceClient":
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
            self._file = self._sock.makefile("rwb")
        return self

    def close(self) -> None:
        """Drop the connection; idempotent and exception-safe.

        The socket is closed even if flushing the buffered file raises,
        and a second :meth:`close` is a no-op.
        """
        file, sock = self._file, self._sock
        self._file = None
        self._sock = None
        try:
            if file is not None:
                file.close()
        except OSError:
            pass
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, request: Mapping[str, object]) -> Dict[str, object]:
        """Send one request object, return the full response object.

        Single-shot: transport failures raise after marking the
        connection broken (closed), so the *next* call reconnects and
        resyncs rather than reading a stale line.  Use the convenience
        wrappers for automatic retries.
        """
        self.connect()
        try:
            # One write per line: a newline sent apart from the body waits
            # out Nagle plus the peer's delayed ACK once the line exceeds
            # the file's buffer.
            self._file.write((json.dumps(dict(request), separators=(",", ":"))
                              + "\n").encode("utf-8"))
            self._file.flush()
            line = self._file.readline()
        except OSError:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionError("daemon closed the connection")
        if not line.endswith(b"\n"):
            self.close()
            raise ConnectionError(
                f"truncated daemon response ({len(line)} bytes, no newline)")
        try:
            response = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            self.close()
            raise ConnectionError(
                f"malformed daemon response line: {error}") from error
        if not isinstance(response, dict):
            self.close()
            raise ConnectionError(f"malformed daemon response: {response!r}")
        return response

    def _checked(self, request: Mapping[str, object]) -> Dict[str, object]:
        def attempt() -> Dict[str, object]:
            response = self.request(request)
            if not response.get("ok"):
                error = str(response.get("error", "unknown error"))
                if response.get("retryable"):
                    raise ServiceBusyError(error)
                raise ServiceError(error)
            return response

        return self.retry.call(attempt)

    # -- convenience wrappers -------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self._checked({"op": "ping"})

    def stats(self) -> Dict[str, object]:
        return self._checked({"op": "stats"})["stats"]

    def health(self) -> Dict[str, object]:
        """The daemon's degradation snapshot (cache tier, failures, load)."""
        return self._checked({"op": "health"})["health"]

    def sweep(self, **params) -> Dict[str, object]:
        """Run a figure sweep; returns the ``repro.experiment/1`` artifact."""
        return self._checked({"op": "sweep", **params})["artifact"]

    def replay(self, **params) -> Dict[str, object]:
        """Run a controller replay; returns the ``kind="replay"`` artifact."""
        return self._checked({"op": "replay", **params})["artifact"]

    def artifacts(self) -> list:
        """Names of the artifacts the daemon can serve."""
        return list(self._checked({"op": "artifact"})["artifacts"])

    def artifact(self, name: str) -> Dict[str, object]:
        """Fetch one stored artifact by name."""
        return self._checked({"op": "artifact", "name": name})["artifact"]
