"""Closed-loop HTTP client for ``POST /recover/batch``.

One thread drives every connection through a selector: each client
owns one keep-alive connection and sends its next request only after
the previous response has fully arrived, which models a DUE handler
per core that blocks until its recovery returns.  Request bodies are
encoded before the clock starts, and responses are kept as bytes until
it stops; nothing is parsed inside the measured window beyond the
status line and ``Content-Length``.  A resent request's response is
only compared byte for byte with the first response to it, so a
hot-set run does not hold thousands of identical bodies.

Every request carries an ``X-Request-Id`` header (in traced and
untraced runs alike), so the traced service can key its spans by the
same id the client times.
"""

from __future__ import annotations

import selectors
import socket
import time
from dataclasses import dataclass, field

from inputs import Request

#: A response that takes longer than this fails the run.
_STALL_S = 30.0


@dataclass
class Exchange:
    """One measured request/response."""

    request_id: int
    client: int
    request: Request
    #: Position of the request in its client's cycle (repeats in hot-set).
    slot: int
    sent_ns: int
    done_ns: int = 0
    status: int = 0
    #: Response body; ``None`` when it equals the first response to the
    #: same slot byte for byte (hot-set resends identical bodies).
    body: bytes | None = None
    body_bytes: int = 0


@dataclass
class LoadResult:
    exchanges: list[Exchange] = field(default_factory=list)
    #: First response body per (client, slot), for repeated requests.
    first_bodies: dict[tuple[int, int], bytes] = field(default_factory=dict)
    start_ns: int = 0
    end_ns: int = 0
    #: True when clients cycle through (and so resend) their requests.
    repeats: bool = False
    exhausted: bool = False

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Connection:
    def __init__(self, port: int, client: int) -> None:
        self.client = client
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=_STALL_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.head = (
            f"POST /recover/batch HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self.buffer = bytearray()
        self.expected = -1
        self.status = 0
        self.header_end = 0
        self.current: Exchange | None = None

    def send(self, exchange: Exchange) -> None:
        body = exchange.request.body
        self.current = exchange
        self.buffer.clear()
        self.expected = -1
        exchange.sent_ns = time.perf_counter_ns()
        self.sock.sendall(
            b"%s%d\r\nX-Request-Id: %d\r\n\r\n%s"
            % (self.head, len(body), exchange.request_id, body)
        )

    def receive(self) -> bool:
        """Read what is available; True once the response is complete."""
        chunk = self.sock.recv(262144)
        if not chunk:
            raise ConnectionError("service closed the connection")
        self.buffer += chunk
        if self.expected < 0:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return False
            head = bytes(self.buffer[:end]).split(b"\r\n")
            self.status = int(head[0].split(b" ", 2)[1])
            length = None
            for line in head[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if length is None:
                raise ConnectionError("response without Content-Length")
            self.header_end = end + 4
            self.expected = self.header_end + length
        return len(self.buffer) >= self.expected

    def close(self) -> None:
        self.sock.close()


class ClosedLoop:
    """One keep-alive connection per client, driven in closed loops."""

    def __init__(self, port: int, clients: int) -> None:
        self._connections: list[_Connection] = []
        try:
            for index in range(clients):
                self._connections.append(_Connection(port, index))
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        for connection in self._connections:
            connection.close()

    def warm(self, warmup: list[list[Request]]) -> None:
        """Send each client's warm-up requests, one at a time, untimed."""
        for connection, requests in zip(self._connections, warmup):
            for request in requests:
                connection.send(Exchange(0, connection.client, request, -1, 0))
                while not connection.receive():
                    pass
                if connection.status != 200:
                    raise ConnectionError(
                        f"warm-up request answered {connection.status}"
                    )

    def measure(
        self,
        streams: list[list[Request]],
        seconds: float,
        cycle: bool,
    ) -> LoadResult:
        """Drive one closed loop per stream for *seconds*.

        With *cycle* a client restarts its stream when it reaches the
        end (hot-set); otherwise a client whose stream runs out stops,
        and the result is marked ``exhausted``.  Requests in flight at
        the deadline are awaited and counted.
        """
        result = LoadResult(repeats=cycle)
        positions = [0] * len(streams)
        next_id = 1  # warm-up requests carry id 0
        selector = selectors.DefaultSelector()

        def send_next(connection: _Connection) -> bool:
            nonlocal next_id
            stream = streams[connection.client]
            position = positions[connection.client]
            if position >= len(stream):
                if not cycle:
                    result.exhausted = True
                    return False
                position = 0
            positions[connection.client] = position + 1
            exchange = Exchange(
                next_id, connection.client, stream[position], position, 0
            )
            next_id += 1
            connection.send(exchange)
            return True

        try:
            result.start_ns = time.perf_counter_ns()
            deadline = result.start_ns + int(seconds * 1e9)
            for connection in self._connections:
                if send_next(connection):
                    selector.register(
                        connection.sock, selectors.EVENT_READ, connection
                    )
            while selector.get_map():
                events = selector.select(timeout=_STALL_S)
                if not events:
                    raise TimeoutError(f"no response within {_STALL_S} s")
                for key, _ in events:
                    connection = key.data
                    if not connection.receive():
                        continue
                    done_ns = time.perf_counter_ns()
                    self._finish(result, connection, done_ns)
                    if done_ns >= deadline or not send_next(connection):
                        selector.unregister(connection.sock)
        finally:
            selector.close()
        return result

    @staticmethod
    def _finish(
        result: LoadResult, connection: _Connection, done_ns: int
    ) -> None:
        exchange = connection.current
        exchange.done_ns = done_ns
        exchange.status = connection.status
        body = bytes(connection.buffer[connection.header_end:connection.expected])
        exchange.body_bytes = len(body)
        slot_key = (exchange.client, exchange.slot)
        first = result.first_bodies.get(slot_key)
        if first is None:
            result.first_bodies[slot_key] = body
            exchange.body = body
        elif body != first:
            exchange.body = body
        result.exchanges.append(exchange)
        result.end_ns = done_ns
