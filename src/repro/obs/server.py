"""A zero-dependency HTTP endpoint serving live observability state.

:class:`ObsServer` wraps a stdlib :class:`~http.server.ThreadingHTTPServer`
on a daemon thread so a long sweep can be watched *while it runs*:

- ``GET /metrics`` — OpenMetrics text (:mod:`repro.obs.promtext`);
  snapshot collectors run on every scrape, so derived gauges are fresh.
- ``GET /metrics.json`` — the same snapshot as JSON.
- ``GET /events?limit=N`` — the newest *N* retained DUE events as
  JSON lines (default: all retained).  ``limit`` must be a positive
  integer; anything else is a 400 with a JSON error body.
- ``GET /spans`` — per-stage latency summary when tracing is enabled;
  ``?format=json`` returns the retained raw spans as nested JSON
  trees instead of the text-oriented aggregate.
- ``GET /traces?limit=N`` — the slowest retained request traces
  (full span trees, slowest first), from the collector's bounded
  slow-request buffer.  Same ``limit`` validation as ``/events``.
- ``GET /healthz`` — liveness probe (:meth:`ObsServer.healthz`).

Every endpoint reads the process's current registry, event log and
span collector: components record to the ones that were current when
they were built, so tests and embedders swap in private ones with
:func:`~repro.obs.metrics.set_registry` and
:func:`~repro.obs.events.set_event_log` *before* building anything.

Subclasses add routes through :attr:`ObsServer.handler_class` and
report their own state from :meth:`ObsServer.healthz`; the recovery
service (:class:`repro.service.server.RecoveryService`) is one.

The server binds ``127.0.0.1`` by default (observability data includes
memory contents; do not expose it beyond the host without a reason) and
supports ``port=0`` so tests bind an ephemeral port and read
:attr:`ObsServer.port` back.  Serving is read-only and touches shared
state only through snapshot APIs, so it never perturbs sweep results.
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from threading import Thread
from urllib.parse import parse_qs, urlparse

from repro.errors import ObservabilityError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import promtext
from repro.obs import trace as obs_trace

__all__ = ["ObsServer"]

_log = logging.getLogger("repro.obs.server")
_log.addHandler(logging.NullHandler())

#: Seconds between ``serve_forever``'s checks for a shutdown request:
#: :meth:`ObsServer.stop` waits up to this long.  The stdlib default,
#: 0.5 s, made every stop cost about half a second.
_POLL_INTERVAL_S = 0.05


class _ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests to the shared endpoints of the owning
    :class:`ObsServer` (``self.server.obs``)."""

    server_version = "repro-obs/1.0"
    # Keep scrape round-trips off the Nagle/delayed-ACK path.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        obs: ObsServer = self.server.obs  # type: ignore[attr-defined]
        url = urlparse(self.path)
        try:
            route = _ROUTES.get(url.path)
            if route is None:
                self._reply(404, "text/plain; charset=utf-8",
                            f"no such endpoint: {url.path}\n")
                return
            status, content_type, body = route(obs, parse_qs(url.query))
            self._reply(status, content_type, body)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass
        except Exception as error:  # pragma: no cover - defensive
            self._reply(500, "text/plain; charset=utf-8", f"{error}\n")

    def _reply(
        self,
        status: int,
        content_type: str,
        body: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: object) -> None:
        # Route http.server's stderr chatter to the repro logger instead.
        _log.debug("%s %s", self.address_string(), format % args)


def _endpoint_metrics(obs: "ObsServer", query) -> tuple[int, str, str]:
    return 200, promtext.CONTENT_TYPE, promtext.render()


def _endpoint_metrics_json(obs: "ObsServer", query) -> tuple[int, str, str]:
    registry = obs_metrics.get_registry()
    body = json.dumps(registry.as_dict(), sort_keys=True, indent=2)
    return 200, "application/json", body + "\n"


def _endpoint_events(obs: "ObsServer", query) -> tuple[int, str, str]:
    events = obs_events.get_event_log().events()
    limit, error = _parse_limit(query)
    if error is not None:
        return 400, "application/json", error
    if limit is not None:
        events = events[len(events) - min(limit, len(events)):]
    lines = [json.dumps(e.to_dict(), sort_keys=True) for e in events]
    return 200, "application/x-ndjson", "\n".join(lines) + ("\n" if lines else "")


def _parse_limit(query) -> tuple[int | None, str | None]:
    """Validate a ``?limit=N`` query: (limit, error-body-or-None)."""
    raw_limit = query.get("limit", [None])[0]
    if raw_limit is None:
        return None, None
    try:
        limit = int(raw_limit)
    except ValueError:
        limit = 0  # non-numeric: rejected below alongside <= 0
    if limit < 1:
        body = json.dumps({
            "error": f"bad limit: {raw_limit!r} "
            "(must be a positive integer)"
        })
        return None, body + "\n"
    return limit, None


def _endpoint_spans(obs: "ObsServer", query) -> tuple[int, str, str]:
    collector = obs_trace.current_collector()
    fmt = query.get("format", ["summary"])[0]
    if fmt == "json":
        spans = collector.spans if collector is not None else ()
        body = {
            "tracing": collector is not None,
            "span_count": len(spans),
            "dropped": collector.dropped if collector is not None else 0,
            "spans": obs_trace.spans_to_forest(spans),
        }
    elif fmt == "summary":
        body = {
            "tracing": collector is not None,
            "stages": collector.summary() if collector is not None else {},
        }
    else:
        error = json.dumps({
            "error": f"bad format: {fmt!r} (must be 'summary' or 'json')"
        })
        return 400, "application/json", error + "\n"
    return 200, "application/json", json.dumps(body, sort_keys=True) + "\n"


def _endpoint_traces(obs: "ObsServer", query) -> tuple[int, str, str]:
    limit, error = _parse_limit(query)
    if error is not None:
        return 400, "application/json", error
    collector = obs_trace.current_collector()
    entries = (
        collector.traces.slowest(limit) if collector is not None else []
    )
    body = {
        "tracing": collector is not None,
        "count": len(entries),
        "traces": [entry.as_dict() for entry in entries],
    }
    return 200, "application/json", json.dumps(body, sort_keys=True) + "\n"


def _endpoint_healthz(obs: "ObsServer", query) -> tuple[int, str, str]:
    return obs.healthz()


_ROUTES = {
    "/metrics": _endpoint_metrics,
    "/metrics.json": _endpoint_metrics_json,
    "/events": _endpoint_events,
    "/spans": _endpoint_spans,
    "/traces": _endpoint_traces,
    "/healthz": _endpoint_healthz,
}


class ObsServer:
    """Serve the process's observability state over HTTP.

    Parameters
    ----------
    host:
        Bind address (default loopback).
    port:
        TCP port; 0 picks an ephemeral port (read :attr:`port` after
        :meth:`start`).
    """

    #: Handler class bound at :meth:`start`; subclasses that serve more
    #: routes extend :class:`_ObsRequestHandler`.
    handler_class: type[_ObsRequestHandler] = _ObsRequestHandler

    def __init__(self, host: str = "127.0.0.1", port: int = 9100) -> None:
        self._host = host
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: Thread | None = None

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound TCP port (resolves port 0 after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self._host}:{self.port}"

    def healthz(self) -> tuple[int, str, str]:
        """``GET /healthz`` as (status, content type, body); subclasses
        report their own state."""
        return 200, "application/json", '{"status": "ok"}\n'

    def start(self) -> "ObsServer":
        """Bind and serve on a daemon thread; returns ``self``."""
        if self._httpd is not None:
            raise ObservabilityError("ObsServer is already running")
        httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), self.handler_class
        )
        httpd.daemon_threads = True
        httpd.obs = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = Thread(
            target=httpd.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name=f"repro-obs-server:{self.port}",
            daemon=True,
        )
        self._thread.start()
        _log.info("%s listening on %s", type(self).__name__, self.url)
        return self

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent)."""
        httpd, thread = self._httpd, self._thread
        self._httpd = None
        self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObsServer":
        return self.start() if not self.running else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
