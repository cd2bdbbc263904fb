"""Stdlib-only HTTP serving layer over the results store and live runs.

``python -m repro.runner serve`` binds a :class:`ThreadingHTTPServer`
exposing two kinds of read-only traffic:

* **JSON query endpoints** over a :class:`~repro.store.store.ResultsStore`
  (trends, variance, bench trajectories, fabric snapshots).  Every request
  opens its own read-only sqlite connection — sqlite connections are not
  shareable across the server's request threads, and read-only mode keeps a
  misbehaving client from ever mutating history.
* **an SSE endpoint** (``/v1/live/<run>/events``) that replays and then
  follows a run journal as Server-Sent Events, reusing the incremental
  :func:`~repro.runner.journal.tail_records` reader the fabric coordinator
  uses.  Journal records map onto the session event vocabulary — the
  header becomes ``RunStarted``, each cell record ``CellCompleted``, the
  seal ``RunFinished`` — and the stream closes once the seal is streamed.
  Because journals are appended in strict cell-index order on both the
  serial and sharded paths, the SSE stream inherits that ordering for
  free, and folding the streamed cells reproduces the run's artifact
  byte-for-byte.

Endpoints (all ``GET``):

====================================  =========================================
``/``                                 service index (endpoint table)
``/v1/scenarios``                     per-scenario ingest summary
``/v1/runs``                          stored runs (``?scenario=&mode=``)
``/v1/trend``                         metric trend (``?scenario=&metric=&mode=``
                                      plus group-axis filters)
``/v1/variance``                      per-cell variance by group
``/v1/benches``                       ingested bench families
``/v1/benches/metrics``               dotted metrics of one family (``?name=``)
``/v1/benches/trend``                 one metric's trajectory (``?name=&metric=``)
``/v1/snapshots``                     recorded fabric snapshots
``/v1/live``                          journaled run dirs under ``--runs-dir``
``/v1/live/<run>/events``             SSE stream of one run's journal
====================================  =========================================

Errors are JSON too: ``{"error": ...}`` with 400 (bad query), 404 (unknown
path/run) or 503 (store missing).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Tuple

from repro.exceptions import JournalError, ReproError, StoreError
from repro.runner.harness import GridSpec
from repro.runner.journal import JOURNAL_FILENAME, journal_path, load_journal, tail_records
from repro.store.store import DEFAULT_STORE_PATH, GROUP_AXES, ResultsStore

#: Default bind address: loopback only — the store is unauthenticated.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8742

ENDPOINTS = (
    ("/", "service index"),
    ("/v1/scenarios", "per-scenario ingest summary"),
    ("/v1/runs", "stored runs; ?scenario=&mode="),
    ("/v1/trend", "metric trend; ?scenario=&metric=&mode= plus group axes"),
    ("/v1/variance", "per-cell variance by group; ?scenario=&mode= plus group axes"),
    ("/v1/benches", "ingested bench families"),
    ("/v1/benches/metrics", "dotted metrics of one bench family; ?name="),
    ("/v1/benches/trend", "one bench metric's trajectory; ?name=&metric="),
    ("/v1/snapshots", "recorded fabric snapshots; ?scenario=&limit="),
    ("/v1/live", "journaled run directories under --runs-dir"),
    ("/v1/live/<run>/events", "SSE stream of one run's journal"),
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs; handlers read it, never mutate it."""

    store_path: pathlib.Path = DEFAULT_STORE_PATH
    runs_dir: Optional[pathlib.Path] = None
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    #: Seconds between journal polls while an SSE stream is idle.
    poll_interval: float = 0.2
    #: Wall-clock cap on one SSE stream of an unsealed journal (a client may
    #: lower it per-request with ``?timeout=``); the stream then ends with a
    #: ``StreamTimeout`` event instead of holding the socket forever.
    sse_timeout: float = 300.0
    quiet: bool = True


class _HTTPError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _event_frame(event: str, payload: Mapping[str, object]) -> bytes:
    """One SSE frame; compact JSON keeps the data on a single line."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"event: {event}\ndata: {data}\n\n".encode("utf-8")


def journal_record_to_event(
    record: Mapping[str, object],
) -> Optional[Tuple[str, Dict[str, object]]]:
    """Map one journal record to its ``(event, payload)`` SSE frame.

    The vocabulary mirrors :mod:`repro.runner.session`: header →
    ``RunStarted`` (with the full spec and provenance, so a client can
    fold the stream back into the run's artifact), cell →
    ``CellCompleted`` (the cell's ``as_dict`` form, verbatim), seal →
    ``RunFinished``.  Unknown record kinds map to ``None`` (skipped) so a
    reader of a newer journal version degrades gracefully.
    """
    kind = record.get("record")
    if kind == "header":
        try:
            total = GridSpec.from_dict(record["spec"]).num_cells
        except (ReproError, KeyError, TypeError):
            total = None
        return (
            "RunStarted",
            {
                "scenario": record.get("scenario"),
                "mode": record.get("mode"),
                "spec": record.get("spec"),
                "spec_hash": record.get("spec_hash"),
                "environment": record.get("environment"),
                "git": record.get("git"),
                "total_cells": total,
            },
        )
    if kind == "cell":
        return ("CellCompleted", dict(record["cell"]))
    if kind == "seal":
        return (
            "RunFinished",
            {"reason": record.get("reason"), "totals": record.get("totals")},
        )
    return None


class StoreRequestHandler(BaseHTTPRequestHandler):
    """One request: route, open a read-only store if needed, answer JSON/SSE."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    config: ServeConfig  # injected by make_server()

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.config.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, payload: object, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _open_store(self) -> ResultsStore:
        try:
            return ResultsStore(self.config.store_path, readonly=True)
        except StoreError as error:
            raise _HTTPError(503, str(error)) from None

    def _param(self, query: Mapping[str, List[str]], name: str) -> Optional[str]:
        values = query.get(name)
        return values[-1] if values else None

    def _require(self, query: Mapping[str, List[str]], name: str) -> str:
        value = self._param(query, name)
        if value is None:
            raise _HTTPError(400, f"missing required query parameter {name!r}")
        return value

    def _axes(self, query: Mapping[str, List[str]]) -> Dict[str, object]:
        axes: Dict[str, object] = {}
        for axis in GROUP_AXES:
            value = self._param(query, axis)
            if value is None:
                continue
            if axis == "f":
                try:
                    axes[axis] = int(value)
                except ValueError:
                    raise _HTTPError(400, f"axis f must be an integer, got {value!r}")
            else:
                axes[axis] = value
        return axes

    # -- routing ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        split = urllib.parse.urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = urllib.parse.parse_qs(split.query)
        try:
            if path == "/":
                self._send_json(
                    {
                        "service": "repro results store",
                        "store": str(self.config.store_path),
                        "runs_dir": (
                            str(self.config.runs_dir) if self.config.runs_dir else None
                        ),
                        "endpoints": [
                            {"path": route, "description": text}
                            for route, text in ENDPOINTS
                        ],
                    }
                )
            elif path == "/v1/scenarios":
                with self._open_store() as store:
                    self._send_json({"scenarios": store.scenarios()})
            elif path == "/v1/runs":
                with self._open_store() as store:
                    self._send_json(
                        {
                            "runs": store.runs(
                                scenario=self._param(query, "scenario"),
                                mode=self._param(query, "mode"),
                            )
                        }
                    )
            elif path == "/v1/trend":
                self._handle_trend(query)
            elif path == "/v1/variance":
                self._handle_variance(query)
            elif path == "/v1/benches":
                with self._open_store() as store:
                    self._send_json({"benches": store.bench_names()})
            elif path == "/v1/benches/metrics":
                name = self._require(query, "name")
                with self._open_store() as store:
                    self._send_json({"name": name, "metrics": store.bench_metrics(name)})
            elif path == "/v1/benches/trend":
                name = self._require(query, "name")
                metric = self._require(query, "metric")
                with self._open_store() as store:
                    points = store.bench_trend(name, metric)
                self._send_json(
                    {
                        "name": name,
                        "metric": metric,
                        "points": [dataclasses.asdict(point) for point in points],
                    }
                )
            elif path == "/v1/snapshots":
                limit = self._param(query, "limit") or "50"
                try:
                    limit_value = int(limit)
                except ValueError:
                    raise _HTTPError(400, f"limit must be an integer, got {limit!r}")
                with self._open_store() as store:
                    self._send_json(
                        {
                            "snapshots": store.snapshots(
                                scenario=self._param(query, "scenario"),
                                limit=limit_value,
                            )
                        }
                    )
            elif path == "/v1/live":
                self._send_json({"runs": self._live_runs()})
            elif path.startswith("/v1/live/") and path.endswith("/events"):
                name = path[len("/v1/live/"):-len("/events")]
                self._handle_sse(name, query)
            else:
                raise _HTTPError(404, f"unknown endpoint {path!r}")
        except _HTTPError as error:
            self._send_json({"error": str(error)}, status=error.status)
        except StoreError as error:
            self._send_json({"error": str(error)}, status=400)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to answer

    # -- store endpoints --------------------------------------------------
    def _handle_trend(self, query: Mapping[str, List[str]]) -> None:
        scenario = self._require(query, "scenario")
        metric = self._param(query, "metric") or "success_rate"
        mode = self._param(query, "mode")
        axes = self._axes(query)
        with self._open_store() as store:
            points = store.trend(scenario, metric, mode=mode, **axes)
        self._send_json(
            {
                "scenario": scenario,
                "metric": metric,
                "mode": mode,
                "axes": axes,
                "points": [dataclasses.asdict(point) for point in points],
            }
        )

    def _handle_variance(self, query: Mapping[str, List[str]]) -> None:
        scenario = self._require(query, "scenario")
        mode = self._param(query, "mode")
        axes = self._axes(query)
        with self._open_store() as store:
            groups = store.group_variance(scenario, mode=mode, **axes)
        self._send_json(
            {
                "scenario": scenario,
                "mode": mode,
                "axes": axes,
                "groups": [
                    dict(dataclasses.asdict(group), group=group.group)
                    for group in groups
                ],
            }
        )

    # -- live runs --------------------------------------------------------
    def _live_runs(self) -> List[Dict[str, object]]:
        runs_dir = self.config.runs_dir
        if runs_dir is None or not runs_dir.is_dir():
            return []
        runs: List[Dict[str, object]] = []
        for candidate in sorted(runs_dir.iterdir()):
            journal_file = candidate / JOURNAL_FILENAME
            if not journal_file.is_file():
                continue
            entry: Dict[str, object] = {"run": candidate.name}
            try:
                journal = load_journal(candidate)
                entry.update(
                    scenario=journal.scenario,
                    mode=journal.mode,
                    spec_hash=journal.spec_hash,
                    cells=len(journal.cells),
                    sealed=journal.sealed,
                    seal_reason=journal.seal_reason,
                )
            except JournalError as error:
                entry["error"] = str(error)
            runs.append(entry)
        return runs

    def _resolve_run(self, name: str) -> pathlib.Path:
        runs_dir = self.config.runs_dir
        if runs_dir is None:
            raise _HTTPError(404, "no --runs-dir configured; live streaming is off")
        if not name or "/" in name or "\\" in name or name in (".", ".."):
            raise _HTTPError(400, f"invalid run name {name!r}")
        run_dir = runs_dir / name
        if not journal_path(run_dir).is_file():
            raise _HTTPError(404, f"no journal under run {name!r}")
        return run_dir

    def _handle_sse(self, name: str, query: Mapping[str, List[str]]) -> None:
        run_dir = self._resolve_run(name)
        timeout = self.config.sse_timeout
        raw = self._param(query, "timeout")
        if raw is not None:
            try:
                timeout = min(timeout, float(raw))
            except ValueError:
                raise _HTTPError(400, f"timeout must be a number, got {raw!r}")

        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        # SSE is an unbounded stream: no Content-Length, so the connection
        # (kept alive by protocol_version 1.1 otherwise) must close to mark
        # the end of the body.
        self.send_header("Connection", "close")
        self.end_headers()

        path = journal_path(run_dir)
        offset = 0
        deadline = time.monotonic() + timeout
        try:
            while True:
                records, offset = tail_records(path, offset)
                for record in records:
                    mapped = journal_record_to_event(record)
                    if mapped is None:
                        continue
                    event, payload = mapped
                    self.wfile.write(_event_frame(event, payload))
                    self.wfile.flush()
                    if event == "RunFinished":
                        return  # seal streamed: close the stream
                if time.monotonic() >= deadline:
                    self.wfile.write(
                        _event_frame("StreamTimeout", {"timeout": timeout})
                    )
                    self.wfile.flush()
                    return
                if not records:
                    # keepalive comment so proxies/clients see a live socket
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    time.sleep(self.config.poll_interval)
        except (BrokenPipeError, ConnectionResetError):
            return  # client disconnected; the journal is untouched
        finally:
            self.close_connection = True


def make_server(config: ServeConfig) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``config`` (not yet serving).

    The handler class is specialized per call so concurrent servers (tests
    run several) never share configuration through class attributes.
    """
    handler = type("BoundStoreRequestHandler", (StoreRequestHandler,), {"config": config})
    server = ThreadingHTTPServer((config.host, config.port), handler)
    server.daemon_threads = True  # in-flight SSE streams never block shutdown
    return server


def serve_forever(config: ServeConfig) -> None:
    """Blocking entry point behind ``python -m repro.runner serve``."""
    with make_server(config) as server:
        host, port = server.server_address[:2]
        print(f"serving results store {config.store_path} on http://{host}:{port}/")
        if config.runs_dir is not None:
            print(f"live runs from {config.runs_dir} at /v1/live")
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass


__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ENDPOINTS",
    "ServeConfig",
    "StoreRequestHandler",
    "journal_record_to_event",
    "make_server",
    "serve_forever",
]
