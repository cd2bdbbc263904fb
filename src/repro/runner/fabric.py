"""Multi-host sweep fabric: coordinator/worker leasing over the journal.

The journal made every cell idempotent and addressable by
``(spec_hash, cell index)`` — exactly the contract a distributed work queue
needs.  The fabric builds that queue out of nothing but files in a shared
run directory, so the same protocol runs a single-host process pool
(``run --fabric N``) and a multi-machine sweep over NFS (``run --fabric 0``
on the coordinator host, ``fabric worker --run-dir /nfs/dir`` anywhere
else) without code changes.  ``docs/fabric-protocol.md`` is the normative
wire-format spec; this module is the reference implementation.

Roles:

* The **coordinator** is the process whose
  :class:`~repro.runner.session.ExperimentSession` drains the fabric cell
  source, :class:`FabricCoordinator`.  The session owns the canonical
  journal, the events, stop policies and the seal, exactly as on the
  serial and pool paths.  The source publishes leases over the pending cell
  indexes (:mod:`repro.runner.leases`), incrementally merges worker shards
  in strict index order (a hold-back buffer, exactly like the sharded
  engine) into the cells it yields, fences expired leases, splits the
  largest outstanding lease when workers idle (straggler work-stealing —
  BW-heavy cells are ~30x slower than condition cells) and writes
  ``stop.json`` when the stream ends.  Because per-cell seeds derive from
  ``(scenario, index)`` and the merge is index-ordered, ``fold()`` of a
  fabric journal is byte-identical to the serial run's.
* A **worker** (:class:`FabricWorker`) claims a lease by atomic rename,
  executes its cells serially, appends each result to its own shard
  ``shards/<worker-id>.jsonl`` (flushed per record), heartbeats the lease
  file's mtime from a daemon thread for as long as it holds the lease (so
  a cell slower than ``lease_ttl`` keeps it), and releases the lease once
  the range is durably recorded.
  Workers are sandboxed by the fencing rule: a worker that lost its lease
  can keep writing, but the coordinator rejects shard records whose epoch
  is stale for their index, so late writes are harmless.

Lifecycle files (all under the run dir — see ``docs/fabric-protocol.md``):
``fabric.json`` (manifest + coordinator heartbeat via mtime),
``leases/`` (lease files + ``fence.log``), ``shards/`` (per-worker
results), ``workers/`` (observability-only status files), ``stop.json``
(the stop sentinel the coordinator writes on completion, policy stop, or
interruption — workers exit when they see it).

Crash matrix: a SIGKILLed worker loses at most its unflushed tail — the
coordinator fences the lease after ``lease_ttl`` without a heartbeat
(immediately, for pool workers it spawned itself) and re-leases the
unfinished remainder at ``epoch + 1``.  A dead coordinator is detected by
workers via the manifest mtime going stale for ``orphan_grace`` seconds;
they exit with code :data:`EXIT_ORPHANED` (4) and the run resumes later
with ``run --resume DIR --fabric N`` (fence log replayed, shards
re-merged, leftovers re-fenced, pending re-leased).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import repro
from repro.exceptions import ExperimentError, JournalError, ReproError
from repro.runner import scenarios
from repro.runner.harness import CellResult, GridSpec, StopSweep, SweepCell
from repro.runner.journal import load_journal, spec_digest, tail_records
from repro.runner.leases import (
    Lease,
    append_fence,
    atomic_write_json,
    chunk_runs,
    claim,
    contiguous_runs,
    heartbeat,
    lease_age,
    list_available,
    list_owned,
    read_lease,
    release,
    replay_fence_log,
    validate_worker_id,
    write_available,
)
from repro.runner.worker_cache import cache_snapshot, warm_worker_caches

PathLike = Union[str, pathlib.Path]

FABRIC_VERSION = 1
FABRIC_KIND = "repro-fabric"
SHARD_VERSION = 1
SHARD_KIND = "repro-fabric-shard"
STOP_KIND = "repro-fabric-stop"
WORKER_KIND = "repro-fabric-worker"

#: File names / directory names inside a fabric run dir.
MANIFEST_FILENAME = "fabric.json"
STOP_FILENAME = "stop.json"
SHARDS_DIRNAME = "shards"
WORKERS_DIRNAME = "workers"

#: Minimum seconds between work-stealing scans (idle-worker detection is
#: advisory; fencing, the liveness mechanism, still runs every poll round).
STEAL_SCAN_INTERVAL = 1.0

#: Seconds a starting worker waits for the coordinator's manifest and
#: journal before giving up.
JOIN_TIMEOUT = 10.0

#: Exit code of a fabric worker that aborted because the coordinator's
#: manifest heartbeat went stale for ``orphan_grace`` seconds (documented
#: alongside 0/1/2/3 in :mod:`repro.runner`; the CLI re-exports it as
#: ``EXIT_FABRIC_ORPHANED``).
EXIT_ORPHANED = 4


class FabricError(ReproError):
    """A fabric run directory violates the protocol in docs/fabric-protocol.md."""


@dataclass(frozen=True)
class FabricConfig:
    """Tuning knobs of a fabric run (recorded in ``fabric.json``).

    ``workers`` is the number of pool workers the coordinator spawns
    itself; 0 means coordinator-only (external workers join via
    ``fabric worker --run-dir``).  ``lease_ttl`` bounds how long a silent
    worker keeps its lease; workers heartbeat from a thread while they run
    cells, so it need not exceed the slowest cell.
    """

    workers: int = 3
    lease_ttl: float = 30.0
    #: Heartbeat cadence of workers; defaults to ``lease_ttl / 10``.
    heartbeat_interval: Optional[float] = None
    poll_interval: float = 0.2
    #: Initial lease granularity: pending cells are cut into about
    #: ``workers * chunks_per_worker`` ranges (work-stealing refines later).
    chunks_per_worker: int = 4
    #: Seconds of stale coordinator heartbeat after which workers abort
    #: with :data:`EXIT_ORPHANED`; defaults to ``10 * lease_ttl``.
    orphan_grace: Optional[float] = None
    #: Artificial per-cell delay in workers (straggler simulation for
    #: crash-injection tests; 0 in real runs).
    worker_throttle: float = 0.0
    #: Plugin modules workers must import before expanding the grid.
    plugins: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ExperimentError(
                f"fabric workers must be >= 0 (0 = coordinator only), got {self.workers}"
            )

    @property
    def effective_heartbeat(self) -> float:
        return self.heartbeat_interval if self.heartbeat_interval is not None else self.lease_ttl / 10.0

    @property
    def effective_orphan_grace(self) -> float:
        return self.orphan_grace if self.orphan_grace is not None else 10.0 * self.lease_ttl


# ----------------------------------------------------------------------
# run-dir file helpers (manifest, stop sentinel)
# ----------------------------------------------------------------------
def manifest_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / MANIFEST_FILENAME


def stop_path(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / STOP_FILENAME


def shards_dir(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / SHARDS_DIRNAME


def workers_dir(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / WORKERS_DIRNAME


def shard_path(run_dir: PathLike, worker_id: str) -> pathlib.Path:
    return shards_dir(run_dir) / f"{worker_id}.jsonl"


def write_manifest(run_dir: PathLike, spec_hash: str, mode: str, config: FabricConfig) -> pathlib.Path:
    payload = {
        "kind": FABRIC_KIND,
        "fabric_version": FABRIC_VERSION,
        "spec_hash": spec_hash,
        "mode": mode,
        "lease_ttl": config.lease_ttl,
        "heartbeat_interval": config.effective_heartbeat,
        "poll_interval": config.poll_interval,
        "orphan_grace": config.effective_orphan_grace,
        "worker_throttle": config.worker_throttle,
        "plugins": list(config.plugins),
    }
    path = manifest_path(run_dir)
    atomic_write_json(path, payload)
    return path


def read_manifest(run_dir: PathLike) -> Dict[str, object]:
    path = manifest_path(run_dir)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FabricError(f"{path} does not exist — not a fabric run directory") from None
    if not isinstance(payload, dict) or payload.get("kind") != FABRIC_KIND:
        raise FabricError(f"{path}: not a fabric manifest")
    if payload.get("fabric_version") != FABRIC_VERSION:
        raise FabricError(
            f"{path}: unsupported fabric_version {payload.get('fabric_version')!r}"
        )
    return payload


def write_stop(run_dir: PathLike, reason: str) -> None:
    atomic_write_json(
        stop_path(run_dir), {"kind": STOP_KIND, "stop_version": 1, "reason": reason}
    )


def read_stop(run_dir: PathLike) -> Optional[Dict[str, object]]:
    try:
        payload = json.loads(stop_path(run_dir).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != STOP_KIND:
        raise FabricError(f"{stop_path(run_dir)}: not a fabric stop sentinel")
    return payload


# ----------------------------------------------------------------------
# transient-I/O hardening
# ----------------------------------------------------------------------
#: How many times a failed shard append / heartbeat is attempted before the
#: error surfaces, and the capped exponential backoff between attempts.
TRANSIENT_IO_ATTEMPTS = 5
TRANSIENT_IO_BACKOFF = 0.05
TRANSIENT_IO_BACKOFF_CAP = 1.0


def retry_transient_io(
    operation: Callable[[], object],
    describe: str,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``operation``, retrying transient ``OSError`` with capped backoff.

    A flaky filesystem (NFS hiccup, ``EAGAIN``/``EIO`` burst) must not kill
    a worker mid-lease — exit code :data:`EXIT_ORPHANED` is reserved for
    genuine coordinator loss.  ``FileNotFoundError`` is deliberately *not*
    retried: a vanished lease file is the coordinator's fencing signal and
    must surface immediately.
    """
    delay = TRANSIENT_IO_BACKOFF
    for attempt in range(1, TRANSIENT_IO_ATTEMPTS + 1):
        try:
            return operation()
        except FileNotFoundError:
            raise
        except OSError:
            if attempt >= TRANSIENT_IO_ATTEMPTS:
                raise
            sleep(delay)
            delay = min(delay * 2.0, TRANSIENT_IO_BACKOFF_CAP)
    raise AssertionError("unreachable")  # pragma: no cover


class LeaseHeartbeat:
    """Refreshes an owned lease file every ``interval`` seconds from a daemon
    thread while the owner works the range — during cells too, so a cell
    slower than ``lease_ttl`` is not mistaken for a dead worker.

    Used as a context manager; the thread stops on exit, or on its own when
    the file vanishes (the lease was fenced: the owner's per-cell re-read
    then abandons the range).  An I/O error that outlasts
    :func:`retry_transient_io` stops the thread too and is re-raised in the
    owner by :meth:`check`.
    """

    def __init__(self, path: pathlib.Path, interval: float) -> None:
        self.path = path
        self.interval = interval
        self._stop = threading.Event()
        self._error: Optional[OSError] = None
        self._thread = threading.Thread(
            target=self._beat, name=f"heartbeat {path.name}", daemon=True
        )

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _beat(self) -> None:
        describe = f"lease {self.path.name}: heartbeat"
        while not self._stop.wait(self.interval):
            try:
                retry_transient_io(lambda: heartbeat(self.path), describe)
            except FileNotFoundError:
                return
            except OSError as error:
                self._error = error
                return

    def check(self) -> None:
        """Re-raise a heartbeat I/O error in the owner's thread."""
        if self._error is not None:
            raise self._error


# ----------------------------------------------------------------------
# shard writing (the worker's append-only result log)
# ----------------------------------------------------------------------
class ShardWriter:
    """Append-only per-worker result shard (``shards/<worker-id>.jsonl``).

    A shard is *not* a journal: no seal, no duplicate-index constraint —
    re-claimed ranges may legitimately append an index twice under
    different epochs, and the coordinator's epoch-fenced merge is the
    arbiter.  Records are flushed as appended (a SIGKILLed worker loses at
    most its unflushed tail, which simply re-runs); :meth:`sync` is called
    before the lease is released so a released range is always durable.
    """

    def __init__(self, run_dir: PathLike, worker_id: str, spec_hash: str) -> None:
        directory = shards_dir(run_dir)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / f"{worker_id}.jsonl"
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        self._pending = bytearray()
        if fresh:
            self._write(
                {
                    "record": "header",
                    "kind": SHARD_KIND,
                    "shard_version": SHARD_VERSION,
                    "worker": worker_id,
                    "spec_hash": spec_hash,
                }
            )
            self.sync()

    def _write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        self._pending.extend(line.encode("utf-8"))
        self._drain()

    def _drain(self) -> None:
        # Exactly-once append under transient failures: bytes leave
        # ``_pending`` only once the OS accepted them, so a retried write
        # resumes mid-line instead of duplicating a record (a torn or
        # doubled line would poison the coordinator's merge).
        while self._pending:
            written = retry_transient_io(
                lambda: os.write(self._fd, bytes(self._pending)),
                f"shard {self.path}: append",
            )
            del self._pending[: int(written)]

    def append_cell(self, result: CellResult, epoch: int) -> None:
        self._write({"record": "cell", "epoch": epoch, "cell": result.as_dict()})

    def sync(self) -> None:
        retry_transient_io(lambda: os.fsync(self._fd), f"shard {self.path}: fsync")

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "ShardWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the worker
# ----------------------------------------------------------------------
class FabricWorker:
    """One fabric worker: claim → execute → shard-append → release, repeat.

    Drives cells strictly in index order within each lease, re-reading its
    owned lease file before every cell (the file's *content* is
    authoritative: a coordinator split may have shrunk ``end``; a vanished
    file means the lease was fenced and the remainder must be abandoned).
    Runs in-process (tests call :meth:`run` directly, or on a thread) or as
    the ``fabric worker`` CLI subprocess.  :meth:`run` returns a process
    exit code: 0 (stop sentinel seen or startup raced a finished run),
    :data:`EXIT_ORPHANED` when the coordinator heartbeat went stale.
    """

    def __init__(
        self,
        run_dir: PathLike,
        worker_id: str,
        throttle: Optional[float] = None,
    ) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.worker_id = validate_worker_id(worker_id)
        self._throttle_override = throttle
        self.cells_done = 0
        self.leases_worked = 0
        self.fenced_observed = 0

    # -- status files (observability only; never load-bearing) ----------
    def _write_status(self, state: str, lease: Optional[Lease] = None) -> None:
        directory = workers_dir(self.run_dir)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            directory / f"{self.worker_id}.json",
            {
                "kind": WORKER_KIND,
                "worker": self.worker_id,
                "pid": os.getpid(),
                "state": state,
                "lease": lease.label if lease is not None else None,
                "epoch": lease.epoch if lease is not None else None,
                "cells_done": self.cells_done,
                "caches": cache_snapshot(),
            },
        )

    # -- startup ---------------------------------------------------------
    def _join(self) -> Optional[Tuple[Dict[str, object], GridSpec, str]]:
        """Wait for the coordinator's manifest + journal, then load both.

        ``None`` when the manifest's heartbeat is already stale: the
        coordinator died before this worker joined.
        """
        deadline = time.time() + JOIN_TIMEOUT
        while True:
            try:
                manifest = read_manifest(self.run_dir)
                if self._orphaned(float(manifest["orphan_grace"])):
                    return None
                journal = load_journal(self.run_dir)
                break
            except (FabricError, JournalError):
                if time.time() >= deadline:
                    raise
                time.sleep(0.1)
        for module in manifest.get("plugins") or ():
            import importlib

            try:
                importlib.import_module(str(module))
            except ImportError as error:
                raise FabricError(
                    f"cannot import plugin module {module!r} named by the fabric "
                    f"manifest: {error}"
                ) from None
        if manifest.get("spec_hash") != journal.spec_hash:
            raise FabricError(
                f"{manifest_path(self.run_dir)}: manifest spec_hash does not match "
                "the journal header — mixed run directories?"
            )
        return manifest, journal.grid_spec(), journal.spec_hash

    def _orphaned(self, grace: float) -> bool:
        age = lease_age(manifest_path(self.run_dir))
        return age is None or age > grace

    def _stopped(self) -> bool:
        return read_stop(self.run_dir) is not None

    # -- the loop --------------------------------------------------------
    def run(self) -> int:
        # looked up per run, so a run_cell patched after import is the one used
        run_cell = scenarios.run_cell
        joined = self._join()
        if joined is None:
            self._write_status("exited")
            return EXIT_ORPHANED
        manifest, spec, spec_hash = joined
        throttle = (
            self._throttle_override
            if self._throttle_override is not None
            else float(manifest.get("worker_throttle") or 0.0)
        )
        heartbeat_interval = float(manifest["heartbeat_interval"])
        poll_interval = float(manifest["poll_interval"])
        orphan_grace = float(manifest["orphan_grace"])
        cells_by_index: Dict[int, SweepCell] = {cell.index: cell for cell in spec.expand()}

        self._write_status("idle")
        try:
            while True:
                if self._stopped():
                    return 0
                if self._orphaned(orphan_grace):
                    self._write_status("orphaned")
                    return EXIT_ORPHANED
                claimed = claim(self.run_dir, self.worker_id)
                if claimed is None:
                    time.sleep(poll_interval)
                    continue
                self._work_lease(
                    claimed[0],
                    claimed[1],
                    spec,
                    spec_hash,
                    cells_by_index,
                    run_cell,
                    throttle,
                    heartbeat_interval,
                )
                self._write_status("idle")
        finally:
            self._write_status("exited")

    def _work_lease(
        self,
        path: pathlib.Path,
        lease: Lease,
        spec: GridSpec,
        spec_hash: str,
        cells_by_index: Dict[int, SweepCell],
        run_cell,
        throttle: float,
        heartbeat_interval: float,
    ) -> None:
        self.leases_worked += 1
        self._write_status("working", lease)
        warm_worker_caches(
            spec, [cells_by_index[i] for i in lease.indexes() if i in cells_by_index]
        )
        shard = ShardWriter(self.run_dir, self.worker_id, spec_hash)
        with shard, LeaseHeartbeat(path, heartbeat_interval) as beat:
            index = lease.start
            while True:
                beat.check()
                # Re-read before every cell: the content is authoritative —
                # ``end`` shrinks under a split, and a vanished file means
                # the coordinator fenced us (abandon the remainder; any
                # already-appended cells stay durable and dedup at merge).
                try:
                    current = read_lease(path)
                except FileNotFoundError:
                    self.fenced_observed += 1
                    return
                if index >= current.end:
                    break  # range complete
                if self._stopped():
                    break  # run is ending; completed prefix is in the shard
                if throttle > 0:
                    self._throttled_sleep(throttle)
                cell = cells_by_index.get(index)
                if cell is None:
                    raise FabricError(
                        f"lease {current.label} covers index {index}, which is not "
                        "in the grid — spec/journal mismatch"
                    )
                shard.append_cell(run_cell(spec, cell), current.epoch)
                self.cells_done += 1
                index += 1
            shard.sync()
        release(path)

    def _throttled_sleep(self, seconds: float) -> None:
        """Sleep ``seconds`` in short slices, honouring stop.

        The throttle exists so crash-injection tests can widen the
        mid-lease window deterministically; the lease's heartbeat thread
        keeps beating meanwhile.
        """
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            if self._stopped():
                return
            time.sleep(min(0.05, seconds))


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------
@dataclass
class FabricReport:
    """Merge/lease accounting the coordinator exposes after (and during) a run."""

    merged: int = 0
    duplicates: int = 0
    rejected_stale: int = 0
    fenced: int = 0
    splits: int = 0
    leases_created: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FabricCoordinator:
    """The fabric cell source: lease publisher, shard merger, worker pool.

    :meth:`stream` is the cell-source protocol
    :class:`~repro.runner.session.ExperimentSession` drains
    (``ExperimentSession(spec, source=FabricCoordinator(run_dir=...))``):
    it yields the grid's pending cells in strict index order as workers
    complete them, and the session journals, observes, stops and seals.
    The coordinator writes ``stop.json`` when the stream ends — the stop
    policy's reason when the session throws
    :class:`~repro.runner.harness.StopSweep` into it, ``completed`` on
    exhaustion, ``interrupted`` when it is closed early — and reaps the
    pool workers it spawned.

    Deterministically steppable: :meth:`start` publishes the run
    (manifest + leases, optionally spawning pool workers), each
    :meth:`step` does one poll round — heartbeat the manifest, merge shard
    tails, release the in-order hold-back, fence expired leases, split for
    idle workers — and returns ``True`` once every pending cell has been
    released.  The run directory's journal header must exist before
    :meth:`start` (the session writes it before it streams; a coordinator
    stepped without a session needs :meth:`JournalWriter.create` first):
    the ``mode`` recorded in the manifest is read from it.
    """

    def __init__(self, *, run_dir: PathLike, config: Optional[FabricConfig] = None) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.config = config or FabricConfig()
        self.report = FabricReport()
        self._released: Deque[CellResult] = deque()
        self._procs: Dict[str, subprocess.Popen] = {}
        self._offsets: Dict[pathlib.Path, int] = {}
        self._epochs: Dict[int, int] = {}
        self._accepted: Set[int] = set()
        self._buffer: Dict[int, CellResult] = {}
        self._pending: List[int] = []
        self._position = 0
        self._started = False
        self._last_steal_scan = float("-inf")
        self.total = 0
        self.spec_hash = ""

    @property
    def workers(self) -> int:
        return self.config.workers

    # -- the cell-source protocol ------------------------------------------
    def stream(
        self, spec: GridSpec, cells: Optional[Sequence[SweepCell]] = None
    ) -> Iterator[CellResult]:
        """Publish ``cells`` (default: the whole grid) and yield their
        results in index order until all are released or the stream ends."""
        self.start(spec, cells)
        reason = "interrupted"
        try:
            while True:
                finished = self.step()
                while self._released:
                    yield self._released.popleft()
                if finished:
                    reason = "completed"
                    return
                time.sleep(self.config.poll_interval)
        except StopSweep as stop:
            reason = stop.reason
        finally:
            # Workers exit when they see the sentinel; an interrupted run's
            # journal stays unsealed (resumable via `run --resume DIR --fabric N`).
            write_stop(self.run_dir, reason)
            self.close()

    # -- startup ----------------------------------------------------------
    def start(self, spec: GridSpec, cells: Optional[Sequence[SweepCell]] = None) -> None:
        """Publish the run: ``cells`` (default: the whole grid) of ``spec``,
        in the mode of the run directory's journal header."""
        if self._started:
            raise ExperimentError("coordinator already started")
        self._started = True
        mode = load_journal(self.run_dir).mode
        self.spec_hash = spec_digest(spec.as_dict())
        self.total = spec.num_cells
        cells = spec.expand() if cells is None else cells
        self._pending = sorted(cell.index for cell in cells)
        try:
            os.unlink(stop_path(self.run_dir))  # a stale sentinel from an
        except FileNotFoundError:  # interrupted run must not stop workers
            pass
        self._epochs = replay_fence_log(self.run_dir)

        # Resume order matters: merge durable shard work *before* fencing
        # leftover leases, so nothing already paid for is re-leased.
        self._accepted = set(range(self.total)) - set(self._pending)
        self._merge_shards()
        self._fence_leftover_leases()
        write_manifest(self.run_dir, self.spec_hash, mode, self.config)
        self._advance()

        if len(self._accepted) < self.total:
            self._publish_initial_leases()
            if self.config.workers > 0:
                self._spawn_workers()

    def _fence_leftover_leases(self) -> None:
        """Invalidate every lease file left behind by a previous coordinator.

        A zombie worker from the old incarnation may still hold (or later
        claim) one of these, so each range is fenced — epoch bumped,
        durably logged — before fresh leases are published.
        """
        leftovers = [path for path in list_available(self.run_dir)]
        leftovers.extend(path for path, _ in list_owned(self.run_dir))
        for path in leftovers:
            try:
                lease = read_lease(path)
            except FileNotFoundError:
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue
            bumped = Lease(lease.start, lease.end, lease.epoch + 1)
            append_fence(self.run_dir, bumped)
            for index in bumped.indexes():
                self._epochs[index] = max(self._epochs.get(index, 0), bumped.epoch)
            self.report.fenced += 1

    def _publish_initial_leases(self) -> None:
        pending = [i for i in self._pending if i not in self._accepted]
        if not pending:
            return
        parts = max(1, self.config.workers or 1) * self.config.chunks_per_worker
        chunk_size = max(1, -(-len(pending) // parts))
        for start, end in chunk_runs(contiguous_runs(pending), chunk_size):
            self._publish_lease(start, end)

    def _publish_lease(self, start: int, end: int) -> None:
        """Publish one available lease, normalising the range onto one epoch.

        A lease file carries a single epoch; if the range's indexes sit at
        mixed epochs (possible after partial fences), the whole range is
        lifted to the max — durably fence-logged first, so the merge's
        epoch map can always be rebuilt.
        """
        epoch = max(self._epochs.get(i, 0) for i in range(start, end))
        lease = Lease(start, end, epoch)
        if any(self._epochs.get(i, 0) != epoch for i in range(start, end)):
            append_fence(self.run_dir, lease)
            for index in lease.indexes():
                self._epochs[index] = epoch
        write_available(self.run_dir, lease)
        self.report.leases_created += 1

    def _spawn_workers(self) -> None:
        env = dict(os.environ)
        package_parent = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_parent + os.pathsep + existing if existing else package_parent
        )
        for number in range(1, self.config.workers + 1):
            worker_id = f"w{number}"
            self._procs[worker_id] = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.runner",
                    "fabric",
                    "worker",
                    "--run-dir",
                    str(self.run_dir),
                    "--worker-id",
                    worker_id,
                ],
                env=env,
            )

    @property
    def worker_pids(self) -> Dict[str, int]:
        """Pids of the pool workers this coordinator spawned (crash tests)."""
        return {worker_id: proc.pid for worker_id, proc in self._procs.items()}

    # -- the poll round ----------------------------------------------------
    def step(self, now: Optional[float] = None) -> bool:
        """One poll round; returns ``True`` once every pending cell is released."""
        if not self._started:
            raise ExperimentError("call start() before step()")
        now = time.time() if now is None else now
        try:
            os.utime(manifest_path(self.run_dir))  # the coordinator heartbeat
        except FileNotFoundError:
            pass
        self._merge_shards()
        self._advance()
        if self._position >= len(self._pending):
            return True
        self._manage_leases(now)
        return False

    # -- merging ----------------------------------------------------------
    def _merge_shards(self) -> None:
        directory = shards_dir(self.run_dir)
        if not directory.is_dir():
            return
        for path in sorted(directory.glob("*.jsonl")):
            records, offset = tail_records(path, self._offsets.get(path, 0))
            self._offsets[path] = offset
            for record in records:
                self._merge_record(path, record)

    def _merge_record(self, path: pathlib.Path, record: Dict[str, object]) -> None:
        kind = record.get("record")
        if kind == "header":
            if record.get("kind") != SHARD_KIND or record.get("shard_version") != SHARD_VERSION:
                raise FabricError(f"shard {path}: not a fabric shard header")
            if record.get("spec_hash") != self.spec_hash:
                raise FabricError(
                    f"shard {path}: spec_hash does not match this run's journal — "
                    "a worker joined the wrong run directory"
                )
            return
        if kind != "cell":
            raise FabricError(f"shard {path}: unknown record kind {kind!r}")
        try:
            epoch = int(record["epoch"])
            result = CellResult.from_dict(record["cell"])
        except (KeyError, TypeError, ValueError) as error:
            raise FabricError(f"shard {path}: malformed cell record: {error}") from None
        index = result.index
        if index < 0 or index >= self.total:
            raise FabricError(f"shard {path}: cell index {index} outside the grid")
        if index in self._accepted:
            self.report.duplicates += 1
            return
        if epoch != self._epochs.get(index, 0):
            # The fencing rule: late writes from a lost lease carry a stale
            # epoch and are dropped here, whatever their payload says.
            self.report.rejected_stale += 1
            return
        self._accepted.add(index)
        self._buffer[index] = result
        self.report.merged += 1

    def _advance(self) -> None:
        """Release the hold-back buffer in strict index order.

        Cells leave in exactly the order a serial run produces them, so the
        session journals and observes the identical sequence and a fabric
        journal folds byte-identically.
        """
        while self._position < len(self._pending):
            result = self._buffer.pop(self._pending[self._position], None)
            if result is None:
                break
            self._released.append(result)
            self._position += 1

    # -- lease management --------------------------------------------------
    def _manage_leases(self, now: float) -> None:
        for path, owner in list_owned(self.run_dir):
            try:
                lease = read_lease(path)
            except FileNotFoundError:
                continue
            proc = self._procs.get(owner)
            owner_dead = proc is not None and proc.poll() is not None
            age = lease_age(path, now)
            expired = age is not None and age > self.config.lease_ttl
            if owner_dead or expired:
                self._fence(path, lease)
        # Work stealing is a rebalancing heuristic, not a liveness mechanism:
        # scan for idle workers at most once a second rather than every poll
        # round (each scan stats and parses every worker status file, which
        # is real I/O on NFS and real GIL time for in-process workers).
        if time.monotonic() - self._last_steal_scan >= STEAL_SCAN_INTERVAL:
            self._last_steal_scan = time.monotonic()
            if not list_available(self.run_dir) and self._idle_workers() > 0:
                self._split_largest()

    def _fence(self, path: pathlib.Path, lease: Lease) -> None:
        remainder = [i for i in lease.indexes() if i not in self._accepted]
        try:
            os.unlink(path)
        except FileNotFoundError:
            return  # owner released concurrently; its shard has the cells
        self.report.fenced += 1
        if not remainder:
            return
        new_epoch = lease.epoch + 1
        for start, end in contiguous_runs(remainder):
            bumped = Lease(start, end, new_epoch)
            append_fence(self.run_dir, bumped)
            for index in bumped.indexes():
                self._epochs[index] = new_epoch
            write_available(self.run_dir, bumped)
            self.report.leases_created += 1

    def _idle_workers(self) -> int:
        """How many live workers currently hold no lease.

        Pool workers are counted from their subprocess handles; external
        (multi-host) workers from fresh ``workers/<id>.json`` status files
        reporting ``idle``.  Either signal alone is enough to justify a
        split — the cost of a wrong guess is one extra (small) lease.
        """
        owned_by = {owner for _, owner in list_owned(self.run_dir)}
        idle = sum(
            1
            for worker_id, proc in self._procs.items()
            if proc.poll() is None and worker_id not in owned_by
        )
        directory = workers_dir(self.run_dir)
        if directory.is_dir():
            for status_file in directory.glob("*.json"):
                try:
                    payload = json.loads(status_file.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    continue
                worker_id = str(payload.get("worker"))
                if worker_id in self._procs:
                    continue  # already counted via the subprocess handle
                age = lease_age(status_file)
                if (
                    payload.get("state") == "idle"
                    and age is not None
                    and age <= self.config.lease_ttl
                    and worker_id not in owned_by
                ):
                    idle += 1
        return idle

    def _split_largest(self) -> None:
        """Work-steal: split the unfinished tail of the largest owned lease.

        The owner's file is rewritten in place to the head ``[start, M)``
        (same epoch — its in-flight work stays valid) and the tail
        ``[M, end)`` is re-published at ``epoch + 1`` so any cell the owner
        races into the stolen range is rejected as stale.
        """
        best: Optional[Tuple[pathlib.Path, Lease, List[int]]] = None
        for path, _ in list_owned(self.run_dir):
            try:
                lease = read_lease(path)
            except FileNotFoundError:
                continue
            remainder = [i for i in lease.indexes() if i not in self._accepted]
            if len(remainder) < 2:
                continue
            if best is None or len(remainder) > len(best[2]):
                best = (path, lease, remainder)
        if best is None:
            return
        path, lease, remainder = best
        midpoint = remainder[len(remainder) // 2]
        if not (lease.start < midpoint < lease.end):
            return
        atomic_write_json(path, Lease(lease.start, midpoint, lease.epoch).as_dict())
        stolen = Lease(midpoint, lease.end, lease.epoch + 1)
        append_fence(self.run_dir, stolen)
        for index in stolen.indexes():
            self._epochs[index] = stolen.epoch
        write_available(self.run_dir, stolen)
        self.report.splits += 1
        self.report.leases_created += 1

    # -- finishing ---------------------------------------------------------
    def _reap_workers(self, timeout: float = 15.0) -> None:
        deadline = time.monotonic() + timeout
        for proc in self._procs.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                    proc.kill()
                    proc.wait()

    def close(self) -> None:
        """Reap the pool workers this coordinator spawned."""
        self._reap_workers()


# ----------------------------------------------------------------------
# status snapshots (the `fabric status` surface)
# ----------------------------------------------------------------------
def fabric_status(run_dir: PathLike) -> Dict[str, object]:
    """A point-in-time snapshot of a fabric run directory (JSON-ready).

    Read-only and side-effect free: safe to run against a live fabric from
    any host sharing the directory.  Rendered for humans by
    :func:`repro.runner.reporting.render_fabric_status`.
    """
    run_dir = pathlib.Path(run_dir)
    manifest = read_manifest(run_dir)
    stop = read_stop(run_dir)
    snapshot: Dict[str, object] = {
        "run_dir": str(run_dir),
        "manifest": manifest,
        "coordinator_age": lease_age(manifest_path(run_dir)),
        "stop": stop,
        "journal": None,
        "leases": [],
        "shards": {},
        "workers": {},
        "fenced_indexes": 0,
    }
    try:
        journal = load_journal(run_dir)
    except JournalError:
        journal = None
    if journal is not None:
        snapshot["journal"] = {
            "cells": len(journal.cells),
            "total": len(journal.grid_spec().expand()),
            "sealed": journal.sealed,
            "seal_reason": journal.seal_reason,
            "spec_hash": journal.spec_hash,
            "scenario": journal.scenario,
            "mode": journal.mode,
        }
    leases: List[Dict[str, object]] = []
    for path in list_available(run_dir):
        try:
            lease = read_lease(path)
        except (FileNotFoundError, ReproError):
            continue
        leases.append(
            {"range": lease.label, "epoch": lease.epoch, "state": "available", "owner": None}
        )
    for path, owner in list_owned(run_dir):
        try:
            lease = read_lease(path)
        except (FileNotFoundError, ReproError):
            continue
        leases.append(
            {
                "range": lease.label,
                "epoch": lease.epoch,
                "state": "owned",
                "owner": owner,
                "age": lease_age(path),
            }
        )
    snapshot["leases"] = leases
    directory = shards_dir(run_dir)
    if directory.is_dir():
        shards: Dict[str, object] = {}
        for path in sorted(directory.glob("*.jsonl")):
            records, _ = tail_records(path, 0)
            shards[path.stem] = {
                "cells": sum(1 for record in records if record.get("record") == "cell"),
                "bytes": path.stat().st_size,
            }
        snapshot["shards"] = shards
    directory = workers_dir(run_dir)
    if directory.is_dir():
        workers: Dict[str, object] = {}
        for path in sorted(directory.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue
            payload["age"] = lease_age(path)
            workers[path.stem] = payload
        snapshot["workers"] = workers
    fence_epochs = replay_fence_log(run_dir)
    snapshot["fenced_indexes"] = len(fence_epochs)
    snapshot["max_epoch"] = max(fence_epochs.values()) if fence_epochs else 0
    return snapshot


__all__ = [
    "EXIT_ORPHANED",
    "FABRIC_KIND",
    "FABRIC_VERSION",
    "FabricConfig",
    "FabricCoordinator",
    "FabricError",
    "FabricReport",
    "FabricWorker",
    "MANIFEST_FILENAME",
    "SHARDS_DIRNAME",
    "SHARD_KIND",
    "SHARD_VERSION",
    "STOP_FILENAME",
    "STOP_KIND",
    "WORKERS_DIRNAME",
    "WORKER_KIND",
    "ShardWriter",
    "fabric_status",
    "manifest_path",
    "read_manifest",
    "read_stop",
    "shard_path",
    "shards_dir",
    "stop_path",
    "workers_dir",
    "write_manifest",
    "write_stop",
]
