"""Tests for the multi-host sweep fabric (repro.runner.fabric / .leases).

The load-bearing property under test everywhere: a fabric journal —
however many workers, fences, splits and crashes produced it — folds into
the byte-identical artifact a serial run writes.  The doc-conformance
class additionally pins every on-disk format to the normative spec in
``docs/fabric-protocol.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import signal
import threading
import time

import pytest

from repro.exceptions import ExperimentError, JournalError, ReproError
from repro.runner.artifacts import (
    artifact_payload,
    compare,
    dumps_canonical,
    load_artifact,
)
from repro.runner.cli import EXIT_ERROR, EXIT_FABRIC_ORPHANED, EXIT_OK, main
from repro.runner.fabric import (
    EXIT_ORPHANED,
    FABRIC_KIND,
    FABRIC_VERSION,
    MANIFEST_FILENAME,
    SHARD_KIND,
    SHARD_VERSION,
    STOP_FILENAME,
    STOP_KIND,
    WORKER_KIND,
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricWorker,
    ShardWriter,
    manifest_path,
    read_manifest,
    read_stop,
    shard_path,
    workers_dir,
    write_manifest,
    write_stop,
)
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.journal import JournalWriter, journal_path, load_journal, tail_records
from repro.runner.leases import (
    FENCE_LOG_FILENAME,
    LEASE_KIND,
    LEASE_VERSION,
    Lease,
    LeaseError,
    append_fence,
    atomic_write_json,
    chunk_runs,
    claim,
    contiguous_runs,
    fence_log_path,
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
from repro.runner.reporting import render_fabric_status
from repro.runner.scenarios import get_scenario, run_cell
from repro.runner.session import (
    CellCompleted,
    CheckpointWritten,
    ExperimentSession,
    RunFinished,
    RunStarted,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
PROTOCOL_DOC = REPO_ROOT / "docs" / "fabric-protocol.md"

#: 24 fast cells (~30 ms each): the quick definition1 grid widened to 8 seeds.
GRID = dataclasses.replace(
    get_scenario("definition1").grid(quick=True), seeds=tuple(range(1, 9))
)


def fast_config(**overrides) -> FabricConfig:
    """A coordinator-only config with test-friendly cadences."""
    base = dict(workers=0, lease_ttl=5.0, poll_interval=0.02, chunks_per_worker=2)
    base.update(overrides)
    return FabricConfig(**base)


def started_coordinator(run_dir, config: FabricConfig) -> FabricCoordinator:
    """A coordinator stepped without a session: write the journal header a
    session writes before it streams, then publish GRID."""
    JournalWriter.create(run_dir, GRID, mode="quick").close()
    coordinator = FabricCoordinator(run_dir=run_dir, config=config)
    coordinator.start(GRID)
    return coordinator


def fold_bytes(run_dir) -> str:
    """Canonical artifact bytes of a run dir's journal, provenance-neutral."""
    journal = load_journal(run_dir)
    return dumps_canonical(
        artifact_payload(
            journal.fold(),
            mode=journal.mode,
            provenance={"environment": None, "git": None},
        )
    )


class HookedCoordinator(FabricCoordinator):
    """A fabric source with test hooks.

    ``on_start(coordinator)`` runs once the run is published (manifest and
    leases written); in-process worker threads named by ``worker_ids``
    start right after it, so they never race a stale ``stop.json``.
    ``on_step(coordinator)`` runs after every poll round.
    """

    def __init__(self, *args, worker_ids=(), on_start=None, on_step=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.worker_ids = worker_ids
        self.on_start = on_start
        self.on_step = on_step
        self.threads = []

    def start(self, spec=None, cells=None):
        super().start(spec, cells)
        if self.on_start is not None:
            self.on_start(self)
        self.threads = [WorkerThread(self.run_dir, wid).start() for wid in self.worker_ids]

    def step(self, now=None):
        finished = super().step(now)
        if self.on_step is not None:
            self.on_step(self)
        return finished


class WorkerThread:
    """An in-process FabricWorker on a daemon thread (no subprocess cost)."""

    def __init__(self, run_dir, worker_id: str, throttle=None) -> None:
        self.worker = FabricWorker(run_dir, worker_id, throttle=throttle)
        self.exit_code = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        self.exit_code = self.worker.run()

    def start(self) -> "WorkerThread":
        self._thread.start()
        return self

    def join(self, timeout: float = 60.0) -> int:
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "fabric worker thread did not exit"
        return self.exit_code


@pytest.fixture(scope="module")
def serial_fold(tmp_path_factory) -> str:
    """The serial reference: GRID journaled by an ExperimentSession."""
    run_dir = tmp_path_factory.mktemp("serial")
    session = ExperimentSession(GRID, mode="quick", run_dir=run_dir)
    session.run()
    return fold_bytes(run_dir)


# ----------------------------------------------------------------------
# lease primitives
# ----------------------------------------------------------------------
class TestLeasePrimitives:
    def test_lease_roundtrip_label_and_indexes(self, tmp_path):
        lease = Lease(start=3, end=7, epoch=2)
        assert lease.count == 4
        assert lease.label == "00000003-00000007"
        assert list(lease.indexes()) == [3, 4, 5, 6]
        path = write_available(tmp_path, lease)
        assert path.name == "00000003-00000007.lease"
        assert read_lease(path) == lease

    def test_from_dict_rejects_wire_format_drift(self):
        good = Lease(0, 5, 0).as_dict()
        for corruption in (
            {"kind": "something-else"},
            {"lease_version": 99},
            {"start": 5, "end": 5},  # empty range
            {"start": -1},
            {"epoch": -1},
            {"end": "not-a-number"},
        ):
            with pytest.raises(LeaseError):
                Lease.from_dict({**good, **corruption})
        with pytest.raises(LeaseError):
            Lease.from_dict(["not", "an", "object"])

    def test_worker_ids_must_be_filename_safe(self):
        for ok in ("w1", "host-3.worker_2", "A.B-c_d"):
            assert validate_worker_id(ok) == ok
        for bad in ("", "a/b", "a b", "host:1", "../up"):
            with pytest.raises(ReproError):
                validate_worker_id(bad)

    def test_claim_is_exclusive_and_scans_in_range_order(self, tmp_path):
        write_available(tmp_path, Lease(5, 10, 0))
        write_available(tmp_path, Lease(0, 5, 0))
        first = claim(tmp_path, "alice")
        assert first is not None
        path, lease = first
        assert lease == Lease(0, 5, 0)  # lowest range claimed first
        assert path.name == "00000000-00000005.owned.alice"
        second = claim(tmp_path, "bob")
        assert second is not None and second[1] == Lease(5, 10, 0)
        assert claim(tmp_path, "carol") is None  # nothing left
        assert {owner for _, owner in list_owned(tmp_path)} == {"alice", "bob"}
        assert list_available(tmp_path) == []

    def test_heartbeat_release_and_age(self, tmp_path):
        write_available(tmp_path, Lease(0, 2, 0))
        path, _ = claim(tmp_path, "w")
        old = time.time() - 300
        os.utime(path, (old, old))
        assert lease_age(path) > 200
        heartbeat(path)
        assert lease_age(path) < 5
        release(path)
        assert lease_age(path) is None  # gone
        release(path)  # releasing a fenced (vanished) lease is a no-op

    def test_contiguous_runs_and_chunking(self):
        assert contiguous_runs([]) == []
        assert contiguous_runs([4, 1, 2, 0, 9]) == [(0, 3), (4, 5), (9, 10)]
        assert chunk_runs([(0, 10)], 4) == [(0, 4), (4, 8), (8, 10)]
        assert chunk_runs([(0, 3), (7, 9)], 2) == [(0, 2), (2, 3), (7, 9)]
        with pytest.raises(ValueError):
            chunk_runs([(0, 1)], 0)

    def test_fence_log_replay_takes_the_max_epoch(self, tmp_path):
        append_fence(tmp_path, Lease(0, 10, 1))
        append_fence(tmp_path, Lease(5, 8, 2))
        epochs = replay_fence_log(tmp_path)
        assert epochs[0] == 1 and epochs[4] == 1
        assert epochs[5] == 2 and epochs[7] == 2
        assert epochs[9] == 1
        assert 10 not in epochs

    def test_fence_log_tolerates_a_torn_tail_only(self, tmp_path):
        append_fence(tmp_path, Lease(0, 4, 1))
        log = fence_log_path(tmp_path)
        with open(log, "ab") as handle:
            handle.write(b'{"record": "fence", "start": 4, ')  # torn append
        assert replay_fence_log(tmp_path) == {0: 1, 1: 1, 2: 1, 3: 1}
        # A *terminated* garbage line is real corruption, not a torn tail.
        log.write_bytes(b'{"start": 0, "end": 1, "epoch": 1}\nnot json\n')
        with pytest.raises(LeaseError):
            replay_fence_log(tmp_path)


# ----------------------------------------------------------------------
# incremental shard tailing
# ----------------------------------------------------------------------
class TestTailRecords:
    def test_missing_file_reads_empty(self, tmp_path):
        records, offset = tail_records(tmp_path / "nope.jsonl", 0)
        assert records == [] and offset == 0

    def test_incremental_offsets_defer_the_unterminated_tail(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        path.write_bytes(b'{"record": "x", "a": 1}\n{"record": "x", "a": 2}\n')
        records, offset = tail_records(path, 0)
        assert [r["a"] for r in records] == [1, 2]
        with open(path, "ab") as handle:
            handle.write(b'{"record": "x", "a": 3')  # mid-append, no newline yet
        records, offset2 = tail_records(path, offset)
        assert records == [] and offset2 == offset  # tail not yet a record
        with open(path, "ab") as handle:
            handle.write(b'}\n{"record": "x", "a": 4}\n')
        records, offset3 = tail_records(path, offset2)
        assert [r["a"] for r in records] == [3, 4]
        assert offset3 == path.stat().st_size

    def test_terminated_garbage_raises(self, tmp_path):
        path = tmp_path / "shard.jsonl"
        path.write_bytes(b'{"record": "x", "a": 1}\nnot json\n')
        with pytest.raises(JournalError):
            tail_records(path, 0)


# ----------------------------------------------------------------------
# the coordinator + in-process workers
# ----------------------------------------------------------------------
class TestFabricRuns:
    def test_completes_and_folds_byte_identically_to_serial(
        self, tmp_path, serial_fold
    ):
        coordinator = HookedCoordinator(
            run_dir=tmp_path, config=fast_config(), worker_ids=("tw1",)
        )
        session = ExperimentSession(GRID, mode="quick", source=coordinator)
        indexes = [
            event.result.index
            for event in session.events()
            if isinstance(event, CellCompleted)
        ]
        (worker,) = coordinator.threads
        assert worker.join() == 0  # stop sentinel seen
        # The hold-back merge feeds the event stream in strict index order.
        assert indexes == sorted(indexes) == list(range(len(GRID.expand())))
        report = coordinator.report
        assert report.merged == len(indexes)
        assert report.rejected_stale == 0 and report.duplicates == 0
        journal = load_journal(tmp_path)
        assert journal.sealed and journal.seal_reason == "completed"
        assert read_stop(tmp_path) == {
            "kind": STOP_KIND,
            "stop_version": 1,
            "reason": "completed",
        }
        assert fold_bytes(tmp_path) == serial_fold

    def test_stop_policy_seals_early_and_stops_workers(self, tmp_path):
        coordinator = HookedCoordinator(
            run_dir=tmp_path, config=fast_config(), worker_ids=("tw1",)
        )
        session = ExperimentSession(
            GRID, mode="quick", source=coordinator, stop_policies=["max-cells:6"]
        )
        session.run()
        (worker,) = coordinator.threads
        assert worker.join() == 0  # the sentinel, not exhaustion, stopped it
        assert session.finished.reason == "policy:max-cells"
        assert read_stop(tmp_path)["reason"] == "policy:max-cells"
        journal = load_journal(tmp_path)
        assert journal.sealed and journal.seal_reason == "policy:max-cells"
        assert len(session.result.cells) == 6
        assert session.result.stop_reason == "policy:max-cells"

    def test_a_cell_slower_than_the_lease_ttl_keeps_its_lease(self, tmp_path, monkeypatch):
        from repro.runner import scenarios

        grid = dataclasses.replace(GRID, seeds=(1,))
        real_run_cell = scenarios.run_cell

        def slow_first_cell(spec, cell):
            if cell.index == 0:
                time.sleep(1.5)  # three lease TTLs
            return real_run_cell(spec, cell)

        monkeypatch.setattr(scenarios, "run_cell", slow_first_cell)
        deadline = time.monotonic() + 30.0

        def no_fence(coordinator):
            assert coordinator.report.fenced == 0, "the slow cell's lease was fenced"
            assert time.monotonic() < deadline, "the fabric run did not finish"

        coordinator = HookedCoordinator(
            run_dir=tmp_path,
            config=fast_config(lease_ttl=0.5, chunks_per_worker=1),
            worker_ids=("slow",),
            on_step=no_fence,
        )
        session = ExperimentSession(grid, mode="quick", source=coordinator)
        session.run()
        (worker,) = coordinator.threads
        assert worker.join() == 0
        assert coordinator.report.fenced == 0
        assert worker.worker.fenced_observed == 0
        assert len(session.result.cells) == len(grid.expand())

    def test_resume_after_coordinator_loss(self, tmp_path, serial_fold):
        first = HookedCoordinator(
            run_dir=tmp_path, config=fast_config(), worker_ids=("tw1",)
        )
        events = ExperimentSession(GRID, mode="quick", source=first).events()
        deadline = time.monotonic() + 60
        for _ in events:
            assert time.monotonic() < deadline, "no progress before interruption"
            if first.report.merged >= 8:
                break
        # Die like a SIGINTed run: closing the stream writes the sentinel
        # and leaves the journal unsealed.
        events.close()
        assert read_stop(tmp_path)["reason"] == "interrupted"
        (worker,) = first.threads
        assert worker.join() == 0
        assert not load_journal(tmp_path).sealed

        at_start = {}

        def published(coordinator):
            at_start["stop"] = read_stop(tmp_path)
            at_start["fenced"] = coordinator.report.fenced
            at_start["max_epoch"] = max(replay_fence_log(tmp_path).values())

        resumed = HookedCoordinator(
            run_dir=tmp_path,
            config=fast_config(),
            worker_ids=("tw2",),
            on_start=published,
        )
        ExperimentSession.resume(tmp_path, source=resumed).run()
        assert at_start["stop"] is None  # stale sentinel deleted
        # Leftover lease files from the dead incarnation were fenced.
        assert at_start["fenced"] >= 1
        assert at_start["max_epoch"] >= 1
        (second_worker,) = resumed.threads
        assert second_worker.join() == 0
        journal = load_journal(tmp_path)
        assert journal.sealed and journal.seal_reason == "completed"
        assert fold_bytes(tmp_path) == serial_fold

    def test_resume_refuses_a_sealed_journal(self, tmp_path):
        coordinator = HookedCoordinator(
            run_dir=tmp_path, config=fast_config(), worker_ids=("tw1",)
        )
        ExperimentSession(GRID, mode="quick", source=coordinator).run()
        coordinator.threads[0].join()
        with pytest.raises(ExperimentError, match="sealed"):
            ExperimentSession.resume(tmp_path, source=FabricCoordinator(run_dir=tmp_path))

    def test_resume_refuses_cells_outside_the_grid(self, tmp_path):
        """One resume path: a fabric resume checks the journal like any other."""
        spec = GridSpec(
            name="stray",
            algorithms=("bw",),
            topologies=(TopologySpec.make("figure-1a"),),
            behaviors=("crash", "fixed-high"),
            seeds=(1, 2, 3, 4),
        )
        assert spec.num_cells == 8
        events = ExperimentSession(spec, mode="quick", run_dir=tmp_path).events()
        completed = 0
        for event in events:
            completed += isinstance(event, CellCompleted)
            if completed == 3:
                break
        events.close()
        path = journal_path(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        last = json.loads(lines[-1])
        last["cell"]["index"] = 99
        lines[-1] = json.dumps(last, sort_keys=True, separators=(",", ":")) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(JournalError, match=r"\[99\] outside the 8-cell grid"):
            ExperimentSession.resume(
                tmp_path, source=FabricCoordinator(run_dir=tmp_path, config=fast_config())
            )
        assert not load_journal(tmp_path).sealed

    def test_source_and_session_must_share_the_run_dir(self, tmp_path):
        fabric = FabricCoordinator(run_dir=tmp_path / "a")
        assert ExperimentSession(GRID, source=fabric).run_dir == tmp_path / "a"
        with pytest.raises(ExperimentError, match="same run directory"):
            ExperimentSession(GRID, source=fabric, run_dir=tmp_path / "b")
        with pytest.raises(ExperimentError, match="default pool source"):
            ExperimentSession(GRID, source=fabric, workers=2)

    def test_worker_exits_orphaned_when_the_coordinator_heartbeat_stales(
        self, tmp_path
    ):
        coordinator = started_coordinator(tmp_path, fast_config(orphan_grace=0.3))
        coordinator.close()  # coordinator dies; manifest mtime now frozen
        old = time.time() - 100
        os.utime(manifest_path(tmp_path), (old, old))
        worker = FabricWorker(tmp_path, "lonely")
        assert worker.run() == EXIT_ORPHANED
        status = json.loads(
            (workers_dir(tmp_path) / "lonely.json").read_text(encoding="utf-8")
        )
        assert status["state"] == "exited"  # final rewrite on the way out


# ----------------------------------------------------------------------
# one session, three cell sources
# ----------------------------------------------------------------------
#: 50 cheap BW cells with a committed baseline (churn.full.json): large
#: enough for max-cells:6 and for three checkpoints at the default cadence.
CHURN = get_scenario("churn").grid(quick=False)


def source_options(kind: str, run_dir) -> dict:
    if kind == "serial":
        return {}
    if kind == "pool":
        return {"workers": 2}
    return {
        "source": HookedCoordinator(
            run_dir=run_dir, config=fast_config(), worker_ids=("e1", "e2")
        )
    }


def comparable(event):
    """An event minus what legitimately differs between sources and dirs."""
    if isinstance(event, RunStarted):
        return dataclasses.replace(event, workers=0, run_dir=None)
    if isinstance(event, CheckpointWritten):
        return dataclasses.replace(event, path=pathlib.Path(event.path).name)
    if isinstance(event, RunFinished):
        return dataclasses.replace(event, wall_seconds=0.0)
    return event


class TestSourceEquivalence:
    @pytest.mark.parametrize(
        "policies", [(), ("max-cells:6",)], ids=["to-completion", "max-cells"]
    )
    def test_every_source_gives_the_same_event_sequence(self, tmp_path, policies):
        runs = {}
        for kind in ("serial", "pool", "fabric"):
            run_dir = tmp_path / kind
            session = ExperimentSession(
                CHURN,
                mode="full",
                run_dir=run_dir,
                stop_policies=policies,
                **source_options(kind, run_dir),
            )
            events = [comparable(event) for event in session.events()]
            journal = load_journal(run_dir)
            stop = read_stop(run_dir)
            runs[kind] = (events, journal.seal_reason, fold_bytes(run_dir))
            if kind == "fabric":
                assert all(thread.join() == 0 for thread in session.source.threads)
                assert stop["reason"] == journal.seal_reason
            else:
                assert stop is None
        serial = runs["serial"]
        assert any(isinstance(event, CheckpointWritten) for event in serial[0])
        assert serial[1] == ("policy:max-cells" if policies else "completed")
        assert runs["pool"] == serial
        assert runs["fabric"] == serial
        if not policies:
            baseline = load_artifact(BASELINE_DIR / "churn.full.json")
            assert compare(baseline, json.loads(serial[2])).ok

    def test_closing_a_fabric_session_leaves_it_resumable(self, tmp_path):
        reference = tmp_path / "serial"
        ExperimentSession(CHURN, run_dir=reference).run()
        run_dir = tmp_path / "fabric"
        session = ExperimentSession(CHURN, **source_options("fabric", run_dir))
        events = session.events()
        for event in events:
            if isinstance(event, CellCompleted) and event.completed == 10:
                break
        events.close()
        assert all(thread.join() == 0 for thread in session.source.threads)
        assert read_stop(run_dir)["reason"] == "interrupted"
        journal = load_journal(run_dir)
        assert not journal.sealed and len(journal.cells) == 10
        resumed = ExperimentSession.resume(run_dir)
        resumed.run()
        assert resumed.finished.reason == "completed"
        assert fold_bytes(run_dir) == fold_bytes(reference)


# ----------------------------------------------------------------------
# lease expiry, epoch fencing, duplicates, work stealing
# ----------------------------------------------------------------------
class TestFencing:
    def test_expired_lease_is_fenced_and_republished(self, tmp_path):
        # one lease over all cells
        coordinator = started_coordinator(tmp_path, fast_config(chunks_per_worker=1))
        try:
            claimed = claim(tmp_path, "stalled")
            assert claimed is not None
            path, lease = claimed
            assert lease.epoch == 0
            old = time.time() - 100
            os.utime(path, (old, old))  # heartbeat long dead
            coordinator.step()
            assert not path.exists()
            assert coordinator.report.fenced == 1
            republished = list_available(tmp_path)
            assert len(republished) == 1
            bumped = read_lease(republished[0])
            assert (bumped.start, bumped.end, bumped.epoch) == (lease.start, lease.end, 1)
            epochs = replay_fence_log(tmp_path)
            assert all(epochs[i] == 1 for i in lease.indexes())
        finally:
            coordinator.close()

    def test_stale_epoch_records_are_rejected_and_do_not_leak(
        self, tmp_path, serial_fold
    ):
        def zombie(coordinator):
            # A worker claims, stalls past the TTL, and is fenced (epoch -> 1).
            path, _ = claim(tmp_path, "zombie")
            old = time.time() - 100
            os.utime(path, (old, old))
            coordinator.step()
            # The zombie wakes up and appends a *corrupted* result for cell 0,
            # stamped with the epoch it still believes in.  If epoch fencing
            # failed, this poisoned payload would reach the journal.
            real = run_cell(GRID, GRID.expand()[0])
            poisoned = dataclasses.replace(real, rounds=real.rounds + 999, messages=0)
            with ShardWriter(tmp_path, "zombie", coordinator.spec_hash) as shard:
                shard.append_cell(poisoned, epoch=0)
            coordinator.step()
            assert coordinator.report.rejected_stale == 1

        # A healthy worker then runs everything at the fenced epoch.
        coordinator = HookedCoordinator(
            run_dir=tmp_path,
            config=fast_config(chunks_per_worker=1),
            worker_ids=("healthy",),
            on_start=zombie,
        )
        ExperimentSession(GRID, mode="quick", source=coordinator).run()
        (worker,) = coordinator.threads
        assert worker.join() == 0
        assert coordinator.report.rejected_stale >= 1
        assert fold_bytes(tmp_path) == serial_fold  # the poison never landed

    def test_duplicate_shard_records_are_dropped(self, tmp_path):
        coordinator = started_coordinator(tmp_path, fast_config())
        try:
            result = run_cell(GRID, GRID.expand()[0])
            with ShardWriter(tmp_path, "echo", coordinator.spec_hash) as shard:
                shard.append_cell(result, epoch=0)
                shard.append_cell(result, epoch=0)  # re-delivered record
            coordinator.step()
            assert coordinator.report.merged == 1
            assert coordinator.report.duplicates == 1
        finally:
            coordinator.close()

    def test_shard_from_another_run_is_refused(self, tmp_path):
        coordinator = started_coordinator(tmp_path, fast_config())
        try:
            with ShardWriter(tmp_path, "stranger", "0" * 64):
                pass  # header only, wrong spec_hash
            with pytest.raises(FabricError, match="spec_hash"):
                coordinator.step()
        finally:
            coordinator.close()

    def test_split_steals_the_tail_of_the_largest_lease(self, tmp_path):
        coordinator = started_coordinator(
            tmp_path, fast_config(chunks_per_worker=1, lease_ttl=30.0)
        )
        try:
            path, lease = claim(tmp_path, "slowpoke")  # owns all 24 cells, alive
            # An external idle worker advertises itself via its status file.
            directory = workers_dir(tmp_path)
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                directory / "idler.json",
                {
                    "kind": WORKER_KIND,
                    "worker": "idler",
                    "pid": 99999,
                    "state": "idle",
                    "lease": None,
                    "epoch": None,
                    "cells_done": 0,
                    "caches": {},
                },
            )
            coordinator.step()
            assert coordinator.report.splits == 1
            # Owner keeps the head, in place: same file name, shrunk content.
            shrunk = read_lease(path)
            assert path.name == "00000000-00000024.owned.slowpoke"
            assert (shrunk.start, shrunk.end, shrunk.epoch) == (0, 12, 0)
            # The stolen tail is republished at the bumped epoch.
            stolen = [read_lease(p) for p in list_available(tmp_path)]
            assert [(s.start, s.end, s.epoch) for s in stolen] == [(12, 24, 1)]
            epochs = replay_fence_log(tmp_path)
            assert epochs[12] == 1 and epochs[23] == 1 and 11 not in epochs
        finally:
            coordinator.close()


# ----------------------------------------------------------------------
# crash injection: SIGKILL a real pool worker mid-lease
# ----------------------------------------------------------------------
class TestCrashInjection:
    def test_sigkilled_worker_is_fenced_and_the_run_still_folds_identically(
        self, tmp_path, serial_fold
    ):
        config = FabricConfig(
            workers=2,
            lease_ttl=2.0,
            poll_interval=0.05,
            chunks_per_worker=2,
            worker_throttle=0.2,  # widen the mid-lease kill window
        )
        killed = []
        deadline = time.monotonic() + 120

        def kill_a_lease_owner(coordinator):
            assert time.monotonic() < deadline, "fabric run did not finish"
            if killed:
                return
            pool_pids = coordinator.worker_pids
            for _, owner in list_owned(tmp_path):
                if owner in pool_pids:
                    os.kill(pool_pids[owner], signal.SIGKILL)
                    killed.append(owner)
                    break

        coordinator = HookedCoordinator(
            run_dir=tmp_path, config=config, on_step=kill_a_lease_owner
        )
        ExperimentSession(GRID, mode="quick", source=coordinator).run()
        assert killed, "no pool worker ever owned a lease"
        assert coordinator.report.fenced >= 1
        journal = load_journal(tmp_path)
        assert journal.sealed and journal.seal_reason == "completed"
        assert fold_bytes(tmp_path) == serial_fold


# ----------------------------------------------------------------------
# docs/fabric-protocol.md conformance
# ----------------------------------------------------------------------
def _doc_blocks() -> dict:
    """``<!-- conformance:NAME -->`` JSON blocks from the protocol spec."""
    text = PROTOCOL_DOC.read_text(encoding="utf-8")
    pattern = re.compile(
        r"<!-- conformance:(?P<name>[a-z-]+) -->\s*```json\n(?P<body>.*?)```",
        re.DOTALL,
    )
    return {
        match.group("name"): json.loads(match.group("body"))
        for match in pattern.finditer(text)
    }


def _is_placeholder(value) -> bool:
    """Doc values like ``"<sha256 hex ...>"`` / ``{"...": ...}`` are schematic."""
    if isinstance(value, str):
        return value.startswith("<") and value.endswith(">")
    if isinstance(value, dict):
        return "..." in value
    return False


def _assert_conforms(doc: dict, actual: dict, name: str) -> None:
    assert set(doc) == set(actual), f"{name}: key sets differ"
    for key, documented in doc.items():
        if _is_placeholder(documented):
            continue
        assert actual[key] == documented, f"{name}: value of {key!r} differs"


class TestDocConformance:
    def test_the_spec_documents_every_format(self):
        assert set(_doc_blocks()) == {
            "manifest",
            "lease",
            "fence",
            "shard-header",
            "shard-cell",
            "stop",
            "worker-status",
        }

    def test_manifest_block(self, tmp_path):
        doc = _doc_blocks()["manifest"]
        write_manifest(tmp_path, "a" * 64, "quick", FabricConfig())
        actual = read_manifest(tmp_path)
        _assert_conforms(doc, actual, "manifest")
        assert doc["kind"] == FABRIC_KIND
        assert doc["fabric_version"] == FABRIC_VERSION

    def test_lease_block(self):
        doc = _doc_blocks()["lease"]
        assert doc == Lease(0, 5, 0).as_dict()
        assert doc["kind"] == LEASE_KIND and doc["lease_version"] == LEASE_VERSION

    def test_fence_block(self, tmp_path):
        doc = _doc_blocks()["fence"]
        append_fence(tmp_path, Lease(5, 10, 1))
        line = fence_log_path(tmp_path).read_text(encoding="utf-8").strip()
        assert json.loads(line) == doc

    def test_shard_blocks(self, tmp_path):
        header_doc = _doc_blocks()["shard-header"]
        cell_doc = _doc_blocks()["shard-cell"]
        with ShardWriter(tmp_path, "w1", "b" * 64) as shard:
            shard.append_cell(run_cell(GRID, GRID.expand()[0]), epoch=0)
        records, _ = tail_records(shard_path(tmp_path, "w1"), 0)
        header, cell = records
        _assert_conforms(header_doc, header, "shard-header")
        assert header_doc["kind"] == SHARD_KIND
        assert header_doc["shard_version"] == SHARD_VERSION
        _assert_conforms(cell_doc, cell, "shard-cell")

    def test_stop_block(self, tmp_path):
        doc = _doc_blocks()["stop"]
        write_stop(tmp_path, "completed")
        assert read_stop(tmp_path) == doc
        assert doc["kind"] == STOP_KIND

    def test_worker_status_block(self, tmp_path):
        doc = _doc_blocks()["worker-status"]
        worker = FabricWorker(tmp_path, "w1")
        worker._write_status("working", Lease(0, 5, 0))
        actual = json.loads(
            (workers_dir(tmp_path) / "w1.json").read_text(encoding="utf-8")
        )
        assert set(doc) == set(actual)
        assert actual["kind"] == WORKER_KIND == doc["kind"]
        assert actual["lease"] == doc["lease"] == "00000000-00000005"
        # Every state the implementation writes is one the doc enumerates.
        text = PROTOCOL_DOC.read_text(encoding="utf-8")
        for state in ("idle", "working", "orphaned", "exited"):
            assert f"`{state}`" in text

    def test_file_names_and_exit_code_match_the_spec(self):
        text = PROTOCOL_DOC.read_text(encoding="utf-8")
        for constant in (
            MANIFEST_FILENAME,
            STOP_FILENAME,
            FENCE_LOG_FILENAME,
            "journal.jsonl",
            "leases/",
            "shards/",
            "workers/",
            ".lease",
            ".owned.",
        ):
            assert constant in text, f"spec never mentions {constant!r}"
        assert f"**{EXIT_ORPHANED}**" in text  # the orphaned-worker exit code


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestFabricCLI:
    def test_conflicting_flags_are_usage_errors(self, capsys):
        base = ["run", "--scenario", "definition1", "--quick"]
        for extra in (
            ["--fabric", "-1"],
            ["--fabric", "1", "--workers", "2"],
            ["--fabric", "1", "--chunk-size", "4"],
            ["--lease-ttl", "5"],  # only meaningful with --fabric
            ["--worker-throttle", "0.1"],
            ["--fabric", "1", "--scenario", "table1"],  # one scenario per run dir
        ):
            assert main(base + extra) == EXIT_ERROR
            assert "error:" in capsys.readouterr().err

    def test_fabric_run_status_and_baseline_comparison(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        artifact = tmp_path / "definition1.quick.json"
        code = main(
            [
                "run",
                "--scenario",
                "definition1",
                "--quick",
                "--fabric",
                "1",
                "--run-dir",
                str(run_dir),
                "--output",
                str(artifact),
                "--no-table",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "fabric workers=1" in out and "merged=" in out
        report = compare(
            load_artifact(BASELINE_DIR / "definition1.quick.json"),
            load_artifact(artifact),
        )
        assert report.ok, report.summary() if hasattr(report, "summary") else report
        assert main(["fabric", "status", "--run-dir", str(run_dir)]) == EXIT_OK
        rendered = capsys.readouterr().out
        assert "sealed (completed)" in rendered
        assert "3/3 cells merged" in rendered
        assert main(["fabric", "status", "--run-dir", str(run_dir), "--json"]) == EXIT_OK
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["journal"]["sealed"] is True
        assert snapshot["stop"]["reason"] == "completed"
        # The library helper renders the same snapshot without touching disk.
        assert "sealed (completed)" in render_fabric_status(snapshot)

    def test_status_rejects_a_non_fabric_directory(self, tmp_path, capsys):
        assert main(["fabric", "status", "--run-dir", str(tmp_path)]) == EXIT_ERROR
        assert "not a fabric run directory" in capsys.readouterr().err

    def test_worker_cli_propagates_the_orphan_exit_code(self, tmp_path):
        coordinator = started_coordinator(tmp_path, fast_config(orphan_grace=0.3))
        coordinator.close()
        old = time.time() - 100
        os.utime(manifest_path(tmp_path), (old, old))
        code = main(
            ["fabric", "worker", "--run-dir", str(tmp_path), "--worker-id", "cli-w"]
        )
        assert code == EXIT_FABRIC_ORPHANED == 4

    def test_worker_cli_rejects_unsafe_worker_ids(self, tmp_path, capsys):
        code = main(
            ["fabric", "worker", "--run-dir", str(tmp_path), "--worker-id", "a/b"]
        )
        assert code == EXIT_ERROR
        assert "filename-safe" in capsys.readouterr().err
