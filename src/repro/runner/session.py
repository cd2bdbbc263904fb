"""Streaming execution sessions: the one owner of a sweep run.

An :class:`ExperimentSession` wraps one :class:`~repro.runner.harness.GridSpec`
(optionally plus a run directory) and owns everything about running it:
the journal, the typed event stream, stop policies, the seal and the
folded result / artifact.  Where the cells actually execute is delegated to
a **cell source** — any object whose ``stream(spec, cells)`` yields
:class:`~repro.runner.harness.CellResult`\\ s in cell-index order:

* :class:`~repro.runner.harness.SweepEngine` (the default) runs the cells
  serially or on a ``multiprocessing`` pool (``workers`` / ``chunk_size`` /
  ``runner`` configure it);
* :class:`~repro.runner.fabric.FabricCoordinator` leases them to fabric
  workers over a shared run directory.

Because every source yields the same cells in the same order, the events,
journal and artifact never depend on where the cells ran.

* :meth:`ExperimentSession.events` yields typed events — :class:`RunStarted`,
  :class:`CellCompleted`, :class:`GroupUpdated`, :class:`CheckpointWritten`,
  :class:`RunFinished` — as cells finish.
  :meth:`ExperimentSession.iter_results` is the thin cell-level view and
  :meth:`ExperimentSession.run` the blocking form.
* With a ``run_dir``, every completed cell is appended (flushed per record,
  fsynced at every checkpoint) to the canonical JSONL journal
  (:mod:`repro.runner.journal`) before its event is emitted, so an
  interrupted run keeps all paid-for work.
  :meth:`ExperimentSession.resume` re-expands the grid, verifies the
  journal's spec hash, skips the durably completed cell indexes — per-cell
  seeds derive from ``(scenario, index)``, so a resumed run is
  byte-identical to an uninterrupted one — and continues on any source.
* :class:`StopPolicy` instances (resolved by name through the
  :data:`~repro.registry.STOP_POLICIES` registry: ``max-cells:N``,
  ``max-wall-time:SECONDS``, ``group-converged:RUNS``) watch the event
  stream and can end the session early: the session throws
  :class:`~repro.runner.harness.StopSweep` into the source's stream, then
  *seals* the journal with the policy's reason; the partial artifact is
  still valid.

The blocking call is one line on top of the stream::

    from repro.api import ExperimentSession

    session = ExperimentSession(spec, workers=4, run_dir="runs/table2.full")
    for event in session.events():
        ...  # render progress, feed dashboards, evaluate policies
    payload = session.write_artifact("benchmarks/results/table2.full.json")
"""

from __future__ import annotations

import dataclasses
import pathlib
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.exceptions import ExperimentError, JournalError
from repro.registry import STOP_POLICIES, parse_plugin_spec, validate_plugin_args
from repro.runner.artifacts import (
    artifact_payload,
    environment_metadata,
    write_payload,
)
from repro.runner.harness import (
    CellResult,
    CellRunner,
    GridSpec,
    GroupAggregate,
    StopSweep,
    SweepEngine,
    SweepRunResult,
    _fold_into,
    aggregate_cells,
)
from repro.runner.journal import Journal, JournalWriter, journal_path, load_journal

# The default source runs scenarios.run_cell, which harness can only import
# lazily (scenarios imports harness).  Importing it with the session loads the
# cell stack (registry built-ins, scenario files, worker caches) before the
# first cell; perfbench's layer tracer patches those modules by name then.
import repro.runner.scenarios  # noqa: F401

PathLike = Union[str, pathlib.Path]

#: A :class:`CheckpointWritten` event is emitted — and the journal fsynced —
#: every this many fresh cells.  Records are flushed as they are appended
#: (process crashes lose nothing); the checkpoint fsync is the machine-crash
#: durability barrier.
DEFAULT_CHECKPOINT_INTERVAL = 16


# ----------------------------------------------------------------------
# the typed event stream
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionEvent:
    """Base class of every event a session emits."""


@dataclass(frozen=True)
class RunStarted(SessionEvent):
    """First event: the run's envelope, before any cell executes."""

    scenario: str
    mode: str
    total_cells: int
    #: Number of cells replayed from the journal (resumed runs; 0 otherwise).
    completed_cells: int
    #: Number of distinct aggregation groups the grid will produce.
    expected_groups: int
    workers: int
    run_dir: Optional[str] = None


@dataclass(frozen=True)
class CellCompleted(SessionEvent):
    """One cell finished (or was replayed from the journal on resume)."""

    result: CellResult
    completed: int
    total: int
    #: ``True`` when the cell was read back from the journal rather than
    #: executed by this session.
    replayed: bool = False


@dataclass(frozen=True)
class GroupUpdated(SessionEvent):
    """The aggregate of one group absorbed a new cell (snapshot copy)."""

    key: Tuple[str, str, int, str, str, str]
    group: GroupAggregate


@dataclass(frozen=True)
class CheckpointWritten(SessionEvent):
    """The journal has durably recorded ``cells_recorded`` cells."""

    path: str
    cells_recorded: int
    sealed: bool = False


@dataclass(frozen=True)
class RunFinished(SessionEvent):
    """Last event: the run completed or a stop policy sealed it early."""

    scenario: str
    reason: str  # "completed" | "policy:<name>"
    completed: int
    total: int
    successes: int
    wall_seconds: float
    #: The stop policy's explanation when ``reason`` is ``policy:<name>``.
    detail: Optional[str] = None


# ----------------------------------------------------------------------
# stop policies
# ----------------------------------------------------------------------
class StopPolicy:
    """Watches the event stream; returns a reason string to stop the run.

    Subclasses override :meth:`observe`; returning a non-``None`` string
    ends the session after the current cell, seals the journal with
    ``policy:<name>`` and leaves a valid partial artifact.  Policies are
    registered in :data:`~repro.registry.STOP_POLICIES` and addressable
    from the CLI as ``run --stop-policy name:args``.
    """

    name: str = "stop"

    def observe(self, event: SessionEvent) -> Optional[str]:
        raise NotImplementedError


class MaxCellsPolicy(StopPolicy):
    """Stop once ``limit`` cells are complete (replayed cells count)."""

    name = "max-cells"

    def __init__(self, limit: int) -> None:
        limit = int(limit)
        if limit < 1:
            raise ExperimentError(f"max-cells limit must be >= 1, got {limit}")
        self.limit = limit

    def observe(self, event: SessionEvent) -> Optional[str]:
        if isinstance(event, CellCompleted) and event.completed >= self.limit:
            return f"completed {event.completed} of {event.total} cells (limit {self.limit})"
        return None


class MaxWallTimePolicy(StopPolicy):
    """Stop once the session has run for ``seconds`` of wall-clock time."""

    name = "max-wall-time"

    def __init__(self, seconds: float) -> None:
        seconds = float(seconds)
        if seconds < 0:
            raise ExperimentError(f"max-wall-time seconds must be >= 0, got {seconds}")
        self.seconds = seconds
        self._started: Optional[float] = None

    def observe(self, event: SessionEvent) -> Optional[str]:
        if isinstance(event, RunStarted):
            self._started = time.monotonic()
            return None
        if self._started is None or not isinstance(event, CellCompleted):
            return None
        elapsed = time.monotonic() - self._started
        if elapsed >= self.seconds:
            return f"ran {elapsed:.1f}s (budget {self.seconds:g}s)"
        return None


class GroupConvergedPolicy(StopPolicy):
    """Stop once every aggregation group has at least ``min_runs`` runs.

    Useful on grids with long seed axes: the sweep ends as soon as each
    (algorithm, topology, f, behaviour, placement) group has collected the
    requested number of repetitions, instead of draining every seed.
    """

    name = "group-converged"

    def __init__(self, min_runs: int) -> None:
        min_runs = int(min_runs)
        if min_runs < 1:
            raise ExperimentError(f"group-converged min_runs must be >= 1, got {min_runs}")
        self.min_runs = min_runs
        self._expected_groups: Optional[int] = None
        self._runs: Dict[Tuple, int] = {}

    def observe(self, event: SessionEvent) -> Optional[str]:
        if isinstance(event, RunStarted):
            self._expected_groups = event.expected_groups
            return None
        if not isinstance(event, GroupUpdated):
            return None
        self._runs[event.key] = event.group.runs
        if self._expected_groups is None or len(self._runs) < self._expected_groups:
            return None
        if all(runs >= self.min_runs for runs in self._runs.values()):
            return f"all {len(self._runs)} groups reached {self.min_runs} run(s)"
        return None


STOP_POLICIES.register(
    "max-cells",
    MaxCellsPolicy,
    summary="stop after N completed cells",
    metadata={"params": ("limit",), "min_params": 1},
)
STOP_POLICIES.register(
    "max-wall-time",
    MaxWallTimePolicy,
    summary="stop after a wall-clock budget in seconds",
    metadata={"params": ("seconds",), "min_params": 1},
)
STOP_POLICIES.register(
    "group-converged",
    GroupConvergedPolicy,
    summary="stop once every group has N runs",
    metadata={"params": ("min_runs",), "min_params": 1},
)


def make_stop_policy(spec_text: str) -> StopPolicy:
    """Build a policy from CLI syntax (``"max-cells:100"``) via the registry."""
    entry = validate_plugin_args(STOP_POLICIES, spec_text)
    name, args = parse_plugin_spec(spec_text)
    policy = entry.obj(*args)
    if not isinstance(policy, StopPolicy):
        raise ExperimentError(
            f"stop-policy {name!r} factory returned {type(policy).__name__}, "
            "expected a StopPolicy"
        )
    return policy


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
@dataclass
class _SessionState:
    """Mutable run state shared between events() and the public accessors."""

    results: List[CellResult] = field(default_factory=list)
    groups: Dict[Tuple[str, str, int, str, str, str], GroupAggregate] = field(default_factory=dict)
    finished: Optional[RunFinished] = None


class ExperimentSession:
    """One resumable, observable execution of a grid: the run's only owner.

    Parameters
    ----------
    spec:
        The grid to execute.
    mode:
        Artifact mode recorded in the journal header and derived artifact
        (``"full"`` or ``"quick"``).
    workers / chunk_size / runner:
        Settings of the default :class:`SweepEngine` source; a 4-worker
        session produces the same events, journal and artifact bytes as a
        serial one.  They cannot be combined with ``source``.
    source:
        Where the cells execute: any object whose ``stream(spec, cells)``
        yields :class:`CellResult`\\ s in cell-index order (and that may
        report a ``workers`` count).  ``None`` builds the default
        :class:`SweepEngine`.  A source bound to a run directory (the
        fabric) supplies ``run_dir`` when it is not given, and must agree
        with it when it is.
    run_dir:
        Enables durable journaling: completed cells are appended to
        ``<run_dir>/journal.jsonl`` (flushed per record, fsynced every
        ``checkpoint_interval`` cells and at the seal).  ``None`` runs in
        memory (no journal, no checkpoints, not resumable).
    stop_policies:
        :class:`StopPolicy` instances or ``"name:args"`` specs resolved
        through :data:`~repro.registry.STOP_POLICIES`.
    checkpoint_interval:
        Cells between :class:`CheckpointWritten` events on journaled runs.
    """

    def __init__(
        self,
        spec: GridSpec,
        *,
        mode: str = "full",
        workers: int = 1,
        chunk_size: Optional[int] = None,
        runner: Optional[CellRunner] = None,
        source: Optional[object] = None,
        run_dir: Optional[PathLike] = None,
        stop_policies: Iterable[Union[StopPolicy, str]] = (),
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        if mode not in ("quick", "full"):
            raise ExperimentError(f"mode must be 'quick' or 'full', got {mode!r}")
        if checkpoint_interval < 1:
            raise ExperimentError("checkpoint_interval must be >= 1")
        if source is None:
            source = SweepEngine(workers=workers, chunk_size=chunk_size, runner=runner)
        elif workers != 1 or chunk_size is not None or runner is not None:
            raise ExperimentError(
                "workers/chunk_size/runner configure the default pool source and "
                f"cannot be combined with source={type(source).__name__} (it runs "
                "the cells on its own workers)"
            )
        source_dir = getattr(source, "run_dir", None)
        if source_dir is not None:
            if run_dir is None:
                run_dir = source_dir
            elif pathlib.Path(run_dir).resolve() != pathlib.Path(source_dir).resolve():
                raise ExperimentError(
                    f"source={type(source).__name__} works over {source_dir}, but the "
                    f"session journals to {run_dir}; pass the same run directory"
                )
        self.spec = spec
        self.mode = mode
        self.source = source
        self.run_dir = pathlib.Path(run_dir) if run_dir is not None else None
        self.checkpoint_interval = checkpoint_interval
        self.stop_policies: List[StopPolicy] = [
            policy if isinstance(policy, StopPolicy) else make_stop_policy(policy)
            for policy in stop_policies
        ]
        self._resumed_journal: Optional[Journal] = None
        self._provenance: Optional[Dict[str, object]] = None
        self._state = _SessionState()
        self._consumed = False

    # -- construction from a run directory -------------------------------
    @classmethod
    def resume(
        cls,
        run_dir: PathLike,
        *,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        runner: Optional[CellRunner] = None,
        source: Optional[object] = None,
        stop_policies: Iterable[Union[StopPolicy, str]] = (),
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> "ExperimentSession":
        """Continue an interrupted journaled run from its run directory.

        Loads and validates the journal (spec hash verified against the
        recorded grid — :mod:`repro.runner.journal`), re-expands the grid
        and schedules only the cells whose indexes are not yet durably
        recorded, on the default pool or on ``source`` (a fabric run
        resumes with ``source=FabricCoordinator(run_dir=...)``).  Per-cell
        seeds derive from ``(scenario, index)``, so the resumed run's
        artifact is byte-identical to an uninterrupted one.  A sealed
        journal (completed or policy-stopped), or one recording cells
        outside its grid, refuses to resume.
        """
        journal = load_journal(run_dir)
        if journal.sealed:
            raise JournalError(
                f"journal {journal.path} is already sealed ({journal.seal_reason!r}); "
                "nothing to resume — delete the run directory (or pick a fresh "
                "--run-dir) to run the grid again"
            )
        spec = journal.grid_spec()
        grid_indices = {cell.index for cell in spec.expand()}
        stray = sorted(journal.completed_indices() - grid_indices)
        if stray:
            raise JournalError(
                f"journal {journal.path} records cell indexes {stray[:5]} outside the "
                f"{len(grid_indices)}-cell grid it declares"
            )
        current_environment = environment_metadata()
        if journal.environment is not None and journal.environment != current_environment:
            warnings.warn(
                f"resuming journal {journal.path} under a different environment "
                f"({journal.environment} -> {current_environment}); results stay "
                "deterministic but floating-point behaviour across interpreter "
                "versions is not contractually identical",
                RuntimeWarning,
                stacklevel=2,
            )
        session = cls(
            spec,
            mode=journal.mode,
            workers=workers,
            chunk_size=chunk_size,
            runner=runner,
            source=source,
            run_dir=journal.path.parent,
            stop_policies=stop_policies,
            checkpoint_interval=checkpoint_interval,
        )
        session._resumed_journal = journal
        return session

    # -- introspection ----------------------------------------------------
    @property
    def workers(self) -> int:
        return getattr(self.source, "workers", 1)

    @property
    def journaling(self) -> bool:
        return self.run_dir is not None

    @property
    def journal_path(self) -> Optional[pathlib.Path]:
        return journal_path(self.run_dir) if self.run_dir is not None else None

    @property
    def finished(self) -> Optional[RunFinished]:
        """The terminal event, once the session has run to its seal."""
        return self._state.finished

    @property
    def result(self) -> SweepRunResult:
        """The folded :class:`SweepRunResult` (after the session finished)."""
        finished = self._state.finished
        if finished is None:
            raise ExperimentError("session has not finished; drain events() or run() first")
        cells = sorted(self._state.results, key=lambda cell: cell.index)
        return SweepRunResult(
            spec=self.spec,
            cells=cells,
            groups=aggregate_cells(cells),
            workers=self.workers,
            wall_seconds=finished.wall_seconds,
            stop_reason=None if finished.reason == "completed" else finished.reason,
        )

    def provenance(self) -> Optional[Dict[str, object]]:
        """Journal-header provenance for journaled runs, else ``None``.

        Passed to :func:`~repro.runner.artifacts.artifact_payload` so a
        resumed run's artifact carries the provenance of the run that
        *started* the journal — byte-identical to the uninterrupted run.
        """
        return dict(self._provenance) if self._provenance is not None else None

    # -- the event stream -------------------------------------------------
    def events(self) -> Iterator[SessionEvent]:
        """Yield the session's typed event stream, executing the grid.

        One-shot: a session runs at most once (resume constructs a new
        session over the same run directory).  Closing the iterator early —
        or a ``KeyboardInterrupt`` in the consuming loop — closes the
        source (releasing its pool or workers) and leaves the journal
        *unsealed*, i.e. resumable; the journal is sealed only on
        completion or when a stop policy ends the run.
        """
        if self._consumed:
            raise ExperimentError(
                "session already executed; construct a new ExperimentSession "
                "(or ExperimentSession.resume) to run again"
            )
        self._consumed = True
        return self._event_stream()

    def iter_results(self) -> Iterator[CellResult]:
        """Thin cell-level view of :meth:`events` (fresh and replayed cells)."""
        for event in self.events():
            if isinstance(event, CellCompleted):
                yield event.result

    def run(self) -> SweepRunResult:
        """Drain the event stream and return the folded result."""
        for _ in self.events():
            pass
        return self.result

    # -- artifacts --------------------------------------------------------
    def artifact_payload(self) -> Dict[str, object]:
        """Canonical artifact payload for the finished session."""
        return artifact_payload(self.result, mode=self.mode, provenance=self.provenance())

    def write_artifact(self, path: PathLike) -> Dict[str, object]:
        """Serialize the finished session's artifact to ``path`` (atomic)."""
        payload = self.artifact_payload()
        write_payload(path, payload)
        return payload

    # -- internals --------------------------------------------------------
    def _observe_policies(self, event: SessionEvent) -> Optional[Tuple[str, str]]:
        for policy in self.stop_policies:
            detail = policy.observe(event)
            if detail is not None:
                return policy.name, detail
        return None

    def _open_writer(self) -> Optional[JournalWriter]:
        if not self.journaling:
            self._provenance = None
            return None
        if self._resumed_journal is not None:
            writer = JournalWriter.resume(self._resumed_journal)
            self._provenance = self._resumed_journal.provenance()
        else:
            writer = JournalWriter.create(self.run_dir, self.spec, mode=self.mode)
            header = load_journal(self.run_dir)
            self._provenance = header.provenance()
        return writer

    def _event_stream(self) -> Iterator[SessionEvent]:
        spec = self.spec
        all_cells = spec.expand()
        total = len(all_cells)
        replayed: List[CellResult] = []
        if self._resumed_journal is not None:
            replayed = sorted(self._resumed_journal.cells, key=lambda cell: cell.index)
        completed_indices = {cell.index for cell in replayed}
        pending = [cell for cell in all_cells if cell.index not in completed_indices]

        state = self._state
        writer = self._open_writer()
        start = time.perf_counter()
        try:
            started = RunStarted(
                scenario=spec.name,
                mode=self.mode,
                total_cells=total,
                completed_cells=len(replayed),
                expected_groups=max(1, total // max(1, len(spec.seeds))) if total else 0,
                workers=self.workers,
                run_dir=str(self.run_dir) if self.run_dir is not None else None,
            )
            stop = self._observe_policies(started)
            yield started

            def absorb(result: CellResult, is_replay: bool) -> List[SessionEvent]:
                state.results.append(result)
                _fold_into(state.groups, result)
                events: List[SessionEvent] = [
                    CellCompleted(
                        result=result,
                        completed=len(state.results),
                        total=total,
                        replayed=is_replay,
                    ),
                    GroupUpdated(
                        key=result.group_key,
                        group=dataclasses.replace(state.groups[result.group_key]),
                    ),
                ]
                return events

            # Replayed cells are absorbed unconditionally: they are already
            # durably recorded, so a stop policy firing before or during the
            # replay must not seal the journal with totals contradicting its
            # own cell records.  Policies observe the replay events (max-cells
            # counts them) but their verdict only takes effect before *fresh*
            # work: the source is never started.
            for result in replayed:
                for event in absorb(result, True):
                    stop = stop or self._observe_policies(event)
                    yield event

            fresh = 0
            if stop is None:
                stream = self.source.stream(spec, cells=pending)
                try:
                    for result in stream:
                        if writer is not None:
                            writer.append_cell(result)
                        fresh += 1
                        for event in absorb(result, False):
                            stop = stop or self._observe_policies(event)
                            yield event
                        if writer is not None and fresh % self.checkpoint_interval == 0:
                            writer.checkpoint()
                            yield CheckpointWritten(
                                path=str(writer.path),
                                cells_recorded=writer.cells_recorded,
                            )
                        if stop is not None:
                            # The source ends here, before the seal (the
                            # fabric records the reason in stop.json).
                            try:
                                stream.throw(StopSweep(f"policy:{stop[0]}"))
                            except (StopSweep, StopIteration):
                                pass
                            break
                finally:
                    stream.close()

            reason = "completed" if stop is None else f"policy:{stop[0]}"
            if writer is not None:
                writer.seal(reason, state.results)
                yield CheckpointWritten(
                    path=str(writer.path),
                    cells_recorded=writer.cells_recorded,
                    sealed=True,
                )
            successes = sum(1 for cell in state.results if cell.success)
            finished = RunFinished(
                scenario=spec.name,
                reason=reason,
                completed=len(state.results),
                total=total,
                successes=successes,
                wall_seconds=time.perf_counter() - start,
                detail=stop[1] if stop is not None else None,
            )
            state.finished = finished
            yield finished
        finally:
            if writer is not None:
                writer.close()


__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "CellCompleted",
    "CheckpointWritten",
    "ExperimentSession",
    "GroupConvergedPolicy",
    "GroupUpdated",
    "MaxCellsPolicy",
    "MaxWallTimePolicy",
    "RunFinished",
    "RunStarted",
    "SessionEvent",
    "StopPolicy",
    "make_stop_policy",
]
