"""Plain-text reporting helpers.

The sweep CLI, the examples and the fabric probe print aligned ASCII tables
to stdout; no plotting dependencies are required.  The helpers here keep the
formatting consistent across them.  Machine-readable output is the job of
:mod:`repro.runner.artifacts`; everything here is for humans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runner.harness import GroupAggregate
from repro.runner.session import (
    CellCompleted,
    CheckpointWritten,
    GroupUpdated,
    RunFinished,
    RunStarted,
    SessionEvent,
)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned ASCII table with a header separator."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(header) for header in headers]
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def render_row(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|-" + "-|-".join("-" * width for width in widths) + "-|"
    lines = [render_row(headers), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def banner(title: str, width: int = 72) -> str:
    """A section banner used between report tables."""
    bar = "=" * width
    return f"{bar}\n{title}\n{bar}"


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Print (and return) a titled table — the standard report output unit."""
    text = f"{banner(title)}\n{format_table(headers, rows)}\n"
    print(text)
    return text


# ----------------------------------------------------------------------
# sweep-engine aggregate tables
# ----------------------------------------------------------------------
SWEEP_HEADERS = (
    "algorithm",
    "topology",
    "f",
    "behavior",
    "placement",
    "runs",
    "success",
    "mean rounds",
    "mean msgs",
    "worst range",
)


def sweep_group_rows(
    groups: Iterable["GroupAggregate"], with_faults: bool = False
) -> List[List[str]]:
    """Render :class:`~repro.runner.harness.GroupAggregate` records as rows.

    ``with_faults`` inserts the fault-policy column after ``placement`` —
    the degradation-curve view for sweeps that include a faults axis.
    """
    rows: List[List[str]] = []
    for group in groups:
        worst = "inf" if group.undecided else f"{group.worst_range:.4g}"
        row = [
            group.algorithm,
            group.topology,
            str(group.f),
            group.behavior,
            group.placement,
        ]
        if with_faults:
            row.append(group.faults)
        row.extend(
            [
                str(group.runs),
                f"{group.success_rate:.2f}",
                f"{group.mean_rounds:.1f}",
                f"{group.mean_messages:.0f}",
                worst,
            ]
        )
        rows.append(row)
    return rows


def render_sweep_groups(title: str, groups: Iterable["GroupAggregate"]) -> str:
    """The standard human-readable summary of a sweep run.

    The fault-policy column appears only when some group actually swept a
    fault schedule, so fault-free reports render exactly as before.
    """
    groups = list(groups)
    with_faults = any(group.faults != "none" for group in groups)
    headers = SWEEP_HEADERS
    if with_faults:
        headers = SWEEP_HEADERS[:5] + ("faults",) + SWEEP_HEADERS[5:]
    return f"{banner(title)}\n{format_table(headers, sweep_group_rows(groups, with_faults))}\n"


# ----------------------------------------------------------------------
# session event consumers (api v2)
# ----------------------------------------------------------------------
class SessionProgress:
    """Fold a session's event stream into live progress and summary state.

    The api-v2 reporting surface is *event-driven*: this consumer never
    touches a finished :class:`~repro.runner.harness.SweepRunResult` — it
    derives everything (cell counts, per-group aggregates, checkpoint
    cadence, the final verdict) from the
    :class:`~repro.runner.session.SessionEvent` stream, so the same object
    renders a live ``--progress`` line mid-run and the final group table
    after :class:`~repro.runner.session.RunFinished`.
    """

    def __init__(self) -> None:
        self.scenario: Optional[str] = None
        self.mode: Optional[str] = None
        self.total = 0
        self.completed = 0
        self.replayed = 0
        self.successes = 0
        self.failures = 0
        self.checkpoints = 0
        self.cells_journaled = 0
        self.finished: Optional["RunFinished"] = None
        self._groups: Dict[Tuple, "GroupAggregate"] = {}

    def observe(self, event: "SessionEvent") -> None:
        """Absorb one event (any :class:`SessionEvent` subclass)."""
        if isinstance(event, RunStarted):
            self.scenario = event.scenario
            self.mode = event.mode
            self.total = event.total_cells
        elif isinstance(event, CellCompleted):
            self.completed = event.completed
            if event.replayed:
                self.replayed += 1
            if event.result.success:
                self.successes += 1
            else:
                self.failures += 1
        elif isinstance(event, GroupUpdated):
            self._groups[event.key] = event.group
        elif isinstance(event, CheckpointWritten):
            self.checkpoints += 1
            self.cells_journaled = event.cells_recorded
        elif isinstance(event, RunFinished):
            self.finished = event

    @property
    def groups(self) -> List["GroupAggregate"]:
        """Per-group aggregates in first-seen order (snapshot copies)."""
        return list(self._groups.values())

    def render_line(self) -> str:
        """One-line live progress view (the CLI's ``--progress`` output)."""
        if self.total:
            percent = f"{self.completed / self.total * 100:3.0f}%"
        else:
            percent = "  -"
        parts = [
            f"[{self.scenario or '?'}]",
            f"{self.completed}/{self.total} cells",
            percent,
            f"ok={self.successes}",
            f"fail={self.failures}",
        ]
        if self.replayed:
            parts.append(f"replayed={self.replayed}")
        if self.cells_journaled:
            parts.append(f"journaled={self.cells_journaled}")
        if self.finished is not None:
            reason = self.finished.reason
            parts.append("done" if reason == "completed" else reason)
        return " ".join(parts)

    def render_summary(self) -> str:
        """The standard group table, derived purely from observed events."""
        title = f"{self.scenario or '?'} ({self.mode or '?'} grid)"
        return render_sweep_groups(title, self.groups)


# ----------------------------------------------------------------------
# fabric status (the `fabric status --run-dir` view)
# ----------------------------------------------------------------------
def _age_text(age: Optional[float]) -> str:
    return "-" if age is None else f"{age:.1f}s"


def render_fabric_status(snapshot: Dict) -> str:
    """Render a :func:`repro.runner.fabric.fabric_status` snapshot for humans.

    Pure formatting over the snapshot dict — never touches the run
    directory itself, so it is safe to call from any host at any time.
    """
    lines: List[str] = []
    journal = snapshot.get("journal") or {}
    manifest = snapshot.get("manifest") or {}
    stop = snapshot.get("stop")
    scenario = journal.get("scenario", "?")
    merged = journal.get("cells", 0)
    total = journal.get("total", 0)
    state = "running"
    if journal.get("sealed"):
        state = f"sealed ({journal.get('seal_reason')})"
    elif stop is not None:
        state = f"stopping ({stop.get('reason')})"
    lines.append(banner(f"fabric {snapshot.get('run_dir', '?')}"))
    lines.append(
        f"{scenario} ({journal.get('mode', '?')} grid): {merged}/{total} cells merged, "
        f"{state}; coordinator heartbeat {_age_text(snapshot.get('coordinator_age'))} ago "
        f"(lease ttl {manifest.get('lease_ttl', '?')}s)"
    )
    leases = snapshot.get("leases") or []
    if leases:
        rows = [
            [
                entry.get("range", "?"),
                str(entry.get("epoch", "?")),
                entry.get("state", "?"),
                entry.get("owner") or "-",
                _age_text(entry.get("age")),
            ]
            for entry in leases
        ]
        lines.append(format_table(["lease", "epoch", "state", "owner", "heartbeat"], rows))
    else:
        lines.append("no outstanding leases")
    shards = snapshot.get("shards") or {}
    workers = snapshot.get("workers") or {}
    if shards or workers:
        rows = []
        for worker_id in sorted(set(shards) | set(workers)):
            shard = shards.get(worker_id) or {}
            status = workers.get(worker_id) or {}
            rows.append(
                [
                    worker_id,
                    status.get("state", "?"),
                    str(shard.get("cells", 0)),
                    status.get("lease") or "-",
                    _age_text(status.get("age")),
                ]
            )
        lines.append(format_table(["worker", "state", "shard cells", "lease", "seen"], rows))
    lines.append(
        f"fenced indexes: {snapshot.get('fenced_indexes', 0)} "
        f"(max epoch {snapshot.get('max_epoch', 0)})"
    )
    return "\n".join(lines) + "\n"
