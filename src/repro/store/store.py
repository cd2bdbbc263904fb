"""The cross-run results store: ingest sweep outputs, query them over time.

Every sweep so far has left a lone JSON file — a schema-v1 artifact, a
crash-safe journal, a ``BENCH_*.json`` perf record — compared pairwise at
best.  :class:`ResultsStore` folds them all into one indexed sqlite
database so history becomes queryable: success-rate trends per scenario
(and per group) across commits, mean-rounds distributions, perf
trajectories from BENCH files, and per-cell variance by group (the signal
an adaptive seed-budgeting policy needs).

**Ingestion** (:meth:`ResultsStore.ingest`) accepts the three artifact
kinds the repo produces and is *idempotent*:

* schema-v1 sweep artifacts (``kind: repro-sweep`` JSON files),
* run journals (``journal.jsonl`` files or the run directories holding
  them — sealed or still in flight; a journal is folded through
  :meth:`~repro.runner.journal.Journal.fold` into exactly the artifact
  payload the run would write, so a journal and its derived artifact
  land as one store row),
* ``BENCH_*.json`` perf records (flattened to dotted numeric metrics),
* PhaseCurve artifacts (``kind: repro-phase-curve``, :mod:`repro.phase`),
  keyed by **scenario × mode × family × knob × git commit** with their
  per-point measurements denormalized into ``phase_points``.

Runs are keyed by **spec_hash × scenario × git commit × mode**.  Ingesting
a byte-identical payload again is a no-op (``unchanged``); re-ingesting the
same key with different bytes — a longer journal of a live run, a re-run in
a dirty worktree — *replaces* the stored row (``replaced``).  BENCH records
are keyed by ``name × content digest`` (the files carry no provenance of
their own), with the ingest-time checkout commit recorded as the
trajectory's x-axis.

The sqlite schema lives in :mod:`repro.store.schema` (normative doc:
``docs/store-schema.md``) and migrates forward automatically on open.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.exceptions import ArtifactError, JournalError, StoreError
from repro.runner.artifacts import (
    dumps_canonical,
    git_metadata,
    validate_artifact,
)
from repro.runner.journal import (
    JOURNAL_FILENAME,
    Journal,
    load_journal,
)
from repro.store.schema import SCHEMA_VERSION, migrate, schema_version

PathLike = Union[str, pathlib.Path]

#: Default store location (relative to the invocation directory, like the
#: artifact directory the CLI writes to).
DEFAULT_STORE_PATH = pathlib.Path("benchmarks") / "results" / "store.sqlite"

#: Axes a group-level query may filter on.
GROUP_AXES = ("algorithm", "topology", "f", "behavior", "placement", "faults")

#: Run-level metrics :meth:`ResultsStore.trend` serves without a group filter.
RUN_METRICS = ("success_rate", "mean_rounds", "cells")

#: Group-level metrics served when any group axis is filtered.
GROUP_METRICS = ("success_rate", "mean_rounds", "mean_messages", "runs")


# ----------------------------------------------------------------------
# typed query results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestReport:
    """Outcome of ingesting one source file/directory."""

    path: str
    kind: str  # "artifact" | "journal" | "bench" | "phase" | "unknown"
    action: str  # "inserted" | "unchanged" | "replaced" | "skipped"
    row_id: Optional[int] = None
    detail: Optional[str] = None

    @property
    def changed(self) -> bool:
        return self.action in ("inserted", "replaced")


@dataclass(frozen=True)
class TrendPoint:
    """One point of a per-commit metric trend."""

    scenario: str
    mode: str
    metric: str
    value: float
    git_commit: str  # "" when the source carried no checkout provenance
    git_dirty: Optional[bool]
    ingested_at: float
    run_id: int
    source_kind: str
    sealed: bool
    cells: int
    #: ``algorithm|topology|f=N|behavior|placement[|faults]`` for group-level
    #: points; ``None`` for run-level points.
    group: Optional[str] = None


@dataclass(frozen=True)
class GroupVariance:
    """Per-cell variance of one aggregation group, pooled across runs.

    The SAVA-style budgeting signal: ``success_variance`` is the Bernoulli
    variance ``p·(1−p)`` of the group's success indicator and
    ``rounds_variance`` the population variance of its round counts.  High
    variance marks the groups where extra seeds buy the most information.
    """

    algorithm: str
    topology: str
    f: int
    behavior: str
    placement: str
    faults: str
    cells: int
    runs_pooled: int
    success_rate: float
    success_variance: float
    mean_rounds: float
    rounds_variance: float

    @property
    def group(self) -> str:
        label = f"{self.algorithm}|{self.topology}|f={self.f}|{self.behavior}|{self.placement}"
        if self.faults != "none":
            label += f"|faults={self.faults}"
        return label


@dataclass(frozen=True)
class BenchPoint:
    """One point of a benchmark-metric trajectory."""

    name: str
    metric: str
    value: float
    git_commit: str
    ingested_at: float
    bench_id: int


def _digest(payload: Mapping[str, object]) -> str:
    return hashlib.sha256(dumps_canonical(payload).encode("utf-8")).hexdigest()


def _group_label(row: Mapping[str, object]) -> str:
    label = (
        f"{row['algorithm']}|{row['topology']}|f={row['f']}"
        f"|{row['behavior']}|{row['placement']}"
    )
    if row["faults"] != "none":
        label += f"|faults={row['faults']}"
    return label


def flatten_metrics(payload: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested JSON to dotted numeric leaves.

    ``{"grids": {"bw": {"cells_per_second": 4.7}}}`` becomes
    ``{"grids.bw.cells_per_second": 4.7}``.  Booleans and strings are
    dropped; list elements are addressed by index.
    """
    metrics: Dict[str, float] = {}
    if isinstance(payload, Mapping):
        items: Iterable[Tuple[str, object]] = (
            (str(key), value) for key, value in payload.items()
        )
    elif isinstance(payload, (list, tuple)):
        items = ((str(index), value) for index, value in enumerate(payload))
    else:
        items = ()
    for key, value in items:
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            metrics[dotted] = float(value)
        elif isinstance(value, (Mapping, list, tuple)):
            metrics.update(flatten_metrics(value, dotted))
    return metrics


class ResultsStore:
    """One sqlite results database: connect, migrate, ingest, query.

    Usable as a context manager; :meth:`close` is idempotent.  The
    connection enforces foreign keys so replacing a run cascades to its
    groups and cells.  ``readonly=True`` opens an existing store without
    writing (and refuses a database that would need migrating).
    """

    def __init__(self, path: PathLike = DEFAULT_STORE_PATH, readonly: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.readonly = readonly
        if readonly:
            if not self.path.exists():
                raise StoreError(
                    f"results store {self.path} does not exist; create it with "
                    "'python -m repro.runner store init'"
                )
            self._conn = sqlite3.connect(
                f"file:{self.path}?mode=ro", uri=True, check_same_thread=False
            )
            version = schema_version(self._conn)
            if version != SCHEMA_VERSION:
                self._conn.close()
                raise StoreError(
                    f"results store {self.path} is at schema version {version}, "
                    f"expected {SCHEMA_VERSION}; open it writable once to migrate"
                )
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._conn = sqlite3.connect(self.path)
            migrate(self._conn)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StoreError(f"results store {self.path} is closed")
        return self._conn

    # -- ingestion --------------------------------------------------------
    def ingest(self, path: PathLike) -> List[IngestReport]:
        """Ingest one source — or walk a directory of them.

        * a run directory (contains ``journal.jsonl``) or a ``.jsonl``
          file → the journal, folded to its canonical artifact payload;
        * a ``BENCH_*.json`` file → a perf record;
        * any other ``.json`` file → a schema-v1 sweep artifact;
        * any other directory → recursively all of the above (files that
          are none of them are reported ``skipped``, never an error).

        Idempotent throughout: re-ingesting identical bytes is a no-op.
        """
        target = pathlib.Path(path)
        if not target.exists():
            raise StoreError(f"ingest source {target} does not exist")
        if target.is_dir():
            if (target / JOURNAL_FILENAME).exists():
                return [self._ingest_journal_path(target)]
            return self._ingest_tree(target)
        return [self._ingest_file(target, strict=True)]

    def _ingest_tree(self, root: pathlib.Path) -> List[IngestReport]:
        reports: List[IngestReport] = []
        for path in sorted(root.rglob("*")):
            if path.name == JOURNAL_FILENAME and path.is_file():
                reports.append(self._ingest_journal_path(path))
            elif path.suffix == ".json" and path.is_file():
                reports.append(self._ingest_file(path, strict=False))
        return reports

    def _ingest_file(self, path: pathlib.Path, strict: bool) -> IngestReport:
        from repro.phase.curve import PHASE_CURVE_KIND

        if path.suffix == ".jsonl" or path.name == JOURNAL_FILENAME:
            return self._ingest_journal_path(path)
        if path.name.startswith("BENCH_") and path.suffix == ".json":
            return self._ingest_bench_file(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            if strict:
                raise StoreError(f"cannot ingest {path}: {error}") from None
            return IngestReport(str(path), "unknown", "skipped", detail=str(error))
        if isinstance(raw, Mapping) and raw.get("kind") == PHASE_CURVE_KIND:
            return self._ingest_phase_file(path, raw, strict)
        try:
            validate_artifact(raw)
        except ArtifactError as error:
            if strict:
                raise StoreError(
                    f"cannot ingest {path}: not a journal, sweep artifact, "
                    f"phase curve or BENCH_*.json file ({error})"
                ) from None
            return IngestReport(str(path), "unknown", "skipped", detail=str(error))
        return self.ingest_run_payload(raw, source_kind="artifact", source_path=path)

    def _ingest_phase_file(
        self, path: pathlib.Path, payload: Mapping[str, object], strict: bool
    ) -> IngestReport:
        from repro.exceptions import PhaseError

        try:
            return self.ingest_phase_payload(payload, source_path=path)
        except PhaseError as error:
            if strict:
                raise StoreError(f"cannot ingest {path}: {error}") from None
            return IngestReport(str(path), "phase", "skipped", detail=str(error))

    def _ingest_journal_path(self, path: pathlib.Path) -> IngestReport:
        try:
            journal = load_journal(path)
        except JournalError as error:
            return IngestReport(str(path), "journal", "skipped", detail=str(error))
        return self.ingest_journal(journal, source_path=path)

    def ingest_journal(
        self, journal: Journal, source_path: Optional[PathLike] = None
    ) -> IngestReport:
        """Ingest a loaded journal (sealed or in flight) as a run row.

        The journal is folded into the byte-identical artifact payload the
        run writes, so ingesting a journal and then its derived artifact
        (or vice versa) converges on one unchanged row.
        """
        from repro.runner.artifacts import artifact_payload

        payload = artifact_payload(
            journal.fold(), mode=journal.mode, provenance=journal.provenance()
        )
        return self.ingest_run_payload(
            payload,
            source_kind="journal",
            source_path=source_path if source_path is not None else journal.path,
            sealed=journal.sealed,
            seal_reason=journal.seal_reason,
        )

    def ingest_run_payload(
        self,
        payload: Mapping[str, object],
        source_kind: str = "artifact",
        source_path: Optional[PathLike] = None,
        sealed: bool = True,
        seal_reason: Optional[str] = None,
    ) -> IngestReport:
        """Ingest one validated artifact payload under the run key.

        Key: ``(spec_hash, scenario, git_commit, mode)``.  Same key + same
        digest → ``unchanged``; same key + different digest → ``replaced``
        (groups and cells cascade); new key → ``inserted``.
        """
        from repro.runner.journal import spec_digest

        validate_artifact(payload)
        if source_kind not in ("artifact", "journal"):
            raise StoreError(f"invalid run source kind {source_kind!r}")
        digest = _digest(payload)
        spec_hash = spec_digest(payload["spec"])
        git = payload.get("git") or {}
        git_commit = str(git.get("commit", "") or "")
        git_dirty = git.get("dirty")
        scenario = str(payload["scenario"])
        mode = str(payload["mode"])
        source = str(source_path) if source_path is not None else None

        conn = self.connection
        existing = conn.execute(
            "SELECT id, digest FROM runs WHERE spec_hash = ? AND scenario = ? "
            "AND git_commit = ? AND mode = ?",
            (spec_hash, scenario, git_commit, mode),
        ).fetchone()
        if existing is not None and existing["digest"] == digest:
            return IngestReport(source or scenario, "run", "unchanged", existing["id"])

        cells = payload["cells"]
        total_rounds = sum(int(cell.get("rounds", 0)) for cell in cells)
        mean_rounds = total_rounds / len(cells) if cells else 0.0
        with conn:
            if existing is not None:
                conn.execute("DELETE FROM runs WHERE id = ?", (existing["id"],))
            cursor = conn.execute(
                "INSERT INTO runs (scenario, mode, spec_hash, git_commit, git_dirty, "
                "source_kind, source_path, digest, ingested_at, sealed, seal_reason, "
                "cells, successes, success_rate, mean_rounds, environment, spec) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    scenario,
                    mode,
                    spec_hash,
                    git_commit,
                    None if git_dirty is None else int(bool(git_dirty)),
                    source_kind,
                    source,
                    digest,
                    time.time(),
                    int(bool(sealed)),
                    seal_reason,
                    int(payload["totals"]["cells"]),
                    int(payload["totals"]["successes"]),
                    float(payload["totals"]["success_rate"]),
                    mean_rounds,
                    json.dumps(payload.get("environment"), sort_keys=True),
                    json.dumps(payload["spec"], sort_keys=True),
                ),
            )
            run_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO run_groups (run_id, algorithm, topology, f, behavior, "
                "placement, faults, runs, successes, success_rate, mean_rounds, "
                "mean_messages, worst_range) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        group["algorithm"],
                        group["topology"],
                        int(group["f"]),
                        group["behavior"],
                        group["placement"],
                        str(group.get("faults", "none")),
                        int(group["runs"]),
                        int(group["successes"]),
                        float(group["success_rate"]),
                        float(group["mean_rounds"]),
                        float(group["mean_messages"]),
                        group.get("worst_range"),
                    )
                    for group in payload["groups"]
                ],
            )
            conn.executemany(
                "INSERT INTO run_cells (run_id, idx, algorithm, topology, f, behavior, "
                "placement, faults, seed, success, rounds, messages, output_range) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run_id,
                        int(cell["index"]),
                        cell["algorithm"],
                        cell["topology"],
                        int(cell["f"]),
                        cell["behavior"],
                        cell["placement"],
                        str(cell.get("faults", "none")),
                        int(cell["seed"]),
                        int(bool(cell["success"])),
                        int(cell.get("rounds", 0)),
                        int(cell.get("messages", 0)),
                        cell.get("output_range"),
                    )
                    for cell in cells
                ],
            )
        action = "replaced" if existing is not None else "inserted"
        return IngestReport(source or scenario, "run", action, run_id)

    def _ingest_bench_file(self, path: pathlib.Path) -> IngestReport:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            return IngestReport(str(path), "bench", "skipped", detail=str(error))
        name = path.stem[len("BENCH_"):] if path.stem.startswith("BENCH_") else path.stem
        return self.ingest_bench_payload(name, payload, source_path=path)

    def ingest_bench_payload(
        self,
        name: str,
        payload: Mapping[str, object],
        source_path: Optional[PathLike] = None,
    ) -> IngestReport:
        """Ingest one BENCH record, keyed by ``(name, content digest)``.

        BENCH files carry no provenance of their own, so the ingest-time
        checkout commit (if any) is recorded as the trajectory x-axis.
        """
        if not isinstance(payload, Mapping):
            raise StoreError(f"bench payload for {name!r} must be a JSON object")
        digest = _digest(payload)
        source = str(source_path) if source_path is not None else None
        conn = self.connection
        existing = conn.execute(
            "SELECT id FROM benches WHERE name = ? AND digest = ?", (name, digest)
        ).fetchone()
        if existing is not None:
            return IngestReport(source or name, "bench", "unchanged", existing["id"])
        git = git_metadata() or {}
        metrics = flatten_metrics(payload)
        with conn:
            cursor = conn.execute(
                "INSERT INTO benches (name, digest, git_commit, source_path, "
                "ingested_at, payload) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    name,
                    digest,
                    str(git.get("commit", "") or ""),
                    source,
                    time.time(),
                    json.dumps(payload, sort_keys=True),
                ),
            )
            bench_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO bench_metrics (bench_id, metric, value) VALUES (?, ?, ?)",
                [(bench_id, metric, value) for metric, value in sorted(metrics.items())],
            )
        return IngestReport(source or name, "bench", "inserted", bench_id)

    def ingest_phase_payload(
        self,
        payload: Mapping[str, object],
        source_path: Optional[PathLike] = None,
    ) -> IngestReport:
        """Ingest one validated PhaseCurve document (:mod:`repro.phase`).

        Key: ``(scenario, mode, family, knob, git_commit)`` — one curve per
        swept knob per checkout.  Same key + same digest → ``unchanged``;
        same key + different bytes (a refined curve superseding the plain
        one) → ``replaced``, with the points cascading.
        """
        from repro.phase.curve import validate_phase_curve

        validate_phase_curve(payload)
        digest = _digest(payload)
        git = payload.get("git") or {}
        git_commit = str(git.get("commit", "") or "")
        git_dirty = git.get("dirty")
        scenario = str(payload["scenario"])
        mode = str(payload["mode"])
        family = str(payload["family"])
        knob = str(payload["knob"])
        budget = payload["budget"]
        source = str(source_path) if source_path is not None else None

        conn = self.connection
        existing = conn.execute(
            "SELECT id, digest FROM phase_curves WHERE scenario = ? AND mode = ? "
            "AND family = ? AND knob = ? AND git_commit = ?",
            (scenario, mode, family, knob, git_commit),
        ).fetchone()
        if existing is not None and existing["digest"] == digest:
            return IngestReport(source or scenario, "phase", "unchanged", existing["id"])
        with conn:
            if existing is not None:
                conn.execute("DELETE FROM phase_curves WHERE id = ?", (existing["id"],))
            cursor = conn.execute(
                "INSERT INTO phase_curves (scenario, mode, family, knob, git_commit, "
                "git_dirty, source_path, digest, ingested_at, points, base_cells, "
                "spent_cells, uniform_cells, concentration_ratio, refined, "
                "environment, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    scenario,
                    mode,
                    family,
                    knob,
                    git_commit,
                    None if git_dirty is None else int(bool(git_dirty)),
                    source,
                    digest,
                    time.time(),
                    len(payload["points"]),
                    int(budget["base_cells"]),
                    int(budget["spent_cells"]),
                    budget["uniform_cells"],
                    budget["concentration_ratio"],
                    int(payload["refinement"] is not None),
                    json.dumps(payload.get("environment"), sort_keys=True),
                    json.dumps(payload, sort_keys=True),
                ),
            )
            curve_id = cursor.lastrowid
            conn.executemany(
                "INSERT INTO phase_points (curve_id, n, f, knob, seeds, "
                "condition_rate, success_rate, mean_rounds, success_variance) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        curve_id,
                        int(point["n"]),
                        int(point["f"]),
                        float(point["knob"]),
                        int(point["seeds"]),
                        point["condition_rate"],
                        point["success_rate"],
                        point["mean_rounds"],
                        float(point["success_variance"]),
                    )
                    for point in payload["points"]
                ],
            )
        action = "replaced" if existing is not None else "inserted"
        return IngestReport(source or scenario, "phase", action, curve_id)

    def bootstrap(self, root: PathLike = ".") -> List[IngestReport]:
        """Ingest the repo's committed corpus: every ``benchmarks/baselines``
        artifact, plus any ``benchmarks/results/BENCH_*.json`` records.

        ``benchmarks/results/`` is not committed: its ``BENCH_*.json``
        records are optional local probe outputs (``bench_fabric.py``
        writes one), ingested when present.

        The ``store init --bootstrap`` path.  Idempotent like everything
        else — bootstrapping twice changes nothing.
        """
        root = pathlib.Path(root)
        reports: List[IngestReport] = []
        baselines = root / "benchmarks" / "baselines"
        if baselines.is_dir():
            for path in sorted(baselines.glob("*.json")):
                reports.append(self._ingest_file(path, strict=False))
        results = root / "benchmarks" / "results"
        if results.is_dir():
            for path in sorted(results.glob("BENCH_*.json")):
                reports.append(self._ingest_bench_file(path))
        return reports

    # -- snapshots (fabric status --store) --------------------------------
    def record_snapshot(self, snapshot: Mapping[str, object]) -> int:
        """Append one :func:`~repro.runner.fabric.fabric_status` snapshot.

        Snapshots are observations of *live* run directories, so they
        append (time series) rather than upsert; the journal summary is
        denormalized for querying and the full snapshot kept as JSON.
        """
        journal = snapshot.get("journal") or {}
        conn = self.connection
        with conn:
            cursor = conn.execute(
                "INSERT INTO snapshots (run_dir, scenario, mode, spec_hash, cells, "
                "total, sealed, seal_reason, recorded_at, payload) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    str(snapshot.get("run_dir", "")),
                    journal.get("scenario"),
                    journal.get("mode"),
                    journal.get("spec_hash"),
                    journal.get("cells"),
                    journal.get("total"),
                    None if journal.get("sealed") is None else int(bool(journal["sealed"])),
                    journal.get("seal_reason"),
                    time.time(),
                    json.dumps(snapshot, sort_keys=True),
                ),
            )
        return cursor.lastrowid

    def snapshots(
        self, scenario: Optional[str] = None, limit: int = 50
    ) -> List[Dict[str, object]]:
        """Recorded fabric snapshots, newest first."""
        query = (
            "SELECT id, run_dir, scenario, mode, spec_hash, cells, total, sealed, "
            "seal_reason, recorded_at FROM snapshots"
        )
        params: List[object] = []
        if scenario is not None:
            query += " WHERE scenario = ?"
            params.append(scenario)
        query += " ORDER BY recorded_at DESC, id DESC LIMIT ?"
        params.append(int(limit))
        return [dict(row) for row in self.connection.execute(query, params)]

    # -- queries ----------------------------------------------------------
    def scenarios(self) -> List[Dict[str, object]]:
        """Per-scenario summary of everything ingested."""
        rows = self.connection.execute(
            "SELECT scenario, COUNT(*) AS runs, SUM(cells) AS cells, "
            "GROUP_CONCAT(DISTINCT mode) AS modes, "
            "COUNT(DISTINCT git_commit) AS commits, MAX(ingested_at) AS last_ingested "
            "FROM runs GROUP BY scenario ORDER BY scenario"
        )
        return [dict(row) for row in rows]

    def runs(
        self, scenario: Optional[str] = None, mode: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """Stored run rows (without groups/cells), oldest first."""
        query = (
            "SELECT id, scenario, mode, spec_hash, git_commit, git_dirty, source_kind, "
            "source_path, ingested_at, sealed, seal_reason, cells, successes, "
            "success_rate, mean_rounds FROM runs"
        )
        clauses, params = [], []
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if mode is not None:
            clauses.append("mode = ?")
            params.append(mode)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY ingested_at, id"
        return [dict(row) for row in self.connection.execute(query, params)]

    def trend(
        self,
        scenario: str,
        metric: str = "success_rate",
        mode: Optional[str] = None,
        **axes: object,
    ) -> List[TrendPoint]:
        """Per-commit trend of ``metric`` for a scenario, oldest first.

        Without axis filters the trend is run-level (one point per stored
        run; metrics: :data:`RUN_METRICS`).  With any of
        :data:`GROUP_AXES` as keyword filters the trend is group-level
        (one point per matching group per run; metrics:
        :data:`GROUP_METRICS`).
        """
        unknown = set(axes) - set(GROUP_AXES)
        if unknown:
            raise StoreError(
                f"unknown group axes {sorted(unknown)}; valid: {list(GROUP_AXES)}"
            )
        if axes:
            if metric not in GROUP_METRICS:
                raise StoreError(
                    f"unknown group metric {metric!r}; valid: {list(GROUP_METRICS)}"
                )
            return self._group_trend(scenario, metric, mode, axes)
        if metric not in RUN_METRICS:
            raise StoreError(f"unknown run metric {metric!r}; valid: {list(RUN_METRICS)}")
        query = (
            f"SELECT id, mode, git_commit, git_dirty, ingested_at, source_kind, "
            f"sealed, cells, {metric} AS value FROM runs WHERE scenario = ?"
        )
        params: List[object] = [scenario]
        if mode is not None:
            query += " AND mode = ?"
            params.append(mode)
        query += " ORDER BY ingested_at, id"
        return [
            TrendPoint(
                scenario=scenario,
                mode=row["mode"],
                metric=metric,
                value=float(row["value"]),
                git_commit=row["git_commit"],
                git_dirty=None if row["git_dirty"] is None else bool(row["git_dirty"]),
                ingested_at=row["ingested_at"],
                run_id=row["id"],
                source_kind=row["source_kind"],
                sealed=bool(row["sealed"]),
                cells=row["cells"],
            )
            for row in self.connection.execute(query, params)
        ]

    def _group_trend(
        self,
        scenario: str,
        metric: str,
        mode: Optional[str],
        axes: Mapping[str, object],
    ) -> List[TrendPoint]:
        query = (
            f"SELECT r.id, r.mode, r.git_commit, r.git_dirty, r.ingested_at, "
            f"r.source_kind, r.sealed, g.runs AS group_runs, g.{metric} AS value, "
            f"g.algorithm, g.topology, g.f, g.behavior, g.placement, g.faults "
            f"FROM run_groups g JOIN runs r ON r.id = g.run_id WHERE r.scenario = ?"
        )
        params: List[object] = [scenario]
        if mode is not None:
            query += " AND r.mode = ?"
            params.append(mode)
        for axis, value in sorted(axes.items()):
            query += f" AND g.{axis} = ?"
            params.append(int(value) if axis == "f" else str(value))
        query += " ORDER BY r.ingested_at, r.id, g.algorithm, g.topology, g.f"
        return [
            TrendPoint(
                scenario=scenario,
                mode=row["mode"],
                metric=metric,
                value=float(row["value"]),
                git_commit=row["git_commit"],
                git_dirty=None if row["git_dirty"] is None else bool(row["git_dirty"]),
                ingested_at=row["ingested_at"],
                run_id=row["id"],
                source_kind=row["source_kind"],
                sealed=bool(row["sealed"]),
                cells=row["group_runs"],
                group=_group_label(row),
            )
            for row in self.connection.execute(query, params)
        ]

    def group_variance(
        self, scenario: str, mode: Optional[str] = None, **axes: object
    ) -> List[GroupVariance]:
        """Per-cell variance by group, pooled across every ingested run.

        Highest ``rounds_variance`` first — the groups where additional
        seeds buy the most information (the SAVA-style budgeting signal).
        """
        unknown = set(axes) - set(GROUP_AXES)
        if unknown:
            raise StoreError(
                f"unknown group axes {sorted(unknown)}; valid: {list(GROUP_AXES)}"
            )
        query = (
            "SELECT c.algorithm, c.topology, c.f, c.behavior, c.placement, c.faults, "
            "COUNT(*) AS n, COUNT(DISTINCT c.run_id) AS runs_pooled, "
            "AVG(c.success) AS p, AVG(c.rounds) AS mean_rounds, "
            "AVG(c.rounds * c.rounds) - AVG(c.rounds) * AVG(c.rounds) AS var_rounds "
            "FROM run_cells c JOIN runs r ON r.id = c.run_id WHERE r.scenario = ?"
        )
        params: List[object] = [scenario]
        if mode is not None:
            query += " AND r.mode = ?"
            params.append(mode)
        for axis, value in sorted(axes.items()):
            query += f" AND c.{axis} = ?"
            params.append(int(value) if axis == "f" else str(value))
        query += (
            " GROUP BY c.algorithm, c.topology, c.f, c.behavior, c.placement, c.faults"
            " ORDER BY var_rounds DESC, n DESC"
        )
        results: List[GroupVariance] = []
        for row in self.connection.execute(query, params):
            p = float(row["p"])
            results.append(
                GroupVariance(
                    algorithm=row["algorithm"],
                    topology=row["topology"],
                    f=row["f"],
                    behavior=row["behavior"],
                    placement=row["placement"],
                    faults=row["faults"],
                    cells=row["n"],
                    runs_pooled=row["runs_pooled"],
                    success_rate=p,
                    success_variance=p * (1.0 - p),
                    mean_rounds=float(row["mean_rounds"]),
                    rounds_variance=max(0.0, float(row["var_rounds"] or 0.0)),
                )
            )
        return results

    def phase_curves(self, scenario: Optional[str] = None) -> List[Dict[str, object]]:
        """Ingested phase curves (newest first), optionally per scenario."""
        query = (
            "SELECT id, scenario, mode, family, knob, git_commit, points, "
            "base_cells, spent_cells, uniform_cells, concentration_ratio, "
            "refined, ingested_at FROM phase_curves"
        )
        params: List[object] = []
        if scenario is not None:
            query += " WHERE scenario = ?"
            params.append(scenario)
        query += " ORDER BY ingested_at DESC, id DESC"
        return [dict(row) for row in self.connection.execute(query, params)]

    def phase_points(self, curve_id: int) -> List[Dict[str, object]]:
        """The per-point measurements of one ingested curve, in curve order."""
        rows = self.connection.execute(
            "SELECT n, f, knob, seeds, condition_rate, success_rate, "
            "mean_rounds, success_variance FROM phase_points "
            "WHERE curve_id = ? ORDER BY n, f, knob",
            (curve_id,),
        ).fetchall()
        if not rows:
            exists = self.connection.execute(
                "SELECT 1 FROM phase_curves WHERE id = ?", (curve_id,)
            ).fetchone()
            if exists is None:
                raise StoreError(f"no ingested phase curve with id {curve_id}")
        return [dict(row) for row in rows]

    def bench_names(self) -> List[Dict[str, object]]:
        """Ingested bench families with record counts."""
        rows = self.connection.execute(
            "SELECT name, COUNT(*) AS records, MAX(ingested_at) AS last_ingested "
            "FROM benches GROUP BY name ORDER BY name"
        )
        return [dict(row) for row in rows]

    def bench_metrics(self, name: str) -> List[str]:
        """Distinct dotted metric names recorded for one bench family."""
        rows = self.connection.execute(
            "SELECT DISTINCT m.metric FROM bench_metrics m "
            "JOIN benches b ON b.id = m.bench_id WHERE b.name = ? ORDER BY m.metric",
            (name,),
        )
        return [row[0] for row in rows]

    def bench_trend(self, name: str, metric: str) -> List[BenchPoint]:
        """Trajectory of one bench metric across ingests, oldest first."""
        rows = self.connection.execute(
            "SELECT b.id, b.git_commit, b.ingested_at, m.value "
            "FROM bench_metrics m JOIN benches b ON b.id = m.bench_id "
            "WHERE b.name = ? AND m.metric = ? ORDER BY b.ingested_at, b.id",
            (name, metric),
        )
        return [
            BenchPoint(
                name=name,
                metric=metric,
                value=float(row["value"]),
                git_commit=row["git_commit"],
                ingested_at=row["ingested_at"],
                bench_id=row["id"],
            )
            for row in rows
        ]


__all__ = [
    "DEFAULT_STORE_PATH",
    "GROUP_AXES",
    "GROUP_METRICS",
    "RUN_METRICS",
    "BenchPoint",
    "GroupVariance",
    "IngestReport",
    "ResultsStore",
    "TrendPoint",
    "flatten_metrics",
]
