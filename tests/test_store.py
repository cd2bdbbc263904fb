"""Tests for the cross-run results store (repro.store).

Covers the schema/migration ladder, idempotent ingestion of all three
source kinds (artifacts, journals, BENCH records), the typed query API
(trends, variance, bench trajectories), snapshots, and the CLI wiring
(store init --bootstrap / ingest / query / fabric status --store).
"""

import json
import pathlib
import shutil
import sqlite3
import time

import pytest

from repro.exceptions import StoreError
from repro.runner.artifacts import dumps_canonical, load_artifact
from repro.runner.cli import main
from repro.runner.journal import journal_from_artifact
from repro.store import (
    SCHEMA_VERSION,
    ResultsStore,
    flatten_metrics,
    schema_version,
)
from repro.store.schema import MIGRATIONS, table_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

#: A perf record in the shape of a ``BENCH_journal.json`` probe output:
#: nested sections, numeric and string leaves.
BENCH_RECORD = {
    "cells": 10,
    "claim": "journaling (append+fsync per cell) costs < 5% on the BW-heavy probe",
    "events_only": {"cells": 10, "cells_per_second": 3.36, "seconds": 2.9799},
    "events_plus_journal": {"cells": 10, "cells_per_second": 3.38, "seconds": 2.9587},
    "grid": "journal_probe",
    "overhead_ratio": -0.0071,
    "repeats": 3,
    "schema": 1,
    "workers": 1,
}

EXPECTED_TABLES = [
    "bench_metrics",
    "benches",
    "phase_curves",
    "phase_points",
    "run_cells",
    "run_groups",
    "runs",
    "snapshots",
]


@pytest.fixture
def store(tmp_path):
    with ResultsStore(tmp_path / "store.sqlite") as store:
        yield store


@pytest.fixture
def corpus_root(tmp_path):
    """A repository root holding the committed baselines plus one
    ``benchmarks/results/BENCH_journal.json`` record, so what a local
    ``benchmarks/results/`` happens to contain never decides a test."""
    root = tmp_path / "repo"
    shutil.copytree(BASELINES, root / "benchmarks" / "baselines")
    results = root / "benchmarks" / "results"
    results.mkdir()
    (results / "BENCH_journal.json").write_text(
        json.dumps(BENCH_RECORD, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return root


def bench_files(root):
    return sorted((root / "benchmarks" / "results").glob("BENCH_*.json"))


def baseline_payload(name="figure1b.quick.json"):
    return load_artifact(BASELINES / name)


# ----------------------------------------------------------------------
# schema + migrations
# ----------------------------------------------------------------------
class TestSchema:
    def test_fresh_store_is_at_current_version(self, store):
        assert schema_version(store.connection) == SCHEMA_VERSION
        assert table_names(store.connection) == EXPECTED_TABLES

    def test_v1_database_migrates_forward(self, tmp_path):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(MIGRATIONS[1])
        conn.execute("PRAGMA user_version = 1")
        conn.commit()
        assert "snapshots" not in table_names(conn)
        conn.close()
        with ResultsStore(path) as store:
            assert schema_version(store.connection) == SCHEMA_VERSION
            assert "snapshots" in table_names(store.connection)
            # v1 data structures are untouched by the v2 step
            store.record_snapshot({"run_dir": "x"})
            assert len(store.snapshots()) == 1

    def test_newer_database_is_refused(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer schema"):
            ResultsStore(path)

    def test_readonly_requires_existing_current_store(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            ResultsStore(tmp_path / "missing.sqlite", readonly=True)
        ResultsStore(tmp_path / "store.sqlite").close()
        with ResultsStore(tmp_path / "store.sqlite", readonly=True) as store:
            assert store.scenarios() == []
            with pytest.raises(sqlite3.OperationalError):
                store.record_snapshot({"run_dir": "x"})

    def test_schema_doc_lists_every_table(self):
        doc = (REPO_ROOT / "docs" / "store-schema.md").read_text(encoding="utf-8")
        for table in EXPECTED_TABLES:
            assert f"`{table}`" in doc, f"docs/store-schema.md does not document {table}"


# ----------------------------------------------------------------------
# ingestion: artifacts, journals, BENCH records
# ----------------------------------------------------------------------
class TestIngest:
    def test_artifact_roundtrip_and_idempotency(self, store):
        path = BASELINES / "figure1b.quick.json"
        (first,) = store.ingest(path)
        assert first.kind == "run" and first.action == "inserted"
        (again,) = store.ingest(path)
        assert again.action == "unchanged" and again.row_id == first.row_id
        runs = store.runs("figure1b")
        assert len(runs) == 1
        payload = baseline_payload()
        assert runs[0]["cells"] == payload["totals"]["cells"]
        assert runs[0]["success_rate"] == payload["totals"]["success_rate"]

    def test_same_key_different_bytes_replaces(self, store, tmp_path):
        payload = baseline_payload()
        store.ingest_run_payload(payload)
        # same spec/scenario/commit/mode, different content (environment is
        # not part of the key but is part of the digest)
        modified = dict(payload, environment={"python": "changed"})
        report = store.ingest_run_payload(modified)
        assert report.action == "replaced"
        assert len(store.runs("figure1b")) == 1
        # the old row's cells cascaded away with it
        count = store.connection.execute("SELECT COUNT(*) FROM run_cells").fetchone()[0]
        assert count == len(payload["cells"])

    def test_journal_and_artifact_dedupe_to_one_row(self, store, tmp_path):
        payload = baseline_payload()
        journal_from_artifact(tmp_path / "run", payload)
        (from_journal,) = store.ingest(tmp_path / "run")
        assert from_journal.kind == "run" and from_journal.action == "inserted"
        report = store.ingest_run_payload(payload)
        assert report.action == "unchanged" and report.row_id == from_journal.row_id

    def test_unsealed_journal_ingests_and_reseals_replace(self, store, tmp_path):
        payload = baseline_payload()
        journal_from_artifact(tmp_path / "run", payload)
        journal_file = tmp_path / "run" / "journal.jsonl"
        lines = journal_file.read_text(encoding="utf-8").splitlines(keepends=True)
        truncated = tmp_path / "live"
        truncated.mkdir()
        # header + all but the last cell, no seal: a run still in flight
        (truncated / "journal.jsonl").write_text("".join(lines[:-2]), encoding="utf-8")
        (live,) = store.ingest(truncated)
        assert live.action == "inserted"
        row = store.runs("figure1b")[0]
        assert row["sealed"] == 0 and row["seal_reason"] is None
        assert row["cells"] == len(payload["cells"]) - 1
        # the finished journal has the same key -> the live row is replaced
        (done,) = store.ingest(tmp_path / "run")
        assert done.action == "replaced"
        row = store.runs("figure1b")[0]
        assert row["sealed"] == 1 and row["cells"] == len(payload["cells"])

    def test_bench_ingest_and_flattening(self, store, corpus_root):
        (path,) = bench_files(corpus_root)
        (report,) = store.ingest(path)
        assert report.kind == "bench" and report.action == "inserted"
        (again,) = store.ingest(path)
        assert again.action == "unchanged"
        names = [bench["name"] for bench in store.bench_names()]
        assert names == ["journal"]
        metrics = store.bench_metrics("journal")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(metrics) == set(flatten_metrics(payload))
        assert all("." in metric or metric.isidentifier() for metric in metrics)

    def test_flatten_metrics_shapes(self):
        flat = flatten_metrics(
            {"a": {"b": 1, "skip": "text", "flag": True}, "xs": [2.5, {"c": 3}]}
        )
        assert flat == {"a.b": 1.0, "xs.0": 2.5, "xs.1.c": 3.0}

    def test_unrecognized_file_is_error_when_direct_skip_in_tree(self, store, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("{\"not\": \"an artifact\"}", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot ingest"):
            store.ingest(junk)
        reports = store.ingest(tmp_path)
        assert [r.action for r in reports] == ["skipped"]

    def test_missing_source_raises(self, store, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            store.ingest(tmp_path / "nope")

    def test_tree_ingest_walks_artifacts_journals_and_benches(self, store, tmp_path):
        payload = baseline_payload()
        (tmp_path / "a.json").write_text(dumps_canonical(payload), encoding="utf-8")
        journal_from_artifact(
            tmp_path / "nested" / "run", baseline_payload("table1.quick.json")
        )
        bench = tmp_path / "BENCH_x.json"
        bench.write_text("{\"metric\": 1}", encoding="utf-8")
        reports = store.ingest(tmp_path)
        assert sorted(r.kind for r in reports) == ["bench", "run", "run"]
        assert all(r.action == "inserted" for r in reports)


# ----------------------------------------------------------------------
# bootstrap (satellite: the committed corpus, idempotently)
# ----------------------------------------------------------------------
class TestBootstrap:
    def test_bootstrap_ingests_corpus_and_is_idempotent(self, store, corpus_root):
        baselines = sorted(BASELINES.glob("*.json"))
        benches = bench_files(corpus_root)
        assert len(baselines) == 32  # the committed corpus this repo gates on
        reports = store.bootstrap(corpus_root)
        assert len(reports) == len(baselines) + len(benches)
        assert all(report.action == "inserted" for report in reports)
        counts = {
            table: store.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in EXPECTED_TABLES
        }
        # double-ingest is a no-op: same reports say unchanged, no row moves
        again = store.bootstrap(corpus_root)
        assert all(report.action == "unchanged" for report in again)
        for table, count in counts.items():
            assert (
                store.connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                == count
            )
        assert len(store.scenarios()) == 14  # every scenario, quick + full

    def test_bootstrap_and_queries_stay_interactive(self, tmp_path, corpus_root):
        # ``runner query`` runs these queries on every call and the serving
        # layer per HTTP request: the corpus must bootstrap at >= 10 runs/s
        # and each query shape answer in < 50 ms (best of three).
        bootstrap_s = float("inf")
        for repeat in range(3):
            with ResultsStore(tmp_path / f"ingest-{repeat}.sqlite") as fresh:
                start = time.perf_counter()
                reports = fresh.bootstrap(corpus_root)
                bootstrap_s = min(bootstrap_s, time.perf_counter() - start)
        runs = sum(1 for report in reports if report.kind in ("run", "journal"))
        assert runs >= 24
        assert runs / bootstrap_s >= 10.0, f"{runs / bootstrap_s:.1f} runs/s"

        with ResultsStore(tmp_path / "query.sqlite") as store:
            store.bootstrap(corpus_root)
            queries = {
                "trend": lambda: store.trend("figure1b", "success_rate"),
                "variance": lambda: store.group_variance("table2", mode="full"),
            }
            for name, query in queries.items():
                assert query(), name
                best_ms = float("inf")
                for _repeat in range(3):
                    start = time.perf_counter()
                    for _ in range(50):
                        query()
                    best_ms = min(best_ms, (time.perf_counter() - start) / 50 * 1000)
                assert best_ms < 50.0, f"{name} query took {best_ms:.2f} ms"


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def _with_commit(payload, commit):
    return dict(payload, git={"commit": commit, "dirty": False})


class TestQueries:
    def test_run_level_trend_across_commits(self, store):
        payload = baseline_payload()
        store.ingest_run_payload(_with_commit(payload, "a" * 40))
        store.ingest_run_payload(_with_commit(payload, "b" * 40))
        points = store.trend("figure1b", "success_rate", mode="quick")
        assert [point.git_commit[0] for point in points] == ["a", "b"]
        assert all(point.value == payload["totals"]["success_rate"] for point in points)
        assert all(point.metric == "success_rate" and point.group is None for point in points)
        # ingestion order is the trend order
        assert points[0].ingested_at <= points[1].ingested_at

    def test_group_level_trend_with_axis_filters(self, store):
        payload = baseline_payload("table1.full.json")
        store.ingest_run_payload(payload)
        group = payload["groups"][0]
        points = store.trend(
            "table1",
            "success_rate",
            algorithm=group["algorithm"],
            topology=group["topology"],
            f=group["f"],
            behavior=group["behavior"],
            placement=group["placement"],
        )
        assert len(points) == 1
        assert points[0].value == group["success_rate"]
        assert points[0].group.startswith(f"{group['algorithm']}|{group['topology']}")

    def test_unknown_metric_and_axis_raise(self, store):
        store.ingest_run_payload(baseline_payload())
        with pytest.raises(StoreError, match="unknown run metric"):
            store.trend("figure1b", "nope")
        with pytest.raises(StoreError, match="unknown group metric"):
            store.trend("figure1b", "cells", topology="figure-1b")
        with pytest.raises(StoreError, match="unknown group axes"):
            store.trend("figure1b", "success_rate", color="red")
        with pytest.raises(StoreError, match="unknown group axes"):
            store.group_variance("figure1b", color="red")

    def test_group_variance_matches_cells(self, store):
        payload = baseline_payload("figure1b.full.json")
        store.ingest_run_payload(payload)
        groups = store.group_variance("figure1b", mode="full")
        assert groups  # ordered by rounds variance, descending
        variances = [group.rounds_variance for group in groups]
        assert variances == sorted(variances, reverse=True)
        total_cells = sum(group.cells for group in groups)
        assert total_cells == payload["totals"]["cells"]
        for group in groups:
            p = group.success_rate
            assert group.success_variance == pytest.approx(p * (1 - p))
            assert group.rounds_variance >= 0
            assert group.runs_pooled == 1
        # pooling across two ingested runs doubles the cell counts
        store.ingest_run_payload(_with_commit(payload, "c" * 40))
        pooled = store.group_variance("figure1b", mode="full")
        assert sum(group.cells for group in pooled) == 2 * total_cells
        assert all(group.runs_pooled == 2 for group in pooled)

    def test_bench_trend_across_ingests(self, store):
        store.ingest_bench_payload("speed", {"cells_per_second": 10.0})
        store.ingest_bench_payload("speed", {"cells_per_second": 12.5})
        points = store.bench_trend("speed", "cells_per_second")
        assert [point.value for point in points] == [10.0, 12.5]
        assert store.bench_names()[0]["records"] == 2

    def test_snapshots_roundtrip(self, store):
        snapshot = {
            "run_dir": "/nfs/x",
            "journal": {
                "scenario": "table2",
                "mode": "full",
                "spec_hash": "h",
                "cells": 3,
                "total": 23,
                "sealed": False,
                "seal_reason": None,
            },
            "leases": [],
        }
        store.record_snapshot(snapshot)
        store.record_snapshot({"run_dir": "/nfs/y"})  # journal not born yet
        rows = store.snapshots()
        assert len(rows) == 2
        assert store.snapshots(scenario="table2")[0]["cells"] == 3
        payload = store.connection.execute(
            "SELECT payload FROM snapshots WHERE scenario = 'table2'"
        ).fetchone()[0]
        assert json.loads(payload) == snapshot


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestStoreCLI:
    def test_store_init_bootstrap_then_query_trend(
        self, tmp_path, corpus_root, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        db = tmp_path / "store.sqlite"
        assert main([
            "store", "init", "--store", str(db), "--bootstrap", "--root", str(corpus_root),
        ]) == 0
        corpus = len(list(BASELINES.glob("*.json"))) + len(bench_files(corpus_root))
        assert f"{corpus} inserted" in capsys.readouterr().out
        # acceptance criterion: a per-commit trend over >=2 ingested runs
        with ResultsStore(db) as store:
            store.ingest_run_payload(_with_commit(baseline_payload(), "d" * 40))
        assert main([
            "query", "--store", str(db), "--scenario", "figure1b",
            "--metric", "success_rate", "--json",
        ]) == 0
        points = json.loads(capsys.readouterr().out)
        assert len(points) >= 2
        commits = {point["git_commit"] for point in points}
        assert "d" * 40 in commits and len(commits) >= 2

    def test_ingest_cli_reports_idempotency(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        source = str(BASELINES / "necessity.quick.json")
        assert main(["ingest", source, "--store", str(db)]) == 0
        assert "1 inserted" in capsys.readouterr().out
        assert main(["ingest", source, "--store", str(db), "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["action"] == "unchanged"

    def test_query_requires_exactly_one_selector(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        ResultsStore(db).close()
        assert main(["query", "--store", str(db)]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["query", "--store", str(db), "--scenario", "x", "--list"]) == 2

    def test_query_variance_and_bench_and_list(self, tmp_path, capsys):
        db = tmp_path / "store.sqlite"
        with ResultsStore(db) as store:
            store.ingest_run_payload(baseline_payload("figure1b.full.json"))
            store.ingest_bench_payload("speed", {"cells_per_second": 10.0})
        assert main([
            "query", "--store", str(db), "--scenario", "figure1b", "--variance",
        ]) == 0
        assert "var(rounds)" in capsys.readouterr().out
        assert main(["query", "--store", str(db), "--bench", "speed"]) == 0
        assert "cells_per_second" in capsys.readouterr().out
        assert main([
            "query", "--store", str(db), "--bench", "speed",
            "--metric", "cells_per_second", "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)[0]["value"] == 10.0
        assert main(["query", "--store", str(db), "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure1b" in out and "speed" in out

    def test_query_missing_store_is_a_cli_error(self, tmp_path, capsys):
        code = main([
            "query", "--store", str(tmp_path / "none.sqlite"), "--scenario", "x",
        ])
        assert code == 2
        assert "store init" in capsys.readouterr().err

    def test_fabric_status_store_flag_records_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        snapshot = {
            "run_dir": str(tmp_path / "run"),
            "journal": {
                "scenario": "figure1b",
                "mode": "quick",
                "spec_hash": "h",
                "cells": 1,
                "total": 2,
                "sealed": False,
                "seal_reason": None,
            },
        }
        import repro.runner.cli as cli

        monkeypatch.setattr(cli, "fabric_status", lambda run_dir: snapshot)
        db = tmp_path / "store.sqlite"
        assert main([
            "fabric", "status", "--run-dir", str(tmp_path / "run"),
            "--json", "--store", str(db),
        ]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == snapshot  # stdout stays pure JSON
        assert "recorded" in captured.err
        with ResultsStore(db) as store:
            rows = store.snapshots(scenario="figure1b")
            assert len(rows) == 1 and rows[0]["sealed"] == 0

    def test_journaled_run_then_ingest_then_trend(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "--scenario", "necessity", "--quick", "--journal", "--no-table",
            "--run-dir", str(tmp_path / "run"), "--output", str(tmp_path),
        ]) == 0
        db = tmp_path / "store.sqlite"
        assert main(["ingest", str(tmp_path / "run"), "--store", str(db)]) == 0
        capsys.readouterr()
        # the artifact the run wrote is byte-identical to the journal fold,
        # so ingesting it dedupes onto the same row
        assert main([
            "ingest", str(tmp_path / "necessity.quick.json"), "--store", str(db),
        ]) == 0
        assert "1 unchanged" in capsys.readouterr().out
        with ResultsStore(db) as store:
            points = store.trend("necessity", "success_rate", mode="quick")
            assert len(points) == 1 and points[0].source_kind == "journal"
            assert points[0].sealed
