"""Tests for the durable execution journal (repro.runner.journal)."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.exceptions import JournalError
from repro.runner.artifacts import (
    artifact_payload,
    dumps_canonical,
    load_artifact,
)
from repro.runner.journal import (
    JOURNAL_FILENAME,
    JournalWriter,
    journal_from_artifact,
    journal_path,
    load_journal,
    spec_digest,
)
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

REPO_ROOT = pathlib.Path(__file__).parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

QUICK = get_scenario("definition1").grid(quick=True)


def _journaled_run(tmp_path, spec=QUICK, mode="quick"):
    """Run ``spec`` serially while journaling every cell; return the dir."""
    run_dir = tmp_path / "run"
    writer = JournalWriter.create(run_dir, spec, mode=mode)
    result = ExperimentSession(spec).run()
    with writer:
        for cell in result.cells:
            writer.append_cell(cell)
        writer.seal("completed", result.cells)
    return run_dir, result


class TestWriterReader:
    def test_round_trip_and_fold(self, tmp_path):
        run_dir, result = _journaled_run(tmp_path)
        journal = load_journal(run_dir)
        assert journal.scenario == QUICK.name
        assert journal.mode == "quick"
        assert journal.sealed and journal.seal_reason == "completed"
        assert not journal.recovered_tail
        assert journal.completed_indices() == {0, 1, 2}
        assert journal.grid_spec() == QUICK
        folded = journal.fold()
        assert folded.cells == result.cells
        assert [group.as_dict() for group in folded.groups] == [
            group.as_dict() for group in result.groups
        ]

    def test_journal_path_accepts_dir_or_file(self, tmp_path):
        assert journal_path(tmp_path) == tmp_path / JOURNAL_FILENAME
        direct = tmp_path / "elsewhere.jsonl"
        assert journal_path(direct) == direct

    def test_create_refuses_to_overwrite(self, tmp_path):
        run_dir, _ = _journaled_run(tmp_path)
        with pytest.raises(JournalError, match="resume"):
            JournalWriter.create(run_dir, QUICK, mode="quick")

    def test_duplicate_cell_index_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        result = ExperimentSession(QUICK).run()
        with JournalWriter.create(run_dir, QUICK, mode="quick") as writer:
            writer.append_cell(result.cells[0])
            with pytest.raises(JournalError, match="already recorded"):
                writer.append_cell(result.cells[0])

    def test_sealed_journal_refuses_appends_and_resume(self, tmp_path):
        run_dir, result = _journaled_run(tmp_path)
        journal = load_journal(run_dir)
        with pytest.raises(JournalError, match="sealed"):
            JournalWriter.resume(journal)

    def test_spec_hash_is_canonical(self):
        payload = QUICK.as_dict()
        assert spec_digest(payload) == spec_digest(json.loads(json.dumps(payload)))


class TestTailTruncationRecovery:
    def test_truncated_tail_is_dropped(self, tmp_path):
        run_dir, result = _journaled_run(tmp_path)
        path = journal_path(run_dir)
        raw = path.read_bytes()
        # chop the seal record in half: a crash mid-append
        path.write_bytes(raw[: len(raw) - 20])
        journal = load_journal(run_dir)
        assert journal.recovered_tail
        assert not journal.sealed
        assert len(journal.cells) == len(result.cells)

    def test_resume_truncates_the_recovered_tail(self, tmp_path):
        run_dir, result = _journaled_run(tmp_path)
        path = journal_path(run_dir)
        raw = path.read_bytes()
        path.write_bytes(raw + b'{"record": "cell", "cell": {"ind')
        journal = load_journal(run_dir)
        assert journal.recovered_tail and journal.sealed
        # a sealed journal with garbage past the seal still refuses resume
        with pytest.raises(JournalError, match="sealed"):
            JournalWriter.resume(journal)

    def test_unsealed_truncated_tail_resumes_cleanly(self, tmp_path):
        run_dir = tmp_path / "run"
        result = ExperimentSession(QUICK).run()
        writer = JournalWriter.create(run_dir, QUICK, mode="quick")
        writer.append_cell(result.cells[0])
        writer.close()
        path = journal_path(run_dir)
        path.write_bytes(path.read_bytes() + b'{"record": "cell", "cell"')
        journal = load_journal(run_dir)
        assert journal.recovered_tail and journal.completed_indices() == {0}
        with JournalWriter.resume(journal) as resumed:
            for cell in result.cells[1:]:
                resumed.append_cell(cell)
            resumed.seal("completed", result.cells)
        final = load_journal(run_dir)
        assert not final.recovered_tail
        assert final.fold().cells == result.cells

    def test_parseable_but_unterminated_tail_is_dropped(self, tmp_path):
        """A torn append whose bytes happen to parse is still dropped —
        keeping it would make the resuming writer fuse the next record onto
        the unterminated line."""
        run_dir = tmp_path / "run"
        result = ExperimentSession(QUICK).run()
        writer = JournalWriter.create(run_dir, QUICK, mode="quick")
        writer.append_cell(result.cells[0])
        writer.close()
        path = journal_path(run_dir)
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        path.write_bytes(raw[:-1])  # crash landed between payload and newline
        journal = load_journal(run_dir)
        assert journal.recovered_tail
        assert journal.completed_indices() == set()  # the torn cell re-runs
        with JournalWriter.resume(journal) as resumed:
            for cell in result.cells:
                resumed.append_cell(cell)
            resumed.seal("completed", result.cells)
        final = load_journal(run_dir)
        assert not final.recovered_tail and final.sealed
        assert final.fold().cells == result.cells

    def test_corruption_before_the_tail_is_an_error(self, tmp_path):
        run_dir, _ = _journaled_run(tmp_path)
        path = journal_path(run_dir)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"record": "cell", "cell": {broken\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt record before the tail"):
            load_journal(run_dir)

    def test_header_spec_hash_mismatch_is_an_error(self, tmp_path):
        run_dir, _ = _journaled_run(tmp_path)
        path = journal_path(run_dir)
        lines = path.read_bytes().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["spec"]["rounds"] = 999
        lines[0] = (json.dumps(header, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="spec hash mismatch"):
            load_journal(run_dir)

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            load_journal(tmp_path / "nowhere")


class TestArtifactRoundTrip:
    def test_all_committed_baselines_round_trip_byte_identically(self, tmp_path):
        """artifact -> journal -> fold() -> artifact_payload reproduces every
        committed baseline byte for byte (the api-v2 derivation contract)."""
        baselines = sorted(
            path
            for path in BASELINE_DIR.glob("*.json")
            if not path.name.endswith(".curve.json")
        )
        assert len(baselines) == 28
        for index, baseline in enumerate(baselines):
            payload = load_artifact(baseline)
            journal = journal_from_artifact(tmp_path / f"b{index}", payload)
            derived = artifact_payload(
                journal.fold(), mode=journal.mode, provenance=journal.provenance()
            )
            assert dumps_canonical(derived) == baseline.read_text(encoding="utf-8"), (
                f"journal round trip of {baseline.name} is not byte-identical"
            )

    def test_provenance_override_controls_environment_and_git(self):
        result = ExperimentSession(QUICK).run()
        pinned = {"environment": {"python": "9.9.9"}, "git": None}
        payload = artifact_payload(result, mode="quick", provenance=pinned)
        assert payload["environment"] == {"python": "9.9.9"}
        assert payload["git"] is None
        fresh = artifact_payload(result, mode="quick")
        assert fresh["environment"] != {"python": "9.9.9"}
