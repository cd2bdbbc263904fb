"""Tests for sweep artifacts: round-trip, schema validation, drift gating."""

from __future__ import annotations

import copy
import json

import pytest

from repro.exceptions import ArtifactError
from repro.runner.artifacts import (
    ARTIFACT_KIND,
    SCHEMA_VERSION,
    artifact_cells,
    artifact_payload,
    compare,
    compare_files,
    dumps_canonical,
    environment_metadata,
    git_metadata,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession


@pytest.fixture(scope="module")
def run_result():
    return ExperimentSession(get_scenario("table1").grid(quick=True)).run()


@pytest.fixture
def payload(run_result):
    return artifact_payload(run_result, mode="quick")


class TestPayload:
    def test_envelope(self, payload):
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == ARTIFACT_KIND
        assert payload["scenario"] == "table1"
        assert payload["mode"] == "quick"
        assert payload["totals"]["cells"] == len(payload["cells"])
        assert payload["totals"]["successes"] == sum(
            1 for cell in payload["cells"] if cell["success"]
        )

    def test_payload_is_deterministic(self, run_result):
        first = artifact_payload(run_result, mode="quick")
        second = artifact_payload(run_result, mode="quick")
        assert dumps_canonical(first) == dumps_canonical(second)

    def test_invalid_mode_rejected(self, run_result):
        with pytest.raises(ArtifactError):
            artifact_payload(run_result, mode="smoke")

    def test_provenance_helpers(self):
        env = environment_metadata()
        assert set(env) == {
            "python",
            "implementation",
            "platform",
            "machine",
            "bitset_backend",
        }
        git = git_metadata()
        assert git is None or {"commit", "dirty"} <= set(git)


class TestRoundTrip:
    def test_write_then_load(self, tmp_path, run_result):
        path = tmp_path / "artifacts" / "table1.quick.json"
        written = write_artifact(path, run_result, mode="quick")
        loaded = load_artifact(path)
        assert loaded == json.loads(dumps_canonical(written))
        cells = artifact_cells(loaded)
        assert cells == run_result.cells

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="does not exist"):
            load_artifact(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)


class TestValidation:
    def test_missing_keys(self, payload):
        broken = {key: value for key, value in payload.items() if key != "totals"}
        with pytest.raises(ArtifactError, match="missing required keys"):
            validate_artifact(broken)

    def test_wrong_kind(self, payload):
        broken = dict(payload, kind="something-else")
        with pytest.raises(ArtifactError, match="not a sweep artifact"):
            validate_artifact(broken)

    def test_wrong_schema_version(self, payload):
        broken = dict(payload, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(ArtifactError, match="schema version"):
            validate_artifact(broken)

    def test_totals_must_match_cells(self, payload):
        broken = copy.deepcopy(payload)
        broken["totals"]["cells"] += 1
        with pytest.raises(ArtifactError, match="disagrees"):
            validate_artifact(broken)

    def test_bad_mode(self, payload):
        broken = dict(payload, mode="nightly")
        with pytest.raises(ArtifactError, match="mode"):
            validate_artifact(broken)

    def test_groups_must_be_a_list_of_complete_objects(self, payload):
        broken = dict(payload, groups={})
        with pytest.raises(ArtifactError, match="'groups' must be a list"):
            validate_artifact(broken)
        broken = dict(payload, groups=["not-an-object"])
        with pytest.raises(ArtifactError, match="must be an object"):
            validate_artifact(broken)
        clipped = copy.deepcopy(payload)
        del clipped["groups"][0]["success_rate"]
        with pytest.raises(ArtifactError, match="missing fields"):
            validate_artifact(clipped)


class TestCompare:
    def test_identical_artifacts_pass(self, payload):
        report = compare(payload, copy.deepcopy(payload))
        assert report.ok
        assert report.groups_checked == len(payload["groups"])
        assert "OK" in report.describe()

    def test_success_rate_drift_detected(self, payload):
        drifted = copy.deepcopy(payload)
        drifted["groups"][0]["success_rate"] -= 0.5
        report = compare(payload, drifted)
        assert not report.ok
        assert any(drift.kind == "success-rate" for drift in report.drifts)
        assert "DRIFT" in report.describe()

    def test_mean_rounds_drift_detected(self, payload):
        drifted = copy.deepcopy(payload)
        drifted["groups"][0]["mean_rounds"] += 1.0
        report = compare(payload, drifted)
        assert any(drift.kind == "mean-rounds" for drift in report.drifts)

    def test_tolerances_permit_small_drift(self, payload):
        drifted = copy.deepcopy(payload)
        drifted["groups"][0]["success_rate"] -= 0.05
        drifted["groups"][0]["mean_rounds"] += 0.5
        assert not compare(payload, drifted).ok
        assert compare(payload, drifted, tol_success=0.1, tol_rounds=1.0).ok

    def test_missing_and_new_groups_detected(self, payload):
        drifted = copy.deepcopy(payload)
        removed = drifted["groups"].pop(0)
        report = compare(payload, drifted)
        assert any(drift.kind == "missing-group" for drift in report.drifts)
        added = dict(removed, topology="invented-graph")
        drifted["groups"].append(added)
        report = compare(payload, drifted)
        assert any(drift.kind == "new-group" for drift in report.drifts)

    def test_run_count_change_detected(self, payload):
        drifted = copy.deepcopy(payload)
        drifted["groups"][0]["runs"] += 1
        report = compare(payload, drifted)
        assert any(drift.kind == "runs" for drift in report.drifts)

    def test_envelope_mismatches_detected(self, payload):
        drifted = copy.deepcopy(payload)
        drifted["mode"] = "full"
        report = compare(payload, drifted)
        assert any(drift.kind == "mode" for drift in report.drifts)

    def test_compare_files(self, tmp_path, run_result):
        baseline = tmp_path / "baseline.json"
        current = tmp_path / "current.json"
        write_artifact(baseline, run_result, mode="quick")
        write_artifact(current, run_result, mode="quick")
        assert compare_files(baseline, current).ok
