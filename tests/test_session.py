"""Tests for the streaming execution sessions (repro.runner.session)."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro.api
from repro.exceptions import ExperimentError, JournalError, UnknownPluginError
from repro.runner.artifacts import artifact_payload, compare, dumps_canonical, load_artifact
from repro.runner.cli import EXIT_INTERRUPTED, EXIT_OK, main
from repro.runner.harness import StopSweep, SweepEngine
from repro.runner.journal import journal_path, load_journal
from repro.runner.reporting import SessionProgress
from repro.runner.scenarios import get_scenario, run_cell
from repro.runner.session import (
    CellCompleted,
    CheckpointWritten,
    ExperimentSession,
    GroupUpdated,
    MaxWallTimePolicy,
    RunFinished,
    RunStarted,
    StopPolicy,
    make_stop_policy,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

QUICK = get_scenario("definition1").grid(quick=True)
CHECK = get_scenario("table1").grid(quick=True)
FIG1B = get_scenario("figure1b").grid(quick=True)


def _poisoned_run_cell(spec, cell):
    """Module-level (picklable) cell runner that fails on cell index 1."""
    if cell.index == 1:
        raise RuntimeError("poisoned cell")
    return run_cell(spec, cell)


def _drop_after(session, k):
    """Consume a session's events, dropping the runner after K cells.

    Simulates a mid-stream crash: the event iterator is closed the moment
    the K-th CellCompleted arrives, which tears the worker pool down and
    leaves the journal unsealed.
    """
    events = session.events()
    completed = 0
    for event in events:
        if isinstance(event, CellCompleted):
            completed += 1
            if completed >= k:
                events.close()
                break
    return completed


def _await_no_children(timeout=10.0):
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:  # pragma: no cover - failure path
            return False
        time.sleep(0.05)
    return True


class TestEventStream:
    def test_serial_and_sharded_emit_the_identical_stream(self):
        events = {}
        for workers in (1, 2):
            session = ExperimentSession(QUICK, mode="quick", workers=workers)
            events[workers] = list(session.events())
        kinds = [type(event).__name__ for event in events[1]]
        assert kinds == [type(event).__name__ for event in events[2]]
        assert kinds[0] == "RunStarted" and kinds[-1] == "RunFinished"
        cells = {
            workers: [e.result for e in evs if isinstance(e, CellCompleted)]
            for workers, evs in events.items()
        }
        assert cells[1] == cells[2]
        groups = {
            workers: [e.group.as_dict() for e in evs if isinstance(e, GroupUpdated)]
            for workers, evs in events.items()
        }
        assert groups[1] == groups[2]

    def test_event_stream_matches_the_serial_source(self):
        session = ExperimentSession(CHECK, mode="quick", workers=2, chunk_size=1)
        result = session.run()
        assert result.cells == list(SweepEngine(workers=1).stream(CHECK))
        reference = ExperimentSession(CHECK, mode="quick").run()
        assert artifact_payload(result, mode="quick") == artifact_payload(
            reference, mode="quick"
        )

    def test_cell_completed_counts_and_envelope(self):
        session = ExperimentSession(QUICK, mode="quick")
        events = list(session.events())
        started = events[0]
        assert isinstance(started, RunStarted)
        assert started.total_cells == QUICK.num_cells
        assert started.completed_cells == 0
        assert started.expected_groups == QUICK.num_cells // len(QUICK.seeds)
        counters = [e.completed for e in events if isinstance(e, CellCompleted)]
        assert counters == list(range(1, QUICK.num_cells + 1))
        finished = events[-1]
        assert isinstance(finished, RunFinished)
        assert finished.reason == "completed" and finished.completed == QUICK.num_cells

    def test_iter_results_is_the_cell_view(self):
        session = ExperimentSession(QUICK, mode="quick")
        streamed = list(session.iter_results())
        assert streamed == session.result.cells

    def test_sessions_are_one_shot(self):
        session = ExperimentSession(QUICK, mode="quick")
        session.run()
        with pytest.raises(ExperimentError, match="already executed"):
            session.run()

    def test_result_before_finish_raises(self):
        session = ExperimentSession(QUICK, mode="quick")
        with pytest.raises(ExperimentError, match="not finished"):
            session.result


class TestJournaledSessions:
    def test_journaled_artifact_matches_plain_engine_bytes(self, tmp_path):
        session = ExperimentSession(
            QUICK, mode="quick", workers=2, run_dir=tmp_path / "run", checkpoint_interval=2
        )
        events = list(session.events())
        assert any(isinstance(e, CheckpointWritten) for e in events)
        assert [e for e in events if isinstance(e, CheckpointWritten)][-1].sealed
        journal = load_journal(tmp_path / "run")
        assert journal.sealed and journal.seal_reason == "completed"
        derived = dumps_canonical(session.artifact_payload())
        plain = dumps_canonical(
            artifact_payload(
                ExperimentSession(QUICK, mode="quick").run(),
                mode="quick",
                provenance=journal.provenance(),
            )
        )
        assert derived == plain

    @pytest.mark.parametrize("grid,k", [(FIG1B, 1), (CHECK, 3)], ids=["figure1b", "table1"])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path, grid, k):
        """Kill a sharded journaled sweep after K cells, resume, and compare
        bytes against an uninterrupted serial run."""
        run_dir = tmp_path / "run"
        interrupted = ExperimentSession(grid, mode="quick", workers=2, run_dir=run_dir)
        completed = _drop_after(interrupted, k)
        assert completed == k
        journal = load_journal(run_dir)
        assert not journal.sealed
        assert len(journal.cells) >= 1

        resumed = ExperimentSession.resume(run_dir, workers=2)
        events = list(resumed.events())
        replays = [e for e in events if isinstance(e, CellCompleted) and e.replayed]
        assert len(replays) == len(journal.cells)
        assert resumed.finished.reason == "completed"

        reference = ExperimentSession(grid, mode="quick", workers=1, run_dir=tmp_path / "ref")
        reference.run()
        assert dumps_canonical(resumed.artifact_payload()) == dumps_canonical(
            reference.artifact_payload()
        )
        # and the gate agrees with the committed baseline
        baseline = load_artifact(BASELINE_DIR / f"{grid.name}.quick.json")
        assert compare(baseline, resumed.artifact_payload()).ok

    def test_resume_of_sealed_journal_refuses(self, tmp_path):
        session = ExperimentSession(QUICK, mode="quick", run_dir=tmp_path / "run")
        session.run()
        with pytest.raises(JournalError, match="sealed"):
            ExperimentSession.resume(tmp_path / "run")

    def test_restarting_an_existing_run_dir_refuses(self, tmp_path):
        run_dir = tmp_path / "run"
        first = ExperimentSession(QUICK, mode="quick", run_dir=run_dir)
        _drop_after(first, 1)
        second = ExperimentSession(QUICK, mode="quick", run_dir=run_dir)
        with pytest.raises(JournalError, match="resume"):
            second.run()

    def test_resume_verifies_the_grid_against_the_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        session = ExperimentSession(QUICK, mode="quick", run_dir=run_dir)
        _drop_after(session, 1)
        path = journal_path(run_dir)
        lines = path.read_bytes().splitlines(keepends=True)
        import json as _json

        header = _json.loads(lines[0])
        header["spec"]["seeds"] = [999]
        lines[0] = (_json.dumps(header, sort_keys=True) + "\n").encode()
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="spec hash mismatch"):
            ExperimentSession.resume(run_dir)


class TestStopPolicies:
    def test_max_cells_seals_a_partial_run(self, tmp_path):
        session = ExperimentSession(
            QUICK, mode="quick", run_dir=tmp_path / "run", stop_policies=("max-cells:2",)
        )
        result = session.run()
        assert len(result.cells) == 2
        assert result.stop_reason == "policy:max-cells"
        journal = load_journal(tmp_path / "run")
        assert journal.sealed and journal.seal_reason == "policy:max-cells"
        with pytest.raises(JournalError, match="sealed"):
            ExperimentSession.resume(tmp_path / "run")
        # the partial artifact is still a valid, loadable document
        payload = session.artifact_payload()
        assert payload["totals"]["cells"] == 2

    def test_max_wall_time_stops_after_first_cell(self):
        session = ExperimentSession(QUICK, mode="quick", stop_policies=[MaxWallTimePolicy(0)])
        result = session.run()
        assert len(result.cells) == 1
        assert result.stop_reason == "policy:max-wall-time"

    def test_group_converged_skips_excess_seeds(self):
        grid = dataclasses.replace(QUICK, seeds=(1, 2))
        session = ExperimentSession(
            grid, mode="quick", stop_policies=("group-converged:1",)
        )
        result = session.run()
        assert 0 < len(result.cells) < grid.num_cells
        assert result.stop_reason == "policy:group-converged"
        seen = {cell.group_key for cell in result.cells}
        assert len(seen) == grid.num_cells // 2  # every group reached once

    def test_policy_firing_during_replay_never_contradicts_the_journal(self, tmp_path):
        """A stop policy that trips on replayed cells only takes effect
        before fresh work: the seal's totals must cover every cell record
        durably in the journal."""
        grid = dataclasses.replace(QUICK, seeds=(1, 2))  # 6 cells
        run_dir = tmp_path / "run"
        first = ExperimentSession(grid, mode="quick", run_dir=run_dir)
        assert _drop_after(first, 4) == 4
        resumed = ExperimentSession.resume(run_dir, stop_policies=("max-cells:2",))
        result = resumed.run()
        assert result.stop_reason == "policy:max-cells"
        assert len(result.cells) == 4  # all durable cells kept, no fresh work
        journal = load_journal(run_dir)
        assert journal.sealed and journal.seal_reason == "policy:max-cells"
        assert len(journal.cells) == 4
        assert journal.seal["totals"]["cells"] == len(journal.cells)

    def test_a_verdict_on_run_started_runs_no_fresh_cell(self, tmp_path):
        class StopAtStart(StopPolicy):
            name = "at-start"

            def observe(self, event):
                return "stop before any work" if isinstance(event, RunStarted) else None

        session = ExperimentSession(
            QUICK, mode="quick", run_dir=tmp_path / "fresh", stop_policies=[StopAtStart()]
        )
        result = session.run()
        assert result.cells == []
        assert session.finished.reason == "policy:at-start"
        assert session.finished.detail == "stop before any work"
        assert load_journal(tmp_path / "fresh").seal_reason == "policy:at-start"

        # On resume the replayed cells are still absorbed, but nothing fresh runs.
        run_dir = tmp_path / "resumed"
        assert _drop_after(ExperimentSession(QUICK, mode="quick", run_dir=run_dir), 1) == 1
        resumed = ExperimentSession.resume(run_dir, stop_policies=[StopAtStart()])
        assert [cell.index for cell in resumed.run().cells] == [0]
        journal = load_journal(run_dir)
        assert journal.seal_reason == "policy:at-start" and len(journal.cells) == 1

    def test_policy_specs_resolve_through_the_registry(self):
        with pytest.raises(UnknownPluginError, match="max-cells"):
            make_stop_policy("max-cell:3")
        with pytest.raises(ExperimentError, match="parameter"):
            make_stop_policy("max-cells")
        with pytest.raises(ExperimentError, match=">= 1"):
            make_stop_policy("max-cells:0")


class RecordingSource:
    """A minimal cell source: serial execution that records what it saw."""

    def __init__(self):
        self.requested = None
        self.thrown = None

    def stream(self, spec, cells=None):
        self.requested = [cell.index for cell in cells]
        try:
            for cell in cells:
                yield run_cell(spec, cell)
        except StopSweep as stop:
            self.thrown = stop.reason


class TestCellSources:
    def test_any_object_with_stream_is_a_source(self, tmp_path):
        run_dir = tmp_path / "run"
        assert _drop_after(ExperimentSession(QUICK, mode="quick", run_dir=run_dir), 1) == 1
        source = RecordingSource()
        resumed = ExperimentSession.resume(run_dir, source=source)
        resumed.run()
        assert source.requested == [1, 2]  # only the cells the journal lacks
        assert resumed.workers == 1
        reference = ExperimentSession(QUICK, mode="quick", run_dir=tmp_path / "ref")
        reference.run()
        assert dumps_canonical(resumed.artifact_payload()) == dumps_canonical(
            reference.artifact_payload()
        )

    def test_a_stop_policy_throws_stop_sweep_into_the_source(self):
        source = RecordingSource()
        session = ExperimentSession(
            QUICK, mode="quick", source=source, stop_policies=("max-cells:1",)
        )
        assert len(session.run().cells) == 1
        assert source.thrown == "policy:max-cells"

    def test_pool_settings_do_not_combine_with_a_source(self):
        for settings in ({"workers": 2}, {"chunk_size": 4}, {"runner": run_cell}):
            with pytest.raises(ExperimentError, match="default pool source"):
                ExperimentSession(QUICK, source=RecordingSource(), **settings)


class TestPoolHygiene:
    def test_poisoned_runner_propagates_and_releases_the_pool(self):
        engine = SweepEngine(workers=2, chunk_size=1, runner=_poisoned_run_cell)
        with pytest.raises(RuntimeError, match="poisoned cell"):
            list(engine.stream(QUICK))
        assert _await_no_children(), "worker pool leaked child processes"

    def test_poisoned_session_leaves_no_artifact_and_a_resumable_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        session = ExperimentSession(
            QUICK, mode="quick", workers=2, run_dir=run_dir, runner=_poisoned_run_cell
        )
        with pytest.raises(RuntimeError, match="poisoned cell"):
            session.run()
        assert _await_no_children()
        journal = load_journal(run_dir)
        assert not journal.sealed  # resumable, not half-sealed
        assert not list(tmp_path.glob("*.json"))  # no half-written artifact
        resumed = ExperimentSession.resume(run_dir, workers=2)  # healthy runner
        resumed.run()
        reference = ExperimentSession(QUICK, mode="quick", run_dir=tmp_path / "ref")
        reference.run()
        assert dumps_canonical(resumed.artifact_payload()) == dumps_canonical(
            reference.artifact_payload()
        )

    def test_closing_the_stream_early_releases_the_pool(self):
        session = ExperimentSession(CHECK, mode="quick", workers=2, chunk_size=1)
        _drop_after(session, 1)
        assert _await_no_children()

    def test_repeated_early_closes_never_deadlock_the_pool(self):
        # Pool.terminate() could kill a worker while it held the result
        # queue's lock, and the teardown then waited on that lock forever
        # (a few times in a thousand closes).  The loop runs in a child
        # process so that a deadlock fails the test instead of hanging it.
        script = "\n".join(
            (
                "from repro.runner.session import ExperimentSession",
                "from tests.test_session import CHECK, _await_no_children, _drop_after",
                "for _ in range(300):",
                "    session = ExperimentSession(CHECK, mode='quick', workers=2, chunk_size=1)",
                "    _drop_after(session, 1)",
                "    assert _await_no_children()",
            )
        )
        path = os.pathsep.join((str(REPO_ROOT / "src"), str(REPO_ROOT)))
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
            timeout=120,
        )


class TestSessionProgress:
    def test_progress_consumes_events_only(self, tmp_path):
        session = ExperimentSession(
            QUICK, mode="quick", run_dir=tmp_path / "run", checkpoint_interval=1
        )
        progress = SessionProgress()
        for event in session.events():
            progress.observe(event)
        assert progress.completed == QUICK.num_cells
        assert progress.total == QUICK.num_cells
        assert progress.cells_journaled == QUICK.num_cells
        line = progress.render_line()
        assert f"{QUICK.num_cells}/{QUICK.num_cells} cells" in line
        assert "done" in line
        # summary table derived from GroupUpdated events matches the result
        assert [group.as_dict() for group in progress.groups] == [
            group.as_dict() for group in session.result.groups
        ]
        assert "definition1 (quick grid)" in progress.render_summary()


class TestApiV3Surface:
    def test_api_version_is_3_everywhere(self):
        import repro.registry

        assert repro.api.API_VERSION == 3
        # repro.api is its only home: the v2 registry alias is gone
        assert not hasattr(repro.registry, "API_VERSION")

    @pytest.mark.parametrize(
        "name", ["run_grid", "SweepResult", "sweep_behaviors", "run_session", "CellObserver"]
    )
    def test_removed_run_paths_are_gone(self, name):
        import repro.runner

        for module in (repro.api, repro.runner):
            with pytest.raises(AttributeError):
                getattr(module, name)
        assert not hasattr(SweepEngine, "run")

    def test_every_kept_v1_name_is_importable(self):
        v1_names = [
            "API_VERSION", "ALGORITHMS", "ALL_REGISTRIES", "BEHAVIORS", "DELAYS",
            "PLACEMENTS", "TOPOLOGIES", "Registry", "RegistryEntry", "AlgorithmSpec",
            "parse_plugin_spec", "ReproError", "ScenarioFileError", "UnknownPluginError",
            "DiGraph", "NOT_APPLICABLE", "CellResult", "GridSpec", "GroupAggregate",
            "SweepCell", "SweepEngine", "SweepRunResult", "TopologySpec", "run_cell",
            "SCENARIOS", "Scenario", "dump_scenario_toml", "get_scenario",
            "load_scenario_file", "load_scenario_text", "scenario_names",
            "ConsensusConfig", "quick_consensus", "run_bw_experiment",
            "run_clique_experiment", "run_crash_experiment", "run_iterative_experiment",
            "run_local_average_experiment", "ComparisonReport", "compare",
            "compare_files", "load_artifact", "write_artifact",
        ]
        for name in v1_names:
            assert getattr(repro.api, name) is not None, name

    def test_unknown_api_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.api.not_a_name


class TestCliSessions:
    def test_stop_policy_run_exits_zero_and_names_the_policy(self, tmp_path, capsys):
        target = tmp_path / "partial.json"
        code = main(
            ["run", "--scenario", "definition1", "--quick", "--no-table",
             "--stop-policy", "max-cells:2", "--output", str(target)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "sealed early by stop policy 'max-cells'" in out
        assert load_artifact(target)["totals"]["cells"] == 2

    def test_unknown_stop_policy_is_a_clean_error(self, capsys):
        code = main(
            ["run", "--scenario", "definition1", "--quick", "--stop-policy", "nope:1"]
        )
        assert code == 2
        assert "stop-policies" in capsys.readouterr().err

    def test_resume_conflicts_with_scenario_selection(self, tmp_path, capsys):
        code = main(["run", "--resume", str(tmp_path), "--scenario", "table1"])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_journal_then_cli_resume_completes_and_gates_clean(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        session = ExperimentSession(CHECK, mode="quick", workers=2, run_dir=run_dir)
        _drop_after(session, 2)
        target = tmp_path / "table1.quick.json"
        code = main(["run", "--resume", str(run_dir), "--no-table", "--progress",
                     "--output", str(target)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "replayed from journal" in out
        baseline = load_artifact(BASELINE_DIR / "table1.quick.json")
        assert compare(baseline, load_artifact(target)).ok

    def test_journal_flag_writes_a_sealed_journal(self, tmp_path, capsys):
        run_dir = tmp_path / "rd"
        target = tmp_path / "out.json"
        code = main(
            ["run", "--scenario", "definition1", "--quick", "--no-table", "--journal",
             "--run-dir", str(run_dir), "--output", str(target)]
        )
        assert code == EXIT_OK
        assert "journal:" in capsys.readouterr().out
        journal = load_journal(run_dir)
        assert journal.sealed and journal.seal_reason == "completed"
        assert target.exists()


SIGINT_SCENARIO = """
name = "sigint_probe"
description = "slow BW cells for the interrupt/resume exit-code test"

[spec]
algorithms = ["bw"]
f_values = [1]
behaviors = ["crash", "fixed-high"]
placements = ["random"]
seeds = [1, 2, 3, 4, 5, 6]
epsilon = 0.25
path_policy = "redundant"

[[spec.topologies]]
family = "clique"
params = { n = 5 }
"""


class TestSigintResume:
    """The full crash story through a real process: SIGINT -> exit 3 -> resume."""

    def test_sigint_exits_3_and_resume_is_byte_identical(self, tmp_path):
        scenario_file = tmp_path / "sigint_probe.toml"
        scenario_file.write_text(SIGINT_SCENARIO, encoding="utf-8")
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.runner", "run",
             "--scenario-file", str(scenario_file), "--workers", "2",
             "--journal", "--run-dir", str(run_dir),
             "--output", str(tmp_path / "unused.json")],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        journal_file = journal_path(run_dir)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if journal_file.exists() and b'"record":"cell"' in journal_file.read_bytes():
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        assert process.poll() is None, (
            f"run finished before it could be interrupted:\n{process.communicate()}"
        )
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == EXIT_INTERRUPTED, (stdout, stderr)
        assert str(run_dir) in stdout  # the resume hint names the run dir
        journal = load_journal(run_dir)
        assert not journal.sealed and journal.cells

        resumed = ExperimentSession.resume(run_dir, workers=2)
        resumed.run()
        assert resumed.finished.reason == "completed"

        spec = resumed.spec
        reference = ExperimentSession(spec).run()
        assert dumps_canonical(resumed.artifact_payload()) == dumps_canonical(
            artifact_payload(reference, mode="full", provenance=load_journal(run_dir).provenance())
        )
