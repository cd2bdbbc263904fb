"""Tests for the network fault-injection layer (repro.network.faults).

Covers the FAULTS registry and schedule compilation, the simulator's
control-event semantics (suppression, defer/drop, retry, duplication), the
zero-intensity byte-identity guarantee, fail-fast delay-model validation,
the sweep-level ``faults`` axis (serial / sharded / resumed determinism
against the committed ``churn`` baseline), and the fabric's transient-I/O
retry hardening.
"""

from __future__ import annotations

import heapq
import json
import os

import pytest

from repro.exceptions import ExperimentError, SimulationError, UnknownPluginError
from repro.graphs.generators import complete_digraph, directed_cycle
from repro.network.delays import CongestionDelay, PerLinkDelay, TargetedDelay, UniformDelay
from repro.network.faults import (
    DEFAULT_HORIZON,
    LINK_DOWN,
    LINK_UP,
    FaultSchedule,
    derive_fault_seed,
    make_faults,
)
from repro.network.node import Process, RecordingProcess
from repro.network.simulator import Simulator
from repro.registry import FAULTS
from repro.runner.artifacts import compare, dumps_canonical, load_artifact
from repro.runner.fabric import ShardWriter, retry_transient_io
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.reporting import SWEEP_HEADERS, render_sweep_groups
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession
from tests.test_session import BASELINE_DIR, _drop_after


class Broadcaster(Process):
    def __init__(self, node_id, payload):
        super().__init__(node_id)
        self.payload = payload

    def on_start(self):
        self.broadcast(self.payload)


def _wire(graph, faults=None, seed=7, delay_model=None, payloads=("x",)):
    """A simulator where node 0 broadcasts and everyone else records."""
    simulator = Simulator(graph, delay_model or UniformDelay(0.5, 2.0), seed=seed, faults=faults)
    processes = {0: Broadcaster(0, payloads[0])}
    for node in graph.nodes:
        if node != 0:
            processes[node] = RecordingProcess(node)
    simulator.add_processes(processes.values())
    return simulator, processes


# ----------------------------------------------------------------------
# registry + schedule compilation
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_policies_registered(self):
        names = set(FAULTS.names())
        assert {"none", "link-flap", "churn", "drop", "duplicate", "congestion"} <= names

    def test_unknown_policy_raises(self):
        with pytest.raises(UnknownPluginError):
            make_faults("gremlins:0.5")

    def test_spec_is_recorded_on_the_policy(self):
        policy = make_faults("churn:0.4,5.0")
        assert policy.spec == "churn:0.4,5.0"

    def test_invalid_parameters_fail_fast(self):
        with pytest.raises(ExperimentError, match="between 0 and 1"):
            make_faults("churn:1.5")
        with pytest.raises(ExperimentError, match="downtime must be shorter"):
            make_faults("link-flap:0.5,10.0,4.0")
        with pytest.raises(ExperimentError, match="probability"):
            make_faults("drop:1.0")


class TestScheduleDeterminism:
    def test_same_seed_same_trace(self):
        graph = complete_digraph(6)
        one = make_faults("churn:0.9,5.0").build(graph, 42)
        two = make_faults("churn:0.9,5.0").build(graph, 42)
        assert one.trace() == two.trace()
        assert one.trace_digest() == two.trace_digest()
        assert one.trace_digest(one.trace()) == one.trace_digest()

    def test_different_seed_different_trace(self):
        graph = complete_digraph(6)
        one = make_faults("churn:1.0,5.0").build(graph, 1)
        two = make_faults("churn:1.0,5.0").build(graph, 2)
        assert one.trace_digest() != two.trace_digest()

    def test_fault_seed_is_decorrelated_from_the_cell_seed(self):
        assert derive_fault_seed(7, "runtime") != 7
        assert derive_fault_seed(7, "runtime") != derive_fault_seed(7, "windows")

    def test_trace_is_sorted_and_paired(self):
        graph = complete_digraph(4)
        schedule = make_faults("link-flap:1.0,2.0,8.0").build(graph, 3)
        trace = schedule.trace()
        assert trace, "rate-1.0 flapping must produce windows"
        assert list(trace) == sorted(trace)
        downs = sum(1 for event in trace if event[1] == LINK_DOWN)
        ups = sum(1 for event in trace if event[1] == LINK_UP)
        assert downs == ups
        assert all(event[0] <= DEFAULT_HORIZON for event in trace)

    def test_zero_intensity_schedules_are_inactive(self):
        graph = complete_digraph(4)
        for spec in ("none", "drop:0.0", "duplicate:0.0", "churn:0.0", "link-flap:0.0"):
            assert not make_faults(spec).build(graph, 5).active, spec
        assert make_faults("drop:0.2").build(graph, 5).active

    def test_congestion_schedule_is_inactive_but_overrides_the_delay(self):
        graph = complete_digraph(4)
        schedule = make_faults("congestion:0.3").build(graph, 5)
        assert not schedule.active
        assert schedule.delay_spec.startswith("congestion:")


# ----------------------------------------------------------------------
# simulator semantics
# ----------------------------------------------------------------------
class TestSimulatorFaults:
    def test_zero_intensity_run_is_byte_identical_to_no_faults(self):
        graph = complete_digraph(5)
        inert = make_faults("drop:0.0").build(graph, 11)
        plain, _ = _wire(graph, faults=None)
        gated, _ = _wire(graph, faults=inert)
        plain.run()
        gated.run()
        assert plain.stats.__dict__ == gated.stats.__dict__

    def _chatter(self, **run_kwargs):
        """Endless chatter on clique(3) under an active schedule whose only
        window opens long after the run stops, so every event is delivered
        through the fault-aware loop.  Each node decides on its first
        receipt; returns the stats and the receiving node of every
        delivery."""
        graph = complete_digraph(3)
        receivers = []

        class Chatterbox(Process):
            def on_start(self):
                self.broadcast(("spam",))

            def on_message(self, sender, payload):
                receivers.append(self.node_id)
                self.decide(payload)
                self.broadcast(("spam",))

        schedule = FaultSchedule("custom", link_windows={(0, 1): [(1e6, 1e6 + 1.0)]}, seed=0)
        assert schedule.active
        simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=7, faults=schedule)
        simulator.add_processes([Chatterbox(node) for node in graph.nodes])
        return simulator.run(**run_kwargs), receivers

    def test_fault_loop_stops_at_max_events(self):
        stats, _ = self._chatter(max_events=50)
        assert stats.terminated_early
        assert stats.delivered_messages == 50

    def test_fault_loop_stops_after_the_last_awaited_decision(self):
        _, free_running = self._chatter(max_events=50)
        # The delivery on which the last of the three nodes first receives.
        last = max(free_running.index(node) for node in (0, 1, 2)) + 1
        assert last > 3
        stats, receivers = self._chatter(max_events=50, until_decided=[0, 1, 2])
        assert receivers == free_running[:last]
        assert stats.delivered_messages == last and not stats.terminated_early

    @pytest.mark.parametrize("max_events", [None, 60], ids=["quiescent", "cut"])
    @pytest.mark.parametrize("faulty", [False, True], ids=["dispatch-only", "fault-aware"])
    def test_counters_equal_an_event_by_event_count(self, monkeypatch, faulty, max_events):
        """``delivered_messages``, ``sent_messages`` and ``timer_events``
        against handler calls and message pushes counted one by one, in
        both loops, under a schedule that drops (with a retry), duplicates
        and defers messages and suppresses a timer."""
        graph = complete_digraph(4)
        pushed_slots = []

        class CountingHeap:
            heappop = staticmethod(heapq.heappop)

            @staticmethod
            def heappush(queue, event):
                pushed_slots.append(event[2])
                heapq.heappush(queue, event)

        monkeypatch.setattr("repro.network.simulator.heapq", CountingHeap)
        delivered, fired = [], []

        class Relay(Process):
            def on_start(self):
                self.broadcast((self.node_id,))
                self.require_context().set_timer(1.5, tag="early")
                self.require_context().set_timer(4.5, tag="late")

            def on_message(self, sender, payload):
                delivered.append((sender, self.node_id, payload))
                if len(payload) < 3:
                    self.broadcast(payload + (self.node_id,))

            def on_timer(self, tag):
                fired.append((self.node_id, tag))
                self.broadcast((tag,))

        schedule = None
        if faulty:
            schedule = FaultSchedule(
                "custom",
                link_windows={(0, 1): [(0.5, 2.5)], (2, 3): [(1.0, 3.0)]},
                node_windows={3: [(4.0, 5.0)]},
                drop_probability=0.2,
                max_retries=1,
                retry_backoff=0.5,
                duplicate_probability=0.2,
                on_down="defer",
                seed=3,
            )
        simulator = Simulator(graph, UniformDelay(0.5, 2.0), seed=5, faults=schedule)
        simulator.add_processes([Relay(node) for node in graph.nodes])
        stats = simulator.run(max_events=max_events)

        assert stats.sent_messages == sum(1 for slot in pushed_slots if slot < 4)
        assert stats.delivered_messages == len(delivered)
        assert stats.timer_events == len(fired)
        assert stats.terminated_early == (max_events is not None)
        if faulty:
            assert stats.dropped_messages and stats.duplicated_messages
            assert stats.deferred_messages and stats.retransmissions
        if faulty and max_events is None:
            assert stats.suppressed_timers == 1

    def test_unknown_link_in_schedule_raises(self):
        graph = directed_cycle(4)
        schedule = FaultSchedule("custom", link_windows={(0, 3): [(1.0, 2.0)]}, seed=0)
        simulator, _ = _wire(graph, faults=schedule)
        with pytest.raises(SimulationError, match="not in the graph"):
            simulator.run()

    def test_node_down_window_suppresses_and_drops(self):
        graph = complete_digraph(3)
        # Node 0 is down for the whole horizon: its broadcast is suppressed.
        schedule = FaultSchedule("custom", node_windows={0: [(0.0, 100.0)]}, seed=0)
        simulator, processes = _wire(graph, faults=schedule)
        simulator.run()
        assert simulator.stats.suppressed_messages > 0
        assert all(not processes[n].received for n in (1, 2))

    def test_receiver_down_at_delivery_loses_the_message(self):
        graph = complete_digraph(3)
        # Node 1 is down during the delivery window but up at send time.
        schedule = FaultSchedule("custom", node_windows={1: [(0.1, 100.0)]}, seed=0)
        simulator, processes = _wire(graph, faults=schedule)
        simulator.run()
        assert not processes[1].received
        assert processes[2].received
        assert simulator.stats.dropped_messages >= 1

    def test_link_down_defer_redelivers_after_up(self):
        graph = complete_digraph(3)
        schedule = FaultSchedule(
            "custom", link_windows={(0, 1): [(0.0, 10.0)]}, on_down="defer", seed=0
        )
        simulator, processes = _wire(graph, faults=schedule)
        simulator.run()
        assert simulator.stats.deferred_messages >= 1
        assert processes[1].received  # delivered after the link came back
        assert simulator.stats.final_time >= 10.0

    def test_link_down_drop_loses_the_message(self):
        graph = complete_digraph(3)
        schedule = FaultSchedule(
            "custom", link_windows={(0, 1): [(0.0, 10.0)]}, on_down="drop", seed=0
        )
        simulator, processes = _wire(graph, faults=schedule)
        simulator.run()
        assert not processes[1].received
        assert processes[2].received
        assert simulator.stats.dropped_messages >= 1

    def test_drop_policy_counts_retransmissions(self):
        graph = complete_digraph(4)
        schedule = make_faults("drop:0.4,3,0.25").build(graph, 9)
        simulator, _ = _wire(graph, faults=schedule)
        simulator.run()
        stats = simulator.stats
        assert stats.retransmissions > 0
        # every send either eventually lands or exhausts its retries
        assert stats.delivered_messages + stats.dropped_messages == stats.sent_messages

    def test_duplicate_policy_delivers_extra_copies(self):
        graph = complete_digraph(3)
        schedule = make_faults("duplicate:0.9").build(graph, 3)
        simulator, processes = _wire(graph, faults=schedule)
        simulator.run()
        assert simulator.stats.duplicated_messages > 0
        total = sum(len(processes[n].received) for n in (1, 2))
        assert total == 2 + simulator.stats.duplicated_messages

    def test_fault_runs_are_reproducible(self):
        graph = complete_digraph(4)
        runs = []
        for _ in range(2):
            schedule = make_faults("drop:0.3").build(graph, 5)
            simulator, processes = _wire(graph, faults=schedule)
            simulator.run()
            runs.append(
                (simulator.stats.__dict__, {n: processes[n].received for n in (1, 2, 3)})
            )
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# delay-model validation (fail fast on typo'd link keys) + CongestionDelay
# ----------------------------------------------------------------------
class TestDelayValidation:
    def test_per_link_delay_rejects_unknown_edges_at_construction(self):
        graph = directed_cycle(4)
        with pytest.raises(ExperimentError, match="not in the graph"):
            PerLinkDelay(1.0, overrides={(0, 99): 5.0}, graph=graph)

    def test_per_link_delay_validate_hook(self):
        graph = directed_cycle(4)
        model = PerLinkDelay(1.0, overrides={(0, 99): 5.0})
        with pytest.raises(ExperimentError, match="not in the graph"):
            Simulator(graph, model)

    def test_targeted_delay_rejects_unknown_edges(self):
        graph = directed_cycle(4)
        with pytest.raises(ExperimentError, match="not in the graph"):
            TargetedDelay(slow_edges=[(0, 2)], release_time=5.0, graph=graph)

    def test_valid_overrides_pass(self):
        graph = directed_cycle(4)
        model = PerLinkDelay(1.0, overrides={(0, 1): 5.0}, graph=graph)
        Simulator(graph, model)  # no raise

    def test_congestion_delay_zero_slope_matches_uniform(self):
        import random

        base = UniformDelay(0.5, 2.0)
        congested = CongestionDelay(0.5, 2.0, slope=0.0)
        draws_a = [base.delay(0, 1, None, 0.0, random.Random(3)) for _ in range(1)]
        draws_b = [congested.delay(0, 1, None, 0.0, random.Random(3)) for _ in range(1)]
        assert draws_a == draws_b

    def test_congestion_delay_adds_load_penalty(self):
        import random

        model = CongestionDelay(1.0, 1.0, slope=0.5, cap=2.0)
        model.bind_load_probe(lambda sender, receiver: 10)
        delay = model.delay(0, 1, None, 0.0, random.Random(0))
        assert delay == pytest.approx(1.0 + 2.0)  # constant base + capped penalty


# ----------------------------------------------------------------------
# sweep-level integration (the `faults` axis)
# ----------------------------------------------------------------------
CHURN_QUICK = get_scenario("churn").grid(quick=True)


def _grid(**overrides):
    base = dict(
        name="faults-test",
        algorithms=("bw",),
        topologies=(TopologySpec(family="figure-1a"),),
        f_values=(1,),
        behaviors=("crash",),
        placements=("random",),
        seeds=(1,),
        epsilon=0.25,
        inputs="spread",
        rounds=10,
    )
    base.update(overrides)
    return GridSpec(**base)


class TestFaultsAxis:
    def test_expansion_multiplies_by_fault_specs(self):
        spec = _grid(faults=("none", "drop:0.2"), seeds=(1, 2))
        assert spec.num_cells == 4
        labels = {cell.faults for cell in spec.expand()}
        assert labels == {"none", "drop:0.2"}

    def test_grid_spec_round_trips_with_and_without_faults(self):
        with_faults = _grid(faults=("none", "drop:0.2"))
        assert GridSpec.from_dict(with_faults.as_dict()) == with_faults
        plain = _grid()
        assert "faults" not in plain.as_dict()
        assert GridSpec.from_dict(plain.as_dict()) == plain

    def test_unknown_fault_spec_fails_validation(self):
        with pytest.raises(UnknownPluginError):
            _grid(faults=("gremlins",)).validate_plugins()

    def test_zero_intensity_cells_match_fault_free_cells(self):
        inert = ExperimentSession(_grid(faults=("drop:0.0",))).run().cells[0].as_dict()
        plain = ExperimentSession(_grid()).run().cells[0].as_dict()
        assert inert.pop("faults") == "drop:0.0"
        assert inert == plain

    def test_fault_free_cell_records_omit_the_faults_key(self):
        record = ExperimentSession(_grid()).run().cells[0].as_dict()
        assert "faults" not in record

    def test_active_cells_record_fault_provenance(self):
        result = ExperimentSession(_grid(faults=("drop:0.3",))).run().cells[0]
        summary = result.metrics["faults"]
        assert summary["policy"] == "drop:0.3"
        assert len(summary["trace_digest"]) == 64

    def test_sync_and_check_cells_reject_fault_schedules(self):
        sync = _grid(algorithms=("iterative",), faults=("churn:0.5",))
        with pytest.raises(ExperimentError, match="cannot carry fault schedule"):
            ExperimentSession(sync).run()
        check = _grid(algorithms=("check-reach",), behaviors=("-",),
                      placements=("-",), faults=("drop:0.2",))
        with pytest.raises(ExperimentError, match="cannot carry fault schedule"):
            ExperimentSession(check).run()

    def test_serial_and_sharded_runs_are_byte_identical(self):
        serial = ExperimentSession(CHURN_QUICK).run()
        sharded = ExperimentSession(CHURN_QUICK, workers=4).run()
        assert serial.cells == sharded.cells
        digests = [
            cell.metrics["faults"]["trace_digest"]
            for cell in serial.cells
            if "faults" in cell.metrics
        ]
        assert digests  # the churn quick grid must exercise active schedules
        assert digests == [
            cell.metrics["faults"]["trace_digest"]
            for cell in sharded.cells
            if "faults" in cell.metrics
        ]

    def test_interrupt_then_resume_matches_the_committed_baseline(self, tmp_path):
        interrupted = ExperimentSession(
            CHURN_QUICK, mode="quick", workers=2, run_dir=tmp_path / "run"
        )
        assert _drop_after(interrupted, 2) == 2
        resumed = ExperimentSession.resume(tmp_path / "run", workers=2)
        resumed.run()
        reference = ExperimentSession(CHURN_QUICK, mode="quick", workers=1)
        reference.run()
        assert dumps_canonical(resumed.artifact_payload()) == dumps_canonical(
            reference.artifact_payload()
        )
        baseline = load_artifact(BASELINE_DIR / "churn.quick.json")
        assert compare(baseline, resumed.artifact_payload()).ok

    def test_committed_fault_scenarios_reproduce(self):
        for name in ("churn", "congestion"):
            grid = get_scenario(name).grid(quick=True)
            result = ExperimentSession(grid).run()
            from repro.runner.artifacts import artifact_payload

            baseline = load_artifact(BASELINE_DIR / f"{name}.quick.json")
            assert compare(baseline, artifact_payload(result, mode="quick")).ok, name

    def test_degradation_renders_in_the_report_table(self):
        run = ExperimentSession(_grid(faults=("none", "churn:0.9,10.0"), seeds=(1, 2))).run()
        text = render_sweep_groups("degradation", run.groups)
        assert "faults" in text and "churn:0.9,10.0" in text
        plain = render_sweep_groups("plain", ExperimentSession(_grid()).run().groups)
        assert "faults" not in plain
        assert "faults" not in SWEEP_HEADERS  # base headers stay fault-free


# ----------------------------------------------------------------------
# fabric transient-I/O hardening
# ----------------------------------------------------------------------
class TestTransientRetry:
    def test_retries_transient_oserror_with_backoff(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        assert retry_transient_io(flaky, "test op", sleep=sleeps.append) == "ok"
        assert len(attempts) == 3
        assert sleeps == [0.05, 0.1]  # capped exponential backoff

    def test_file_not_found_is_never_retried(self):
        attempts = []

        def fenced():
            attempts.append(1)
            raise FileNotFoundError("lease gone")

        with pytest.raises(FileNotFoundError):
            retry_transient_io(fenced, "test op", sleep=lambda _: None)
        assert len(attempts) == 1  # fencing signal surfaces immediately

    def test_exhausted_retries_reraise_the_original_error(self):
        def always_fails():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            retry_transient_io(always_fails, "test op", sleep=lambda _: None)

    def test_shard_writer_survives_transient_write_failures(self, tmp_path, monkeypatch):
        writer = ShardWriter(tmp_path, "w1", "hash123")
        real_write = os.write
        failures = {"left": 2}

        def flaky_write(fd, data):
            if fd == writer._fd and failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("disk hiccup")
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", flaky_write)
        monkeypatch.setattr("repro.runner.fabric.time.sleep", lambda _: None)
        writer._write({"record": "probe", "value": 1})
        writer.close()
        monkeypatch.undo()
        lines = (tmp_path / "shards" / "w1.jsonl").read_text().splitlines()
        assert len(lines) == 2  # header + exactly one probe record, no torn lines
        assert json.loads(lines[1]) == {"record": "probe", "value": 1}

    def test_shard_writer_resumes_partial_writes_without_duplication(
        self, tmp_path, monkeypatch
    ):
        writer = ShardWriter(tmp_path, "w2", "hash123")
        real_write = os.write
        state = {"split": True}

        def partial_write(fd, data):
            if fd == writer._fd and state["split"] and len(data) > 4:
                state["split"] = False
                return real_write(fd, data[: len(data) // 2])  # short write
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", partial_write)
        writer._write({"record": "probe", "value": 2})
        writer.close()
        monkeypatch.undo()
        lines = (tmp_path / "shards" / "w2.jsonl").read_text().splitlines()
        assert json.loads(lines[1]) == {"record": "probe", "value": 2}
