"""Tests of the benchmark's own tracer and layer hooks."""

from __future__ import annotations

import functools
import pathlib
import pickle
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer, read_worker_dumps  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_spans_subtract_child_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 3.0

    traced_inner = tracer.span(inner, "inner")
    tracer.span(outer, "outer")()
    clock.now += 100.0  # outside every span
    assert tracer.self_s["inner"] == 4.0
    assert tracer.self_s["outer"] == 4.0
    assert tracer.top_level_s == 8.0


def test_iterator_spans_exclude_the_consumer_and_cover_close():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    closed = []

    def produce():
        try:
            for item in range(3):
                clock.now += 1.0
                yield item
        finally:
            clock.now += 5.0
            closed.append(True)

    traced = tracer.span_iter(produce, "producer")
    for item in traced():
        clock.now += 10.0
        if item == 1:
            break
    assert closed == [True]
    assert tracer.self_s["producer"] == 2.0 + 5.0
    assert tracer.top_level_s == 7.0


def test_span_reports_results_and_survives_exceptions():
    tracer = Tracer()
    seen = []

    def fail():
        raise ValueError("boom")

    traced = tracer.span(lambda value: value * 2, "double", on_result=seen.append)
    assert traced(21) == 42 and seen == [42]
    failing = tracer.span(fail, "fail")
    try:
        failing()
    except ValueError:
        pass
    assert tracer._stack == [tracer.top_level_s]


def _snapshot():
    """Every attribute of every repro module, class and bitset backend."""
    from repro.graphs import bitset_backends

    owners = [bitset_backends.PYTHON_BACKEND, bitset_backends.NUMPY_BACKEND]
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        owners.append(module)
        owners.extend(
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("repro")
        )
    return {id(owner): (owner, dict(vars(owner))) for owner in owners if owner is not None}


def _same(before, after):
    return before.keys() == after.keys() and all(before[key] is after[key] for key in before)


def test_install_patches_every_layer_and_restore_puts_originals_back():
    import repro.runner.scenarios as scenarios
    from repro.algorithms import bw
    from repro.network.simulator import Simulator

    originals = (scenarios.run_cell, bw.completeness, vars(Simulator)["run"])
    before = _snapshot()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert scenarios.run_cell is not originals[0]
        assert bw.completeness is not originals[1]
        assert vars(Simulator)["run"] is not originals[2]
    finally:
        tracer.restore()
    after = _snapshot()
    changed = [
        owner for key, (owner, attrs) in before.items() if not _same(attrs, after[key][1])
    ]
    assert changed == []
    assert (scenarios.run_cell, bw.completeness, vars(Simulator)["run"]) == originals


def test_patched_run_cell_pickles_and_traces_pool_workers(tmp_path):
    import repro.runner.scenarios as scenarios
    from repro.runner.harness import GridSpec, SweepEngine, TopologySpec

    spec = GridSpec(
        name="tracer-pool",
        algorithms=("bw",),
        topologies=(TopologySpec.make("figure-1a"),),
        behaviors=("crash",),
        seeds=(1, 2, 3, 4),
        faults=("none", "churn:0.3,4.0"),
    )
    serial = [cell.as_dict() for cell in SweepEngine().stream(spec)]
    tracer = Tracer(dump_dir=str(tmp_path))
    layers.install(tracer)
    try:
        pickle.loads(pickle.dumps(functools.partial(scenarios.run_cell, spec)))
        pooled = [cell.as_dict() for cell in SweepEngine(workers=2, chunk_size=2).stream(spec)]
    finally:
        tracer.restore()
    assert pooled == serial
    worker_self, worker_counts = read_worker_dumps(str(tmp_path))
    assert worker_self["scenarios.cell_s"] > 0
    assert worker_counts["simulator.fault_control_events"] > 0
    assert tracer.self_s["harness.stream_wait_s"] > 0
    assert "scenarios.cell_s" not in tracer.self_s  # cells ran in the workers only
