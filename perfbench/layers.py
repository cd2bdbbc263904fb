"""Where the tracer hooks into ``repro``: one span per layer entry point.

Layer names are the ``repro`` module names.  :func:`install` patches every
entry point below on a :class:`~tracer.Tracer`; :func:`layer_metrics` turns
the tracer's totals into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import inspect
from typing import Dict, Mapping

from tracer import Tracer

#: The BitsetBackend contract; each backend instance is traced separately.
BACKEND_METHODS = (
    "closure",
    "closure_many",
    "scc_masks",
    "source_component",
    "has_f_cover",
    "any_f_cover",
    "find_disjoint_pair",
)

#: Span names whose self times partition the traced wall (with ``other``).
SPANS = (
    "session.self_s",
    "harness.expand_s",
    "harness.stream_wait_s",
    "scenarios.cell_s",
    "worker_cache.warm_s",
    "graphs.build_s",
    "topology.precompute_s",
    "topology.query_s",
    "bitset.python_s",
    "bitset.numpy_s",
    "conditions.reach_s",
    "bw.on_message_s",
    "bw.completeness_s",
    "bw.filter_average_s",
    "messageset.self_s",
    "simulator.loop_s",
    "faults.build_s",
    "journal.create_s",
    "journal.append_s",
    "journal.seal_s",
    "artifacts.payload_s",
)


def install(tracer: Tracer) -> None:
    """Patch every layer entry point of the imported ``repro`` package."""
    from repro.algorithms import bw, messagesets, topology
    from repro.graphs import bitset_backends
    from repro.network import faults, simulator
    from repro.runner import harness, journal, session

    t = tracer

    def span(name, on_result=None):
        return lambda fn: t.span(fn, name, on_result)

    def function(module, attr, name, on_result=None):
        t.patch_function(module, attr, span(name, on_result))

    t.patch_method(session.ExperimentSession, "events", lambda fn: t.span_iter(fn, "session.self_s"))
    t.patch_method(harness.GridSpec, "expand", span("harness.expand_s"))
    t.patch_method(harness.SweepEngine, "stream", lambda fn: t.span_iter(fn, "harness.stream_wait_s"))
    # run_cell is the pool workers' entry point: each one reports its totals
    # after every cell.  The wrapper keeps run_cell's module and qualified
    # name, so the pool still pickles it by reference.
    function("repro.runner.scenarios", "run_cell", "scenarios.cell_s", t.dump_if_worker)

    function("repro.runner.worker_cache", "warm_worker_caches", "worker_cache.warm_s")
    # Lookups made inside worker_cache itself (the warm-up, and the graph a
    # knowledge miss needs) are not cell lookups, so they are not counted.
    for attr, kind, miss in (
        ("cached_graph", "worker_cache.graph", "graphs.builds"),
        ("cached_topology_knowledge", "worker_cache.knowledge", "topology.constructions"),
    ):
        t.patch_function(
            "repro.runner.worker_cache",
            attr,
            lambda fn, kind=kind, miss=miss: t.lookup(fn, kind, miss),
            skip=("repro.runner.worker_cache",),
        )

    t.patch_method(harness.TopologySpec, "build", span("graphs.build_s", t.counter("graphs.builds")))
    knowledge = topology.TopologyKnowledge
    t.patch_method(
        knowledge, "__init__", span("topology.precompute_s", t.counter("topology.constructions"))
    )
    for attr in ("required_index", "required_paths", "simple_paths_within_reach"):
        t.patch_method(knowledge, attr, span("topology.precompute_s"))
    for attr in ("reach_mask", "reach", "source_component"):
        t.patch_method(knowledge, attr, span("topology.query_s"))

    for backend in (bitset_backends.PYTHON_BACKEND, bitset_backends.NUMPY_BACKEND):
        if backend is None:
            continue
        for attr in BACKEND_METHODS:
            t.patch(
                backend,
                attr,
                t.span(getattr(backend, attr), f"bitset.{backend.name}_s", t.counter("bitset.calls")),
            )

    for attr in ("check_one_reach", "check_two_reach", "check_three_reach"):
        function("repro.conditions.reach_conditions", attr, "conditions.reach_s")

    t.patch_method(bw.BWProcess, "on_message", span("bw.on_message_s"))
    function("repro.algorithms.completeness", "completeness", "bw.completeness_s")
    function("repro.algorithms.filter_average", "filter_and_average", "bw.filter_average_s")

    added = t.counts

    def accepted(result: bool) -> None:
        added["messageset.adds"] += 1
        added["messageset.accepted"] += result

    message_set = messagesets.MessageSet
    for attr, value in list(vars(message_set).items()):
        if inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
            hook = accepted if attr in ("add", "add_encoded") else None
            t.patch_method(message_set, attr, span("messageset.self_s", hook))

    def simulation_counts(stats) -> None:
        added["simulator.delivered"] += stats.delivered_messages
        added["simulator.sent"] += stats.sent_messages
        added["simulator.timer_events"] += stats.timer_events
        added["simulator.fault_control_events"] += stats.fault_control_events

    t.patch_method(simulator.Simulator, "run", span("simulator.loop_s", simulation_counts))
    policies = [faults.FaultPolicy]
    while policies:
        policy = policies.pop()
        policies.extend(policy.__subclasses__())
        if "build" in vars(policy):
            t.patch_method(policy, "build", span("faults.build_s"))

    writer = journal.JournalWriter
    t.patch_method(writer, "create", span("journal.create_s"))
    t.patch_method(writer, "append_cell", span("journal.append_s"))
    t.patch_method(writer, "checkpoint", span("journal.append_s"))
    t.patch_method(writer, "seal", span("journal.seal_s"))
    function("repro.runner.artifacts", "artifact_payload", "artifacts.payload_s")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    self_s: Mapping[str, float], counts: Mapping[str, float], wall_s: float, traced_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced session.

    ``wall_s`` is the traced window of the session process and
    ``traced_s`` the part of it the top-level spans cover; on a pooled
    session ``self_s`` and ``counts`` also hold the workers' totals.
    """
    metrics = {name: self_s.get(name, 0.0) for name in SPANS}
    metrics["other.self_s"] = wall_s - traced_s
    metrics["other.share"] = _ratio(wall_s - traced_s, wall_s)
    metrics["trace.wall_s"] = wall_s
    for kind in ("worker_cache.graph", "worker_cache.knowledge"):
        metrics[kind + "_hit_ratio"] = _ratio(counts.get(kind + ".hits", 0), counts.get(kind + ".lookups", 0))
    metrics["bitset.calls"] = counts.get("bitset.calls", 0)
    metrics["messageset.accept_ratio"] = _ratio(
        counts.get("messageset.accepted", 0), counts.get("messageset.adds", 0)
    )
    for name in ("delivered", "sent", "timer_events", "fault_control_events"):
        metrics["simulator." + name] = counts.get("simulator." + name, 0)
    metrics["journal.bytes"] = counts.get("journal.bytes", 0)
    return metrics
