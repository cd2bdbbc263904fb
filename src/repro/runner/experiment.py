"""Experiment drivers: one call = one consensus execution = one outcome.

The drivers wire together graph, inputs, protocol, adversary and network
model, run the simulation to quiescence and convert the result into a
:class:`~repro.runner.metrics.ConsensusOutcome`.  Every benchmark and example
goes through these functions, so cost accounting (messages, rounds, time) is
uniform across algorithms.
"""

from __future__ import annotations

import gc
from typing import Hashable, Iterable, Mapping, Optional

from repro.adversary.adversary import FaultPlan, no_faults
from repro.adversary.behaviors import FixedValueBehavior
from repro.algorithms.base import ConsensusConfig
from repro.algorithms.baselines.abraham import create_clique_processes
from repro.algorithms.baselines.crash_async import create_crash_processes
from repro.algorithms.baselines.iterative import run_iterative_consensus
from repro.algorithms.baselines.local_average import run_local_average
from repro.algorithms.baselines.synchronous import SyncByzantineValue, SynchronousTrace
from repro.algorithms.bw import create_bw_processes
from repro.algorithms.topology import TopologyKnowledge
from repro.exceptions import ExperimentError
from repro.graphs.digraph import DiGraph
from repro.network.delays import DelayModel, UniformDelay
from repro.network.faults import FaultSchedule
from repro.network.simulator import Simulator
from repro.runner.metrics import ConsensusOutcome, per_round_ranges

NodeId = Hashable

#: Safety valve: the faithful algorithm floods exponentially many paths, so a
#: runaway configuration is cut off rather than hanging an experiment.
DEFAULT_MAX_EVENTS = 5_000_000


def _validate_inputs(graph: DiGraph, inputs: Mapping[NodeId, float]) -> None:
    missing = set(graph.nodes) - set(inputs)
    if missing:
        raise ExperimentError(f"missing inputs for nodes {sorted(map(repr, missing))}")


def _outcome_from_processes(
    algorithm: str,
    graph: DiGraph,
    config: ConsensusConfig,
    fault_plan: FaultPlan,
    inputs: Mapping[NodeId, float],
    processes: Mapping[NodeId, object],
    simulator: Simulator,
    behavior_name: str,
    seed: Optional[int],
) -> ConsensusOutcome:
    honest_nodes = fault_plan.nonfaulty(graph.nodes)
    honest = {node: processes[node] for node in honest_nodes}
    outputs = {node: proc.output for node, proc in honest.items() if proc.decided}
    histories = {
        node: getattr(proc, "value_history", [inputs[node]]) for node, proc in honest.items()
    }
    rounds = max((getattr(proc, "rounds_completed", 0) for proc in honest.values()), default=0)
    fault_summary = None
    schedule = simulator.faults
    if schedule is not None and schedule.active:
        stats = simulator.stats
        trace = schedule.trace()
        fault_summary = {
            "policy": schedule.policy,
            "trace_digest": schedule.trace_digest(trace),
            "control_events": len(trace),
            "dropped": stats.dropped_messages,
            "duplicated": stats.duplicated_messages,
            "deferred": stats.deferred_messages,
            "suppressed": stats.suppressed_messages,
            "retransmissions": stats.retransmissions,
        }
    return ConsensusOutcome(
        algorithm=algorithm,
        graph_name=graph.name or "<unnamed>",
        f=config.f,
        epsilon=config.epsilon,
        faulty_nodes=fault_plan.faulty_nodes,
        honest_inputs={node: float(inputs[node]) for node in honest_nodes},
        outputs=outputs,
        all_decided=len(outputs) == len(honest),
        rounds=rounds,
        messages_sent=simulator.stats.sent_messages,
        messages_delivered=simulator.stats.delivered_messages,
        simulated_time=simulator.stats.final_time,
        per_round_ranges=per_round_ranges(histories),
        behavior=behavior_name or fault_plan.describe(),
        seed=seed,
        fault_summary=fault_summary,
    )


def _simulate(
    algorithm: str,
    graph: DiGraph,
    config: ConsensusConfig,
    plan: FaultPlan,
    inputs: Mapping[NodeId, float],
    processes: Mapping[NodeId, object],
    delay_model: Optional[DelayModel],
    seed: Optional[int],
    max_events: int,
    behavior_name: str,
    faults: Optional[FaultSchedule],
) -> ConsensusOutcome:
    """Run ``processes`` (faulty ones wrapped by ``plan``) until every honest
    one decided, then unbind them so the run is freed without the cyclic
    garbage collector.

    The collector is paused for the whole run and turned back on (if it
    was on) after the unbind, even when a process raises.  A run allocates
    many short-lived containers, and the older-generation passes they
    trigger would walk every live container, the worker caches'
    topologies included.  The
    pause is safe because the unbind leaves no cycle behind:
    ``tests/test_runner.py::TestDrivers::test_finished_runs_leave_no_cyclic_garbage``
    checks that for every algorithm and behaviour, under churn and under a
    load-probing delay model.  The first young-generation pass after the
    run then sees only what the run kept.
    """
    collecting = gc.isenabled()
    gc.disable()
    simulator = None
    try:
        simulator = Simulator(
            graph, delay_model or UniformDelay(0.5, 2.0), seed=seed, faults=faults
        )
        simulator.add_processes(plan.apply(processes).values())
        simulator.run(max_events=max_events, until_decided=plan.nonfaulty(graph.nodes))
        return _outcome_from_processes(
            algorithm, graph, config, plan, inputs, processes, simulator, behavior_name, seed
        )
    finally:
        if simulator is not None:
            simulator.unbind_processes()
        if collecting:
            gc.enable()


def run_bw_experiment(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    fault_plan: Optional[FaultPlan] = None,
    delay_model: Optional[DelayModel] = None,
    seed: Optional[int] = None,
    topology: Optional[TopologyKnowledge] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    behavior_name: str = "",
    faults: Optional[FaultSchedule] = None,
) -> ConsensusOutcome:
    """Run the Byzantine-Witness algorithm once and report its outcome."""
    _validate_inputs(graph, inputs)
    plan = fault_plan or no_faults()
    plan.validate(graph.nodes, config.f)
    shared = topology or TopologyKnowledge(graph, config.f, config.path_policy)
    processes = create_bw_processes(graph, inputs, config, topology=shared)
    return _simulate(
        "byzantine-witness", graph, config, plan, inputs, processes,
        delay_model, seed, max_events, behavior_name, faults,
    )


def quick_consensus(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    f: int,
    epsilon: float,
    faulty_nodes: Optional[Iterable[NodeId]] = None,
    byzantine_value: float = 1e6,
    seed: int = 0,
    path_policy: str = "redundant",
) -> ConsensusOutcome:
    """One-call convenience wrapper: run the Byzantine-Witness algorithm once.

    The faulty nodes (if any) lie with a fixed extreme value — the classical
    attack against averaging.  For full control over behaviours, delays and
    placement use :func:`run_bw_experiment` directly.
    """
    config = ConsensusConfig(
        f=f,
        epsilon=epsilon,
        input_low=min(inputs.values()),
        input_high=max(inputs.values()),
        path_policy=path_policy,
    )
    plan = (
        FaultPlan(frozenset(faulty_nodes), lambda node: FixedValueBehavior(byzantine_value))
        if faulty_nodes
        else no_faults()
    )
    return run_bw_experiment(graph, inputs, config, fault_plan=plan, seed=seed)


def run_clique_experiment(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    fault_plan: Optional[FaultPlan] = None,
    delay_model: Optional[DelayModel] = None,
    seed: Optional[int] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    behavior_name: str = "",
    faults: Optional[FaultSchedule] = None,
) -> ConsensusOutcome:
    """Run the complete-graph (Abraham-style) baseline once."""
    _validate_inputs(graph, inputs)
    plan = fault_plan or no_faults()
    plan.validate(graph.nodes, config.f)
    processes = create_clique_processes(graph, dict(inputs), config)
    return _simulate(
        "clique-baseline", graph, config, plan, inputs, processes,
        delay_model, seed, max_events, behavior_name, faults,
    )


def run_crash_experiment(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    fault_plan: Optional[FaultPlan] = None,
    delay_model: Optional[DelayModel] = None,
    seed: Optional[int] = None,
    topology: Optional[TopologyKnowledge] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    behavior_name: str = "",
    faults: Optional[FaultSchedule] = None,
) -> ConsensusOutcome:
    """Run the crash-tolerant (2-reach) baseline once."""
    _validate_inputs(graph, inputs)
    plan = fault_plan or no_faults()
    plan.validate(graph.nodes, config.f)
    processes = create_crash_processes(graph, inputs, config, topology=topology)
    return _simulate(
        "crash-tolerant", graph, config, plan, inputs, processes,
        delay_model, seed, max_events, behavior_name, faults,
    )


def _outcome_from_trace(
    algorithm: str,
    graph: DiGraph,
    config: ConsensusConfig,
    inputs: Mapping[NodeId, float],
    trace: SynchronousTrace,
    behavior_name: str,
    messages_per_round: int,
) -> ConsensusOutcome:
    honest_nodes = frozenset(graph.nodes) - trace.faulty_nodes
    ranges = [trace.nonfaulty_range(r) for r in range(len(trace.states))]
    return ConsensusOutcome(
        algorithm=algorithm,
        graph_name=graph.name or "<unnamed>",
        f=config.f,
        epsilon=config.epsilon,
        faulty_nodes=trace.faulty_nodes,
        honest_inputs={node: float(inputs[node]) for node in honest_nodes},
        outputs=trace.final_outputs(),
        all_decided=True,
        rounds=trace.rounds,
        messages_sent=messages_per_round * trace.rounds,
        messages_delivered=messages_per_round * trace.rounds,
        per_round_ranges=ranges,
        behavior=behavior_name,
    )


def run_iterative_experiment(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    rounds: int,
    faulty_nodes=(),
    byzantine_value: Optional[SyncByzantineValue] = None,
    behavior_name: str = "",
) -> ConsensusOutcome:
    """Run the synchronous iterative trimmed-mean baseline."""
    _validate_inputs(graph, inputs)
    trace = run_iterative_consensus(
        graph, inputs, config.f, rounds, faulty_nodes=faulty_nodes, byzantine_value=byzantine_value
    )
    return _outcome_from_trace(
        "iterative-trimmed-mean", graph, config, inputs, trace, behavior_name, graph.num_edges
    )


def run_local_average_experiment(
    graph: DiGraph,
    inputs: Mapping[NodeId, float],
    config: ConsensusConfig,
    rounds: int,
    faulty_nodes=(),
    byzantine_value: Optional[SyncByzantineValue] = None,
    behavior_name: str = "",
) -> ConsensusOutcome:
    """Run the unprotected local-averaging control."""
    _validate_inputs(graph, inputs)
    trace = run_local_average(
        graph, inputs, rounds, faulty_nodes=faulty_nodes, byzantine_value=byzantine_value
    )
    return _outcome_from_trace(
        "local-average", graph, config, inputs, trace, behavior_name, graph.num_edges
    )
