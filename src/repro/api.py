"""repro.api — the curated, versioned public surface of the library.

Everything a downstream user (or plugin package) should need is re-exported
here; internals are free to move as long as this module keeps working.
:data:`API_VERSION` is bumped when anything in ``__all__`` changes
incompatibly.  **Version 3** leaves one way to run a grid:
:class:`ExperimentSession`, over a pluggable cell source (the serial/pool
:class:`SweepEngine` or the fabric's :class:`FabricCoordinator`).  The v1
blocking path (``run_grid``, ``SweepEngine.run``, ``sweep_behaviors``) and
the v2 ``run_session`` wrapper are gone — migration table in
``EXPERIMENTS.md``.

The surface is layered:

**Registries** (:class:`Registry` and the seven instances) — register custom
topology families, Byzantine behaviours, fault placements, algorithms,
delay models and session stop policies by name; grids and scenario TOML
files then reference them like the built-ins::

    from repro.api import BEHAVIORS, TOPOLOGIES

    @TOPOLOGIES.register("double-star")
    def double_star(n: int) -> DiGraph: ...

    BEHAVIORS.register("stutter", lambda copies=2: ReplayBehavior(int(copies)),
                       metadata={"params": ("copies",), "min_params": 0})

**Sessions** (the run surface) — :class:`ExperimentSession` wraps a
:class:`GridSpec` (plus an optional run directory) and streams typed events
(:class:`RunStarted`, :class:`CellCompleted`, :class:`GroupUpdated`,
:class:`CheckpointWritten`, :class:`RunFinished`) as cells finish, serially,
sharded or on the fabric with byte-identical artifacts every way.  With a
run directory every completed cell is fsynced to a JSONL journal
(:class:`Journal` / :func:`load_journal`), ``ExperimentSession.resume``
continues interrupted runs, and :class:`StopPolicy` plugins
(:data:`STOP_POLICIES`) seal runs early::

    session = ExperimentSession(spec, workers=4, run_dir="runs/table2.full")
    for event in session.events():
        ...
    session.write_artifact("table2.full.json")

**Sweeps** — :class:`GridSpec` (declarative grids over algorithm × topology
× f × behaviour × placement × seed), :class:`SweepEngine` (the default cell
source sessions drain: ``stream(spec, cells)`` yields results in index
order), and :class:`Scenario` with the TOML loaders from
:mod:`repro.runner.scenario_files`.

**Single executions** — :class:`ConsensusConfig`, :func:`run_bw_experiment`
and the baseline drivers, plus :func:`quick_consensus` for one-liners.

**Artifacts** — :func:`write_artifact` / :func:`load_artifact` /
:func:`compare` for the canonical JSON documents CI gates on; journaled
sessions *derive* the same bytes from their journal.

**The results store** (cross-run history) — :class:`ResultsStore` ingests
journals, artifacts and ``BENCH_*.json`` records idempotently (keyed by
spec hash × scenario × git commit × mode) into one sqlite database and
serves typed queries: :meth:`~ResultsStore.trend` (per-commit
:class:`TrendPoint` series, run- or group-level),
:meth:`~ResultsStore.group_variance` (per-cell :class:`GroupVariance`, the
seed-budgeting signal), :meth:`~ResultsStore.bench_trend`
(:class:`BenchPoint` perf trajectories).  ``python -m repro.runner serve``
exposes the same queries over HTTP plus SSE live streams
(:func:`make_server` / :class:`ServeConfig`); schema in
``docs/store-schema.md``::

    with ResultsStore("benchmarks/results/store.sqlite") as store:
        store.bootstrap(".")
        for point in store.trend("figure1b", "success_rate"):
            print(point.git_commit[:12], point.value)

**The phase-transition explorer** (:mod:`repro.phase`) — :func:`run_phase`
sweeps one random-family knob (``p``, ``beta``, ``m``) into a
schema-versioned PhaseCurve artifact (``docs/phase-curves.md``), and
:func:`refine_phase` adaptively bisects the knob axis / boosts seed counts
where the store's pooled variance marks the transition band
(:data:`PHASE_BAND_VARIANCE`), under a fixed cell budget::

    refinement = refine_phase(get_scenario("phase_density"), quick=True,
                              budget_cells=96, resolution=0.05)
    write_phase_curve("phase_density.curve.json", refinement.curve)

**The sweep fabric** (distributed execution over a shared directory) —
:class:`FabricCoordinator` is the session's other cell source: it
publishes cell-range leases over a run directory and merges per-worker
shards with epoch fencing into the cells the session journals;
:class:`FabricWorker` is the lease-claiming executor (the ``fabric worker``
CLI wraps it, and third-party workers can implement the documented wire
format in ``docs/fabric-protocol.md`` instead).  :func:`fabric_status`
snapshots a live run::

    fabric = FabricCoordinator(run_dir="/nfs/sweeps/table2.full",
                               config=FabricConfig(workers=0))
    ExperimentSession(spec, source=fabric).run()  # workers join from any host
"""

from __future__ import annotations

from repro.algorithms.base import ConsensusConfig
from repro.exceptions import (
    JournalError,
    PhaseError,
    ReproError,
    ScenarioFileError,
    StoreError,
    UnknownPluginError,
)
from repro.graphs.digraph import DiGraph
from repro.registry import (
    ALGORITHMS,
    ALL_REGISTRIES,
    BEHAVIORS,
    DELAYS,
    FAULTS,
    PLACEMENTS,
    STOP_POLICIES,
    TOPOLOGIES,
    Registry,
    RegistryEntry,
    parse_plugin_spec,
)
from repro.runner.algorithms import AlgorithmSpec
from repro.runner.artifacts import (
    ComparisonReport,
    artifact_payload,
    compare,
    compare_files,
    load_artifact,
    write_artifact,
)
from repro.runner.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricError,
    FabricReport,
    FabricWorker,
    fabric_status,
)
from repro.runner.experiment import (
    quick_consensus,
    run_bw_experiment,
    run_clique_experiment,
    run_crash_experiment,
    run_iterative_experiment,
    run_local_average_experiment,
)
from repro.runner.harness import (
    NOT_APPLICABLE,
    CellResult,
    GridSpec,
    GroupAggregate,
    StopSweep,
    SweepCell,
    SweepEngine,
    SweepRunResult,
    TopologySpec,
)
from repro.runner.journal import (
    Journal,
    JournalWriter,
    journal_from_artifact,
    journal_path,
    load_journal,
    tail_records,
)
from repro.runner.leases import Lease, LeaseError, read_lease, replay_fence_log
from repro.runner.reporting import SessionProgress, render_fabric_status
from repro.runner.scenario_files import (
    Scenario,
    dump_scenario_toml,
    load_scenario_file,
    load_scenario_text,
)
from repro.runner.scenarios import SCENARIOS, get_scenario, run_cell, scenario_names
from repro.runner.session import (
    CellCompleted,
    CheckpointWritten,
    ExperimentSession,
    GroupUpdated,
    RunFinished,
    RunStarted,
    SessionEvent,
    StopPolicy,
    make_stop_policy,
)
from repro.phase.curve import (
    PHASE_BAND_VARIANCE,
    PHASE_CURVE_KIND,
    PHASE_SCHEMA_VERSION,
    PhasePoint,
    curve_from_result,
    load_phase_curve,
    phase_knob,
    render_curve,
    validate_phase_curve,
    validate_phase_spec,
    write_phase_curve,
)
from repro.phase.explorer import PhaseRefinement, PhaseRun, refine_phase, run_phase
from repro.store.serve import ServeConfig, make_server, serve_forever
from repro.store.store import BenchPoint, GroupVariance, IngestReport, ResultsStore, TrendPoint

#: Version of this public surface (its single home).  2 = streaming
#: execution sessions; 3 = the session is the only run owner (cell sources,
#: v1 blocking path and ``run_session`` removed).
API_VERSION = 3


__all__ = [
    # versioning
    "API_VERSION",
    # registries
    "ALGORITHMS",
    "ALL_REGISTRIES",
    "BEHAVIORS",
    "DELAYS",
    "FAULTS",
    "PLACEMENTS",
    "STOP_POLICIES",
    "TOPOLOGIES",
    "Registry",
    "RegistryEntry",
    "AlgorithmSpec",
    "parse_plugin_spec",
    # errors
    "JournalError",
    "PhaseError",
    "ReproError",
    "ScenarioFileError",
    "StoreError",
    "UnknownPluginError",
    # graphs + sweeps
    "DiGraph",
    "NOT_APPLICABLE",
    "CellResult",
    "GridSpec",
    "GroupAggregate",
    "StopSweep",
    "SweepCell",
    "SweepEngine",
    "SweepRunResult",
    "TopologySpec",
    "run_cell",
    # sessions
    "CellCompleted",
    "CheckpointWritten",
    "ExperimentSession",
    "GroupUpdated",
    "RunFinished",
    "RunStarted",
    "SessionEvent",
    "SessionProgress",
    "StopPolicy",
    "make_stop_policy",
    # journals
    "Journal",
    "JournalWriter",
    "journal_from_artifact",
    "journal_path",
    "load_journal",
    "tail_records",
    # the sweep fabric (wire format in docs/fabric-protocol.md)
    "FabricConfig",
    "FabricCoordinator",
    "FabricError",
    "FabricReport",
    "FabricWorker",
    "Lease",
    "LeaseError",
    "fabric_status",
    "read_lease",
    "render_fabric_status",
    "replay_fence_log",
    # the phase-transition explorer (schema in docs/phase-curves.md)
    "PHASE_BAND_VARIANCE",
    "PHASE_CURVE_KIND",
    "PHASE_SCHEMA_VERSION",
    "PhasePoint",
    "PhaseRefinement",
    "PhaseRun",
    "curve_from_result",
    "load_phase_curve",
    "phase_knob",
    "refine_phase",
    "render_curve",
    "run_phase",
    "validate_phase_curve",
    "validate_phase_spec",
    "write_phase_curve",
    # the results store + serving layer (schema in docs/store-schema.md)
    "BenchPoint",
    "GroupVariance",
    "IngestReport",
    "ResultsStore",
    "ServeConfig",
    "TrendPoint",
    "make_server",
    "serve_forever",
    # scenarios
    "SCENARIOS",
    "Scenario",
    "dump_scenario_toml",
    "get_scenario",
    "load_scenario_file",
    "load_scenario_text",
    "scenario_names",
    # single executions
    "ConsensusConfig",
    "quick_consensus",
    "run_bw_experiment",
    "run_clique_experiment",
    "run_crash_experiment",
    "run_iterative_experiment",
    "run_local_average_experiment",
    # artifacts
    "ComparisonReport",
    "artifact_payload",
    "compare",
    "compare_files",
    "load_artifact",
    "write_artifact",
]
