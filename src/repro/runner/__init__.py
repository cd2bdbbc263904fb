"""Experiment runner: drivers, sweep orchestration, artifacts and reporting.

The runner is layered like a small pipeline::

    GridSpec ──expand──> SweepCell* ──run_cell──> CellResult* ──fold──> GroupAggregate*
        │                                                                   │
        └── scenarios.py (named grids)              artifacts.py (JSON) <───┘

**Grid-spec format.**  A :class:`~repro.runner.harness.GridSpec` declares a
sweep as the cross product of six axes plus shared execution parameters:

``name``
    Scenario name; together with each cell's index it derives the cell's RNG
    seed (:func:`~repro.runner.harness.derive_cell_seed`), making results
    independent of execution order, sharding and worker count.
``algorithms``
    Names resolved through the :data:`~repro.registry.ALGORITHMS` registry
    (each an :class:`~repro.runner.algorithms.AlgorithmSpec`): consensus
    drivers (``"bw"``, ``"clique"``, ``"crash"``, ``"iterative"``,
    ``"local-average"``) or condition checks (``"check-reach"``,
    ``"check-table1"``, ``"check-table2"``, ``"check-necessity"``) — plus
    anything registered by user code.
``topologies``
    :class:`~repro.runner.harness.TopologySpec` entries — a
    :data:`~repro.registry.TOPOLOGIES` family name plus construction
    parameters, e.g.  ``TopologySpec.make("clique", n=4)`` or
    ``TopologySpec.make("two-cliques", clique_size=5, forward_bridges=2,
    backward_bridges=2)``.  Workers rebuild graphs locally from the spec.
``f_values`` / ``behaviors`` / ``placements`` / ``seeds``
    Fault bounds, Byzantine behaviour specs resolved through
    :data:`~repro.registry.BEHAVIORS` — a registered name, optionally
    parametrized ``name:arg,...`` (``"offset:2.5"``) — fault-placement
    strategies from :data:`~repro.registry.PLACEMENTS` (``"random"``,
    ``"max-out-degree"``, ``"max-in-degree"``, ``"bridges"``, ``"last"``,
    ``"none"``) and the user-facing seed axis.  Every referenced name is
    validated at ``expand()`` time — before any worker pool forks — and an
    unknown name raises :class:`~repro.exceptions.UnknownPluginError`
    listing the registered alternatives (``python -m repro.runner list
    --plugins`` shows them too).

Grids also live declaratively on disk: the nine built-in scenarios are
committed as TOML files under ``src/repro/runner/scenarios/`` (format in
:mod:`repro.runner.scenario_files`) and user scenario files run via
``python -m repro.runner run --scenario-file path.toml``.  The curated,
versioned import surface for all of this is :mod:`repro.api`.

**Sessions, journals, resume.**  The one run surface is the streaming
:class:`~repro.runner.session.ExperimentSession`: ``session.events()``
yields typed events (``RunStarted`` / ``CellCompleted`` / ``GroupUpdated``
/ ``CheckpointWritten`` / ``RunFinished``) as cells finish,
``session.iter_results()`` is the cell-level view and ``session.run()`` the
blocking form.  The session owns the run — journal, events, stop
policies, seal, artifact — and drains a *cell source* for the results:
:class:`~repro.runner.harness.SweepEngine` (serial or a pool, the default)
or the fabric's :class:`~repro.runner.fabric.FabricCoordinator`; every
source yields the same cells in index order, so the event stream is
identical.  With a run directory, completed cells are appended (flushed
per record, fsynced at checkpoints) to the schema-versioned JSONL journal
in :mod:`repro.runner.journal`; ``ExperimentSession.resume(run_dir)``
verifies the journal's spec hash, skips completed cell indexes and
continues, producing an artifact byte-identical to the uninterrupted run.
``StopPolicy`` plugins (:data:`~repro.registry.STOP_POLICIES`:
``max-cells`` / ``max-wall-time`` / ``group-converged``) watch the event
stream and seal a run early.

**The sweep fabric (multi-host).**  ``run --fabric N`` runs a session
whose cell source is the coordinator/worker lease protocol in
:mod:`repro.runner.fabric`: N worker processes lease contiguous cell
ranges (atomic-rename lease files, mtime heartbeats, epoch fencing),
append results to per-worker shards, and the coordinator merges the
shards in strict index order into the cells the session journals — so
``fold()`` of a fabric journal is byte-identical to the serial run.  The
protocol is pure shared-directory filesystem state, so extra machines
join the same run with ``fabric worker --run-dir /nfs/dir`` (``--fabric
0`` starts a coordinator with no local pool); ``fabric status --run-dir``
inspects a live run.  The wire format is specified in
``docs/fabric-protocol.md``.

**The results store + serving layer.**  :mod:`repro.store` folds every
sweep output — journals, schema-v1 artifacts, ``BENCH_*.json`` perf
records — into one sqlite database, idempotently keyed by spec hash ×
scenario × git commit × mode, and answers cross-run queries: per-commit
metric trends (run- or group-level), per-cell variance by group, bench
trajectories.  The CLI wraps it as ``store init [--bootstrap]`` /
``ingest PATH...`` / ``query``, and ``serve`` exposes the same queries
over stdlib HTTP plus an SSE endpoint (``/v1/live/<run>/events``) that
streams a run's journal live — header as ``RunStarted``, cells as
``CellCompleted`` in strict index order, the seal as ``RunFinished`` —
using the same incremental tail reader as the fabric.  Schema:
``docs/store-schema.md``.

**Run-directory layout.**  A journaled (``--journal``) run directory
contains just ``journal.jsonl``.  A fabric run directory adds, next to
the same canonical journal:

- ``fabric.json`` — the run manifest (spec hash, lease TTL, cadences);
  its mtime is the coordinator's liveness heartbeat
- ``leases/`` — ``<start>-<end>.lease`` (available) /
  ``<start>-<end>.owned.<worker-id>`` (claimed) work ranges, plus the
  append-only ``fence.log`` of epoch bumps
- ``shards/<worker-id>.jsonl`` — each worker's append-only result shard
- ``workers/<worker-id>.json`` — observability-only worker status
- ``stop.json`` — the stop sentinel the coordinator writes on
  completion, policy stop or interruption; workers exit when they see it

**CLI exit codes** (``python -m repro.runner``, implemented in
:mod:`repro.runner.cli`):

====  ==============================================================
code  meaning
====  ==============================================================
0     success — including ``run`` sealed early by a ``--stop-policy``
      (the CLI names the policy that sealed the run)
1     ``compare`` found drift against the baseline artifact
2     usage / configuration error (any :class:`~repro.exceptions.ReproError`)
3     a ``--journal`` run was interrupted (e.g. SIGINT); completed cells
      are durable and the printed ``run --resume RUN_DIR`` continues it
      (for fabric runs: ``run --resume RUN_DIR --fabric N``)
4     a ``fabric worker`` aborted because the coordinator's manifest
      heartbeat went stale for ``orphan_grace`` seconds; its shard is
      intact and the worker may simply be restarted
====  ==============================================================
``epsilon`` / ``input_low`` / ``input_high`` / ``inputs`` / ``path_policy`` / ``rounds``
    Shared execution parameters: the agreement parameter, the known input
    range, the input generator (``"spread"`` or ``"random"``), the BW
    flooding policy and the round budget for synchronous baselines.

Run a grid with :class:`~repro.runner.session.ExperimentSession`
(``workers > 1`` shards cells across a ``multiprocessing`` pool in chunked
batches), write the result with ``session.write_artifact``, and gate a
regenerated artifact against a committed baseline with
:func:`~repro.runner.artifacts.compare`.  The ``python -m repro.runner``
CLI (:mod:`repro.runner.cli`) wraps exactly that pipeline, and its
``profile`` subcommand cProfiles one scenario with a per-phase breakdown.

**Chunking heuristic.**  Sharded runs split the cell list into pool tasks of
``chunk_size`` cells; the CLI exposes it as ``run --chunk-size N``.  The
default is ``ceil(cells / (workers * 4))`` — about four batches per worker,
which amortizes IPC per task while leaving enough batches for the pool to
rebalance when cell durations are skewed.  Cells are dispatched grouped by
``(topology, f, algorithm)`` so a chunk rarely spans topologies, letting the
per-worker topology cache (:func:`~repro.runner.scenarios.cached_graph` /
:func:`~repro.runner.scenarios.cached_topology_knowledge`, pre-warmed in the
parent before forking) build each topology's precomputation at most once per
worker.  Pass an explicit ``--chunk-size`` when cells are extremely uneven
(smaller chunks rebalance better) or extremely cheap (larger chunks cut IPC).
Results are re-folded in cell-index order, so chunking never changes the
artifact.
"""

from repro.runner.artifacts import (
    ComparisonReport,
    artifact_payload,
    compare,
    compare_files,
    load_artifact,
    write_artifact,
)
from repro.runner.experiment import (
    DEFAULT_MAX_EVENTS,
    run_bw_experiment,
    run_clique_experiment,
    run_crash_experiment,
    run_iterative_experiment,
    run_local_average_experiment,
)
from repro.runner.fabric import (
    FabricConfig,
    FabricCoordinator,
    FabricReport,
    FabricWorker,
    fabric_status,
)
from repro.runner.harness import (
    CellResult,
    GridSpec,
    GroupAggregate,
    StopSweep,
    SweepCell,
    SweepEngine,
    SweepRunResult,
    TopologySpec,
    aggregate_cells,
    derive_cell_seed,
    random_inputs,
    spread_inputs,
)
from repro.runner.journal import (
    Journal,
    JournalWriter,
    journal_from_artifact,
    journal_path,
    load_journal,
    tail_records,
)
from repro.runner.leases import Lease, read_lease, replay_fence_log
from repro.runner.metrics import (
    ConsensusOutcome,
    aggregate_success_rate,
    geometric_bound_satisfied,
    per_round_ranges,
    rounds_until,
)
from repro.runner.reporting import (
    SessionProgress,
    banner,
    format_check,
    format_table,
    print_table,
    render_fabric_status,
    render_sweep_groups,
    sweep_group_rows,
)
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
from repro.runner.scenario_files import (
    Scenario,
    dump_scenario_toml,
    load_scenario_file,
    load_scenario_text,
)
from repro.runner.scenarios import SCENARIOS, get_scenario, run_cell, scenario_names
from repro.runner.worker_cache import (
    cache_snapshot,
    cached_graph,
    cached_topology_knowledge,
    clear_worker_caches,
    warm_worker_caches,
    worker_cache_stats,
)

__all__ = [
    "dump_scenario_toml",
    "load_scenario_file",
    "load_scenario_text",
    "cache_snapshot",
    "cached_graph",
    "cached_topology_knowledge",
    "clear_worker_caches",
    "warm_worker_caches",
    "worker_cache_stats",
    "FabricConfig",
    "FabricCoordinator",
    "FabricReport",
    "FabricWorker",
    "Lease",
    "fabric_status",
    "read_lease",
    "render_fabric_status",
    "replay_fence_log",
    "tail_records",
    "DEFAULT_MAX_EVENTS",
    "run_bw_experiment",
    "run_clique_experiment",
    "run_crash_experiment",
    "run_iterative_experiment",
    "run_local_average_experiment",
    "CellCompleted",
    "CellResult",
    "CheckpointWritten",
    "ExperimentSession",
    "GridSpec",
    "GroupAggregate",
    "GroupUpdated",
    "Journal",
    "JournalWriter",
    "RunFinished",
    "RunStarted",
    "SessionEvent",
    "SessionProgress",
    "StopPolicy",
    "StopSweep",
    "SweepCell",
    "SweepEngine",
    "SweepRunResult",
    "TopologySpec",
    "aggregate_cells",
    "journal_from_artifact",
    "journal_path",
    "load_journal",
    "make_stop_policy",
    "derive_cell_seed",
    "random_inputs",
    "spread_inputs",
    "ComparisonReport",
    "artifact_payload",
    "compare",
    "compare_files",
    "load_artifact",
    "write_artifact",
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "run_cell",
    "scenario_names",
    "ConsensusOutcome",
    "aggregate_success_rate",
    "geometric_bound_satisfied",
    "per_round_ranges",
    "rounds_until",
    "banner",
    "format_check",
    "format_table",
    "print_table",
    "render_sweep_groups",
    "sweep_group_rows",
]
