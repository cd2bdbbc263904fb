"""``python -m repro.runner`` — the sweep orchestration command line.

Ten subcommands drive the whole experiment surface:

``list``
    Show every registered scenario with its grid sizes, paper artefact and
    grid-axis detail (topology families × behaviours × f values, derived
    from the plugin registries).  ``--plugins`` lists every registered
    extension instead: topology families, behaviours (with parameter
    schemas), placements, algorithms, delay models and stop policies.
``run``
    Expand a scenario's grid — a registered name (``--scenario``) or a
    declarative TOML file (``--scenario-file``) — and drive it through an
    :class:`~repro.runner.session.ExperimentSession` (optionally sharded
    across worker processes), printing the aggregate table and writing the
    canonical JSON artifact.  ``--journal`` makes the run durable (every
    completed cell appended to ``<run dir>/journal.jsonl``), ``--resume
    RUN_DIR`` continues an interrupted journaled run, ``--stop-policy
    NAME:ARGS`` seals a run early, and ``--progress`` renders a live
    progress line from the event stream.  ``--quick`` selects the CI-sized
    grid; ``--plugins MODULE`` imports a module first so it can register
    custom extensions (topologies, behaviours, stop policies, ...).
``phase``
    The phase-transition explorer (:mod:`repro.phase`): ``phase run``
    sweeps one random-family knob and writes the sweep artifact plus its
    PhaseCurve; ``phase refine`` adds the adaptive loop — store-pooled
    variance steers knob-axis bisection and seed boosting into the
    transition band under a fixed budget; ``phase show`` renders a curve
    (or derives one from a phase-shaped sweep artifact).  Document layout:
    ``docs/phase-curves.md``.
``compare``
    Diff a freshly generated artifact against a stored baseline and exit
    nonzero on drift — the regression gate CI builds on.
``profile``
    cProfile one scenario run with a per-phase wall-clock breakdown
    (expansion / topology precomputation / cell execution) — the entry
    point for hot-path investigations.
``fabric``
    The multi-host sweep fabric's worker-side entry points:
    ``fabric worker --run-dir DIR`` joins a coordinated run as a leasing
    worker (the same protocol ``run --fabric N`` uses for its local pool,
    so pointing several machines at one NFS run dir just works) and
    ``fabric status --run-dir DIR`` prints a read-only snapshot of the
    leases, shards and workers (``--store PATH`` also records the snapshot
    into the results store).  Wire format: ``docs/fabric-protocol.md``.
``store``
    Manage the cross-run results store (:mod:`repro.store`):
    ``store init`` creates/migrates the sqlite database and ``store init
    --bootstrap`` also ingests the committed corpus (every
    ``benchmarks/baselines`` artifact, plus any local ``BENCH_*.json``
    probe records under the uncommitted ``benchmarks/results/``).
    Schema: ``docs/store-schema.md``.
``ingest``
    Idempotently ingest journals, schema-v1 artifacts, ``BENCH_*.json``
    files — or directories of them — into the results store.
``query``
    Query the store headlessly: per-commit metric trends
    (``--scenario/--metric`` plus group-axis filters), per-cell variance by
    group (``--variance``), bench trajectories (``--bench/--metric``) and
    ingest summaries (``--list``).
``serve``
    Serve the store over HTTP (stdlib only): JSON query endpoints plus an
    SSE endpoint streaming live progress of journaled/fabric runs under
    ``--runs-dir`` (``/v1/live/<run>/events``).

Exit codes (documented in :mod:`repro.runner`): 0 success — including runs
sealed early by a stop policy; 1 ``compare`` drift; 2 usage/configuration
errors; 3 a journaled run was interrupted and is resumable; 4 a fabric
worker aborted because the coordinator's heartbeat went stale.

Examples
--------
::

    python -m repro.runner list --plugins
    python -m repro.runner run --scenario figure1b --workers 4 --quick
    python -m repro.runner run --scenario table2 --journal --progress
    python -m repro.runner run --resume benchmarks/results/runs/table2.full
    python -m repro.runner run --scenario necessity --stop-policy max-cells:100
    python -m repro.runner run --scenario figure1b --fabric 3 --progress
    python -m repro.runner fabric worker --run-dir /nfs/sweeps/figure1b.full
    python -m repro.runner fabric status --run-dir /nfs/sweeps/figure1b.full
    python -m repro.runner phase run --scenario phase_density --quick --workers 4
    python -m repro.runner phase refine --scenario phase_density --quick \\
        --budget 96 --resolution 0.05
    python -m repro.runner phase show benchmarks/results/phase_density.quick.curve.json
    python -m repro.runner compare benchmarks/baselines/figure1b.quick.json \\
        benchmarks/results/figure1b.quick.json
    python -m repro.runner profile --scenario definition1 --quick --top 15
    python -m repro.runner store init --bootstrap
    python -m repro.runner ingest benchmarks/results/runs/table2.full
    python -m repro.runner query --scenario figure1b --metric success_rate
    python -m repro.runner query --scenario table1 --variance --mode full
    python -m repro.runner query --bench store --metric ingest.runs_per_second
    python -m repro.runner serve --port 8742
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import importlib
import io
import json
import os
import pathlib
import pstats
import sys
import time
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import PhaseError, ReproError
from repro.graphs.bitset_backends import ENV_VAR, backend_policy, get_backend
from repro.phase.curve import (
    curve_from_artifact,
    load_phase_curve,
    render_curve,
    write_phase_curve,
)
from repro.registry import ALL_REGISTRIES
from repro.runner.artifacts import compare_files, load_artifact, write_payload
from repro.runner.fabric import (
    EXIT_ORPHANED,
    FabricConfig,
    FabricCoordinator,
    FabricWorker,
    fabric_status,
)
from repro.runner.harness import NOT_APPLICABLE, GridSpec
from repro.runner.reporting import SessionProgress, format_table, render_fabric_status
from repro.runner.scenario_files import Scenario, load_scenario_file
from repro.runner.scenarios import (
    SCENARIOS,
    clear_worker_caches,
    get_scenario,
    warm_worker_caches,
)
from repro.runner.worker_cache import bitset_cache_stats, worker_cache_stats
from repro.runner.session import (
    CellCompleted,
    ExperimentSession,
    RunFinished,
    RunStarted,
)
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import DEFAULT_STORE_PATH, GROUP_AXES, ResultsStore

#: Default artifact directory (relative to the invocation directory).
DEFAULT_OUTPUT_DIR = pathlib.Path("benchmarks") / "results"

#: Default parent of journaled run directories (``<name>.<mode>`` inside).
DEFAULT_RUNS_DIR = DEFAULT_OUTPUT_DIR / "runs"

# Process exit codes (also documented in repro/runner/__init__.py).
EXIT_OK = 0  # success, including runs sealed early by a stop policy
EXIT_DRIFT = 1  # `compare` found drift against the baseline
EXIT_ERROR = 2  # usage or configuration error (ReproError)
EXIT_INTERRUPTED = 3  # journaled run interrupted; resumable via run --resume
EXIT_FABRIC_ORPHANED = EXIT_ORPHANED  # 4: fabric worker lost its coordinator


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Sharded sweep orchestration over the paper's experiment grids.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered scenarios (or, with --plugins, every extension)"
    )
    list_parser.add_argument(
        "--plugins",
        action="store_true",
        help="list every registered extension (topologies, behaviours, placements, "
        "algorithms, delay models) instead of scenarios",
    )

    run_parser = commands.add_parser("run", help="run a scenario and write its JSON artifact")
    run_parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="registered scenario to run (repeatable; see 'list')",
    )
    run_parser.add_argument(
        "--scenario-file",
        action="append",
        default=None,
        type=pathlib.Path,
        metavar="PATH",
        help="declarative scenario TOML file to run (repeatable)",
    )
    run_parser.add_argument(
        "--plugins",
        action="append",
        default=None,
        metavar="MODULE",
        help="import MODULE before running so it can register custom extensions "
        "(repeatable; the module must be on PYTHONPATH)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sharded execution (default: 1, serial)",
    )
    run_parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="cells per pool task (default: balanced automatically)",
    )
    run_parser.add_argument(
        "--quick",
        action="store_true",
        help="run the reduced CI grid instead of the full grid",
    )
    run_parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="artifact path (single scenario) or directory (default: benchmarks/results/)",
    )
    run_parser.add_argument(
        "--no-table", action="store_true", help="suppress the aggregate table on stdout"
    )
    run_parser.add_argument(
        "--journal",
        action="store_true",
        help="journal every completed cell to <run dir>/journal.jsonl (crash-safe; "
        "interrupted runs resume with --resume and exit with code 3)",
    )
    run_parser.add_argument(
        "--run-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="run directory for --journal (default: benchmarks/results/runs/<name>.<mode>; "
        "with several scenarios, a <name>.<mode> subdirectory per scenario)",
    )
    run_parser.add_argument(
        "--resume",
        type=pathlib.Path,
        default=None,
        metavar="RUN_DIR",
        help="resume an interrupted journaled run from its run directory "
        "(the grid, mode and provenance come from the journal header)",
    )
    run_parser.add_argument(
        "--stop-policy",
        action="append",
        default=None,
        metavar="NAME:ARGS",
        help="seal the run early via a registered stop policy, e.g. max-cells:100, "
        "max-wall-time:3600, group-converged:3 (repeatable; see 'list --plugins')",
    )
    run_parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live one-line progress view from the session event stream",
    )
    run_parser.add_argument(
        "--bitset-backend",
        default=None,
        metavar="NAME",
        help="bitset computation backend: a registered name (see 'list --plugins') "
        "or 'auto' (default: auto — numpy on large graphs when installed); "
        "exported as REPRO_BITSET_BACKEND so sweep workers inherit it",
    )
    run_parser.add_argument(
        "--fabric",
        type=int,
        default=None,
        metavar="N",
        help="run through the multi-host sweep fabric with N leased pool workers "
        "(0 = coordinator only; external workers join with 'fabric worker "
        "--run-dir'); always journaled, resumable with 'run --resume DIR "
        "--fabric N' — see docs/fabric-protocol.md",
    )
    run_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fabric lease expiry: a worker that misses heartbeats this long is "
        "fenced and its unfinished range re-leased (default: 30; workers beat "
        "while a cell runs, so a cell may take longer)",
    )
    run_parser.add_argument(
        "--worker-throttle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="artificial per-cell delay in fabric workers (straggler/crash-window "
        "simulation for fault-injection tests; default: 0)",
    )

    phase_parser = commands.add_parser(
        "phase",
        help="phase-transition explorer: sweep a family knob, refine the "
        "transition band, render curves (docs/phase-curves.md)",
    )
    phase_commands = phase_parser.add_subparsers(dest="phase_command", required=True)
    phase_run = phase_commands.add_parser(
        "run", help="run one phase scenario; write its sweep artifact and PhaseCurve"
    )
    phase_refine = phase_commands.add_parser(
        "refine",
        help="run + adaptively refine: bisect the knob axis and concentrate "
        "seeds in the transition band under a fixed extra-cell budget",
    )
    for sub in (phase_run, phase_refine):
        sub.add_argument(
            "--scenario",
            default=None,
            metavar="NAME",
            help="registered phase scenario to explore (see 'list')",
        )
        sub.add_argument(
            "--scenario-file",
            type=pathlib.Path,
            default=None,
            metavar="PATH",
            help="declarative scenario TOML file to explore instead",
        )
        sub.add_argument(
            "--plugins",
            action="append",
            default=None,
            metavar="MODULE",
            help="import MODULE first so it can register custom topologies "
            "(repeatable)",
        )
        sub.add_argument(
            "--quick", action="store_true", help="explore the reduced CI grid"
        )
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker processes per sweep (default: 1, serial)",
        )
        sub.add_argument(
            "--output",
            type=pathlib.Path,
            default=None,
            metavar="PATH",
            help="PhaseCurve path (*.json) or directory "
            "(default: benchmarks/results/<name>.<mode>.curve.json)",
        )
        sub.add_argument(
            "--progress",
            action="store_true",
            help="render a live one-line progress view per sweep",
        )
        sub.add_argument(
            "--no-curve", action="store_true", help="suppress the curve rendering on stdout"
        )
    phase_run.add_argument(
        "--journal",
        action="store_true",
        help="journal the sweep (resumable via 'run --resume <run dir>'; derive "
        "the curve from the finished artifact with 'phase show')",
    )
    phase_run.add_argument(
        "--run-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="run directory for --journal (default: benchmarks/results/runs/"
        "<name>.<mode>)",
    )
    phase_refine.add_argument(
        "--budget",
        type=int,
        required=True,
        metavar="CELLS",
        help="cap on cells spent beyond the base sweep",
    )
    phase_refine.add_argument(
        "--resolution",
        type=float,
        required=True,
        metavar="STEP",
        help="target knob-axis resolution inside the transition band",
    )
    phase_refine.add_argument(
        "--variance-floor",
        type=float,
        default=None,
        metavar="VAR",
        help="Bernoulli variance p(1-p) marking the transition band "
        "(default: 0.09, i.e. 0.1 < p < 0.9)",
    )
    phase_refine.add_argument(
        "--seed-boost",
        type=int,
        default=None,
        metavar="K",
        help="target per-point seed depth in the band, as a multiple of the "
        "base seed count (default: 4)",
    )
    phase_refine.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        metavar="N",
        help="refinement round cap (default: 8)",
    )
    phase_refine.add_argument(
        "--run-root",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="journal the base sweep to <DIR>/base and round r to <DIR>/round-r "
        "(each resumable; default: in-memory)",
    )
    phase_refine.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="pool variance through this results store and ingest the refined "
        "curve into it (default: a private throwaway store)",
    )
    phase_show = phase_commands.add_parser(
        "show", help="render a PhaseCurve (or derive one from a sweep artifact)"
    )
    phase_show.add_argument(
        "path",
        type=pathlib.Path,
        help="a PhaseCurve document or a phase-shaped sweep artifact",
    )

    fabric_parser = commands.add_parser(
        "fabric", help="multi-host sweep fabric: join as a worker, or inspect a run"
    )
    fabric_commands = fabric_parser.add_subparsers(dest="fabric_command", required=True)
    worker_parser = fabric_commands.add_parser(
        "worker",
        help="join a fabric run directory as a leasing worker (multi-host: any "
        "machine sharing the directory, e.g. over NFS)",
    )
    worker_parser.add_argument(
        "--run-dir",
        type=pathlib.Path,
        required=True,
        metavar="DIR",
        help="the fabric run directory published by 'run --fabric'",
    )
    worker_parser.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="filename-safe worker identity; also names the result shard "
        "shards/<ID>.jsonl (default: w<pid>)",
    )
    worker_parser.add_argument(
        "--throttle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the manifest's per-cell throttle for this worker",
    )
    worker_parser.add_argument(
        "--plugins",
        action="append",
        default=None,
        metavar="MODULE",
        help="import MODULE before joining (in addition to the plugin modules "
        "recorded in the fabric manifest)",
    )
    worker_parser.add_argument(
        "--bitset-backend",
        default=None,
        metavar="NAME",
        help="bitset computation backend for this worker (a registered name or "
        "'auto'; exported as REPRO_BITSET_BACKEND)",
    )
    status_parser = fabric_commands.add_parser(
        "status", help="print a read-only snapshot of a fabric run directory"
    )
    status_parser.add_argument(
        "--run-dir",
        type=pathlib.Path,
        required=True,
        metavar="DIR",
        help="the fabric run directory to inspect",
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the raw snapshot as JSON instead of the human-readable view",
    )
    status_parser.add_argument(
        "--store",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also record this snapshot into the results store at PATH, so the "
        "live run appears in 'serve' (/v1/snapshots) without extra plumbing",
    )

    compare_parser = commands.add_parser(
        "compare", help="diff an artifact against a baseline; exit 1 on drift"
    )
    compare_parser.add_argument("baseline", type=pathlib.Path, help="baseline artifact (JSON)")
    compare_parser.add_argument("current", type=pathlib.Path, help="current artifact (JSON)")
    compare_parser.add_argument(
        "--tol-success",
        type=float,
        default=0.0,
        metavar="X",
        help="tolerated absolute success-rate drift per group (default: 0)",
    )
    compare_parser.add_argument(
        "--tol-rounds",
        type=float,
        default=0.0,
        metavar="X",
        help="tolerated absolute mean-round drift per group (default: 0)",
    )

    profile_parser = commands.add_parser(
        "profile", help="cProfile a scenario run with per-phase timings"
    )
    profile_parser.add_argument(
        "--scenario", required=True, metavar="NAME", help="scenario to profile (see 'list')"
    )
    profile_parser.add_argument(
        "--quick", action="store_true", help="profile the reduced CI grid"
    )
    profile_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1; >1 mostly profiles pool waits)",
    )
    profile_parser.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="number of profile rows to print (default: 20)",
    )
    profile_parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="pstats sort order (default: cumulative)",
    )
    profile_parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="also dump the raw pstats file here (for snakeviz etc.)",
    )
    profile_parser.add_argument(
        "--bitset-backend",
        default=None,
        metavar="NAME",
        help="bitset computation backend to profile under (a registered name "
        "or 'auto'; exported as REPRO_BITSET_BACKEND)",
    )

    def store_option(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--store",
            type=pathlib.Path,
            default=DEFAULT_STORE_PATH,
            metavar="PATH",
            help=f"results store database (default: {DEFAULT_STORE_PATH})",
        )

    store_parser = commands.add_parser(
        "store", help="manage the cross-run results store (docs/store-schema.md)"
    )
    store_commands = store_parser.add_subparsers(dest="store_command", required=True)
    init_parser = store_commands.add_parser(
        "init", help="create the results store (migrating an existing one forward)"
    )
    store_option(init_parser)
    init_parser.add_argument(
        "--bootstrap",
        action="store_true",
        help="also ingest the committed corpus: benchmarks/baselines/*.json, plus "
        "any local benchmarks/results/BENCH_*.json probe records (idempotent)",
    )
    init_parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path("."),
        metavar="DIR",
        help="repository root the --bootstrap corpus is resolved against "
        "(default: the current directory)",
    )

    ingest_parser = commands.add_parser(
        "ingest",
        help="ingest journals, sweep artifacts and BENCH_*.json files into the "
        "results store (idempotent)",
    )
    ingest_parser.add_argument(
        "sources",
        nargs="+",
        type=pathlib.Path,
        metavar="PATH",
        help="journal .jsonl / run directory / artifact .json / BENCH_*.json file, "
        "or a directory tree of them",
    )
    store_option(ingest_parser)
    ingest_parser.add_argument(
        "--json", action="store_true", help="emit the ingest reports as JSON"
    )

    query_parser = commands.add_parser(
        "query", help="query the results store: trends, variance, bench trajectories"
    )
    store_option(query_parser)
    query_parser.add_argument(
        "--scenario", default=None, metavar="NAME", help="scenario to query"
    )
    query_parser.add_argument(
        "--metric",
        default=None,
        metavar="NAME",
        help="metric to trend: success_rate (default), mean_rounds or cells at run "
        "level; with group-axis filters also mean_messages/runs; for --bench, a "
        "dotted metric path",
    )
    query_parser.add_argument(
        "--mode", choices=("quick", "full"), default=None, help="restrict to one mode"
    )
    for axis in GROUP_AXES:
        query_parser.add_argument(
            f"--{axis}",
            default=None,
            metavar="VALUE",
            help=f"group-axis filter: {axis} (switches the trend to group level)",
        )
    query_parser.add_argument(
        "--variance",
        action="store_true",
        help="per-cell variance by group, pooled across runs (highest "
        "rounds-variance first)",
    )
    query_parser.add_argument(
        "--bench",
        default=None,
        metavar="NAME",
        help="bench family to query; with --metric, its trajectory across ingests, "
        "without, the recorded metric names",
    )
    query_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_store",
        help="summarize everything ingested (scenarios and bench families)",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit the query result as JSON"
    )

    serve_parser = commands.add_parser(
        "serve",
        help="serve the results store and live runs over HTTP (JSON + SSE; stdlib only)",
    )
    store_option(serve_parser)
    serve_parser.add_argument(
        "--runs-dir",
        type=pathlib.Path,
        default=DEFAULT_RUNS_DIR,
        metavar="DIR",
        help="directory of journaled run dirs to stream at /v1/live "
        f"(default: {DEFAULT_RUNS_DIR})",
    )
    serve_parser.add_argument(
        "--host", default=None, metavar="ADDR", help="bind address (default: loopback)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="N", help="bind port (default: 8742)"
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    return parser


def _apply_bitset_backend(name: Optional[str]) -> None:
    """Export ``--bitset-backend`` as ``REPRO_BITSET_BACKEND``.

    The flag goes through the environment rather than a parameter so
    forked/spawned sweep workers inherit the choice for free.  The name is
    resolved once up front: unknown names fail fast with the registry's
    did-you-mean error, and naming ``numpy`` without numpy installed raises
    before any cells run.
    """
    if name is None:
        return

    os.environ[ENV_VAR] = name.strip().lower() or "auto"
    get_backend(0)


def _axes_detail(spec: GridSpec) -> str:
    """One-line grid-axis summary (topology families × behaviours × f).

    Derived from the spec through the registries (the families are counted
    as registered names), not hand-maintained per scenario.
    """
    families = Counter(topology.family for topology in spec.topologies)
    family_text = ",".join(
        f"{name}x{count}" if count > 1 else name for name, count in families.items()
    )
    behaviors = [behavior for behavior in spec.behaviors if behavior != NOT_APPLICABLE]
    behavior_text = ",".join(behaviors) if behaviors else "(no adversary)"
    f_text = ",".join(str(f) for f in spec.f_values)
    return f"{family_text} | f={f_text} | {behavior_text}"


def _cmd_list_plugins() -> int:
    """The ``list --plugins`` listing: every registered extension point."""
    for registry_name, registry in ALL_REGISTRIES.items():
        rows = []
        for entry in registry.entries():
            params = entry.metadata.get("params", ())
            kind = entry.metadata.get("kind", "") or getattr(entry.obj, "kind", "")
            spec_text = entry.name + (f":{','.join(params)}" if params else "")
            rows.append([spec_text, kind, entry.summary])
        print(format_table([f"{registry_name} ({len(rows)})", "kind", "summary"], rows))
        print()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    if args.plugins:
        return _cmd_list_plugins()
    rows = []
    for scenario in SCENARIOS.values():
        rows.append(
            [
                scenario.name,
                ",".join(scenario.spec.algorithms),
                scenario.spec.num_cells,
                scenario.quick.num_cells,
                _axes_detail(scenario.spec),
                scenario.description,
            ]
        )
    print(
        format_table(
            ["scenario", "algorithms", "cells", "quick", "grid axes", "description"], rows
        )
    )
    return 0


def _artifact_path(
    output: Optional[pathlib.Path], count: int, name: str, mode: str
) -> pathlib.Path:
    filename = f"{name}.{mode}.json"
    if output is None:
        return DEFAULT_OUTPUT_DIR / filename
    if count == 1 and output.suffix == ".json":
        return output
    return output / filename


def _selected_scenarios(args: argparse.Namespace) -> List[Scenario]:
    """Resolve ``--scenario`` names and ``--scenario-file`` paths, in order."""
    scenarios: List[Scenario] = []
    for entry in args.scenario or ():
        for name in entry.split(","):
            if name:
                scenarios.append(get_scenario(name))
    for path in args.scenario_file or ():
        scenarios.append(load_scenario_file(path))
    if not scenarios:
        raise ReproError("nothing to run: pass --scenario NAME and/or --scenario-file PATH")
    return scenarios


def _run_dir_for(args: argparse.Namespace, count: int, name: str, mode: str) -> pathlib.Path:
    if args.run_dir is not None:
        if count == 1:
            return args.run_dir
        return args.run_dir / f"{name}.{mode}"
    return DEFAULT_RUNS_DIR / f"{name}.{mode}"


def _drive_session(
    args: argparse.Namespace,
    session: ExperimentSession,
    path: pathlib.Path,
) -> int:
    """Consume one session's event stream: progress, artifact, summary."""
    progress = SessionProgress()
    fabric = session.source if isinstance(session.source, FabricCoordinator) else None
    try:
        for event in session.events():
            progress.observe(event)
            if args.progress and isinstance(event, (RunStarted, CellCompleted, RunFinished)):
                print(f"\r{progress.render_line()}", end="", flush=True)
    except KeyboardInterrupt:
        if args.progress:
            print()
        if session.journaling:
            fabric_flag = f" --fabric {fabric.workers}" if fabric is not None else ""
            print(
                f"interrupted after {progress.completed} cell(s); completed work is "
                f"journaled in {session.run_dir}"
            )
            print(f"resume with: python -m repro.runner run --resume {session.run_dir}{fabric_flag}")
            return EXIT_INTERRUPTED
        raise
    if args.progress:
        print()
    payload = session.write_artifact(path)
    if not args.no_table:
        print(progress.render_summary())
    finished = session.finished
    assert finished is not None  # events() always ends with RunFinished
    if finished.reason != "completed":
        policy = finished.reason.partition(":")[2]
        print(
            f"{finished.scenario}: sealed early by stop policy {policy!r} "
            f"({finished.detail}) — partial artifact covers "
            f"{finished.completed}/{finished.total} cells"
        )
    if fabric is not None:
        report = fabric.report
        notes = [f"merged={report.merged}", f"leases={report.leases_created}"]
        for name, count in (
            ("fenced", report.fenced),
            ("splits", report.splits),
            ("stale-rejected", report.rejected_stale),
            ("duplicates", report.duplicates),
        ):
            if count:
                notes.append(f"{name}={count}")
        where = f"fabric workers={fabric.workers}, {' '.join(notes)}"
    else:
        where = f"workers={session.workers}"
    resumed = f", {progress.replayed} replayed from journal" if progress.replayed else ""
    wall = finished.wall_seconds
    rate = finished.completed / wall if wall else float("inf")
    journal_note = f" (journal: {session.journal_path})" if session.journaling else ""
    print(
        f"{finished.scenario}: {payload['totals']['cells']} cells in "
        f"{wall:.2f}s ({rate:.1f} cells/s, {where}{resumed}) -> {path}{journal_note}"
    )
    return EXIT_OK


def _fabric_source(args: argparse.Namespace, run_dir: pathlib.Path) -> FabricCoordinator:
    config = FabricConfig(workers=args.fabric, plugins=tuple(args.plugins or ()))
    if args.lease_ttl is not None:
        config = dataclasses.replace(config, lease_ttl=args.lease_ttl)
    if args.worker_throttle is not None:
        config = dataclasses.replace(config, worker_throttle=args.worker_throttle)
    return FabricCoordinator(run_dir=run_dir, config=config)


def _cmd_run(args: argparse.Namespace) -> int:
    for module in args.plugins or ():
        try:
            importlib.import_module(module)
        except ImportError as error:
            raise ReproError(f"cannot import plugin module {module!r}: {error}") from None
    # After plugin imports so a plugin-registered backend is a valid name.
    _apply_bitset_backend(args.bitset_backend)
    if args.fabric is None and (args.lease_ttl is not None or args.worker_throttle is not None):
        raise ReproError("--lease-ttl/--worker-throttle only apply with --fabric N")
    # The session rejects --workers/--chunk-size next to a --fabric source.
    options = dict(
        workers=args.workers,
        chunk_size=args.chunk_size,
        stop_policies=tuple(args.stop_policy or ()),
    )
    if args.resume is not None:
        if args.scenario or args.scenario_file or args.journal or args.run_dir:
            raise ReproError(
                "--resume reads the grid from the journal header; drop "
                "--scenario/--scenario-file/--journal/--run-dir"
            )
        if args.fabric is not None:
            options["source"] = _fabric_source(args, args.resume)
        session = ExperimentSession.resume(args.resume, **options)
        path = _artifact_path(args.output, 1, session.spec.name, session.mode)
        return _drive_session(args, session, path)
    mode = "quick" if args.quick else "full"
    scenarios = _selected_scenarios(args)
    if args.fabric is not None and len(scenarios) > 1:
        raise ReproError(
            "--fabric drives one scenario per run directory; pass a single "
            "--scenario/--scenario-file"
        )
    planned: List[Tuple[ExperimentSession, pathlib.Path]] = []
    for scenario in scenarios:
        run_dir = None
        if args.journal or args.fabric is not None:
            run_dir = _run_dir_for(args, len(scenarios), scenario.name, mode)
        if args.fabric is not None:
            options["source"] = _fabric_source(args, run_dir)
        session = ExperimentSession(
            scenario.grid(quick=args.quick), mode=mode, run_dir=run_dir, **options
        )
        planned.append((session, _artifact_path(args.output, len(scenarios), scenario.name, mode)))
    for session, path in planned:
        code = _drive_session(args, session, path)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _phase_scenario(args: argparse.Namespace) -> Scenario:
    if (args.scenario is None) == (args.scenario_file is None):
        raise ReproError(
            "pass exactly one of --scenario NAME or --scenario-file PATH"
        )
    if args.scenario is not None:
        return get_scenario(args.scenario)
    return load_scenario_file(args.scenario_file)


def _curve_path(output: Optional[pathlib.Path], name: str, mode: str) -> pathlib.Path:
    filename = f"{name}.{mode}.curve.json"
    if output is None:
        return DEFAULT_OUTPUT_DIR / filename
    if output.suffix == ".json":
        return output
    return output / filename


def _phase_observer(args: argparse.Namespace, progress: SessionProgress):
    def observe(event) -> None:
        progress.observe(event)
        if args.progress and isinstance(event, (RunStarted, CellCompleted, RunFinished)):
            print(f"\r{progress.render_line()}", end="", flush=True)
        if args.progress and isinstance(event, RunFinished):
            print()

    return observe


def _cmd_phase(args: argparse.Namespace) -> int:
    # deferred: only the ``phase`` subcommands load the phase explorer
    from repro.phase.explorer import refine_phase, run_phase

    if args.phase_command == "show":
        try:
            payload = load_phase_curve(args.path)
        except PhaseError:
            payload = curve_from_artifact(load_artifact(args.path))
        print(render_curve(payload))
        return EXIT_OK

    for module in args.plugins or ():
        try:
            importlib.import_module(module)
        except ImportError as error:
            raise ReproError(f"cannot import plugin module {module!r}: {error}") from None
    scenario = _phase_scenario(args)
    mode = "quick" if args.quick else "full"
    curve_path = _curve_path(args.output, scenario.name, mode)
    progress = SessionProgress()
    observer = _phase_observer(args, progress)

    if args.phase_command == "run":
        run_dir = None
        if args.journal or args.run_dir is not None:
            run_dir = _run_dir_for(args, 1, scenario.name, mode)
        sweep_path = curve_path.parent / f"{scenario.name}.{mode}.json"
        try:
            run = run_phase(
                scenario,
                quick=args.quick,
                workers=args.workers,
                run_dir=run_dir,
                observer=observer,
            )
        except KeyboardInterrupt:
            if args.progress:
                print()
            if run_dir is not None:
                print(
                    f"interrupted after {progress.completed} cell(s); resume the sweep "
                    f"with: python -m repro.runner run --resume {run_dir}\n"
                    f"then derive the curve with: python -m repro.runner phase show "
                    f"{sweep_path}"
                )
                return EXIT_INTERRUPTED
            raise
        write_payload(sweep_path, run.sweep)
        write_phase_curve(curve_path, run.curve)
        if not args.no_curve:
            print(render_curve(run.curve))
        print(
            f"{scenario.name}: {run.curve['budget']['spent_cells']} cells -> "
            f"{sweep_path} + {curve_path}"
        )
        return EXIT_OK

    assert args.phase_command == "refine"
    store = None
    if args.store is not None:
        store = ResultsStore(args.store)
    kwargs = {}
    if args.variance_floor is not None:
        kwargs["variance_floor"] = args.variance_floor
    if args.seed_boost is not None:
        kwargs["seed_boost"] = args.seed_boost
    if args.max_rounds is not None:
        kwargs["max_rounds"] = args.max_rounds
    try:
        refinement = refine_phase(
            scenario,
            quick=args.quick,
            budget_cells=args.budget,
            resolution=args.resolution,
            workers=args.workers,
            run_root=args.run_root,
            store=store,
            observer=observer,
            **kwargs,
        )
        if store is not None:
            store.ingest_phase_payload(refinement.curve, source_path=curve_path)
    except KeyboardInterrupt:
        if args.progress:
            print()
        if args.run_root is not None:
            print(
                f"interrupted after {progress.completed} cell(s) of the current "
                f"sweep; its journal under {args.run_root} resumes with "
                "'python -m repro.runner run --resume <run dir>', then re-run "
                "'phase refine' with the same --store to pool the finished work"
            )
            return EXIT_INTERRUPTED
        raise
    finally:
        if store is not None:
            store.close()
    write_phase_curve(curve_path, refinement.curve)
    if not args.no_curve:
        print(render_curve(refinement.curve))
    budget = refinement.curve["budget"]
    rounds = refinement.curve["refinement"]["rounds"]
    concentration = budget["concentration_ratio"]
    concentration_note = (
        f", band concentration {concentration:.2f}x" if concentration is not None else ""
    )
    print(
        f"{scenario.name}: {budget['spent_cells']} cells across {rounds} refinement "
        f"round(s) (uniform-at-resolution: {budget['uniform_cells']}"
        f"{concentration_note}) -> {curve_path}"
    )
    return EXIT_OK


def _cmd_fabric(args: argparse.Namespace) -> int:
    if args.fabric_command == "worker":
        for module in args.plugins or ():
            try:
                importlib.import_module(module)
            except ImportError as error:
                raise ReproError(
                    f"cannot import plugin module {module!r}: {error}"
                ) from None
        _apply_bitset_backend(args.bitset_backend)
        worker_id = args.worker_id if args.worker_id is not None else f"w{os.getpid()}"
        worker = FabricWorker(args.run_dir, worker_id, throttle=args.throttle)
        try:
            return worker.run()
        except KeyboardInterrupt:
            return EXIT_INTERRUPTED
    if args.fabric_command == "status":
        snapshot = fabric_status(args.run_dir)
        if args.store is not None:
            with ResultsStore(args.store) as store:
                snapshot_id = store.record_snapshot(snapshot)
            # stderr so `--json` stdout stays pure JSON for pipelines
            print(
                f"snapshot {snapshot_id} recorded in {args.store}", file=sys.stderr
            )
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(render_fabric_status(snapshot))
        return EXIT_OK
    raise AssertionError(f"unhandled fabric command {args.fabric_command!r}")


def _cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one scenario run, reporting per-phase wall-clock first.

    Phases: grid expansion, topology precomputation (the worker-cache
    warm-up, forced here so it is attributed separately), and cell
    execution.  The cache is cleared first so the run profiles a cold
    start — what a fresh worker pays — rather than whatever this process
    happened to have warm.
    """
    _apply_bitset_backend(args.bitset_backend)
    scenario = get_scenario(args.scenario)
    spec = scenario.grid(quick=args.quick)
    session = ExperimentSession(spec, mode="quick" if args.quick else "full", workers=args.workers)
    clear_worker_caches()

    phases = []
    start = time.perf_counter()
    cells = spec.expand()
    phases.append(("expand", time.perf_counter() - start, f"{len(cells)} cells"))

    start = time.perf_counter()
    warm_worker_caches(spec, cells)
    phases.append(
        ("precompute", time.perf_counter() - start, "graphs + topology knowledge")
    )

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = session.run()
    profiler.disable()
    phases.append(("execute", time.perf_counter() - start, f"workers={args.workers}"))

    total = sum(seconds for _, seconds, _ in phases)
    rows = [
        [name, f"{seconds:.4f}", f"{(seconds / total * 100 if total else 0):.1f}%", note]
        for name, seconds, note in phases
    ]
    caches = worker_cache_stats()
    bitset = bitset_cache_stats()
    rows.append(
        [
            "bitset",
            "-",
            "-",
            f"backend={backend_policy()} indexes={bitset['indexes']} "
            f"reach-memo={bitset['reach_exclusions']} "
            f"source-memo={bitset['source_components']}",
        ]
    )
    rows.append(
        [
            "caches",
            "-",
            "-",
            f"graphs={caches['graphs']} knowledge={caches['knowledge']} "
            f"(this process; workers keep their own)",
        ]
    )
    print(format_table(["phase", "seconds", "share", "detail"], rows))
    rate = len(result.cells) / result.wall_seconds if result.wall_seconds else float("inf")
    print(f"\n{spec.name}: {len(result.cells)} cells, {rate:.1f} cells/s\n")

    stats = pstats.Stats(profiler, stream=sys.stdout)
    if args.output is not None:
        stats.dump_stats(str(args.output))
        print(f"raw profile -> {args.output}")
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(args.sort).print_stats(args.top)
    print(buffer.getvalue())
    return 0


def _format_ts(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(timestamp))


def _short_commit(commit: str) -> str:
    return commit[:12] if commit else "(no commit)"


def _ingest_summary(reports) -> str:
    counts = Counter(report.action for report in reports)
    parts = [
        f"{counts[key]} {key}"
        for key in ("inserted", "replaced", "unchanged", "skipped")
        if counts[key]
    ]
    return ", ".join(parts) if parts else "nothing ingested"


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command != "init":
        raise AssertionError(f"unhandled store command {args.store_command!r}")

    with ResultsStore(args.store) as store:
        print(f"results store {store.path} (schema version {SCHEMA_VERSION})")
        if args.bootstrap:
            reports = store.bootstrap(args.root)
            for report in reports:
                if report.action != "unchanged":
                    print(f"  {report.action} {report.kind}: {report.path}")
            print(f"bootstrap: {_ingest_summary(reports)}")
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    reports = []
    with ResultsStore(args.store) as store:
        for source in args.sources:
            reports.extend(store.ingest(source))
    if args.json:
        print(json.dumps([dataclasses.asdict(report) for report in reports], indent=2))
    else:
        for report in reports:
            detail = f" ({report.detail})" if report.detail else ""
            print(f"{report.action} {report.kind}: {report.path}{detail}")
        print(_ingest_summary(reports))
    return EXIT_OK


def _query_axes(args: argparse.Namespace) -> dict:
    axes = {}
    for axis in GROUP_AXES:
        value = getattr(args, axis)
        if value is None:
            continue
        if axis == "f":
            try:
                value = int(value)
            except ValueError:
                raise ReproError(f"--f must be an integer, got {value!r}") from None
        axes[axis] = value
    return axes


def _cmd_query(args: argparse.Namespace) -> int:
    selected = [
        flag
        for flag, on in (
            ("--scenario", args.scenario is not None),
            ("--bench", args.bench is not None),
            ("--list", args.list_store),
        )
        if on
    ]
    if len(selected) != 1:
        raise ReproError(
            "pass exactly one of --scenario NAME, --bench NAME or --list "
            f"(got {', '.join(selected) if selected else 'none'})"
        )
    axes = _query_axes(args)
    with ResultsStore(args.store, readonly=True) as store:
        if args.list_store:
            payload = {"scenarios": store.scenarios(), "benches": store.bench_names()}
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
                return EXIT_OK
            rows = [
                [s["scenario"], s["modes"], s["runs"], s["cells"], s["commits"],
                 _format_ts(s["last_ingested"])]
                for s in payload["scenarios"]
            ]
            print(format_table(
                ["scenario", "modes", "runs", "cells", "commits", "last ingested"], rows
            ))
            if payload["benches"]:
                print()
                rows = [
                    [b["name"], b["records"], _format_ts(b["last_ingested"])]
                    for b in payload["benches"]
                ]
                print(format_table(["bench", "records", "last ingested"], rows))
            return EXIT_OK
        if args.bench is not None:
            if axes or args.variance:
                raise ReproError("--bench does not take group axes or --variance")
            if args.metric is None:
                metrics = store.bench_metrics(args.bench)
                if args.json:
                    print(json.dumps({"name": args.bench, "metrics": metrics}, indent=2))
                else:
                    for metric in metrics:
                        print(metric)
                return EXIT_OK
            points = store.bench_trend(args.bench, args.metric)
            if args.json:
                print(json.dumps(
                    [dataclasses.asdict(point) for point in points], indent=2
                ))
                return EXIT_OK
            rows = [
                [_short_commit(p.git_commit), f"{p.value:g}", _format_ts(p.ingested_at)]
                for p in points
            ]
            print(format_table(["commit", args.metric, "ingested"], rows))
            return EXIT_OK
        if args.variance:
            groups = store.group_variance(args.scenario, mode=args.mode, **axes)
            if args.json:
                print(json.dumps(
                    [dict(dataclasses.asdict(g), group=g.group) for g in groups],
                    indent=2, sort_keys=True,
                ))
                return EXIT_OK
            rows = [
                [g.group, g.cells, g.runs_pooled, f"{g.success_rate:.4f}",
                 f"{g.success_variance:.4f}", f"{g.mean_rounds:.2f}",
                 f"{g.rounds_variance:.3f}"]
                for g in groups
            ]
            print(format_table(
                ["group", "cells", "runs", "success", "p(1-p)", "rounds", "var(rounds)"],
                rows,
            ))
            return EXIT_OK
        metric = args.metric or "success_rate"
        points = store.trend(args.scenario, metric, mode=args.mode, **axes)
        if args.json:
            print(json.dumps([dataclasses.asdict(point) for point in points], indent=2))
            return EXIT_OK
        headers = ["commit", "mode", metric, "cells", "source", "ingested"]
        rows = []
        for point in points:
            dirty = "+dirty" if point.git_dirty else ""
            row = [
                _short_commit(point.git_commit) + dirty,
                point.mode,
                f"{point.value:g}",
                point.cells,
                point.source_kind + ("" if point.sealed else " (unsealed)"),
                _format_ts(point.ingested_at),
            ]
            if point.group is not None:
                row.insert(1, point.group)
            rows.append(row)
        if points and points[0].group is not None:
            headers.insert(1, "group")
        print(format_table(headers, rows))
        if not points:
            print(f"(no ingested runs match scenario {args.scenario!r})")
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    # deferred: only ``serve`` pays for importing http.server
    from repro.store.serve import ServeConfig, serve_forever

    config = ServeConfig(
        store_path=args.store,
        runs_dir=args.runs_dir,
        quiet=not args.verbose,
    )
    if args.host is not None:
        config = dataclasses.replace(config, host=args.host)
    if args.port is not None:
        config = dataclasses.replace(config, port=args.port)
    serve_forever(config)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_files(
        args.baseline,
        args.current,
        tol_success=args.tol_success,
        tol_rounds=args.tol_rounds,
    )
    print(report.describe())
    return EXIT_OK if report.ok else EXIT_DRIFT


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "phase":
            return _cmd_phase(args)
        if args.command == "fabric":
            return _cmd_fabric(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "serve":
            return _cmd_serve(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # stdout was piped into something that stopped reading (query | head);
        # detach so the interpreter's shutdown flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    raise AssertionError(f"unhandled command {args.command!r}")


__all__ = [
    "EXIT_DRIFT",
    "EXIT_ERROR",
    "EXIT_FABRIC_ORPHANED",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "main",
]
