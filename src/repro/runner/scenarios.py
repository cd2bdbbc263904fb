"""Built-in scenarios and the registry-backed cell dispatcher.

The nine named sweep grids live as declarative TOML files under
``src/repro/runner/scenarios/`` (see :mod:`repro.runner.scenario_files` for
the format) and every string axis resolves through the typed registries in
:mod:`repro.registry`:

* topology families   -> :data:`~repro.registry.TOPOLOGIES`
* Byzantine behaviours-> :data:`~repro.registry.BEHAVIORS`
* fault placements    -> :data:`~repro.registry.PLACEMENTS`
* algorithms          -> :data:`~repro.registry.ALGORITHMS`
  (each an :class:`~repro.runner.algorithms.AlgorithmSpec`)

:func:`run_cell` is the single cell-execution entry point used by
:class:`~repro.runner.harness.SweepEngine`; it resolves the cell's algorithm
*by name inside the worker process*, so cells travel between processes as
small tuples of primitives and a sharded run needs nothing unpicklable.

The pre-registry call surface (``build_topology``, ``resolve_placement``
and the ``TOPOLOGY_FAMILIES`` / ``BEHAVIOR_FACTORIES`` /
``SYNC_BYZANTINE_VALUES`` mapping views) lived here as deprecation shims
through api v1; they are gone — use the registries, preferably through
:mod:`repro.api` (``tests/test_layering.py`` scans the code under ``src/``
and ``tests/`` to keep duplicate loader paths from creeping back).
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import ExperimentError
from repro.registry import ALGORITHMS
from repro.runner.harness import NOT_APPLICABLE, CellResult, GridSpec, SweepCell
from repro.runner.scenario_files import Scenario, load_builtin_scenarios
from repro.runner.worker_cache import (
    WORKER_CACHE_LIMIT,
    cached_graph,
    cached_topology_knowledge,
    clear_worker_caches,
    warm_worker_caches,
    worker_cache_stats,
)

#: Algorithm names by kind, derived from the registry (stays in sync with
#: whatever is registered at import time; third-party registrations made
#: later are still resolvable by name, just not listed here).
CONSENSUS_ALGORITHMS = tuple(
    name for name in ALGORITHMS.names() if ALGORITHMS.get(name).kind == "consensus"
)
CHECK_ALGORITHMS = tuple(
    name for name in ALGORITHMS.names() if ALGORITHMS.get(name).kind == "check"
)


# ----------------------------------------------------------------------
# cell execution
# ----------------------------------------------------------------------
def run_cell(spec: GridSpec, cell: SweepCell) -> CellResult:
    """Execute one sweep cell; the engine's default (picklable) cell runner.

    The graph is built (and worker-cached) from the cell's *resolved*
    topology, so a ``seed = "cell"`` random family samples a fresh graph per
    seed cell, deterministically from the cell's derived seed.
    """
    graph = cached_graph(cell.resolved_topology)
    return ALGORITHMS.get(cell.algorithm).run(spec, cell, graph)


# ----------------------------------------------------------------------
# the scenario registry (loaded from the committed TOML files)
# ----------------------------------------------------------------------
SCENARIOS: Dict[str, Scenario] = load_builtin_scenarios()


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, with a helpful error for typos."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise ExperimentError(f"unknown scenario {name!r} (known: {known})") from None


__all__ = [
    "CHECK_ALGORITHMS",
    "CONSENSUS_ALGORITHMS",
    "NOT_APPLICABLE",
    "SCENARIOS",
    "Scenario",
    "WORKER_CACHE_LIMIT",
    "cached_graph",
    "cached_topology_knowledge",
    "clear_worker_caches",
    "warm_worker_caches",
    "get_scenario",
    "run_cell",
    "scenario_names",
    "worker_cache_stats",
]
