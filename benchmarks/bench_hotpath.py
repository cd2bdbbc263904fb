"""Hot-path throughput probe — cells-per-second on BW-heavy quick grids.

The sweep engine's throughput is dominated by three layers: per-cell topology
precomputation (redundant-path enumeration), the Definition 7–9 message-set
operations inside the BW event handlers, and the discrete-event simulator
loop itself.  This benchmark measures end-to-end *cells per second* through
:class:`~repro.runner.session.ExperimentSession` on three probes exercising those
layers, and records the numbers — next to the pre-optimisation baseline
measured by this very harness — into ``benchmarks/results/BENCH_hotpath.json``
(schema documented in EXPERIMENTS.md).

The committed JSON is the before/after evidence for the hot-path overhaul:
``speedup_vs_baseline`` compares against :data:`PRE_PR_BASELINE`, the
cells-per-second measured on the same machine immediately *before* the
bitmask message sets / tuple-heap simulator / worker topology cache landed.
Absolute numbers are machine-dependent; the ratio is the claim.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional

import pytest

from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.reporting import format_table
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession

try:  # present after the worker topology cache landed; absent in the baseline
    from repro.runner.scenarios import clear_worker_caches
except ImportError:  # pragma: no cover - pre-optimisation fallback
    def clear_worker_caches() -> None:
        return


#: The sharded-speedup probe grid (same shape as bench_sweep_parallel's
#: historical probe): BW with the faithful redundant flooding policy.
HOTPATH_PROBE = GridSpec(
    name="speedup_probe",
    algorithms=("bw",),
    topologies=(TopologySpec.make("clique", n=4),),
    f_values=(1,),
    behaviors=("crash", "fixed-high", "equivocate", "offset", "tamper-complete"),
    placements=("random",),
    seeds=(1, 2, 3, 4),
    epsilon=0.25,
    path_policy="redundant",
)

#: A heavier BW probe (n=5 clique, redundant flooding: ~40k deliveries per
#: adversarial cell) — the workload whose per-message costs the bitmask
#: message sets and the slot-compiled simulator core target.
BW_CLIQUE5_PROBE = GridSpec(
    name="bw_clique5",
    algorithms=("bw",),
    topologies=(TopologySpec.make("clique", n=5),),
    f_values=(1,),
    behaviors=("crash", "fixed-high"),
    placements=("random",),
    seeds=(1, 2, 3, 4, 5),
    epsilon=0.25,
    path_policy="redundant",
)

#: Measurement repetitions per grid; the best (highest cells/s) run is kept so
#: one scheduling hiccup cannot poison the committed artefact.
REPEATS = 3

#: Cells-per-second measured by THIS harness on the pre-optimisation tree
#: (commit 8889b46, workers=1, best of 3×3).  Both sides were measured
#: interleaved in one session — alternating pre/post subprocesses on the
#: same machine — so background load hits both equally.
PRE_PR_BASELINE: Dict[str, Optional[float]] = {
    "definition1.quick": 34.75,
    "figure1a.quick": 72.57,
    "speedup_probe": 29.95,
    "bw_clique5": 1.65,
}


def _probe_grids() -> Dict[str, GridSpec]:
    return {
        "definition1.quick": get_scenario("definition1").grid(quick=True),
        "figure1a.quick": get_scenario("figure1a").grid(quick=True),
        "speedup_probe": HOTPATH_PROBE,
        "bw_clique5": BW_CLIQUE5_PROBE,
    }


def _measure(spec: GridSpec) -> Dict[str, float]:
    """Best-of-``REPEATS`` cells/second for one grid (serial session)."""
    best_seconds = float("inf")
    cells = 0
    for _ in range(REPEATS):
        clear_worker_caches()  # every repetition pays the full cold-start cost
        start = time.perf_counter()
        result = ExperimentSession(spec).run()
        elapsed = time.perf_counter() - start
        cells = len(result.cells)
        best_seconds = min(best_seconds, elapsed)
    return {
        "cells": cells,
        "seconds": round(best_seconds, 4),
        "cells_per_second": round(cells / best_seconds, 2) if best_seconds else None,
    }


@pytest.mark.benchmark(group="hotpath")
def test_hotpath_cells_per_second(benchmark, write_result, results_dir):
    grids = _probe_grids()
    records: Dict[str, Dict[str, object]] = {}

    def run_all():
        for name, spec in grids.items():
            records[name] = _measure(spec)
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, record in records.items():
        baseline = PRE_PR_BASELINE.get(name)
        record["baseline_cells_per_second"] = baseline
        record["speedup_vs_baseline"] = (
            round(record["cells_per_second"] / baseline, 2) if baseline else None
        )
        rows.append(
            [
                name,
                record["cells"],
                record["seconds"],
                record["cells_per_second"],
                baseline if baseline is not None else "-",
                record["speedup_vs_baseline"] if baseline else "-",
            ]
        )

    payload = {
        "schema": 1,
        "workers": 1,
        "repeats": REPEATS,
        "baseline_provenance": (
            "PRE_PR_BASELINE measured at commit 8889b46 interleaved on the "
            "committing machine; speedup_vs_baseline is only meaningful when "
            "this file is regenerated on comparable hardware"
        ),
        "grids": records,
    }
    (results_dir / "BENCH_hotpath.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_result(
        "bench_hotpath",
        format_table(
            ["grid", "cells", "seconds", "cells/s", "baseline cells/s", "speedup"],
            rows,
        ),
    )
    assert all(record["cells"] > 0 for record in records.values())
