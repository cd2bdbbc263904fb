"""Fault-layer overhead probe — what an inert fault schedule costs the hot path.

The fault-injection layer (``repro.network.faults``) promises that a
*zero-intensity* schedule is free: an inactive schedule leaves the simulator
on its ordinary fast loop, consumes the identical RNG stream and produces
byte-identical artifacts.  This benchmark pins the *performance* half of
that promise: the BW-heavy redundant-path probe from ``bench_hotpath.py``
runs twice through the serial engine — no faults axis at all, and a
``drop:0.0`` zero-intensity axis — and records the overhead ratio into
``benchmarks/results/BENCH_faults.json``.  The CI ``perf-smoke`` job fails
the build when the measured overhead exceeds 5 %.

Both sides are measured best-of-:data:`REPEATS` with cold worker caches so a
scheduling hiccup cannot poison the committed claim; the byte-identity half
of the promise is asserted inline (cell records equal modulo the ``faults``
label) before any timing is trusted.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Dict, Optional

import pytest

from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.reporting import format_table
from repro.runner.session import ExperimentSession
from repro.runner.worker_cache import clear_worker_caches

#: Same shape as bench_hotpath's ``bw_clique5`` probe: redundant-path
#: flooding BW on the 5-clique, the workload where per-cell simulator time
#: dominates — the honest denominator for a per-event gating cost.
FAULTS_PROBE = GridSpec(
    name="faults_probe",
    algorithms=("bw",),
    topologies=(TopologySpec.make("clique", n=5),),
    f_values=(1,),
    behaviors=("crash", "fixed-high"),
    placements=("random",),
    seeds=(1, 2, 3, 4, 5),
    epsilon=0.25,
    path_policy="redundant",
)

#: The same grid with a zero-intensity fault axis: the schedule compiles to
#: inactive, so the simulator must take the unchanged fast path.
INERT_PROBE = dataclasses.replace(FAULTS_PROBE, faults=("drop:0.0",))

#: Measurement repetitions per side; the best (lowest seconds) run is kept.
REPEATS = 3


def _measure(spec: GridSpec) -> Dict[str, object]:
    best_seconds = float("inf")
    cells = 0
    for _ in range(REPEATS):
        clear_worker_caches()  # both sides pay the full cold-start cost
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


@pytest.mark.benchmark(group="faults")
def test_zero_intensity_fault_overhead(benchmark, write_result, results_dir):
    # Byte-identity first: a drifting inert schedule would make any timing
    # comparison meaningless.
    plain_cells = [cell.as_dict() for cell in ExperimentSession(FAULTS_PROBE).run().cells]
    inert_cells = [cell.as_dict() for cell in ExperimentSession(INERT_PROBE).run().cells]
    for record in inert_cells:
        assert record.pop("faults") == "drop:0.0"
    assert plain_cells == inert_cells

    records: Dict[str, Dict[str, object]] = {}

    def run_both():
        records["no_faults"] = _measure(FAULTS_PROBE)
        records["zero_intensity"] = _measure(INERT_PROBE)
        return records

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    plain = records["no_faults"]["seconds"]
    inert = records["zero_intensity"]["seconds"]
    overhead: Optional[float] = round(inert / plain - 1.0, 4) if plain else None
    payload = {
        "schema": 1,
        "grid": FAULTS_PROBE.name,
        "cells": records["no_faults"]["cells"],
        "repeats": REPEATS,
        "workers": 1,
        "no_faults": records["no_faults"],
        "zero_intensity": records["zero_intensity"],
        "overhead_ratio": overhead,
        "claim": "a zero-intensity fault schedule costs < 5% on the BW-heavy probe",
    }
    (results_dir / "BENCH_faults.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [
        ["no faults", plain, records["no_faults"]["cells_per_second"], "-"],
        [
            "zero-intensity schedule",
            inert,
            records["zero_intensity"]["cells_per_second"],
            f"{overhead * 100:.2f}%" if overhead is not None else "-",
        ],
    ]
    write_result(
        "bench_faults",
        format_table(["mode", "seconds", "cells/s", "overhead"], rows),
    )
    assert records["no_faults"]["cells"] == FAULTS_PROBE.num_cells
    assert records["zero_intensity"]["cells"] == INERT_PROBE.num_cells
