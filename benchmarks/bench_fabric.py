"""Fabric overhead probe — what the lease/merge machinery costs a sweep.

The multi-host sweep fabric (``run --fabric N``; ``repro.runner.fabric``)
adds a coordination layer over the journal: lease files claimed by atomic
rename, per-cell lease re-reads, mtime heartbeats, per-worker shard
appends, and an epoch-fenced in-order merge into the canonical journal.
All of that must be effectively free relative to cell execution, or the
fabric would tax exactly the long BW-heavy runs it exists to distribute.

This benchmark runs the BW-heavy ``bw_clique5``-shaped probe (the grid
perfbench's ``bw_flood`` workload runs — redundant-path flooding, hundreds
of milliseconds per cell) three ways:

* **serial journaled** — a plain ``ExperimentSession`` with a run dir: the
  baseline every fabric guarantee is anchored to;
* **fabric, one in-process worker** — a session draining the fabric
  source (no pool) plus one :class:`~repro.runner.fabric.FabricWorker` on
  a thread.  Same process,
  same serial cell execution, so the ratio isolates exactly the fabric
  layer (leases + shard + merge).  This is the gated number: the CI
  ``fabric-overhead`` job fails the build when it exceeds 5 %;
* **fabric, 3 pool workers** — the real ``run --fabric 3`` configuration,
  subprocess spawn and all, recorded as an informational speedup figure
  (it includes ~1 s of interpreter start-up per worker, so it is *not* a
  clean overhead measurement).

Every fabric journal produced here must also fold byte-identically to the
serial journal — the benchmark asserts the fabric's core guarantee on the
very runs it times.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from typing import Dict, Optional

import pytest

from repro.runner.artifacts import artifact_payload, dumps_canonical
from repro.runner.fabric import FabricConfig, FabricCoordinator, FabricWorker
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.journal import load_journal
from repro.runner.reporting import format_table
from repro.runner.session import ExperimentSession
from repro.runner.worker_cache import clear_worker_caches

#: Same shape as perfbench's ``bw_flood`` grid (``bw_clique5``):
#: redundant-path flooding BW on the 5-clique — the heavy-cell workload the
#: fabric exists for.  Fabric overhead is per cell (lease re-read, shard
#: append, merge), so the heavy-cell probe is the honest denominator.
FABRIC_PROBE = GridSpec(
    name="fabric_probe",
    algorithms=("bw",),
    topologies=(TopologySpec.make("clique", n=5),),
    f_values=(1,),
    behaviors=("crash", "fixed-high"),
    placements=("random",),
    seeds=tuple(range(1, 11)),
    epsilon=0.25,
    path_policy="redundant",
)

#: Measurement repetitions per gated side; the best (lowest seconds) is kept.
REPEATS = 3


def _fold_bytes(run_dir) -> str:
    journal = load_journal(run_dir)
    return dumps_canonical(
        artifact_payload(
            journal.fold(),
            mode=journal.mode,
            provenance={"environment": None, "git": None},
        )
    )


def _record(cells: int, best_seconds: float) -> Dict[str, object]:
    return {
        "cells": cells,
        "seconds": round(best_seconds, 4),
        "cells_per_second": round(cells / best_seconds, 2) if best_seconds else None,
    }


def _serial_once(tmp_path, repeat: int) -> float:
    clear_worker_caches()
    run_dir = tmp_path / f"serial-{repeat}"
    shutil.rmtree(run_dir, ignore_errors=True)
    session = ExperimentSession(FABRIC_PROBE, mode="full", workers=1, run_dir=run_dir)
    start = time.perf_counter()
    session.run()
    return time.perf_counter() - start


class _InProcessCoordinator(FabricCoordinator):
    """Starts one in-process worker thread as soon as the run is published,
    so the worker's join poll succeeds on its first attempt — otherwise its
    0.1 s retry sleep pollutes the timing."""

    thread: Optional[threading.Thread] = None

    def start(self, spec=None, cells=None):
        super().start(spec, cells)
        self.thread = threading.Thread(
            target=FabricWorker(self.run_dir, "bench").run, daemon=True
        )
        self.thread.start()


def _fabric_once(tmp_path, label: str, repeat: int, workers: int) -> float:
    clear_worker_caches()
    run_dir = tmp_path / f"{label}-{repeat}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # One lease over the whole grid isolates the *per-cell* fabric costs
    # (lease re-read, shard append, merge); per-lease costs (claim, warm,
    # fsync, release) scale with the operator-chosen lease count.  The
    # 0.1 s poll bounds how often the coordinator thread wakes and steals
    # GIL time from the in-process worker — a measurement artifact real
    # subprocess pools do not pay.
    config = FabricConfig(
        workers=workers, lease_ttl=60.0, poll_interval=0.1, chunks_per_worker=1
    )
    # workers == 0: one in-process worker, the clean measurement.
    source = (_InProcessCoordinator if workers == 0 else FabricCoordinator)(
        run_dir=run_dir, config=config
    )
    session = ExperimentSession(FABRIC_PROBE, mode="full", source=source)
    start = time.perf_counter()
    session.run()
    elapsed = time.perf_counter() - start
    assert len(session.result.cells) == FABRIC_PROBE.num_cells
    if workers == 0:
        source.thread.join(timeout=30.0)
    return elapsed


@pytest.mark.benchmark(group="fabric")
def test_fabric_overhead(benchmark, tmp_path, write_result, results_dir):
    records: Dict[str, Dict[str, object]] = {}

    def run_all():
        # Interleave the two gated sides so slow phases of a shared/noisy box
        # (this runs on CI runners) bias both measurements alike; best-of-N
        # then discards the noise floor on each side independently.
        serial_best = fabric_best = float("inf")
        for repeat in range(REPEATS):
            serial_best = min(serial_best, _serial_once(tmp_path, repeat))
            fabric_best = min(
                fabric_best, _fabric_once(tmp_path, "inproc", repeat, workers=0)
            )
        records["serial_journaled"] = _record(FABRIC_PROBE.num_cells, serial_best)
        records["fabric_inprocess"] = _record(FABRIC_PROBE.num_cells, fabric_best)
        records["fabric_pool_3"] = _record(
            FABRIC_PROBE.num_cells, _fabric_once(tmp_path, "pool", 0, workers=3)
        )
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # The fabric's core guarantee, asserted on the timed runs themselves:
    # every fabric journal folds byte-identically to the serial journal.
    reference = _fold_bytes(tmp_path / "serial-0")
    assert _fold_bytes(tmp_path / f"inproc-{REPEATS - 1}") == reference
    assert _fold_bytes(tmp_path / "pool-0") == reference

    serial = records["serial_journaled"]["seconds"]
    fabric = records["fabric_inprocess"]["seconds"]
    pool = records["fabric_pool_3"]["seconds"]
    overhead: Optional[float] = round(fabric / serial - 1.0, 4) if serial else None
    payload = {
        "schema": 1,
        "grid": FABRIC_PROBE.name,
        "cells": records["serial_journaled"]["cells"],
        "repeats": REPEATS,
        "serial_journaled": records["serial_journaled"],
        "fabric_inprocess": records["fabric_inprocess"],
        "fabric_pool_3": records["fabric_pool_3"],
        "overhead_ratio": overhead,
        "pool_speedup": round(serial / pool, 2) if pool else None,
        "claim": "fabric leasing+sharding+merge costs < 5% over a journaled "
        "serial run on the BW-heavy probe (pool figure includes spawn cost)",
    }
    (results_dir / "BENCH_fabric.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    rows = [
        ["serial + journal", serial, records["serial_journaled"]["cells_per_second"], "-"],
        [
            "fabric (1 in-process worker)",
            fabric,
            records["fabric_inprocess"]["cells_per_second"],
            f"{overhead * 100:.2f}%" if overhead is not None else "-",
        ],
        [
            "fabric (3 pool workers)",
            pool,
            records["fabric_pool_3"]["cells_per_second"],
            f"speedup {payload['pool_speedup']}x",
        ],
    ]
    write_result(
        "bench_fabric",
        format_table(["mode", "seconds", "cells/s", "overhead"], rows),
    )
    assert records["serial_journaled"]["cells"] == FABRIC_PROBE.num_cells
    assert records["fabric_inprocess"]["cells"] == FABRIC_PROBE.num_cells
    assert records["fabric_pool_3"]["cells"] == FABRIC_PROBE.num_cells
