"""One session of one workload, in a fresh interpreter.

Usage (normally launched by ``run.py``)::

    python3 perfbench/session.py --workload bw_flood --seed 0 --trace 0 \\
        --run-dir .perfbench/s0

Builds the workload's grid, drains one journaled ``ExperimentSession`` over
it, derives the artifact, then checks every cell against the workload's
reference.  Prints one JSON record: the session's timings, the host's
slowdown (``calibrate.py``), memory, correctness and, with ``--trace 1``,
its layer metrics.

``--write-reference PATH`` instead writes the artifact of an untimed serial
run to ``PATH``; that is how ``perfbench/reference/`` was made.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pathlib
import platform
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Cell fields that must equal the reference's (the seed label may differ).
CELL_FIELDS = (
    "index", "algorithm", "topology", "n", "f", "behavior", "placement", "derived_seed",
    "success", "output_range", "rounds", "messages", "simulated_time", "metrics", "faults",
)


def artifact_digest(payload) -> str:
    """SHA-256 of the canonical artifact without its provenance."""
    from repro.runner.artifacts import dumps_canonical

    body = {key: value for key, value in payload.items() if key not in ("environment", "git")}
    return hashlib.sha256(dumps_canonical(body).encode("utf-8")).hexdigest()


def check(workload, cells, payload, attempted: int):
    """Failed cells and the ``compare()`` verdict against the reference.

    A cell fails when the session never produced it (a cell raised) or when
    any of :data:`CELL_FIELDS` differs from the reference cell of the same
    index.  ``compare()`` then gates the folded groups against the
    reference restricted to the same cells.
    """
    from repro.runner.artifacts import artifact_cells, compare, load_artifact
    from repro.runner.harness import aggregate_cells

    reference = load_artifact(ROOT / workload.reference)
    produced = {cell["index"]: cell for cell in cells}
    expected = {cell["index"]: cell for cell in reference["cells"] if cell["index"] in produced}
    mismatched = sum(
        1
        for index, cell in produced.items()
        if index not in expected
        or any(cell.get(key) != expected[index].get(key) for key in CELL_FIELDS)
    )
    failed = mismatched + attempted - len(produced)
    if payload is None:
        return failed, "not compared: the session raised"
    subset = [expected[index] for index in sorted(expected)]
    restricted = dict(
        reference,
        cells=subset,
        totals=dict(reference["totals"], cells=len(subset)),
        groups=[group.as_dict() for group in aggregate_cells(artifact_cells({"cells": subset}))],
    )
    report = compare(restricted, payload)
    return failed, "ok" if report.ok else report.describe()


def environment(workers: int):
    from repro.graphs.bitset_backends import backend_policy
    from repro.runner.artifacts import git_metadata

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    git = git_metadata(ROOT)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "bitset_backend": backend_policy(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git["commit"] if git else None,
        "workers": workers,
    }


def install_cell_probe(probe_dir: pathlib.Path):
    """Time every ``run_cell`` call, in this process and in pool workers.

    Before a cell, the wrapper times the reference loop if
    ``calibrate.INTERVAL_S`` has passed since it last did in this process.
    Each process appends ``<monotonic start> <seconds> <cell index> <loop
    seconds or 0>`` lines to its own file in ``probe_dir``.  The wrapper
    keeps ``run_cell``'s module and qualified name, so the pool still
    pickles it by reference.  Returns a function that restores ``run_cell``
    and reads back every line.
    """
    import repro.runner.scenarios as scenarios

    real_run_cell = scenarios.run_cell
    probe_dir.mkdir(parents=True)
    handles = {}
    last_loop = {os.getpid(): time.monotonic()}

    @functools.wraps(real_run_cell)
    def run_cell(spec, cell):
        pid = os.getpid()
        loop_s = 0.0
        if time.monotonic() - last_loop.setdefault(pid, 0.0) >= calibrate.INTERVAL_S:
            loop_s = calibrate.timed_loop()
            last_loop[pid] = time.monotonic()
        start = time.monotonic()
        result = real_run_cell(spec, cell)
        elapsed = time.monotonic() - start
        if pid not in handles:
            handles[pid] = os.open(probe_dir / f"{pid}.txt", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(handles[pid], f"{start!r} {elapsed!r} {cell.index} {loop_s!r}\n".encode("ascii"))
        return result

    scenarios.run_cell = run_cell

    def collect():
        scenarios.run_cell = real_run_cell
        for handle in handles.values():
            os.close(handle)
        return [
            (float(start), float(elapsed), int(index), float(loop_s))
            for path in sorted(probe_dir.iterdir())
            for start, elapsed, index, loop_s in (
                line.split() for line in path.read_text(encoding="ascii").splitlines()
            )
        ]

    return collect


def run_session(workload, seed: int, traced: bool, run_dir: pathlib.Path, max_cells: int):
    # The reference loop runs in the processes that do the work: the host
    # slows each CPU differently, and they may not share one with the
    # parent.  The first loop only warms the interpreter up.
    calibrate_start = time.monotonic()
    calibrate.timed_loop()
    before = calibrate.sample()
    calibrate_s = time.monotonic() - calibrate_start

    from repro.runner.session import CellCompleted, ExperimentSession, RunFinished, RunStarted

    spec = workload.build(seed)
    total = min(max_cells or workload.cells, workload.cells)
    tracer = probe = None
    if traced:
        import layers
        from tracer import Tracer

        tracer = Tracer(dump_dir=str(run_dir / "trace"))
        os.makedirs(tracer.dump_dir)
        layers.install(tracer)
    else:
        probe = install_cell_probe(run_dir / "cells")

    cells, consumer_ms, error, payload = [], [], None, None
    window_start = started = previous = finished = time.perf_counter()
    session = ExperimentSession(
        spec,
        mode=workload.mode,
        workers=workload.workers,
        run_dir=run_dir / "journal",
        stop_policies=[f"max-cells:{total}"] if total < spec.num_cells else (),
    )
    try:
        for event in session.events():
            now = time.perf_counter()
            if isinstance(event, CellCompleted):
                consumer_ms.append((now - previous) * 1000.0)
                cells.append(event.result.as_dict())
                previous = now
            elif isinstance(event, RunStarted):
                started = previous = now
            elif isinstance(event, RunFinished):
                finished = now
        payload = session.artifact_payload()
    except Exception as exc:  # a raising cell is a failed cell, not a crash
        error = f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
    window_s = time.perf_counter() - window_start
    run_s = finished - started
    cells_start = None
    cell_ms = [[cell["index"], ms] for cell, ms in zip(cells, consumer_ms)]
    loops = []
    if tracer is not None:
        tracer.restore()
    else:
        probed = probe()
        cells_start = min((start for start, _, _, _ in probed), default=None)
        loops = [loop_s for _, _, _, loop_s in probed if loop_s > 0]
        # The loops timed between cells are not the program's time: take
        # them out of the run, where on the pool each worker ran its own
        # share of them, and out of the cells they preceded.
        run_s -= sum(loops) / workload.workers
        window_s -= sum(loops) / workload.workers
        if workload.workers > 1:
            # Pooled results reach the consumer in bursts, so the gaps it
            # sees are not cell times; the workers' own timings are.
            cell_ms = [[index, seconds * 1000.0] for _, seconds, index, _ in probed]
        else:
            loop_ms = {index: loop_s * 1000.0 for _, _, index, loop_s in probed}
            cell_ms = [[index, ms - loop_ms[index]] for index, ms in cell_ms]

    failed, verdict = check(workload, cells, payload, total)
    after = calibrate.sample()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "workload": workload.name,
        "traced": traced,
        "cells_start": cells_start,
        "calibrate_s": calibrate_s,
        "slowdown": calibrate.slowdown(before + loops + after),
        "run_s": run_s,
        "window_s": window_s,
        "cells": len(cells),
        "cell_ms": cell_ms,
        "peak_rss_mb": usage / 1024.0,
        "attempted": total,
        "failed": failed,
        "compare": verdict,
        "error": error,
        "digest": artifact_digest(payload) if payload is not None else None,
        "environment": environment(workload.workers),
    }
    if tracer is not None:
        import layers
        from tracer import read_worker_dumps

        self_s, counts = dict(tracer.self_s), dict(tracer.counts)
        worker_self, worker_counts = read_worker_dumps(tracer.dump_dir)
        # The partition check covers this process alone: worker time is
        # spent in parallel with it, inside harness.stream_wait_s.
        record["partition_error_s"] = sum(self_s.values()) - tracer.top_level_s
        for key, value in worker_self.items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in worker_counts.items():
            counts[key] = counts.get(key, 0) + value
        journal_file = session.journal_path
        counts["journal.bytes"] = journal_file.stat().st_size if journal_file.exists() else 0
        record["layers"] = layers.layer_metrics(self_s, counts, window_s, tracer.top_level_s)
    return record


def write_reference(workload, path: pathlib.Path) -> None:
    from repro.runner.artifacts import write_payload
    from repro.runner.session import ExperimentSession

    session = ExperimentSession(workload.build(0), mode=workload.mode)
    session.run()
    write_payload(path, session.artifact_payload())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=pathlib.Path)
    parser.add_argument("--max-cells", type=int, default=0)
    parser.add_argument("--write-reference", type=pathlib.Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.write_reference is not None:
        write_reference(workload, args.write_reference)
        return 0
    if args.run_dir is None:
        parser.error("--run-dir is required")
    record = run_session(workload, args.seed, bool(args.trace), args.run_dir, args.max_cells)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
