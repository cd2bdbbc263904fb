"""The layered sweep benchmark: one workload, measured for a fixed time.

Usage::

    python3 perfbench/run.py --workload bw_flood --seed 0 --seconds 28 --trace 0

Runs the workload's grid as a closed loop of sessions, each in a fresh
interpreter (``session.py``), one at a time, until ``--seconds`` have passed
and at least the workload's minimum number of sessions has finished.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced sessions and prints the per-layer metrics of the traced
ones, the layer partition of the traced wall and ``trace.overhead``.  The
last line of standard output is the JSON result; the lines before it are
for people.  The exit code is 0 only when every cell of every session
matched its reference and every session produced the same artifact.

``--workload all`` runs every workload in turn.  ``--max-cells N`` cuts
every session to its first N cells (smoke tests).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Units of the end-to-end metrics; ``failed_share`` is printed but not in
#: the JSON result, where ``attempted`` and ``failed`` carry it.
END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: A session that runs longer than this is a hang, not a measurement.
SESSION_TIMEOUT_S = 50
#: No session starts after this much of the run, so the run ends in time.
RUN_LIMIT_S = 120


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "overhead")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def run_session(workload, seed: int, traced: bool, run_dir: pathlib.Path, max_cells: int):
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", workload.name, "--seed", str(seed), "--trace", str(int(traced)),
        "--run-dir", str(run_dir), "--max-cells", str(max_cells),
    ]
    launched = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=SESSION_TIMEOUT_S)
    shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"session of {workload.name} exited with {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if record["cells_start"] is not None:
        record["setup_s"] = record["cells_start"] - launched - record["calibrate_s"]
    record["session_s"] = time.monotonic() - launched
    return record


def run_sessions(workload, args, scratch: pathlib.Path):
    """Closed loop: the next session starts only after the previous ended.

    Once the minimum is met, a session starts only if it is expected to end
    nearer to ``--seconds`` than stopping now would.
    """
    start = time.monotonic()
    records = []
    while True:
        elapsed = time.monotonic() - start
        untraced = sum(1 for record in records if not record["traced"])
        traced = len(records) - untraced
        if args.trace:
            enough = untraced >= 1 and traced >= 1
        else:
            enough = untraced >= workload.min_sessions
        if records:
            typical = statistics.median(record["session_s"] for record in records)
            if (enough and elapsed + typical / 2 >= args.seconds) or elapsed >= RUN_LIMIT_S:
                return records
        trace_next = bool(args.trace) and traced < untraced
        records.append(
            run_session(
                workload, args.seed, trace_next, scratch / f"s{len(records)}", args.max_cells
            )
        )


def scaled_cell_ms(workload, sessions):
    """Each timed cell's median over the sessions of its scaled time, in ms."""
    times = {}
    for record in sessions:
        for index, ms in record["cell_ms"]:
            if index in workload.timed_indices:
                times.setdefault(index, []).append(ms / record["slowdown"])
    if not times:
        raise SystemExit(f"{workload.name}: no session reached a timed cell")
    return [statistics.median(values) for values in times.values()]


def end_to_end(workload, sessions):
    """The end-to-end metrics, every time divided by its session's slowdown."""
    cell_ms = scaled_cell_ms(workload, sessions)
    return {
        "cells_per_s": sum(r["cells"] for r in sessions)
        / sum(r["run_s"] / r["slowdown"] for r in sessions),
        "cell_p50_ms": percentile(cell_ms, 50.0),
        "cell_tail_ms": percentile(cell_ms, workload.tail_percentile),
        "setup_s": statistics.median(r["setup_s"] / r["slowdown"] for r in sessions),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sessions),
    }


def per_layer(untraced, traced):
    names = traced[0]["layers"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    metrics["trace.overhead"] = (
        statistics.median(r["window_s"] for r in traced)
        / statistics.median(r["window_s"] for r in untraced)
        - 1.0
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-cells", type=int, default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--max-cells", str(args.max_cells)]
        return max(main(["--workload", name] + rest) for name in WORKLOADS)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    cpus = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    if workload.workers > cpus:
        # A pooled number from fewer CPUs than workers would enter the
        # record as if it were parallel: report nothing instead.
        print(
            f"{workload.name} not measured: it needs {workload.workers} CPUs, "
            f"{cpus} available",
            file=sys.stderr,
        )
        return 3

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        records = run_sessions(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    untraced = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    digests = {record["digest"] for record in records}
    problems = [
        f"session {index}: {record['error'] or record['compare']}"
        for index, record in enumerate(records)
        if record["error"] or record["compare"] != "ok"
    ]
    if len(digests) != 1:
        problems.append(f"sessions produced {len(digests)} different artifacts")

    print("environment " + json.dumps(records[0]["environment"], sort_keys=True))
    print(
        f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
        f"{len(traced)} traced sessions of {workload.cells} cells, workers {workload.workers}"
    )
    print(f"artifact sha256 (without provenance) {sorted(map(str, digests))[0]}")
    print(f"  {'failed_share':<16} {failed / attempted:>14.6f} share ({failed} of {attempted} cells)")
    if args.trace:
        metrics = per_layer(untraced, traced)
        wall = metrics["trace.wall_s"]
        worst = max(abs(record["partition_error_s"]) for record in traced)
        if worst > 1e-6 * wall:
            problems.append(f"layer self times miss the traced wall by {worst:.3g} s")
        print(f"  layer partition of the traced wall ({wall:.4f} s; error {worst:.2g} s):")
        for name in sorted(metrics, key=lambda key: (layer_unit(key), key)):
            value = metrics[name]
            share = f"{value / wall:7.1%}" if layer_unit(name) == "s" and name != "trace.wall_s" else ""
            print(f"  {name:<34} {value:>16.6f} {layer_unit(name):<5} {share}")
        if workload.workers > 1:
            print("  (layer times include the pool workers', spent during harness.stream_wait_s)")
        print(f"  trace.overhead {metrics['trace.overhead']:+.1%} (traced wall / untraced wall - 1)")
    else:
        metrics = end_to_end(workload, untraced)
        timed = workload.timed_indices
        rates = " ".join(f"{r['cells'] / r['run_s']:.4g}" for r in untraced)
        slowdowns = " ".join(f"{r['slowdown']:.3f}" for r in untraced)
        print(f"  cells/s per session, unscaled: {rates}")
        print(f"  host slowdown per session: {slowdowns}")
        print(f"  times below are divided by the slowdown; per-cell times cover cells "
              f"{timed.start}-{timed.stop - 1}, median over the sessions")
        for name, unit in END_TO_END_UNITS.items():
            note = f" (p{workload.tail_percentile:g})" if name == "cell_tail_ms" else ""
            print(f"  {name:<16} {metrics[name]:>14.6f} {unit}{note}")
    for problem in problems:
        print(f"FAILED {problem}")

    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {
                "value": value,
                "unit": END_TO_END_UNITS[name] if not args.trace else layer_unit(name),
            }
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
