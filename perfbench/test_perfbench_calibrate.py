"""The host-speed calibration and the scaling of the end-to-end metrics."""

from __future__ import annotations

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from run import end_to_end  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_reference_loop_is_deterministic():
    assert calibrate.reference_loop(500) == calibrate.reference_loop(500)


def test_slowdown_is_the_mean_over_the_nominal_time():
    times = [calibrate.NOMINAL_S * factor for factor in (1.0, 2.0, 6.0)]
    assert calibrate.slowdown(times) == pytest.approx(3.0)
    assert len(calibrate.sample(reps=3)) == 3


def session(slowdown: float, cell_ms, run_s: float):
    return {
        "slowdown": slowdown,
        "cells": len(cell_ms),
        "cell_ms": list(enumerate(cell_ms)),
        "run_s": run_s,
        "setup_s": 0.4 * slowdown,
        "peak_rss_mb": 50.0,
    }


def test_end_to_end_divides_every_time_by_its_session_slowdown():
    workload = WORKLOADS["reach_scaling"]
    cells = [10.0 * (index + 1) for index in range(workload.cells)]
    # The second session ran on a host twice as slow: scaled, it is the same.
    fast = session(1.0, cells, run_s=sum(cells) / 1000.0)
    slow = session(2.0, [2.0 * ms for ms in cells], run_s=2.0 * sum(cells) / 1000.0)
    metrics = end_to_end(workload, [fast, slow])
    assert metrics == end_to_end(workload, [fast, fast])
    assert metrics["cells_per_s"] == pytest.approx(1000.0 * len(cells) / sum(cells))
    assert metrics["cell_p50_ms"] == pytest.approx(65.0)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["peak_rss_mb"] == 50.0
