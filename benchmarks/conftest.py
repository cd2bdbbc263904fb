"""Shared helpers for the probes under ``benchmarks/``.

Besides the timing numbers collected by ``pytest-benchmark``, a probe writes
its table as plain text (and its record as JSON) under the gitignored
``benchmarks/results/`` directory, where CI gates and uploads it.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory where benchmarks drop their regenerated tables."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def write_result(results_dir):
    """Write (and echo) a named plain-text result artefact."""

    def _write(name: str, text: str) -> str:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n[{name}]\n{text}\n")
        return text

    return _write
