"""Sweep orchestration: declarative grids, sharded execution, drift gating.

Shows the full experiment pipeline the benchmarks and CI ride on:

1. pick a named scenario from the registry (every paper artefact has one);
2. run its grid through an :class:`ExperimentSession` — serially and
   sharded across two worker processes — and check both runs agree exactly;
3. write the canonical JSON artifact and gate a reloaded copy against it
   with ``compare`` (the regression check CI applies to every PR);
4. stream the same grid's events — journaled, with a simulated crash after
   the first cell, and a resume that lands byte-identically.

Run with:  python examples/sweep_orchestration.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.runner.artifacts import compare, load_artifact, write_artifact
from repro.runner.journal import load_journal
from repro.runner.reporting import render_sweep_groups
from repro.runner.scenarios import get_scenario
from repro.runner.session import CellCompleted, ExperimentSession


def main() -> None:
    # 1. A named scenario: the Definition 1 behaviour sweep on the 4-clique.
    scenario = get_scenario("definition1")
    spec = scenario.grid(quick=True)
    print(f"scenario {scenario.name!r}: {scenario.description}")
    print(f"grid: {spec.num_cells} cells "
          f"({len(spec.behaviors)} behaviours x {len(spec.seeds)} seeds)\n")

    # 2. Serial and sharded runs are interchangeable: every cell derives its
    #    seed from (scenario, cell index), not from execution order.
    serial = ExperimentSession(spec).run()
    sharded = ExperimentSession(spec, workers=2).run()
    assert serial.cells == sharded.cells, "sharding must not change any result"
    print(render_sweep_groups("definition1 (quick grid)", serial.groups))

    # 3. Artifacts: write, reload, and gate against the baseline.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "definition1.quick.json"
        baseline = write_artifact(path, serial, mode="quick")
        report = compare(baseline, load_artifact(path))
        print(report.describe())
        assert report.ok, "a run must never drift from itself"

    # 4. Sessions stream events, journal every cell and survive a
    #    crash.  We drop the run after its first cell — closing the event
    #    iterator stands in for SIGINT/OOM — then resume from the journal.
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        session = ExperimentSession(spec, mode="quick", run_dir=run_dir)
        events = session.events()
        for event in events:
            if isinstance(event, CellCompleted):
                print(f"cell {event.result.index} done "
                      f"({event.completed}/{event.total}) ... simulating a crash")
                events.close()
                break
        journal = load_journal(run_dir)
        assert not journal.sealed and len(journal.cells) == 1

        resumed = ExperimentSession.resume(run_dir)
        replayed = sum(
            1 for event in resumed.events()
            if isinstance(event, CellCompleted) and event.replayed
        )
        print(f"resumed: {replayed} cell replayed from the journal, "
              f"{resumed.finished.completed - replayed} executed fresh")
        assert resumed.result.cells == serial.cells, "resume must lose nothing"

    # The sweep's claim: the Byzantine-Witness algorithm defeats every
    # behaviour in the quick grid (Definition 1 holds per cell).
    assert all(cell.success for cell in serial.cells)
    print("\nevery cell satisfied Definition 1; sharded == serial; "
          "crash+resume == serial; no drift.")


if __name__ == "__main__":
    main()
