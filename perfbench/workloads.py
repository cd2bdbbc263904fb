"""The benchmark's workloads: which grid, how it runs, what it is checked against.

Importing this module does not import ``repro``: ``run.py`` only needs the
table, and each session process builds its grid itself.

The workload seed selects the grid's seed values (seed 0 keeps the committed
values).  Every cell draws its randomness from ``(scenario name, cell
index)``, not from its seed value, so a cell does the same work and reaches
the same verdict at every workload seed: timings compare across seeds, and
the references below check the cells at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(cells: int) -> float:
    """The highest percentile of :data:`TAIL_LADDER` with at least ten of
    ``cells`` samples beyond it."""
    for percentile in TAIL_LADDER:
        if cells * (100.0 - percentile) / 100.0 >= 10:
            return percentile
    return TAIL_LADDER[-1]


def grid_seeds(seeds: Tuple[int, ...], seed: int) -> Tuple[int, ...]:
    """The grid's seed values for workload seed ``seed`` (0: unchanged)."""
    return seeds if seed == 0 else tuple(seed * 1000 + value for value in seeds)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(seed) -> GridSpec``; imports ``repro`` when called.
    build: Callable[[int], object]
    #: Artifact mode of the reference the run is compared against.
    mode: str
    #: Reference artifact, relative to the repository root.
    reference: str
    workers: int
    #: Cells in one session: the first ``cells`` cells of the grid.
    cells: int
    #: Sessions every run completes, however short ``--seconds`` is.
    min_sessions: int
    #: Indices of the cells the per-cell metrics cover (``None``: all).
    timed: Optional[range] = None

    @property
    def timed_indices(self) -> range:
        return range(self.cells) if self.timed is None else self.timed

    @property
    def tail_percentile(self) -> float:
        """Fixed per workload from the timed cells its shortest run
        collects, so every run reports the same percentile."""
        return tail_percentile(len(self.timed_indices) * self.min_sessions)


def _bw_flood(seed: int):
    from repro.runner.harness import GridSpec, TopologySpec

    return GridSpec(
        name="bw_clique5",
        algorithms=("bw",),
        topologies=(TopologySpec.make("clique", n=5),),
        f_values=(1,),
        behaviors=("crash", "fixed-high"),
        placements=("random",),
        seeds=grid_seeds((1, 2, 3, 4, 5), seed),
        epsilon=0.25,
        path_policy="redundant",
    )


def _scenario(name: str, quick: bool, seeds: Tuple[int, ...] = ()):
    def build(seed: int):
        import dataclasses

        from repro.runner.scenarios import get_scenario

        spec = get_scenario(name).grid(quick=quick)
        return dataclasses.replace(spec, seeds=grid_seeds(seeds or spec.seeds, seed))

    return build


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="bw_flood",
            why="BW redundant flooding on clique(5), warm topology cache: per-message work "
            "(on_message, MessageSet, simulator loop) dominates",
            build=_bw_flood,
            mode="full",
            reference="perfbench/reference/bw_flood.full.json",
            workers=1,
            cells=10,
            min_sessions=4,
        ),
        Workload(
            name="reach_scaling",
            why="scaling full grid: reach-condition sweeps and bitset kernels only (numpy at "
            "n>=24); the control for BW and simulator changes",
            build=_scenario("scaling", quick=False),
            mode="full",
            reference="benchmarks/baselines/scaling.full.json",
            workers=1,
            cells=12,
            min_sessions=2,
        ),
        Workload(
            name="phase_mix",
            why="phase_density quick grid up to p=0.75: a fresh G(7,p) per cell, so topology "
            "precompute is cold; per-cell times cover its 20 heavy-tailed BW cells",
            build=_scenario("phase_density", quick=True),
            mode="quick",
            reference="benchmarks/baselines/phase_density.quick.json",
            workers=1,
            # The four p=0.9 BW cells (44-47) take 1-2 s each, over half a
            # session; without them a run fits twice as many sessions,
            # which the per-cell best times need on a noisy host.
            cells=44,
            min_sessions=2,
            # Cells 0-23 are sub-millisecond check-reach cells, 24-43 BW
            # cells of 13 ms to 1 s.  A median over both groups falls in
            # the gap between them and jumps with the noise at its edges.
            timed=range(24, 44),
        ),
        Workload(
            name="churn_pool",
            why="churn full grid at 100 seeds on a 2-worker pool: 500 tiny cells, so fault "
            "loop, journal, fold and pool streaming dominate",
            build=_scenario("churn", quick=False, seeds=tuple(range(1, 101))),
            mode="full",
            reference="perfbench/reference/churn_pool.full.json",
            workers=2,
            cells=500,
            min_sessions=3,
        ),
    )
}
