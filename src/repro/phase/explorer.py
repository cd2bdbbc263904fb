"""The adaptive phase-transition explorer: base sweep + variance-driven
refinement.

:func:`run_phase` drives one phase scenario through an
:class:`~repro.runner.session.ExperimentSession` (journaled and resumable
when given a run directory, byte-identical serial vs sharded) and derives
the :mod:`PhaseCurve <repro.phase.curve>` from the sweep result.

:func:`refine_phase` is the SAVA-style budgeted loop on top: after the base
sweep it repeatedly

1. pools per-group statistics across every run so far — through the
   results store's :meth:`~repro.store.store.ResultsStore.group_variance`,
   the same variance signal ``query --variance`` serves;
2. **bisects** the knob axis where the curve is still coarse *and*
   interesting — an adjacent point pair is split when its knob gap exceeds
   the target resolution and the pair either straddles rate 0.5 or has an
   endpoint inside the transition band (Bernoulli variance ≥ the floor);
3. **boosts** transition-band points with extra seed samples until they
   hold ``seed_boost ×`` the base per-point seed count —

all under a fixed budget of additional cells.  Every refinement round is a
normal journaled grid named ``<scenario>-refine-<r>``: it resumes like any
other run, its cells derive seeds from its *own* ``(name, index)`` pairs —
fresh Monte Carlo samples, deterministically — and its store rows pool
with the base run's when the loop re-queries the variance signal.

Out-of-band regions keep the base resolution and the base seed depth; that
asymmetry is the point.  The final curve records the spend next to the
cost of the naive alternative (``uniform_cells``: every knob step at the
target resolution sampled at band depth) plus the achieved band
concentration, so "refinement beats uniform allocation" is a checkable
claim, not a narrative.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import PhaseError
from repro.phase.curve import (
    PHASE_BAND_VARIANCE,
    GroupStat,
    PhasePoint,
    assemble_points,
    curve_from_result,
    curve_payload,
    topology_point,
    validate_phase_spec,
)
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.scenario_files import Scenario
from repro.runner.session import ExperimentSession, SessionEvent
from repro.store.store import ResultsStore

PathLike = Union[str, pathlib.Path]
Observer = Callable[[SessionEvent], None]

#: Knob values are rounded to this many decimals when bisecting, so curve
#: labels stay short and midpoint insertion is idempotent.
KNOB_DECIMALS = 6


@dataclass
class PhaseRun:
    """One base phase sweep: the curve plus its underlying sweep payload."""

    curve: Dict[str, object]
    sweep: Dict[str, object]
    session: ExperimentSession


@dataclass
class RefineRound:
    """What one refinement round decided and ran."""

    index: int
    inserted: List[Tuple[int, float]]
    boosted: List[Tuple[int, float]]
    cells: int


@dataclass
class PhaseRefinement:
    """Outcome of :func:`refine_phase`: refined curve + audit trail."""

    curve: Dict[str, object]
    base: PhaseRun
    rounds: List[RefineRound] = field(default_factory=list)
    sweeps: List[Dict[str, object]] = field(default_factory=list)

    @property
    def spent_cells(self) -> int:
        return int(self.curve["budget"]["spent_cells"])

    @property
    def uniform_cells(self) -> int:
        return int(self.curve["budget"]["uniform_cells"])

    @property
    def concentration_ratio(self) -> Optional[float]:
        ratio = self.curve["budget"]["concentration_ratio"]
        return None if ratio is None else float(ratio)


def _drive(
    grid: GridSpec,
    *,
    mode: str,
    workers: int,
    run_dir: Optional[PathLike],
    observer: Optional[Observer],
) -> ExperimentSession:
    session = ExperimentSession(grid, mode=mode, workers=workers, run_dir=run_dir)
    for event in session.events():
        if observer is not None:
            observer(event)
    return session


def run_phase(
    scenario: Scenario,
    *,
    quick: bool = False,
    workers: int = 1,
    run_dir: Optional[PathLike] = None,
    observer: Optional[Observer] = None,
) -> PhaseRun:
    """Run one phase scenario and derive its (unrefined) PhaseCurve.

    ``run_dir`` enables journaling exactly like ``runner run --journal``;
    an interrupted run resumes through the normal session machinery and
    still produces byte-identical artifacts and curves.
    """
    mode = "quick" if quick else "full"
    grid = scenario.grid(quick=quick)
    validate_phase_spec(grid)
    session = _drive(grid, mode=mode, workers=workers, run_dir=run_dir, observer=observer)
    sweep = session.artifact_payload()
    curve = curve_from_result(
        session.result,
        mode=mode,
        provenance={"environment": sweep.get("environment"), "git": sweep.get("git")},
    )
    return PhaseRun(curve=curve, sweep=sweep, session=session)


# ----------------------------------------------------------------------
# refinement internals
# ----------------------------------------------------------------------
def _pooled_stats(store, scenarios: Sequence[str], mode: str) -> List[GroupStat]:
    """Per-group statistics pooled across every ingested run of the base
    scenario and its refinement rounds.

    Each round runs under its own grid name (``<scenario>-refine-<r>``) so
    its cells derive *fresh* ``(name, index)`` seeds — genuinely new Monte
    Carlo samples rather than replays of the base run — which also keeps
    the rounds distinct under the store's run key.  Pooling therefore
    merges the store's per-scenario variance rows here.  Success and round
    totals are integers underneath, so recovering them with ``round()``
    makes the merged rates exact — independent of merge order.
    """
    totals: Dict[Tuple[str, str, int], List[int]] = {}
    for scenario in scenarios:
        for row in store.group_variance(scenario, mode):
            key = (row.algorithm, row.topology, row.f)
            runs, successes, rounds_total = totals.setdefault(key, [0, 0, 0])
            totals[key] = [
                runs + row.cells,
                successes + int(round(row.success_rate * row.cells)),
                rounds_total + int(round(row.mean_rounds * row.cells)),
            ]
    return [
        GroupStat(
            algorithm=algorithm,
            topology=topology,
            f=f,
            runs=runs,
            success_rate=successes / runs,
            mean_rounds=rounds_total / runs,
        )
        for (algorithm, topology, f), (runs, successes, rounds_total) in sorted(
            totals.items()
        )
    ]


def _rows(points: Sequence[PhasePoint]) -> Dict[Tuple[int, int], List[PhasePoint]]:
    """Points grouped per (n, f) row, sorted by knob within each row."""
    rows: Dict[Tuple[int, int], List[PhasePoint]] = {}
    for point in points:
        rows.setdefault((point.n, point.f), []).append(point)
    for row in rows.values():
        row.sort(key=lambda point: point.knob)
    return rows


def _candidates(
    points: Sequence[PhasePoint],
    *,
    resolution: float,
    variance_floor: float,
    base_seeds: int,
    seed_boost: int,
) -> Tuple[List[Tuple[int, float]], List[Tuple[int, float]]]:
    """(midpoints to insert, points to boost), highest priority first.

    Midpoints bisect coarse adjacent pairs that straddle rate 0.5 or touch
    the transition band; boosts deepen band points still short of
    ``seed_boost × base_seeds`` pooled samples.  Both lists are keyed by
    ``(n, knob)`` — one topology serves every ``f`` row — and are ordered
    deterministically (variance, then gap, then key) so identical inputs
    select identical refinement grids.
    """
    midpoints: Dict[Tuple[int, float], Tuple[float, float]] = {}
    boosts: Dict[Tuple[int, float], float] = {}
    seeds_by_key: Dict[Tuple[int, float], int] = {}
    for (n, _f), row in sorted(_rows(points).items()):
        for point in row:
            key = (n, point.knob)
            seeds_by_key[key] = min(seeds_by_key.get(key, point.seeds), point.seeds)
        for left, right in zip(row, row[1:]):
            gap = right.knob - left.knob
            if gap <= resolution + 1e-9:
                continue
            variance = max(left.success_variance, right.success_variance)
            straddles = (left.primary_rate - 0.5) * (right.primary_rate - 0.5) < 0
            if variance < variance_floor and not straddles:
                continue
            mid = round((left.knob + right.knob) / 2.0, KNOB_DECIMALS)
            if mid <= left.knob or mid >= right.knob:
                continue  # resolution below representable spacing
            key = (n, mid)
            score = (variance, gap)
            if key not in midpoints or score > midpoints[key]:
                midpoints[key] = score
        for point in row:
            if point.success_variance < variance_floor:
                continue
            key = (n, point.knob)
            boosts[key] = max(boosts.get(key, 0.0), point.success_variance)
    for key in list(boosts):
        if seeds_by_key[key] >= seed_boost * base_seeds:
            del boosts[key]
    ordered_mids = sorted(midpoints, key=lambda key: (-midpoints[key][0], -midpoints[key][1], key))
    ordered_boosts = sorted(boosts, key=lambda key: (-boosts[key], key))
    return ordered_mids, ordered_boosts


def _spec_for(
    family: str,
    knob: str,
    templates: Mapping[int, Mapping[str, object]],
    n: int,
    value: float,
) -> TopologySpec:
    """The (sentinel-seeded) topology spec of phase point ``(n, knob=value)``."""
    params = dict(templates[n])
    params[knob] = value
    return TopologySpec.make(family, **params)


def _uniform_cells(
    base: GridSpec,
    knob: str,
    resolution: float,
    cells_per_topology: int,
    seed_boost: int,
) -> int:
    """Cost of the naive alternative: every knob step at the target
    resolution, sampled at transition-band depth, for every swept ``n``."""
    spans: Dict[int, List[float]] = {}
    for topology in base.topologies:
        n, value = topology_point(topology, knob)
        spans.setdefault(n, []).append(value)
    total = 0
    for values in spans.values():
        steps = int((max(values) - min(values)) / resolution + 1e-9) + 1
        total += steps * cells_per_topology * seed_boost
    return total


def _concentration(points: Sequence[PhasePoint]) -> Optional[float]:
    """Mean in-band pooled seed count over the uniform per-point share."""
    if not points:
        return None
    in_band = [point.seeds for point in points if point.in_band]
    if not in_band:
        return None
    uniform_share = sum(point.seeds for point in points) / len(points)
    return (sum(in_band) / len(in_band)) / uniform_share


def refine_phase(
    scenario: Scenario,
    *,
    quick: bool = False,
    budget_cells: int,
    resolution: float,
    variance_floor: float = PHASE_BAND_VARIANCE,
    seed_boost: int = 4,
    max_rounds: int = 8,
    workers: int = 1,
    run_root: Optional[PathLike] = None,
    store=None,
    observer: Optional[Observer] = None,
) -> PhaseRefinement:
    """Adaptively refine a phase curve under a fixed extra-cell budget.

    ``budget_cells`` caps the cells spent *beyond* the base sweep.  With a
    ``run_root``, the base run journals to ``<run_root>/base`` and round
    ``r`` to ``<run_root>/round-<r>`` — each resumable individually.  The
    pooling store defaults to ``<run_root>/phase.sqlite`` (or an in-memory
    database without a run root); passing an existing
    :class:`~repro.store.store.ResultsStore` pools with everything it
    already holds for this scenario and mode.
    """
    if budget_cells < 0:
        raise PhaseError(f"budget_cells must be >= 0, got {budget_cells}")
    if resolution <= 0:
        raise PhaseError(f"resolution must be > 0, got {resolution}")
    if seed_boost < 1:
        raise PhaseError(f"seed_boost must be >= 1, got {seed_boost}")
    mode = "quick" if quick else "full"
    root = pathlib.Path(run_root) if run_root is not None else None
    base_grid = scenario.grid(quick=quick)
    family, knob = validate_phase_spec(base_grid)
    cells_per_topology = base_grid.num_cells // len(base_grid.topologies)
    base_seeds = len(base_grid.seeds)

    templates: Dict[int, Dict[str, object]] = {}
    known: Dict[Tuple[int, float], TopologySpec] = {}
    for topology in base_grid.topologies:
        n, value = topology_point(topology, knob)
        templates.setdefault(n, dict(topology.params))
        known[(n, value)] = topology

    owns_store = store is None
    if store is None:
        store = ResultsStore(root / "phase.sqlite" if root is not None else ":memory:")
    try:
        base = run_phase(
            scenario,
            quick=quick,
            workers=workers,
            run_dir=root / "base" if root is not None else None,
            observer=observer,
        )
        store.ingest_run_payload(base.sweep, source_kind="artifact")
        provenance = {
            "environment": base.sweep.get("environment"),
            "git": base.sweep.get("git"),
        }

        rounds: List[RefineRound] = []
        sweeps: List[Dict[str, object]] = []
        inserted: List[Tuple[int, float]] = []
        boosted: List[Tuple[int, float]] = []
        scenario_names = [base_grid.name]
        spent_extra = 0
        for index in range(1, max_rounds + 1):
            stats = _pooled_stats(store, scenario_names, mode)
            points = assemble_points(
                base_grid, knob, list(known.values()), stats, strict=False
            )
            mids, boosts = _candidates(
                points,
                resolution=resolution,
                variance_floor=variance_floor,
                base_seeds=base_seeds,
                seed_boost=seed_boost,
            )
            selected: List[Tuple[str, Tuple[int, float]]] = []
            cost = 0
            for kind, keys in (("insert", mids), ("boost", boosts)):
                for key in keys:
                    if spent_extra + cost + cells_per_topology > budget_cells:
                        break
                    selected.append((kind, key))
                    cost += cells_per_topology
            if not selected:
                break
            round_topologies = []
            round_inserted: List[Tuple[int, float]] = []
            round_boosted: List[Tuple[int, float]] = []
            for kind, key in sorted(selected, key=lambda entry: entry[1]):
                n, value = key
                if kind == "insert":
                    spec = _spec_for(family, knob, templates, n, value)
                    known[key] = spec
                    round_inserted.append(key)
                else:
                    spec = known[key]
                    round_boosted.append(key)
                round_topologies.append(spec)
            grid = dataclasses.replace(
                base_grid,
                name=f"{base_grid.name}-refine-{index}",
                topologies=tuple(round_topologies),
            )
            session = _drive(
                grid,
                mode=mode,
                workers=workers,
                run_dir=root / f"round-{index}" if root is not None else None,
                observer=observer,
            )
            sweep = session.artifact_payload()
            store.ingest_run_payload(sweep, source_kind="artifact")
            sweeps.append(sweep)
            scenario_names.append(grid.name)
            spent_extra += grid.num_cells
            inserted.extend(round_inserted)
            boosted.extend(round_boosted)
            rounds.append(
                RefineRound(
                    index=index,
                    inserted=round_inserted,
                    boosted=round_boosted,
                    cells=grid.num_cells,
                )
            )

        stats = _pooled_stats(store, scenario_names, mode)
        points = assemble_points(
            base_grid, knob, list(known.values()), stats, strict=False
        )
        base_cells = base_grid.num_cells
        curve = curve_payload(
            base_grid,
            points,
            mode=mode,
            base_cells=base_cells,
            spent_cells=base_cells + spent_extra,
            uniform_cells=_uniform_cells(
                base_grid, knob, resolution, cells_per_topology, seed_boost
            ),
            concentration_ratio=_concentration(points),
            refinement={
                "rounds": len(rounds),
                "resolution": resolution,
                "variance_floor": variance_floor,
                "budget_cells": budget_cells,
                "inserted": [
                    {"n": n, "knob": value} for n, value in sorted(set(inserted))
                ],
                "boosted": [
                    {"n": n, "knob": value} for n, value in sorted(set(boosted))
                ],
            },
            provenance=provenance,
        )
        return PhaseRefinement(curve=curve, base=base, rounds=rounds, sweeps=sweeps)
    finally:
        if owns_store:
            store.close()


__all__ = [
    "KNOB_DECIMALS",
    "PhaseRefinement",
    "PhaseRun",
    "RefineRound",
    "refine_phase",
    "run_phase",
]
