"""The PhaseCurve artifact: derive, validate, serialize, render.

A *phase curve* is the per-knob success profile of one random graph family:
for every ``(n, f, knob)`` point it records the Monte Carlo probability that
the paper's reach conditions hold (``condition_rate``, measured by a
``check``-kind algorithm) and/or that the end-to-end protocol succeeds
(``success_rate`` / ``mean_rounds``, measured by a ``consensus``-kind
algorithm).  Curves derive deterministically from sweep results, so a curve
built from a 4-worker run is byte-identical to the serial one.

``docs/phase-curves.md`` is the normative statement of the document layout
(schema version 1) — tests cross-check the field lists here against that
document.  The top level::

    {
      "schema_version": 1,
      "kind": "repro-phase-curve",
      "scenario": ..., "mode": "quick" | "full",
      "family": ..., "knob": ...,
      "n_values": [...], "f_values": [...], "knob_values": [...],
      "seeds_per_point": N,
      "budget": {"base_cells", "spent_cells", "uniform_cells",
                 "concentration_ratio"},
      "points": [ {"n", "f", "knob", "seeds", "condition_rate",
                   "success_rate", "mean_rounds", "success_variance"} ... ],
      "refinement": null | {"rounds", "resolution", "variance_floor",
                            "budget_cells", "inserted", "boosted"},
      "environment": {...} | null,
      "git": {...} | null
    }

Like sweep artifacts, ``environment`` and ``git`` are provenance only.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import PhaseError
from repro.registry import ALGORITHMS
from repro.runner.artifacts import environment_metadata, git_metadata, write_payload
from repro.runner.harness import GridSpec, SweepRunResult, TopologySpec

PHASE_SCHEMA_VERSION = 1
PHASE_CURVE_KIND = "repro-phase-curve"

#: Bernoulli variance threshold marking a point as inside the transition
#: band: ``p (1 - p) >= 0.09`` means the observed rate is strictly between
#: 0.1 and 0.9 — neither surely-holds nor surely-fails.
PHASE_BAND_VARIANCE = 0.09

_REQUIRED_KEYS = (
    "schema_version",
    "kind",
    "scenario",
    "mode",
    "family",
    "knob",
    "n_values",
    "f_values",
    "knob_values",
    "seeds_per_point",
    "budget",
    "points",
    "refinement",
    "environment",
    "git",
)

#: Fields every serialized phase point must carry.
_POINT_KEYS = (
    "n",
    "f",
    "knob",
    "seeds",
    "condition_rate",
    "success_rate",
    "mean_rounds",
    "success_variance",
)

#: Fields of the top-level ``budget`` object.
_BUDGET_KEYS = ("base_cells", "spent_cells", "uniform_cells", "concentration_ratio")

#: Fields of a non-null ``refinement`` object.
_REFINEMENT_KEYS = (
    "rounds",
    "resolution",
    "variance_floor",
    "budget_cells",
    "inserted",
    "boosted",
)

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# knob discovery on a grid
# ----------------------------------------------------------------------
def _size_parameter(params: Mapping[str, object]) -> str:
    """The family parameter that plays the role of the system size."""
    if "n" in params:
        return "n"
    if "k" in params:
        return "k"
    raise PhaseError(
        "phase grids need a size parameter ('n' or 'k') on every topology; "
        f"got parameters {sorted(params)}"
    )


def phase_knob(spec: GridSpec) -> Tuple[str, str]:
    """``(family, knob parameter)`` of a phase grid's topology axis.

    Every topology must come from one family; the knob is the unique
    non-size, non-seed parameter whose value varies across the grid's
    topologies (or the only candidate parameter, for single-point grids).
    """
    if not spec.topologies:
        raise PhaseError("phase grids need at least one topology")
    families = sorted({topology.family for topology in spec.topologies})
    if len(families) != 1:
        raise PhaseError(
            f"phase grids sweep one topology family, got {families}"
        )
    family = families[0]
    values: Dict[str, set] = {}
    for topology in spec.topologies:
        params = dict(topology.params)
        size = _size_parameter(params)
        for key, value in params.items():
            if key in ("seed", size):
                continue
            values.setdefault(key, set()).add(value)
    if not values:
        raise PhaseError(
            f"family {family!r} exposes no sweepable knob parameter"
        )
    varying = sorted(key for key, seen in values.items() if len(seen) > 1)
    if len(varying) > 1:
        raise PhaseError(
            f"phase grids sweep exactly one knob; parameters {varying} all vary"
        )
    if varying:
        return family, varying[0]
    if len(values) == 1:
        return family, next(iter(values))
    raise PhaseError(
        f"cannot infer the knob of family {family!r}: none of "
        f"{sorted(values)} varies across the grid"
    )


def validate_phase_spec(spec: GridSpec) -> Tuple[str, str]:
    """Check ``spec`` describes a phase sweep; returns ``(family, knob)``.

    Requirements beyond :func:`phase_knob`: at most one algorithm of each
    registered kind (one ``check`` for the condition curve, one
    ``consensus`` for the end-to-end curve, at least one of the two) and
    singleton behaviour/placement/fault axes, so every ``(n, f, knob)``
    point maps to exactly one aggregation group per algorithm.
    """
    family, knob = phase_knob(spec)
    kinds: Dict[str, List[str]] = {}
    for name in spec.algorithms:
        kinds.setdefault(ALGORITHMS.get(name).kind, []).append(name)
    for kind, names in sorted(kinds.items()):
        if len(names) > 1:
            raise PhaseError(
                f"phase grids take at most one {kind!r} algorithm, got {names}"
            )
    if not (kinds.get("check") or kinds.get("consensus")):
        raise PhaseError(
            "phase grids need a 'check' or 'consensus' algorithm, got "
            f"{list(spec.algorithms)}"
        )
    for axis in ("behaviors", "placements", "faults"):
        entries = getattr(spec, axis)
        if len(entries) > 1:
            raise PhaseError(
                f"phase grids need a singleton {axis} axis, got {list(entries)}"
            )
    return family, knob


def topology_point(topology: TopologySpec, knob: str) -> Tuple[int, float]:
    """``(n, knob value)`` of one phase topology."""
    params = dict(topology.params)
    size = _size_parameter(params)
    if knob not in params:
        raise PhaseError(
            f"topology {topology.label} carries no knob parameter {knob!r}"
        )
    return int(params[size]), float(params[knob])


# ----------------------------------------------------------------------
# deriving curves from group statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupStat:
    """One pooled aggregation group, normalized for curve assembly.

    The common shape of a sweep artifact's ``groups`` rows and the store's
    :class:`~repro.store.store.GroupVariance` pooled rows.
    """

    algorithm: str
    topology: str
    f: int
    runs: int
    success_rate: float
    mean_rounds: float


def stats_from_groups(groups: Iterable[Mapping[str, object]]) -> List[GroupStat]:
    """Normalize serialized group aggregates (artifact ``groups`` rows)."""
    return [
        GroupStat(
            algorithm=str(group["algorithm"]),
            topology=str(group["topology"]),
            f=int(group["f"]),
            runs=int(group["runs"]),
            success_rate=float(group["success_rate"]),
            mean_rounds=float(group["mean_rounds"]),
        )
        for group in groups
    ]


@dataclass(frozen=True)
class PhasePoint:
    """One measured point of a phase curve."""

    n: int
    f: int
    knob: float
    seeds: int
    condition_rate: Optional[float]
    success_rate: Optional[float]
    mean_rounds: Optional[float]

    @property
    def primary_rate(self) -> float:
        """The rate the explorer steers on: condition-level when a check
        algorithm ran, end-to-end success otherwise."""
        if self.condition_rate is not None:
            return self.condition_rate
        assert self.success_rate is not None
        return self.success_rate

    @property
    def success_variance(self) -> float:
        """Bernoulli variance ``p (1 - p)`` of the primary rate."""
        p = self.primary_rate
        return p * (1.0 - p)

    @property
    def in_band(self) -> bool:
        """Whether the point sits inside the transition band."""
        return self.success_variance >= PHASE_BAND_VARIANCE

    def as_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "f": self.f,
            "knob": self.knob,
            "seeds": self.seeds,
            "condition_rate": self.condition_rate,
            "success_rate": self.success_rate,
            "mean_rounds": self.mean_rounds,
            "success_variance": self.success_variance,
        }


def assemble_points(
    spec: GridSpec,
    knob: str,
    topologies: Sequence[TopologySpec],
    stats: Sequence[GroupStat],
    strict: bool = True,
) -> List[PhasePoint]:
    """Fold pooled group statistics into sorted :class:`PhasePoint` rows.

    ``topologies`` lists every (sentinel-labelled) topology the pooled
    statistics may reference — the base grid's plus any the refinement loop
    inserted; group rows of other topologies are a :class:`PhaseError`
    (they would silently vanish from the curve otherwise).  ``strict=False``
    skips them instead — the refinement loop uses this when pooling against
    a shared store that may hold points from earlier explorations.
    """
    labels: Dict[str, Tuple[int, float]] = {
        topology.label: topology_point(topology, knob) for topology in topologies
    }
    check: Dict[Tuple[int, int, float], GroupStat] = {}
    consensus: Dict[Tuple[int, int, float], GroupStat] = {}
    for stat in stats:
        if stat.topology not in labels:
            if not strict:
                continue
            raise PhaseError(
                f"group topology {stat.topology!r} is not part of the phase grid"
            )
        n, value = labels[stat.topology]
        key = (n, stat.f, value)
        kind = ALGORITHMS.get(stat.algorithm).kind
        bucket = check if kind == "check" else consensus
        if key in bucket:
            raise PhaseError(
                f"point n={n} f={stat.f} {knob}={value} has several pooled "
                f"{kind!r} groups; pool the runs before assembling the curve"
            )
        bucket[key] = stat

    points = []
    for key in sorted(set(check) | set(consensus)):
        n, f, value = key
        check_stat = check.get(key)
        consensus_stat = consensus.get(key)
        seeds = max(
            check_stat.runs if check_stat is not None else 0,
            consensus_stat.runs if consensus_stat is not None else 0,
        )
        points.append(
            PhasePoint(
                n=n,
                f=f,
                knob=value,
                seeds=seeds,
                condition_rate=None if check_stat is None else check_stat.success_rate,
                success_rate=None if consensus_stat is None else consensus_stat.success_rate,
                mean_rounds=None if consensus_stat is None else consensus_stat.mean_rounds,
            )
        )
    return points


# ----------------------------------------------------------------------
# payload construction
# ----------------------------------------------------------------------
def curve_payload(
    spec: GridSpec,
    points: Sequence[PhasePoint],
    *,
    mode: str,
    scenario: Optional[str] = None,
    base_cells: int,
    spent_cells: int,
    uniform_cells: Optional[int] = None,
    concentration_ratio: Optional[float] = None,
    refinement: Optional[Mapping[str, object]] = None,
    provenance: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Build the canonical PhaseCurve document from assembled points.

    ``provenance`` carries ``environment`` / ``git`` exactly like sweep
    artifacts (:func:`repro.runner.artifacts.artifact_payload`); omitted, it
    is probed fresh.
    """
    if mode not in ("quick", "full"):
        raise PhaseError(f"mode must be 'quick' or 'full', got {mode!r}")
    family, knob = phase_knob(spec)
    if provenance is not None:
        environment = provenance.get("environment")
        git = provenance.get("git")
    else:
        environment = environment_metadata()
        git = git_metadata()
    payload: Dict[str, object] = {
        "schema_version": PHASE_SCHEMA_VERSION,
        "kind": PHASE_CURVE_KIND,
        "scenario": scenario if scenario is not None else spec.name,
        "mode": mode,
        "family": family,
        "knob": knob,
        "n_values": sorted({point.n for point in points}),
        "f_values": sorted({point.f for point in points}),
        "knob_values": sorted({point.knob for point in points}),
        "seeds_per_point": len(spec.seeds),
        "budget": {
            "base_cells": base_cells,
            "spent_cells": spent_cells,
            "uniform_cells": uniform_cells,
            "concentration_ratio": concentration_ratio,
        },
        "points": [point.as_dict() for point in points],
        "refinement": dict(refinement) if refinement is not None else None,
        "environment": environment,
        "git": git,
    }
    validate_phase_curve(payload)
    return payload


def curve_from_result(
    result: SweepRunResult,
    *,
    mode: str,
    provenance: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Derive a PhaseCurve from one finished sweep (no refinement).

    Deterministic in the sweep result, so serial and ``--workers N`` runs of
    the same grid yield byte-identical curves.
    """
    _, knob = validate_phase_spec(result.spec)
    stats = stats_from_groups(group.as_dict() for group in result.groups)
    points = assemble_points(result.spec, knob, result.spec.topologies, stats)
    return curve_payload(
        result.spec,
        points,
        mode=mode,
        base_cells=len(result.cells),
        spent_cells=len(result.cells),
        provenance=provenance,
    )


def curve_from_artifact(payload: Mapping[str, object]) -> Dict[str, object]:
    """Derive a PhaseCurve from a sweep artifact payload (``phase show``
    accepts plain sweep artifacts through this)."""
    spec = GridSpec.from_dict(payload["spec"])
    _, knob = validate_phase_spec(spec)
    stats = stats_from_groups(payload["groups"])
    points = assemble_points(spec, knob, spec.topologies, stats)
    return curve_payload(
        spec,
        points,
        mode=str(payload["mode"]),
        scenario=str(payload["scenario"]),
        base_cells=int(payload["totals"]["cells"]),
        spent_cells=int(payload["totals"]["cells"]),
        provenance={"environment": payload.get("environment"), "git": payload.get("git")},
    )


# ----------------------------------------------------------------------
# validation / IO
# ----------------------------------------------------------------------
def validate_phase_curve(payload: Mapping[str, object]) -> None:
    """Raise :class:`PhaseError` unless ``payload`` is a valid PhaseCurve."""
    if not isinstance(payload, Mapping):
        raise PhaseError("phase curve payload must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise PhaseError(f"phase curve is missing required keys: {missing}")
    if payload["kind"] != PHASE_CURVE_KIND:
        raise PhaseError(f"not a phase curve (kind={payload['kind']!r})")
    version = payload["schema_version"]
    if version != PHASE_SCHEMA_VERSION:
        raise PhaseError(
            f"unsupported phase-curve schema version {version!r} "
            f"(expected {PHASE_SCHEMA_VERSION})"
        )
    if payload["mode"] not in ("quick", "full"):
        raise PhaseError(f"invalid phase-curve mode {payload['mode']!r}")
    budget = payload["budget"]
    if not isinstance(budget, Mapping):
        raise PhaseError("phase-curve 'budget' must be an object")
    missing_budget = [key for key in _BUDGET_KEYS if key not in budget]
    if missing_budget:
        raise PhaseError(f"phase-curve budget is missing fields: {missing_budget}")
    points = payload["points"]
    if not isinstance(points, list):
        raise PhaseError("phase-curve 'points' must be a list")
    for index, point in enumerate(points):
        if not isinstance(point, Mapping):
            raise PhaseError(f"phase-curve point #{index} must be an object")
        missing_fields = [key for key in _POINT_KEYS if key not in point]
        if missing_fields:
            raise PhaseError(
                f"phase-curve point #{index} is missing fields: {missing_fields}"
            )
        if point["condition_rate"] is None and point["success_rate"] is None:
            raise PhaseError(
                f"phase-curve point #{index} carries neither a condition nor a "
                "success rate"
            )
    keys = [(point["n"], point["f"], point["knob"]) for point in points]
    if keys != sorted(keys):
        raise PhaseError("phase-curve points must be sorted by (n, f, knob)")
    if len(set(keys)) != len(keys):
        raise PhaseError("phase-curve points must be unique per (n, f, knob)")
    refinement = payload["refinement"]
    if refinement is not None:
        if not isinstance(refinement, Mapping):
            raise PhaseError("phase-curve 'refinement' must be null or an object")
        missing_fields = [key for key in _REFINEMENT_KEYS if key not in refinement]
        if missing_fields:
            raise PhaseError(
                f"phase-curve refinement is missing fields: {missing_fields}"
            )


def load_phase_curve(path: PathLike) -> Dict[str, object]:
    """Load and validate a PhaseCurve document from disk."""
    target = pathlib.Path(path)
    if not target.exists():
        raise PhaseError(f"phase curve {target} does not exist")
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise PhaseError(f"phase curve {target} is not valid JSON: {error}") from error
    validate_phase_curve(payload)
    return payload


def write_phase_curve(path: PathLike, payload: Mapping[str, object]) -> None:
    """Validate and atomically write a PhaseCurve in canonical form."""
    validate_phase_curve(payload)
    write_payload(path, payload)


def curve_points(payload: Mapping[str, object]) -> List[PhasePoint]:
    """Rehydrate the :class:`PhasePoint` rows of a curve document."""
    return [
        PhasePoint(
            n=int(point["n"]),
            f=int(point["f"]),
            knob=float(point["knob"]),
            seeds=int(point["seeds"]),
            condition_rate=(
                None if point["condition_rate"] is None else float(point["condition_rate"])
            ),
            success_rate=(
                None if point["success_rate"] is None else float(point["success_rate"])
            ),
            mean_rounds=(
                None if point["mean_rounds"] is None else float(point["mean_rounds"])
            ),
        )
        for point in payload["points"]
    ]


def render_curve(payload: Mapping[str, object], width: int = 30) -> str:
    """Human-readable rendering of a curve: one bar chart row per point."""
    validate_phase_curve(payload)
    lines = [
        f"phase curve: {payload['scenario']} ({payload['mode']}) — "
        f"{payload['family']} over {payload['knob']}"
    ]
    budget = payload["budget"]
    spent = budget["spent_cells"]
    note = f"budget: {spent} cells"
    if budget["uniform_cells"]:
        note += f" (uniform-at-resolution: {budget['uniform_cells']})"
    if budget["concentration_ratio"] is not None:
        note += f", band concentration {budget['concentration_ratio']:.2f}x"
    lines.append(note)
    for point in curve_points(payload):
        bar = "#" * int(round(point.primary_rate * width))
        rates = []
        if point.condition_rate is not None:
            rates.append(f"cond={point.condition_rate:.2f}")
        if point.success_rate is not None:
            rates.append(f"bw={point.success_rate:.2f}")
        band = " *" if point.in_band else ""
        lines.append(
            f"  n={point.n} f={point.f} {payload['knob']}={point.knob:<8g} "
            f"seeds={point.seeds:<3d} |{bar:<{width}}| {' '.join(rates)}{band}"
        )
    lines.append(f"  (* = transition band, p(1-p) >= {PHASE_BAND_VARIANCE})")
    return "\n".join(lines)


__all__ = [
    "PHASE_BAND_VARIANCE",
    "PHASE_CURVE_KIND",
    "PHASE_SCHEMA_VERSION",
    "GroupStat",
    "PhasePoint",
    "assemble_points",
    "curve_from_artifact",
    "curve_from_result",
    "curve_payload",
    "curve_points",
    "load_phase_curve",
    "phase_knob",
    "render_curve",
    "stats_from_groups",
    "topology_point",
    "validate_phase_spec",
    "write_phase_curve",
]
