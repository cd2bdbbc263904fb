"""Sweep orchestration: expand a declarative grid, shard it, aggregate outcomes.

The paper's tables and figures are all produced by sweeping consensus
executions (or condition checks) over grids of topologies, fault bounds,
Byzantine behaviours, fault placements and seeds.  This module provides the
machinery that turns a declarative :class:`GridSpec` into concrete
:class:`SweepCell`\\ s, runs every cell — serially or sharded across a
``multiprocessing`` pool — and folds the per-cell results into deterministic
aggregates.

Determinism is the load-bearing property: every cell derives its RNG seed
from ``(scenario name, cell index)`` via :func:`derive_cell_seed`, so results
are independent of execution order, shard assignment and worker count.  A
serial run and a 4-worker run of the same grid produce byte-identical
artifacts (see :mod:`repro.runner.artifacts`).

The cell-execution function itself lives in :mod:`repro.runner.scenarios`
(which owns the topology / behaviour / algorithm registries); the engine here
is generic over any picklable ``runner(spec, cell) -> CellResult`` callable.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import multiprocessing
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import GraphError, ScenarioFileError
from repro.graphs.digraph import DiGraph
from repro.registry import (
    ALGORITHMS,
    BEHAVIORS,
    FAULTS,
    PLACEMENTS,
    TOPOLOGIES,
    validate_plugin_args,
)
from repro.runner.metrics import ConsensusOutcome

NodeId = Hashable

#: Placeholder axis value for cells where an axis does not apply (e.g. the
#: behaviour/placement axes of condition-check cells — no adversary involved).
NOT_APPLICABLE = "-"

#: Sentinel value for a topology's ``seed`` parameter meaning "use the cell's
#: derived seed".  A grid whose random-family topologies carry
#: ``seed = "cell"`` samples a *fresh* graph per seed cell — the per-cell
#: SHA-256 seed fully determines the sample, so serial, sharded and fabric
#: runs stay byte-identical — while the topology *label* keeps the sentinel,
#: so every sample of one recipe aggregates into a single group.
CELL_SEED = "cell"

#: Result of running one cell; implemented by ``repro.runner.scenarios.run_cell``.
CellRunner = Callable[["GridSpec", "SweepCell"], "CellResult"]


class StopSweep(Exception):
    """Thrown into a cell source's stream to end a sweep early (not an error).

    :class:`~repro.runner.session.ExperimentSession` ends its source with
    ``stream.throw(StopSweep("policy:<name>"))`` when a stop policy fires.
    A source with nothing to clean up lets it propagate (the session
    catches it); the fabric source records the reason in ``stop.json``.
    """

    def __init__(self, reason: str = "stopped") -> None:
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------------------
# deterministic per-cell seeding
# ----------------------------------------------------------------------
def derive_cell_seed(scenario: str, index: int) -> int:
    """Stable 63-bit seed derived from ``(scenario, cell index)``.

    Uses SHA-256 rather than :func:`hash` so the value is identical across
    processes, platforms and ``PYTHONHASHSEED`` settings — the property that
    makes sharded sweeps reproduce serial sweeps exactly.
    """
    digest = hashlib.sha256(f"{scenario}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ----------------------------------------------------------------------
# input generators (unchanged public helpers)
# ----------------------------------------------------------------------
def random_inputs(
    graph: DiGraph, low: float, high: float, seed: Optional[int] = None
) -> Dict[NodeId, float]:
    """Uniform random inputs in ``[low, high]`` for every node (seeded)."""
    rng = random.Random(seed)
    return {node: rng.uniform(low, high) for node in sorted(graph.nodes, key=repr)}


def spread_inputs(graph: DiGraph, low: float, high: float) -> Dict[NodeId, float]:
    """Deterministic evenly spread inputs covering the whole range."""
    nodes = sorted(graph.nodes, key=repr)
    if len(nodes) == 1:
        return {nodes[0]: low}
    step = (high - low) / (len(nodes) - 1)
    return {node: low + index * step for index, node in enumerate(nodes)}


# ----------------------------------------------------------------------
# grid specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """A named graph family plus its construction parameters.

    Cells carry the *spec* rather than the built :class:`DiGraph` so workers
    rebuild graphs locally instead of unpickling them, and so artifacts can
    record the exact construction recipe.
    """

    family: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, family: str, **params: object) -> "TopologySpec":
        return cls(family=family, params=tuple(sorted(params.items())))

    @property
    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{self.family}({inner})"

    @property
    def is_cell_seeded(self) -> bool:
        """Whether the spec's ``seed`` parameter is the :data:`CELL_SEED`
        sentinel (resolved per cell from the derived seed)."""
        return any(key == "seed" and value == CELL_SEED for key, value in self.params)

    def resolve_cell_seed(self, derived_seed: int) -> "TopologySpec":
        """The concrete spec for one cell: the :data:`CELL_SEED` sentinel
        replaced by ``derived_seed``.  Identity for non-sentinel specs."""
        if not self.is_cell_seeded:
            return self
        params = {key: value for key, value in self.params}
        params["seed"] = derived_seed
        return TopologySpec.make(self.family, **params)

    def validate_params(self) -> None:
        """Check the params bind to the family's factory signature.

        Called from :meth:`GridSpec.validate_plugins` — i.e. before any
        worker pool forks — so an unknown or missing topology parameter
        raises one :class:`~repro.exceptions.GraphError` naming the family
        instead of a bare ``TypeError`` deep in a worker.
        """
        import inspect

        factory = TOPOLOGIES.get(self.family)
        params = {key: value for key, value in self.params}
        if params.get("seed") == CELL_SEED:
            params["seed"] = 0
        try:
            inspect.signature(factory).bind(**params)
        except TypeError as error:
            raise GraphError(f"topology {self.family!r}: {error}") from None

    def build(self) -> DiGraph:
        """Construct the graph this spec describes, through the
        :data:`~repro.registry.TOPOLOGIES` registry."""
        if self.is_cell_seeded:
            raise GraphError(
                f"topology {self.family!r} carries the per-cell seed sentinel "
                f"{CELL_SEED!r}; resolve it with resolve_cell_seed(derived_seed) "
                "before building"
            )
        factory = TOPOLOGIES.get(self.family)
        return factory(**{key: value for key, value in self.params})

    def as_dict(self) -> Dict[str, object]:
        return {"family": self.family, "params": {key: value for key, value in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "TopologySpec":
        """Inverse of :meth:`as_dict`, with schema validation."""
        if not isinstance(payload, Mapping):
            raise ScenarioFileError(f"topology entry must be a table, got {payload!r}")
        unknown = set(payload) - {"family", "params"}
        if unknown:
            raise ScenarioFileError(f"unknown topology keys {sorted(unknown)}")
        family = payload.get("family")
        if not isinstance(family, str) or not family:
            raise ScenarioFileError(f"topology 'family' must be a non-empty string, got {family!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ScenarioFileError(f"topology 'params' must be a table, got {params!r}")
        for key, value in params.items():
            if not isinstance(key, str):
                raise ScenarioFileError(f"topology param names must be strings, got {key!r}")
            if not isinstance(value, (int, float, bool, str)):
                raise ScenarioFileError(f"topology param {key!r} must be a scalar, got {value!r}")
        return cls.make(family, **dict(params))


@dataclass(frozen=True)
class GridSpec:
    """Declarative sweep grid: the cross product of every axis below.

    Expansion order is fixed (algorithm × topology × f × behaviour ×
    placement × faults × seed, innermost last) so cell indexes — and
    therefore the per-cell derived seeds — are stable for a given spec.
    The ``faults`` axis defaults to the single value ``"none"``, which
    leaves the indexing of every pre-existing grid unchanged.
    """

    name: str
    algorithms: Tuple[str, ...]
    topologies: Tuple[TopologySpec, ...]
    f_values: Tuple[int, ...] = (1,)
    behaviors: Tuple[str, ...] = ("honest",)
    placements: Tuple[str, ...] = ("random",)
    seeds: Tuple[int, ...] = (1,)
    epsilon: float = 0.25
    input_low: float = 0.0
    input_high: float = 1.0
    inputs: str = "spread"
    path_policy: str = "simple"
    rounds: int = 15
    #: Network-fault axis (``FAULTS`` registry specs).  The default single
    #: value ``"none"`` keeps the expansion — cell indexes, derived seeds and
    #: serialized form — of every pre-existing grid unchanged.
    faults: Tuple[str, ...] = ("none",)

    def validate_plugins(self) -> None:
        """Resolve every plugin name the grid references, eagerly.

        Called from :meth:`expand` — i.e. in the parent process, before any
        worker pool forks — so a typo'd behaviour/placement/topology/
        algorithm surfaces as one
        :class:`~repro.exceptions.UnknownPluginError` listing the valid
        registered names instead of a bare ``KeyError`` deep in a worker.
        """
        for algorithm in self.algorithms:
            ALGORITHMS.get(algorithm)
        for topology in self.topologies:
            TOPOLOGIES.get(topology.family)
            topology.validate_params()
        for behavior in self.behaviors:
            if behavior != NOT_APPLICABLE:
                validate_plugin_args(BEHAVIORS, behavior)
        for placement in self.placements:
            if placement != NOT_APPLICABLE:
                PLACEMENTS.get(placement)
        for fault_spec in self.faults:
            if fault_spec != NOT_APPLICABLE:
                validate_plugin_args(FAULTS, fault_spec)

    def expand(self) -> List["SweepCell"]:
        """Materialize every cell of the grid, with derived seeds attached.

        Plugin names are validated first (:meth:`validate_plugins`), so an
        unknown extension name fails here — before the pool forks — rather
        than inside a worker.
        """
        self.validate_plugins()
        cells: List[SweepCell] = []
        index = 0
        for algorithm in self.algorithms:
            for topology in self.topologies:
                for f in self.f_values:
                    for behavior in self.behaviors:
                        for placement in self.placements:
                            for fault_spec in self.faults:
                                for seed in self.seeds:
                                    cells.append(
                                        SweepCell(
                                            index=index,
                                            algorithm=algorithm,
                                            topology=topology,
                                            f=f,
                                            behavior=behavior,
                                            placement=placement,
                                            seed=seed,
                                            derived_seed=derive_cell_seed(self.name, index),
                                            faults=fault_spec,
                                        )
                                    )
                                    index += 1
        return cells

    @property
    def num_cells(self) -> int:
        return (
            len(self.algorithms)
            * len(self.topologies)
            * len(self.f_values)
            * len(self.behaviors)
            * len(self.placements)
            * len(self.faults)
            * len(self.seeds)
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "topologies": [topology.as_dict() for topology in self.topologies],
            "f_values": list(self.f_values),
            "behaviors": list(self.behaviors),
            "placements": list(self.placements),
            "seeds": list(self.seeds),
            "epsilon": self.epsilon,
            "input_low": self.input_low,
            "input_high": self.input_high,
            "inputs": self.inputs,
            "path_policy": self.path_policy,
            "rounds": self.rounds,
        }
        # Serialized only when the axis is in use: grids without faults keep
        # their pre-existing serialized form (and journal spec hashes).
        if self.faults != ("none",):
            payload["faults"] = list(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "GridSpec":
        """Inverse of :meth:`as_dict`, with schema validation.

        Lists become the tuples the frozen dataclass expects, so
        ``GridSpec.from_dict(spec.as_dict()) == spec`` exactly — including
        the cell indexing (and therefore derived seeds) of :meth:`expand`.
        Unknown keys, wrong types and empty required axes raise
        :class:`~repro.exceptions.ScenarioFileError`; plugin *names* are
        validated later, at :meth:`expand` time.
        """
        if not isinstance(payload, Mapping):
            raise ScenarioFileError(f"grid spec must be a table, got {payload!r}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioFileError(f"unknown grid-spec keys {sorted(unknown)}")

        def strings(key: str, required: bool = False) -> Optional[Tuple[str, ...]]:
            if key not in payload:
                if required:
                    raise ScenarioFileError(f"grid spec is missing required key {key!r}")
                return None
            values = payload[key]
            if (
                not isinstance(values, Sequence)
                or isinstance(values, (str, bytes))
                or not values
                or not all(isinstance(value, str) for value in values)
            ):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a non-empty list of strings, got {values!r}"
                )
            return tuple(values)

        def numbers(key: str, kind: type) -> Optional[Tuple]:
            if key not in payload:
                return None
            values = payload[key]
            if (
                not isinstance(values, Sequence)
                or isinstance(values, (str, bytes))
                or not values
                or not all(
                    isinstance(value, kind) and not isinstance(value, bool) for value in values
                )
            ):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a non-empty list of {kind.__name__}s, "
                    f"got {values!r}"
                )
            return tuple(values)

        def scalar(key: str, kind: type):
            if key not in payload:
                return None
            value = payload[key]
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ScenarioFileError(
                    f"grid-spec {key!r} must be a {kind.__name__}, got {value!r}"
                )
            return value

        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioFileError(f"grid-spec 'name' must be a non-empty string, got {name!r}")
        raw_topologies = payload.get("topologies")
        if not isinstance(raw_topologies, Sequence) or not raw_topologies:
            raise ScenarioFileError(
                f"grid-spec 'topologies' must be a non-empty list, got {raw_topologies!r}"
            )
        fields: Dict[str, object] = {
            "name": name,
            "algorithms": strings("algorithms", required=True),
            "topologies": tuple(TopologySpec.from_dict(entry) for entry in raw_topologies),
        }
        for key, value in (
            ("f_values", numbers("f_values", int)),
            ("behaviors", strings("behaviors")),
            ("placements", strings("placements")),
            ("faults", strings("faults")),
            ("seeds", numbers("seeds", int)),
            ("epsilon", scalar("epsilon", float)),
            ("input_low", scalar("input_low", float)),
            ("input_high", scalar("input_high", float)),
            ("inputs", scalar("inputs", str)),
            ("path_policy", scalar("path_policy", str)),
            ("rounds", scalar("rounds", int)),
        ):
            if value is not None:
                fields[key] = value
        return cls(**fields)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SweepCell:
    """One concrete point of a grid, with its order-independent seed."""

    index: int
    algorithm: str
    topology: TopologySpec
    f: int
    behavior: str
    placement: str
    seed: int
    derived_seed: int
    faults: str = "none"

    @property
    def label(self) -> str:
        fault_part = "" if self.faults == "none" else f"|{self.faults}"
        return (
            f"{self.algorithm}|{self.topology.label}|f={self.f}"
            f"|{self.behavior}|{self.placement}{fault_part}|s={self.seed}"
        )

    @property
    def resolved_topology(self) -> TopologySpec:
        """The buildable topology spec for this cell: the :data:`CELL_SEED`
        sentinel (if any) resolved to the cell's derived seed.  Workers build
        and cache graphs under this spec; results keep reporting the
        sentinel-form :attr:`topology` label so seed cells group together."""
        return self.topology.resolve_cell_seed(self.derived_seed)


# ----------------------------------------------------------------------
# per-cell result + aggregation
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """Normalized, JSON-serializable outcome of one cell.

    ``output_range`` is ``None`` when some honest node never decided (the
    in-memory :class:`~repro.runner.metrics.ConsensusOutcome` uses ``inf``,
    which JSON cannot represent).  Condition-check cells report zero rounds
    and messages and put their facts into ``metrics``.
    """

    index: int
    algorithm: str
    topology: str
    n: int
    f: int
    behavior: str
    placement: str
    seed: int
    derived_seed: int
    success: bool
    output_range: Optional[float] = None
    rounds: int = 0
    messages: int = 0
    simulated_time: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)
    faults: str = "none"

    @classmethod
    def from_outcome(
        cls, cell: SweepCell, graph: DiGraph, outcome: ConsensusOutcome
    ) -> "CellResult":
        observed = outcome.output_range
        metrics: Dict[str, object] = {
            "epsilon_agreement": outcome.epsilon_agreement,
            "validity": outcome.validity,
            "termination": outcome.termination,
        }
        if outcome.fault_summary:
            metrics["faults"] = dict(outcome.fault_summary)
        return cls(
            index=cell.index,
            algorithm=cell.algorithm,
            topology=cell.topology.label,
            n=graph.num_nodes,
            f=cell.f,
            behavior=cell.behavior,
            placement=cell.placement,
            seed=cell.seed,
            derived_seed=cell.derived_seed,
            success=outcome.correct,
            output_range=None if observed == float("inf") else observed,
            rounds=outcome.rounds,
            messages=outcome.messages_delivered,
            simulated_time=outcome.simulated_time,
            metrics=metrics,
            faults=cell.faults,
        )

    @property
    def group_key(self) -> Tuple[str, str, int, str, str, str]:
        """Aggregation key: every axis except the seed."""
        return (
            self.algorithm,
            self.topology,
            self.f,
            self.behavior,
            self.placement,
            self.faults,
        )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "index": self.index,
            "algorithm": self.algorithm,
            "topology": self.topology,
            "n": self.n,
            "f": self.f,
            "behavior": self.behavior,
            "placement": self.placement,
            "seed": self.seed,
            "derived_seed": self.derived_seed,
            "success": self.success,
            "output_range": self.output_range,
            "rounds": self.rounds,
            "messages": self.messages,
            "simulated_time": self.simulated_time,
            "metrics": dict(self.metrics),
        }
        # Emitted only off the default, keeping fault-free cell records (and
        # therefore every committed artifact and journal) byte-identical.
        if self.faults != "none":
            payload["faults"] = self.faults
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CellResult":
        return cls(
            index=int(payload["index"]),
            algorithm=str(payload["algorithm"]),
            topology=str(payload["topology"]),
            n=int(payload["n"]),
            f=int(payload["f"]),
            behavior=str(payload["behavior"]),
            placement=str(payload["placement"]),
            seed=int(payload["seed"]),
            derived_seed=int(payload["derived_seed"]),
            success=bool(payload["success"]),
            output_range=payload.get("output_range"),  # type: ignore[arg-type]
            rounds=int(payload.get("rounds", 0)),
            messages=int(payload.get("messages", 0)),
            simulated_time=float(payload.get("simulated_time", 0.0)),
            metrics=dict(payload.get("metrics", {})),  # type: ignore[arg-type]
            faults=str(payload.get("faults", "none")),
        )


@dataclass
class GroupAggregate:
    """Incremental aggregate of every cell sharing one group key."""

    algorithm: str
    topology: str
    f: int
    behavior: str
    placement: str
    runs: int = 0
    successes: int = 0
    total_rounds: int = 0
    total_messages: int = 0
    worst_range: float = 0.0
    undecided: int = 0
    faults: str = "none"

    def fold(self, result: CellResult) -> None:
        self.runs += 1
        self.successes += 1 if result.success else 0
        self.total_rounds += result.rounds
        self.total_messages += result.messages
        if result.output_range is None:
            self.undecided += 1
        else:
            self.worst_range = max(self.worst_range, result.output_range)

    @property
    def success_rate(self) -> float:
        return self.successes / self.runs if self.runs else 0.0

    @property
    def mean_rounds(self) -> float:
        return self.total_rounds / self.runs if self.runs else 0.0

    @property
    def mean_messages(self) -> float:
        return self.total_messages / self.runs if self.runs else 0.0

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "f": self.f,
            "behavior": self.behavior,
            "placement": self.placement,
            "runs": self.runs,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "mean_rounds": self.mean_rounds,
            "mean_messages": self.mean_messages,
            "worst_range": None if self.undecided else self.worst_range,
        }
        # Same omit-at-default rule as CellResult.as_dict.
        if self.faults != "none":
            payload["faults"] = self.faults
        return payload


def _fold_into(
    groups: Dict[Tuple[str, str, int, str, str, str], GroupAggregate], result: CellResult
) -> None:
    """Fold one cell into the group map (creating its group on first sight)."""
    key = result.group_key
    if key not in groups:
        groups[key] = GroupAggregate(
            algorithm=result.algorithm,
            topology=result.topology,
            f=result.f,
            behavior=result.behavior,
            placement=result.placement,
            faults=result.faults,
        )
    groups[key].fold(result)


def aggregate_cells(cells: Sequence[CellResult]) -> List[GroupAggregate]:
    """Fold cell results into per-group aggregates, ordered by first occurrence."""
    groups: Dict[Tuple[str, str, int, str, str, str], GroupAggregate] = {}
    for result in cells:
        _fold_into(groups, result)
    return list(groups.values())


@dataclass
class SweepRunResult:
    """Everything a sweep produced: cells in index order plus aggregates.

    ``wall_seconds`` and ``workers`` are observational — they are *not*
    serialized into artifacts, so serial and sharded runs stay byte-identical.
    """

    spec: GridSpec
    cells: List[CellResult]
    groups: List[GroupAggregate]
    workers: int = 1
    wall_seconds: float = 0.0
    #: ``None`` for a completed sweep; ``"policy:<name>"`` when a session
    #: stop policy ended the run early.  Like the timing fields, never
    #: serialized into artifacts.
    stop_reason: Optional[str] = None

    @property
    def success_rate(self) -> float:
        if not self.cells:
            return 0.0
        return sum(1 for cell in self.cells if cell.success) / len(self.cells)


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
def _default_runner() -> CellRunner:
    # lazy: scenarios imports this module (cycle)
    from repro.runner.scenarios import run_cell

    return run_cell


class SweepEngine:
    """The default cell source: run a grid's cells serially or on a pool.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) runs in-process;
        larger values shard cells across a ``multiprocessing`` pool in
        chunked batches.  Results are identical either way.
    chunk_size:
        Cells per pool task.  Defaults to ``ceil(cells / (workers * 4))`` so
        each worker receives a handful of batches (amortizing IPC overhead
        while keeping the shards balanced).
    runner:
        The cell function; defaults to the scenario registry's
        :func:`~repro.runner.scenarios.run_cell`.  It must be a picklable
        module-level callable when ``workers > 1``.
    """

    def __init__(
        self,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        runner: Optional[CellRunner] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.runner = runner

    def stream(
        self,
        spec: GridSpec,
        cells: Optional[Sequence[SweepCell]] = None,
    ) -> Iterator[CellResult]:
        """Yield every :class:`CellResult` as it completes, in cell-index order.

        This generator is the cell-source protocol
        :class:`~repro.runner.session.ExperimentSession` drains: the serial
        path and the sharded ``workers > 1`` path yield the *identical*
        result stream (same cells, same order), so the session's events,
        journal and artifact never depend on the worker count.  On the
        sharded path, results arriving out of order are held back until
        every earlier index has been yielded.

        ``cells`` restricts execution to a subset of the grid (resume runs
        pass the not-yet-completed cells); it defaults to the full
        expansion.  The worker pool lives inside a ``with`` block, so
        closing the generator early — or throwing :class:`StopSweep` into
        it — tears the pool down deterministically instead of leaking
        worker processes.
        """
        default_runner = _default_runner()
        using_default = self.runner is None or self.runner is default_runner
        runner = self.runner or default_runner
        if cells is None:
            cells = spec.expand()
        else:
            cells = sorted(cells, key=lambda cell: cell.index)
        if self.workers == 1 or len(cells) <= 1:
            for cell in cells:
                yield runner(spec, cell)
            return
        if using_default:
            # Build every needed topology object once in the parent so
            # fork-based workers inherit them copy-on-write instead of
            # each rebuilding the expensive precomputation.  Lazy:
            # worker_cache imports this module (cycle).
            from repro.runner.worker_cache import warm_worker_caches

            warm_worker_caches(spec, cells)
        chunk = self.chunk_size or max(1, math.ceil(len(cells) / (self.workers * 4)))
        # Dispatch same-topology cells contiguously so each chunk — and
        # therefore each worker — builds a topology's graph / bitmask
        # index / TopologyKnowledge at most once (the worker-global cache
        # in repro.runner.worker_cache keeps them warm across its chunks).
        # Completed results are released in cell-index order via the
        # hold-back buffer below, so the stream — and any artifact folded
        # from it — stays byte-identical to the serial run.
        dispatch_order = sorted(
            cells, key=lambda cell: (cell.topology.label, cell.f, cell.algorithm, cell.index)
        )
        expected = [cell.index for cell in cells]
        held_back: Dict[int, CellResult] = {}
        position = 0
        with multiprocessing.Pool(processes=self.workers) as pool:
            for result in pool.imap(
                functools.partial(runner, spec), dispatch_order, chunksize=chunk
            ):
                held_back[result.index] = result
                while position < len(expected) and expected[position] in held_back:
                    yield held_back.pop(expected[position])
                    position += 1


__all__ = [
    "CELL_SEED",
    "NOT_APPLICABLE",
    "CellResult",
    "CellRunner",
    "StopSweep",
    "GridSpec",
    "GroupAggregate",
    "SweepCell",
    "SweepEngine",
    "SweepRunResult",
    "TopologySpec",
    "aggregate_cells",
    "derive_cell_seed",
    "random_inputs",
    "spread_inputs",
]
