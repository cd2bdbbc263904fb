"""Link-delay models for the asynchronous simulator.

Asynchrony in the paper means "reliable links, delays finite but unknown a
priori".  A :class:`DelayModel` decides the latency of each transmission; the
simulator remains oblivious to the policy.  Besides the benign stochastic
models, :class:`TargetedDelay` implements the adversarial schedule used in
the necessity proof of Theorem 18, where the messages crossing a chosen edge
set are held back beyond the algorithm's decision horizon.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.registry import DELAYS, parse_plugin_spec, validate_plugin_args

NodeId = Any
EdgeKey = Tuple[NodeId, NodeId]


def _check_edges_exist(graph: Any, edges: Iterable[EdgeKey], owner: str) -> None:
    """Raise :class:`ExperimentError` naming every edge absent from ``graph``."""
    unknown: List[EdgeKey] = [
        edge for edge in sorted(edges, key=repr) if not graph.has_edge(edge[0], edge[1])
    ]
    if unknown:
        rendered = ", ".join(f"{sender!r}->{receiver!r}" for sender, receiver in unknown)
        raise ExperimentError(
            f"{owner} references link(s) not in the graph: {rendered} "
            f"(check for typos in the edge keys)"
        )


class DelayModel(ABC):
    """Policy deciding the latency of every link transmission."""

    @abstractmethod
    def delay(self, sender: NodeId, receiver: NodeId, payload: Any, time: float, rng: random.Random) -> float:
        """Latency (strictly positive) for a payload sent on ``(sender, receiver)`` at ``time``."""

    def validate(self, graph: Any) -> None:
        """Check the model's configuration against the communication graph.

        The simulator calls this at construction so misconfigured models
        (e.g. a typo'd edge key) fail fast with an
        :class:`~repro.exceptions.ExperimentError` instead of silently
        falling back to a default.  The base implementation accepts any
        graph.
        """

    def describe(self) -> str:
        """Short human-readable description used in experiment reports."""
        return type(self).__name__


class ConstantDelay(DelayModel):
    """Every transmission takes exactly ``latency`` time units."""

    def __init__(self, latency: float = 1.0) -> None:
        if latency <= 0:
            raise ValueError("latency must be positive")
        self.latency = latency

    def delay(self, sender, receiver, payload, time, rng) -> float:
        return self.latency

    def describe(self) -> str:
        return f"constant({self.latency})"


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]`` per transmission."""

    def __init__(self, low: float = 0.5, high: float = 2.0) -> None:
        if low <= 0 or high < low:
            raise ValueError("need 0 < low <= high")
        self.low = low
        self.high = high

    def delay(self, sender, receiver, payload, time, rng) -> float:
        return rng.uniform(self.low, self.high)

    def describe(self) -> str:
        return f"uniform({self.low}, {self.high})"


class ExponentialDelay(DelayModel):
    """Latency ``minimum + Exp(mean)`` — a heavy-ish tail stressing asynchrony."""

    def __init__(self, mean: float = 1.0, minimum: float = 0.05) -> None:
        if mean <= 0 or minimum < 0:
            raise ValueError("mean must be positive and minimum non-negative")
        self.mean = mean
        self.minimum = minimum

    def delay(self, sender, receiver, payload, time, rng) -> float:
        return self.minimum + rng.expovariate(1.0 / self.mean)

    def describe(self) -> str:
        return f"exponential(mean={self.mean})"


class PerLinkDelay(DelayModel):
    """Different delay models per directed edge, with a default fallback.

    Passing ``graph`` checks the override keys immediately; the simulator
    re-validates against its own graph either way, so a typo'd edge key
    raises an :class:`~repro.exceptions.ExperimentError` instead of the
    override silently never matching.
    """

    def __init__(
        self,
        default: DelayModel,
        overrides: Optional[Dict[EdgeKey, DelayModel]] = None,
        graph: Optional[Any] = None,
    ) -> None:
        self.default = default
        self.overrides: Dict[EdgeKey, DelayModel] = dict(overrides or {})
        self._graph = graph
        if graph is not None:
            self.validate(graph)

    def set_link(self, sender: NodeId, receiver: NodeId, model: DelayModel) -> None:
        """Override the delay model of one directed link."""
        if self._graph is not None and not self._graph.has_edge(sender, receiver):
            raise ExperimentError(
                f"PerLinkDelay references link(s) not in the graph: {sender!r}->{receiver!r} "
                f"(check for typos in the edge keys)"
            )
        self.overrides[(sender, receiver)] = model

    def validate(self, graph: Any) -> None:
        _check_edges_exist(graph, self.overrides, "PerLinkDelay")

    def delay(self, sender, receiver, payload, time, rng) -> float:
        model = self.overrides.get((sender, receiver), self.default)
        return model.delay(sender, receiver, payload, time, rng)

    def describe(self) -> str:
        return f"per-link(default={self.default.describe()}, overrides={len(self.overrides)})"


class TargetedDelay(DelayModel):
    """Hold back every message crossing a chosen edge set until ``release_time``.

    This is the scheduler of execution ``e3`` in the proof of Theorem 18: the
    messages over ``E(Fv, reach_v(F ∪ Fv))`` and ``E(Fu, reach_u(F ∪ Fu))``
    are delayed beyond the point where the algorithm must have decided, so
    the two nodes' views coincide with the fault-free executions ``e1``/``e2``.
    """

    def __init__(
        self,
        slow_edges: Iterable[EdgeKey],
        release_time: float,
        fast_model: Optional[DelayModel] = None,
        graph: Optional[Any] = None,
    ) -> None:
        self.slow_edges: FrozenSet[EdgeKey] = frozenset(slow_edges)
        if release_time <= 0:
            raise ValueError("release_time must be positive")
        self.release_time = release_time
        self.fast_model = fast_model or ConstantDelay(0.1)
        if graph is not None:
            self.validate(graph)

    def validate(self, graph: Any) -> None:
        _check_edges_exist(graph, self.slow_edges, "TargetedDelay")

    def delay(self, sender, receiver, payload, time, rng) -> float:
        if (sender, receiver) in self.slow_edges:
            return max(self.release_time - time, self.release_time)
        return self.fast_model.delay(sender, receiver, payload, time, rng)

    def describe(self) -> str:
        return (
            f"targeted(slow_edges={len(self.slow_edges)}, release={self.release_time}, "
            f"fast={self.fast_model.describe()})"
        )


class JitteredPerReceiverDelay(DelayModel):
    """Deterministic-but-heterogeneous delays: each receiver has its own pace.

    Useful for reproducible experiments where nodes progress at visibly
    different speeds without randomness (delays depend only on the receiver's
    hash), exercising the event-driven round structure of the algorithm.
    """

    def __init__(self, base: float = 0.5, spread: float = 1.5) -> None:
        if base <= 0 or spread < 0:
            raise ValueError("base must be positive and spread non-negative")
        self.base = base
        self.spread = spread

    def delay(self, sender, receiver, payload, time, rng) -> float:
        weight = (hash(receiver) % 997) / 997.0
        return self.base + self.spread * weight

    def describe(self) -> str:
        return f"jittered(base={self.base}, spread={self.spread})"


class CongestionDelay(DelayModel):
    """Queueing delay that grows with the link's in-flight message count.

    Latency is the usual uniform base draw plus ``slope`` per message
    already in flight on the directed link, capped at ``cap`` — the
    router-buffer model where a loaded queue stretches every transit.  The
    simulator notices ``needs_link_load`` and binds a probe returning the
    current in-flight count; unbound (e.g. unit tests calling
    :meth:`delay` directly) the model degrades to its base distribution.

    With ``slope=0`` the model consumes exactly one uniform draw per send —
    the same RNG stream as :class:`UniformDelay` — so a zero-intensity
    congestion schedule is byte-identical to the experiment default.
    """

    #: The simulator tracks per-link in-flight counts only when the delay
    #: model asks for them (this attribute), keeping the default send path
    #: free of bookkeeping.
    needs_link_load = True

    def __init__(
        self, low: float = 0.5, high: float = 2.0, slope: float = 0.05, cap: float = 4.0
    ) -> None:
        if low <= 0 or high < low:
            raise ValueError("need 0 < low <= high")
        if slope < 0 or cap < 0:
            raise ValueError("slope and cap must be non-negative")
        self.low = low
        self.high = high
        self.slope = slope
        self.cap = cap
        self._load_probe: Optional[Callable[[NodeId, NodeId], int]] = None

    def bind_load_probe(self, probe: Callable[[NodeId, NodeId], int]) -> None:
        """Attach the simulator's in-flight-count probe for ``(sender, receiver)``."""
        self._load_probe = probe

    def delay(self, sender, receiver, payload, time, rng) -> float:
        base = rng.uniform(self.low, self.high)
        if self.slope == 0.0 or self._load_probe is None:
            return base
        load = self._load_probe(sender, receiver)
        return base + min(self.cap, self.slope * load)

    def describe(self) -> str:
        return f"congestion(base=[{self.low}, {self.high}], slope={self.slope}, cap={self.cap})"


# ----------------------------------------------------------------------
# registry: delay models addressable by (optionally parametrized) name,
# e.g. "uniform:0.5,2.0" or "constant:1.0"
# ----------------------------------------------------------------------
def make_delay(spec: str) -> DelayModel:
    """Build a delay model from a ``name[:arg,...]`` plugin spec string."""
    validate_plugin_args(DELAYS, spec)
    name, args = parse_plugin_spec(spec)
    return DELAYS.get(name)(*args)


def _register_delays() -> None:
    def entry(name, factory, summary, params=(), min_params=0):
        DELAYS.register(
            name,
            factory,
            summary=summary,
            metadata={"params": tuple(params), "min_params": min_params},
        )

    entry(
        "constant",
        lambda latency=1.0: ConstantDelay(latency),
        "every transmission takes exactly `latency`",
        params=("latency",),
    )
    entry(
        "uniform",
        lambda low=0.5, high=2.0: UniformDelay(low, high),
        "latency uniform in [low, high] (the experiment default)",
        params=("low", "high"),
    )
    entry(
        "exponential",
        lambda mean=1.0, minimum=0.05: ExponentialDelay(mean, minimum),
        "latency minimum + Exp(mean) — heavy-ish tail",
        params=("mean", "minimum"),
    )
    entry(
        "jittered",
        lambda base=0.5, spread=1.5: JitteredPerReceiverDelay(base, spread),
        "deterministic per-receiver pace (no randomness)",
        params=("base", "spread"),
    )
    entry(
        "congestion",
        lambda low=0.5, high=2.0, slope=0.05, cap=4.0: CongestionDelay(low, high, slope, cap),
        "uniform base plus `slope` per in-flight message on the link, capped at `cap`",
        params=("low", "high", "slope", "cap"),
    )


_register_delays()
