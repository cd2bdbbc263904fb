"""Deterministic network fault schedules (the ``FAULTS`` registry).

The paper's system model idealizes the network: links are reliable and every
message is eventually delivered.  This module supplies the *fault-injection*
layer that relaxes those assumptions in a controlled, reproducible way: a
fault **policy** (addressable by a ``name[:arg,...]`` plugin spec, like every
other axis) compiles — per graph and per cell seed — into a fault
**schedule**: link down/up windows, node crash/recover windows, per-message
loss with retry/backoff, and bounded duplication.  The simulator folds the
schedule's control events into its tuple-heap event stream, so fault timing
composes with message timing under one clock.

Determinism
-----------
Schedules are pure functions of ``(policy spec, graph, seed)``: compilation
iterates edges and nodes in a sorted order and draws from a private
``random.Random`` seeded by hashing the cell seed (never from the
simulator's delay RNG).  Runtime draws (loss, duplication) come from a
second private stream.  A *zero-intensity* schedule (rate or probability
``0``) compiles to an **inactive** schedule: the simulator takes its
ordinary fast path, consumes exactly the same RNG stream, and produces
byte-identical results to a run with no fault schedule at all.

In-flight message semantics (normative)
---------------------------------------
What happens to messages when the fault schedule intervenes:

* **Sender node down** — the send is *suppressed*: a crashed node emits
  nothing during its outage (counted in ``suppressed_messages``).
* **Link down at send time** — governed by the schedule's ``on_down``
  policy:

  - ``"drop"``: the message is lost (counted in ``dropped_messages``);
  - ``"defer"`` (the default): the message is buffered on the link and
    re-enters the network when the link comes back up, with a *fresh*
    latency drawn from the delay model at the up instant.  Deferred
    messages whose link never recovers within the schedule horizon are
    lost.

* **Link goes down while a message is in flight** — the same ``on_down``
  policy applies at delivery time: ``"drop"`` loses the in-flight message;
  ``"defer"`` re-buffers it until the link recovers.
* **Receiver node down at delivery time** — the message is lost (counted
  in ``dropped_messages``); a recovering node resumes with its protocol
  state intact but never sees messages delivered during its outage.
  Pending local timers of a down node are suppressed, not deferred.
* **Message loss with retry** (``drop`` policy) — each transmission attempt
  is lost independently with the configured probability; the sender
  retransmits with capped exponential backoff up to ``max_retries`` times
  (the process layer's retry semantics, computed in closed form at send
  time).  Only when *every* attempt is lost does the message drop, so BW
  degrades gradually under loss instead of deadlocking.
* **Duplication** — after a successful transmission the link duplicates the
  message with the configured probability; the copy draws its own latency,
  so duplicates arrive out of order (protocols must be idempotent, which
  the paper's flooding layers are).

Every compiled schedule exposes its control-event trace
(:meth:`FaultSchedule.trace`) and a stable digest of it
(:meth:`FaultSchedule.trace_digest`), which experiment metrics record so
serial, sharded and resumed runs can be checked for identical fault
timelines.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.exceptions import ExperimentError
from repro.graphs.digraph import DiGraph
from repro.registry import FAULTS, parse_plugin_spec, validate_plugin_args

NodeId = Hashable
EdgeKey = Tuple[NodeId, NodeId]

#: Control-event actions, as they appear in :meth:`FaultSchedule.trace`.
LINK_DOWN = "link-down"
LINK_UP = "link-up"
NODE_DOWN = "node-down"
NODE_UP = "node-up"

#: Spec string meaning "no fault schedule" (the default of the sweep axis).
NO_FAULTS = "none"

#: Default horizon (simulated time units) over which windows are scheduled.
DEFAULT_HORIZON = 50.0


def derive_fault_seed(seed: Optional[int], purpose: str) -> int:
    """A private RNG seed for fault machinery, decorrelated from ``seed``.

    The simulator's delay RNG is seeded with the cell seed directly; fault
    streams hash the seed so the two never replay the same sequence.
    """
    digest = hashlib.sha256(f"faults:{purpose}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class FaultSchedule:
    """A compiled, graph-specific fault plan for one simulation.

    Instances are produced by :meth:`FaultPolicy.build`; the simulator
    consumes :meth:`control_events` plus the loss/duplication parameters.
    ``active`` is ``False`` for zero-intensity schedules, in which case the
    simulator behaves exactly as if no schedule were attached.
    """

    def __init__(
        self,
        policy: str,
        *,
        link_windows: Optional[Dict[EdgeKey, List[Tuple[float, float]]]] = None,
        node_windows: Optional[Dict[NodeId, List[Tuple[float, float]]]] = None,
        drop_probability: float = 0.0,
        max_retries: int = 0,
        retry_backoff: float = 0.0,
        duplicate_probability: float = 0.0,
        on_down: str = "defer",
        delay_spec: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> None:
        if on_down not in ("defer", "drop"):
            raise ExperimentError(
                f"fault schedule on_down policy must be 'defer' or 'drop', got {on_down!r}"
            )
        if not 0.0 <= drop_probability < 1.0:
            raise ExperimentError("drop probability must be in [0, 1)")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ExperimentError("duplicate probability must be in [0, 1)")
        if max_retries < 0 or retry_backoff < 0:
            raise ExperimentError("retries and backoff must be non-negative")
        self.policy = policy
        self.link_windows = dict(link_windows or {})
        self.node_windows = dict(node_windows or {})
        self.drop_probability = float(drop_probability)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.duplicate_probability = float(duplicate_probability)
        self.on_down = on_down
        self.delay_spec = delay_spec
        self.seed = seed

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the schedule can perturb a run at all (zero-intensity → ``False``)."""
        return bool(
            self.link_windows
            or self.node_windows
            or self.drop_probability > 0.0
            or self.duplicate_probability > 0.0
        )

    def runtime_seed(self) -> int:
        """Seed of the per-message (loss/duplication) RNG stream."""
        return derive_fault_seed(self.seed, "runtime")

    def trace(self) -> Tuple[Tuple[float, str, str], ...]:
        """The deterministic control-event timeline: ``(time, action, subject)``.

        Subjects are rendered as strings (``"a->b"`` for links) so the trace
        is JSON-stable regardless of node id types.
        """
        events: List[Tuple[float, str, str]] = []
        for (sender, receiver), windows in sorted(self.link_windows.items(), key=repr):
            label = f"{sender}->{receiver}"
            for start, end in windows:
                events.append((start, LINK_DOWN, label))
                events.append((end, LINK_UP, label))
        for node, windows in sorted(self.node_windows.items(), key=repr):
            label = str(node)
            for start, end in windows:
                events.append((start, NODE_DOWN, label))
                events.append((end, NODE_UP, label))
        events.sort()
        return tuple(events)

    def trace_digest(self, trace: Optional[Tuple[Tuple[float, str, str], ...]] = None) -> str:
        """SHA-256 of the canonical trace JSON (stable across processes).

        ``trace`` is this schedule's :meth:`trace` when the caller has
        already rendered it; it is rendered here otherwise.
        """
        if trace is None:
            trace = self.trace()
        blob = json.dumps(trace, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def control_events(self) -> Tuple[Tuple[float, str, Any], ...]:
        """Control events with *raw* subjects (edge tuples / node ids), sorted.

        This is the form the simulator compiles into its event heap; the
        string-rendered :meth:`trace` is for provenance.
        """
        events: List[Tuple[float, str, Any]] = []
        for edge, windows in sorted(self.link_windows.items(), key=repr):
            for start, end in windows:
                events.append((start, LINK_DOWN, edge))
                events.append((end, LINK_UP, edge))
        for node, windows in sorted(self.node_windows.items(), key=repr):
            for start, end in windows:
                events.append((start, NODE_DOWN, node))
                events.append((end, NODE_UP, node))
        events.sort(key=lambda event: (event[0], event[1], repr(event[2])))
        return tuple(events)

    def describe(self) -> str:
        return (
            f"faults({self.policy}, links={len(self.link_windows)}, "
            f"nodes={len(self.node_windows)}, drop={self.drop_probability}, "
            f"dup={self.duplicate_probability}, on_down={self.on_down})"
        )


class FaultPolicy:
    """A named, parametrized fault family; ``build`` compiles it per cell.

    Subclasses override :meth:`build`.  ``spec`` is the plugin spec string
    the policy was created from (recorded in provenance); ``delay_spec``
    optionally overrides the experiment's delay model (used by the
    congestion policy).
    """

    spec: str = NO_FAULTS
    delay_spec: Optional[str] = None

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        raise NotImplementedError

    def describe(self) -> str:
        return self.spec


def _validated_rate(value: Any, name: str, upper_inclusive: bool = True) -> float:
    rate = float(value)
    top_ok = rate <= 1.0 if upper_inclusive else rate < 1.0
    if not (0.0 <= rate and top_ok):
        bound = "1" if upper_inclusive else "1 (exclusive)"
        raise ExperimentError(f"fault {name} must be between 0 and {bound}, got {rate}")
    return rate


def _positive(value: Any, name: str) -> float:
    number = float(value)
    if number <= 0:
        raise ExperimentError(f"fault {name} must be positive, got {number}")
    return number


class NoFaultsPolicy(FaultPolicy):
    """The identity policy: compiles to an inactive schedule."""

    spec = NO_FAULTS

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        return FaultSchedule(self.spec, seed=seed)


class LinkFlapPolicy(FaultPolicy):
    """Periodic link outages: each directed edge flaps independently.

    With probability ``rate`` an edge gets periodic down windows of length
    ``downtime`` repeating every ``period`` until ``horizon``, phase drawn
    uniformly per edge.  ``on_down`` selects the in-flight semantics
    (``defer`` or ``drop``, see the module docstring).
    """

    def __init__(
        self,
        rate: float = 0.2,
        downtime: float = 4.0,
        period: float = 12.0,
        on_down: str = "defer",
        horizon: float = DEFAULT_HORIZON,
    ) -> None:
        self.rate = _validated_rate(rate, "link-flap rate")
        self.downtime = _positive(downtime, "downtime")
        self.period = _positive(period, "period")
        if self.downtime >= self.period:
            raise ExperimentError("link-flap downtime must be shorter than the period")
        self.on_down = str(on_down)
        self.horizon = _positive(horizon, "horizon")

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        rng = random.Random(derive_fault_seed(seed, f"link-flap:{self.spec}"))
        link_windows: Dict[EdgeKey, List[Tuple[float, float]]] = {}
        if self.rate > 0.0:
            for edge in sorted(graph.edges, key=repr):
                if rng.random() >= self.rate:
                    continue
                phase = rng.uniform(0.0, self.period)
                windows: List[Tuple[float, float]] = []
                start = phase
                while start < self.horizon:
                    windows.append((start, min(start + self.downtime, self.horizon)))
                    start += self.period
                if windows:
                    link_windows[edge] = windows
        return FaultSchedule(
            self.spec, link_windows=link_windows, on_down=self.on_down, seed=seed
        )


class ChurnPolicy(FaultPolicy):
    """Node crash/recover churn: each node leaves once, mid-run.

    With probability ``rate`` a node crashes at a uniformly drawn instant in
    ``(0, horizon - downtime)`` and recovers ``downtime`` later.  While down
    it sends nothing, loses incoming messages and pending timers, then
    resumes with its protocol state intact (see the module docstring).
    """

    def __init__(
        self, rate: float = 0.2, downtime: float = 8.0, horizon: float = DEFAULT_HORIZON
    ) -> None:
        self.rate = _validated_rate(rate, "churn rate")
        self.downtime = _positive(downtime, "downtime")
        self.horizon = _positive(horizon, "horizon")
        if self.downtime >= self.horizon:
            raise ExperimentError("churn downtime must be shorter than the horizon")

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        rng = random.Random(derive_fault_seed(seed, f"churn:{self.spec}"))
        node_windows: Dict[NodeId, List[Tuple[float, float]]] = {}
        if self.rate > 0.0:
            for node in sorted(graph.nodes, key=repr):
                if rng.random() >= self.rate:
                    continue
                start = rng.uniform(0.0, self.horizon - self.downtime)
                node_windows[node] = [(start, start + self.downtime)]
        return FaultSchedule(self.spec, node_windows=node_windows, seed=seed)


class DropPolicy(FaultPolicy):
    """Per-attempt message loss with capped-exponential retry at the sender."""

    def __init__(self, probability: float = 0.05, retries: int = 3, backoff: float = 0.25) -> None:
        self.probability = _validated_rate(probability, "drop probability", upper_inclusive=False)
        self.retries = int(retries)
        self.backoff = float(backoff)
        if self.retries < 0 or self.backoff < 0:
            raise ExperimentError("drop retries and backoff must be non-negative")

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        return FaultSchedule(
            self.spec,
            drop_probability=self.probability,
            max_retries=self.retries,
            retry_backoff=self.backoff,
            seed=seed,
        )


class DuplicatePolicy(FaultPolicy):
    """Bounded-probability message duplication (at most one copy per send)."""

    def __init__(self, probability: float = 0.05) -> None:
        self.probability = _validated_rate(
            probability, "duplicate probability", upper_inclusive=False
        )

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        return FaultSchedule(self.spec, duplicate_probability=self.probability, seed=seed)


class CongestionPolicy(FaultPolicy):
    """Queueing delay growing with per-link in-flight count (no control events).

    Swaps the experiment's delay model for
    :class:`~repro.network.delays.CongestionDelay`: latency is the usual
    uniform base draw plus ``slope`` per message already in flight on the
    link, capped at ``cap``.  ``slope=0`` is byte-identical to the default
    uniform model (same RNG consumption).
    """

    def __init__(self, slope: float = 0.05, cap: float = 4.0) -> None:
        if float(slope) < 0 or float(cap) < 0:
            raise ExperimentError("congestion slope and cap must be non-negative")
        self.slope = float(slope)
        self.cap = float(cap)
        self.delay_spec = f"congestion:0.5,2.0,{self.slope},{self.cap}"

    def build(self, graph: DiGraph, seed: Optional[int]) -> FaultSchedule:
        return FaultSchedule(self.spec, delay_spec=self.delay_spec, seed=seed)


# ----------------------------------------------------------------------
# registry: fault policies addressable by (optionally parametrized) name,
# e.g. "churn:0.3,8" or "drop:0.1,3,0.25"
# ----------------------------------------------------------------------
def make_faults(spec: str) -> FaultPolicy:
    """Build a fault policy from a ``name[:arg,...]`` plugin spec string."""
    validate_plugin_args(FAULTS, spec)
    name, args = parse_plugin_spec(spec)
    policy = FAULTS.get(name)(*args)
    policy.spec = spec
    return policy


def _register_faults() -> None:
    def entry(name, factory, summary, params=(), min_params=0):
        FAULTS.register(
            name,
            factory,
            summary=summary,
            metadata={"params": tuple(params), "min_params": min_params},
        )

    entry(
        NO_FAULTS,
        lambda: NoFaultsPolicy(),
        "no fault schedule (the axis default)",
    )
    entry(
        "link-flap",
        lambda rate=0.2, downtime=4.0, period=12.0, on_down="defer", horizon=DEFAULT_HORIZON: LinkFlapPolicy(
            rate, downtime, period, on_down, horizon
        ),
        "periodic per-edge outages; on_down selects defer/drop in-flight semantics",
        params=("rate", "downtime", "period", "on_down", "horizon"),
    )
    entry(
        "churn",
        lambda rate=0.2, downtime=8.0, horizon=DEFAULT_HORIZON: ChurnPolicy(
            rate, downtime, horizon
        ),
        "node crash/recover windows: each node leaves once with probability `rate`",
        params=("rate", "downtime", "horizon"),
    )
    entry(
        "drop",
        lambda probability=0.05, retries=3, backoff=0.25: DropPolicy(
            probability, retries, backoff
        ),
        "per-attempt message loss with capped exponential sender retry",
        params=("probability", "retries", "backoff"),
    )
    entry(
        "duplicate",
        lambda probability=0.05: DuplicatePolicy(probability),
        "bounded-probability message duplication",
        params=("probability",),
    )
    entry(
        "congestion",
        lambda slope=0.05, cap=4.0: CongestionPolicy(slope, cap),
        "queueing delay growing with per-link in-flight count (CongestionDelay)",
        params=("slope", "cap"),
    )


_register_faults()
