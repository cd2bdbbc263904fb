"""Typed extension registries: the library's pluggable surface.

Every axis a sweep grid can vary over — topology families, Byzantine
behaviours, fault placements, algorithms, delay models — resolves through a
:class:`Registry`.  The built-in extensions register themselves from their
home modules (:mod:`repro.graphs.generators`, :mod:`repro.adversary.behaviors`,
:mod:`repro.adversary.placement`, :mod:`repro.runner.algorithms`,
:mod:`repro.network.delays`); third-party code registers the same way and is
then addressable by name from any :class:`~repro.runner.harness.GridSpec` or
scenario TOML file without touching engine internals::

    from repro.registry import TOPOLOGIES

    @TOPOLOGIES.register("ring-of-cliques", summary="k cliques in a ring")
    def ring_of_cliques(k: int, clique_size: int) -> DiGraph:
        ...

Names — never the registered callables — travel between worker processes, so
a registered extension only needs to be importable (or already registered,
e.g. inherited over ``fork``) in the worker; nothing is pickled.

Parametrized plugin specs use ``name:arg1,arg2`` syntax (e.g.
``behavior="offset:2.5"``); :func:`parse_plugin_spec` splits and converts the
arguments.  Lookups of unregistered names raise
:class:`~repro.exceptions.UnknownPluginError` with a did-you-mean suggestion
and the full list of valid names.
"""

from __future__ import annotations

import difflib
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.exceptions import ExperimentError, RegistryError, UnknownPluginError

T = TypeVar("T")


@dataclass(frozen=True)
class RegistryEntry(Generic[T]):
    """One registered extension: the object plus its documentation metadata.

    ``summary`` is the one-line description shown by
    ``python -m repro.runner list --plugins``; ``metadata`` carries
    registry-specific structured facts (e.g. a behaviour's parameter schema
    or its synchronous-model equivalent).
    """

    name: str
    obj: T
    summary: str = ""
    metadata: Mapping[str, object] = field(default_factory=dict)


class Registry(Generic[T]):
    """A named mapping of extension points with did-you-mean lookups.

    Parameters
    ----------
    kind:
        Singular noun used in error messages and docs ("topology",
        "behavior", ...); ``plural`` overrides the default ``kind + "s"``.
    providers:
        Module names imported lazily on first lookup; each provider module
        registers the built-in extensions of its kind at import time.  Lazy
        loading keeps :mod:`repro.registry` import-cycle-free (it imports
        nothing but the exception hierarchy).
    """

    def __init__(
        self, kind: str, providers: Sequence[str] = (), plural: Optional[str] = None
    ) -> None:
        self.kind = kind
        self.plural = plural or f"{kind}s"
        self._providers: Tuple[str, ...] = tuple(providers)
        self._entries: Dict[str, RegistryEntry[T]] = {}
        self._frozen = False
        self._loaded = False

    # -- population -----------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in self._providers:
            importlib.import_module(module)

    def register(
        self,
        name: str,
        obj: Optional[T] = None,
        *,
        summary: str = "",
        metadata: Optional[Mapping[str, object]] = None,
        replace: bool = False,
    ) -> Union[T, Callable[[T], T]]:
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Duplicate names raise :class:`~repro.exceptions.RegistryError` unless
        ``replace=True``; so does registering into a frozen registry.
        """
        if obj is None:

            def decorator(target: T) -> T:
                self.register(name, target, summary=summary, metadata=metadata, replace=replace)
                return target

            return decorator
        if self._frozen:
            raise RegistryError(f"{self.kind} registry is frozen; cannot register {name!r}")
        if not replace and name in self._entries:
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        if not summary:
            doc = getattr(obj, "__doc__", None) or ""
            summary = doc.strip().splitlines()[0] if doc.strip() else ""
        self._entries[name] = RegistryEntry(
            name=name, obj=obj, summary=summary, metadata=dict(metadata or {})
        )
        return obj

    def unregister(self, name: str) -> None:
        """Remove one registration (test teardown; frozen registries refuse)."""
        if self._frozen:
            raise RegistryError(f"{self.kind} registry is frozen; cannot unregister {name!r}")
        self._ensure_loaded()
        if name not in self._entries:
            raise self._unknown(name)
        del self._entries[name]

    @contextmanager
    def temporarily(
        self,
        name: str,
        obj: T,
        *,
        summary: str = "",
        metadata: Optional[Mapping[str, object]] = None,
    ):
        """Context manager registering ``obj`` for the block only (tests)."""
        self.register(name, obj, summary=summary, metadata=metadata)
        try:
            yield obj
        finally:
            self._entries.pop(name, None)

    # -- freezing (tests pin the plugin surface against accidental edits) --
    def freeze(self) -> None:
        """Refuse further (un)registrations until :meth:`unfreeze`."""
        self._ensure_loaded()
        self._frozen = True

    def unfreeze(self) -> None:
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    # -- lookup ---------------------------------------------------------
    def _unknown(self, name: object) -> UnknownPluginError:
        known = self.names()
        suggestion = None
        if isinstance(name, str) and known:
            close = difflib.get_close_matches(name, known, n=1, cutoff=0.6)
            suggestion = close[0] if close else None
        return UnknownPluginError(
            self.kind, name, known=known, suggestion=suggestion, plural=self.plural
        )

    def entry(self, name: str) -> RegistryEntry[T]:
        """The full :class:`RegistryEntry` of ``name`` (metadata included)."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise self._unknown(name) from None

    def get(self, name: str) -> T:
        """The registered object, or :class:`UnknownPluginError` with a
        did-you-mean suggestion listing every valid name."""
        return self.entry(name).obj

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        self._ensure_loaded()
        return list(self._entries)

    def entries(self) -> List[RegistryEntry[T]]:
        """Every entry, in registration order (the ``--plugins`` listing)."""
        self._ensure_loaded()
        return list(self._entries.values())

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, names={self.names()!r})"


# ----------------------------------------------------------------------
# parametrized plugin specs:  "offset:2.5", "random:-1e3,1e3", "replay:3"
# ----------------------------------------------------------------------
def _parse_arg(token: str) -> Union[int, float, bool, str]:
    text = token.strip()
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_plugin_spec(spec: str) -> Tuple[str, Tuple[object, ...]]:
    """Split ``"name:arg1,arg2"`` into ``("name", (arg1, arg2))``.

    Arguments are converted to ``int``/``float``/``bool`` when they parse as
    one (ints before floats, so ``replay:3`` yields an integer) and kept as
    strings otherwise.  A bare ``"name"`` yields an empty argument tuple.
    """
    if not isinstance(spec, str) or not spec:
        raise ExperimentError(f"plugin spec must be a non-empty string, got {spec!r}")
    name, _, arg_text = spec.partition(":")
    name = name.strip()
    if not name:
        raise ExperimentError(f"plugin spec {spec!r} has an empty name")
    if not arg_text:
        return name, ()
    return name, tuple(_parse_arg(token) for token in arg_text.split(","))


def validate_plugin_args(registry: Registry, spec: str) -> RegistryEntry:
    """Check a parametrized spec against the entry's declared parameter schema.

    The entry's metadata declares ``params`` (tuple of parameter names, in
    call order) and optionally ``min_params`` (how many are required;
    defaults to 0, i.e. every parameter has a default).  Raises
    :class:`UnknownPluginError` for unknown names and
    :class:`~repro.exceptions.ExperimentError` for arity mismatches.
    """
    name, args = parse_plugin_spec(spec)
    entry = registry.entry(name)
    params = tuple(entry.metadata.get("params", ()))
    minimum = int(entry.metadata.get("min_params", 0))
    if len(args) < minimum or len(args) > len(params):
        expected = (
            f"between {minimum} and {len(params)}" if minimum != len(params) else f"{minimum}"
        )
        raise ExperimentError(
            f"{registry.kind} {name!r} takes {expected} parameter(s) "
            f"({', '.join(params) or 'none'}); spec {spec!r} supplies {len(args)}"
        )
    return entry


# ----------------------------------------------------------------------
# the five concrete registries
# ----------------------------------------------------------------------
#: Graph families addressable from ``TopologySpec.family``.  Registered
#: objects are factories ``(**params) -> DiGraph``.
TOPOLOGIES: Registry = Registry(
    "topology", providers=("repro.graphs.generators",), plural="topologies"
)

#: Byzantine behaviours addressable from a grid's ``behaviors`` axis.
#: Registered objects are factories ``(*args) -> ByzantineBehavior``; entry
#: metadata carries ``params`` (name tuple), ``min_params`` and optionally
#: ``sync`` — a factory ``(*args) -> Optional[SyncByzantineValue]`` giving
#: the behaviour's synchronous-model equivalent.
BEHAVIORS: Registry = Registry("behavior", providers=("repro.adversary.behaviors",))

#: Fault-placement strategies.  Registered objects are callables
#: ``(graph, f, seed) -> FrozenSet[NodeId]``.
PLACEMENTS: Registry = Registry("placement", providers=("repro.adversary.placement",))

#: Sweep algorithms (consensus drivers and condition checks).  Registered
#: objects are :class:`~repro.runner.algorithms.AlgorithmSpec` instances.
ALGORITHMS: Registry = Registry("algorithm", providers=("repro.runner.algorithms",))

#: Link-delay models.  Registered objects are factories
#: ``(*args) -> DelayModel`` with ``params`` metadata like behaviours.
DELAYS: Registry = Registry("delay", providers=("repro.network.delays",))

#: Network fault schedules (a grid's ``faults`` axis).  Registered objects
#: are factories ``(*args) -> FaultPolicy`` with ``params`` metadata like
#: behaviours; a policy compiles per (graph, cell seed) into a deterministic
#: :class:`~repro.network.faults.FaultSchedule`.
FAULTS: Registry = Registry("fault", providers=("repro.network.faults",))

#: Session stop policies (``run --stop-policy name:args``).  Registered
#: objects are factories ``(*args) -> StopPolicy`` with ``params`` metadata
#: like behaviours; built-ins live in :mod:`repro.runner.session`.
STOP_POLICIES: Registry = Registry(
    "stop-policy", providers=("repro.runner.session",), plural="stop-policies"
)

#: Bitset computation backends (``REPRO_BITSET_BACKEND`` / ``--bitset-backend``).
#: Registered objects are :class:`~repro.graphs.bitset_backends.BitsetBackend`
#: singletons; ``python`` is always present, ``numpy`` only when numpy
#: imports (the ``repro[fast]`` extra).  Backends must return identical masks
#: and verdicts — they are a speed knob, never a semantics knob.
BITSET_BACKENDS: Registry = Registry(
    "bitset-backend",
    providers=("repro.graphs.bitset_backends",),
    plural="bitset-backends",
)

#: Every registry, keyed by its plural CLI/docs name.
ALL_REGISTRIES: Dict[str, Registry] = {
    "topologies": TOPOLOGIES,
    "behaviors": BEHAVIORS,
    "placements": PLACEMENTS,
    "algorithms": ALGORITHMS,
    "delays": DELAYS,
    "faults": FAULTS,
    "stop-policies": STOP_POLICIES,
    "bitset-backends": BITSET_BACKENDS,
}


__all__ = [
    "ALGORITHMS",
    "ALL_REGISTRIES",
    "BEHAVIORS",
    "BITSET_BACKENDS",
    "DELAYS",
    "FAULTS",
    "PLACEMENTS",
    "Registry",
    "RegistryEntry",
    "STOP_POLICIES",
    "TOPOLOGIES",
    "parse_plugin_spec",
    "validate_plugin_args",
]
