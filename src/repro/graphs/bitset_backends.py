"""Pluggable computation backends for the bitmask graph engine.

:class:`~repro.graphs.bitset.BitsetIndex` defines *what* the mask algebra
means (reach closure, SCC masks, source components, f-covers); a
:class:`~repro.graphs.bitset.BitsetBackend` defines *how fast* it is
computed.  This module holds the registry entries and the selection policy;
the interface itself is defined in :mod:`repro.graphs.bitset` (and
re-exported here), so importing the numpy backend module first or this one
first gives the same registry.  Two built-ins register into
:data:`repro.registry.BITSET_BACKENDS`:

``python``
    The inlined big-int kernels of :mod:`repro.graphs.bitset` — zero
    dependencies, unbeatable on small graphs where a node set is one
    machine word and Python-level loops stay short.

``numpy`` (the ``repro[fast]`` extra)
    Batched mask arrays with a vectorized Warshall closure, the 2-reach
    core's distinct-mask existence pass and batched hitting-set checks
    (:mod:`repro.graphs.bitset_numpy`) — registered only
    when numpy imports, and auto-selected for graphs with
    ``n >= NUMPY_MIN_NODES`` where the per-node Python loops start to
    dominate.

Backends are a speed knob, never a semantics knob: every backend must return
**identical masks and verdicts** for every query (property-tested against
each other and the BFS/networkx oracles in ``tests/test_bitset.py``), which
is what keeps sweep artifacts byte-identical whichever backend computed them.
The one sanctioned divergence is SCC *emission order*, constrained to "some
reverse topological order of the condensation" rather than Tarjan's exact
order — no recorded result depends on it.

Selection
---------
:func:`get_backend` resolves the backend for a graph of ``n`` nodes:

1. ``REPRO_BITSET_BACKEND`` (or the ``--bitset-backend`` CLI flag, which
   sets the same variable so forked/spawned sweep workers inherit it) names
   a registered backend explicitly; ``auto`` or unset means automatic.
   Naming ``numpy`` without numpy installed is an explicit contradiction
   and raises; automatic selection falls back to ``python`` silently.
2. Automatic: ``numpy`` iff available and ``n >= NUMPY_MIN_NODES``, else
   ``python``.

Backends are stateless singletons — one instance serves every
:class:`BitsetIndex` of every size concurrently.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.exceptions import ExperimentError
from repro.graphs.bitset import BitsetBackend, PythonBitsetBackend
from repro.registry import BITSET_BACKENDS

#: Environment variable naming the backend explicitly (``auto`` = automatic).
ENV_VAR = "REPRO_BITSET_BACKEND"

#: Automatic selection threshold: below this many nodes the big-int kernels
#: win (masks are single machine words, loops are short); at and above it the
#: numpy backend's vectorized closure pays for its fixed per-call overhead.
#: Calibrated at n=24 by a python-vs-numpy closure probe, and kept there
#: when re-measured on the uint32 closure kernel: numpy wins batched
#: closures and the 2-reach core far below 24, but loses the f-cover checks
#: BW also routes here (EXPERIMENTS.md, "The n = 24 crossover").  perfbench's
#: ``reach_scaling`` workload (``bitset.numpy_s``, ``conditions.reach_s``)
#: measures the numpy side.
NUMPY_MIN_NODES = 24


#: The always-available reference backend singleton.
PYTHON_BACKEND = PythonBitsetBackend()

BITSET_BACKENDS.register(
    "python",
    PYTHON_BACKEND,
    summary="pure-python big-int kernels (reference; fastest on small graphs)",
)

try:  # pragma: no branch - import success depends on the environment
    from repro.graphs.bitset_numpy import NumpyBitsetBackend

    #: The numpy backend singleton, or ``None`` when numpy is not installed.
    NUMPY_BACKEND: Optional[BitsetBackend] = NumpyBitsetBackend()
except ImportError:  # numpy absent: the [fast] extra is optional
    NUMPY_BACKEND = None
else:
    BITSET_BACKENDS.register(
        "numpy",
        NUMPY_BACKEND,
        summary="batched uint64 mask arrays, vectorized Warshall closure (repro[fast])",
    )


def numpy_available() -> bool:
    """Whether the numpy backend registered (i.e. numpy imports here)."""
    return NUMPY_BACKEND is not None


def get_backend(n: int) -> BitsetBackend:
    """Resolve the backend for a graph of ``n`` nodes.

    An explicit ``REPRO_BITSET_BACKEND`` (anything but empty / ``auto``)
    wins and resolves through the registry — including backends registered
    ``temporarily()`` by tests — with a did-you-mean error for unknown
    names.  Asking for ``numpy`` without numpy installed raises
    :class:`~repro.exceptions.ExperimentError` naming the ``repro[fast]``
    extra; *automatic* selection falls back to python silently instead.
    """
    override = os.environ.get(ENV_VAR, "").strip().lower()
    if override and override != "auto":
        if override == "numpy" and NUMPY_BACKEND is None:
            raise ExperimentError(
                f"{ENV_VAR}=numpy requested but numpy is not installed; "
                "install the fast extra (pip install 'repro[fast]') or unset "
                f"{ENV_VAR} to fall back to the python backend"
            )
        return BITSET_BACKENDS.get(override)
    if NUMPY_BACKEND is not None and n >= NUMPY_MIN_NODES:
        return NUMPY_BACKEND
    return PYTHON_BACKEND


def backend_policy() -> str:
    """Human/provenance description of the process-wide selection policy.

    Recorded in artifact environment metadata and the profile table so BENCH
    entries are attributable to a backend; ``compare()`` ignores environment
    metadata, so the string never breaks cross-backend byte-identity checks.
    """
    override = os.environ.get(ENV_VAR, "").strip().lower()
    if override and override != "auto":
        return override
    if NUMPY_BACKEND is not None:
        return f"auto(numpy at n>={NUMPY_MIN_NODES})"
    return "auto(python; numpy unavailable)"


__all__ = [
    "BitsetBackend",
    "ENV_VAR",
    "NUMPY_BACKEND",
    "NUMPY_MIN_NODES",
    "PYTHON_BACKEND",
    "PythonBitsetBackend",
    "backend_policy",
    "get_backend",
    "numpy_available",
]
