"""repro — Asynchronous Byzantine Approximate Consensus in Directed Networks.

A from-scratch Python reproduction of Sakavalas, Tseng and Vaidya (PODC 2020):
the Byzantine-Witness algorithm (Algorithm 1) with its Filter-and-Average
value update, the full k-reach / CCS / CCA / BCS condition family, an
asynchronous message-passing simulator with a Byzantine adversary, the
baselines the paper builds on, and an experiment harness regenerating every
table, figure and quantitative claim of the paper.

Quickstart
----------
>>> from repro.api import quick_consensus
>>> from repro.graphs.generators import complete_digraph
>>> graph = complete_digraph(4)
>>> outcome = quick_consensus(graph, {0: 0.0, 1: 0.25, 2: 0.75, 3: 1.0},
...                           f=1, epsilon=0.1, faulty_nodes={3})
>>> outcome.epsilon_agreement and outcome.validity
True

The curated, versioned import surface is :mod:`repro.api` — sweep grids,
the scenario-file loaders, artifact helpers, and the plugin registries
(register a custom topology family, Byzantine behaviour, placement,
algorithm or delay model by name and sweep it like the built-ins)::

    from repro.api import API_VERSION, GridSpec, SweepEngine, TOPOLOGIES

Everything else is imported from its home module (``repro.graphs.digraph``,
``repro.conditions.reach_conditions``, ...); the subpackages re-export
nothing.  See ``examples/`` for richer scenarios, and the committed sweep
baselines under ``benchmarks/baselines/`` (mapped claim by claim in
``EXPERIMENTS.md``) for the table/figure reproductions.
"""

__version__ = "1.0.0"
