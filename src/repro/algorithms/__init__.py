"""Consensus algorithms: the paper's Byzantine-Witness protocol and baselines.

Layout
------
``base``
    Shared configuration (``f``, ``ε``, input range, round count).
``messages`` / ``messagesets``
    Protocol payloads and the message-set operations of Definitions 7–9.
``topology``
    Per-experiment precomputation (threads, required paths, reach sets,
    source components) shared by every node.
``flooding primitives``
    RedundantFlood and FIFO-flood live inside the processes (they are
    relay rules, not separate services); their path predicates come from
    :mod:`repro.graphs.paths`.
``completeness`` / ``filter_average``
    Algorithms 2 and 3.
``bw``
    Algorithm 1 — the event-driven Byzantine-Witness process.
``baselines``
    Abraham-style clique algorithm, iterative trimmed mean, crash-tolerant
    directed algorithm, unprotected averaging.
"""
