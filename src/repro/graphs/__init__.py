"""Directed-graph substrate: the paper's network model and graph gadgets.

Modules
-------
The package re-exports nothing; import from the modules.

``digraph``
    ``DiGraph``, the simple directed graph of Section 2's network model.
``bitset``
    The shared integer-bitmask engine (``BitsetIndex``): reach sets, SCCs,
    reduced-graph and source-component masks — one index per graph, shared
    by every condition checker and the BW verification path.
``paths``
    Simple / redundant path enumeration and f-covers (Section 3, Def. 4).
``reach``
    Reach sets, reduced graphs, source components, propagation
    (Defs. 2, 5, 6, 10 and Theorem 5).
``flow``
    Vertex-disjoint path counts (Menger) used by propagation and by the
    Figure 1(b) RMT argument.
``generators``
    Figure 1 graphs and the synthetic graph families the sweeps draw from.
``properties``
    Connectivity and the classical undirected feasibility predicates
    (Table 1).
"""
