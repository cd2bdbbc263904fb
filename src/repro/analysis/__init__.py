"""Analysis layer: convergence bounds, feasibility maps, and the executable
Theorem 18 necessity construction."""
