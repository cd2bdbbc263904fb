"""Topological conditions for fault-tolerant consensus in directed networks.

This package implements every condition discussed by the paper:

* the reach-condition family (1-reach, 2-reach, 3-reach, k-reach) of
  Definition 3 / Definition 20, with both optimized and literal checkers;
* Tseng–Vaidya's partition conditions CCS, CCA, BCS (Definitions 16–18);
* the clique closed forms (n > f, n > 2f, n > 3f) of Appendix A;
* executable Theorem 17 equivalence checks.

All checkers return a :class:`~repro.conditions.certificates.ConditionReport`
carrying a counterexample certificate when the condition is violated.
"""
