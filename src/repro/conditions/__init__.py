"""Topological conditions for fault-tolerant consensus in directed networks.

This package implements the conditions the paper discusses:

* the reach-condition family (1-reach, 2-reach, 3-reach, k-reach) of
  Definition 3 / Definition 20 (``reach_conditions``);
* Tseng–Vaidya's partition conditions CCS, CCA, BCS of Definitions 16–18
  (``partition_conditions``).

Theorem 17's equivalences (1-reach ⇔ CCS, 2-reach ⇔ CCA, 3-reach ⇔ BCS)
are evaluated per graph by :mod:`repro.analysis.feasibility`.  All checkers
return a :class:`~repro.conditions.certificates.ConditionReport` carrying a
counterexample certificate when the condition is violated.
"""
