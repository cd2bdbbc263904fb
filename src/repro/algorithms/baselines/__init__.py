"""Baseline algorithms the paper builds on or is compared against.

* :mod:`abraham` — the complete-graph (``n > 3f``) asynchronous algorithm in
  the style of Abraham–Amit–Dolev [1], which the paper generalizes.
* :mod:`iterative` — iterative trimmed-mean (W-MSR style) consensus from the
  related work ([13], [25]).
* :mod:`crash_async` — crash-tolerant asynchronous approximate consensus on
  directed graphs (the 2-reach setting of Theorem 2).
* :mod:`local_average` — non-fault-tolerant averaging (control).
* :mod:`synchronous` — the lock-step round engine the iterative baselines run on.
"""
