"""Phase-transition exploration over the random-graph topology zoo.

The paper proves *exact* conditions on fixed topologies; this package maps
where those conditions — and the end-to-end protocol built on them — start
holding on seeded random families, as Monte Carlo phase curves over one
family knob (edge probability ``p``, rewire ``beta``, attachment ``m``).

* :mod:`repro.phase.curve` — the schema-versioned PhaseCurve artifact:
  derivation from sweep results, validation, canonical serialization and a
  terminal rendering (normative doc: ``docs/phase-curves.md``).
* :mod:`repro.phase.explorer` — :func:`run_phase` (one sweep → one curve)
  and :func:`refine_phase`, the budgeted adaptive loop that queries the
  results store's per-group variance to bisect the knob axis and
  concentrate seed samples in the transition band.

CLI surface: ``python -m repro.runner phase run|refine|show``.
"""
