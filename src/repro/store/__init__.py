"""Cross-run results store and live serving layer.

Two modules:

:mod:`repro.store.store`
    :class:`ResultsStore` — the sqlite-backed store: idempotent ingestion
    of journals, schema-v1 artifacts and ``BENCH_*.json`` records, plus
    the typed query API (trends, variance, bench trajectories).
:mod:`repro.store.serve`
    The stdlib-only HTTP layer behind ``python -m repro.runner serve``:
    JSON query endpoints over a store plus an SSE endpoint streaming live
    progress of in-flight journaled/fabric runs.

The sqlite schema and migration ladder live in :mod:`repro.store.schema`;
``docs/store-schema.md`` is the normative schema document.
"""
