"""The phase-transition explorer (repro.phase) and its PhaseCurve artifact.

Covers knob discovery and phase-grid validation, curve derivation and
round-tripping, byte-identity of curves across serial / sharded / fabric
execution of the committed ``phase_density`` quick grid, the adaptive
refinement loop's budget claims (band concentration ≥ 2x at ≤ 60 % of the
uniform spend), store ingestion (schema v3), the ``phase`` CLI, and
field-for-field conformance with ``docs/phase-curves.md``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import threading

import pytest

from repro.exceptions import PhaseError, StoreError
from repro.phase.curve import (
    _BUDGET_KEYS,
    _POINT_KEYS,
    _REFINEMENT_KEYS,
    _REQUIRED_KEYS,
    PHASE_BAND_VARIANCE,
    PHASE_CURVE_KIND,
    PHASE_SCHEMA_VERSION,
    PhasePoint,
    curve_from_artifact,
    curve_points,
    load_phase_curve,
    phase_knob,
    render_curve,
    validate_phase_curve,
    validate_phase_spec,
    write_phase_curve,
)
from repro.phase.explorer import refine_phase, run_phase
from repro.runner.artifacts import dumps_canonical, load_artifact
from repro.runner.cli import EXIT_OK, main
from repro.runner.fabric import FabricConfig, FabricCoordinator, FabricWorker
from repro.runner.harness import GridSpec, TopologySpec
from repro.runner.journal import load_journal
from repro.runner.scenario_files import Scenario, dump_scenario_toml
from repro.runner.scenarios import get_scenario
from repro.runner.session import ExperimentSession
from repro.store.store import ResultsStore

REPO_ROOT = pathlib.Path(__file__).parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"
CURVE_DOC = REPO_ROOT / "docs" / "phase-curves.md"


def check_grid(name: str, ps, seeds=(1, 2, 3, 4), n: int = 7) -> GridSpec:
    """A cheap check-only phase grid over random-digraph density."""
    return GridSpec(
        name=name,
        algorithms=("check-reach",),
        topologies=tuple(
            TopologySpec.make("random-digraph", n=n, p=p, seed="cell") for p in ps
        ),
        f_values=(1,),
        behaviors=("equivocate",),
        placements=("random",),
        seeds=tuple(seeds),
        rounds=12,
    )


def scenario_of(grid: GridSpec) -> Scenario:
    return Scenario(
        name=grid.name, description="", artefact="", spec=grid, quick=grid
    )


# ----------------------------------------------------------------------
# knob discovery and phase-grid validation
# ----------------------------------------------------------------------
class TestPhaseSpec:
    def test_knob_detection(self):
        grid = check_grid("t", (0.2, 0.8))
        assert phase_knob(grid) == ("random-digraph", "p")
        assert validate_phase_spec(grid) == ("random-digraph", "p")

    def test_knob_detection_beta(self):
        grid = get_scenario("phase_smallworld").grid(quick=True)
        assert validate_phase_spec(grid) == ("watts-strogatz-bidirected", "beta")

    def test_committed_phase_scenarios_validate(self):
        for name in ("phase_density", "phase_smallworld"):
            scenario = get_scenario(name)
            for quick in (False, True):
                validate_phase_spec(scenario.grid(quick=quick))

    def test_mixed_families_rejected(self):
        grid = check_grid("t", (0.2,))
        mixed = dataclasses.replace(
            grid,
            topologies=grid.topologies
            + (TopologySpec.make("random-bidirected", n=7, p=0.5, seed="cell"),),
        )
        with pytest.raises(PhaseError, match="one topology family"):
            phase_knob(mixed)

    def test_two_varying_knobs_rejected(self):
        grid = dataclasses.replace(
            check_grid("t", (0.2,)),
            topologies=(
                TopologySpec.make("stochastic-kronecker", k=3, a=0.9, b=0.5, seed="cell"),
                TopologySpec.make("stochastic-kronecker", k=3, a=0.7, b=0.3, seed="cell"),
            ),
        )
        with pytest.raises(PhaseError, match="exactly one knob"):
            phase_knob(grid)

    def test_no_size_parameter_rejected(self):
        grid = dataclasses.replace(
            check_grid("t", (0.2,)),
            topologies=(TopologySpec.make("figure-1b"),),
        )
        with pytest.raises(PhaseError, match="size parameter"):
            phase_knob(grid)

    def test_no_knob_parameter_rejected(self):
        grid = dataclasses.replace(
            check_grid("t", (0.2,)),
            topologies=(TopologySpec.make("clique", n=5),),
        )
        with pytest.raises(PhaseError, match="no sweepable knob"):
            phase_knob(grid)

    def test_two_check_algorithms_rejected(self):
        grid = dataclasses.replace(
            check_grid("t", (0.2, 0.8)), algorithms=("check-reach", "check-table1")
        )
        with pytest.raises(PhaseError, match="at most one 'check'"):
            validate_phase_spec(grid)

    def test_non_singleton_behavior_axis_rejected(self):
        grid = dataclasses.replace(
            check_grid("t", (0.2, 0.8)), behaviors=("honest", "equivocate")
        )
        with pytest.raises(PhaseError, match="singleton behaviors"):
            validate_phase_spec(grid)


# ----------------------------------------------------------------------
# curve derivation, round-trip, rendering
# ----------------------------------------------------------------------
class TestCurve:
    def test_run_phase_derives_valid_curve(self, tmp_path):
        run = run_phase(scenario_of(check_grid("curve-t", (0.2, 0.8), seeds=(1, 2))), quick=True)
        curve = run.curve
        validate_phase_curve(curve)
        assert curve["kind"] == PHASE_CURVE_KIND
        assert curve["schema_version"] == PHASE_SCHEMA_VERSION
        assert curve["family"] == "random-digraph" and curve["knob"] == "p"
        assert curve["knob_values"] == [0.2, 0.8]
        assert curve["budget"]["base_cells"] == 4 == curve["budget"]["spent_cells"]
        assert curve["refinement"] is None
        points = curve_points(curve)
        assert [point.knob for point in points] == [0.2, 0.8]
        assert all(point.condition_rate is not None for point in points)
        assert all(point.success_rate is None for point in points)

        path = tmp_path / "t.curve.json"
        write_phase_curve(path, curve)
        assert load_phase_curve(path) == curve
        rendering = render_curve(curve)
        assert "random-digraph over p" in rendering
        assert "cond=" in rendering

    def test_curve_from_artifact_matches_run(self):
        run = run_phase(scenario_of(check_grid("curve-a", (0.3, 0.7), seeds=(1, 2))), quick=True)
        assert curve_from_artifact(run.sweep) == run.curve

    def test_serial_and_sharded_curves_are_byte_identical(self):
        grid = check_grid("curve-w", (0.3, 0.6, 0.9), seeds=(1, 2, 3))
        serial = run_phase(scenario_of(grid), quick=True, workers=1)
        sharded = run_phase(scenario_of(grid), quick=True, workers=3)
        assert dumps_canonical(serial.curve) == dumps_canonical(sharded.curve)

    def test_point_band_semantics(self):
        point = PhasePoint(n=7, f=1, knob=0.5, seeds=10, condition_rate=0.5,
                           success_rate=None, mean_rounds=None)
        assert point.primary_rate == 0.5
        assert point.success_variance == 0.25 >= PHASE_BAND_VARIANCE
        assert point.in_band
        edge = dataclasses.replace(point, condition_rate=0.05)
        assert not edge.in_band

    def test_validation_failures(self):
        run = run_phase(scenario_of(check_grid("curve-v", (0.2,), seeds=(1,))), quick=True)
        good = run.curve
        with pytest.raises(PhaseError, match="missing required keys"):
            validate_phase_curve({k: v for k, v in good.items() if k != "budget"})
        with pytest.raises(PhaseError, match="kind"):
            validate_phase_curve(dict(good, kind="something-else"))
        with pytest.raises(PhaseError, match="schema version"):
            validate_phase_curve(dict(good, schema_version=99))
        with pytest.raises(PhaseError, match="mode"):
            validate_phase_curve(dict(good, mode="fast"))
        broken_point = dict(good["points"][0], condition_rate=None, success_rate=None)
        with pytest.raises(PhaseError, match="neither"):
            validate_phase_curve(dict(good, points=[broken_point]))
        with pytest.raises(PhaseError, match="sorted"):
            validate_phase_curve(
                dict(good, points=[dict(p, knob=1.0 - p["knob"]) for p in good["points"]] + good["points"])
            )


# ----------------------------------------------------------------------
# byte-identity of the committed quick grid: serial / workers / fabric
# ----------------------------------------------------------------------
class TestCommittedGridFoldsIdentically:
    """The committed random-digraph quick grid (phase_density, check slice)
    folds byte-identically however it is executed — CELL_SEED sentinel cells
    derive their seeds from (grid name, index) alone."""

    @pytest.fixture(scope="class")
    def grid(self):
        base = get_scenario("phase_density").grid(quick=True)
        return dataclasses.replace(base, algorithms=("check-reach",))

    @pytest.fixture(scope="class")
    def serial_bytes(self, grid):
        session = ExperimentSession(grid, mode="quick", workers=1)
        for _ in session.events():
            pass
        payload = session.artifact_payload()
        payload["environment"] = None
        payload["git"] = None
        return dumps_canonical(payload)

    def test_workers_match_serial(self, grid, serial_bytes):
        session = ExperimentSession(grid, mode="quick", workers=4)
        for _ in session.events():
            pass
        payload = session.artifact_payload()
        payload["environment"] = None
        payload["git"] = None
        assert dumps_canonical(payload) == serial_bytes

    def test_fabric_two_workers_match_serial(self, grid, serial_bytes, tmp_path):
        coordinator = FabricCoordinator(
            run_dir=tmp_path,
            config=FabricConfig(workers=0, poll_interval=0.02, chunks_per_worker=2),
        )
        workers = []
        for worker_id in ("pw1", "pw2"):
            worker = FabricWorker(tmp_path, worker_id)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()  # joins once the session has published the run
            workers.append(thread)
        ExperimentSession(grid, mode="quick", source=coordinator).run()
        for thread in workers:
            thread.join(timeout=30)
        journal = load_journal(tmp_path)
        assert journal.sealed
        from repro.runner.artifacts import artifact_payload

        folded = artifact_payload(
            journal.fold(),
            mode="quick",
            provenance={"environment": None, "git": None},
        )
        assert dumps_canonical(folded) == serial_bytes

    def test_committed_baseline_exhibits_the_transition(self):
        curve = load_phase_curve(BASELINES / "phase_density.quick.curve.json")
        by_row = {}
        for point in curve_points(curve):
            by_row.setdefault((point.n, point.f), []).append(point)
        crossing = [
            row
            for row in by_row.values()
            if min(p.primary_rate for p in row) < 0.2
            and max(p.primary_rate for p in row) > 0.8
        ]
        assert crossing, "no (n, f) row crosses the transition"


# ----------------------------------------------------------------------
# adaptive refinement
# ----------------------------------------------------------------------
class TestRefinement:
    # Derived cell seeds depend on the grid name, so each name is an
    # independent Monte Carlo draw of the same G(7, p) density grid.
    @pytest.fixture(scope="class", params=["phase-conc", "bench-phase-refine"])
    def refinement(self, request):
        grid = check_grid(request.param, (0.1, 0.3, 0.5, 0.7, 0.9))
        return refine_phase(
            scenario_of(grid),
            quick=True,
            budget_cells=200,
            resolution=0.05,
            seed_boost=6,
        )

    def test_argument_validation(self):
        scenario = scenario_of(check_grid("phase-args", (0.2, 0.8)))
        with pytest.raises(PhaseError, match="budget_cells"):
            refine_phase(scenario, quick=True, budget_cells=-1, resolution=0.1)
        with pytest.raises(PhaseError, match="resolution"):
            refine_phase(scenario, quick=True, budget_cells=8, resolution=0.0)
        with pytest.raises(PhaseError, match="seed_boost"):
            refine_phase(scenario, quick=True, budget_cells=8, resolution=0.1, seed_boost=0)

    def test_concentrates_seeds_in_the_band(self, refinement):
        # The acceptance claim: in-band points hold >= 2x the uniform
        # per-point seed share at equal total budget.
        assert refinement.concentration_ratio is not None
        assert refinement.concentration_ratio >= 2.0
        points = curve_points(refinement.curve)
        in_band = [point for point in points if point.in_band]
        assert in_band
        base_depth = refinement.curve["seeds_per_point"]
        assert all(point.seeds > base_depth for point in in_band)

    def test_cheaper_than_uniform(self, refinement):
        assert refinement.spent_cells <= 0.6 * refinement.uniform_cells

    def test_reaches_target_resolution_in_band(self, refinement):
        points = curve_points(refinement.curve)
        rows = {}
        for point in points:
            rows.setdefault((point.n, point.f), []).append(point)
        for row in rows.values():
            row.sort(key=lambda point: point.knob)
            for left, right in zip(row, row[1:]):
                if left.in_band or right.in_band:
                    assert right.knob - left.knob <= 0.05 + 1e-9

    def test_budget_respected(self, refinement):
        base = refinement.curve["budget"]["base_cells"]
        assert refinement.spent_cells - base <= 200
        assert refinement.curve["refinement"]["rounds"] == len(refinement.rounds)

    def test_refinement_metadata_recorded(self, refinement):
        meta = refinement.curve["refinement"]
        assert meta["resolution"] == 0.05
        assert meta["variance_floor"] == PHASE_BAND_VARIANCE
        assert meta["budget_cells"] == 200
        inserted = {(row["n"], row["knob"]) for row in meta["inserted"]}
        assert inserted, "refinement never bisected the knob axis"
        base_values = {0.1, 0.3, 0.5, 0.7, 0.9}
        assert all(knob not in base_values for _n, knob in inserted)
        point_keys = {(point.n, point.knob) for point in curve_points(refinement.curve)}
        assert inserted <= point_keys

    def test_rounds_use_fresh_scenario_names(self, refinement):
        # Derived cell seeds depend on the grid name: reusing the base name
        # would replay identical Monte Carlo samples instead of pooling
        # independent ones.
        base = refinement.curve["scenario"]
        names = {sweep["scenario"] for sweep in refinement.sweeps}
        assert names
        assert all(re.fullmatch(rf"{re.escape(base)}-refine-\d+", name) for name in names)

    def test_deterministic(self):
        grid = check_grid("phase-det", (0.3, 0.6, 0.9), seeds=(1, 2))
        kwargs = dict(quick=True, budget_cells=24, resolution=0.1)
        first = refine_phase(scenario_of(grid), **kwargs)
        second = refine_phase(scenario_of(grid), **kwargs)
        assert dumps_canonical(first.curve) == dumps_canonical(second.curve)


# ----------------------------------------------------------------------
# store ingestion (schema v3)
# ----------------------------------------------------------------------
class TestStoreIngestion:
    @pytest.fixture
    def store(self, tmp_path):
        with ResultsStore(tmp_path / "store.sqlite") as store:
            yield store

    def test_ingest_curve_file_roundtrip(self, store):
        path = BASELINES / "phase_density.quick.curve.json"
        (report,) = store.ingest(path)
        assert report.kind == "phase" and report.action == "inserted"
        (again,) = store.ingest(path)
        assert again.action == "unchanged" and again.row_id == report.row_id

        (curve,) = store.phase_curves("phase_density")
        payload = load_phase_curve(path)
        assert curve["family"] == payload["family"] == "random-digraph"
        assert curve["knob"] == "p"
        assert curve["points"] == len(payload["points"])
        assert curve["refined"] == 0
        rows = store.phase_points(curve["id"])
        assert len(rows) == len(payload["points"])
        assert [
            (row["n"], row["f"], row["knob"]) for row in rows
        ] == [(p["n"], p["f"], p["knob"]) for p in payload["points"]]

    def test_same_key_different_bytes_replaces(self, store):
        payload = load_phase_curve(BASELINES / "phase_density.quick.curve.json")
        assert store.ingest_phase_payload(payload).action == "inserted"
        modified = dict(payload, environment={"python": "changed"})
        report = store.ingest_phase_payload(modified)
        assert report.action == "replaced"
        assert len(store.phase_curves("phase_density")) == 1

    def test_unknown_curve_id_raises(self, store):
        with pytest.raises(StoreError, match="phase curve"):
            store.phase_points(999)

    def test_invalid_phase_file_strict_vs_lenient(self, store, tmp_path):
        bad_dir = tmp_path / "curves"
        bad_dir.mkdir()
        bad = bad_dir / "bad.curve.json"
        bad.write_text(
            json.dumps({"kind": PHASE_CURVE_KIND, "schema_version": 99}),
            encoding="utf-8",
        )
        with pytest.raises(StoreError):
            store.ingest(bad)
        (report,) = store.ingest(bad_dir)
        assert report.action == "skipped"


# ----------------------------------------------------------------------
# the phase CLI
# ----------------------------------------------------------------------
class TestPhaseCli:
    def test_show_committed_curve(self, capsys):
        assert main(["phase", "show", str(BASELINES / "phase_density.quick.curve.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "phase curve: phase_density (quick)" in out

    def test_show_derives_from_sweep_artifact(self, capsys):
        assert main(["phase", "show", str(BASELINES / "phase_density.quick.json")]) == EXIT_OK
        assert "random-digraph over p" in capsys.readouterr().out

    def test_run_writes_sweep_and_curve(self, tmp_path, capsys):
        grid = check_grid("phase-cli", (0.2, 0.8), seeds=(1, 2))
        scenario_file = tmp_path / "phase_cli.toml"
        scenario_file.write_text(dump_scenario_toml(scenario_of(grid)), encoding="utf-8")
        code = main([
            "phase", "run", "--scenario-file", str(scenario_file),
            "--quick", "--output", str(tmp_path),
        ])
        assert code == EXIT_OK
        curve = load_phase_curve(tmp_path / "phase-cli.quick.curve.json")
        sweep = load_artifact(tmp_path / "phase-cli.quick.json")
        assert curve == curve_from_artifact(sweep)

    def test_refine_cli(self, tmp_path, capsys):
        grid = check_grid("phase-cli-r", (0.3, 0.6, 0.9), seeds=(1, 2))
        scenario_file = tmp_path / "phase_cli_r.toml"
        scenario_file.write_text(dump_scenario_toml(scenario_of(grid)), encoding="utf-8")
        code = main([
            "phase", "refine", "--scenario-file", str(scenario_file),
            "--quick", "--budget", "24", "--resolution", "0.1",
            "--output", str(tmp_path), "--store", str(tmp_path / "phase.sqlite"),
        ])
        assert code == EXIT_OK
        curve = load_phase_curve(tmp_path / "phase-cli-r.quick.curve.json")
        assert curve["refinement"] is not None
        with ResultsStore(tmp_path / "phase.sqlite", readonly=True) as store:
            assert store.phase_curves("phase-cli-r")

    def test_scenario_and_file_are_mutually_exclusive(self):
        assert main(["phase", "run", "--quick"]) == 2
        assert main([
            "phase", "run", "--scenario", "phase_density",
            "--scenario-file", "x.toml", "--quick",
        ]) == 2


# ----------------------------------------------------------------------
# docs/phase-curves.md conformance
# ----------------------------------------------------------------------
def doc_text() -> str:
    return CURVE_DOC.read_text(encoding="utf-8")


def doc_block() -> dict:
    match = re.search(
        r"<!-- conformance:curve -->\s*```json\n(?P<body>.*?)```",
        doc_text(),
        re.DOTALL,
    )
    assert match, "docs/phase-curves.md lost its conformance block"
    return json.loads(match.group("body"))


def is_placeholder(value) -> bool:
    return isinstance(value, str) and value.startswith("<") and value.endswith(">")


class TestDocConformance:
    def test_doc_names_every_field(self):
        text = doc_text()
        for field_name in (
            _REQUIRED_KEYS + _POINT_KEYS + _BUDGET_KEYS + _REFINEMENT_KEYS
        ):
            assert f"`{field_name}`" in text, (
                f"docs/phase-curves.md does not document {field_name!r}"
            )
        assert f"`{PHASE_CURVE_KIND}`" in text
        assert str(PHASE_BAND_VARIANCE) in text

    def test_example_block_matches_a_real_curve(self):
        doc = doc_block()
        grid = check_grid("phase-demo", (0.2, 0.8), seeds=(1, 2), n=5)
        run = run_phase(scenario_of(grid), quick=True)
        actual = run.curve
        assert set(doc) == set(actual) == set(_REQUIRED_KEYS)
        for key, documented in doc.items():
            if is_placeholder(documented):
                continue
            if key == "budget":
                assert set(documented) == set(_BUDGET_KEYS)
                assert actual[key] == documented
            elif key == "points":
                assert len(documented) == len(actual[key])
                for doc_point, real_point in zip(documented, actual[key]):
                    assert set(doc_point) == set(real_point) == set(_POINT_KEYS)
                    for field_name, value in doc_point.items():
                        if not is_placeholder(value):
                            assert real_point[field_name] == value, field_name
            else:
                assert actual[key] == documented, key

    def test_doc_states_the_filename_convention(self):
        text = doc_text()
        assert "<scenario>.<mode>.curve.json" in text
        assert "phase_curves" in text and "phase_points" in text
