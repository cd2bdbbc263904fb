"""Tests for the sweep orchestration engine: expansion, seeding, sharding."""

from __future__ import annotations

import pytest

from repro.exceptions import ExperimentError
from repro.runner.artifacts import artifact_payload
from repro.runner.harness import (
    CellResult,
    GridSpec,
    GroupAggregate,
    SweepRunResult,
    SweepEngine,
    TopologySpec,
    aggregate_cells,
    derive_cell_seed,
)
from repro.runner.algorithms import resolve_placement
from repro.runner.scenarios import (
    SCENARIOS,
    get_scenario,
    run_cell,
    scenario_names,
)
from repro.runner.session import ExperimentSession

QUICK = get_scenario("definition1").grid(quick=True)
CHECK = get_scenario("table1").grid(quick=True)


class TestDerivedSeeds:
    def test_stable_across_processes_and_platforms(self):
        # SHA-256 based: the value is part of the artifact contract.
        assert derive_cell_seed("definition1", 0) == 6700959150702298392

    def test_distinct_per_scenario_and_index(self):
        seeds = {derive_cell_seed(name, index) for name in ("a", "b") for index in range(50)}
        assert len(seeds) == 100

    def test_non_negative_63_bit(self):
        for index in range(100):
            seed = derive_cell_seed("x", index)
            assert 0 <= seed < 2 ** 63


class TestGridExpansion:
    def test_cross_product_and_indexing(self):
        cells = QUICK.expand()
        assert len(cells) == QUICK.num_cells == 3
        assert [cell.index for cell in cells] == [0, 1, 2]
        for cell in cells:
            assert cell.derived_seed == derive_cell_seed(QUICK.name, cell.index)

    def test_expansion_is_deterministic(self):
        assert QUICK.expand() == QUICK.expand()

    def test_topology_spec_labels(self):
        spec = TopologySpec.make("two-cliques", clique_size=5, forward_bridges=2,
                                 backward_bridges=2)
        assert spec.label == "two-cliques(backward_bridges=2,clique_size=5,forward_bridges=2)"
        assert TopologySpec.make("figure-1a").label == "figure-1a"
        assert spec.as_dict()["params"]["clique_size"] == 5

    def test_spec_as_dict_round_trips_axes(self):
        payload = QUICK.as_dict()
        assert payload["name"] == "definition1"
        assert payload["behaviors"] == list(QUICK.behaviors)
        assert payload["topologies"][0]["family"] == "clique"


class TestCellExecution:
    def test_run_cell_is_order_independent(self):
        cells = QUICK.expand()
        full = [run_cell(QUICK, cell) for cell in cells]
        reordered = [run_cell(QUICK, cell) for cell in reversed(cells)]
        assert full == list(reversed(reordered))

    def test_unknown_algorithm_rejected(self):
        spec = GridSpec(name="bad", algorithms=("nope",),
                        topologies=(TopologySpec.make("clique", n=3),))
        with pytest.raises(ExperimentError):
            run_cell(spec, spec.expand()[0])

    def test_unknown_topology_rejected(self):
        with pytest.raises(ExperimentError):
            TopologySpec.make("not-a-family").build()

    def test_placement_resolution(self):
        graph = TopologySpec.make("clique", n=4).build()
        assert resolve_placement("none", graph, 1, seed=1) == frozenset()
        assert resolve_placement("last", graph, 1, seed=1) == frozenset({3})
        assert len(resolve_placement("random", graph, 2, seed=9)) == 2
        assert resolve_placement("random", graph, 2, seed=9) == resolve_placement(
            "random", graph, 2, seed=9
        )
        with pytest.raises(ExperimentError):
            resolve_placement("nope", graph, 1, seed=1)

    def test_last_placement_sorts_integer_labels_numerically(self):
        # repr order would put 10 and 11 before 2; 'last' must pick {10, 11}.
        graph = TopologySpec.make("clique", n=12).build()
        assert resolve_placement("last", graph, 2, seed=1) == frozenset({10, 11})

    def test_unknown_input_generator_rejected(self):
        spec = GridSpec(
            name="bad-inputs",
            algorithms=("iterative",),
            topologies=(TopologySpec.make("clique", n=3),),
            inputs="Random",
        )
        with pytest.raises(ExperimentError, match="input generator"):
            run_cell(spec, spec.expand()[0])

    def test_necessity_check_rejects_feasible_graphs(self):
        spec = GridSpec(
            name="bad-necessity",
            algorithms=("check-necessity",),
            topologies=(TopologySpec.make("clique", n=4),),
            f_values=(1,),
        )
        with pytest.raises(ExperimentError, match="satisfies 3-reach"):
            run_cell(spec, spec.expand()[0])

    def test_check_cells_report_metrics(self):
        cells = CHECK.expand()
        result = run_cell(CHECK, cells[0])
        assert result.rounds == 0 and result.messages == 0
        assert set(result.metrics) >= {"reach_1", "reach_2", "reach_3", "kappa"}


class TestEngine:
    def test_serial_and_sharded_runs_are_identical(self):
        serial = ExperimentSession(QUICK).run()
        sharded = ExperimentSession(QUICK, workers=2).run()
        assert serial.cells == sharded.cells
        assert artifact_payload(serial) == artifact_payload(sharded)

    def test_sharded_checks_match_serial_with_explicit_chunking(self):
        serial = ExperimentSession(CHECK).run()
        sharded = ExperimentSession(CHECK, workers=2, chunk_size=1).run()
        assert serial.cells == sharded.cells

    def test_incremental_aggregation_matches_reaggregation(self):
        result = ExperimentSession(QUICK).run()
        assert [group.as_dict() for group in result.groups] == [
            group.as_dict() for group in aggregate_cells(result.cells)
        ]

    def test_engine_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)
        with pytest.raises(ValueError):
            SweepEngine(workers=2, chunk_size=0)

    def test_wall_time_and_workers_are_observational(self):
        from repro.runner.artifacts import dumps_canonical

        result = ExperimentSession(CHECK).run()
        assert result.wall_seconds > 0.0
        text = dumps_canonical(artifact_payload(result))
        assert "wall_seconds" not in text and "workers" not in text


class TestAggregation:
    def _cell(self, index, behavior="b", success=True, rounds=4, messages=10, rng=0.1):
        return CellResult(
            index=index, algorithm="a", topology="t", n=4, f=1, behavior=behavior,
            placement="p", seed=index, derived_seed=index, success=success,
            output_range=rng, rounds=rounds, messages=messages,
        )

    def test_groups_fold_across_seeds_only(self):
        groups = aggregate_cells(
            [self._cell(0), self._cell(1, success=False, rounds=6, messages=30, rng=0.5),
             self._cell(2, behavior="other")]
        )
        assert len(groups) == 2
        first = groups[0]
        assert first.runs == 2 and first.successes == 1
        assert first.success_rate == 0.5
        assert first.mean_rounds == 5.0
        assert first.mean_messages == 20.0
        assert first.worst_range == 0.5

    def test_empty_aggregates_report_zero(self):
        group = GroupAggregate(algorithm="a", topology="t", f=1, behavior="b", placement="p")
        assert group.success_rate == group.mean_rounds == group.mean_messages == 0.0
        spec = get_scenario("table2").quick
        assert SweepRunResult(spec=spec, cells=[], groups=[]).success_rate == 0.0

    def test_undecided_cells_poison_worst_range(self):
        groups = aggregate_cells([self._cell(0), self._cell(1, rng=None)])
        assert groups[0].undecided == 1
        assert groups[0].as_dict()["worst_range"] is None


class TestScenarioRegistry:
    def test_every_scenario_has_a_quicker_quick_grid(self):
        for name in scenario_names():
            scenario = SCENARIOS[name]
            assert scenario.quick.num_cells <= scenario.spec.num_cells
            assert scenario.spec.name == name == scenario.quick.name

    def test_unknown_scenario_error_lists_known_names(self):
        with pytest.raises(ExperimentError, match="definition1"):
            get_scenario("not-a-scenario")

    def test_quick_grids_run_everywhere(self):
        # The CI matrix depends on every quick grid being executable.  The
        # resilience grid deliberately contains failing verdicts (that is
        # the sweep's point), so only executability is asserted there.
        result = ExperimentSession(SCENARIOS["resilience"].grid(quick=True)).run()
        assert result.cells
        for name in ("table2", "necessity"):
            result = ExperimentSession(SCENARIOS[name].grid(quick=True)).run()
            assert result.cells and all(cell.success for cell in result.cells)
