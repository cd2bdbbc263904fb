"""Tests for the typed extension registries, scenario files and repro.api.

Covers the plugin surface end to end: Registry semantics (registration,
duplicates, freezing, did-you-mean errors), parametrized plugin specs,
eager plugin validation at GridSpec.expand() time, TOML round-tripping of
every built-in scenario, a third-party-style behaviour + topology registered
from test code and swept end to end, and the artifact byte-identity of the
registry-loaded scenarios against the committed baselines.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.adversary.behaviors import ByzantineBehavior, _replace_value
from repro.api import (
    ALGORITHMS,
    ALL_REGISTRIES,
    API_VERSION,
    BEHAVIORS,
    DELAYS,
    PLACEMENTS,
    STOP_POLICIES,
    TOPOLOGIES,
    DiGraph,
    ExperimentSession,
    GridSpec,
    Registry,
    TopologySpec,
    compare,
    get_scenario,
    load_artifact,
    parse_plugin_spec,
    scenario_names,
    write_artifact,
)
from repro.exceptions import (
    ExperimentError,
    RegistryError,
    ReproError,
    ScenarioFileError,
    UnknownPluginError,
)
from repro.registry import validate_plugin_args
from repro.runner.algorithms import resolve_sync_behavior
from repro.runner.scenario_files import (
    BUILTIN_SCENARIO_ORDER,
    Scenario,
    builtin_scenario_paths,
    dump_scenario_toml,
    load_scenario_file,
    load_scenario_text,
    parse_toml,
    validate_builtin_scenarios,
)
from repro.runner import scenarios as scenarios_module


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1, summary="first")
        assert registry.get("alpha")() == 1
        assert registry.names() == ["alpha"]
        assert "alpha" in registry
        assert registry.entry("alpha").summary == "first"

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("beta")
        def make_beta():
            """builds a beta"""
            return "beta"

        assert registry.get("beta") is make_beta
        assert registry.entry("beta").summary == "builds a beta"

    def test_duplicate_rejected_unless_replace(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("alpha", lambda: 2)
        registry.register("alpha", lambda: 2, replace=True)
        assert registry.get("alpha")() == 2

    def test_freeze_semantics(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        registry.freeze()
        assert registry.frozen
        with pytest.raises(RegistryError, match="frozen"):
            registry.register("beta", lambda: 2)
        with pytest.raises(RegistryError, match="frozen"):
            registry.unregister("alpha")
        registry.unfreeze()
        registry.register("beta", lambda: 2)
        registry.unregister("beta")
        assert registry.names() == ["alpha"]

    def test_temporary_registration(self):
        registry = Registry("widget")
        with registry.temporarily("gamma", lambda: 3):
            assert registry.get("gamma")() == 3
        assert "gamma" not in registry

    def test_unknown_name_did_you_mean(self):
        registry = Registry("widget")
        registry.register("equivocate", lambda: 1)
        registry.register("offset", lambda: 2)
        with pytest.raises(UnknownPluginError) as excinfo:
            registry.get("equivocat")
        message = str(excinfo.value)
        assert "did you mean 'equivocate'?" in message
        assert "offset" in message  # the full valid-name listing
        with pytest.raises(UnknownPluginError, match="registered topologies"):
            TOPOLOGIES.get("cliqe")
        # one exception type, catchable as either family
        assert isinstance(excinfo.value, ExperimentError)
        assert isinstance(excinfo.value, KeyError)
        assert isinstance(excinfo.value, ReproError)

    def test_unknown_plugin_error_survives_pickling(self):
        # Sharded sweeps pickle worker exceptions back to the parent.
        import pickle

        with pytest.raises(UnknownPluginError) as excinfo:
            TOPOLOGIES.get("cliqe")
        restored = pickle.loads(pickle.dumps(excinfo.value))
        assert isinstance(restored, UnknownPluginError)
        assert str(restored) == str(excinfo.value)
        assert restored.suggestion == "clique"

    def test_registry_errors_are_repro_errors(self):
        assert issubclass(RegistryError, ReproError)
        assert issubclass(UnknownPluginError, ExperimentError)
        assert issubclass(ScenarioFileError, ExperimentError)

    def test_builtin_registries_populated(self):
        assert "clique" in TOPOLOGIES and "two-cliques" in TOPOLOGIES
        assert "offset" in BEHAVIORS and "crash" in BEHAVIORS
        assert "random" in PLACEMENTS and "last" in PLACEMENTS
        assert {"bw", "check-reach"} <= set(ALGORITHMS.names())
        assert "uniform" in DELAYS
        assert "max-cells" in STOP_POLICIES
        assert API_VERSION == 3

    def test_algorithm_kinds(self):
        kinds = {name: ALGORITHMS.get(name).kind for name in ALGORITHMS.names()}
        assert kinds["bw"] == "consensus"
        assert kinds["check-necessity"] == "check"


# ----------------------------------------------------------------------
# parametrized plugin specs
# ----------------------------------------------------------------------
class TestPluginSpecs:
    def test_parse_plugin_spec(self):
        assert parse_plugin_spec("offset") == ("offset", ())
        assert parse_plugin_spec("offset:2.5") == ("offset", (2.5,))
        assert parse_plugin_spec("random:-1e3,1e3") == ("random", (-1000.0, 1000.0))
        assert parse_plugin_spec("replay:3") == ("replay", (3,))
        assert parse_plugin_spec("x:true,hello") == ("x", (True, "hello"))

    def test_parse_plugin_spec_rejects_garbage(self):
        with pytest.raises(ExperimentError):
            parse_plugin_spec("")
        with pytest.raises(ExperimentError):
            parse_plugin_spec(":2.5")

    def test_validate_plugin_args_arity(self):
        validate_plugin_args(BEHAVIORS, "offset:2.5")
        validate_plugin_args(BEHAVIORS, "crash-after:3")
        with pytest.raises(ExperimentError, match="parameter"):
            validate_plugin_args(BEHAVIORS, "crash-after")  # requires honest_sends
        with pytest.raises(ExperimentError, match="parameter"):
            validate_plugin_args(BEHAVIORS, "offset:1,2")  # too many

    def test_parametrized_behavior_factory(self):
        factory = BEHAVIORS.get("offset")
        assert factory(2.5).offset == 2.5
        assert factory().offset == 25.0  # the registered default

    def test_make_delay(self):
        from repro.network.delays import ConstantDelay, UniformDelay, make_delay
        from repro.runner.algorithms import DEFAULT_DELAY_SPEC

        constant = make_delay("constant:2.0")
        assert isinstance(constant, ConstantDelay) and constant.latency == 2.0
        default = make_delay(DEFAULT_DELAY_SPEC)  # what the cell runners use
        assert isinstance(default, UniformDelay)
        assert (default.low, default.high) == (0.5, 2.0)  # the historical default
        with pytest.raises(UnknownPluginError):
            make_delay("gaussian:1.0")
        with pytest.raises(ExperimentError, match="parameter"):
            make_delay("constant:1.0,2.0")

    def test_sync_behavior_resolution(self):
        assert resolve_sync_behavior("honest") is None
        report = resolve_sync_behavior("offset:2.5")
        assert report(0, 0, 1, 10.0) == 12.5
        fixed = resolve_sync_behavior("fixed-high")
        assert fixed(0, 0, 1, 10.0) == 1e6
        with pytest.raises(ExperimentError, match="synchronous"):
            resolve_sync_behavior("equivocate")


# ----------------------------------------------------------------------
# eager validation at expand() time
# ----------------------------------------------------------------------
class TestExpandValidation:
    def _spec(self, **overrides):
        fields = dict(
            name="probe",
            algorithms=("check-reach",),
            topologies=(TopologySpec.make("clique", n=4),),
            behaviors=("-",),
            placements=("-",),
            seeds=(0,),
        )
        fields.update(overrides)
        return GridSpec(**fields)

    def test_valid_spec_expands(self):
        assert len(self._spec().expand()) == 1

    def test_unknown_behavior_fails_at_expand(self):
        spec = self._spec(algorithms=("bw",), behaviors=("fixed-hgih",), placements=("random",))
        with pytest.raises(UnknownPluginError, match="fixed-high"):
            spec.expand()

    def test_unknown_topology_fails_at_expand(self):
        spec = self._spec(topologies=(TopologySpec.make("cliqe", n=4),))
        with pytest.raises(UnknownPluginError, match="clique"):
            spec.expand()

    def test_unknown_placement_and_algorithm_fail_at_expand(self):
        with pytest.raises(UnknownPluginError):
            self._spec(algorithms=("bw",), behaviors=("crash",), placements=("nope",)).expand()
        with pytest.raises(UnknownPluginError):
            self._spec(algorithms=("frobnicate",)).expand()

    def test_bad_behavior_arity_fails_at_expand(self):
        spec = self._spec(algorithms=("bw",), behaviors=("offset:1,2,3",), placements=("random",))
        with pytest.raises(ExperimentError, match="parameter"):
            spec.expand()

    def test_sharded_run_fails_before_forking(self):
        # The pool must never fork for a grid with a typo'd plugin name.
        spec = self._spec(algorithms=("bw",), behaviors=("nope",), placements=("random",))
        with pytest.raises(UnknownPluginError):
            ExperimentSession(spec, workers=2).run()


# ----------------------------------------------------------------------
# scenario files: dict and TOML round trips
# ----------------------------------------------------------------------
class TestScenarioFiles:
    def test_dict_round_trip_all_nine(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_toml_round_trip_all_nine(self):
        for name in scenario_names():
            scenario = get_scenario(name)
            text = dump_scenario_toml(scenario)
            assert load_scenario_text(text) == scenario

    def test_builtin_files_cover_canonical_order(self):
        stems = [path.stem for path in builtin_scenario_paths()]
        assert stems == list(BUILTIN_SCENARIO_ORDER)
        assert scenario_names() == list(BUILTIN_SCENARIO_ORDER)

    def test_validate_builtin_scenarios(self):
        scenarios = validate_builtin_scenarios()
        assert len(scenarios) == len(BUILTIN_SCENARIO_ORDER)

    def test_divergent_grid_name_survives_toml_round_trip(self):
        # The grid name keys the derived cell seeds; a spec whose name
        # differs from the scenario's must round-trip exactly.
        base = get_scenario("crash_baseline")
        import dataclasses

        scenario = dataclasses.replace(
            base, spec=dataclasses.replace(base.spec, name="inner-grid")
        )
        assert load_scenario_text(dump_scenario_toml(scenario)) == scenario

    def test_quick_defaults_to_spec(self):
        scenario = load_scenario_text(
            "\n".join(
                (
                    'name = "tiny"',
                    "[spec]",
                    'algorithms = ["check-reach"]',
                    'behaviors = ["-"]',
                    'placements = ["-"]',
                    "[[spec.topologies]]",
                    'family = "clique"',
                    "params = { n = 4 }",
                )
            )
        )
        assert scenario.quick == scenario.spec
        assert scenario.spec.name == "tiny"

    def test_schema_violations_rejected(self):
        with pytest.raises(ScenarioFileError, match="missing"):
            load_scenario_text('name = "x"')
        with pytest.raises(ScenarioFileError, match="name"):
            load_scenario_text("[spec]")
        with pytest.raises(ScenarioFileError, match="unknown grid-spec keys"):
            load_scenario_text(
                '\nname = "x"\n[spec]\nalgorithms = ["bw"]\nbogus = 1\n'
                '[[spec.topologies]]\nfamily = "clique"\nparams = { n = 4 }\n'
            )
        with pytest.raises(ScenarioFileError, match="schema_version"):
            load_scenario_text('schema_version = 99\nname = "x"\n[spec]\n')
        with pytest.raises(ScenarioFileError, match="non-empty list"):
            load_scenario_text('name = "x"\n[spec]\nalgorithms = []\n')

    @pytest.mark.parametrize(
        "raw",
        [b'name = "x\xff"\n', b'name = "x"\n[spec', b'name = "x"\nname = "y"\n'],
        ids=["non-utf8", "truncated-header", "duplicate-key"],
    )
    def test_malformed_file_raises_typed_error_naming_the_path(self, tmp_path, raw):
        path = tmp_path / "bad.toml"
        path.write_bytes(raw)
        with pytest.raises(ScenarioFileError) as caught:
            load_scenario_file(path)
        assert str(path) in str(caught.value)

    def test_unreadable_file_raises_typed_error_naming_the_path(self, tmp_path):
        path = tmp_path / "absent.toml"
        with pytest.raises(ScenarioFileError) as caught:
            load_scenario_file(path)
        assert str(path) in str(caught.value)

    def test_parse_toml_subset(self):
        # The TOML features a hand-written scenario file may use.
        payload = parse_toml(
            "\n".join(
                (
                    "# full-line comment",
                    'title = "hello # not a comment"  # trailing comment',
                    "count = 3",
                    "ratio = 0.5",
                    "flag = true",
                    "items = [1,",
                    "  2, 3]",
                    "[table]",
                    'inner = { a = 1, b = "two" }',
                    "[[rows]]",
                    "x = 1",
                    "[[rows]]",
                    "x = 2",
                )
            )
        )
        assert payload["title"] == "hello # not a comment"
        assert payload["count"] == 3 and payload["ratio"] == 0.5 and payload["flag"] is True
        assert payload["items"] == [1, 2, 3]
        assert payload["table"]["inner"] == {"a": 1, "b": "two"}
        assert [row["x"] for row in payload["rows"]] == [1, 2]


# ----------------------------------------------------------------------
# third-party-style extensions, registered from test code only
# ----------------------------------------------------------------------
def _double_star(n: int) -> DiGraph:
    """Two hubs, each broadcasting to every leaf; leaves answer both hubs."""
    graph = DiGraph(name=f"double-star-{n}")
    hubs = ["h0", "h1"]
    leaves = [f"leaf{i}" for i in range(n)]
    for node in hubs + leaves:
        graph.add_node(node)
    for hub in hubs:
        for leaf in leaves:
            graph.add_bidirectional_edge(hub, leaf)
    graph.add_bidirectional_edge("h0", "h1")
    return graph


class _HalveBehavior(ByzantineBehavior):
    """Report half the honest value (a third-party-style custom lie)."""

    def __init__(self, factor: float = 0.5) -> None:
        self.factor = factor

    def on_send(self, sender, receiver, payload, rng):
        if hasattr(payload, "value") and isinstance(payload.value, (int, float)):
            return [_replace_value(payload, payload.value * self.factor)]
        return [payload]


class TestThirdPartyExtensions:
    def test_custom_behavior_and_topology_sweep_end_to_end(self):
        """A behaviour + topology registered in-test drive a 4-cell sweep
        without modifying any src/repro file."""
        with TOPOLOGIES.temporarily("test-double-star", _double_star), BEHAVIORS.temporarily(
            "halve",
            lambda factor=0.5: _HalveBehavior(factor),
            metadata={"params": ("factor",), "min_params": 0},
        ):
            spec = GridSpec(
                name="third-party-probe",
                algorithms=("clique",),
                topologies=(TopologySpec.make("test-double-star", n=2),),
                f_values=(1,),
                behaviors=("halve", "halve:0.25"),
                placements=("last",),
                seeds=(1, 2),
                epsilon=0.5,
            )
            cells = spec.expand()  # plugin validation sees the new names
            assert len(cells) == 4
            result = ExperimentSession(spec).run()
        assert len(result.cells) == 4
        assert [cell.behavior for cell in result.cells] == [
            "halve", "halve", "halve:0.25", "halve:0.25",
        ]
        # the sweep really executed: every cell simulated messages
        assert all(cell.messages > 0 for cell in result.cells)
        # once the registration is gone, the same grid fails eagerly
        with pytest.raises(UnknownPluginError):
            spec.expand()

    def test_custom_algorithm_runs(self):
        from repro.runner.algorithms import AlgorithmSpec
        from repro.runner.harness import CellResult

        def run_stub(spec, cell, graph):
            return CellResult(
                index=cell.index,
                algorithm=cell.algorithm,
                topology=cell.topology.label,
                n=graph.num_nodes,
                f=cell.f,
                behavior=cell.behavior,
                placement=cell.placement,
                seed=cell.seed,
                derived_seed=cell.derived_seed,
                success=graph.num_nodes > 3,
                metrics={"nodes": graph.num_nodes},
            )

        stub = AlgorithmSpec(name="node-count", kind="check", run=run_stub)
        with ALGORITHMS.temporarily("node-count", stub):
            result = ExperimentSession(
                GridSpec(
                    name="algo-probe",
                    algorithms=("node-count",),
                    topologies=(TopologySpec.make("clique", n=5),),
                    behaviors=("-",),
                    placements=("-",),
                    seeds=(0,),
                )
            ).run()
        assert result.cells[0].success and result.cells[0].metrics["nodes"] == 5


# ----------------------------------------------------------------------
# artifact identity: registry-loaded scenarios vs committed baselines
# ----------------------------------------------------------------------
class TestArtifactIdentity:
    def test_every_quick_artifact_compares_clean(self, tmp_path):
        # One run per quick grid.  compare() gates only group success rates
        # and mean rounds, so every cell and every other field is also
        # checked byte for byte once both sides are canonically serialized;
        # provenance (environment, git) varies by machine and is left out.
        for name in scenario_names():
            result = ExperimentSession(get_scenario(name).grid(quick=True)).run()
            path = tmp_path / f"{name}.quick.json"
            write_artifact(path, result, mode="quick")
            fresh = load_artifact(path)
            with open(f"benchmarks/baselines/{name}.quick.json", encoding="utf-8") as handle:
                baseline = json.load(handle)
            assert fresh.keys() == baseline.keys(), name
            assert len(fresh["cells"]) == len(baseline["cells"]), name
            for index, (cell, expected) in enumerate(zip(fresh["cells"], baseline["cells"])):
                assert json.dumps(cell, sort_keys=True) == json.dumps(
                    expected, sort_keys=True
                ), f"{name}: drift in cell {index}"
            for key in sorted(fresh.keys() - {"environment", "git", "cells"}):
                assert json.dumps(fresh[key], sort_keys=True) == json.dumps(
                    baseline[key], sort_keys=True
                ), f"{name}: drift in artifact field {key!r}"
            report = compare(baseline, fresh)
            assert report.ok, f"{name}: {report.describe()}"


# ----------------------------------------------------------------------
# the pre-registry shim surface is gone; the registries cover it
# ----------------------------------------------------------------------
class TestShimSurfaceCollapsed:
    def test_scenarios_no_longer_carries_the_shims(self):
        # the duplicate loader paths were collapsed after api v2; the names
        # must not quietly come back alongside scenario_files.py
        for name in (
            "build_topology",
            "resolve_placement",
            "TOPOLOGY_FAMILIES",
            "BEHAVIOR_FACTORIES",
            "SYNC_BYZANTINE_VALUES",
        ):
            assert not hasattr(scenarios_module, name)
            assert name not in scenarios_module.__all__

    def test_registries_cover_the_former_topology_view(self):
        assert "clique" in TOPOLOGIES
        graph = TopologySpec.make("clique", n=4).build()
        assert graph.num_nodes == 4
        with pytest.raises(ExperimentError):
            TopologySpec.make("not-a-family").build()

    def test_registries_cover_the_former_behavior_views(self):
        behavior = BEHAVIORS.get("fixed-high")()
        assert behavior.value == 1e6
        assert "honest" in BEHAVIORS
        assert resolve_sync_behavior("honest") is None
        assert resolve_sync_behavior("fixed-high")(0, 0, 1, 3.0) == 1e6
        assert resolve_sync_behavior("offset")(0, 0, 1, 3.0) == 28.0
        with pytest.raises(ExperimentError):
            resolve_sync_behavior("crash")


# ----------------------------------------------------------------------
# import independence: registries and layers need no facade import
# ----------------------------------------------------------------------
def _fresh_python(script: str):
    """Run ``script`` in a new interpreter; return its last stdout line as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _repro_modules_loaded_by(module: str):
    return _fresh_python(
        f"""
import importlib, json, sys
importlib.import_module({module!r})
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
"""
    )


class TestImportIndependence:
    @pytest.mark.parametrize("kind", sorted(ALL_REGISTRIES))
    def test_registry_is_complete_without_the_facade(self, kind):
        # every built-in registers from the registry's own provider modules,
        # so a worker that imports only repro.registry sees the same names
        before, api_loaded, after = _fresh_python(
            f"""
import json, sys
from repro.registry import ALL_REGISTRIES
registry = ALL_REGISTRIES[{kind!r}]
before = registry.names()
api_loaded = "repro.api" in sys.modules
import repro.api
print(json.dumps([before, api_loaded, registry.names()]))
"""
        )
        assert before, kind
        assert not api_loaded
        assert before == after

    def test_graphs_load_no_run_machinery(self):
        loaded = _repro_modules_loaded_by("repro.graphs.digraph")
        assert "repro.graphs.digraph" in loaded
        assert not [
            name
            for name in loaded
            if name.startswith(("repro.runner", "repro.store", "repro.phase"))
        ]

    def test_session_loads_no_store_phase_fabric_or_cli(self):
        loaded = _repro_modules_loaded_by("repro.runner.session")
        assert "repro.runner.session" in loaded
        assert not [
            name
            for name in loaded
            if name.startswith(("repro.store", "repro.phase"))
            or name in ("repro.runner.fabric", "repro.runner.cli")
        ]
