"""Smoke tests for the ``python -m repro.runner`` command line."""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys


from repro.runner.artifacts import load_artifact
from repro.runner.cli import main

REPO_ROOT = pathlib.Path(__file__).parent.parent
SRC_DIR = REPO_ROOT / "src"


def _run_module(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.runner", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class TestInProcess:
    """Drive ``main()`` directly — fast, covers the plumbing."""

    def test_list_shows_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1a", "figure1b", "definition1", "table1", "necessity"):
            assert name in out

    def test_list_shows_grid_axes_from_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "grid axes" in out
        assert "f=1,2" in out  # resilience/table grids sweep two fault bounds
        assert "two-cliques" in out

    def test_list_plugins_shows_every_registry(self, capsys):
        assert main(["list", "--plugins"]) == 0
        out = capsys.readouterr().out
        for section in ("topologies", "behaviors", "placements", "algorithms", "delays"):
            assert section in out
        assert "offset:offset" in out  # behaviour parameter schema rendered
        assert "check-necessity" in out and "consensus" in out
        assert "uniform:low,high" in out

    def test_run_scenario_file(self, tmp_path, capsys):
        scenario_file = tmp_path / "tiny.toml"
        scenario_file.write_text(
            "\n".join(
                (
                    'name = "tiny_probe"',
                    'description = "one-cell scenario-file smoke test"',
                    "[spec]",
                    'algorithms = ["check-reach"]',
                    "f_values = [1]",
                    'behaviors = ["-"]',
                    'placements = ["-"]',
                    "seeds = [0]",
                    "[[spec.topologies]]",
                    'family = "clique"',
                    "params = { n = 4 }",
                )
            ),
            encoding="utf-8",
        )
        target = tmp_path / "tiny.json"
        code = main(
            ["run", "--scenario-file", str(scenario_file), "--output", str(target),
             "--no-table"]
        )
        assert code == 0
        payload = load_artifact(target)
        assert payload["scenario"] == "tiny_probe"
        assert payload["totals"]["cells"] == 1

    def test_run_scenario_file_with_unknown_plugin_is_a_clean_error(self, tmp_path, capsys):
        scenario_file = tmp_path / "bad.toml"
        scenario_file.write_text(
            "\n".join(
                (
                    'name = "bad_probe"',
                    "[spec]",
                    'algorithms = ["check-rech"]',
                    'behaviors = ["-"]',
                    'placements = ["-"]',
                    "[[spec.topologies]]",
                    'family = "clique"',
                    "params = { n = 4 }",
                )
            ),
            encoding="utf-8",
        )
        code = main(["run", "--scenario-file", str(scenario_file), "--output",
                     str(tmp_path / "bad.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "check-reach" in err  # the did-you-mean suggestion

    def test_run_without_selection_is_a_clean_error(self, capsys):
        assert main(["run"]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_run_with_unimportable_plugin_module_is_a_clean_error(self, capsys):
        code = main(["run", "--plugins", "no_such_plugin_module", "--scenario", "necessity"])
        assert code == 2
        assert "no_such_plugin_module" in capsys.readouterr().err

    def test_run_writes_artifact_and_prints_table(self, tmp_path, capsys):
        target = tmp_path / "table1.json"
        code = main(
            ["run", "--scenario", "table1", "--quick", "--workers", "2",
             "--output", str(target)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table1" in out and "cells" in out
        payload = load_artifact(target)
        assert payload["scenario"] == "table1" and payload["mode"] == "quick"

    def test_run_multiple_scenarios_into_directory(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", "table1,necessity", "--quick",
             "--output", str(tmp_path), "--no-table"]
        )
        assert code == 0
        assert (tmp_path / "table1.quick.json").exists()
        assert (tmp_path / "necessity.quick.json").exists()

    def test_compare_gate(self, tmp_path, capsys):
        target = tmp_path / "current.json"
        assert main(["run", "--scenario", "table1", "--quick", "--no-table",
                     "--output", str(target)]) == 0
        assert main(["compare", str(target), str(target)]) == 0
        assert "OK" in capsys.readouterr().out

        drifted_path = tmp_path / "drifted.json"
        payload = json.loads(target.read_text(encoding="utf-8"))
        payload["groups"][0]["success_rate"] = 0.0
        drifted_path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["compare", str(target), str(drifted_path)]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_unknown_scenario_is_a_clean_error(self, tmp_path, capsys):
        code = main(["run", "--scenario", "nope", "--output", str(tmp_path)])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_profile_reports_phases_and_top_functions(self, tmp_path, capsys):
        raw = tmp_path / "profile.pstats"
        code = main(
            ["profile", "--scenario", "figure1a", "--quick", "--top", "5",
             "--sort", "tottime", "--output", str(raw)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for phase in ("expand", "precompute", "execute"):
            assert phase in out
        # The collector's row: seconds, then passes per generation.
        assert re.search(
            r"^\| gc +\| \d+\.\d{4} +\|.*\| passes by generation \d+/\d+/\d+ ", out, re.M
        )
        assert "cells/s" in out
        assert "ncalls" in out  # the pstats table made it to stdout
        assert raw.exists()

    def test_profile_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["profile", "--scenario", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestSubprocess:
    """One true ``python -m repro.runner`` invocation end to end."""

    def test_module_entry_point(self, tmp_path):
        listed = _run_module(["list"], cwd=tmp_path)
        assert listed.returncode == 0, listed.stderr
        assert "definition1" in listed.stdout

        ran = _run_module(
            ["run", "--scenario", "necessity", "--quick", "--workers", "2",
             "--output", str(tmp_path / "necessity.json")],
            cwd=tmp_path,
        )
        assert ran.returncode == 0, ran.stderr
        payload = load_artifact(tmp_path / "necessity.json")
        assert payload["totals"]["cells"] == 2

    def test_plugins_module_and_scenario_file(self, tmp_path):
        """The full third-party flow: --plugins registers a custom topology,
        a scenario TOML references it, the sweep runs sharded."""
        (tmp_path / "cli_probe_plugins.py").write_text(
            "\n".join(
                (
                    "from repro.api import TOPOLOGIES, DiGraph",
                    "",
                    "",
                    '@TOPOLOGIES.register("cli-probe-path")',
                    "def probe_path(n):",
                    "    graph = DiGraph(name=f'probe-{n}')",
                    "    for node in range(n):",
                    "        graph.add_node(node)",
                    "    for node in range(n - 1):",
                    "        graph.add_bidirectional_edge(node, node + 1)",
                    "    return graph",
                )
            ),
            encoding="utf-8",
        )
        (tmp_path / "probe.toml").write_text(
            "\n".join(
                (
                    'name = "cli_probe"',
                    "[spec]",
                    'algorithms = ["check-reach"]',
                    "f_values = [1]",
                    'behaviors = ["-"]',
                    'placements = ["-"]',
                    "seeds = [0]",
                    "[[spec.topologies]]",
                    'family = "cli-probe-path"',
                    "params = { n = 5 }",
                )
            ),
            encoding="utf-8",
        )
        ran = _run_module(
            ["run", "--plugins", "cli_probe_plugins", "--scenario-file", "probe.toml",
             "--workers", "2", "--output", str(tmp_path / "probe.json"), "--no-table"],
            cwd=tmp_path,
        )
        assert ran.returncode == 0, ran.stderr
        payload = load_artifact(tmp_path / "probe.json")
        assert payload["scenario"] == "cli_probe"
        assert payload["cells"][0]["topology"] == "cli-probe-path(n=5)"
        # without the plugin module the same run fails eagerly, listing names
        failed = _run_module(
            ["run", "--scenario-file", "probe.toml", "--output",
             str(tmp_path / "nope.json")],
            cwd=tmp_path,
        )
        assert failed.returncode == 2
        assert "registered topologies" in failed.stderr
