"""Declarative scenario files: TOML <-> :class:`Scenario` round-tripping.

A *scenario* couples a :class:`~repro.runner.harness.GridSpec` (the full
grid behind one paper artefact) with a cheaper ``quick`` variant used by CI
shards and smoke tests.  The nine built-in scenarios are committed as TOML
files under ``src/repro/runner/scenarios/`` and loaded through this module;
user scenarios use the same format and run via
``python -m repro.runner run --scenario-file path.toml``.

File format (one scenario per file)::

    schema_version = 1
    name = "my_sweep"
    description = "what the grid measures"
    artefact = "which paper artefact it reproduces"

    [spec]                      # the full grid (axes + shared parameters)
    algorithms = ["bw"]
    f_values = [1]
    behaviors = ["crash", "offset:2.5"]
    placements = ["random"]
    seeds = [1, 2, 3]
    epsilon = 0.25
    path_policy = "simple"

    [[spec.topologies]]
    family = "two-cliques"
    params = { clique_size = 5, forward_bridges = 2, backward_bridges = 2 }

    [quick]                     # optional reduced CI grid; defaults to spec
    ...

Axis names (topology families, behaviours, placements, algorithms) resolve
through the registries in :mod:`repro.registry`; unknown names raise
:class:`~repro.exceptions.UnknownPluginError` when the grid expands —
before any worker pool forks.  Structural problems (unknown keys, wrong
types) raise :class:`~repro.exceptions.ScenarioFileError` at load time.

Parsing uses the standard library's :mod:`tomllib`; since it only reads,
:func:`dump_scenario_toml` emits the canonical committed text itself.
"""

from __future__ import annotations

import json
import pathlib
import tomllib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Union

from repro.exceptions import ScenarioFileError
from repro.runner.harness import GridSpec

#: Directory holding the committed built-in scenario files.
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent / "scenarios"

#: Canonical listing order of the built-in scenarios (the historical
#: registration order; any extra committed file sorts after these).
BUILTIN_SCENARIO_ORDER = (
    "figure1a",
    "figure1b",
    "definition1",
    "baselines_zoo",
    "crash_baseline",
    "resilience",
    "table1",
    "table2",
    "necessity",
    "scaling",
    "churn",
    "congestion",
    "phase_density",
    "phase_smallworld",
)

SCENARIO_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# the scenario model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """A named sweep: the full grid plus a CI-friendly quick variant."""

    name: str
    description: str
    artefact: str
    spec: GridSpec
    quick: GridSpec

    def grid(self, quick: bool = False) -> GridSpec:
        return self.quick if quick else self.spec

    def to_dict(self) -> Dict[str, object]:
        """JSON/TOML-ready payload; inverse of :meth:`from_dict`."""
        return {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "name": self.name,
            "description": self.description,
            "artefact": self.artefact,
            "spec": self.spec.as_dict(),
            "quick": self.quick.as_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Scenario":
        """Build a scenario from a parsed file payload, with validation.

        ``quick`` is optional (defaults to the full grid); the grids inherit
        the scenario ``name`` when their tables omit it.  Raises
        :class:`~repro.exceptions.ScenarioFileError` on structural problems.
        """
        if not isinstance(payload, Mapping):
            raise ScenarioFileError(f"scenario payload must be a table, got {payload!r}")
        known = {"schema_version", "name", "description", "artefact", "spec", "quick"}
        unknown = set(payload) - known
        if unknown:
            raise ScenarioFileError(f"unknown scenario keys {sorted(unknown)}")
        version = payload.get("schema_version", SCENARIO_SCHEMA_VERSION)
        if version != SCENARIO_SCHEMA_VERSION:
            raise ScenarioFileError(
                f"unsupported scenario schema_version {version!r} "
                f"(this library reads version {SCENARIO_SCHEMA_VERSION})"
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioFileError(f"scenario 'name' must be a non-empty string, got {name!r}")
        description = payload.get("description", "")
        artefact = payload.get("artefact", "")
        for key, value in (("description", description), ("artefact", artefact)):
            if not isinstance(value, str):
                raise ScenarioFileError(f"scenario {key!r} must be a string, got {value!r}")
        if "spec" not in payload:
            raise ScenarioFileError("scenario is missing its [spec] table")

        def grid_from(key: str) -> GridSpec:
            table = payload[key]
            if not isinstance(table, Mapping):
                raise ScenarioFileError(f"[{key}] must be a table, got {table!r}")
            if "name" not in table:
                table = {**table, "name": name}
            try:
                return GridSpec.from_dict(table)
            except ScenarioFileError as error:
                raise ScenarioFileError(f"[{key}] of scenario {name!r}: {error}") from None

        spec = grid_from("spec")
        quick = grid_from("quick") if "quick" in payload else spec
        return cls(name=name, description=description, artefact=artefact, spec=spec, quick=quick)


# ----------------------------------------------------------------------
# TOML reading
# ----------------------------------------------------------------------
def parse_toml(text: str) -> Dict[str, object]:
    """Parse TOML text into plain dicts/lists."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ScenarioFileError(f"invalid TOML: {error}") from None


# ----------------------------------------------------------------------
# TOML writing (tomllib only reads; this is the canonical emission)
# ----------------------------------------------------------------------
def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        return text if ("." in text or "e" in text or "inf" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    raise ScenarioFileError(f"cannot serialize {value!r} to TOML")


def _grid_section(section: str, payload: Mapping[str, object], scenario_name: str) -> List[str]:
    lines = [f"[{section}]"]
    if payload["name"] != scenario_name:
        # Grids normally inherit the scenario name (and from_dict re-injects
        # it), but the grid name keys the derived cell seeds — a divergent
        # name must survive the round trip exactly.
        lines.append(f'name = {_format_value(payload["name"])}')
    for key, value in payload.items():
        if key in ("topologies", "name"):
            continue  # topologies get their own tables below
        lines.append(f"{key} = {_format_value(value)}")
    for topology in payload["topologies"]:  # type: ignore[index]
        lines.append("")
        lines.append(f"[[{section}.topologies]]")
        lines.append(f'family = {_format_value(topology["family"])}')
        params = topology.get("params") or {}
        if params:
            inner = ", ".join(f"{key} = {_format_value(val)}" for key, val in params.items())
            lines.append(f"params = {{ {inner} }}")
    return lines


def dump_scenario_toml(scenario: Scenario) -> str:
    """Serialize a scenario to the canonical TOML text (committed format)."""
    payload = scenario.to_dict()
    lines = [
        f"schema_version = {payload['schema_version']}",
        f"name = {_format_value(payload['name'])}",
        f"description = {_format_value(payload['description'])}",
        f"artefact = {_format_value(payload['artefact'])}",
        "",
    ]
    name = str(payload["name"])
    lines.extend(_grid_section("spec", payload["spec"], name))  # type: ignore[arg-type]
    lines.append("")
    lines.extend(_grid_section("quick", payload["quick"], name))  # type: ignore[arg-type]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_scenario_text(text: str, source: str = "<string>") -> Scenario:
    """Parse one scenario from TOML text."""
    try:
        return Scenario.from_dict(parse_toml(text))
    except ScenarioFileError as error:
        raise ScenarioFileError(f"{source}: {error}") from None


def load_scenario_file(path: Union[str, pathlib.Path]) -> Scenario:
    """Load one scenario from a TOML file."""
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise ScenarioFileError(f"cannot read scenario file {path}: {error}") from None
    return load_scenario_text(text, source=str(path))


def builtin_scenario_paths() -> List[pathlib.Path]:
    """The committed scenario files, in canonical listing order."""
    order = {name: index for index, name in enumerate(BUILTIN_SCENARIO_ORDER)}
    paths = sorted(SCENARIO_DIR.glob("*.toml"))
    return sorted(paths, key=lambda path: (order.get(path.stem, len(order)), path.stem))


def load_builtin_scenarios() -> Dict[str, Scenario]:
    """Load every committed scenario file into a name-keyed dict."""
    scenarios: Dict[str, Scenario] = {}
    for path in builtin_scenario_paths():
        scenario = load_scenario_file(path)
        if scenario.name != path.stem:
            raise ScenarioFileError(
                f"{path}: scenario name {scenario.name!r} must match the file stem"
            )
        if scenario.name in scenarios:
            raise ScenarioFileError(f"{path}: duplicate scenario name {scenario.name!r}")
        scenarios[scenario.name] = scenario
    return scenarios


def validate_builtin_scenarios(verbose: bool = False) -> List[Scenario]:
    """Schema- and plugin-validate every committed scenario file.

    Loads each TOML, expands both grids (which resolves every referenced
    plugin name through the registries), and returns the scenarios.  CI runs
    this to keep the committed files honest.
    """
    scenarios = load_builtin_scenarios()
    missing = set(BUILTIN_SCENARIO_ORDER) - set(scenarios)
    if missing:
        raise ScenarioFileError(f"missing committed scenario files for {sorted(missing)}")
    for scenario in scenarios.values():
        for grid in (scenario.spec, scenario.quick):
            cells = grid.expand()
            if verbose:
                print(f"{scenario.name}: {grid.name} ok ({len(cells)} cells)")
    return list(scenarios.values())


__all__ = [
    "BUILTIN_SCENARIO_ORDER",
    "SCENARIO_DIR",
    "SCENARIO_SCHEMA_VERSION",
    "Scenario",
    "builtin_scenario_paths",
    "dump_scenario_toml",
    "load_builtin_scenarios",
    "load_scenario_file",
    "load_scenario_text",
    "parse_toml",
    "validate_builtin_scenarios",
]
