"""Levelization: the package's import graph is acyclic and layered bottom-up.

The paper's objects build on each other — graphs, then the reach
conditions, then the BW algorithm, then asynchronous runs — and the
package follows that order.  This test parses every module under
``src/repro`` with the stdlib :mod:`ast`, builds the module-level import
graph on the repo's own :class:`~repro.graphs.digraph.DiGraph`, and asserts:

* no import cycle (a strongly connected component of more than one module);
* no edge from a module up into a higher layer of :data:`LAYERS`
  (same-layer edges are fine);
* no import statement in any package ``__init__.py`` — the packages
  re-export nothing, and :mod:`repro.api` is the one facade.

Module-level means what runs at import time: imports inside function
bodies and ``if TYPE_CHECKING:`` blocks are not edges.  Importing
``a.b.c`` runs ``a/b/__init__.py`` first, so every module also has an edge
to its parent package.

The same graph carries Lakos's design-quality ratchet: its cumulative
dependency CCD, the normalised NCCD and the number of transitive
(redundant) edges must not rise.

It also keeps the pre-registry loader shims of ``runner/scenarios.py``
out of the code under ``src/`` and ``tests/``.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from repro.graphs.digraph import DiGraph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Bottom-up layer order.  A module may import from its own layer or any
#: layer below it.  ``network`` sits below ``algorithms`` (the protocols are
#: written against ``network.node``); ``runner.cli`` and
#: ``runner.__main__`` sit with ``api`` on top of ``phase`` and ``store``.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("repro.exceptions",),
    ("repro.registry",),
    ("repro.graphs",),
    ("repro.conditions", "repro.network"),
    ("repro.algorithms",),
    ("repro.adversary", "repro.analysis"),
    ("repro.runner",),
    ("repro.phase", "repro.store"),
    ("repro.api", "repro.runner.cli", "repro.runner.__main__"),
)

#: The identifiers of the pre-registry shims that ``runner/scenarios.py``
#: once carried; the registries in :mod:`repro.registry` replaced them.
SHIM_LOADERS = frozenset({"build_topology", "resolve_placement"})
SHIM_VIEWS = frozenset({"TOPOLOGY_FAMILIES", "BEHAVIOR_FACTORIES", "SYNC_BYZANTINE_VALUES"})

#: Committed CCD, NCCD and transitive-edge count of the import graph
#: without the package ``__init__``s (57 modules, 226 edges).  A change
#: that lowers them lowers these numbers with it; a rise fails
#: :func:`test_cumulative_dependency_does_not_rise`.
CCD_CEILING = 524
NCCD_CEILING = 1.853
TRANSITIVE_EDGES_CEILING = 121


def module_files() -> Dict[str, Path]:
    """Dotted module name -> source file, for every module of ``repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = module_files()


def is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def import_time_nodes(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements that run at import time: skip function bodies and
    ``if TYPE_CHECKING:`` branches, descend into everything else."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if isinstance(node, ast.If) and is_type_checking(node.test):
            yield from import_time_nodes(node.orelse)
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from import_time_nodes(getattr(node, field, []))


def imported_modules(module: str, path: Path) -> Set[str]:
    """The ``repro`` modules ``module`` imports at import time."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    targets: Set[str] = set()
    for node in import_time_nodes(ast.parse(path.read_text(encoding="utf-8")).body):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                submodule = f"{base}.{alias.name}"
                targets.add(submodule if submodule in MODULES else base)
    return {target for target in targets if target in MODULES}


def import_graph() -> DiGraph:
    graph = DiGraph(nodes=MODULES, name="repro imports")
    for module, path in MODULES.items():
        parent = module.rpartition(".")[0]
        if parent:
            graph.add_edge(module, parent)
        for target in imported_modules(module, path):
            if target != module:
                graph.add_edge(module, target)
    return graph


def layer_of(module: str) -> int:
    """Index in :data:`LAYERS` of the longest matching prefix; -1 for the
    root package, which every module imports implicitly."""
    best, best_len = -1, 0
    for rank, prefixes in enumerate(LAYERS):
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_len:
                best, best_len = rank, len(prefix)
    return best


GRAPH = import_graph()


def test_the_import_graph_covers_the_package():
    assert {"repro", "repro.api", "repro.graphs.digraph", "repro.runner.cli"} <= set(MODULES)
    assert GRAPH.has_edge("repro.runner.session", "repro.runner.journal")
    assert GRAPH.has_edge("repro.graphs.digraph", "repro.graphs")


def test_no_import_cycle():
    cycles = [
        sorted(component)
        for component in GRAPH.strongly_connected_components()
        if len(component) > 1
    ]
    assert not cycles, "import cycles: " + "; ".join(
        f"{len(cycle)} modules {cycle}" for cycle in cycles
    )


def component_dependencies(graph: DiGraph) -> Dict[str, int]:
    """CD per node: how many nodes it reaches, itself included."""
    return {node: len(graph.descendants(node)) + 1 for node in graph.nodes}


def normalised_ccd(ccd: int, modules: int) -> float:
    """CCD over the CCD of a balanced binary tree of the same size (Lakos)."""
    return ccd / ((modules + 1) * (math.log2(modules + 1) - 1) + 1)


def transitive_edges(graph: DiGraph) -> int:
    """How many edges ``u -> v`` are redundant: ``v`` is also reached from
    ``u`` through another successor (the edges cppdep strips before it
    levelizes)."""
    redundant = 0
    for node in graph.nodes:
        successors = set(graph.successors(node))
        further = set()
        for successor in successors:
            further |= graph.descendants(successor)
        redundant += len(successors & further)
    return redundant


def module_graph() -> DiGraph:
    """The import graph with the package ``__init__``s left out (they
    import nothing, so no path runs through them)."""
    packages = [module for module, path in MODULES.items() if path.name == "__init__.py"]
    return GRAPH.exclude_nodes(packages)


@pytest.mark.parametrize(
    "edges, cd, nccd, transitive",
    [
        ([("a", "b"), ("a", "c")], {"a": 3, "b": 1, "c": 1}, 1.0, 0),
        ([("a", "b"), ("b", "c")], {"a": 3, "b": 2, "c": 1}, 1.2, 0),
        ([("a", "b"), ("b", "c"), ("a", "c")], {"a": 3, "b": 2, "c": 1}, 1.2, 1),
    ],
    ids=["binary-tree", "chain", "shortcut"],
)
def test_ccd_arithmetic_on_small_graphs(edges, cd, nccd, transitive):
    graph = DiGraph(edges=edges)
    measured = component_dependencies(graph)
    assert measured == cd
    assert normalised_ccd(sum(measured.values()), len(measured)) == pytest.approx(nccd)
    assert transitive_edges(graph) == transitive


def test_cumulative_dependency_does_not_rise():
    graph = module_graph()
    cd = component_dependencies(graph)
    modules = len(cd)
    ccd = sum(cd.values())
    nccd = normalised_ccd(ccd, modules)
    heaviest = sorted(cd.items(), key=lambda item: -item[1])[:4]
    assert ccd <= CCD_CEILING, f"CCD rose to {ccd} (N={modules}); heaviest: {heaviest}"
    assert round(nccd, 3) <= NCCD_CEILING, f"NCCD rose to {nccd:.3f} (N={modules}, CCD={ccd})"
    redundant = transitive_edges(graph)
    assert redundant <= TRANSITIVE_EDGES_CEILING, (
        f"transitive edges rose to {redundant} of {graph.num_edges}"
    )


def test_every_module_has_a_layer():
    unplaced = [module for module in MODULES if module != "repro" and layer_of(module) < 0]
    assert not unplaced, f"add these modules to LAYERS: {unplaced}"


def test_no_upward_edge():
    upward = [
        f"{source} -> {target}"
        for source, target in GRAPH.edges
        if layer_of(target) > layer_of(source)
    ]
    assert not upward, "imports into a higher layer: " + ", ".join(sorted(upward))


@pytest.mark.parametrize(
    "path",
    sorted(path for path in MODULES.values() if path.name == "__init__.py"),
    ids=lambda path: str(path.relative_to(SRC)),
)
def test_package_init_imports_nothing(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [
        node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not imports, f"{path.name} imports on lines {imports}; import from the home module"


def dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return ""


def shim_references(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """Code (not prose) that reaches for a collapsed registry shim: an
    import of a loader from ``repro.runner.scenarios``, a ``scenarios.``
    attribute access to one, or any identifier naming a mapping view."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.runner.scenarios":
            for alias in node.names:
                if alias.name in SHIM_LOADERS:
                    yield node.lineno, f"from repro.runner.scenarios import {alias.name}"
        if isinstance(node, ast.Attribute) and node.attr in SHIM_LOADERS:
            if dotted(node.value).split(".")[-1] == "scenarios":
                yield node.lineno, dotted(node)
        names: List[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for a in node.names for n in (a.name.split(".")[-1], a.asname or "")]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword):
            names = [node.arg or ""]
        for name in names:
            if name in SHIM_VIEWS:
                yield node.lineno, name


@pytest.mark.parametrize("tree_root", ["src/repro", "tests"])
def test_collapsed_registry_shims_stay_gone(tree_root):
    hits = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted((ROOT / tree_root).rglob("*.py"))
        for line, what in shim_references(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not hits, "collapsed registry shims referenced (use repro.registry / repro.api): " + (
        "; ".join(hits)
    )
