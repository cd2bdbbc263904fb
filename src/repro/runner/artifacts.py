"""Machine-readable sweep artifacts: write, load, validate, compare.

Every sweep run serializes to one canonical JSON document so that

* CI can diff a freshly generated artifact against a committed baseline and
  *fail the build* when a scenario's success rate or round counts drift;
* serial and sharded runs of the same grid are **byte-identical** — the
  payload deliberately excludes wall-clock time, worker counts and
  timestamps (those are observational, printed to stdout instead).

The document layout (``schema_version`` 1)::

    {
      "schema_version": 1,
      "kind": "repro-sweep",
      "scenario": "<grid name>",
      "mode": "quick" | "full",
      "spec": { ...GridSpec.as_dict()... },
      "environment": {"python": ..., "implementation": ..., "platform": ...},
      "git": {"commit": ..., "dirty": ...} | null,
      "totals": {"cells": N, "successes": M, "success_rate": x},
      "groups": [ ...GroupAggregate.as_dict()... ],
      "cells": [ ...CellResult.as_dict()... ]
    }

``environment`` and ``git`` are provenance only — :func:`compare` never
looks at them, so baselines recorded on one machine gate runs on another.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import ArtifactError
from repro.runner.harness import CellResult, SweepRunResult

SCHEMA_VERSION = 1
ARTIFACT_KIND = "repro-sweep"

_REQUIRED_KEYS = ("schema_version", "kind", "scenario", "mode", "spec", "totals", "groups", "cells")

#: Fields every serialized group aggregate must carry (compare() reads them).
_GROUP_KEYS = (
    "algorithm",
    "topology",
    "f",
    "behavior",
    "placement",
    "runs",
    "success_rate",
    "mean_rounds",
)

PathLike = Union[str, pathlib.Path]


# ----------------------------------------------------------------------
# provenance metadata
# ----------------------------------------------------------------------
def environment_metadata() -> Dict[str, str]:
    """Interpreter / platform provenance recorded alongside results.

    ``bitset_backend`` records the process-wide backend selection policy
    (see :func:`repro.graphs.bitset_backends.backend_policy`) so every
    artifact and journal header is attributable to a backend.  Like the
    rest of the environment block it is provenance only: :func:`compare`
    never reads it, so baselines recorded under one backend gate runs under
    another.
    """
    # lazy: bitset_backends imports numpy when installed; only provenance needs it
    from repro.graphs.bitset_backends import backend_policy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "bitset_backend": backend_policy(),
    }


def git_metadata(repo_dir: Optional[PathLike] = None) -> Optional[Dict[str, object]]:
    """Current commit hash and dirty flag, or ``None`` outside a checkout."""
    cwd = str(repo_dir) if repo_dir is not None else None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return {"commit": commit, "dirty": bool(status.strip())}


# ----------------------------------------------------------------------
# payload construction / serialization
# ----------------------------------------------------------------------
def artifact_payload(
    result: SweepRunResult,
    mode: str = "full",
    repo_dir: Optional[PathLike] = None,
    provenance: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Deterministic JSON-ready payload for a sweep run.

    Identical grids produce identical payloads regardless of worker count:
    cells are emitted in index order and no timing fields are included.

    ``provenance`` — a mapping with ``environment`` and ``git`` keys —
    overrides the freshly probed metadata.  Journal-backed sessions pass
    the values recorded in the journal header, so an artifact derived from
    a journal (including one resumed on a later commit) is byte-identical
    to the artifact the uninterrupted original run would have written.
    """
    if mode not in ("quick", "full"):
        raise ArtifactError(f"mode must be 'quick' or 'full', got {mode!r}")
    if provenance is not None:
        environment = provenance.get("environment")
        git = provenance.get("git")
    else:
        environment = environment_metadata()
        git = git_metadata(repo_dir)
    successes = sum(1 for cell in result.cells if cell.success)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": ARTIFACT_KIND,
        "scenario": result.spec.name,
        "mode": mode,
        "spec": result.spec.as_dict(),
        "environment": environment,
        "git": git,
        "totals": {
            "cells": len(result.cells),
            "successes": successes,
            "success_rate": successes / len(result.cells) if result.cells else 0.0,
        },
        "groups": [group.as_dict() for group in result.groups],
        "cells": [cell.as_dict() for cell in result.cells],
    }


def dumps_canonical(payload: Mapping[str, object]) -> str:
    """The canonical textual form used for artifacts and identity checks."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_artifact(
    path: PathLike,
    result: SweepRunResult,
    mode: str = "full",
    repo_dir: Optional[PathLike] = None,
    provenance: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Serialize ``result`` to ``path`` (creating parent directories).

    The write is atomic (temp file + rename), so an interrupt mid-write
    leaves either the previous artifact or the new one — never a torn file.
    """
    payload = artifact_payload(result, mode=mode, repo_dir=repo_dir, provenance=provenance)
    write_payload(path, payload)
    return payload


def write_payload(path: PathLike, payload: Mapping[str, object]) -> None:
    """Atomically write an already-built payload in canonical form."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    scratch = target.with_name(target.name + ".tmp")
    scratch.write_text(dumps_canonical(payload), encoding="utf-8")
    os.replace(scratch, target)


def validate_artifact(payload: Mapping[str, object]) -> None:
    """Raise :class:`ArtifactError` unless ``payload`` is a valid artifact."""
    if not isinstance(payload, Mapping):
        raise ArtifactError("artifact payload must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in payload]
    if missing:
        raise ArtifactError(f"artifact is missing required keys: {missing}")
    if payload["kind"] != ARTIFACT_KIND:
        raise ArtifactError(f"not a sweep artifact (kind={payload['kind']!r})")
    version = payload["schema_version"]
    if version != SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version!r} (expected {SCHEMA_VERSION})"
        )
    if payload["mode"] not in ("quick", "full"):
        raise ArtifactError(f"invalid artifact mode {payload['mode']!r}")
    cells = payload["cells"]
    totals = payload["totals"]
    if not isinstance(cells, list) or not isinstance(totals, Mapping):
        raise ArtifactError("artifact 'cells' must be a list and 'totals' an object")
    if totals.get("cells") != len(cells):
        raise ArtifactError(
            f"totals.cells={totals.get('cells')!r} disagrees with {len(cells)} recorded cells"
        )
    groups = payload["groups"]
    if not isinstance(groups, list):
        raise ArtifactError("artifact 'groups' must be a list")
    for index, group in enumerate(groups):
        if not isinstance(group, Mapping):
            raise ArtifactError(f"artifact group #{index} must be an object")
        missing_fields = [field_name for field_name in _GROUP_KEYS if field_name not in group]
        if missing_fields:
            raise ArtifactError(f"artifact group #{index} is missing fields: {missing_fields}")


def load_artifact(path: PathLike) -> Dict[str, object]:
    """Load and validate a sweep artifact from disk."""
    target = pathlib.Path(path)
    if not target.exists():
        raise ArtifactError(f"artifact {target} does not exist")
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ArtifactError(f"artifact {target} is not valid JSON: {error}") from error
    validate_artifact(payload)
    return payload


def artifact_cells(payload: Mapping[str, object]) -> List[CellResult]:
    """Rehydrate the :class:`CellResult` records stored in an artifact."""
    return [CellResult.from_dict(cell) for cell in payload["cells"]]


# ----------------------------------------------------------------------
# baseline comparison (the CI gate)
# ----------------------------------------------------------------------
@dataclass
class Drift:
    """One detected difference between a baseline and a current run."""

    kind: str
    where: str
    baseline: object
    current: object

    def describe(self) -> str:
        return f"[{self.kind}] {self.where}: baseline={self.baseline!r} current={self.current!r}"


@dataclass
class ComparisonReport:
    """Outcome of :func:`compare`: drift list plus the match count."""

    scenario: str
    groups_checked: int = 0
    drifts: List[Drift] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.drifts

    def describe(self) -> str:
        if self.ok:
            return (
                f"scenario {self.scenario!r}: OK — "
                f"{self.groups_checked} group(s) match the baseline"
            )
        lines = [
            f"scenario {self.scenario!r}: DRIFT — "
            f"{len(self.drifts)} difference(s) across {self.groups_checked} group(s)"
        ]
        lines.extend("  " + drift.describe() for drift in self.drifts)
        return "\n".join(lines)


def _group_key(group: Mapping[str, object]) -> str:
    key = (
        f"{group['algorithm']}|{group['topology']}|f={group['f']}"
        f"|{group['behavior']}|{group['placement']}"
    )
    # The faults axis is omitted from fault-free records, so artifacts
    # written before it existed keep the same keys as ones written after.
    faults = group.get("faults", "none")
    if faults != "none":
        key += f"|faults={faults}"
    return key


def compare(
    baseline: Mapping[str, object],
    current: Mapping[str, object],
    tol_success: float = 0.0,
    tol_rounds: float = 0.0,
) -> ComparisonReport:
    """Diff two artifacts and report every gated drift.

    The gate covers the deterministic quantities: per-group run counts,
    success rates (within ``tol_success``) and mean round counts (within
    ``tol_rounds``), plus the scenario/mode/cell-count envelope.  Message
    counts, value ranges and provenance metadata are reported in the
    artifact but deliberately not gated.
    """
    validate_artifact(baseline)
    validate_artifact(current)
    report = ComparisonReport(scenario=str(current["scenario"]))

    for envelope in ("scenario", "mode"):
        if baseline[envelope] != current[envelope]:
            report.drifts.append(
                Drift(envelope, "<artifact>", baseline[envelope], current[envelope])
            )
    if baseline["totals"]["cells"] != current["totals"]["cells"]:
        report.drifts.append(
            Drift(
                "cell-count",
                "<artifact>",
                baseline["totals"]["cells"],
                current["totals"]["cells"],
            )
        )

    baseline_groups = {_group_key(group): group for group in baseline["groups"]}
    current_groups = {_group_key(group): group for group in current["groups"]}
    for key in baseline_groups:
        if key not in current_groups:
            report.drifts.append(Drift("missing-group", key, "present", "absent"))
    for key in current_groups:
        if key not in baseline_groups:
            report.drifts.append(Drift("new-group", key, "absent", "present"))

    for key in sorted(set(baseline_groups) & set(current_groups)):
        before, after = baseline_groups[key], current_groups[key]
        report.groups_checked += 1
        if before["runs"] != after["runs"]:
            report.drifts.append(Drift("runs", key, before["runs"], after["runs"]))
            continue
        if abs(before["success_rate"] - after["success_rate"]) > tol_success:
            report.drifts.append(
                Drift("success-rate", key, before["success_rate"], after["success_rate"])
            )
        if abs(before["mean_rounds"] - after["mean_rounds"]) > tol_rounds:
            report.drifts.append(
                Drift("mean-rounds", key, before["mean_rounds"], after["mean_rounds"])
            )
    return report


def compare_files(
    baseline_path: PathLike,
    current_path: PathLike,
    tol_success: float = 0.0,
    tol_rounds: float = 0.0,
) -> ComparisonReport:
    """:func:`compare` over two artifact files."""
    return compare(
        load_artifact(baseline_path),
        load_artifact(current_path),
        tol_success=tol_success,
        tol_rounds=tol_rounds,
    )


__all__ = [
    "ARTIFACT_KIND",
    "SCHEMA_VERSION",
    "ComparisonReport",
    "Drift",
    "artifact_cells",
    "artifact_payload",
    "compare",
    "compare_files",
    "dumps_canonical",
    "environment_metadata",
    "git_metadata",
    "load_artifact",
    "validate_artifact",
    "write_artifact",
    "write_payload",
]
