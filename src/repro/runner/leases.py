"""Lease files: the fabric's shared-directory work-assignment primitive.

A *lease* grants one worker the right to execute a contiguous range of grid
cell indexes ``[start, end)``.  Leases live as small JSON files inside
``<run_dir>/leases/`` and every state transition is a single atomic
filesystem operation, so the protocol works unchanged on a local disk, an
NFS export shared by many machines, or anything else with POSIX rename
semantics.  The normative wire format is ``docs/fabric-protocol.md``; this
module is the reference implementation.

States and transitions:

* **available** — ``<start>-<end>.lease`` (zero-padded 8-digit decimal
  bounds, end exclusive).  Written by the coordinator via
  write-temp-then-:func:`os.replace`.
* **claimed** — a worker claims by :func:`os.rename`-ing the available file
  to ``<start>-<end>.owned.<worker-id>``.  Rename of one source path is
  atomic and exclusive: exactly one contender succeeds, every loser gets
  ``FileNotFoundError`` and moves on to the next file.
* **heartbeat** — the owner touches the owned file's mtime
  (:func:`heartbeat`) every heartbeat interval, also while a cell runs;
  the coordinator treats ``now - mtime > lease_ttl`` as worker loss.
* **released** — the owner deletes the owned file once every index in the
  range is durably appended to its shard (the shard, not lease absence, is
  the source of truth for completed work).
* **fenced** — the coordinator deletes an expired owned file, appends a
  fence record to ``leases/fence.log`` and re-publishes the unfinished
  remainder as fresh available files with ``epoch + 1``.  Shard records
  carry the epoch of the lease they ran under, and the coordinator's merge
  rejects records whose epoch is stale for their cell index — the classic
  fencing-token rule, which makes a stalled-but-alive worker's late writes
  harmless.

``fence.log`` is append-only JSONL; replaying it rebuilds the
coordinator's authoritative per-index epoch map after a coordinator
restart, so fencing survives coordinator loss too.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError

PathLike = Union[str, pathlib.Path]

#: Directory (inside a run dir) holding lease files and the fence log.
LEASES_DIRNAME = "leases"
#: Suffix of an *available* (unclaimed) lease file.
LEASE_SUFFIX = ".lease"
#: Infix marking a *claimed* lease file; the owner id follows it.
OWNED_MARKER = ".owned."
#: Append-only log of every epoch bump (fence / split), inside ``leases/``.
FENCE_LOG_FILENAME = "fence.log"
#: Schema version stamped into every lease file.
LEASE_VERSION = 1
#: ``kind`` discriminator stamped into every lease file.
LEASE_KIND = "repro-fabric-lease"

#: Width of the zero-padded range bounds in lease file names (supports
#: grids up to 10**8 cells while keeping lexicographic == numeric order).
_RANGE_DIGITS = 8

_OWNED_RE = re.compile(
    r"^(?P<start>\d{8})-(?P<end>\d{8})\.owned\.(?P<owner>[A-Za-z0-9._-]+)$"
)
_AVAILABLE_RE = re.compile(r"^(?P<start>\d{8})-(?P<end>\d{8})\.lease$")
_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class LeaseError(ReproError):
    """A lease file violates the fabric wire format."""


@dataclass(frozen=True)
class Lease:
    """One contiguous work range ``[start, end)`` at a fencing ``epoch``."""

    start: int
    end: int
    epoch: int

    @property
    def count(self) -> int:
        return self.end - self.start

    @property
    def label(self) -> str:
        return f"{self.start:0{_RANGE_DIGITS}d}-{self.end:0{_RANGE_DIGITS}d}"

    def indexes(self) -> range:
        return range(self.start, self.end)

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": LEASE_KIND,
            "lease_version": LEASE_VERSION,
            "start": self.start,
            "end": self.end,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, payload: object, path: Optional[pathlib.Path] = None) -> "Lease":
        where = f" ({path})" if path else ""
        if not isinstance(payload, dict):
            raise LeaseError(f"lease payload must be an object{where}")
        if payload.get("kind") != LEASE_KIND:
            raise LeaseError(f"not a fabric lease (kind={payload.get('kind')!r}){where}")
        if payload.get("lease_version") != LEASE_VERSION:
            raise LeaseError(
                f"unsupported lease_version {payload.get('lease_version')!r}{where}"
            )
        try:
            start, end, epoch = (
                int(payload["start"]),
                int(payload["end"]),
                int(payload["epoch"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise LeaseError(f"malformed lease payload{where}: {error}") from None
        if not (0 <= start < end) or epoch < 0:
            raise LeaseError(f"invalid lease range/epoch [{start},{end})@{epoch}{where}")
        return cls(start=start, end=end, epoch=epoch)


def validate_worker_id(worker_id: str) -> str:
    """Worker ids become file-name components; restrict them accordingly."""
    if not _WORKER_ID_RE.match(worker_id or ""):
        raise ReproError(
            f"worker id {worker_id!r} is not filename-safe "
            "(allowed: letters, digits, '.', '_', '-')"
        )
    return worker_id


def leases_dir(run_dir: PathLike) -> pathlib.Path:
    return pathlib.Path(run_dir) / LEASES_DIRNAME


def fence_log_path(run_dir: PathLike) -> pathlib.Path:
    return leases_dir(run_dir) / FENCE_LOG_FILENAME


def atomic_write_json(path: pathlib.Path, payload: Dict[str, object]) -> None:
    """Write-temp-then-replace: readers never observe a torn file."""
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    os.replace(scratch, path)


def read_lease(path: PathLike) -> Lease:
    """Parse a lease file (available or owned); raises on wire-format drift.

    May raise :class:`FileNotFoundError` — for an owner re-reading its lease
    before each cell, that is the fencing signal, not an error.
    """
    path = pathlib.Path(path)
    return Lease.from_dict(json.loads(path.read_text(encoding="utf-8")), path)


def write_available(run_dir: PathLike, lease: Lease) -> pathlib.Path:
    """Publish ``lease`` as an available file (coordinator only)."""
    directory = leases_dir(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{lease.label}{LEASE_SUFFIX}"
    atomic_write_json(path, lease.as_dict())
    return path


def list_available(run_dir: PathLike) -> List[pathlib.Path]:
    """Available lease files, sorted by range (lexicographic == numeric)."""
    directory = leases_dir(run_dir)
    if not directory.is_dir():
        return []
    return sorted(
        path for path in directory.iterdir() if _AVAILABLE_RE.match(path.name)
    )


def list_owned(run_dir: PathLike) -> List[Tuple[pathlib.Path, str]]:
    """``(path, owner id)`` for every claimed lease file, sorted by range."""
    directory = leases_dir(run_dir)
    if not directory.is_dir():
        return []
    owned = []
    for path in sorted(directory.iterdir()):
        match = _OWNED_RE.match(path.name)
        if match:
            owned.append((path, match.group("owner")))
    return owned


def claim(run_dir: PathLike, worker_id: str) -> Optional[Tuple[pathlib.Path, Lease]]:
    """Attempt to claim the first available lease via atomic rename.

    Scans available files in range order and renames the first one to its
    owned name.  Losing a rename race (another worker claimed it first)
    silently moves on; returns ``None`` when nothing is claimable.
    """
    validate_worker_id(worker_id)
    for path in list_available(run_dir):
        target = path.with_name(path.name[: -len(LEASE_SUFFIX)] + OWNED_MARKER + worker_id)
        try:
            os.rename(path, target)
        except FileNotFoundError:
            continue  # lost the race; try the next range
        try:
            return target, read_lease(target)
        except FileNotFoundError:  # pragma: no cover - fenced between rename and read
            continue
    return None


def heartbeat(path: PathLike) -> None:
    """Refresh the owned file's mtime — the liveness signal the TTL watches.

    A vanished file means the coordinator fenced this lease; the caller
    must stop working the range (it may immediately claim a new one).
    """
    os.utime(path)


def release(path: PathLike) -> None:
    """Delete an owned lease whose range is fully recorded in the shard."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass  # fenced concurrently: the re-leased cells will dedup at merge


def lease_age(path: PathLike, now: Optional[float] = None) -> Optional[float]:
    """Seconds since the owned file's last heartbeat (``None`` if gone)."""
    try:
        mtime = os.stat(path).st_mtime
    except FileNotFoundError:
        return None
    return (time.time() if now is None else now) - mtime


def append_fence(run_dir: PathLike, lease: Lease) -> None:
    """Durably record an epoch bump for ``lease``'s range (coordinator only).

    Flushed and fsynced per record: the fence log is what lets a restarted
    coordinator rebuild the authoritative per-index epoch map, so a bump
    must never be observable in new lease files without being replayable.
    """
    path = fence_log_path(run_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"record": "fence", "start": lease.start, "end": lease.end, "epoch": lease.epoch}
    with open(path, "ab") as handle:
        handle.write(
            (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
        )
        handle.flush()
        os.fsync(handle.fileno())


def replay_fence_log(run_dir: PathLike) -> Dict[int, int]:
    """Rebuild ``index -> current epoch`` from ``fence.log`` (0 if unfenced).

    Tolerates a torn final line (coordinator killed mid-append) by the same
    tail-truncation rule journals use; a malformed record before the tail
    raises :class:`LeaseError`.
    """
    epochs: Dict[int, int] = {}
    path = fence_log_path(run_dir)
    if not path.exists():
        return epochs
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    for number, line in enumerate(lines, start=1):
        if not line:
            continue
        is_tail = number == len(lines)  # no trailing newline -> torn append
        try:
            record = json.loads(line.decode("utf-8"))
            start, end, epoch = int(record["start"]), int(record["end"]), int(record["epoch"])
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            if is_tail:
                break
            raise LeaseError(f"fence log {path} line {number}: corrupt record") from None
        for index in range(start, end):
            epochs[index] = max(epochs.get(index, 0), epoch)
    return epochs


def contiguous_runs(indexes: Iterable[int]) -> List[Tuple[int, int]]:
    """Collapse an index set into sorted, maximal ``[start, end)`` runs."""
    runs: List[List[int]] = []
    for index in sorted(set(indexes)):
        if runs and index == runs[-1][1]:
            runs[-1][1] = index + 1
        else:
            runs.append([index, index + 1])
    return [(start, end) for start, end in runs]


def chunk_runs(
    runs: Sequence[Tuple[int, int]], chunk_size: int
) -> List[Tuple[int, int]]:
    """Split each run into ranges of at most ``chunk_size`` cells."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    chunks: List[Tuple[int, int]] = []
    for start, end in runs:
        cursor = start
        while cursor < end:
            chunks.append((cursor, min(cursor + chunk_size, end)))
            cursor = min(cursor + chunk_size, end)
    return chunks


__all__ = [
    "FENCE_LOG_FILENAME",
    "LEASES_DIRNAME",
    "LEASE_KIND",
    "LEASE_SUFFIX",
    "LEASE_VERSION",
    "OWNED_MARKER",
    "Lease",
    "LeaseError",
    "append_fence",
    "atomic_write_json",
    "chunk_runs",
    "claim",
    "contiguous_runs",
    "fence_log_path",
    "heartbeat",
    "lease_age",
    "leases_dir",
    "list_available",
    "list_owned",
    "read_lease",
    "release",
    "replay_fence_log",
    "validate_worker_id",
]
