"""Fuzzing queue: interesting inputs and their lineage.

Every input enters the queue through `consider`, once per distinct bytes:
a seed always, any other input when it reaches coverage the campaign has
not seen or strictly beats the campaign's delta high score (ties are
discarded). campaign._schedule sets the order in which entries are
visited. Persistence is synchronous, one raw-bytes file per entry with the
metadata in the filename, in a directory that holds no other run's entries.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .coverage import CoverageMap, GlobalCoverage
from .driver import ConfigError, checked


@checked
class QueueEntry(NamedTuple):
    entry_id: int
    data: bytes
    best_delta: int
    parent_id: int | None = None

    def _check(self) -> None:
        if not self.data:
            raise ValueError("queue entry bytes must be non-empty")
        if self.best_delta < 0:
            raise ValueError("best_delta must be >= 0")

    def filename(self) -> str:
        src = "-" if self.parent_id is None else f"{self.parent_id:04d}"
        return f"id:{self.entry_id:04d},src:{src},delta:{self.best_delta}"


class FuzzQueue:
    """Corpus with content dedup and filename-metadata persistence. A
    queue_dir that holds files (ids restart at 0, so an earlier run's entries
    would be overwritten) or cannot be created is a ConfigError."""

    def __init__(self, queue_dir: str | Path):
        self.entries: list[QueueEntry] = []
        self.queue_dir = path = Path(queue_dir)
        try:
            if path.is_dir() and any(path.iterdir()):
                raise ConfigError(f"output directory holds an earlier run's queue: {path.parent}")
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file is in the way, a name is too long, no permission
            raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
        self._seen: set[bytes] = set()

    def __len__(self) -> int:
        return len(self.entries)

    def seen(self, data: bytes) -> bool:
        return data in self._seen

    def add(
        self,
        data: bytes,
        *,
        best_delta: int,
        parent_id: int | None = None,
    ) -> QueueEntry:
        entry = QueueEntry(
            entry_id=len(self.entries),
            data=data,
            best_delta=best_delta,
            parent_id=parent_id,
        )
        self.entries.append(entry)
        self._seen.add(data)
        (self.queue_dir / entry.filename()).write_bytes(data)
        return entry


def consider(
    queue: FuzzQueue,
    data: bytes,
    delta: int,
    keep: bool,
    run_cov: CoverageMap,
    global_cov: GlobalCoverage,
    parent_id: int | None = None,
) -> bool:
    """Absorb run_cov into global_cov, and enqueue data iff that found new
    coverage or keep is set, unless the bytes are already queued. The
    campaign sets keep for a seed and for a delta that strictly beat the
    high score."""
    new_pairs = global_cov.absorb(run_cov)
    if not (new_pairs or keep) or queue.seen(data):
        return False
    queue.add(data, best_delta=delta, parent_id=parent_id)
    return True


def load_seeds(seed_dir: str | Path, max_input_len: int) -> list[tuple[str, bytes]]:
    """Read every file in seed_dir (sorted by name), truncated to the input
    cap. Missing dir, no files, unreadable or empty files are all refused."""
    seeds: list[tuple[str, bytes]] = []
    root = path = Path(seed_dir)
    try:  # a check, too, raises for a name too long
        if not root.is_dir():
            raise ConfigError(f"seed directory not found: {root}")
        for path in sorted(root.iterdir()):
            if path.is_file():
                if not (data := path.read_bytes()):
                    raise ConfigError(f"seed file is empty: {path}")
                seeds.append((path.name, data[:max_input_len]))
    except OSError as exc:
        raise ConfigError(f"seeds are not readable: {path} ({exc})") from None
    if not seeds:
        raise ConfigError(f"seed directory has no files: {root}")
    return seeds
