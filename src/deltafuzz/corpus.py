"""Fuzzing queue: interesting inputs, their lineage, and the high score.

An input survives into the queue when it reaches coverage the campaign has
not seen or strictly beats the campaign-wide delta high score (ties are
discarded). Entries cycle round-robin; anything enqueued mid-cycle waits
for the next cycle. Persistence is synchronous, one raw-bytes file per
entry with the metadata in the filename.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from .coverage import CoverageMap, GlobalCoverage
from .driver import ConfigError, DiffResult


@dataclass(frozen=True)
class QueueEntry:
    entry_id: int
    data: bytes
    best_delta: int
    parent_id: int | None = None

    def __post_init__(self):
        if not self.data:
            raise ValueError("queue entry bytes must be non-empty")
        if self.best_delta < 0:
            raise ValueError("best_delta must be >= 0")

    def filename(self) -> str:
        src = "-" if self.parent_id is None else f"{self.parent_id:04d}"
        return f"id:{self.entry_id:04d},src:{src},delta:{self.best_delta}"


@dataclass
class HighScore:
    """Campaign-wide maximum delta and the input that achieved it."""

    value: int = 0
    witness_data: bytes | None = None

    def update(self, delta: int, data: bytes) -> None:
        if delta <= self.value and self.witness_data is not None:
            raise ValueError("high score only moves up")
        self.value = delta
        self.witness_data = data


class FuzzQueue:
    """Round-robin corpus with content dedup and filename-metadata persistence."""

    def __init__(self, queue_dir: str | Path | None = None):
        self.entries: list[QueueEntry] = []
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        if self.queue_dir is not None:
            self.queue_dir.mkdir(parents=True, exist_ok=True)
        self._seen: set[bytes] = set()
        self._cursor = 0
        self._cycle_len = 0

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
        if self.queue_dir is not None:
            (self.queue_dir / entry.filename()).write_bytes(data)
        return entry

    def next(self) -> QueueEntry:
        """Round-robin pick; a full cycle covers the entries present at its
        start, so mid-cycle additions wait for the following cycle."""
        if not self.entries:
            raise LookupError("queue is empty")
        if self._cursor >= self._cycle_len:
            self._cursor = 0
            self._cycle_len = len(self.entries)
        entry = self.entries[self._cursor]
        self._cursor += 1
        return entry


def consider(
    queue: FuzzQueue,
    data: bytes,
    result: DiffResult,
    run_cov: CoverageMap,
    global_cov: GlobalCoverage,
    high_score: HighScore,
    dimension: str,
    parent_id: int | None = None,
) -> bool:
    """Enqueue iff the run found new coverage or strictly beat the high
    score; the high score and its witness update even when dedup or the
    non-empty invariant keeps the bytes out of the queue."""
    new_pairs = global_cov.absorb(run_cov)
    delta = result.delta_of(dimension)
    improved = delta > high_score.value
    if improved:
        high_score.update(delta, data)
    if not new_pairs and not improved:
        return False
    if not data or queue.seen(data):
        return False
    queue.add(data, best_delta=delta, parent_id=parent_id)
    return True


def load_seeds(seed_dir: str | Path, max_input_len: int) -> list[tuple[str, bytes]]:
    """Read every file in seed_dir (sorted by name), truncated to the input
    cap. Missing dir, no files, unreadable or empty files are all refused."""
    root = Path(seed_dir)
    if not root.is_dir():
        raise ConfigError(f"seed directory not found: {root}")
    seeds: list[tuple[str, bytes]] = []
    for path in sorted(root.iterdir()):
        if not path.is_file():
            continue
        if not os.access(path, os.R_OK):
            raise ConfigError(f"seed file is not readable: {path}")
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise ConfigError(f"seed file is not readable: {path} ({exc})") from exc
        if not data:
            raise ConfigError(f"seed file is empty: {path}")
        seeds.append((path.name, data[:max_input_len]))
    if not seeds:
        raise ConfigError(f"seed directory has no files: {root}")
    return seeds
