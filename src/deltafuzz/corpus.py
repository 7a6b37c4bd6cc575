"""Fuzzing queue: interesting inputs and their lineage.

An input survives into the queue when it reaches coverage the campaign has
not seen or strictly beats the campaign's delta high score (ties are
discarded). Entries cycle round-robin; anything enqueued mid-cycle waits
for the next cycle. Persistence is synchronous, one raw-bytes file per
entry with the metadata in the filename.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .coverage import CoverageMap, GlobalCoverage
from .driver import ConfigError


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


class FuzzQueue:
    """Round-robin corpus with content dedup and filename-metadata persistence."""

    def __init__(self, queue_dir: str | Path):
        self.entries: list[QueueEntry] = []
        self.queue_dir = Path(queue_dir)
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
    delta: int,
    improved: bool,
    run_cov: CoverageMap,
    global_cov: GlobalCoverage,
    parent_id: int | None = None,
) -> bool:
    """Absorb run_cov into global_cov, and enqueue data iff that found new
    coverage or improved is set (delta strictly beat the high score), unless
    the bytes are already queued."""
    new_pairs = global_cov.absorb(run_cov)
    if not (new_pairs or improved) or queue.seen(data):
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
