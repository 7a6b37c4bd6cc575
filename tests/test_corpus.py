"""Queue mechanics: entry invariants, dedup, persistence, the enqueue
decision, and seed loading."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltafuzz.corpus import FuzzQueue, QueueEntry, consider, load_seeds
from deltafuzz.coverage import CoverageMap, GlobalCoverage
from deltafuzz.driver import ConfigError

# a raw hit count that lands in each bucket class
_RAW_FOR_CLASS = {1: 1, 2: 2, 3: 3, 4: 4, 5: 8, 6: 16, 7: 32, 8: 128}


def cov_with(*pairs):
    """Run map whose touched edges have the given (index, class) pairs."""
    m = CoverageMap()
    for index, cls in pairs:
        m[index] = _RAW_FOR_CLASS[cls]
    return m


# --- QueueEntry ---------------------------------------------------------------


def test_entry_rejects_empty_data():
    with pytest.raises(ValueError):
        QueueEntry(0, b"", 0)


def test_entry_rejects_negative_delta():
    with pytest.raises(ValueError):
        QueueEntry(0, b"x", -1)


def test_entry_filename_format():
    entry = QueueEntry(7, b"x", 12, parent_id=3)
    assert entry.filename() == "id:0007,src:0003,delta:12"
    root = QueueEntry(0, b"x", 0)
    assert root.filename() == "id:0000,src:-,delta:0"


FILENAME = re.compile(r"id:(\d{4,}),src:(-|\d{4,}),delta:(\d+)")


@settings(max_examples=200, deadline=None)
@given(
    entry_id=st.integers(0, 10**6),
    parent_id=st.none() | st.integers(0, 10**6),
    delta=st.integers(0, 10**9),
)
@example(entry_id=10_000, parent_id=12_345, delta=0)
@example(entry_id=99_999, parent_id=None, delta=5)
def test_entry_filename_parses_back_to_its_metadata(entry_id, parent_id, delta):
    match = FILENAME.fullmatch(QueueEntry(entry_id, b"x", delta, parent_id).filename())
    assert match is not None
    got_id, src, got_delta = match.groups()
    assert int(got_id) == entry_id
    assert (None if src == "-" else int(src)) == parent_id
    assert int(got_delta) == delta


# --- FuzzQueue ------------------------------------------------------------------


def test_entry_ids_are_sequential(tmp_path):
    q = FuzzQueue(tmp_path / "queue")
    ids = [q.add(bytes([i]), best_delta=0).entry_id for i in range(5)]
    assert ids == [0, 1, 2, 3, 4]


def test_persistence_writes_raw_bytes(tmp_path):
    q = FuzzQueue(tmp_path / "queue")
    q.add(b"\x00\xffhello", best_delta=3)
    q.add(b"world", best_delta=0, parent_id=0)
    files = sorted(p.name for p in (tmp_path / "queue").iterdir())
    assert files == ["id:0000,src:-,delta:3", "id:0001,src:0000,delta:0"]
    assert (tmp_path / "queue" / files[0]).read_bytes() == b"\x00\xffhello"
    assert (tmp_path / "queue" / files[1]).read_bytes() == b"world"


def test_a_queue_directory_holding_an_entry_is_refused(tmp_path):
    FuzzQueue(tmp_path / "queue").add(b"first run", best_delta=3)
    with pytest.raises(ConfigError, match="earlier run's queue"):
        FuzzQueue(tmp_path / "queue")
    entry = tmp_path / "queue" / "id:0000,src:-,delta:3"
    assert [p.name for p in (tmp_path / "queue").iterdir()] == [entry.name]
    assert entry.read_bytes() == b"first run"


# --- consider() -------------------------------------------------------------------


def make_state(tmp_path):
    return FuzzQueue(tmp_path / "queue"), GlobalCoverage()


def test_consider_discards_nothing_new(tmp_path):
    q, g = make_state(tmp_path)
    g.absorb(cov_with((5, 1)))
    kept = consider(q, b"dup", 0, False, cov_with((5, 1)), g)
    assert kept is False
    assert len(q) == 0


def test_consider_enqueues_on_delta_improvement_alone(tmp_path):
    q, g = make_state(tmp_path)
    g.absorb(cov_with((5, 1)))
    kept = consider(q, b"better", 5, True, cov_with((5, 1)), g, 4)
    assert kept is True
    entry = q.entries[0]
    assert (entry.entry_id, entry.data, entry.best_delta, entry.parent_id) == (0, b"better", 5, 4)
    assert entry.filename() == "id:0000,src:0004,delta:5"


def test_consider_enqueues_on_new_edge_without_improvement(tmp_path):
    q, g = make_state(tmp_path)
    g.absorb(cov_with((5, 1)))
    kept = consider(q, b"novel", 2, False, cov_with((9, 3)), g)
    assert kept is True
    assert (q.entries[0].data, q.entries[0].best_delta) == (b"novel", 2)


def test_consider_ties_are_discarded(tmp_path):
    # the campaign passes keep=False for a delta equal to its high
    # score; the delta alone never keeps an input
    q, g = make_state(tmp_path)
    g.absorb(cov_with((5, 1)))
    assert not consider(q, b"tie", 4, False, cov_with((5, 1)), g)
    assert len(q) == 0


def test_consider_updates_high_score_even_when_dedup_blocks(tmp_path):
    # the campaign raises its high score on improved whatever consider
    # returns; consider still absorbs the coverage of bytes it cannot queue
    q, g = make_state(tmp_path)
    q.add(b"same", best_delta=1)
    kept = consider(q, b"same", 9, True, cov_with((7, 2)), g)
    assert kept is False  # bytes already queued
    assert len(q) == 1
    # and the coverage was absorbed: replaying the same edges is stale now
    again = consider(q, b"fresh", 0, False, cov_with((7, 2)), g)
    assert again is False


def test_consider_respects_escalated_hit_class(tmp_path):
    # same edge index, higher hit-count class: still novel
    q, g = make_state(tmp_path)
    consider(q, b"one", 0, False, cov_with((11, 1)), g)
    kept = consider(q, b"many", 0, False, cov_with((11, 4)), g)
    assert kept is True
    assert q.entries[-1].data == b"many"


# --- load_seeds --------------------------------------------------------------------


def write_seeds(root, files):
    root.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (root / name).write_bytes(data)


def test_load_seeds_sorted_and_truncated(tmp_path):
    write_seeds(tmp_path / "s", {"b": b"y" * 100, "a": b"x" * 4, "c": b"z"})
    seeds = load_seeds(tmp_path / "s", max_input_len=10)
    assert [name for name, _ in seeds] == ["a", "b", "c"]
    assert seeds[1][1] == b"y" * 10
    assert seeds[0][1] == b"x" * 4


def test_load_seeds_skips_subdirectories(tmp_path):
    write_seeds(tmp_path / "s", {"a": b"x"})
    (tmp_path / "s" / "sub").mkdir()
    assert load_seeds(tmp_path / "s", 10) == [("a", b"x")]


def test_load_seeds_missing_dir(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_seeds(tmp_path / "nope", 10)


def test_load_seeds_empty_file(tmp_path):
    write_seeds(tmp_path / "s", {"a": b"x", "bad": b""})
    with pytest.raises(ConfigError, match="empty"):
        load_seeds(tmp_path / "s", 10)


def test_load_seeds_no_files(tmp_path):
    (tmp_path / "s").mkdir()
    with pytest.raises(ConfigError, match="no files"):
        load_seeds(tmp_path / "s", 10)


def test_load_seeds_unreadable_file(tmp_path, monkeypatch):
    write_seeds(tmp_path / "s", {"a": b"x"})
    from pathlib import Path

    def boom(self):
        raise OSError("simulated IO failure")

    monkeypatch.setattr(Path, "read_bytes", boom)
    with pytest.raises(ConfigError, match="not readable"):
        load_seeds(tmp_path / "s", 10)
