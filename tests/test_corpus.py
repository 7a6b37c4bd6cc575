"""Queue mechanics: entry invariants, round-robin cycles, dedup,
persistence, the enqueue decision, and seed loading."""

import pytest

from deltafuzz.corpus import FuzzQueue, HighScore, QueueEntry, consider, load_seeds
from deltafuzz.coverage import CoverageMap, GlobalCoverage
from deltafuzz.driver import ConfigError, DiffResult
from deltafuzz.metering import CostReading

# a raw hit count that lands in each bucket class
_RAW_FOR_CLASS = {1: 1, 2: 2, 3: 3, 4: 4, 5: 8, 6: 16, 7: 32, 8: 128}


def cov_with(*pairs):
    """Run map whose touched edges have the given (index, class) pairs."""
    m = CoverageMap()
    for index, cls in pairs:
        m.raw[index] = _RAW_FOR_CLASS[cls]
        m.touched.append(index)
    return m


def result_with(delta_ops):
    return DiffResult(
        outcome="ok",
        delta=CostReading(ops=delta_ops),
        decoded=(b"p", b"x", b"y"),
    )


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


# --- HighScore -----------------------------------------------------------------


def test_high_score_is_strictly_monotone():
    hs = HighScore()
    hs.update(5, b"a")
    assert hs.value == 5 and hs.witness_data == b"a"
    with pytest.raises(ValueError):
        hs.update(5, b"b")
    with pytest.raises(ValueError):
        hs.update(4, b"b")
    hs.update(6, b"b")
    assert hs.value == 6 and hs.witness_data == b"b"


def test_high_score_accepts_zero_as_first_witness():
    # campaigns record the first seed as a baseline witness at delta 0
    hs = HighScore()
    hs.update(0, b"seed")
    assert hs.value == 0 and hs.witness_data == b"seed"


# --- FuzzQueue ------------------------------------------------------------------


def test_round_robin_single_entry():
    q = FuzzQueue()
    q.add(b"A", best_delta=0)
    assert [q.next().data for _ in range(3)] == [b"A", b"A", b"A"]


def test_round_robin_two_entries():
    q = FuzzQueue()
    q.add(b"A", best_delta=0)
    q.add(b"B", best_delta=0)
    assert [q.next().data for _ in range(4)] == [b"A", b"B", b"A", b"B"]


def test_mid_cycle_addition_waits_for_next_cycle():
    q = FuzzQueue()
    q.add(b"A", best_delta=0)
    q.add(b"B", best_delta=0)
    picks = [q.next().data]  # cycle of (A, B) begins
    q.add(b"C", best_delta=0)
    picks += [q.next().data for _ in range(3)]
    # C is absent from the cycle it arrived in and from the remainder of the
    # snapshot; it joins once the cursor wraps past the new length
    assert picks == [b"A", b"B", b"A", b"B"]
    window = [q.next().data for _ in range(6)]
    assert window == [b"C", b"A", b"B", b"C", b"A", b"B"]


def test_next_on_empty_queue():
    with pytest.raises(LookupError):
        FuzzQueue().next()


def test_entry_ids_are_sequential():
    q = FuzzQueue()
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


# --- consider() -------------------------------------------------------------------


def make_state():
    return FuzzQueue(), GlobalCoverage(), HighScore()


def test_consider_discards_nothing_new():
    q, g, hs = make_state()
    g.absorb(cov_with((5, 1)))
    hs.update(3, b"base")
    kept = consider(q, b"dup", result_with(0), cov_with((5, 1)), g, hs, "ops")
    assert kept is False
    assert len(q) == 0
    assert hs.value == 3


def test_consider_enqueues_on_delta_improvement_alone():
    q, g, hs = make_state()
    g.absorb(cov_with((5, 1)))
    hs.update(3, b"base")
    kept = consider(q, b"better", result_with(5), cov_with((5, 1)), g, hs, "ops", 4)
    assert kept is True
    assert hs.value == 5 and hs.witness_data == b"better"
    entry = q.entries[0]
    assert (entry.entry_id, entry.data, entry.best_delta, entry.parent_id) == (0, b"better", 5, 4)
    assert entry.filename() == "id:0000,src:0004,delta:5"


def test_consider_enqueues_on_new_edge_without_improvement():
    q, g, hs = make_state()
    g.absorb(cov_with((5, 1)))
    hs.update(5, b"base")
    kept = consider(q, b"novel", result_with(2), cov_with((9, 3)), g, hs, "ops")
    assert kept is True
    assert hs.value == 5 and hs.witness_data == b"base"  # unchanged
    assert q.entries[0].data == b"novel"


def test_consider_ties_are_discarded():
    q, g, hs = make_state()
    g.absorb(cov_with((5, 1)))
    hs.update(4, b"base")
    assert not consider(q, b"tie", result_with(4), cov_with((5, 1)), g, hs, "ops")
    assert len(q) == 0 and hs.value == 4


def test_consider_updates_high_score_even_when_dedup_blocks():
    q, g, hs = make_state()
    q.add(b"same", best_delta=1)
    hs.update(1, b"same")
    kept = consider(q, b"same", result_with(9), cov_with((7, 2)), g, hs, "ops")
    assert kept is False  # bytes already queued
    assert hs.value == 9  # but the score still moved
    # and the coverage was absorbed: replaying the same edges is stale now
    again = consider(q, b"fresh", result_with(0), cov_with((7, 2)), g, hs, "ops")
    assert again is False


def test_consider_respects_escalated_hit_class():
    # same edge index, higher hit-count class: still novel
    q, g, hs = make_state()
    consider(q, b"one", result_with(0), cov_with((11, 1)), g, hs, "ops")
    kept = consider(q, b"many", result_with(0), cov_with((11, 4)), g, hs, "ops")
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
