"""Meter semantics: exact counters, peak tracking, snapshots."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deltafuzz.metering import (
    DIMENSION_ALIASES,
    DIMENSIONS,
    CostReading,
    HarnessError,
    Meter,
)


def test_fresh_meter_reads_zero():
    m = Meter()
    assert m.read() == CostReading(0, 0, 0)


def test_tick_accumulates_exactly():
    m = Meter()
    m.tick(1)
    assert m.ops == 1
    m.tick(3)
    assert m.ops == 4
    for _ in range(43):
        m.tick(1)
    assert m.ops == 47


def test_tick_rejects_nonpositive():
    m = Meter()
    with pytest.raises(ValueError):
        m.tick(0)
    with pytest.raises(ValueError):
        m.tick(-2)


def test_peak_mem_is_high_water_mark():
    m = Meter()
    m.record_alloc(100)
    m.record_alloc(50)
    m.record_free(100)
    assert m.peak_mem == 150
    assert m.live_mem == 50

    m2 = Meter()
    m2.record_alloc(10)
    m2.record_free(10)
    m2.record_alloc(10)
    assert m2.peak_mem == 10

    assert Meter().peak_mem == 0


def test_over_free_is_a_harness_error():
    m = Meter()
    m.record_alloc(5)
    with pytest.raises(HarnessError):
        m.record_free(6)


def test_negative_amounts_rejected():
    m = Meter()
    with pytest.raises(ValueError):
        m.record_alloc(-1)
    with pytest.raises(ValueError):
        m.record_free(-1)
    with pytest.raises(ValueError):
        m.record_response(-1)


def test_response_bytes_accumulate():
    m = Meter()
    m.record_response(42)
    assert m.response_bytes == 42
    m.record_response(10)
    m.record_response(5)
    assert m.response_bytes == 57


def test_read_is_a_snapshot():
    m = Meter()
    m.tick(2)
    snap = m.read()
    m.tick(5)
    assert snap.ops == 2
    assert m.read().ops == 7


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
def test_peak_matches_shadow_log(amounts):
    """peak_mem equals the max of the running alloc sum under any schedule
    of allocs followed by matching frees."""
    m = Meter()
    live = 0
    peak = 0
    for n in amounts:
        m.record_alloc(n)
        live += n
        peak = max(peak, live)
        if live and n % 2:
            m.record_free(n)
            live -= n
    assert m.peak_mem == peak
    assert m.live_mem == live


def test_cost_reading_of_and_diff():
    a = CostReading(ops=10, peak_mem=5, response_bytes=0)
    b = CostReading(ops=4, peak_mem=9, response_bytes=2)
    d = a.abs_diff(b)
    assert (d.ops, d.peak_mem, d.response_bytes) == (6, 4, 2)
    assert d == b.abs_diff(a)
    assert a.of("ops") == 10
    with pytest.raises(ValueError):
        a.of("watts")


def test_dimension_names_and_aliases():
    assert DIMENSIONS == ("ops", "peak_mem", "response_bytes")
    assert set(DIMENSION_ALIASES.values()) == set(DIMENSIONS)
    assert DIMENSION_ALIASES["mem"] == "peak_mem"
    assert DIMENSION_ALIASES["response"] == "response_bytes"
