"""Deterministic mutation schedule, havoc bounds, splice construction."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafuzz.mutation import (
    ARITH_MAX,
    DETERMINISTIC_SCHEDULE,
    INTERESTING_8,
    INTERESTING_16,
    INTERESTING_32,
    arith,
    bitflips,
    byteflips,
    deterministic_stage,
    havoc,
    interesting,
    splice,
)


def deterministic_stage_counts(length: int) -> dict[str, int]:
    """Closed-form mutant count per sub-stage for an input of `length` bytes.

    Exact when no interesting-value substitution collides with the input's
    existing bytes/words (collisions are skipped as no-ops); always an upper
    bound otherwise.
    """
    counts = {
        "bitflip_1": max(0, 8 * length),
        "bitflip_2": max(0, 8 * length - 1),
        "bitflip_4": max(0, 8 * length - 3),
        "byteflip_1": length,
        "byteflip_2": max(0, length - 1),
        "byteflip_4": max(0, length - 3),
        "arith_8": 2 * ARITH_MAX * length,
        "arith_16": 2 * ARITH_MAX * max(0, length - 1),
        "arith_32": 2 * ARITH_MAX * max(0, length - 3),
        "interesting_8": len(INTERESTING_8) * length,
        "interesting_16": len(INTERESTING_16) * max(0, length - 1),
        "interesting_32": len(INTERESTING_32) * max(0, length - 3),
    }
    counts["total"] = sum(counts.values())
    return counts


def test_single_bitflips_of_zero_byte():
    assert list(bitflips(b"\x00", 1)) == [
        bytes([v]) for v in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80)
    ]


def test_bitflip_window_counts():
    data = b"\x00" * 4
    assert len(list(bitflips(data, 1))) == 32
    assert len(list(bitflips(data, 2))) == 31
    assert len(list(bitflips(data, 4))) == 29


def test_byteflip_examples():
    assert list(byteflips(b"\xff\x00", 1)) == [b"\x00\x00", b"\xff\xff"]
    assert list(byteflips(b"\x12\x34\x56", 2)) == [b"\xed\xcb\x56", b"\x12\xcb\xa9"]


def test_arith_plus_one():
    mutants = list(arith(b"\x10", 1))
    assert mutants[0] == b"\x11"  # +1 comes first
    assert mutants[1] == b"\x0f"  # then -1
    assert len(mutants) == 2 * ARITH_MAX


def test_arith_wraps():
    mutants = list(arith(b"\xff", 1))
    assert b"\x00" in mutants  # 0xFF + 1
    mutants16 = list(arith(b"\x00\x00", 2))
    assert mutants16[1] == b"\xff\xff"  # 0 - 1 little-endian


def test_interesting_skips_noops():
    # 0 is in every interesting set; substituting it into a zero buffer is a no-op
    zero = list(interesting(b"\x00", 1))
    assert len(zero) == len(INTERESTING_8) - 1
    assert b"\x00" not in zero
    plain = list(interesting(b"\x5a", 1))
    assert len(plain) == len(INTERESTING_8)


def test_interesting_is_little_endian():
    mutants = list(interesting(b"\x5a" * 4, 4))
    assert (2147483647).to_bytes(4, "little") in mutants
    assert b"\xff\xff\xff\x7f" in mutants


def test_deterministic_stage_requires_input():
    with pytest.raises(ValueError):
        next(deterministic_stage(b""))


def test_stage_mutants_preserve_length():
    data = bytes(range(7))
    for m in deterministic_stage(data):
        assert len(m) == len(data)
        assert m != data


@pytest.mark.parametrize("length", [1, 2, 4, 5, 16])
def test_counts_match_closed_form(length):
    """0x5A avoids every interesting-value encoding, so the enumeration is
    exactly the closed form at any length."""
    data = b"\x5a" * length
    expected = deterministic_stage_counts(length)
    per_stage = Counter()
    for name, gen, width in DETERMINISTIC_SCHEDULE:
        per_stage[name] = sum(1 for _ in gen(data, width))
    for name, count in per_stage.items():
        assert count == expected[name], name
    assert sum(per_stage.values()) == expected["total"]


def test_interesting_set_sizes():
    assert len(INTERESTING_8) == 9
    assert len(INTERESTING_16) == 19
    assert len(INTERESTING_32) == 27


@given(
    data=st.binary(min_size=1, max_size=64),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_havoc_respects_length_bounds(data, seed):
    out = havoc(data[:48], 48, random.Random(seed))
    assert 1 <= len(out) <= 48


def test_havoc_reproducible_under_seed():
    data = bytes(range(20))
    a = [havoc(data, 32, random.Random(1234)) for _ in range(50)]
    b = [havoc(data, 32, random.Random(1234)) for _ in range(50)]
    assert a == b


def test_havoc_insert_suppressed_at_cap():
    data = b"\xab" * 8
    rng = random.Random(99)
    for _ in range(500):
        assert len(havoc(data, 8, rng)) <= 8


def test_havoc_delete_keeps_one_byte():
    rng = random.Random(5)
    for _ in range(500):
        assert len(havoc(b"\x77", 8, rng)) >= 1


class ScriptedRng:
    """Feeds predetermined values to randint for construction tests."""

    def __init__(self, values):
        self.values = list(values)

    def randint(self, lo, hi):
        v = self.values.pop(0)
        assert lo <= v <= hi
        return v


def test_splice_construction():
    out = splice(
        bytes([1, 1, 1, 1]),
        bytes([2, 2, 2, 2]),
        48,
        ScriptedRng([2, 2]),
    )
    assert out == bytes([1, 1, 2, 2])


def test_splice_identical_inputs_yield_none():
    rng = random.Random(0)
    assert splice(b"xyz", b"xyz", 48, rng) is None


def test_splice_sides_and_cap():
    a = b"\x01" * 10
    b = b"\x02" * 10
    rng = random.Random(3)
    for _ in range(200):
        out = splice(a, b, 12, rng)
        assert out is not None
        assert 1 <= len(out) <= 12
        switched = False
        for byte in out:
            if byte == 2:
                switched = True
            else:
                assert byte == 1
                assert not switched  # all a-bytes precede all b-bytes
