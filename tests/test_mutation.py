"""Deterministic flip walk, havoc bounds, splice construction."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltafuzz.driver import segment_layout
from deltafuzz.mutation import (
    ARITH_MAX,
    DETERMINISTIC_SCHEDULE,
    HAVOC_BLOCK_MAX,
    HAVOC_STACK_POW2,
    deterministic_stage,
    flips,
    havoc,
    splice,
)


def deterministic_stage_counts(length: int) -> dict[str, int]:
    """Closed-form mutant count per sub-stage for an input of `length` bytes."""
    counts = {
        "bitflip_1": max(0, 8 * length),
        "bitflip_2": max(0, 8 * length - 1),
        "bitflip_4": max(0, 8 * length - 3),
        "byteflip_1": length,
        "byteflip_2": max(0, length - 1),
        "byteflip_4": max(0, length - 3),
    }
    counts["total"] = sum(counts.values())
    return counts


def test_single_bitflips_of_zero_byte():
    assert list(flips(b"\x00", 1, 1)) == [
        bytes([v]) for v in (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80)
    ]


def test_bitflip_window_counts():
    data = b"\x00" * 4
    assert len(list(flips(data, 1, 1))) == 32
    assert len(list(flips(data, 2, 1))) == 31
    assert len(list(flips(data, 4, 1))) == 29


def test_byteflip_examples():
    assert list(flips(b"\xff\x00", 8, 8)) == [b"\x00\x00", b"\xff\xff"]
    assert list(flips(b"\x12\x34\x56", 16, 8)) == [b"\xed\xcb\x56", b"\x12\xcb\xa9"]


def reference_bitflips(data, width):
    """The bit walk over a bytearray copy, bit k at byte k // 8, LSB first."""
    for start in range(len(data) * 8 - width + 1):
        buf = bytearray(data)
        for bit in range(start, start + width):
            buf[bit // 8] ^= 1 << (bit % 8)
        yield bytes(buf)


def reference_byteflips(data, width):
    """The byte walk over a bytearray copy."""
    for start in range(len(data) - width + 1):
        buf = bytearray(data)
        for i in range(start, start + width):
            buf[i] ^= 0xFF
        yield bytes(buf)


@given(data=st.binary(min_size=1, max_size=48), width=st.sampled_from([1, 2, 4]))
@settings(max_examples=200)
def test_flips_are_the_bytewise_walks(data, width):
    """Flipping bits of the input read as one little-endian integer gives
    the mutants of the bytewise walk, in the same order: a byte flip of
    `width` bytes is a run of 8 * width bits moved 8 bits at a time."""
    assert list(flips(data, width, 1)) == list(reference_bitflips(data, width))
    assert list(flips(data, 8 * width, 8)) == list(reference_byteflips(data, width))


def test_stage_is_the_reference_walks_in_order():
    """For every length 1-64 the stage is the bit walks of widths 1, 2 and
    4, then the byte walks of widths 1, 2 and 4, each of its closed-form
    length, and nothing after them."""
    rng = random.Random(16)
    names = [name for name, *_ in DETERMINISTIC_SCHEDULE]
    assert names == [f"{kind}_{w}" for kind in ("bitflip", "byteflip") for w in (1, 2, 4)]
    for length in range(1, 65):
        data = rng.randbytes(length)
        counts = deterministic_stage_counts(length)
        stage = deterministic_stage(data)
        for name in names:
            kind, width = name.split("_")
            walk = reference_bitflips if kind == "bitflip" else reference_byteflips
            expected = list(walk(data, int(width)))
            assert len(expected) == counts[name], (length, name)
            assert list(itertools.islice(stage, len(expected))) == expected, (length, name)
        assert next(stage, None) is None, length


@given(data=st.binary(min_size=1, max_size=40), live=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mask_folds_each_dead_run_of_flips_into_its_length(data, live):
    """With a mask of live bits, the stage is the full stage with each run
    of flips that sets no live bit replaced by its length: expanded, the
    count is the full stage's, and every live mutant sits where it was.
    Within a sub-stage, runs are maximal: no two lengths in a row."""
    size = len(data)
    if live.draw(st.booleans()):  # the campaign's mask: the bytes a layout keeps
        cap = live.draw(st.integers(1, 20))
        mask = sum((1 << 8 * k) - 1 << 8 * o for o, k in segment_layout(size, cap))
    else:
        mask = live.draw(st.integers(0, (1 << 8 * size) - 1))
    full = list(deterministic_stage(data))
    expanded = []
    for item in deterministic_stage(data, mask):
        expanded += [None] * item if isinstance(item, int) else [item]
    assert len(expanded) == len(full)
    word = int.from_bytes(data, "little")
    for got, mutant in zip(expanded, full):
        sets_live = (int.from_bytes(mutant, "little") ^ word) & mask
        assert got == (mutant if sets_live else None)
    for _, bits, step in DETERMINISTIC_SCHEDULE:
        items = list(flips(data, bits, step, mask))
        assert all(isinstance(n, int) and n > 0 for n in items if not isinstance(n, bytes))
        assert not any(isinstance(a, int) and isinstance(b, int) for a, b in zip(items, items[1:]))


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
    """Every flip changes the input, so the enumeration is exactly the
    closed form at any length, whatever the bytes."""
    data = b"\x5a" * length
    expected = deterministic_stage_counts(length)
    per_stage = {
        name: sum(1 for _ in flips(data, bits, step))
        for name, bits, step in DETERMINISTIC_SCHEDULE
    }
    for name, count in per_stage.items():
        assert count == expected[name], name
    assert sum(per_stage.values()) == expected["total"]


@given(
    data=st.binary(min_size=1, max_size=64),
    seed=st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_havoc_respects_length_bounds(data, seed):
    out = havoc(data[:48], 48, random.Random(seed))
    assert 1 <= len(out) <= 48


def test_havoc_reproducible_under_seed():
    def chain(rng):
        data, out = bytes(range(20)), []
        for _ in range(50):
            data = havoc(data, 32, rng)
            out.append(data)
        return out

    assert chain(random.Random(1234)) == chain(random.Random(1234))


def test_havoc_refuses_input_longer_than_max_len():
    with pytest.raises(ValueError):
        havoc(bytes(60), 48, random.Random(0))
    assert len(havoc(bytes(48), 48, random.Random(0))) <= 48


def randrange_havoc(data, max_len, rng):
    """havoc as drawn through randrange and randint, the stream it must keep."""
    buf = bytearray(data)
    for _ in range(1 << rng.randint(0, HAVOC_STACK_POW2)):
        op = rng.randrange(7)
        n = len(buf)
        if op == 0:
            pos = rng.randrange(n)
            buf[pos] ^= 1 << rng.randrange(8)
        elif op == 1:
            buf[rng.randrange(n)] = rng.randrange(256)
        elif op == 2:
            pos = rng.randrange(n)
            d = rng.randint(1, ARITH_MAX)
            if rng.randrange(2):
                d = -d
            buf[pos] = (buf[pos] + d) % 256
        elif op == 3:
            room = max_len - n
            if room > 0:
                k = rng.randint(1, min(HAVOC_BLOCK_MAX, room))
                pos = rng.randint(0, n)
                buf[pos:pos] = bytes(rng.randrange(256) for _ in range(k))
        elif op == 4:
            if n > 1:
                k = rng.randint(1, min(HAVOC_BLOCK_MAX, n - 1))
                pos = rng.randint(0, n - k)
                del buf[pos:pos + k]
        elif op == 5:
            k = rng.randint(1, min(HAVOC_BLOCK_MAX, n))
            src = rng.randint(0, n - k)
            dst = rng.randint(0, n - k)
            buf[dst:dst + k] = buf[src:src + k]
        else:
            room = max_len - n
            if room > 0:
                k = rng.randint(1, min(HAVOC_BLOCK_MAX, room, n))
                src = rng.randint(0, n - k)
                block = bytes(buf[src:src + k])
                pos = rng.randint(0, n)
                buf[pos:pos] = block
    return bytes(buf)


@given(
    data=st.binary(min_size=1, max_size=48),
    room=st.integers(min_value=0, max_value=47),
    seed=st.integers(),
    mutants=st.just(20),
)
@example(data=b"\x01", room=0, seed=0, mutants=20)  # insert and delete both suppressed
@example(data=bytes(48), room=0, seed=1, mutants=20)
# At length 1, op 6 copies its one byte and op 5's source and destination
# each still draw below 1, which consumes a word.
@example(data=b"\x01", room=47, seed=9, mutants=1)
@example(data=b"\x01\x02", room=1, seed=16, mutants=1)  # op 3 inserts 1 byte: a draw below 1
# A chain through lengths 48 and 1, so ops 3, 4 and 6 all change the length.
@example(data=b"\x01", room=47, seed=0, mutants=200)
@settings(max_examples=200)
def test_havoc_draws_the_stream_of_randrange(data, room, seed, mutants):
    max_len = min(len(data) + room, 48)
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(mutants):
        expected = randrange_havoc(data, max_len, reference)
        data = havoc(data, max_len, rng)
        assert data == expected
        assert rng.getstate() == reference.getstate()


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
