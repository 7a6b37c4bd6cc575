"""Byte-level input mutation: deterministic stages, havoc, and splicing.

The deterministic stage walks a fixed schedule of bit flips, byte flips,
wrapping add/subtract, and interesting-value substitutions, emitting a
closed-form number of mutants per input length. Havoc stacks 1-64 random
edits; splice joins a prefix of one corpus entry to a suffix of another.
All randomness flows through an explicit rng handle so a campaign's mutant
stream is reproducible from its seed.
"""

from __future__ import annotations

import random
from typing import Iterator

ARITH_MAX = 35
HAVOC_STACK_POW2 = 6  # stacks of 1 << (0..6) = 1..64 operations
HAVOC_BLOCK_MAX = 32

INTERESTING_8 = [-128, -1, 0, 1, 16, 32, 64, 100, 127]
INTERESTING_16 = INTERESTING_8 + [
    -32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767,
]
INTERESTING_32 = INTERESTING_16 + [
    -2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647,
]


def bitflips(data: bytes, width: int) -> Iterator[bytes]:
    """Flip `width` consecutive bits at every offset, LSB-first within a byte."""
    nbits = len(data) * 8
    for start in range(nbits - width + 1):
        buf = bytearray(data)
        for bit in range(start, start + width):
            buf[bit // 8] ^= 1 << (bit % 8)
        yield bytes(buf)


def byteflips(data: bytes, width: int) -> Iterator[bytes]:
    """XOR `width` consecutive bytes with 0xFF at every offset."""
    for start in range(len(data) - width + 1):
        buf = bytearray(data)
        for i in range(start, start + width):
            buf[i] ^= 0xFF
        yield bytes(buf)


def arith(data: bytes, width: int) -> Iterator[bytes]:
    """Wrapping +/- 1..ARITH_MAX on a little-endian window of `width` bytes."""
    mod = 1 << (8 * width)
    for start in range(len(data) - width + 1):
        word = int.from_bytes(data[start:start + width], "little")
        for d in range(1, ARITH_MAX + 1):
            for value in ((word + d) % mod, (word - d) % mod):
                buf = bytearray(data)
                buf[start:start + width] = value.to_bytes(width, "little")
                yield bytes(buf)


def interesting(data: bytes, width: int) -> Iterator[bytes]:
    """Substitute boundary values little-endian; no-op substitutions skipped."""
    values = {1: INTERESTING_8, 2: INTERESTING_16, 4: INTERESTING_32}[width]
    mod = 1 << (8 * width)
    for start in range(len(data) - width + 1):
        orig = int.from_bytes(data[start:start + width], "little")
        for v in values:
            enc = v % mod
            if enc == orig:
                continue
            buf = bytearray(data)
            buf[start:start + width] = enc.to_bytes(width, "little")
            yield bytes(buf)


# (name, generator, width) in fixed execution order
DETERMINISTIC_SCHEDULE = (
    ("bitflip_1", bitflips, 1),
    ("bitflip_2", bitflips, 2),
    ("bitflip_4", bitflips, 4),
    ("byteflip_1", byteflips, 1),
    ("byteflip_2", byteflips, 2),
    ("byteflip_4", byteflips, 4),
    ("arith_8", arith, 1),
    ("arith_16", arith, 2),
    ("arith_32", arith, 4),
    ("interesting_8", interesting, 1),
    ("interesting_16", interesting, 2),
    ("interesting_32", interesting, 4),
)


def deterministic_stage(data: bytes) -> Iterator[bytes]:
    """Every scheduled mutant of `data`, lazily, in fixed order."""
    if not data:
        raise ValueError("input must be non-empty")
    for _name, gen, width in DETERMINISTIC_SCHEDULE:
        yield from gen(data, width)


def _block_len(rng: random.Random, limit: int) -> int:
    return rng.randint(1, min(HAVOC_BLOCK_MAX, limit))


def havoc(data: bytes, max_len: int, rng: random.Random) -> bytes:
    """One stacked-random-edit mutant; length stays within [1, max_len]."""
    if not data:
        raise ValueError("input must be non-empty")
    buf = bytearray(data)
    for _ in range(1 << rng.randint(0, HAVOC_STACK_POW2)):
        op = rng.randrange(7)
        n = len(buf)
        if op == 0:  # flip one bit
            pos = rng.randrange(n)
            buf[pos] ^= 1 << rng.randrange(8)
        elif op == 1:  # set byte
            buf[rng.randrange(n)] = rng.randrange(256)
        elif op == 2:  # 8-bit wrapping arith
            pos = rng.randrange(n)
            d = rng.randint(1, ARITH_MAX)
            if rng.randrange(2):
                d = -d
            buf[pos] = (buf[pos] + d) % 256
        elif op == 3:  # insert random block (suppressed at the cap)
            room = max_len - n
            if room > 0:
                k = _block_len(rng, room)
                pos = rng.randint(0, n)
                buf[pos:pos] = bytes(rng.randrange(256) for _ in range(k))
        elif op == 4:  # delete block, keep at least one byte
            if n > 1:
                k = _block_len(rng, n - 1)
                pos = rng.randint(0, n - k)
                del buf[pos:pos + k]
        elif op == 5:  # overwrite block with a copy from elsewhere in buf
            k = _block_len(rng, n)
            src = rng.randint(0, n - k)
            dst = rng.randint(0, n - k)
            buf[dst:dst + k] = buf[src:src + k]
        else:  # duplicate block (insert a copy, suppressed at the cap)
            room = max_len - n
            if room > 0:
                k = _block_len(rng, min(room, n))
                src = rng.randint(0, n - k)
                block = bytes(buf[src:src + k])
                pos = rng.randint(0, n)
                buf[pos:pos] = block
    return bytes(buf)


def splice(a: bytes, b: bytes, max_len: int, rng: random.Random) -> bytes | None:
    """Prefix of a + suffix of b at random split points, cut to max_len;
    None if a == b."""
    if not a or not b:
        raise ValueError("inputs must be non-empty")
    if a == b:
        return None
    i = rng.randint(1, len(a))
    j = rng.randint(0, len(b))
    return (a[:i] + b[j:])[:max_len]
