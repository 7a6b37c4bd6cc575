"""Byte-level input mutation: a deterministic flip walk, havoc, and splicing.

The deterministic stage flips runs of 1, 2 and 4 bits at every bit offset, then
of 1, 2 and 4 bytes at every byte offset: 27L - 8 mutants for an input of
L >= 4 bytes. These are the flip sub-stages of AFL's schedule; its arithmetic
and interesting-value sub-stages are left out. A mask of live bits skips flips
of dead bytes, as AFL's effector map does, but exactly. Havoc stacks 1-64
random edits; splice joins a prefix of one corpus entry to a suffix of another.
All randomness flows through an explicit rng handle so a campaign's mutant
stream is reproducible from its seed. Havoc makes each draw inline with
rng.getrandbits, by the rule randrange itself applies (k = n.bit_length()
bits, redrawn until below n): no call per draw, and on Python 3.10-3.13 its
stream is randrange's.
"""

from __future__ import annotations

import random
from typing import Iterator

ARITH_MAX = 35
HAVOC_STACK_POW2 = 6  # stacks of 1 << (0..6) = 1..64 operations
HAVOC_BLOCK_MAX = 32
# Bits per draw below HAVOC_STACK_POW2 + 1 and below ARITH_MAX, as randrange
# takes them; havoc inlines those draws.
_STACK_BITS = (HAVOC_STACK_POW2 + 1).bit_length()
_ARITH_BITS = ARITH_MAX.bit_length()


def flips(data: bytes, bits: int, step: int, live: int = -1) -> Iterator[bytes | int]:
    """XOR a run of `bits` ones into the input read as one little-endian
    integer, at every `step`-th bit offset: bit k is bit k % 8 of byte k // 8.
    `live` masks that integer's bits (-1: all); each maximal run of flips that
    sets no live bit comes as one int, its length, instead of its mutants."""
    size, word, mask = len(data), int.from_bytes(data, "little"), (1 << bits) - 1
    dead = 0
    for start in range(0, size * 8 - bits + 1, step):
        if live >> start & mask:
            if dead:
                yield dead
                dead = 0
            yield (word ^ (mask << start)).to_bytes(size, "little")
        else:
            dead += 1
    if dead:
        yield dead


# (name, bits, step) in fixed execution order
DETERMINISTIC_SCHEDULE = (
    ("bitflip_1", 1, 1),
    ("bitflip_2", 2, 1),
    ("bitflip_4", 4, 1),
    ("byteflip_1", 8, 8),
    ("byteflip_2", 16, 8),
    ("byteflip_4", 32, 8),
)


def deterministic_stage(data: bytes, live: int = -1) -> Iterator[bytes | int]:
    """Every scheduled mutant of `data`, lazily, in fixed order; `live` as in flips."""
    if not data:
        raise ValueError("input must be non-empty")
    for _name, bits, step in DETERMINISTIC_SCHEDULE:
        yield from flips(data, bits, step, live)


def havoc(data: bytes, max_len: int, rng: random.Random) -> bytes:
    """One stacked-random-edit mutant of data; the lengths of both lie in
    [1, max_len], and data outside it is a ValueError.

    Every draw below n calls rng.getrandbits(k) with k = n.bit_length()
    until the result is below n, the rule randrange(n) applies, and
    randint(a, b) is a + that draw below b - a + 1. So on Python 3.10-3.13
    the mutants, and the generator's state after each call, are those of
    the same edits drawn with randrange and randint.
    """
    if not data:
        raise ValueError("input must be non-empty")
    if len(data) > max_len:
        raise ValueError(f"input of {len(data)} bytes is longer than max_len {max_len}")
    getrandbits = rng.getrandbits
    # Every draw is inline: a draw, then a redraw while it is out of range.
    # Below m it takes w = m.bit_length() bits; below the fixed bounds 7, 8,
    # 256 and 2, the 3, 4, 9 and 2 bits randrange takes. n follows the length
    # through ops 3, 4 and 6. On the perfbench havoc workload (Python 3.11.7,
    # 2 cores) this runs 1.14-1.18x the evals/s of drawing positions and
    # lengths through a helper call (BENCH_15.json).
    buf = bytearray(data)
    n = len(buf)
    stack = getrandbits(_STACK_BITS)
    while stack > HAVOC_STACK_POW2: stack = getrandbits(_STACK_BITS)
    for _ in range(1 << stack):
        op = getrandbits(3)
        while op == 7: op = getrandbits(3)
        if op < 3:  # one byte at one position; op 1 draws its value first
            if op == 1:
                value = getrandbits(9)
                while value >= 256: value = getrandbits(9)
            w = n.bit_length(); pos = getrandbits(w)
            while pos >= n: pos = getrandbits(w)
            if op == 0:  # flip one bit
                bit = getrandbits(4)
                while bit >= 8: bit = getrandbits(4)
                buf[pos] ^= 1 << bit
            elif op == 1:  # set byte
                buf[pos] = value
            else:  # 8-bit wrapping arith by +/- 1..ARITH_MAX
                d = getrandbits(_ARITH_BITS)
                while d >= ARITH_MAX: d = getrandbits(_ARITH_BITS)
                sign = getrandbits(2)
                while sign >= 2: sign = getrandbits(2)
                buf[pos] = (buf[pos] - d - 1 if sign else buf[pos] + d + 1) & 255
        elif op == 3:  # insert random block (suppressed at the cap)
            room = max_len - n
            if room > 0:
                m = room if room < HAVOC_BLOCK_MAX else HAVOC_BLOCK_MAX
                w = m.bit_length(); k = getrandbits(w) + 1
                while k > m: k = getrandbits(w) + 1
                w = (n + 1).bit_length(); pos = getrandbits(w)
                while pos > n: pos = getrandbits(w)
                block = bytearray(k)
                for i in range(k):
                    value = getrandbits(9)
                    while value >= 256: value = getrandbits(9)
                    block[i] = value
                buf[pos:pos] = block
                n += k
        elif op == 4:  # delete block, keep at least one byte
            if n > 1:
                m = n - 1 if n <= HAVOC_BLOCK_MAX else HAVOC_BLOCK_MAX
                w = m.bit_length(); k = getrandbits(w) + 1
                while k > m: k = getrandbits(w) + 1
                w = (n - k + 1).bit_length(); pos = getrandbits(w)
                while pos > n - k: pos = getrandbits(w)
                del buf[pos:pos + k]
                n -= k
        elif op == 5:  # overwrite block with a copy from elsewhere in buf
            m = n if n < HAVOC_BLOCK_MAX else HAVOC_BLOCK_MAX
            w = m.bit_length(); k = getrandbits(w) + 1
            while k > m: k = getrandbits(w) + 1
            w = (n - k + 1).bit_length(); src = getrandbits(w)
            while src > n - k: src = getrandbits(w)
            dst = getrandbits(w)
            while dst > n - k: dst = getrandbits(w)
            buf[dst:dst + k] = buf[src:src + k]
        else:  # duplicate block (insert a copy, suppressed at the cap)
            room = max_len - n
            if room > 0:
                m = room if room < n else n
                if m > HAVOC_BLOCK_MAX: m = HAVOC_BLOCK_MAX
                w = m.bit_length(); k = getrandbits(w) + 1
                while k > m: k = getrandbits(w) + 1
                w = (n - k + 1).bit_length(); src = getrandbits(w)
                while src > n - k: src = getrandbits(w)
                block = buf[src:src + k]
                w = (n + 1).bit_length(); pos = getrandbits(w)
                while pos > n: pos = getrandbits(w)
                buf[pos:pos] = block
                n += k
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
