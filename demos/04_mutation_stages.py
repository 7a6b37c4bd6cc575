"""Watch the mutation pipeline work on a small input.

Every queue entry goes through a deterministic stage once (systematic bit
flips, byte flips, arithmetic nudges, interesting-constant overwrites),
then repeated havoc rounds (stacked random edits) and splices with other
queue entries. This script prints what each stage produces.

Run: python3 demos/04_mutation_stages.py
"""

import random
from collections import Counter

from deltafuzz.mutation import deterministic_stage, havoc, splice


def main():
    data = bytes.fromhex("00ff1080")
    print(f"input: {data.hex()} ({len(data)} bytes)")
    print()

    mutants = list(deterministic_stage(data))
    print(f"deterministic stage: {len(mutants)} mutants, first 8:")
    for m in mutants[:8]:
        print(f"  {m.hex()}")
    lengths = Counter(len(m) for m in mutants)
    print(f"all deterministic mutants keep the length: {dict(lengths)}")
    print()

    max_len = 16  # the campaign's input byte cap
    rng = random.Random(0)
    print("havoc: stacked random edits, lengths may grow or shrink")
    for _ in range(6):
        out = havoc(data, max_len, rng)
        print(f"  {out.hex():32} len={len(out)}")
    print()

    other = bytes.fromhex("a1a2a3a4a5a6")
    print(f"splice with {other.hex()}: head of one input, tail of the other")
    for _ in range(4):
        out = splice(data, other, max_len, rng)
        print(f"  {out.hex()}")
    print()
    print(f"splice of identical inputs is refused: {splice(data, data, max_len, rng)}")


if __name__ == "__main__":
    main()
