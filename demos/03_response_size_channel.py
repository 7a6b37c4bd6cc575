"""Leak a secret through compressed response sizes.

When a server compresses attacker-visible data together with a secret, the
response size shrinks whenever the two share substrings: the compressor
replaces the repeat with a back-reference. The cost dimension here is
response_bytes rather than ops. This script first shows the effect
directly, then lets a campaign rediscover it from scratch.

Run: python3 demos/03_response_size_channel.py
"""

import tempfile
from pathlib import Path

from deltafuzz import CampaignConfig, run_campaign
from deltafuzz.benchmarks.crime import lz77_compress


def main():
    public = b"GET /account?session=77f2a1&user=alice"
    sharing = b"session=77f2a1"  # appears verbatim in the public part
    fresh = b"token=93c0d4e8"  # same length, nothing shared

    size_sharing = len(lz77_compress(public + sharing))
    size_fresh = len(lz77_compress(public + fresh))
    print(f"compress(public + secret_sharing): {size_sharing} bytes")
    print(f"compress(public + secret_fresh):   {size_fresh} bytes")
    print(f"observable difference:             {size_fresh - size_sharing} bytes")
    print()

    with tempfile.TemporaryDirectory(prefix="deltafuzz-demo-") as tmp:
        workdir = Path(tmp)
        seeds = workdir / "seeds"
        seeds.mkdir()
        (seeds / "spread").write_bytes(bytes(range(48)))  # no shared 4-grams yet

        report = run_campaign(
            CampaignConfig(
                driver_name="crime_compress",
                seed_dir=str(seeds),
                out_dir=str(workdir / "out"),
                timeout_seconds=60.0,
                rng_seed=5,
                pace=3000,
                stop_on_delta=4,
            )
        )
    print(f"campaign verdict: {report.verdict} (dimension {report.dimension})")
    print(f"max response-size delta: {report.max_delta} bytes")
    pub, sec1, sec2 = report.witness_decoded
    print(f"witness pub:   {pub.hex()}")
    print(f"witness sec_1: {sec1.hex()} -> {len(lz77_compress(pub + sec1))} bytes")
    print(f"witness sec_2: {sec2.hex()} -> {len(lz77_compress(pub + sec2))} bytes")


if __name__ == "__main__":
    main()
