"""Wire your own function into the two-run harness.

A target is any Python function (pub, sec, meter) -> output. The meter charges
whatever cost model you choose (abstract ops, peak allocation, response
bytes); the harness parses one fuzz input into (pub, sec_1, sec_2), runs
the target once per secret, and reports the absolute cost difference.
With a coverage map, both runs execute a probed copy of the target's code,
and the map records which branches each candidate took; that needs the
target's source file, as here. A registered driver is then fuzzed like a
bundled one, by run_campaign in the process that registered it.

Run: python3 demos/05_instrument_your_own_target.py
"""

import tempfile
from pathlib import Path

from deltafuzz import (
    CampaignConfig,
    Constraints,
    CoverageMap,
    DriverSpec,
    Meter,
    register_driver,
    run_campaign,
    run_driver,
)


def lookup_rate_limited(pub: bytes, sec: bytes, meter: Meter) -> bool:
    """Toy session lookup: walks the secret table until the public token
    matches, so position in the table shows up as op count."""
    meter.tick(1)
    table = [sec[i : i + 2] for i in range(0, len(sec) - 1, 2)]
    for entry in table:
        meter.tick(3)  # fetch + compare
        if entry == pub[:2]:
            return True
    return False


def main():
    spec = register_driver(
        DriverSpec(
            name="demo_lookup",
            target=lookup_rate_limited,
            description="position of the match in a secret table leaks",
            constraints=Constraints(max_segment_len=8),
        )
    )

    # input = pub || sec_1 || sec_2 as equal thirds
    pub = b"\xaa\xbb" + b"\x00" * 6
    sec_match_first = b"\xaa\xbb" + b"\x01\x02\x03\x04\x05\x06"
    sec_match_last = b"\x01\x02\x03\x04\x05\x06" + b"\xaa\xbb"
    data = pub + sec_match_first + sec_match_last

    cov = CoverageMap()
    result = run_driver(spec, data, cov)
    print(f"outcome:        {result.outcome}")
    print(f"cost(sec_1):    {result.cost1.ops} ops (match at table slot 0)")
    print(f"cost(sec_2):    {result.cost2.ops} ops (match at table slot 3)")
    print(f"delta:          {result.delta.ops} ops")
    print(f"edges touched:  {cov.nonzero_count()}")
    print()
    print("a campaign over this driver works exactly like the bundled ones:")
    with tempfile.TemporaryDirectory(prefix="deltafuzz-demo-") as workdir:
        seeds = Path(workdir) / "seeds"
        seeds.mkdir()
        (seeds / "zeros").write_bytes(bytes(24))
        report = run_campaign(
            CampaignConfig(
                driver_name="demo_lookup",
                seed_dir=str(seeds),
                out_dir=str(Path(workdir) / "out"),
                timeout_seconds=5.0,
                rng_seed=1,
                pace=1000,  # virtual clock: the run is reproducible bit for bit
                stop_on_delta=9,  # a full table walk against a first-slot match
            )
        )
    print(f"verdict:        {report.verdict}")
    print(f"max delta:      {report.max_delta} ops")
    print(f"executions:     {report.executions}")
    print(f"stopped:        {report.stop_reason}")


if __name__ == "__main__":
    main()
