"""The benchmark's workloads: the jobs of one round, built from the workload seed.

A job is one paced campaign or one exhaustive oracle sweep. A round runs a
workload's jobs once, in order; every round of a run repeats the same jobs,
so their deterministic outputs must repeat exactly. The workload seed picks
each campaign's rng_seed and the contents of every generated seed file; the
program under test only ever sees those generated files and configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PACE = 100  # paced evaluations per virtual second, for every campaign
ZERO_SEED = bytes(48)  # the README's quick-start seed file
HUNT_CAP = 40_000  # evaluations; a hunt campaign that hits it missed its truth

# Exhaustive maxima over the binary alphabet at segment length 7, derived by
# hand from each driver's COST_MODEL, never from the oracle's own output.
# Length 7 (16,384 runs a sweep) rather than 8 keeps each timed sweep short
# enough for the calibration loops around it to track the host's speed.
SWEEP_LEN = 7
SWEEP_CHARSET = "binary"
SWEEP_TRUTH = {
    # 1 tick length check, 2 ticks per loop iteration, 1 tick on the early
    # return. Cheapest secret: mismatch at byte 0, 1 + 2 + 1 = 4. Dearest:
    # mismatch at byte 6, 1 + 2*7 + 1 = 16 (a full match costs 15).
    "pwcheck_unsafe": 16 - 4,
    # 1 tick validation, per round 1 tick guard + 1 tick square, 1 tick per
    # set bit. Binary bytes are 0 or 1, so the dearest exponent sets bits
    # 0, 8, ..., 48: 49 rounds and 7 multiplies, 1 + 2*49 + 7 = 106.
    # Exponent 0 runs no round: 1.
    "modpow_unsafe": 106 - 1,
}

# Soak seeds: a fixed 4-symbol pattern for crime_compress, relabelled per
# seed, and a fixed exponent for modpow_unsafe between random public and
# filler bytes. Only cost-neutral bytes change with the seed, so the search
# outcome within the soak budget does not depend on it.
CRIME_PATTERN = b"ddacddcdcbbcbacbcaacdacdcbddcaaadadcbcabbbbdaacd"
MODPOW_EXPONENT = b"\x55" * 8  # 63-bit exponent, 32 set bits
# Several short campaigns per driver rather than one long one: each timed
# job then sits between two calibration loops a fraction of a second apart.
CAMPAIGNS_PER_DRIVER = 3  # each with its own rng_seed (and soak seed file)
SOAK_EVALS = 500
HAVOC_EVALS = 2000


@dataclass(frozen=True)
class Job:
    driver: str
    seed: bytes | None = None  # seed-file contents; None for an oracle sweep
    rng_seed: int = 0
    evals: int = 0  # campaign budget, or its cap when it stops at truth
    stop_at_truth: bool = False
    segment_cap: int | None = None  # None: the driver's own cap
    deterministic: bool = True  # CampaignConfig.deterministic_stage_enabled

    @property
    def is_sweep(self) -> bool:
        return self.seed is None


def _distant_symbols(rng: random.Random) -> list[int]:
    """Four byte values that no bitflip (up to 4 bits), byte complement or
    +-35 arithmetic edit turns into one another."""
    while True:
        syms = rng.sample(range(256), 4)
        if all(
            5 <= bin(a ^ b).count("1") <= 7 and 35 < (a - b) % 256 < 221
            for i, a in enumerate(syms)
            for b in syms[i + 1 :]
        ):
            return syms


def crime_seed(rng: random.Random) -> bytes:
    syms = _distant_symbols(rng)
    return bytes(syms[c - ord("a")] for c in CRIME_PATTERN)


def modpow_seed(rng: random.Random) -> bytes:
    pub = bytearray(rng.randbytes(16))
    pub[3] |= 0x80  # modulus >= 2**31, so no execution is refused
    return bytes(pub) + MODPOW_EXPONENT + rng.randbytes(8) + MODPOW_EXPONENT + rng.randbytes(8)


def build(workload: str, seed: int) -> list[Job]:
    """The jobs of one round of `workload` for workload seed `seed`."""
    rng = random.Random(f"{workload}/{seed}")

    def rng_seed() -> int:
        return rng.randrange(2**31)

    if workload == "hunt":
        # pad_unsafe and jetty_eq_unsafe run at segment length 4, where the
        # first deterministic stage finds their truth after 1,261 mutants. At
        # 5 or more they need that whole stage (13.5k evaluations, seconds per
        # campaign), too few campaigns per run to time steadily; at jetty's
        # own cap of 16 a campaign needs 117k-161k evaluations.
        return [
            Job(driver, ZERO_SEED, rng_seed(), HUNT_CAP, stop_at_truth=True, segment_cap=cap)
            for driver, cap in (
                ("pwcheck_unsafe", None),
                ("straightline_unsafe", None),
                ("pad_unsafe", 4),
                ("jetty_eq_unsafe", 4),
            )
        ]
    if workload == "soak":
        return [
            Job(driver, make_seed(rng), rng_seed(), SOAK_EVALS)
            for driver, make_seed in (("crime_compress", crime_seed), ("modpow_unsafe", modpow_seed))
            for _ in range(CAMPAIGNS_PER_DRIVER)
        ]
    if workload == "havoc":
        return [
            Job(driver, ZERO_SEED, rng_seed(), HAVOC_EVALS, deterministic=False)
            for driver in ("pwcheck_unsafe", "straightline_unsafe")
            for _ in range(CAMPAIGNS_PER_DRIVER)
        ]
    if workload == "oracle":
        return [Job(driver) for driver in SWEEP_TRUTH]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("hunt", "soak", "havoc", "oracle")
