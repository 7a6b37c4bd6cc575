"""Golden paced campaigns: the bytes every artifact must keep.

A paced campaign is a pure function of (config, seeds, rng_seed), so its
stats.csv, witness files, report and queue filenames can be pinned by hash.
A change that does not mean to alter the search must leave every digest
here untouched; one that does changes them on purpose and says so.
"""

import hashlib

import pytest

from deltafuzz import driver as driver_module
from deltafuzz.campaign import CampaignConfig, run_campaign
from deltafuzz.driver import OUTCOME_HARNESS_ERROR, Constraints, DriverSpec

# The memo test's target comes first: its site ids hash its line numbers,
# so any line added above it would change that campaign's golden.
TARGET_CALLS: list[bytes] = []


def counting_target(pub, sec, meter):
    """Prefix compare that records each call and raises on odd public bytes."""
    TARGET_CALLS.append(sec)
    meter.tick(1)
    for a, b in zip(pub, sec):
        meter.tick(1)
        if a != b:
            break
    if pub[0] & 1:
        raise ValueError("odd public byte")
    return pub == sec


COUNTING = DriverSpec(
    name="memo_counting",
    target=counting_target,
    constraints=Constraints(max_segment_len=2),  # below the seed's 4-byte third
)

ARTIFACTS = ("stats.csv", "witness.bin", "witness.txt", "report.txt")

MODPOW_SEED = (
    b"\x11\x22\x33\xc4" + bytes(range(12))  # pub: modulus >= 2**31, base, dropped tail
    + b"\x55" * 8 + bytes(8)  # sec_1: exponent, dropped tail
    + b"\x0f" * 8 + bytes(8)  # sec_2: exponent, dropped tail
)

# name -> (CampaignConfig fields, seed file contents)
CAMPAIGNS = {
    # deterministic stage of a 12-byte seed, then havoc and splice
    "pwcheck_unsafe": (
        dict(driver_name="pwcheck_unsafe", rng_seed=1, timeout_seconds=5.0),
        bytes(12),
    ),
    # cap 4 of 16-byte thirds: most deterministic mutants decode alike
    "pad_unsafe_cap4": (
        dict(driver_name="pad_unsafe", segment_cap=4, rng_seed=2, timeout_seconds=2.0),
        bytes(48),
    ),
    # havoc and splice only, on a target that keeps half of each third
    "modpow_unsafe": (
        dict(
            driver_name="modpow_unsafe",
            rng_seed=3,
            timeout_seconds=1.0,
            deterministic_stage_enabled=False,
        ),
        MODPOW_SEED,
    ),
}

# sha256 of each artifact and of the newline-joined sorted queue filenames
GOLDEN = {
    "pwcheck_unsafe": {
        "stats.csv": "6dbfbcd3962711f8047bfc2e557c1349d8cd60f8f1cbc802f32b557c314891db",
        "witness.bin": "e3c5b4ffe2b3498a93ec8e8985a48f152a64de6bc66998f32bf4dd479e066b47",
        "witness.txt": "c513a16e50f841fc275451cbda72e546b26d5052064cb3262186e3542d3e8e06",
        "report.txt": "a74e4499e63130cbee9300102bd27182533af42a1567704de3147f8d4e061bbb",
        "queue": "d65367576dd7c2cb5edd2db47ae0c1ee1d1fcaba5d857ee62c2f2609005de706",
    },
    "pad_unsafe_cap4": {
        "stats.csv": "5f0a46e174164d52cd307bcc59472cbe74e2edcd80cc1208738edea891c43c14",
        "witness.bin": "f71fdc9adfb268d1848c3adb1261977ac8c8d1973c42f672e9e2d06ae048ef8f",
        "witness.txt": "95b9d519b46df34e59527fefa429df4f2ca53cdaaa665ef96206b4d548442d4d",
        "report.txt": "415f128dea7465b88ae0b761bc97c28f2016e30d27ae2a5c41f07fa1c5118360",
        "queue": "85c41648005236ebc89cd0acb936b3c1545f893d65670c2d62a3fa85efe88a2e",
    },
    "modpow_unsafe": {
        "stats.csv": "5efac65135e7f3151a5aee24a09fe867eec56999fcc4350003d6ec4a3d01aa74",
        "witness.bin": "c4adc9337a408a1a1e0eb852a95b56e3f329a519ea5efc2dfa2426617b9fb874",
        "witness.txt": "1a6dda4e4ba7253235c06a5a44162e829662cea57c41da14ced28b85caf67c0f",
        "report.txt": "80adbc93f9dc3ff51997dfdeb0c8066aa602b39f8ef431be2785c71d6dacfeae",
        "queue": "6884f42d6ee5f460fc30479280d2e72c85d1670bc5be9ca5c73bc41ce02ed4d4",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def campaign_digest(out_dir) -> dict[str, str]:
    digest = {name: sha256((out_dir / name).read_bytes()) for name in ARTIFACTS}
    queue = sorted(p.name for p in (out_dir / "queue").iterdir())
    digest["queue"] = sha256("\n".join(queue).encode())
    return digest


def run_paced(tmp_path, fields, seed, **extra):
    seed_dir = tmp_path / "seeds"
    seed_dir.mkdir()
    (seed_dir / "seed").write_bytes(seed)
    out_dir = tmp_path / "out"
    config = CampaignConfig(
        seed_dir=str(seed_dir), out_dir=str(out_dir), pace=1000, **fields, **extra
    )
    return run_campaign(config), out_dir


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_paced_artifacts_match_golden(tmp_path, name):
    fields, seed = CAMPAIGNS[name]
    _, out_dir = run_paced(tmp_path, fields, seed)
    assert campaign_digest(out_dir) == GOLDEN[name]


# --- evaluation memo -----------------------------------------------------------

COUNTING_SEED = b"\x01" + bytes(11)
COUNTING_GOLDEN = {
    "stats.csv": "1a33f4cf62b31db393b931f8aa18b1bc88d8074136d0e89d197378c4080b0632",
    "witness.bin": "7d450465ceb49083708a6970827f0e0b116ed285072a95b451e55f583f56da8d",
    "witness.txt": "60b9da33331bf8124fb33e2cbe3334971d249531ec3820d8711acab9da067e44",
    "report.txt": "190331b802592ff4a379880211123a5f7739356c3a1932288b27a7178074a9b6",
    "queue": "c1e740e57585d8b1d89876ff0019cd51eac6c90a652d2d00bf44d31060a91f07",
}


@pytest.fixture
def counting_driver(monkeypatch):
    monkeypatch.setitem(driver_module._REGISTRY, COUNTING.name, COUNTING)
    TARGET_CALLS.clear()
    yield COUNTING
    TARGET_CALLS.clear()


def test_repeated_decodings_skip_the_target_but_count(tmp_path, counting_driver):
    results = []
    calls = []  # target calls per evaluation

    def record(result):
        results.append(result)
        calls.append(len(TARGET_CALLS) - sum(calls))
        return False

    report, out_dir = run_paced(
        tmp_path,
        dict(driver_name=COUNTING.name, rng_seed=5, timeout_seconds=2.0),
        COUNTING_SEED,
        stop_condition=record,
    )
    assert len(results) == report.executions
    assert len(TARGET_CALLS) < 2 * report.executions
    assert campaign_digest(out_dir) == COUNTING_GOLDEN

    errors = [r for r in results if r.outcome == OUTCOME_HARNESS_ERROR]
    assert report.harness_error_count == len(errors)
    # some raising inputs were repeats, and each still counted
    assert len(errors) > len({r.decoded for r in errors})
    # a raising execution served from the memo keeps its note, also when its
    # evaluation's triple is new: the memo holds executions, not triples
    assert {r.note for r in errors} == {"ValueError: odd public byte"}
    assert report.harness_error_notes == ("ValueError: odd public byte",)
    seen = set()
    served_in_new_triples = 0
    for result, n in zip(results, calls):
        if result.outcome == OUTCOME_HARNESS_ERROR and n < 2 and result.decoded not in seen:
            served_in_new_triples += 1
        seen.add(result.decoded)
    assert served_in_new_triples > 0
