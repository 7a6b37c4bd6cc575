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
        "stats.csv": "574e8416ab63ea114d660a3a1575fa0e5320d0b6a76627fc502581625a1b7dff",
        "witness.bin": "e3c5b4ffe2b3498a93ec8e8985a48f152a64de6bc66998f32bf4dd479e066b47",
        "witness.txt": "c513a16e50f841fc275451cbda72e546b26d5052064cb3262186e3542d3e8e06",
        "report.txt": "7693965ffe496f8c0b18a51235c2e37abaebc0066bebed8f35cdd60c6df055e1",
        "queue": "c0e5d3aa1687910f36c7511a9f73ff6b4feb70755f57ce9b7d606619f0929f6e",
    },
    "pad_unsafe_cap4": {
        "stats.csv": "80944858ef9eaa9adfb5f13a7378c7f3195c6905b0ec2be757fb545cffa98245",
        "witness.bin": "f71fdc9adfb268d1848c3adb1261977ac8c8d1973c42f672e9e2d06ae048ef8f",
        "witness.txt": "95b9d519b46df34e59527fefa429df4f2ca53cdaaa665ef96206b4d548442d4d",
        "report.txt": "f6c4ded05e2511e5711b986109543c555cb35acb40e2bdb5de27bb085fc5e68a",
        "queue": "85c41648005236ebc89cd0acb936b3c1545f893d65670c2d62a3fa85efe88a2e",
    },
    "modpow_unsafe": {
        "stats.csv": "31ce1813fef321ffbdcbb29dfcc12296ce09f4328fb31099ceba3c0451178cc0",
        "witness.bin": "d2016baf9be2df93dffcb9f98ed0b331e635f7ea22bd7feaa062a30d56a3bada",
        "witness.txt": "04aa5a89e96b193181af425970796af78fab3d9173a0c558c67e8fe511a431ad",
        "report.txt": "a263c26baef9384faa496bb57f7eb08e5599647c848af968c27161f9776721ba",
        "queue": "d763818910a96ded41138fbb9634125308e5edce8615ace80e9a0db5154e403d",
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
    "stats.csv": "06f3b8f5b1b0ba1624abf12a37d6363faa0cd02ec2f16b57f81c4f9e5e0ccef9",
    "witness.bin": "7d450465ceb49083708a6970827f0e0b116ed285072a95b451e55f583f56da8d",
    "witness.txt": "60b9da33331bf8124fb33e2cbe3334971d249531ec3820d8711acab9da067e44",
    "report.txt": "ad42ebd78257c14ba069e090bc7d620fff753148a089674279462a7ffd832e4b",
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

    def record(result):
        results.append(result)
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
