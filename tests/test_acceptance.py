"""End-to-end guarantees, each checked at its stated budget and tolerance.

One test per guarantee; the first docstring line of each is echoed with its
outcome in the terminal summary. Campaigns that need a wall-clock budget run
in parallel worker processes so their timeouts overlap instead of stacking.
"""

import itertools
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from deltafuzz.benchmarks.crime import lz77_compress, lz77_decompress
from deltafuzz.benchmarks.micro import wraps_to_negative
from deltafuzz.campaign import CampaignConfig, replay, run_campaign
from deltafuzz.cli import main
from deltafuzz.coverage import bucketize
from deltafuzz.driver import driver_names, get_driver
from deltafuzz.mutation import deterministic_stage, havoc
from deltafuzz.oracle import exhaustive_max_delta, structured_max_delta

def seed_dir(root, data, name="seed"):
    d = root / "seeds"
    d.mkdir(exist_ok=True)
    (d / name).write_bytes(data)
    return str(d)


def run_all(configs):
    """Run campaigns in worker processes; their wall budgets tick together."""
    with ProcessPoolExecutor(max_workers=len(configs)) as pool:
        return list(pool.map(run_campaign, configs))


@pytest.fixture(scope="module")
def pwcheck_campaigns(tmp_path_factory):
    """Five wall-clock campaigns against the early-exit password check,
    distinct rng seeds, each allowed 5 minutes but stopping at the known
    maximum. Shared by the detection and replay tests."""
    root = tmp_path_factory.mktemp("pwcheck_runs")
    truth = structured_max_delta(get_driver("pwcheck_unsafe"), 16).max_delta
    seeds = seed_dir(root, b"\x00" * 48)
    configs = [
        CampaignConfig(
            driver_name="pwcheck_unsafe",
            seed_dir=seeds,
            out_dir=str(root / f"run{s}"),
            timeout_seconds=300.0,
            rng_seed=s,
            stop_on_delta=truth,
        )
        for s in range(1, 6)
    ]
    return truth, run_all(configs)


def test_safe_variants_show_no_difference(capsys):
    """Safe variants show max delta 0 on exhaustive two-byte binary domains in under 10 s."""
    started = time.monotonic()
    for driver in ("pwcheck_safe", "pad_safe", "modpow_safe", "jetty_eq_safe"):
        code = main(
            ["oracle", "--driver", driver, "--len", "2", "--alphabet", "binary"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["max_delta"] == 0, driver
        assert payload["mode"] == "exhaustive"
    assert time.monotonic() - started < 10.0


def test_campaigns_reach_password_check_ground_truth(pwcheck_campaigns):
    """At least 4 of 5 password-check campaigns reach the ground-truth maximum; first positive under 60 s in all 5."""
    truth, reports = pwcheck_campaigns
    assert truth == 30  # mismatch at the last byte vs at the first
    assert all(r.max_delta <= truth for r in reports)
    assert sum(r.max_delta == truth for r in reports) >= 4
    for r in reports:
        assert r.first_positive_at is not None
        assert r.first_positive_at < 60.0


# Every decoded triple of 6-byte inputs at segment cap 2 over the binary
# charset: 64 with 2-byte segments and 8 with 1-byte ones (inputs of 3-5 bytes).
BINARY_TRIPLES = {
    triple
    for n in (1, 2)
    for triple in itertools.product(map(bytes, itertools.product(b"\x00\x01", repeat=n)), repeat=3)
}
FULL_DOMAIN_RNG_SEEDS = (1, 2, 3)
FULL_DOMAIN_BUDGET = 20_000  # evaluations; rng seeds 1-5 cover the domain in 2,464-9,926


def test_campaign_high_scores_bounded_by_exhaustive_truth(tmp_path):
    """On two-byte binary domains, paced campaigns on 3 rng seeds evaluate all 72 decoded triples and reach the exhaustive maximum for every driver."""
    assert len(BINARY_TRIPLES) == 72
    seeds = seed_dir(tmp_path, b"\x00" * 6)
    for name in driver_names():
        spec = get_driver(name)
        truth = max(exhaustive_max_delta(spec, n, charset="binary").max_delta for n in (1, 2))
        for rng_seed in FULL_DOMAIN_RNG_SEEDS:
            evaluated = set()

            def record(result, evaluated=evaluated):
                """Stop once every triple of the domain has been evaluated."""
                if result.decoded is not None:
                    evaluated.add(result.decoded)
                return len(evaluated) == len(BINARY_TRIPLES)

            report = run_campaign(
                CampaignConfig(
                    driver_name=name,
                    seed_dir=seeds,
                    out_dir=str(tmp_path / f"{name}-{rng_seed}"),
                    timeout_seconds=FULL_DOMAIN_BUDGET / 1000,
                    max_input_len=6,
                    segment_cap=2,
                    charset="binary",
                    rng_seed=rng_seed,
                    pace=1000,
                    stop_condition=record,
                )
            )
            assert evaluated == BINARY_TRIPLES, (name, rng_seed, report.executions)
            assert report.max_delta == truth, (name, rng_seed)


def test_leak_witness_is_clean_on_repaired_variant(pwcheck_campaigns):
    """The leaking password-check witness replays to delta 0 on the repaired variant."""
    truth, reports = pwcheck_campaigns
    best = max(reports, key=lambda r: r.max_delta)
    assert best.max_delta > 0
    again = replay("pwcheck_unsafe", best.witness_data)
    assert again.delta_of("ops") == best.max_delta
    fixed = replay("pwcheck_safe", best.witness_data)
    assert fixed.delta_of("ops") == 0


def test_compare_gap_scales_with_length_and_repair_closes_it():
    """The leaky fold's delta grows strictly with segment length; the constant-time fold stays at 0."""
    leaky = get_driver("jetty_eq_unsafe")
    const = get_driver("jetty_eq_safe")

    gaps = [structured_max_delta(leaky, n).max_delta for n in (2, 4, 8)]
    assert gaps[0] > 0
    assert gaps == sorted(set(gaps))  # strictly increasing
    assert structured_max_delta(leaky, 4).max_delta > 0

    for n in (2, 4, 8):
        assert structured_max_delta(const, n).max_delta == 0
    # independent cross-checks on fully enumerable domains
    assert exhaustive_max_delta(leaky, 2, charset="binary").max_delta == gaps[0]
    assert exhaustive_max_delta(const, 2, charset="binary").max_delta == 0


def test_wrap_window_cost_collapse_is_found(tmp_path):
    """At least 3 of 5 campaigns catch the wrapping-guard cost collapse, with a secret that wraps negative."""
    seeds = seed_dir(tmp_path, b"\xff\xff\x00\x00" + b"\x00" * 8)
    configs = [
        CampaignConfig(
            driver_name="loop_and_branch_safe",
            seed_dir=seeds,
            out_dir=str(tmp_path / f"run{s}"),
            timeout_seconds=600.0,
            max_input_len=12,
            rng_seed=s,
            stop_on_delta=1,
        )
        for s in range(1, 6)
    ]
    reports = run_all(configs)
    found = [r for r in reports if r.max_delta > 0]
    assert len(found) >= 3
    for r in found:
        pub, sec1, sec2 = r.witness_decoded
        # exactly one secret falls in the wrap window; that is the collapse
        assert wraps_to_negative(sec1) != wraps_to_negative(sec2)
        assert replay("loop_and_branch_safe", r.witness_data).delta_of("ops") == (
            r.max_delta
        )


def shares_four_byte_substring(pub, sec):
    return any(sec[i : i + 4] in pub for i in range(len(sec) - 3))


def test_response_size_channel_detects_shared_substring(tmp_path):
    """The compressed-response campaign finds a secret sharing a 4+ byte substring with the public input."""
    captured = []

    def sharing_witness(result):
        if result.outcome != "ok" or result.delta.response_bytes <= 0:
            return False
        pub, sec1, sec2 = result.decoded
        if shares_four_byte_substring(pub, sec1) == shares_four_byte_substring(
            pub, sec2
        ):
            return False
        captured.append(result)
        return True

    report = run_campaign(
        CampaignConfig(
            driver_name="crime_compress",
            seed_dir=seed_dir(tmp_path, bytes(range(48))),
            out_dir=str(tmp_path / "out"),
            timeout_seconds=300.0,
            rng_seed=5,
            stop_condition=sharing_witness,
        )
    )
    assert report.stop_reason == "stop-condition"
    result = captured[0]
    pub, sec1, sec2 = result.decoded
    assert shares_four_byte_substring(pub, sec1) != shares_four_byte_substring(
        pub, sec2
    )
    # the observable really is the compressed size: recompute both responses
    size1 = len(lz77_compress(pub + sec1))
    size2 = len(lz77_compress(pub + sec2))
    assert abs(size1 - size2) == result.delta.response_bytes
    assert result.delta.response_bytes > 0


def test_identical_configs_reproduce_artifacts_exactly(tmp_path):
    """Two campaigns with identical config and rng seed write byte-identical stats and witness files."""
    seeds = seed_dir(tmp_path, b"\x00" * 48)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_campaign(
            CampaignConfig(
                driver_name="pwcheck_unsafe",
                seed_dir=seeds,
                out_dir=str(out),
                timeout_seconds=5.0,
                rng_seed=42,
                pace=1000,
            )
        )
        outs.append(out)
    for name in ("stats.csv", "witness.bin", "witness.txt", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def closed_form_mutant_count(length):
    """Deterministic-stage total for an input with no skippable no-ops."""
    bitflips = (8 * length) + (8 * length - 1) + (8 * length - 3)
    byteflips = length + (length - 1) + (length - 3)
    arith = 70 * (length + (length - 1) + (length - 3))
    interesting = 9 * length + 19 * (length - 1) + 27 * (length - 3)
    return bitflips + byteflips + arith + interesting


def reference_bucket(raw):
    if raw <= 3:
        return raw
    if raw <= 7:
        return 4
    if raw <= 15:
        return 5
    if raw <= 31:
        return 6
    if raw <= 127:
        return 7
    return 8


def test_mutation_engine_bounds_and_closed_forms():
    """100k havoc outputs stay within length bounds; stage counts and hit-count buckets match their closed forms."""
    rng = random.Random(9)
    pool = [rng.randbytes(rng.randint(1, 48)) for _ in range(64)]
    for i in range(100_000):
        out = havoc(pool[i % len(pool)], 48, rng)
        assert 1 <= len(out) <= 48

    for length in (4, 5, 8, 16, 32):
        data = bytes([0x5A]) * length  # no byte matches an interesting value
        produced = sum(1 for _ in deterministic_stage(data))
        assert produced == closed_form_mutant_count(length), length

    for raw in range(1025):
        assert bucketize(raw) == reference_bucket(raw), raw


def test_compressor_round_trips_random_buffers():
    """The compressor inverts exactly on 1000 random buffers up to 1 KiB."""
    rng = random.Random(0)
    for i in range(1000):
        n = rng.randint(0, 1024)
        if i % 2:
            data = rng.randbytes(n)  # mostly literals
        else:
            data = bytes(rng.choice(b"\x00\x01\x02\x03") for _ in range(n))
        assert lz77_decompress(lz77_compress(data)) == data
