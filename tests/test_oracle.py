"""Ground-truth oracles: frozen exhaustive maxima over tiny domains,
structured witness enumeration, refusal paths, and mode agreement."""

import pytest

from deltafuzz.campaign import CampaignConfig, replay, run_campaign
from deltafuzz.driver import (
    CHARSETS,
    ConfigError,
    Constraints,
    DriverSpec,
    Statistic,
    get_driver,
)
from deltafuzz.oracle import (
    DEFAULT_BUDGET,
    DomainTooLarge,
    exhaustive_max_delta,
    structured_max_delta,
)

# True maxima over the full binary-alphabet domain with 2-byte segments,
# confirmed by enumeration; any code change that shifts a cost model will
# show up here first.
BINARY_L2_MAX = {
    "pwcheck_unsafe": 2,
    "jetty_eq_unsafe": 2,
    "pad_unsafe": 2,
    "modpow_unsafe": 20,
    "array_unsafe": 2,
    "loop_and_branch_unsafe": 514,
    "sanity_unsafe": 514,
    "straightline_unsafe": 8,
    "crime_compress": 1,
    "login_unsafe": 14,
}

SAFE_DRIVERS = (
    "pwcheck_safe",
    "jetty_eq_safe",
    "pad_safe",
    "modpow_safe",
    "array_safe",
    "loop_and_branch_safe",
    "sanity_safe",
    "straightline_safe",
    "login_safe",
)


@pytest.mark.parametrize("name,expected", sorted(BINARY_L2_MAX.items()))
def test_exhaustive_binary_two_bytes_unsafe(name, expected):
    res = exhaustive_max_delta(get_driver(name), 2, charset="binary")
    assert res.max_delta == expected
    assert res.mode == "exhaustive"
    assert res.charset == "binary"
    assert res.segment_len == 2


@pytest.mark.parametrize("name", SAFE_DRIVERS)
def test_exhaustive_binary_two_bytes_safe(name):
    res = exhaustive_max_delta(get_driver(name), 2, charset="binary")
    assert res.max_delta == 0


def test_exhaustive_execution_count_and_witness():
    res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="binary")
    # one run per (pub, sec) pair: (2**2)**2
    assert res.executions == 16
    assert len(res.witness) == 6
    pub, sec1, sec2 = res.decoded
    assert len(pub) == len(sec1) == len(sec2) == 2
    # the witness replays to the reported delta through the public interface
    rep = replay("pwcheck_unsafe", res.witness, segment_cap=2, charset="binary")
    assert rep.delta_of("ops") == res.max_delta


STRUCTURED_CASES = [
    ("pwcheck_unsafe", 16, None, 30),  # mismatch at last byte vs at first
    ("jetty_eq_unsafe", 2, None, 2),
    ("jetty_eq_unsafe", 4, None, 4),
    ("jetty_eq_unsafe", 8, None, 8),
    ("pad_unsafe", 8, None, 8),
    ("modpow_unsafe", 8, "binary", 122),
    ("modpow_unsafe", 1, None, 24),
    ("straightline_unsafe", 4, None, 8),
]


@pytest.mark.parametrize("name,length,charset,expected", STRUCTURED_CASES)
def test_structured_maxima(name, length, charset, expected):
    res = structured_max_delta(get_driver(name), length, charset=charset)
    assert res.max_delta == expected
    assert res.mode == "structured"
    assert res.statistic == get_driver(name).statistic.name
    assert res.executions >= 2


@pytest.mark.parametrize("name,expected", sorted(BINARY_L2_MAX.items()))
def test_structured_agrees_with_exhaustive_where_declared(name, expected):
    spec = get_driver(name)
    if spec.statistic is None:
        pytest.skip("no declared statistic")
    res = structured_max_delta(spec, 2, charset="binary")
    assert res.max_delta == expected


def test_structured_agrees_with_exhaustive_byte_one():
    """modpow over all 1-byte exponents: the structured witnesses hit the
    same extremes the full 256**2 sweep finds."""
    spec = get_driver("modpow_unsafe")
    full = exhaustive_max_delta(spec, 1, budget=DEFAULT_BUDGET)
    shaped = structured_max_delta(spec, 1)
    assert full.max_delta == shaped.max_delta == 24
    assert full.executions == 256 * 256


@pytest.mark.parametrize("name", sorted(BINARY_L2_MAX) + list(SAFE_DRIVERS))
def test_structured_never_exceeds_exhaustive(name):
    spec = get_driver(name)
    if spec.statistic is None:
        pytest.skip("no declared statistic")
    full = exhaustive_max_delta(spec, 1, charset="binary")
    shaped = structured_max_delta(spec, 1, charset="binary")
    assert shaped.max_delta <= full.max_delta


def test_single_symbol_alphabet_has_no_leak(monkeypatch):
    # only one possible secret value per position, so delta is identically 0
    monkeypatch.setitem(CHARSETS, "single", b"\x2a")
    res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="single")
    assert res.max_delta == 0
    assert res.executions == 1


def test_budget_refusal_names_the_cardinality():
    with pytest.raises(DomainTooLarge, match="16777216"):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 1, budget=100)
    # 2**24 sits exactly at the default budget and is allowed
    assert 256 ** 3 == DEFAULT_BUDGET


def test_budget_refusal_binary_long_segments():
    with pytest.raises(DomainTooLarge):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 13, charset="binary")


def test_segment_length_must_be_positive():
    with pytest.raises(ConfigError):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 0, charset="binary")


def test_structured_requires_a_statistic():
    with pytest.raises(ConfigError, match="no cost statistic"):
        structured_max_delta(get_driver("array_unsafe"), 2)


def test_structured_refuses_inexpressible_alphabet():
    # pad witnesses need a NUL terminator; "lower" has none
    with pytest.raises(ConfigError):
        structured_max_delta(get_driver("pad_unsafe"), 4, charset="lower")


def test_structured_rejects_wrong_length_witnesses():
    def bad_witnesses(segment_len, alphabet):
        yield b"\x00", b"\x00", b"\x00"  # always length 1

    spec = DriverSpec(
        name="local_badlen",
        target=lambda pub, sec, meter: meter.tick(1),
        statistic=Statistic(name="bad", witnesses=bad_witnesses),
        constraints=Constraints(max_segment_len=4, charset="binary"),
    )
    with pytest.raises(ConfigError, match="wrong length"):
        structured_max_delta(spec, 2)


def test_structured_rejects_empty_witness_stream():
    def no_witnesses(segment_len, alphabet):
        return iter(())

    spec = DriverSpec(
        name="local_empty",
        target=lambda pub, sec, meter: meter.tick(1),
        statistic=Statistic(name="empty", witnesses=no_witnesses),
    )
    with pytest.raises(ConfigError, match="no witnesses"):
        structured_max_delta(spec, 1, charset="binary")


def test_nondeterministic_cost_is_reported():
    calls = [0]

    def flaky(pub, sec, meter):
        calls[0] += 1
        meter.tick(calls[0])

    spec = DriverSpec(name="local_flaky", target=flaky)
    with pytest.raises(RuntimeError, match="nondeterministic"):
        exhaustive_max_delta(spec, 1, charset="binary")


def test_oracle_and_fuzzer_agree_on_straightline(tmp_path):
    """A short paced campaign reaches exactly the exhaustive maximum."""
    truth = exhaustive_max_delta(
        get_driver("straightline_unsafe"), 1, charset="binary"
    ).max_delta
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "a").write_bytes(b"\x00\x00\x00")
    report = run_campaign(
        CampaignConfig(
            driver_name="straightline_unsafe",
            seed_dir=str(seeds),
            out_dir=str(tmp_path / "out"),
            timeout_seconds=30.0,
            segment_cap=1,
            charset="binary",
            pace=1000,
            stop_on_delta=truth,
        )
    )
    assert report.max_delta == truth == 8
    assert report.stop_reason == "delta-target-reached"
