"""Ground-truth oracles: frozen exhaustive maxima over tiny domains,
structured witness enumeration, refusal paths, mode agreement, and the
exhaustive sweep split over forked children."""

import os
import signal
import threading
from itertools import product

import pytest

from deltafuzz import oracle as oracle_module
from deltafuzz.campaign import CampaignConfig, replay, run_campaign
from deltafuzz.driver import (
    CHARSETS,
    ConfigError,
    Constraints,
    DriverSpec,
    Statistic,
    get_driver,
    replay_check,
    run_driver,
    with_domain,
)
from deltafuzz.oracle import (
    DEFAULT_BUDGET,
    _reduce,
    _sweep,
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
    # one counted per (pub, sec) pair, though each runs twice: (2**2)**2
    assert res.executions == 16
    assert len(res.witness) == 6
    pub, sec1, sec2 = res.decoded
    assert len(pub) == len(sec1) == len(sec2) == 2
    # the witness replays to the reported delta through the public interface
    rep = replay("pwcheck_unsafe", res.witness, segment_cap=2, charset="binary")
    assert rep.delta_of("ops") == res.max_delta


# the drivers above that declare a cost statistic, which the structured
# oracle enumerates
DECLARED = [
    name for name in sorted(BINARY_L2_MAX) + list(SAFE_DRIVERS) if get_driver(name).statistic
]

STRUCTURED_CASES = [
    ("pwcheck_unsafe", 16, None, 30),  # mismatch at last byte vs at first
    ("jetty_eq_unsafe", 2, None, 2),
    ("jetty_eq_unsafe", 4, None, 4),
    ("jetty_eq_unsafe", 8, None, 8),
    ("pad_unsafe", 8, None, 8),
    ("modpow_unsafe", 8, "binary", 122),
    ("modpow_unsafe", 8, None, 192),
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


@pytest.mark.parametrize(
    "name,expected", [(name, BINARY_L2_MAX[name]) for name in DECLARED if name in BINARY_L2_MAX]
)
def test_structured_agrees_with_exhaustive_where_declared(name, expected):
    res = structured_max_delta(get_driver(name), 2, charset="binary")
    assert res.max_delta == expected


def test_structured_agrees_with_exhaustive_byte_one():
    """modpow over all 1-byte exponents: the structured witnesses hit the
    same extremes the full 256**2 sweep finds."""
    spec = get_driver("modpow_unsafe")
    full = exhaustive_max_delta(spec, 1, budget=DEFAULT_BUDGET)
    shaped = structured_max_delta(spec, 1)
    assert full.max_delta == shaped.max_delta == 24
    assert full.executions == 256 * 256


@pytest.mark.parametrize("name", DECLARED)
def test_structured_never_exceeds_exhaustive(name):
    spec = get_driver(name)
    full = exhaustive_max_delta(spec, 1, charset="binary")
    shaped = structured_max_delta(spec, 1, charset="binary")
    assert shaped.max_delta <= full.max_delta


def ordered_pairs_max(aspec, pub, secs):
    """The largest delta over every ordered pair of secs, each secret's cost
    read once through the harness and each pair diffed as the harness does."""
    cost = {sec: run_driver(aspec, pub + sec + sec).cost1 for sec in secs}
    return max(
        cost[sec1].abs_diff(cost[sec2]).of(aspec.cost_dimension)
        for sec1 in secs
        for sec2 in secs
    )


@pytest.mark.parametrize("name", DECLARED)
def test_structured_reduction_equals_the_ordered_pairs_maximum(name):
    """The reduction over the secrets finds the maximum over all ordered pairs of them,
    at caps 1-8 and the driver's own cap, wherever the statistic fits."""
    spec = get_driver(name)
    for cap in sorted({*range(1, 9), spec.constraints.max_segment_len}):
        for charset in ("byte", "binary"):
            aspec = with_domain(spec, segment_cap=cap, charset=charset)
            symbols = aspec.constraints.alphabet()
            try:
                pub, secs = spec.statistic.witnesses(cap, symbols)
            except ConfigError:  # binary cannot express it
                with pytest.raises(ConfigError):
                    structured_max_delta(spec, cap, charset=charset)
                continue
            pub = bytes(symbols.index(b) for b in pub)
            secs = [bytes(symbols.index(b) for b in sec) for sec in secs]
            res = structured_max_delta(spec, cap, charset=charset)
            assert res.max_delta == ordered_pairs_max(aspec, pub, secs), (cap, charset)
            assert res.executions == len(secs)
            rep = replay_check(aspec, res.witness, res.max_delta)
            dim = aspec.cost_dimension
            assert rep.cost1.of(dim) >= rep.cost2.of(dim)  # the dearest secret first


def test_single_symbol_alphabet_has_no_leak(monkeypatch):
    # only one possible secret value per position, so delta is identically 0
    monkeypatch.setitem(CHARSETS, "single", b"\x2a")
    res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="single")
    assert res.max_delta == 0
    assert res.executions == 1


def test_budget_refusal_names_the_cardinality():
    with pytest.raises(ConfigError, match=r"256\*\*2 = 65536 \(pub, secret\) pairs"):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 1, budget=100)
    # the budget counts the pairs the sweep runs: 2**4 fits a budget of 16
    res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="binary", budget=16)
    assert res.executions == 16
    with pytest.raises(ConfigError, match=r"2\*\*4 = 16 \(pub, secret\) pairs"):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="binary", budget=15)


def test_lower_length_two_runs_under_the_default_budget():
    res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="lower")
    assert res.executions == 26**4 == 456976 <= DEFAULT_BUDGET
    assert res.max_delta == 2


@pytest.mark.parametrize("budget", [-5, 0])
def test_budget_below_one_is_refused(budget):
    with pytest.raises(ConfigError, match=r"^budget must be >= 1$"):
        exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, budget=budget)


def test_budget_refusal_binary_long_segments():
    with pytest.raises(ConfigError, match=r"2\*\*26 = 67108864"):
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


def local_statistic(name, witnesses):
    """A cheap driver that declares the given witness function."""
    return DriverSpec(
        name=f"local_{name}",
        target=lambda pub, sec, meter: meter.tick(1),
        statistic=Statistic(name=name, witnesses=witnesses),
        constraints=Constraints(max_segment_len=4, charset="binary"),
    )


def test_structured_rejects_wrong_length_witnesses():
    for pub, secs in [(b"\x00", [b"\x00\x00"]), (b"\x00\x00", [b"\x00\x00", b"\x00"])]:
        spec = local_statistic("bad", lambda segment_len, alphabet: (pub, secs))
        with pytest.raises(ConfigError, match="'bad' produced segments of the wrong length"):
            structured_max_delta(spec, 2)


def test_structured_rejects_a_symbol_outside_the_alphabet():
    # binary has only 0 and 1
    for pub, secs in [(b"\x02", [b"\x00"]), (b"\x00", [b"\x01", b"\x02"])]:
        spec = local_statistic("off", lambda segment_len, alphabet: (pub, secs))
        with pytest.raises(ConfigError, match="symbol outside the alphabet"):
            structured_max_delta(spec, 1)


def test_structured_rejects_empty_witness_stream():
    spec = local_statistic("empty", lambda segment_len, alphabet: (b"\x00" * segment_len, []))
    with pytest.raises(ConfigError, match="'empty' produced no witnesses"):
        structured_max_delta(spec, 1)


def test_nondeterministic_cost_is_reported():
    calls = [0]

    def flaky(pub, sec, meter):
        calls[0] += 1
        meter.tick(calls[0])

    spec = DriverSpec(
        name="local_flaky",
        target=flaky,
        statistic=Statistic("any", lambda segment_len, alphabet: (b"\x00", [b"\x00", b"\x01"])),
    )
    for oracle in (exhaustive_max_delta, structured_max_delta):
        with pytest.raises(RuntimeError, match="nondeterministic"):
            oracle(spec, 1, charset="binary")


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


# --- the sweep split over forked children ---------------------------------------


def set_cpus(monkeypatch, count):
    """The CPU count the sweep sees, and so its number of shares."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPLIT_CASES = [
    ("modpow_unsafe", 2, "binary"),  # the pubs with modulus 0 or 1 are harness errors
    ("crime_compress", 2, "binary"),  # response_bytes
    ("login_unsafe", 2, "binary"),
    ("pwcheck_unsafe", 1, "lower"),
]


@pytest.mark.parametrize("cpus", [2, 3])  # 3 shares of 4 binary pubs are uneven
@pytest.mark.parametrize("name,length,charset", SPLIT_CASES)
def test_a_forked_sweep_equals_an_in_process_one(
    monkeypatch, forked, deadline, name, length, charset, cpus
):
    spec = get_driver(name)
    set_cpus(monkeypatch, 1)
    alone = exhaustive_max_delta(spec, length, charset=charset)
    assert forked == []
    set_cpus(monkeypatch, cpus)
    split = exhaustive_max_delta(spec, length, charset=charset)
    assert len(forked) == cpus - 1
    assert split == alone
    assert_no_child_left()


def test_a_pulled_sweep_of_many_chunks_equals_an_in_process_one(monkeypatch, forked, deadline):
    """More pubs than tokens, so each chunk a worker pulls holds several."""

    def cheap(pub, sec, meter):
        meter.tick(1 + (pub[0] * 7 + pub[1] * 3 + sec[0]) % 11)

    spec = DriverSpec(name="local_cheap", target=cheap)
    pubs = [i.to_bytes(2, "little") for i in range(2500)]
    secs = [b"\x00", b"\x05", b"\x09"]
    alone = _reduce(spec, pubs, secs)
    for cpus in (2, 3):
        forked.clear()
        set_cpus(monkeypatch, cpus)
        assert _sweep(spec, pubs, secs) == alone
        assert len(forked) == cpus - 1
        assert_no_child_left()


@pytest.mark.parametrize("cpus,failing_call", [(2, 1), (3, 1), (3, 2)])
def test_a_fork_that_fails_leaves_its_share_to_the_parent(
    monkeypatch, forked, deadline, cpus, failing_call
):
    """A fork that raises EAGAIN ends the forking; the parent reduces the
    share of every worker not forked, as a one-process sweep would."""
    fork, calls = os.fork, []  # forked's counting fork

    def fork_until_the_system_refuses():
        calls.append(None)
        if len(calls) == failing_call:
            raise BlockingIOError(11, "Resource temporarily unavailable")  # EAGAIN
        return fork()

    aspec = with_domain(get_driver("pwcheck_unsafe"), segment_cap=3, charset="binary")
    pubs = secs = [bytes(p) for p in product(aspec.constraints.alphabet(), repeat=3)]
    monkeypatch.setattr(oracle_module, "fork_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork_until_the_system_refuses)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert _sweep(aspec, pubs, secs) == _reduce(aspec, pubs, secs)
    assert (len(calls), len(forked)) == (failing_call, failing_call - 1)
    assert_no_child_left()
    if fds is not None:  # the failed worker's pipe is closed too
        assert os.listdir("/proc/self/fd") == fds


def harness_reference(aspec, segment_len):
    """max_delta, witness and executions of an exhaustive sweep that runs
    every encoded (pub, sec, sec) input through run_driver."""
    symbols = aspec.constraints.alphabet()
    segments = [bytes(p) for p in product(symbols, repeat=segment_len)]

    def enc(seg):
        return bytes(symbols.index(b) for b in seg)

    dim, best, witness = aspec.cost_dimension, -1, b""
    for pub in segments:
        costs = {}
        for sec in segments:
            res = run_driver(aspec, enc(pub) + enc(sec) + enc(sec))
            assert res.decoded == (pub, sec, sec)
            costs[sec] = res.cost1.of(dim)
        hi, lo = max(costs, key=costs.get), min(costs, key=costs.get)
        if costs[hi] - costs[lo] > best:
            best, witness = costs[hi] - costs[lo], enc(pub) + enc(hi) + enc(lo)
    return best, witness, len(segments) ** 2


@pytest.mark.parametrize(
    "name,length,charset", [("pwcheck_unsafe", 1, "lower"), ("login_unsafe", 2, "binary")]
)
def test_the_decoded_sweep_equals_a_sweep_through_the_harness(name, length, charset):
    res = exhaustive_max_delta(get_driver(name), length, charset=charset)
    aspec = with_domain(get_driver(name), segment_cap=length, charset=charset)
    assert (res.max_delta, res.witness, res.executions) == harness_reference(aspec, length)


def test_modpow_split_case_covers_harness_errors():
    for pub in (b"\x00\x00", b"\x01\x00"):
        rep = replay("modpow_unsafe", pub + b"\x00\x00" * 2, segment_cap=2, charset="binary")
        assert rep.outcome == "harness_error"


def test_nondeterminism_in_a_child_raises_the_same_error(monkeypatch, forked, deadline):
    parent = os.getpid()
    calls = [0]

    def flaky_in_a_child(pub, sec, meter):
        calls[0] += 1
        meter.tick(1 if os.getpid() == parent else calls[0])

    spec = DriverSpec(name="local_child_flaky", target=flaky_in_a_child)
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError) as raised:
        exhaustive_max_delta(spec, 1, charset="binary")
    assert str(raised.value) == (
        "driver 'local_child_flaky' cost is nondeterministic: identical "
        "secrets produced different readings"
    )
    assert len(forked) == 1
    assert_no_child_left()


def test_a_child_that_dies_is_an_error_not_a_hang(monkeypatch, forked, deadline):
    parent = os.getpid()

    def dies_in_a_child(pub, sec, meter):
        if os.getpid() != parent:
            os._exit(7)
        meter.tick(1)

    spec = DriverSpec(name="local_child_dies", target=dies_in_a_child)
    set_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 7"):
        exhaustive_max_delta(spec, 1, charset="binary")
    assert len(forked) == 1
    assert_no_child_left()


def test_a_sweep_worker_ignores_ctrl_c(monkeypatch, forked, deadline):
    """Ctrl-C signals the terminal's whole foreground group; only the
    oracle's process may act on it."""
    parent = os.getpid()

    def interrupts_a_child(pub, sec, meter):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        meter.tick(1 + pub[0] + sec[0])

    spec = DriverSpec(name="local_child_interrupted", target=interrupts_a_child)
    aspec = with_domain(spec, segment_cap=1, charset="binary")
    pubs = secs = [b"\x00", b"\x01"]
    set_cpus(monkeypatch, 2)
    try:
        res = exhaustive_max_delta(spec, 1, charset="binary")
    except KeyboardInterrupt:
        pytest.fail("a SIGINT to a sweep worker interrupted the oracle")
    assert len(forked) == 1
    assert res.max_delta == max(delta for delta, _, _ in _reduce(aspec, pubs, secs))
    assert_no_child_left()


def test_a_threaded_process_sweeps_in_process(monkeypatch, forked):
    set_cpus(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        res = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 2, charset="binary")
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forked == []
    assert res.max_delta == BINARY_L2_MAX["pwcheck_unsafe"]
