"""Golden paced campaigns: the bytes every artifact must keep.

A paced campaign is a pure function of (config, seeds, rng_seed), so its
stats.csv, witness files, report and queue filenames can be pinned by hash.
A change that does not mean to alter the search must leave every digest
here untouched; one that does changes them on purpose and says so.
"""

import hashlib
import os

import pytest

from deltafuzz import campaign as campaign_module
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
    # the 316-mutant flip walk of a 12-byte seed, then havoc and splice
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
        "stats.csv": "544229480d854dc7548cb1960634ac376a04f97a56f1d49c477b2131202f2766",
        "witness.bin": "6483b7cd4db64f06801b5fd20cfab7a87d8b204a2157870828310a9fa5738db0",
        "witness.txt": "e564a4c203b1d571413af668d058688b58849749d91d4f9e42df9065ae9af19c",
        "report.txt": "ffccd658c0778a6e4cdedddc3451751393c6c6ff8f913e3a3975bc20a54e07d2",
        "queue": "6938777f81a7a221003bc76485cf3713b726955a86f9de687c8291eed9ca97f6",
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


def run_paced(tmp_path, fields, seed, pace=1000):
    seed_dir = tmp_path / "seeds"
    seed_dir.mkdir(parents=True)
    (seed_dir / "seed").write_bytes(seed)
    out_dir = tmp_path / "out"
    config = CampaignConfig(
        seed_dir=str(seed_dir), out_dir=str(out_dir), pace=pace, **fields
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
    "stats.csv": "34aad1f3dc5ae7d9befc8ec9e0fb921a97f7a38e3d8641d62693c0eeaae8a330",
    "witness.bin": "7d450465ceb49083708a6970827f0e0b116ed285072a95b451e55f583f56da8d",
    "witness.txt": "60b9da33331bf8124fb33e2cbe3334971d249531ec3820d8711acab9da067e44",
    "report.txt": "bcbcd8266b5ee9236df8cb3b796cc536eee55e495604f0d029ad2ad9b97bc11a",
    "queue": "3e3430f2498053c7433bea49324a5f0860cb3454ee1dc59c1b0e4ede47608069",
}


@pytest.fixture
def counting_driver(monkeypatch):
    monkeypatch.setitem(driver_module._REGISTRY, COUNTING.name, COUNTING)
    TARGET_CALLS.clear()
    yield COUNTING
    TARGET_CALLS.clear()


def test_repeated_decodings_skip_the_target_but_count(
    tmp_path, monkeypatch, counting_driver, scheduled
):
    traced = []  # (result, target calls) of each traced evaluation

    def record(spec, data, cov_map=None):
        before = len(TARGET_CALLS)
        result = driver_module.run_driver(spec, data, cov_map)
        if cov_map is not None:
            traced.append((result, len(TARGET_CALLS) - before))
        return result

    monkeypatch.setattr("deltafuzz.campaign.run_driver", record)
    report, out_dir = run_paced(
        tmp_path,
        dict(driver_name=COUNTING.name, rng_seed=5, timeout_seconds=2.0),
        COUNTING_SEED,
    )
    target_calls = len(TARGET_CALLS)
    assert campaign_digest(out_dir) == COUNTING_GOLDEN

    # every evaluation, counted from the schedule: a traced one as it ran, a
    # flip of dropped bytes by a replay of its parent, with no target call
    live = iter(traced)
    evaluations = [
        (driver_module.run_driver(COUNTING, data), 0) if dead else next(live)
        for data, dead in scheduled.evaluated(report.executions)
    ]
    assert next(live, None) is None
    assert len(evaluations) > len(traced)  # some came in dead runs
    assert target_calls < 2 * report.executions

    results = [result for result, _ in evaluations]
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
    for result, n in evaluations:
        if result.outcome == OUTCOME_HARNESS_ERROR and n < 2 and result.decoded not in seen:
            served_in_new_triples += 1
        seen.add(result.decoded)
    assert served_in_new_triples > 0


# --- flips of dropped bytes -------------------------------------------------------


def always_raises(pub, sec, meter):
    meter.tick(1)
    raise ValueError("refused")


RAISING = DriverSpec(
    name="golden_always_raises", target=always_raises, constraints=Constraints(max_segment_len=1)
)

# name -> (CampaignConfig fields, seed, pace, whether the stop falls in a dead run)
DEAD_RUN_CAMPAIGNS = {
    # stops at evaluation 100, inside bitflip_1's first dead run (34-129)
    "pad_unsafe_pace100": (
        dict(driver_name="pad_unsafe", segment_cap=4, rng_seed=2, timeout_seconds=1.0),
        bytes(48), 100, True,
    ),
    # the same at pace 1: a stats row at every evaluation of a run
    "pad_unsafe_pace1": (
        dict(driver_name="pad_unsafe", segment_cap=4, rng_seed=2, timeout_seconds=100.0),
        bytes(48), 1, True,
    ),
    "jetty_eq_unsafe_cap4": (
        dict(driver_name="jetty_eq_unsafe", segment_cap=4, rng_seed=1, timeout_seconds=2.0),
        bytes(48), 1000, False,
    ),
    # the golden seed with the stage on; it, too, stops inside a dead run
    "modpow_unsafe_staged": (
        dict(driver_name="modpow_unsafe", rng_seed=3, timeout_seconds=1.0), MODPOW_SEED, 1000, True,
    ),
    # harness errors inside dead runs
    "always_raises_cap1": (
        dict(driver_name=RAISING.name, rng_seed=7, timeout_seconds=1.0), bytes(12), 500, False,
    ),
}


@pytest.mark.parametrize("name", sorted(DEAD_RUN_CAMPAIGNS))
def test_dead_runs_change_no_artifact(tmp_path, monkeypatch, scheduled, name):
    """A campaign that counts each run of flips of dropped bytes in bulk
    writes what it writes when it evaluates every flip (the stage told to
    ignore its mask), and reports the same in every field."""
    monkeypatch.setitem(driver_module._REGISTRY, RAISING.name, RAISING)
    fields, seed, pace, stops_in_dead_run = DEAD_RUN_CAMPAIGNS[name]
    report, out_dir = run_paced(tmp_path / "bulk", fields, seed, pace)
    evaluated = scheduled.evaluated(report.executions)
    assert any(dead for _, dead in evaluated)
    assert evaluated[-1][1] == stops_in_dead_run
    taken = len(scheduled)

    real = campaign_module.deterministic_stage
    monkeypatch.setattr(campaign_module, "deterministic_stage", lambda data, live=-1: real(data))
    every_flip, every_flip_dir = run_paced(tmp_path / "every", fields, seed, pace)
    assert not any(dead for _, dead in scheduled[taken:])
    assert campaign_digest(out_dir) == campaign_digest(every_flip_dir)
    assert report == every_flip
    if name.startswith("always_raises"):
        assert report.harness_error_count > 0


# --- stage executions run ahead in the campaign's child ---------------------------

# soak-style seeds: crime_compress's 4-symbol pattern, and a 63-bit exponent
# as both modpow_unsafe secrets between public and filler bytes
CRIME_SEED = b"ddacddcdcbbcbacbcaacdacdcbddcaaadadcbcabbbbdaacd".translate(
    bytes.maketrans(b"abcd", b"\x1e\x63\xb4\xd9")
)
MODPOW_SOAK_SEED = b"\x07\x3c\x5e\xa1" + bytes(range(12)) + (b"\x55" * 8 + bytes(8)) * 2

# name -> (CampaignConfig fields, seed, pace)
AHEAD_CAMPAIGNS = {
    "crime_compress": (
        dict(driver_name="crime_compress", rng_seed=1, timeout_seconds=1.0), CRIME_SEED, 1000,
    ),
    "modpow_unsafe_soak": (
        dict(driver_name="modpow_unsafe", rng_seed=2, timeout_seconds=1.0), MODPOW_SOAK_SEED, 1000,
    ),
    "modpow_unsafe_golden": (
        dict(driver_name="modpow_unsafe", rng_seed=3, timeout_seconds=1.0), MODPOW_SEED, 1000,
    ),
    # harness errors, with their notes, come through the child
    "always_raises_cap1": (
        dict(driver_name=RAISING.name, rng_seed=7, timeout_seconds=1.0), bytes(12), 500,
    ),
}


@pytest.mark.parametrize("name", sorted(AHEAD_CAMPAIGNS))
def test_stage_executions_run_ahead_change_no_artifact(tmp_path, monkeypatch, forked, name):
    """A campaign whose forked child runs stage executions ahead from the
    first stage mutant on writes what a campaign in one process writes, and
    reports the same in every field."""
    monkeypatch.setitem(driver_module._REGISTRY, RAISING.name, RAISING)
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 0)
    served = []  # each pair of runs the child sent
    real = campaign_module._remember
    monkeypatch.setattr(
        campaign_module, "_remember", lambda *args: served.append(args[-1]) or real(*args)
    )
    fields, seed, pace = AHEAD_CAMPAIGNS[name]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(campaign_module, "fork_cpus", lambda: cpus)
        report, out_dir = run_paced(tmp_path / str(cpus), fields, seed, pace)
        runs.append((report, campaign_digest(out_dir)))
    assert runs[0] == runs[1]
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):  # no child outlived its campaign
        os.waitpid(-1, os.WNOHANG)
    taken = [run for pair in served for run in pair if run is not None]
    assert taken  # the child ran executions the campaign took
    if name.startswith("always_raises"):
        assert report.harness_error_count > 0
        assert {run[2] for run in taken} == {"ValueError: refused"}


# AHEAD_CAMPAIGNS name -> (pace, traced evaluations before each fork)
FORK_POINTS = {
    # about 400 probes an execution: forked at the start of the seed's
    # stage, with the seed's evaluation the only one before it
    "crime_compress": (1000, [1]),
    # about 164 probes an execution: a soak job's 500 evaluations, all in the
    # seed's stage, fork nothing
    "modpow_unsafe_soak": (500, []),
}


@pytest.mark.parametrize("name", sorted(FORK_POINTS))
def test_the_child_helps_a_costly_stage_from_its_first_mutant(tmp_path, monkeypatch, forked, name):
    """With the probe total out of reach, a campaign whose executions average
    STAGE_FORK_MEAN probes or more forks its child at the start of its first
    stage, and one whose executions average fewer forks none; either writes
    what a campaign in one process writes."""
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 10**12)
    evaluated, at_fork = [], []
    real_run, real_fork = campaign_module.run_driver, campaign_module.fork_child

    def run_driver(spec, data, cov_map=None):
        if cov_map is not None:
            evaluated.append(data)
        return real_run(spec, data, cov_map)

    monkeypatch.setattr(campaign_module, "run_driver", run_driver)
    monkeypatch.setattr(
        campaign_module, "fork_child", lambda serve: at_fork.append(len(evaluated)) or real_fork(serve)
    )
    pace, forks_after = FORK_POINTS[name]
    fields, seed, _ = AHEAD_CAMPAIGNS[name]
    runs = []
    for cpus in (2, 1):
        evaluated.clear()
        monkeypatch.setattr(campaign_module, "fork_cpus", lambda: cpus)
        report, out_dir = run_paced(tmp_path / str(cpus), fields, seed, pace)
        runs.append((report, campaign_digest(out_dir)))
    assert runs[0] == runs[1]
    assert at_fork == forks_after
    assert len(forked) == len(forks_after)
    assert report.executions == pace  # a timeout of 1 s: all in the seed's stage
    with pytest.raises(ChildProcessError):  # no child outlived its campaign
        os.waitpid(-1, os.WNOHANG)


def test_the_child_takes_a_stage_whole_or_not_at_all(tmp_path, monkeypatch, forked):
    """The fork rule is settled once per stage, before its first mutant. A
    soak-style modpow_unsafe campaign (about 164 probes an execution) passes
    a probe total of 2,000 inside its seed's stage, which stays in this
    process whole; the child is forked at the seed's first havoc mutant, and
    it runs a later entry's stage. The campaign writes what a campaign in
    one process writes."""
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 2000)
    requests = []  # (kind, data) of each request to the child
    real = campaign_module.send
    monkeypatch.setattr(
        campaign_module, "send", lambda pipe, message: requests.append(message[:2]) or real(pipe, message)
    )
    fields = dict(driver_name="modpow_unsafe", rng_seed=2, timeout_seconds=3.0)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(campaign_module, "fork_cpus", lambda: cpus)
        report, out_dir = run_paced(tmp_path / str(cpus), fields, MODPOW_SOAK_SEED)
        runs.append((report, campaign_digest(out_dir)))
    assert runs[0] == runs[1]
    assert len(forked) == 1
    assert requests[0] == ("havoc", MODPOW_SOAK_SEED)
    assert any(kind == "stage" and data != MODPOW_SOAK_SEED for kind, data in requests)
    with pytest.raises(ChildProcessError):  # no child outlived its campaign
        os.waitpid(-1, os.WNOHANG)


def test_memos_that_clear_often_change_no_artifact(tmp_path, monkeypatch, forked):
    """driver.make_room bounds the child's memo and the campaign's by one
    rule, but each clears at its own insertions. With MEMO_ENTRIES at 4 both
    clear many times, and the campaign still writes what a campaign in one
    process writes."""
    monkeypatch.setattr(driver_module, "MEMO_ENTRIES", 4)
    taken = []  # the runs the campaign took from its child
    real = campaign_module._remember
    monkeypatch.setattr(
        campaign_module, "_remember",
        lambda memo, triple, pair: taken.extend(filter(None, pair)) or real(memo, triple, pair),
    )
    fields, seed, pace = AHEAD_CAMPAIGNS["crime_compress"]
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(campaign_module, "fork_cpus", lambda: cpus)
        report, out_dir = run_paced(tmp_path / str(cpus), fields, seed, pace)
        runs.append((report, campaign_digest(out_dir)))
    assert runs[0] == runs[1]
    assert len(forked) == 1
    assert len(taken) > 10 * 4  # many more runs than either memo holds
    with pytest.raises(ChildProcessError):  # no child outlived its campaign
        os.waitpid(-1, os.WNOHANG)
