"""Campaign orchestration: verdicts, clocks, liveness, reproducibility,
stop conditions, the schedule's round-robin, the output files, the witness
self-check, and havoc made ahead in a forked child."""

import csv
import os
import random
import signal
import tempfile
import threading
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltafuzz import campaign as campaign_module
from deltafuzz import driver as driver_module
from deltafuzz.campaign import (
    NO_PROOF_NOTE,
    STATS_HEADER,
    VERDICT_BELOW_EPSILON,
    VERDICT_LEAK,
    VERDICT_NO_DIFFERENCE,
    CampaignConfig,
    replay,
    run_campaign,
    verdict,
)
from deltafuzz.corpus import FuzzQueue, consider
from deltafuzz.driver import (
    OUTCOME_HARNESS_ERROR,
    OUTCOME_PARSE_REJECT,
    ConfigError,
    Constraints,
    DriverSpec,
    driver_names,
    get_driver,
    with_domain,
)
from deltafuzz.oracle import structured_max_delta

ARTIFACTS = ("stats.csv", "witness.bin", "witness.txt", "report.txt")


def seeds_dir(tmp_path, files=None):
    d = tmp_path / "seeds"
    d.mkdir(exist_ok=True)
    for name, data in (files or {"seed": b"\x00" * 12}).items():
        (d / name).write_bytes(data)
    return str(d)


def paced_config(tmp_path, driver="pwcheck_unsafe", **kw):
    """A paced campaign config; the 12-byte zero seed unless seed_dir is given,
    so a caller's seed directory holds only the caller's seeds."""
    if "seed_dir" not in kw:
        kw["seed_dir"] = seeds_dir(tmp_path)
    defaults = dict(
        driver_name=driver,
        out_dir=str(tmp_path / "out"),
        timeout_seconds=3.0,
        pace=500,
        rng_seed=7,
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


# --- verdicts and dimensions -------------------------------------------------


def test_verdict_table():
    assert verdict(0) == VERDICT_NO_DIFFERENCE
    assert verdict(0, 64) == VERDICT_NO_DIFFERENCE
    assert verdict(47) == VERDICT_LEAK
    assert verdict(1, 64) == VERDICT_BELOW_EPSILON
    assert verdict(63, 64) == VERDICT_BELOW_EPSILON
    assert verdict(64, 64) == VERDICT_LEAK  # the threshold itself indicates
    with pytest.raises(ValueError):
        verdict(-1)


def test_canonical_dimension(tmp_path):
    # a campaign takes command-line aliases and canonical names alike, and
    # reports (and replays under) the canonical name
    for given, canonical in [
        ("ops", "ops"),
        ("mem", "peak_mem"),
        ("response", "response_bytes"),
        ("peak_mem", "peak_mem"),
        ("response_bytes", "response_bytes"),
    ]:
        out = tmp_path / given
        config = paced_config(
            tmp_path, out_dir=str(out), timeout_seconds=1.0, pace=20, cost_dimension=given
        )
        report = run_campaign(config)
        assert report.dimension == canonical
        assert f"cost dimension:    {canonical}" in (out / "report.txt").read_text()
        res = replay("pwcheck_unsafe", report.witness_data, dimension=given)
        assert res.delta_of(canonical) == report.max_delta
    with pytest.raises(ConfigError):
        run_campaign(
            paced_config(tmp_path, out_dir=str(tmp_path / "watts"), cost_dimension="watts")
        )
    assert not (tmp_path / "watts").exists()
    with pytest.raises(ConfigError):
        replay("pwcheck_unsafe", b"\x00" * 12, dimension="watts")


CONFIG_FAULTS = [
    ("timeout_seconds", 0.5),
    ("report_epsilon", -1.0),
    ("max_input_len", 0),
    ("stop_on_delta", 0),
    ("pace", 0),
    ("rng_seed", -1),
    ("timeout_seconds", float("nan")),  # would never expire
]
CONFIG_WAYS_IN = {"": "keyword", "-by-position": "position", "-by-replace": "replace"}


@pytest.mark.parametrize(
    "field,value,way",
    [(*fault, way) for way in CONFIG_WAYS_IN.values() for fault in CONFIG_FAULTS],
    ids=[f"{field}-{value}{suffix}" for suffix in CONFIG_WAYS_IN for field, value in CONFIG_FAULTS],
)
def test_config_validation(tmp_path, field, value, way):
    valid = paced_config(tmp_path)
    values = {**valid._asdict(), field: value}
    with pytest.raises(ConfigError):
        if way == "keyword":
            CampaignConfig(**values)
        elif way == "position":
            CampaignConfig(*values.values())
        else:
            valid._replace(**{field: value})


# --- clock ----------------------------------------------------------------------


def read_stats(out_dir):
    with open(out_dir / "stats.csv", newline="") as fh:
        return [tuple(int(cell) for cell in row) for row in list(csv.reader(fh))[1:]]


def test_paced_clock_counts_evaluations(tmp_path):
    # paced seconds are evaluations / pace: the row for second s is written
    # by evaluation s * pace, and the campaign ends at 25 / 10 = 2.5 s
    report = run_campaign(paced_config(tmp_path, pace=10, timeout_seconds=2.5))
    rows = read_stats(tmp_path / "out")
    assert rows[0][:2] == (0, 1)  # written by the first evaluation
    assert [(sec, execs) for sec, execs, *_ in rows[1:-1]] == [(1, 10), (2, 20)]
    assert rows[-1][:2] == (2, 25)
    assert report.executions == 25 and report.duration == 2.5


def test_wall_clock_moves_forward(tmp_path):
    report = run_campaign(paced_config(tmp_path, pace=None, timeout_seconds=1.0))
    assert report.stop_reason == "timeout"
    assert 1.0 <= report.duration < 30.0
    # wall time is not derived from the evaluation count
    seconds = [row[0] for row in report.stats_rows]
    assert seconds[0] == 0 and seconds[-1] == int(report.duration)


def test_pace_must_be_positive(tmp_path):
    with pytest.raises(ConfigError, match="pace"):
        run_campaign(paced_config(tmp_path, pace=0))
    assert not (tmp_path / "out").exists()


# --- liveness and stats -----------------------------------------------------------


def test_stats_rows_cover_every_second(tmp_path):
    report = run_campaign(paced_config(tmp_path))
    seconds = [row[0] for row in report.stats_rows]
    # one row per whole second plus the final snapshot
    assert seconds[:4] == [0, 1, 2, 3]
    assert report.stats_rows[-1][1] == report.executions
    assert report.stats_rows[-1][2] == report.max_delta


def test_stats_csv_matches_report(tmp_path):
    report = run_campaign(paced_config(tmp_path))
    with open(tmp_path / "out" / "stats.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == STATS_HEADER
    parsed = [tuple(int(cell) for cell in row) for row in rows[1:]]
    assert tuple(parsed) == report.stats_rows


def test_progress_columns_are_monotone(tmp_path):
    report = run_campaign(paced_config(tmp_path))
    for col in (1, 2, 3, 4):  # executions, max_delta, coverage, queue
        values = [row[col] for row in report.stats_rows]
        assert values == sorted(values)


def test_paced_duration_is_exact(tmp_path):
    report = run_campaign(paced_config(tmp_path, pace=250, timeout_seconds=2.0))
    assert report.duration == report.executions / 250
    assert report.stop_reason == "timeout"
    assert report.duration >= 2.0


# --- findings --------------------------------------------------------------------


def test_unsafe_campaign_finds_positive_delta(tmp_path):
    report = run_campaign(paced_config(tmp_path, stop_on_delta=2))
    assert report.verdict == VERDICT_LEAK
    assert report.max_delta >= 2
    assert report.stop_reason == "delta-target-reached"
    assert report.first_positive_at is not None
    assert report.first_positive_at <= report.duration


@pytest.mark.parametrize(
    "name,cap,executions",
    [
        ("pwcheck_unsafe", 16, 513),
        ("straightline_unsafe", 4, 130),
        ("pad_unsafe", 4, 1261),
        ("jetty_eq_unsafe", 4, 1261),
    ],
)
def test_evaluations_to_truth_from_the_zero_seed(tmp_path, name, cap, executions):
    """From 48 zero bytes each of these truths lies inside the seed's flip
    walk, which draws nothing from the rng: the evaluations it takes to
    reach truth are a fixed function of the stage's order."""
    truth = structured_max_delta(get_driver(name), cap).max_delta
    zero = tmp_path / "zero"
    zero.mkdir()
    (zero / "seed").write_bytes(bytes(48))
    report = run_campaign(
        paced_config(
            tmp_path,
            driver=name,
            seed_dir=str(zero),
            segment_cap=cap,
            pace=1000,
            rng_seed=1,
            timeout_seconds=10.0,
            stop_on_delta=truth,
        )
    )
    assert report.stop_reason == "delta-target-reached"
    assert report.executions == executions


def test_witness_replays_to_reported_delta(tmp_path):
    report = run_campaign(paced_config(tmp_path, stop_on_delta=2))
    res = replay("pwcheck_unsafe", report.witness_data)
    assert res.delta_of("ops") == report.max_delta
    assert res.decoded == report.witness_decoded


def test_epsilon_demotes_small_findings(tmp_path):
    report = run_campaign(
        paced_config(tmp_path, stop_on_delta=1, report_epsilon=1e9)
    )
    assert report.max_delta >= 1
    assert report.verdict == VERDICT_BELOW_EPSILON


def test_safe_campaign_reports_no_difference(tmp_path):
    report = run_campaign(
        paced_config(tmp_path, driver="pwcheck_safe", timeout_seconds=2.0)
    )
    assert report.verdict == VERDICT_NO_DIFFERENCE
    assert report.max_delta == 0
    assert report.first_positive_at is None
    # fallback witness: first seed, so the report always has an exhibit
    assert report.witness_data == b"\x00" * 12


def test_harness_errors_are_counted_and_noted(tmp_path):
    # all-zero seed decodes to modulus 0, which the target refuses
    report = run_campaign(
        paced_config(
            tmp_path,
            driver="modpow_unsafe",
            timeout_seconds=2.0,
        )
    )
    assert report.harness_error_count > 0
    assert any("modulus" in note for note in report.harness_error_notes)


def test_parse_rejecting_seed_is_a_config_error(tmp_path):
    bad = tmp_path / "badseeds"
    bad.mkdir()
    (bad / "good").write_bytes(bytes(12))  # sorts first: a check in the loop queues it
    (bad / "tiny").write_bytes(b"\x00\x01")  # under 3 bytes: cannot split
    config = paced_config(tmp_path, seed_dir=str(bad))
    with pytest.raises(ConfigError, match="tiny"):
        run_campaign(config)
    assert not Path(config.out_dir).exists()  # refused before anything is written
    (bad / "tiny").write_bytes(bytes(3))
    assert run_campaign(config).executions > 0  # so a rerun finds no earlier queue


def test_deterministic_stage_can_be_disabled(tmp_path):
    report = run_campaign(
        paced_config(tmp_path, deterministic_stage_enabled=False, timeout_seconds=2.0)
    )
    assert report.executions > 0


# --- the schedule's round-robin ---------------------------------------------------


def picks(monkeypatch, queue):
    """The entries _schedule visits in queue, lazily: with no seeds, no
    stage, no splice and one havoc mutant made inline per visit, each
    mutant's parent is one pick."""
    monkeypatch.setattr(campaign_module, "HAVOC_ITERATIONS", 1)
    monkeypatch.setattr(campaign_module, "SPLICE_ITERATIONS", 0)
    set_fork_cpus(monkeypatch, 1)
    schedule = campaign_module._schedule([], queue, random.Random(0), 48, None, None, None)
    return (queue.entries[parent].data for _, parent in schedule)


def test_round_robin_single_entry(tmp_path, monkeypatch):
    q = FuzzQueue(tmp_path / "queue")
    q.add(b"A", best_delta=0)
    assert list(islice(picks(monkeypatch, q), 3)) == [b"A", b"A", b"A"]


def test_round_robin_two_entries(tmp_path, monkeypatch):
    q = FuzzQueue(tmp_path / "queue")
    q.add(b"A", best_delta=0)
    q.add(b"B", best_delta=0)
    assert list(islice(picks(monkeypatch, q), 4)) == [b"A", b"B", b"A", b"B"]


def test_mid_cycle_addition_waits_for_next_cycle(tmp_path, monkeypatch):
    q = FuzzQueue(tmp_path / "queue")
    q.add(b"A", best_delta=0)
    q.add(b"B", best_delta=0)
    schedule = picks(monkeypatch, q)
    got = [next(schedule)]  # cycle of (A, B) begins
    q.add(b"C", best_delta=0)
    got += islice(schedule, 3)
    # C is absent from the cycle it arrived in; it joins the one after
    assert got == [b"A", b"B", b"A", b"B"]
    assert list(islice(schedule, 6)) == [b"C", b"A", b"B", b"C", b"A", b"B"]


def test_schedule_on_empty_queue(tmp_path, monkeypatch):
    with pytest.raises(LookupError):
        next(picks(monkeypatch, FuzzQueue(tmp_path / "queue")))


@pytest.mark.parametrize("stage", [True, False])
def test_the_stage_runs_once_per_entry_in_id_order(tmp_path, monkeypatch, stage):
    staged = []
    real = campaign_module.deterministic_stage

    def recording_stage(data, live=-1):
        staged.append(data)
        return real(data, live)

    monkeypatch.setattr(campaign_module, "deterministic_stage", recording_stage)
    config = paced_config(
        tmp_path, rng_seed=1, pace=1000, timeout_seconds=5, deterministic_stage_enabled=stage
    )
    run_campaign(config)
    queue = sorted((tmp_path / "out" / "queue").iterdir())  # id:NNNN,... sorts by id
    entries = [path.read_bytes() for path in queue]
    if not stage:
        assert staged == []
        return
    # every entry first visited before the budget ran out was staged, once
    assert 1 < len(staged) < len(entries)
    assert staged == entries[: len(staged)]


# --- the execution memo -------------------------------------------------------

SECRET_CALLS: list[tuple[bytes, bytes]] = []


def secret_priced(pub, sec, meter):
    """One tick, plus one per unit of the secret's first byte."""
    SECRET_CALLS.append((pub, sec))
    meter.tick(sec[0] + 1)


def test_two_remembered_executions_can_raise_the_high_score(tmp_path, monkeypatch):
    """Seeds 1 and 2 each run one execution, (p, 0) and (p, 5), and score 0.
    Seed 3 pairs them: both of its executions come from the memo, yet its
    triple is new and its delta of 5 the first above 0, so it must still go
    through the novelty check."""
    spec = DriverSpec(
        name="secret_priced", target=secret_priced, constraints=Constraints(max_segment_len=1)
    )
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    SECRET_CALLS.clear()
    seeds = seeds_dir(tmp_path, {"1": b"p\x00\x00", "2": b"p\x05\x05", "3": b"p\x00\x05"})
    report = run_campaign(
        paced_config(tmp_path, driver=spec.name, seed_dir=seeds, stop_on_delta=5)
    )
    # seeds 1 and 2 ran the target once each; the witness replay runs it
    # twice more, since an untraced run never uses the memo
    assert SECRET_CALLS == [(b"p", b"\x00"), (b"p", b"\x05")] * 2
    assert report.stop_reason == "delta-target-reached"
    assert report.executions == 3
    assert report.max_delta == 5
    assert report.witness_data == b"p\x00\x05"
    assert report.first_positive_at == 3 / 500
    queue = sorted(p.name for p in (tmp_path / "out" / "queue").iterdir())
    assert queue == ["id:0000,src:-,delta:0", "id:0001,src:-,delta:0", "id:0002,src:-,delta:5"]


def test_a_pair_table_of_one_entry_changes_no_artifact(tmp_path, monkeypatch):
    """The table of folded path pairs only saves work: cleared at almost
    every new pair, it leaves the artifacts and the queue as they were."""

    def artifacts(sub):
        out = tmp_path / sub
        run_campaign(paced_config(tmp_path, driver="crime_compress", out_dir=str(out)))
        queue = sorted(p.name for p in (out / "queue").iterdir())
        return [(out / name).read_bytes() for name in ARTIFACTS], queue

    full = artifacts("full")
    monkeypatch.setattr(driver_module, "FOLDED_PAIRS", 1)
    assert artifacts("one") == full


def always_raises(pub, sec, meter):
    meter.tick(1)
    raise ValueError("refused")


def test_every_evaluation_of_a_raising_target_is_a_harness_error(
    tmp_path, monkeypatch, scheduled
):
    """At segment cap 1 most flips of the seed touch only bytes the parser
    drops, and come in dead runs that never run the target; other mutants
    repeat the last triple. Their empty map and their delta, no higher than
    the high score, keep them out of the novelty check, yet each is still
    counted, error and all. A havoc mutant under 3 bytes cannot be split, so
    it is a parse reject that never runs the target; every other evaluation
    raises. Evaluations are counted from the schedule and classified by
    replay."""
    spec = DriverSpec(
        name="always_raises", target=always_raises, constraints=Constraints(max_segment_len=1)
    )
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    considered = []

    def counting_consider(*args):
        considered.append(args[1])
        return consider(*args)

    monkeypatch.setattr(campaign_module, "consider", counting_consider)
    report = run_campaign(paced_config(tmp_path, driver=spec.name, timeout_seconds=1.0))
    assert report.executions == 500
    evaluated = scheduled.evaluated(report.executions)
    outcomes = [driver_module.run_driver(spec, data).outcome for data, _ in evaluated]
    assert set(outcomes) <= {OUTCOME_HARNESS_ERROR, OUTCOME_PARSE_REJECT}
    assert report.harness_error_count == outcomes.count(OUTCOME_HARNESS_ERROR)
    assert report.harness_error_notes == ("ValueError: refused",)
    assert len(considered) < report.executions // 2
    assert sum(dead for _, dead in evaluated) > report.executions // 4  # many were dead


def test_consider_sees_only_evaluations_that_can_change_something(
    tmp_path, monkeypatch, scheduled
):
    """A hunt-style campaign, the zero seed at segment cap 4, where most
    evaluations are flips of dropped bytes, fold a known pair of paths or
    repeat the last triple: each one that reaches the novelty check has a
    map with edges or a delta above the high score so far. Evaluations are
    counted from the schedule, a dead run's with no map, and their deltas
    taken by replay."""
    spec = with_domain(get_driver("pad_unsafe"), segment_cap=4)
    dim = spec.cost_dimension
    real_run_driver = campaign_module.run_driver
    maps = []  # edges in the map of each traced evaluation
    considered = []

    def watching_run_driver(spec, data, cov_map=None):
        result = real_run_driver(spec, data, cov_map)
        if cov_map is not None:
            maps.append(len(cov_map))
        return result

    def watching_consider(*args):
        considered.append(len(maps))  # the traced evaluations so far
        return consider(*args)

    monkeypatch.setattr(campaign_module, "run_driver", watching_run_driver)
    monkeypatch.setattr(campaign_module, "consider", watching_consider)
    seeds = seeds_dir(tmp_path, {"zero": bytes(48)})
    report = run_campaign(
        paced_config(tmp_path, driver="pad_unsafe", seed_dir=seeds, segment_cap=4)
    )
    best, seen, traced = 0, [], iter(maps)
    for data, dead in scheduled.evaluated(report.executions):
        delta = driver_module.run_driver(spec, data).delta_of(dim)
        seen.append((0 if dead else next(traced), delta > best, dead))
        best = max(best, delta)
    assert next(traced, None) is None  # every traced run was an evaluation
    live = [(edges, above) for edges, above, dead in seen if not dead]
    assert considered and all(edges or above for edges, above in (live[n - 1] for n in considered))
    # and it skips every evaluation that could change nothing
    assert len(considered) == sum(1 for edges, above, _ in seen if edges or above)
    assert not any(above for _, above, dead in seen if dead)
    assert len(considered) < report.executions // 4
    assert sum(dead for *_, dead in seen) > report.executions // 2


def tie_priced(pub, sec, meter):
    """One tick, plus one for an odd secret byte: every delta is 0 or 1."""
    meter.tick(1 + sec[0] % 2)


def test_a_tie_keeps_the_first_witness(tmp_path, monkeypatch):
    """Seed a reaches delta 1, the most any input can; seed b and many
    mutants tie it. The high score's witness stays seed a."""
    spec = DriverSpec(
        name="tie_priced", target=tie_priced, constraints=Constraints(max_segment_len=1)
    )
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    seeds = seeds_dir(tmp_path, {"a": b"p\x00\x01", "b": b"q\x01\x00"})
    report = run_campaign(paced_config(tmp_path, driver=spec.name, seed_dir=seeds))
    assert report.max_delta == 1
    assert report.witness_data == b"p\x00\x01"
    assert report.first_positive_at == 1 / 500


def test_without_a_positive_delta_the_first_seed_is_the_witness(tmp_path):
    seeds = seeds_dir(tmp_path, {"a": b"\x01" * 12, "b": b"\x02" * 12})
    report = run_campaign(
        paced_config(tmp_path, driver="pwcheck_safe", seed_dir=seeds, timeout_seconds=1.0)
    )
    assert report.max_delta == 0
    assert report.witness_data == b"\x01" * 12
    assert (tmp_path / "out" / "witness.bin").read_bytes() == b"\x01" * 12


def test_a_boring_seed_evaluated_at_the_stop_is_queued(tmp_path):
    """Seed b's extra zero byte decodes to seed a's triple, so b reaches no
    new coverage and no higher delta; it is still queued, although the
    campaign times out at b's evaluation."""
    seeds = seeds_dir(tmp_path, {"a": bytes(12), "b": bytes(13)})
    report = run_campaign(paced_config(tmp_path, seed_dir=seeds, pace=1, timeout_seconds=2.0))
    assert report.executions == 2
    queue = tmp_path / "out" / "queue"
    assert sorted(p.name for p in queue.iterdir()) == [
        "id:0000,src:-,delta:0",
        "id:0001,src:-,delta:0",
    ]
    assert (queue / "id:0001,src:-,delta:0").read_bytes() == bytes(13)
    assert report.queue_size == 2


# --- output files -----------------------------------------------------------------


def test_output_files_written(tmp_path):
    report = run_campaign(paced_config(tmp_path, stop_on_delta=2))
    out = tmp_path / "out"
    assert (out / "stats.csv").is_file()
    assert (out / "witness.bin").read_bytes() == report.witness_data
    assert (out / "queue").is_dir() and any((out / "queue").iterdir())

    witness_txt = (out / "witness.txt").read_text()
    pub, sec1, sec2 = report.witness_decoded
    assert f"delta: {report.max_delta}" in witness_txt
    assert pub.hex() in witness_txt
    assert sec1.hex() in witness_txt and sec2.hex() in witness_txt

    report_txt = (out / "report.txt").read_text()
    assert f"verdict:           {report.verdict}" in report_txt
    assert NO_PROOF_NOTE in report_txt


def test_report_always_carries_the_no_proof_note(tmp_path):
    run_campaign(paced_config(tmp_path, driver="pwcheck_safe", timeout_seconds=2.0))
    text = (tmp_path / "out" / "report.txt").read_text()
    assert NO_PROOF_NOTE in text
    assert "no-difference-found" in text


def test_paced_campaigns_are_reproducible(tmp_path):
    reports = []
    for sub in ("one", "two"):
        reports.append(
            run_campaign(
                paced_config(
                    tmp_path,
                    out_dir=str(tmp_path / sub),
                    timeout_seconds=2.0,
                    rng_seed=99,
                )
            )
        )
    for name in ("stats.csv", "witness.bin", "witness.txt", "report.txt"):
        a = (tmp_path / "one" / name).read_bytes()
        b = (tmp_path / "two" / name).read_bytes()
        assert a == b, name
    assert reports[0].max_delta == reports[1].max_delta
    assert reports[0].executions == reports[1].executions


def test_earlier_queue_in_out_dir_is_refused(tmp_path):
    first = run_campaign(paced_config(tmp_path, timeout_seconds=1.0))
    queue = sorted((tmp_path / "out" / "queue").iterdir())
    assert len(queue) == first.queue_size
    with pytest.raises(ConfigError, match=str(tmp_path / "out")):
        run_campaign(paced_config(tmp_path, timeout_seconds=2.0))
    # the refused run touched nothing
    assert sorted((tmp_path / "out" / "queue").iterdir()) == queue


def test_out_dir_without_a_queue_is_accepted(tmp_path):
    (tmp_path / "out" / "queue").mkdir(parents=True)
    (tmp_path / "out" / "notes.txt").write_text("kept")
    run_campaign(paced_config(tmp_path, timeout_seconds=1.0))
    assert (tmp_path / "out" / "notes.txt").read_text() == "kept"


def test_interrupt_stops_and_writes_every_artifact(tmp_path, monkeypatch):
    evaluations = []

    def interrupt_after_300(*args):
        if len(evaluations) == 300:
            raise KeyboardInterrupt
        evaluations.append(driver_module.run_driver(*args))
        return evaluations[-1]

    monkeypatch.setattr(campaign_module, "run_driver", interrupt_after_300)
    report = run_campaign(paced_config(tmp_path))
    monkeypatch.undo()  # replay below runs through campaign.run_driver too
    assert report.stop_reason == "interrupted"
    assert report.executions == 300
    out = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    assert "stop reason:       interrupted" in (out / "report.txt").read_text()
    assert read_stats(out)[-1][1] == 300
    witness = (out / "witness.bin").read_bytes()
    assert replay("pwcheck_unsafe", witness).delta_of("ops") == report.max_delta


def test_interrupt_in_the_first_run_writes_outputs_without_replay(tmp_path, monkeypatch):
    def hangs(pub, sec, meter):
        raise KeyboardInterrupt  # Ctrl-C while the first run never returns

    spec = DriverSpec(name="local_hangs", target=hangs)
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    report = run_campaign(paced_config(tmp_path, driver=spec.name))
    assert report.stop_reason == "interrupted"
    assert report.executions == 0 and report.max_delta == 0
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).is_file(), name


# --- witness self-check ---------------------------------------------------------


@pytest.mark.parametrize("name", driver_names())
def test_campaign_witness_replays_for_every_driver(tmp_path, name):
    report = run_campaign(
        paced_config(
            tmp_path,
            driver=name,
            seed_dir=seeds_dir(tmp_path, {"seed": bytes(range(1, 49))}),
            pace=200,
            timeout_seconds=1.0,
        )
    )
    replayed = replay(name, report.witness_data, dimension=report.dimension)
    assert replayed.delta_of(report.dimension) == report.max_delta
    assert replayed.decoded == report.witness_decoded


@pytest.mark.parametrize("name", driver_names())
@given(rng_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_havoc_only_witness_replays_for_every_driver(name, rng_seed):
    # The test above never leaves the deterministic stage of its 48-byte
    # seed; without that stage every evaluation after the seed is a havoc or
    # splice mutant.
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        report = run_campaign(
            paced_config(
                tmp_path,
                driver=name,
                seed_dir=seeds_dir(tmp_path, {"seed": bytes(range(1, 49))}),
                pace=200,
                timeout_seconds=1.0,
                rng_seed=rng_seed,
                deterministic_stage_enabled=False,
            )
        )
    replayed = replay(name, report.witness_data, dimension=report.dimension)
    assert replayed.delta_of(report.dimension) == report.max_delta
    assert replayed.decoded == report.witness_decoded


def test_witness_that_does_not_replay_fails_after_writing(tmp_path, monkeypatch):
    calls = [0]

    def drifting(pub, sec, meter):
        # cost grows with the number of earlier calls: no delta replays
        calls[0] += 1
        meter.tick(calls[0] ** 2)

    spec = DriverSpec(name="local_drifting", target=drifting)
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    with pytest.raises(RuntimeError, match="failed replay"):
        run_campaign(paced_config(tmp_path, driver=spec.name, timeout_seconds=1.0))
    out = tmp_path / "out"
    for name in ARTIFACTS:
        assert (out / name).is_file(), name
    assert "leak-indicated" in (out / "report.txt").read_text()


# --- havoc made ahead in a forked child -------------------------------------------


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_fork_cpus(monkeypatch, cpus):
    """The CPUs the campaign's fork guard reports: 1 keeps havoc inline."""
    monkeypatch.setattr(campaign_module, "fork_cpus", lambda: cpus)


def artifacts(out):
    """The files a paced campaign must reproduce byte for byte, queue by name."""
    files = {name: (out / name).read_bytes() for name in ("stats.csv", "witness.bin", "report.txt")}
    files.update({f"queue/{path.name}": path.read_bytes() for path in (out / "queue").iterdir()})
    return files


def inline_then_forked(tmp_path, monkeypatch, forked, **kw):
    """The reports and artifacts of one config's campaign, run with havoc
    inline and then with havoc made in a forked child."""
    runs = []
    for cpus, forks in ((1, 0), (2, 1)):
        set_fork_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus-{cpus}"
        report = run_campaign(paced_config(tmp_path, out_dir=str(out), **kw))
        assert len(forked) == forks
        assert_no_child_left()
        runs.append((report, artifacts(out)))
    return runs


@pytest.mark.parametrize("rng_seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["pwcheck_unsafe", "straightline_unsafe"])
def test_a_forked_campaign_equals_an_inline_one(
    tmp_path, monkeypatch, forked, deadline, name, rng_seed
):
    (inline, inline_files), (fork, fork_files) = inline_then_forked(
        tmp_path, monkeypatch, forked, driver=name, rng_seed=rng_seed,
        pace=1000, timeout_seconds=3.0, deterministic_stage_enabled=False,
    )
    assert fork == inline
    assert fork_files == inline_files
    assert inline.executions == 3000 and inline.queue_size > 1


def test_a_stop_in_the_middle_of_a_visit_equals_inline(tmp_path, monkeypatch, forked, deadline):
    (inline, inline_files), (fork, fork_files) = inline_then_forked(
        tmp_path, monkeypatch, forked, rng_seed=1, pace=1000, timeout_seconds=3.0,
        deterministic_stage_enabled=False, stop_on_delta=10,
    )
    assert fork == inline
    assert fork_files == inline_files
    assert fork.stop_reason == "delta-target-reached"
    # the seed, then part of the first visit's havoc: the child had more in flight
    assert 1 < fork.executions < 1 + campaign_module.HAVOC_ITERATIONS


def test_no_child_outlives_an_interrupted_campaign(tmp_path, monkeypatch, forked, deadline):
    evaluations = [0]

    def interrupt_at_100(*args):
        evaluations[0] += 1
        if evaluations[0] == 100:
            raise KeyboardInterrupt
        return driver_module.run_driver(*args)

    monkeypatch.setattr(campaign_module, "run_driver", interrupt_at_100)
    set_fork_cpus(monkeypatch, 2)
    report = run_campaign(paced_config(tmp_path, deterministic_stage_enabled=False))
    assert report.stop_reason == "interrupted"
    assert report.executions == 99
    assert len(forked) == 1
    assert_no_child_left()
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).is_file(), name


def test_the_havoc_child_ignores_ctrl_c(tmp_path, monkeypatch, forked, deadline):
    """Ctrl-C signals the terminal's whole foreground group; only the
    campaign's process may act on it."""
    evaluations = [0]

    def signal_the_child_at_100(*args):
        evaluations[0] += 1
        if evaluations[0] == 100:
            os.kill(forked[0], signal.SIGINT)
        return driver_module.run_driver(*args)

    monkeypatch.setattr(campaign_module, "run_driver", signal_the_child_at_100)
    set_fork_cpus(monkeypatch, 2)
    report = run_campaign(paced_config(tmp_path, deterministic_stage_enabled=False))
    assert report.stop_reason == "timeout"
    assert report.executions == 1500
    assert len(forked) == 1
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_havoc_error_reaches_the_caller_after_the_mutants_before_it(
    tmp_path, monkeypatch, forked, deadline, cpus
):
    real_havoc = campaign_module.havoc
    calls, evaluations = [0], [0]

    def havoc_fails_at_50(*args):
        calls[0] += 1
        if calls[0] == 50:
            raise ValueError("havoc failed on call 50")
        return real_havoc(*args)

    def counting(*args):
        evaluations[0] += 1
        return driver_module.run_driver(*args)

    monkeypatch.setattr(campaign_module, "havoc", havoc_fails_at_50)
    monkeypatch.setattr(campaign_module, "run_driver", counting)
    set_fork_cpus(monkeypatch, cpus)
    with pytest.raises(ValueError, match="havoc failed on call 50"):
        run_campaign(paced_config(tmp_path, deterministic_stage_enabled=False))
    assert evaluations == [1 + 49]  # the seed and every mutant made before the error
    assert len(forked) == cpus - 1
    assert calls == [50 if cpus == 1 else 0]  # forked, havoc ran in the child only
    assert_no_child_left()


def test_a_havoc_child_that_dies_is_an_error_not_a_hang(tmp_path, monkeypatch, forked, deadline):
    parent = os.getpid()

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(7)
        raise AssertionError("havoc ran in the campaign's process")

    monkeypatch.setattr(campaign_module, "havoc", dies_in_a_child)
    set_fork_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 7"):
        run_campaign(paced_config(tmp_path, deterministic_stage_enabled=False))
    assert len(forked) == 1
    assert_no_child_left()


def test_a_havoc_child_killed_from_outside_is_an_error_not_a_hang(
    tmp_path, monkeypatch, forked, deadline
):
    evaluations = [0]

    def kill_the_child_at_100(*args):
        evaluations[0] += 1
        if evaluations[0] == 100:  # it may have sent the whole visit by now
            os.kill(forked[0], signal.SIGKILL)
        return driver_module.run_driver(*args)

    monkeypatch.setattr(campaign_module, "run_driver", kill_the_child_at_100)
    set_fork_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"havoc child \d+ exited with status -9"):
        run_campaign(paced_config(tmp_path, deterministic_stage_enabled=False))
    assert len(forked) == 1
    assert_no_child_left()


def test_a_fork_that_fails_leaves_havoc_inline(tmp_path, monkeypatch, deadline):
    def no_process_to_spare():
        raise BlockingIOError(11, "Resource temporarily unavailable")  # EAGAIN

    set_fork_cpus(monkeypatch, 1)
    inline = run_campaign(paced_config(tmp_path, out_dir=str(tmp_path / "inline"), rng_seed=1))
    set_fork_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_process_to_spare)
    report = run_campaign(paced_config(tmp_path, out_dir=str(tmp_path / "failed"), rng_seed=1))
    assert report == inline
    assert artifacts(tmp_path / "failed") == artifacts(tmp_path / "inline")
    assert report.executions == 1500  # the 316 flips of the 12-byte seed, then havoc


@pytest.mark.parametrize("cpus,thread,forks", [(1, False, 0), (2, True, 0), (2, False, 1)])
def test_a_campaign_forks_only_with_two_cpus_and_one_thread(
    tmp_path, monkeypatch, forked, deadline, cpus, thread, forks
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if thread:
        waiter.start()
    try:
        report = run_campaign(
            paced_config(tmp_path, deterministic_stage_enabled=False, timeout_seconds=1.0)
        )
    finally:
        release.set()
        if thread:
            waiter.join(timeout=10)
    assert report.executions == 500  # havoc from the second evaluation on
    assert len(forked) == forks
    assert_no_child_left()


# --- stage executions run ahead in the forked child -------------------------------


def zero_seed_48(tmp_path):
    return seeds_dir(tmp_path, {"zero": bytes(48)})


def pwcheck_truth():
    return structured_max_delta(get_driver("pwcheck_unsafe"), 16).max_delta


def test_a_stop_inside_the_stage_equals_inline(tmp_path, monkeypatch, forked, deadline):
    """Stopped at its truth inside the first stage, with the child running
    executions ahead from the first stage mutant on."""
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 0)
    (inline, inline_files), (fork, fork_files) = inline_then_forked(
        tmp_path, monkeypatch, forked, seed_dir=zero_seed_48(tmp_path), pace=1000,
        timeout_seconds=40.0, stop_on_delta=pwcheck_truth(),
    )
    assert fork == inline
    assert fork_files == inline_files
    assert fork.stop_reason == "delta-target-reached"
    assert fork.executions < 27 * 48 - 8  # inside the seed's stage


def test_no_child_outlives_a_campaign_interrupted_inside_the_stage(
    tmp_path, monkeypatch, forked, deadline
):
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 0)
    evaluations = [0]

    def interrupt_at_100(*args):
        evaluations[0] += 1
        if evaluations[0] == 100:
            raise KeyboardInterrupt
        return driver_module.run_driver(*args)

    monkeypatch.setattr(campaign_module, "run_driver", interrupt_at_100)
    set_fork_cpus(monkeypatch, 2)
    report = run_campaign(paced_config(tmp_path, seed_dir=zero_seed_48(tmp_path)))
    assert report.stop_reason == "interrupted"
    assert 99 <= report.executions < 27 * 48 - 8  # inside the seed's stage
    assert len(forked) == 1
    assert_no_child_left()


UNPICKLABLE_CALLS: list[bytes] = []


def unpicklable_output(pub, sec, meter):
    """pwcheck's prefix compare, returning a generator, which pickle refuses."""
    UNPICKLABLE_CALLS.append(sec)
    meter.tick(1)
    for a, b in zip(pub, sec):
        meter.tick(1)
        if a != b:
            break
    return (match for match in (pub == sec,))


def test_an_output_that_will_not_pickle_is_run_by_the_campaign(
    tmp_path, monkeypatch, forked, deadline
):
    """The child marks such an execution not run ahead, so the campaign runs
    every execution itself, as many as inline, and writes the same."""
    spec = DriverSpec(name="unpicklable_output", target=unpicklable_output)
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    monkeypatch.setattr(campaign_module, "STAGE_FORK_PROBES", 0)
    runs = []
    for cpus in (1, 2):
        set_fork_cpus(monkeypatch, cpus)
        UNPICKLABLE_CALLS.clear()
        out = tmp_path / f"cpus-{cpus}"
        report = run_campaign(paced_config(
            tmp_path, driver=spec.name, out_dir=str(out), seed_dir=zero_seed_48(tmp_path),
            pace=1000, timeout_seconds=1.0,
        ))
        runs.append((report, artifacts(out), len(UNPICKLABLE_CALLS)))
    assert runs[0] == runs[1]
    assert runs[0][2] > 0
    assert len(forked) == 1
    assert_no_child_left()


def test_a_cheap_campaign_forks_nothing_for_its_stage(tmp_path, monkeypatch, deadline):
    """pwcheck_unsafe runs its deterministic stage to its truth from 48 zero
    bytes without reaching STAGE_FORK_PROBES, so it stays in one process."""
    forks = []
    real = campaign_module.fork_child
    monkeypatch.setattr(campaign_module, "fork_child", lambda serve: forks.append(serve) or real(serve))
    set_fork_cpus(monkeypatch, 2)
    report = run_campaign(paced_config(
        tmp_path, seed_dir=zero_seed_48(tmp_path), pace=1000, timeout_seconds=40.0,
        stop_on_delta=pwcheck_truth(),
    ))
    assert report.stop_reason == "delta-target-reached"
    assert forks == []


def test_the_childs_tokens_are_renamed_and_an_unknown_one_is_left_to_run():
    """A child token may already name another path in this process: each
    gets a fresh token of its own, kept while it repeats. A run whose token
    came with no edges here (the table was cleared) is not remembered."""
    from deltafuzz.coverage import _TOKENS
    from deltafuzz.metering import CostReading

    memo, paths, edges = {}, {}, [(7, 1)]
    token = next(_TOKENS)  # a token this process already uses
    cost = CostReading(ops=3)
    runs = [(cost, True, None, token, edges), (cost, False, None, token, None)]
    campaign_module._remember(memo, paths, (b"p", b"a", b"b"), runs)
    (mine_a, edges_a), (mine_b, edges_b) = memo[b"p", b"a"][3], memo[b"p", b"b"][3]
    assert mine_a == mine_b != token and edges_a is edges_b is edges
    assert memo[b"p", b"a"][:3] == (cost, True, None) and memo[b"p", b"b"][1] is False
    unknown = (cost, 1, None, token + 1000, None)  # a child token sent with no edges here
    campaign_module._remember(memo, paths, (b"q", b"a", b"a"), [unknown, unknown])
    assert (b"q", b"a") not in memo
