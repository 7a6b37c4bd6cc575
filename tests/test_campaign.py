"""Campaign orchestration: verdicts, clocks, liveness, reproducibility,
stop conditions, the output files, and the witness self-check."""

import csv

import pytest

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
from deltafuzz.driver import ConfigError, Constraints, DriverSpec, driver_names

ARTIFACTS = ("stats.csv", "witness.bin", "witness.txt", "report.txt")


def seeds_dir(tmp_path, files=None):
    d = tmp_path / "seeds"
    d.mkdir(exist_ok=True)
    for name, data in (files or {"seed": b"\x00" * 12}).items():
        (d / name).write_bytes(data)
    return str(d)


def paced_config(tmp_path, driver="pwcheck_unsafe", **kw):
    defaults = dict(
        driver_name=driver,
        seed_dir=seeds_dir(tmp_path),
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


@pytest.mark.parametrize(
    "field,value",
    [
        ("timeout_seconds", 0.5),
        ("report_epsilon", -1.0),
        ("max_input_len", 0),
        ("stop_on_delta", 0),
        ("pace", 0),
    ],
)
def test_config_validation(tmp_path, field, value):
    with pytest.raises(ConfigError):
        paced_config(tmp_path, **{field: value})


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


def test_stop_condition_halts_campaign(tmp_path):
    captured = []

    def until_mismatch(result):
        if result.outcome == "ok" and result.delta_of("ops") >= 4:
            captured.append(result)
            return True
        return False

    report = run_campaign(paced_config(tmp_path, stop_condition=until_mismatch))
    assert report.stop_reason == "stop-condition"
    assert captured and captured[0].delta_of("ops") >= 4


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
    (bad / "tiny").write_bytes(b"\x00\x01")  # under 3 bytes: cannot split
    config = paced_config(tmp_path, seed_dir=str(bad))
    with pytest.raises(ConfigError, match="tiny"):
        run_campaign(config)


def test_deterministic_stage_can_be_disabled(tmp_path):
    report = run_campaign(
        paced_config(tmp_path, deterministic_stage_enabled=False, timeout_seconds=2.0)
    )
    assert report.executions > 0


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


def test_interrupt_stops_and_writes_every_artifact(tmp_path):
    evaluations = []

    def interrupt_at_300(result):
        evaluations.append(result)
        if len(evaluations) == 300:
            raise KeyboardInterrupt
        return False

    report = run_campaign(paced_config(tmp_path, stop_condition=interrupt_at_300))
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
