"""CLI surface: subcommands, exit codes, and the aggregate report table."""

import argparse
import json
import os
import re
from pathlib import Path

import pytest

import deltafuzz.campaign as campaign
import deltafuzz.cli as cli
import deltafuzz.driver as driver_module
from deltafuzz.cli import main
from deltafuzz.driver import get_driver
from deltafuzz.oracle import exhaustive_max_delta


def make_seeds(tmp_path):
    d = tmp_path / "seeds"
    d.mkdir(exist_ok=True)
    (d / "seed").write_bytes(b"\x00" * 12)
    return str(d)


def stats_dir(tmp_path, name, rows):
    """Fake campaign output with just the rows the report command reads."""
    d = tmp_path / name
    d.mkdir()
    lines = ["seconds,executions,max_delta,coverage_count,queue_size"]
    for sec, delta in rows:
        lines.append(f"{sec},{sec * 100 + 1},{delta},1,1")
    (d / "stats.csv").write_text("\n".join(lines) + "\n")
    return str(d)


# --- list-drivers -----------------------------------------------------------


def test_list_drivers(capsys):
    assert main(["list-drivers"]) == 0
    out = capsys.readouterr().out
    assert "pwcheck_unsafe" in out and "pwcheck_safe" in out
    assert "crime_compress" in out and "dim=response_bytes" in out
    assert "statistic=match-prefix-length" in out


# --- oracle --------------------------------------------------------------------


def test_oracle_exhaustive_json(capsys):
    code = main(
        ["oracle", "--driver", "pwcheck_unsafe", "--len", "2", "--alphabet", "binary"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max delta: 2" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["max_delta"] == 2
    assert payload["mode"] == "exhaustive"
    assert payload["executions"] == 16
    assert payload["statistic"] is None
    assert bytes.fromhex(payload["witness_hex"])  # replayable bytes


def test_oracle_takes_every_fuzz_charset(capsys):
    argv = ["oracle", "--driver", "pwcheck_unsafe", "--len", "1", "--alphabet", "lower"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    truth = exhaustive_max_delta(get_driver("pwcheck_unsafe"), 1, charset="lower")
    assert payload["alphabet"] == "lower"
    assert payload["max_delta"] == truth.max_delta


def test_oracle_structured_json(capsys):
    code = main(["oracle", "--driver", "pwcheck_unsafe", "--len", "16", "--structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["max_delta"] == 30
    assert payload["mode"] == "structured"
    assert payload["statistic"] == "match-prefix-length"
    assert payload["executions"] == 17  # one per match-prefix length 0..16
    # the dearest secret first: it matches the pub on 15 bytes, the cheapest on none
    assert payload["pub_hex"] == "ff" * 16
    assert payload["sec_1_hex"] == "ff" * 15 + "00"
    assert payload["sec_2_hex"] == "00" * 16


@pytest.mark.parametrize("mode", ["exhaustive", "structured"])
def test_an_interrupted_oracle_is_exit_130_without_a_traceback(
    monkeypatch, capsys, forked, deadline, mode
):
    def interrupted(pub, sec, meter):
        raise KeyboardInterrupt  # Ctrl-C while the target runs

    spec = driver_module.DriverSpec(
        name="local_interrupted",
        target=interrupted,
        statistic=driver_module.Statistic("any", lambda n, alphabet: (b"\x00", [b"\x00"])),
    )
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["oracle", "--driver", spec.name, "--len", "1", "--alphabet", "binary"]
    assert main(argv + (["--structured"] if mode == "structured" else [])) == 130
    assert len(forked) == (1 if mode == "exhaustive" else 0)  # two pubs over two CPUs
    assert capsys.readouterr().err == "interrupted\n"  # and no traceback
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_oracle_domain_too_large(capsys):
    code = main(["oracle", "--driver", "pwcheck_unsafe", "--len", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_unknown_driver(capsys):
    assert main(["oracle", "--driver", "nope", "--len", "1"]) == 2


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_oracle_budget_below_one_is_exit_two(capsys, budget):
    argv = ["oracle", "--driver", "pwcheck_unsafe", "--len", "2", "--budget", budget]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: budget must be >= 1\n"


# --- fuzz ------------------------------------------------------------------------


def test_fuzz_leak_is_exit_zero(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--driver",
            "pwcheck_unsafe",
            "--seeds",
            make_seeds(tmp_path),
            "--out",
            str(tmp_path / "out"),
            "--timeout",
            "3",
            "--pace",
            "500",
            "--stop-delta",
            "2",
        ]
    )
    assert code == 0
    out = tmp_path / "out"
    for name in ("stats.csv", "witness.bin", "witness.txt", "report.txt"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "verdict:           leak-indicated" in report
    assert capsys.readouterr().out == f"{report}outputs: {out}\n"


def test_fuzz_unknown_driver(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--driver",
            "missing",
            "--seeds",
            make_seeds(tmp_path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "unknown driver" in capsys.readouterr().err


def test_fuzz_bad_timeout(tmp_path, capsys):
    for timeout in ("0.5", "nan"):  # a NaN timeout would never expire
        assert main(fuzz_args(tmp_path, "--timeout", timeout)) == 2
        assert capsys.readouterr().err == "error: timeout must be >= 1 second\n"
        assert not (tmp_path / "out").exists()


def test_fuzz_bad_epsilon(tmp_path, capsys):
    for epsilon in ("-1", "nan"):
        assert main(fuzz_args(tmp_path, "--epsilon", epsilon)) == 2
        assert capsys.readouterr().err == "error: epsilon must be >= 0\n"
        assert not (tmp_path / "out").exists()


def test_fuzz_negative_rng_seed_is_exit_two(tmp_path, capsys):
    # random.Random(-5) draws the stream of Random(5): two such trials would
    # be one trial counted twice
    assert main(fuzz_args(tmp_path, "--rng-seed", "-1")) == 2
    assert capsys.readouterr().err == "error: rng seed must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_fuzz_infinite_timeout_runs_until_the_stop_delta(tmp_path):
    assert main(fuzz_args(tmp_path, "--timeout", "inf", "--stop-delta", "2")) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "stop reason:       delta-target-reached" in report


def test_fuzz_segment_cap_below_one_is_exit_two(tmp_path, capsys):
    argv = ["fuzz", "--driver", "pwcheck_unsafe", "--seeds", make_seeds(tmp_path)]
    code = main(argv + ["--out", str(tmp_path / "out"), "--segment-cap", "0"])
    assert code == 2
    assert capsys.readouterr().err == "error: segment cap must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_oracle_len_below_one_is_exit_two(capsys):
    assert main(["oracle", "--driver", "pwcheck_unsafe", "--len", "0"]) == 2
    assert capsys.readouterr().err == "error: segment cap must be >= 1\n"


def test_fuzz_sourceless_target_is_exit_two(tmp_path, monkeypatch, capsys):
    namespace = {}
    source = "def ghost(pub, sec, meter):\n    meter.tick(1)\n"
    exec(compile(source, "<string>", "exec"), namespace)
    spec = driver_module.DriverSpec(name="ghost", target=namespace["ghost"])
    monkeypatch.setitem(driver_module._REGISTRY, spec.name, spec)
    seeds, out = make_seeds(tmp_path), str(tmp_path / "out")
    code = main(["fuzz", "--driver", "ghost", "--seeds", seeds, "--out", out])
    assert code == 2
    assert "no source" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # refused before the first write


def test_fuzz_internal_error_is_exit_three(tmp_path, monkeypatch, capsys):
    def boom(config):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "run_campaign", boom)
    code = main(
        [
            "fuzz",
            "--driver",
            "pwcheck_unsafe",
            "--seeds",
            make_seeds(tmp_path),
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def fuzz_args(tmp_path, *extra):
    return [
        "fuzz",
        "--driver",
        "pwcheck_unsafe",
        "--seeds",
        make_seeds(tmp_path),
        "--out",
        str(tmp_path / "out"),
        "--pace",
        "500",
        *extra,
    ]


def test_fuzz_into_earlier_run_is_exit_two(tmp_path, capsys):
    assert main(fuzz_args(tmp_path, "--timeout", "2")) == 0
    queue = sorted((tmp_path / "out" / "queue").iterdir())
    capsys.readouterr()
    assert main(fuzz_args(tmp_path, "--timeout", "1")) == 2
    err = capsys.readouterr().err
    assert "earlier run" in err and str(tmp_path / "out") in err
    assert sorted((tmp_path / "out" / "queue").iterdir()) == queue


def test_fuzz_with_unparsable_seed_is_exit_two_and_writes_nothing(tmp_path, capsys):
    args = fuzz_args(tmp_path, "--timeout", "1")  # its seed "seed" sorts before "tiny"
    tiny = tmp_path / "seeds" / "tiny"
    tiny.write_bytes(b"\x00\x01")
    assert main(args) == 2
    assert "'tiny' does not parse" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    tiny.write_bytes(bytes(3))
    assert main(args) == 0  # into the same --out


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["out-is-a-file", "out-under-a-file"])
def test_fuzz_out_at_or_under_a_file_is_exit_two(tmp_path, monkeypatch, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory")
    out = blocker.joinpath(*under)
    evaluations = []
    monkeypatch.setattr(campaign, "run_driver", lambda *args: evaluations.append(args))
    args = fuzz_args(tmp_path, "--timeout", "1")
    args[args.index("--out") + 1] = str(out)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and str(out) in err
    assert evaluations == []  # refused before the first evaluation
    assert blocker.read_bytes() == b"not a directory"


def test_fuzz_out_name_too_long_is_exit_two(tmp_path, capsys):
    out = tmp_path / ("o" * 300)  # longer than a file name may be
    args = fuzz_args(tmp_path, "--timeout", "1")
    args[args.index("--out") + 1] = str(out)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err and str(out) in err


def test_fuzz_seeds_name_too_long_is_exit_two(tmp_path, capsys):
    seeds = tmp_path / ("s" * 300)  # longer than a file name may be
    args = fuzz_args(tmp_path, "--timeout", "1")
    args[args.index("--seeds") + 1] = str(seeds)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seeds are not readable: ") and str(seeds) in err
    assert not (tmp_path / "out").exists()


def test_fuzz_interrupted_is_exit_zero_with_outputs(tmp_path, monkeypatch, capsys):
    real_havoc = campaign.havoc
    calls = [0]

    def havoc_then_interrupt(*args):
        calls[0] += 1
        if calls[0] == 50:
            raise KeyboardInterrupt
        return real_havoc(*args)

    monkeypatch.setattr(campaign, "havoc", havoc_then_interrupt)
    assert main(fuzz_args(tmp_path, "--timeout", "600")) == 0
    assert "verdict:" in capsys.readouterr().out
    for name in ("stats.csv", "witness.bin", "witness.txt", "report.txt"):
        assert (tmp_path / "out" / name).is_file()
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "stop reason:       interrupted" in report


# --- replay ------------------------------------------------------------------------


def test_replay_ok(tmp_path, capsys):
    blob = tmp_path / "input.bin"
    blob.write_bytes(b"\x00" * 15 + b"\x01" + b"\x00" * 32)
    code = main(["replay", "--driver", "pwcheck_unsafe", "--input", str(blob)])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: ok" in out
    assert "delta: ops=" in out


def test_replay_reports_output_mismatch(tmp_path, capsys):
    blob = tmp_path / "input.bin"
    blob.write_bytes(b"aab")  # sec_1 matches pub, sec_2 does not
    code = main(["replay", "--driver", "jetty_eq_unsafe", "--input", str(blob)])
    assert code == 0
    assert "different outputs" in capsys.readouterr().out


def test_replay_notes_a_harness_error(tmp_path, capsys):
    blob = tmp_path / "zero.bin"
    blob.write_bytes(bytes(48))  # decodes to modulus 0, which the target refuses
    code = main(["replay", "--driver", "modpow_unsafe", "--input", str(blob)])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome: harness_error" in out
    assert "note: HarnessError: modulus must be >= 2" in out.splitlines()


def test_replay_missing_file(tmp_path, capsys):
    code = main(
        ["replay", "--driver", "pwcheck_unsafe", "--input", str(tmp_path / "no.bin")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_replay_unreadable_file_is_exit_two(tmp_path, monkeypatch, capsys):
    blob = tmp_path / "locked.bin"
    blob.write_bytes(bytes(48))

    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))

    # chmod cannot lock root out, so the read itself raises
    monkeypatch.setattr(cli.Path, "read_bytes", refuse)
    code = main(["replay", "--driver", "pwcheck_unsafe", "--input", str(blob)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input file is not readable: ")
    assert str(blob) in err


def test_replay_input_name_too_long_is_exit_two(tmp_path, capsys):
    blob = tmp_path / ("i" * 300)  # longer than a file name may be
    assert main(["replay", "--driver", "pwcheck_unsafe", "--input", str(blob)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input file is not readable: ") and str(blob) in err


def test_replay_parse_reject(tmp_path, capsys):
    blob = tmp_path / "tiny.bin"
    blob.write_bytes(b"\x00\x01")
    code = main(["replay", "--driver", "pwcheck_unsafe", "--input", str(blob)])
    assert code == 2
    captured = capsys.readouterr()
    assert "outcome: parse_reject" in captured.out
    assert "error:" in captured.err


# --- report --------------------------------------------------------------------------


def test_report_two_runs(tmp_path, capsys):
    d1 = stats_dir(tmp_path, "r1", [(0, 0), (1, 3)])
    d2 = stats_dir(tmp_path, "r2", [(0, 0), (1, 5)])
    assert main(["report", d1, d2]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == "Average δ  Std. Error  Maximum  Time (s) δ>0"
    assert lines[-1].split() == ["4.00", "1.00", "5", "1.00"]
    assert f"{d1}: max_delta=3 first_positive_s=1" in lines


def test_report_identical_runs_zero_stderr(tmp_path, capsys):
    dirs = [stats_dir(tmp_path, f"r{i}", [(0, 47)]) for i in range(5)]
    assert main(["report", *dirs]) == 0
    cells = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert cells == ["47.00", "0.00", "47", "0.00"]


def test_report_single_run_has_no_stderr(tmp_path, capsys):
    d = stats_dir(tmp_path, "solo", [(0, 9)])
    assert main(["report", d]) == 0
    cells = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert cells == ["9.00", "-", "9", "0.00"]


def test_report_all_zero_runs(tmp_path, capsys):
    d1 = stats_dir(tmp_path, "z1", [(0, 0), (1, 0)])
    d2 = stats_dir(tmp_path, "z2", [(0, 0)])
    assert main(["report", d1, d2]) == 0
    out = capsys.readouterr().out
    cells = out.strip().splitlines()[-1].split()
    assert cells == ["0.00", "0.00", "0", "-"]
    assert f"{d1}: max_delta=0 first_positive_s=-" in out


def test_report_first_positive_uses_row_seconds(tmp_path, capsys):
    d = stats_dir(tmp_path, "late", [(0, 0), (1, 0), (2, 6), (3, 6)])
    assert main(["report", d]) == 0
    cells = capsys.readouterr().out.strip().splitlines()[-1].split()
    assert cells == ["6.00", "-", "6", "2.00"]


def test_report_missing_stats(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2
    assert "missing stats.csv" in capsys.readouterr().err


def test_report_dir_name_too_long_is_exit_two(tmp_path, capsys):
    run = tmp_path / ("r" * 300)  # longer than a file name may be
    assert main(["report", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stats file is not readable: ") and str(run) in err


def test_report_bad_header(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "stats.csv").write_text("time,delta\n0,1\n")
    assert main(["report", str(d)]) == 2
    assert "unrecognized" in capsys.readouterr().err


def test_report_stats_that_are_not_utf8_is_exit_two(tmp_path, capsys):
    d = tmp_path / "garbled"
    d.mkdir()
    (d / "stats.csv").write_bytes(b"\xff\xfe\x00garbage\n")
    assert main(["report", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stats file is not readable: ")
    assert str(d / "stats.csv") in err


def test_report_unreadable_stats_is_exit_two(tmp_path, monkeypatch, capsys):
    d = stats_dir(tmp_path, "locked", [(0, 1)])

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # chmod cannot lock root out, so the read itself raises
    monkeypatch.setattr(cli.Path, "read_text", refuse)
    assert main(["report", d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stats file is not readable: ")
    assert f"{d}/stats.csv" in err


@pytest.mark.parametrize(
    "row", ["1,101,abc,1,1", "1,101"], ids=["non_integer_cell", "missing_cell"]
)
def test_report_bad_row_is_a_config_error(tmp_path, capsys, row):
    d = stats_dir(tmp_path, "bad", [(0, 0)])
    with open(f"{d}/stats.csv", "a") as fh:
        fh.write(row + "\n")
    assert main(["report", d]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{d}/stats.csv, line 3" in err


def test_report_header_without_rows_is_a_config_error(tmp_path, capsys):
    # every campaign writes at least its final snapshot row
    d = stats_dir(tmp_path, "empty", [])
    assert main(["report", d]) == 2
    assert capsys.readouterr() == ("", f"error: {d}/stats.csv has a header and no rows\n")


def test_report_reads_real_campaign_output(tmp_path, capsys):
    assert (
        main(
            [
                "fuzz",
                "--driver",
                "pwcheck_unsafe",
                "--seeds",
                make_seeds(tmp_path),
                "--out",
                str(tmp_path / "run"),
                "--timeout",
                "2",
                "--pace",
                "400",
                "--stop-delta",
                "2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["report", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "Average δ" in out
    maximum = out.strip().splitlines()[-1].split()[2]
    assert int(maximum) >= 2


# --- the README's CLI contract ---------------------------------------------


def test_readme_cli_section_names_every_subcommand_and_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    (subparsers,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    missing = [name for name in subparsers.choices if f"deltafuzz {name}" not in section]
    missing += [
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", section)
    ]
    assert missing == []
