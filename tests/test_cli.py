"""CLI surface: subcommands, exit codes, and the aggregate report table."""

import json

import pytest

import deltafuzz.campaign as campaign
import deltafuzz.cli as cli
from deltafuzz.cli import main


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


def test_oracle_structured_json(capsys):
    code = main(["oracle", "--driver", "pwcheck_unsafe", "--len", "16", "--structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["max_delta"] == 30
    assert payload["mode"] == "structured"
    assert payload["statistic"] == "match-prefix-length"


def test_oracle_domain_too_large(capsys):
    code = main(["oracle", "--driver", "pwcheck_unsafe", "--len", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_oracle_unknown_driver(capsys):
    assert main(["oracle", "--driver", "nope", "--len", "1"]) == 2


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
    out = capsys.readouterr().out
    assert "verdict:        leak-indicated" in out
    for name in ("stats.csv", "witness.bin", "witness.txt", "report.txt"):
        assert (tmp_path / "out" / name).is_file()


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


def test_fuzz_bad_timeout(tmp_path):
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
            "0.5",
        ]
    )
    assert code == 2


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


def test_replay_missing_file(tmp_path, capsys):
    code = main(
        ["replay", "--driver", "pwcheck_unsafe", "--input", str(tmp_path / "no.bin")]
    )
    assert code == 2
    assert "not found" in capsys.readouterr().err


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


def test_report_bad_header(tmp_path, capsys):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "stats.csv").write_text("time,delta\n0,1\n")
    assert main(["report", str(d)]) == 2
    assert "unrecognized" in capsys.readouterr().err


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
