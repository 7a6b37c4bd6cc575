"""Command-line front end: fuzz, replay, oracle, list-drivers, report.

Exit codes: 0 on normal completion (a leak-indicated verdict is a normal,
successful outcome), 2 on configuration errors, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from pathlib import Path

from .campaign import CampaignConfig, replay, run_campaign
from .driver import CHARSETS, ConfigError, driver_names, get_driver
from .metering import DIMENSION_ALIASES
from .oracle import DEFAULT_BUDGET, exhaustive_max_delta, structured_max_delta

DIMENSION_CHOICES = tuple(DIMENSION_ALIASES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltafuzz",
        description=(
            "differential greybox fuzzer: runs a target twice per input "
            "(one public input, two secrets) and hunts for cost differences"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    fuzz.add_argument("--driver", required=True, help="registered driver name")
    fuzz.add_argument(
        "--dimension",
        choices=DIMENSION_CHOICES,
        default=None,
        help="cost dimension to maximize (default: the driver's)",
    )
    fuzz.add_argument("--seeds", required=True, help="seed input directory")
    fuzz.add_argument("--out", required=True, help="campaign output directory")
    fuzz.add_argument("--timeout", type=float, default=30.0, help="seconds to run")
    fuzz.add_argument("--max-len", type=int, default=48, help="input byte cap")
    fuzz.add_argument("--rng-seed", type=int, default=0)
    fuzz.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="verdict threshold; 0 < delta < epsilon reports below-epsilon",
    )
    fuzz.add_argument(
        "--segment-cap", type=int, default=None, help="override per-segment byte cap"
    )
    fuzz.add_argument(
        "--charset",
        choices=sorted(CHARSETS),
        default=None,
        help="override the driver's segment charset",
    )
    fuzz.add_argument(
        "--pace",
        type=int,
        default=None,
        help="virtual clock: evaluations per second (makes runs reproducible)",
    )
    fuzz.add_argument(
        "--stop-delta",
        type=int,
        default=None,
        help="stop early once the high score reaches this delta",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    rep = sub.add_parser("replay", help="run one input through the harness")
    rep.add_argument("--driver", required=True)
    rep.add_argument("--input", required=True, help="raw input file")
    rep.add_argument("--dimension", choices=DIMENSION_CHOICES, default=None)
    rep.add_argument("--segment-cap", type=int, default=None)
    rep.add_argument("--charset", choices=sorted(CHARSETS), default=None)
    rep.set_defaults(func=_cmd_replay)

    orc = sub.add_parser("oracle", help="ground-truth max delta on a small domain")
    orc.add_argument("--driver", required=True)
    orc.add_argument("--len", dest="segment_len", type=int, required=True)
    orc.add_argument("--alphabet", choices=("binary", "byte"), default="byte")
    orc.add_argument(
        "--structured",
        action="store_true",
        help="enumerate the driver's declared cost statistic instead of raw bytes",
    )
    orc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    orc.set_defaults(func=_cmd_oracle)

    lst = sub.add_parser("list-drivers", help="enumerate registered drivers")
    lst.set_defaults(func=_cmd_list)

    rpt = sub.add_parser(
        "report", help="aggregate repeated campaign runs into one summary row"
    )
    rpt.add_argument("dirs", nargs="+", metavar="DIR")
    rpt.set_defaults(func=_cmd_report)

    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        driver_name=args.driver,
        seed_dir=args.seeds,
        out_dir=args.out,
        timeout_seconds=args.timeout,
        cost_dimension=args.dimension,
        max_input_len=args.max_len,
        rng_seed=args.rng_seed,
        report_epsilon=args.epsilon,
        segment_cap=args.segment_cap,
        charset=args.charset,
        pace=args.pace,
        stop_on_delta=args.stop_delta,
    )
    report = run_campaign(config)
    first = (
        f"{report.first_positive_at:.3f}"
        if report.first_positive_at is not None
        else "never"
    )
    print(f"driver:         {report.driver}")
    print(f"dimension:      {report.dimension}")
    print(f"verdict:        {report.verdict}")
    print(f"max delta:      {report.max_delta}")
    print(f"first positive: {first}")
    print(f"executions:     {report.executions}")
    print(f"outputs:        {report.out_dir}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.input)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    result = replay(
        args.driver,
        path.read_bytes(),
        dimension=args.dimension,
        segment_cap=args.segment_cap,
        charset=args.charset,
    )
    print(f"outcome: {result.outcome}")
    if result.outcome == "parse_reject":
        print(f"note: {result.note}")
        raise ConfigError(f"input rejected by the parser: {result.note}")
    pub, sec1, sec2 = result.decoded
    print(f"pub:   {pub.hex()}")
    print(f"sec_1: {sec1.hex()}")
    print(f"sec_2: {sec2.hex()}")
    print(
        "delta: ops={0} peak_mem={1} response_bytes={2}".format(
            result.delta.ops, result.delta.peak_mem, result.delta.response_bytes
        )
    )
    if result.note:
        print(f"note: {result.note}")
    if result.output_mismatch:
        print("note: the two executions returned different outputs")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = get_driver(args.driver)
    if args.structured:
        res = structured_max_delta(spec, args.segment_len, charset=args.alphabet)
    else:
        res = exhaustive_max_delta(
            spec, args.segment_len, charset=args.alphabet, budget=args.budget
        )
    pub, sec1, sec2 = res.decoded
    print(f"driver:    {res.driver}")
    print(f"mode:      {res.mode}")
    print(f"domain:    len={res.segment_len} alphabet={res.charset}")
    print(f"dimension: {res.dimension}")
    print(f"max delta: {res.max_delta}")
    print(f"pub:   {pub.hex()}")
    print(f"sec_1: {sec1.hex()}")
    print(f"sec_2: {sec2.hex()}")
    print(f"executions: {res.executions}")
    print(
        json.dumps(
            {
                "driver": res.driver,
                "mode": res.mode,
                "segment_len": res.segment_len,
                "alphabet": res.charset,
                "dimension": res.dimension,
                "max_delta": res.max_delta,
                "witness_hex": res.witness.hex(),
                "pub_hex": pub.hex(),
                "sec_1_hex": sec1.hex(),
                "sec_2_hex": sec2.hex(),
                "executions": res.executions,
                "statistic": res.statistic,
            }
        )
    )
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name in driver_names():
        spec = get_driver(name)
        cons = spec.constraints
        stat = spec.statistic.name if spec.statistic else "-"
        print(
            f"{name:24s} dim={spec.cost_dimension:14s} "
            f"cap={cons.max_segment_len:<3d} charset={cons.charset:6s} "
            f"statistic={stat}"
        )
        if spec.description:
            print(f"{'':24s} {spec.description}")
    return 0


def _read_run(out_dir: Path) -> tuple[int, int | None]:
    """(final max_delta, first second with positive delta) from stats.csv."""
    stats = out_dir / "stats.csv"
    if not stats.is_file():
        raise ConfigError(f"missing stats.csv in {out_dir}")
    with open(stats, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"seconds", "max_delta"} <= set(reader.fieldnames or ()):
            raise ConfigError(f"unrecognized stats.csv header in {out_dir}")
        rows = []
        for row in reader:
            try:
                rows.append((int(row["seconds"]), int(row["max_delta"])))
            except (TypeError, ValueError):  # a missing cell reads as None
                raise ConfigError(
                    f"{stats}, line {reader.line_num}: seconds and max_delta "
                    "must be integers"
                ) from None
    max_delta = max((delta for _, delta in rows), default=0)
    first_positive = next((sec for sec, delta in rows if delta > 0), None)
    return max_delta, first_positive


def _cmd_report(args: argparse.Namespace) -> int:
    runs = [_read_run(Path(d)) for d in args.dirs]
    for d, (delta, first) in zip(args.dirs, runs):
        shown = first if first is not None else "-"
        print(f"{d}: max_delta={delta} first_positive_s={shown}")

    deltas = [delta for delta, _ in runs]
    firsts = [first for _, first in runs if first is not None]
    avg = statistics.fmean(deltas)
    stderr = (
        statistics.stdev(deltas) / math.sqrt(len(deltas)) if len(deltas) > 1 else None
    )
    avg_first = statistics.fmean(firsts) if firsts else None

    headers = ("Average δ", "Std. Error", "Maximum", "Time (s) δ>0")
    cells = (
        f"{avg:.2f}",
        f"{stderr:.2f}" if stderr is not None else "-",
        f"{max(deltas)}",
        f"{avg_first:.2f}" if avg_first is not None else "-",
    )
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
