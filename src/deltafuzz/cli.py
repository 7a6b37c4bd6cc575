"""Command-line front end: fuzz, replay, oracle, list-drivers, report.

Exit codes: 0 on normal completion (a leak-indicated verdict is a normal,
successful outcome, and so is an interrupted campaign), 2 on configuration
errors, 3 on internal errors, 130 on an interrupt outside a campaign.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .campaign import CampaignConfig, replay, run_campaign, triple_lines
from .driver import CHARSETS, OUTCOME_PARSE_REJECT, ConfigError, driver_names, get_driver
from .metering import DIMENSION_ALIASES


def _domain_flags(parser: argparse.ArgumentParser) -> None:
    """The cost dimension and domain overrides that fuzz and replay share."""
    parser.add_argument(
        "--dimension",
        choices=DIMENSION_ALIASES,
        help="cost dimension to maximize (default: the driver's)",
    )
    parser.add_argument("--segment-cap", type=int, help="override per-segment byte cap")
    parser.add_argument(
        "--charset", choices=sorted(CHARSETS), help="override the driver's segment charset"
    )


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
    _domain_flags(fuzz)
    fuzz.add_argument("--seeds", required=True, help="seed input directory")
    fuzz.add_argument("--out", required=True, help="campaign output directory")
    default = CampaignConfig._field_defaults
    fuzz.add_argument(
        "--timeout", type=float, default=default["timeout_seconds"], help="seconds to run"
    )
    fuzz.add_argument("--max-len", type=int, default=default["max_input_len"], help="input byte cap")
    rng_help = "mutation RNG seed, >= 0 (default: %(default)s)"
    fuzz.add_argument("--rng-seed", type=int, default=default["rng_seed"], help=rng_help)
    fuzz.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="verdict threshold; 0 < delta < epsilon reports below-epsilon",
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
    _domain_flags(rep)
    rep.set_defaults(func=_cmd_replay)

    orc = sub.add_parser("oracle", help="ground-truth max delta on a small domain")
    orc.add_argument("--driver", required=True)
    orc.add_argument("--len", dest="segment_len", type=int, required=True)
    orc.add_argument("--alphabet", choices=sorted(CHARSETS), default="byte")
    orc.add_argument(
        "--structured",
        action="store_true",
        help="enumerate the driver's declared cost statistic instead of raw bytes",
    )
    orc.add_argument("--budget", type=int)  # None: the oracle's DEFAULT_BUDGET
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
    run_campaign(config)
    print((Path(args.out) / "report.txt").read_text(), end="")
    print(f"outputs: {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    path = Path(args.input)
    try:  # a check, too, raises for a name too long
        if not path.is_file():
            raise ConfigError(f"input file not found: {path}")
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"input file is not readable: {path} ({exc})") from None
    result = replay(
        args.driver,
        data,
        dimension=args.dimension,
        segment_cap=args.segment_cap,
        charset=args.charset,
    )
    print(f"outcome: {result.outcome}")
    if result.outcome == OUTCOME_PARSE_REJECT:
        print(f"note: {result.note}")
        raise ConfigError(f"input rejected by the parser: {result.note}")
    print(*triple_lines(result.decoded), sep="\n")
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
    # here, not at the top: only this subcommand runs the oracle
    import json

    from .oracle import DEFAULT_BUDGET, exhaustive_max_delta, structured_max_delta

    spec = get_driver(args.driver)
    if args.structured:
        res = structured_max_delta(spec, args.segment_len, charset=args.alphabet)
    else:
        budget = DEFAULT_BUDGET if args.budget is None else args.budget
        res = exhaustive_max_delta(spec, args.segment_len, charset=args.alphabet, budget=budget)
    pub, sec1, sec2 = res.decoded
    print(f"driver:    {res.driver}")
    print(f"mode:      {res.mode}")
    print(f"domain:    len={res.segment_len} alphabet={res.charset}")
    print(f"dimension: {res.dimension}")
    print(f"max delta: {res.max_delta}")
    print(*triple_lines(res.decoded), sep="\n")
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
    try:  # a check, too, raises for a name too long
        if not stats.is_file():
            raise ConfigError(f"missing stats.csv in {out_dir}")
        text = stats.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"stats file is not readable: {stats} ({exc})") from None
    reader = csv.DictReader(text.splitlines())
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
    if not rows:  # every campaign writes at least its final snapshot row
        raise ConfigError(f"{stats} has a header and no rows")
    max_delta = max(delta for _, delta in rows)
    first_positive = next((sec for sec, delta in rows if delta > 0), None)
    return max_delta, first_positive


def _cmd_report(args: argparse.Namespace) -> int:
    import statistics  # here, not at the top: only this subcommand uses it

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
    except KeyboardInterrupt:  # a campaign catches its own and exits 0
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
