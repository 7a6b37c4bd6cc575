"""Campaign orchestration: seeds in, mutants through the harness, report out.

One campaign is one thread owning the queue, coverage, high score, and RNG.
Inputs cycle round-robin; each entry gets the deterministic stage on its
first visit, then bounded havoc and splice passes. Every candidate runs
through the two-execution harness and is kept iff it reaches new coverage
or strictly raises the delta high score. Progress lands in stats.csv at one
row per second; the final report carries the verdict, the witness triple,
and the reminder that finding nothing proves nothing.

The clock has two modes: wall mode times out on real seconds, while paced
mode derives time from the evaluation count, making an entire campaign a
pure function of (config, seeds, rng_seed). At the end the witness is
replayed once, after the artifacts are written, and must reproduce the
reported delta.
"""

from __future__ import annotations

import csv
import logging
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .corpus import FuzzQueue, HighScore, consider, load_seeds
from .coverage import CoverageMap, GlobalCoverage
from .driver import (
    OUTCOME_PARSE_REJECT,
    ConfigError,
    DiffResult,
    default_parse,
    get_driver,
    replay_check,
    run_driver,
    with_domain,
)
from .mutation import deterministic_stage, havoc, splice

log = logging.getLogger(__name__)

VERDICT_NO_DIFFERENCE = "no-difference-found"
VERDICT_BELOW_EPSILON = "below-epsilon"
VERDICT_LEAK = "leak-indicated"

# mutants per queue visit, after the entry's one deterministic stage
HAVOC_ITERATIONS = 256
SPLICE_ITERATIONS = 32

STATS_HEADER = ("seconds", "executions", "max_delta", "coverage_count", "queue_size")

# stating this in every report is part of the output contract
NO_PROOF_NOTE = (
    "A verdict of no-difference-found means no cost difference was observed\n"
    "within this campaign's budget; it does not prove the absence of side\n"
    "channels."
)


def verdict(max_delta: int, report_epsilon: Optional[float] = None) -> str:
    if max_delta < 0:
        raise ValueError("max_delta must be >= 0")
    if max_delta == 0:
        return VERDICT_NO_DIFFERENCE
    if report_epsilon is not None and max_delta < report_epsilon:
        return VERDICT_BELOW_EPSILON
    return VERDICT_LEAK


@dataclass(frozen=True)
class CampaignConfig:
    driver_name: str
    seed_dir: str
    out_dir: str
    timeout_seconds: float = 30.0
    cost_dimension: Optional[str] = None  # None: the driver's default
    max_input_len: int = 48
    rng_seed: int = 0
    report_epsilon: Optional[float] = None
    segment_cap: Optional[int] = None
    charset: Optional[str] = None
    deterministic_stage_enabled: bool = True
    pace: Optional[int] = None
    stop_on_delta: Optional[int] = None
    # library-only early stop; not reachable from the CLI and not picklable
    stop_condition: Optional[Callable[[DiffResult], bool]] = None

    def __post_init__(self):
        if self.timeout_seconds < 1:
            raise ConfigError("timeout must be >= 1 second")
        if self.report_epsilon is not None and self.report_epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.max_input_len < 1:
            raise ConfigError("max input length must be >= 1")
        if self.pace is not None and self.pace < 1:
            raise ConfigError("pace must be >= 1 evaluations per second")
        if self.stop_on_delta is not None and self.stop_on_delta < 1:
            raise ConfigError("stop-delta must be >= 1")


@dataclass(frozen=True)
class CampaignReport:
    driver: str
    dimension: str
    verdict: str
    max_delta: int
    witness_data: bytes
    witness_decoded: tuple[bytes, bytes, bytes]
    first_positive_at: Optional[float]
    executions: int
    coverage_count: int
    queue_size: int
    harness_error_count: int
    harness_error_notes: tuple[str, ...]
    duration: float
    stop_reason: str
    report_epsilon: Optional[float]
    out_dir: str
    stats_rows: tuple[tuple[int, int, int, int, int], ...] = field(repr=False, default=())


class _Stop(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def run_campaign(config: CampaignConfig) -> CampaignReport:
    spec = with_domain(
        get_driver(config.driver_name), config.segment_cap, config.charset, config.cost_dimension
    )
    dim = spec.cost_dimension
    seeds = load_seeds(config.seed_dir, config.max_input_len)

    out_dir = Path(config.out_dir)
    queue_dir = out_dir / "queue"
    if queue_dir.is_dir() and any(queue_dir.iterdir()):
        raise ConfigError(f"output directory holds an earlier run's queue: {out_dir}")
    try:
        queue = FuzzQueue(queue_dir)
    except OSError as exc:  # out_dir is, or lies under, a file; or is not writable
        raise ConfigError(f"cannot create output directory {queue_dir}: {exc.strerror}") from None
    global_cov = GlobalCoverage()
    high = HighScore()
    rng = random.Random(config.rng_seed)
    max_len = config.max_input_len
    pace = config.pace
    start = time.monotonic()

    executions = 0
    first_positive: Optional[float] = None
    harness_errors = 0
    error_notes: dict[str, None] = {}  # insertion-ordered de-dup
    stats_rows: list[tuple[int, int, int, int, int]] = []
    next_row_second = 0

    def now() -> float:
        """Campaign time: evaluations/pace when paced, so every artifact
        depends only on the evaluation sequence; else real elapsed seconds."""
        if pace is None:
            return time.monotonic() - start
        return executions / pace

    def row(second: int) -> tuple[int, int, int, int, int]:
        return (second, executions, high.value, global_cov.nonzero_count(), len(queue))

    def emit_rows() -> None:
        nonlocal next_row_second
        current = int(now())
        while next_row_second <= current:
            stats_rows.append(row(next_row_second))
            next_row_second += 1

    # One map for every evaluation, the memo of the executions traced into
    # it, and the path pairs folded into it. An evaluation whose two
    # executions are both remembered still goes through consider: they may
    # come from two earlier evaluations, so their delta and their summed hit
    # counts can be new. A pair of paths folded before leaves the map empty,
    # as global_cov holds all it can show; its delta can still be new.
    cov = CoverageMap()
    cov.memo = OrderedDict()
    cov.folded = set()

    def evaluate(data: bytes, parent_id: Optional[int]) -> DiffResult:
        nonlocal executions, first_positive, harness_errors
        cov.clear()
        result = run_driver(spec, data, cov)
        executions += 1
        at = now()
        if result.outcome != OUTCOME_PARSE_REJECT:
            consider(queue, data, result, cov, global_cov, high, dim, parent_id)
            if first_positive is None and result.delta_of(dim) > 0:
                first_positive = at
            if result.note is not None:
                harness_errors += 1
                if len(error_notes) < 8:
                    error_notes.setdefault(result.note)
        emit_rows()
        if config.stop_condition is not None and config.stop_condition(result):
            raise _Stop("stop-condition")
        if config.stop_on_delta is not None and high.value >= config.stop_on_delta:
            raise _Stop("delta-target-reached")
        if now() >= config.timeout_seconds:
            raise _Stop("timeout")
        return result

    log.info(
        "campaign start: driver=%s dimension=%s timeout=%ss seeds=%d",
        spec.name,
        dim,
        config.timeout_seconds,
        len(seeds),
    )

    stop_reason = "timeout"
    det_done: set[int] = set()
    try:
        for name, data in seeds:
            result = evaluate(data, None)
            if result.outcome == OUTCOME_PARSE_REJECT:
                raise ConfigError(f"seed {name!r} does not parse: {result.note}")
            if not queue.seen(data):
                # seeds are enqueued even when boring; they anchor the corpus
                queue.add(data, best_delta=result.delta_of(dim))
        while True:
            entry = queue.next()
            if entry.entry_id not in det_done:
                det_done.add(entry.entry_id)
                if config.deterministic_stage_enabled:
                    for mutant in deterministic_stage(entry.data):
                        evaluate(mutant, entry.entry_id)
            for _ in range(HAVOC_ITERATIONS):
                evaluate(havoc(entry.data, max_len, rng), entry.entry_id)
            for _ in range(SPLICE_ITERATIONS):
                partner = rng.choice(queue.entries).data
                mutant = splice(entry.data, partner, max_len, rng)
                if mutant is not None:
                    evaluate(mutant, entry.entry_id)
    except _Stop as stop:
        stop_reason = stop.reason
    except KeyboardInterrupt:
        # stop like any other stop: the artifacts below still get written
        stop_reason = "interrupted"

    emit_rows()
    duration = now()
    stats_rows.append(row(int(duration)))  # final snapshot, even mid-second

    # with no positive delta, the first seed stands as the exhibit
    witness_data = high.witness_data or seeds[0][1]
    report = CampaignReport(
        driver=spec.name,
        dimension=dim,
        verdict=verdict(high.value, config.report_epsilon),
        max_delta=high.value,
        witness_data=witness_data,
        witness_decoded=default_parse(witness_data, spec.constraints),
        first_positive_at=first_positive,
        executions=executions,
        coverage_count=global_cov.nonzero_count(),
        queue_size=len(queue),
        harness_error_count=harness_errors,
        harness_error_notes=tuple(error_notes),
        duration=duration,
        stop_reason=stop_reason,
        report_epsilon=config.report_epsilon,
        out_dir=str(out_dir),
        stats_rows=tuple(stats_rows),
    )
    _write_outputs(out_dir, report)
    # checked once the artifacts are on disk: a witness that does not replay
    # is a fault of the target. With no evaluation done (Ctrl-C in the first
    # run) there is nothing to check, and re-running could hang again.
    if executions:
        replay_check(spec, witness_data, high.value)
    log.info(
        "campaign done: verdict=%s max_delta=%d executions=%d (%s)",
        report.verdict,
        report.max_delta,
        report.executions,
        stop_reason,
    )
    return report


def _write_outputs(out_dir: Path, report: CampaignReport) -> None:
    with open(out_dir / "stats.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        writer.writerows(report.stats_rows)

    (out_dir / "witness.bin").write_bytes(report.witness_data)

    pub, sec1, sec2 = (part.hex() for part in report.witness_decoded)
    witness_lines = [
        f"driver: {report.driver}",
        f"dimension: {report.dimension}",
        f"delta: {report.max_delta}",
        f"pub:   {pub}",
        f"sec_1: {sec1}",
        f"sec_2: {sec2}",
        "",
    ]
    (out_dir / "witness.txt").write_text("\n".join(witness_lines))

    first = (
        f"{report.first_positive_at:.3f} s"
        if report.first_positive_at is not None
        else "never"
    )
    epsilon = (
        f"{report.report_epsilon:g}" if report.report_epsilon is not None else "(not set)"
    )
    lines = [
        "differential fuzzing report",
        "===========================",
        f"driver:            {report.driver}",
        f"cost dimension:    {report.dimension}",
        f"verdict:           {report.verdict}",
        f"max delta:         {report.max_delta}",
        f"epsilon:           {epsilon}",
        f"first positive:    {first}",
        f"executions:        {report.executions}",
        f"edges covered:     {report.coverage_count}",
        f"queue size:        {report.queue_size}",
        f"harness errors:    {report.harness_error_count}",
        f"stop reason:       {report.stop_reason}",
        f"duration:          {report.duration:.3f} s",
        f"witness pub:   {pub}",
        f"witness sec_1: {sec1}",
        f"witness sec_2: {sec2}",
    ]
    for note in report.harness_error_notes:
        lines.append(f"harness error note: {note}")
    lines += ["", NO_PROOF_NOTE, ""]
    (out_dir / "report.txt").write_text("\n".join(lines))


def replay(
    driver_name: str,
    data: bytes,
    dimension: Optional[str] = None,
    segment_cap: Optional[int] = None,
    charset: Optional[str] = None,
) -> DiffResult:
    """One harness pass over raw input bytes, under the same domain knobs
    the campaign used; replaying a campaign witness reproduces its delta."""
    return run_driver(with_domain(get_driver(driver_name), segment_cap, charset, dimension), data)
