"""Campaign orchestration: seeds in, mutants through the harness, report out.

One campaign is one thread owning the queue, coverage, high score, and RNG.
`_schedule` alone sets the mutant order, and owns the forked child that makes
havoc mutants and runs stage executions ahead (see there). Every candidate
runs through the two-execution harness, in this process, but a stage flip of
dropped bytes takes its entry's result; corpus.consider keeps a candidate iff
it is a seed, reaches new coverage or strictly raises the delta high score.
stats.csv gets a row per second; the final report carries the verdict, the
witness triple, and the reminder that finding nothing proves nothing.

The clock has two modes: wall mode times out on real seconds, while paced
mode derives time from the evaluation count, making an entire campaign a
pure function of (config, seeds, rng_seed). At the end the witness is
replayed once, after the artifacts are written, and must reproduce the
reported delta.
"""

from __future__ import annotations

import csv
import os
import random
import time
from functools import partial
from itertools import chain, compress, cycle, repeat
from pathlib import Path
from typing import NamedTuple, Optional

from .corpus import FuzzQueue, consider, load_seeds
from .coverage import CoverageMap, GlobalCoverage
from .driver import (
    OUTCOME_HARNESS_ERROR,
    ConfigError,
    DiffResult,
    ParseReject,
    _execute,
    _tracer,
    checked,
    default_parse,
    fork_child,
    fork_cpus,
    get_driver,
    make_room,
    receive,
    replay_check,
    run_driver,
    segment_layout,
    send,
    stop_child,
    with_domain,
)
from .mutation import deterministic_stage, havoc, splice

VERDICT_NO_DIFFERENCE = "no-difference-found"
VERDICT_BELOW_EPSILON = "below-epsilon"
VERDICT_LEAK = "leak-indicated"

# mutants per queue visit, after the entry's one deterministic stage
HAVOC_ITERATIONS = 256
SPLICE_ITERATIONS = 32
# the havoc mutant counts after which the havoc child sends a chunk of them:
# a small first chunk, so the campaign soon has mutants to evaluate
_HAVOC_SENDS = frozenset(range(8, HAVOC_ITERATIONS, 24))
# the child runs stage executions ahead once the campaign's fresh traced
# executions have run STAGE_FORK_PROBES probes in all, or at once if they
# average STAGE_FORK_MEAN: below both, its help costs more than it saves
STAGE_FORK_PROBES = 50_000
STAGE_FORK_MEAN = 256
# live mutants of a stage the campaign runs itself while the child starts
_STAGE_LEAD = 24

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


@checked
class CampaignConfig(NamedTuple):
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

    def _check(self) -> None:
        if not self.timeout_seconds >= 1:  # NaN fails this, as it must
            raise ConfigError("timeout must be >= 1 second")
        if self.report_epsilon is not None and not self.report_epsilon >= 0:
            raise ConfigError("epsilon must be >= 0")
        if self.max_input_len < 1:
            raise ConfigError("max input length must be >= 1")
        if self.pace is not None and self.pace < 1:
            raise ConfigError("pace must be >= 1 evaluations per second")
        if self.stop_on_delta is not None and self.stop_on_delta < 1:
            raise ConfigError("stop-delta must be >= 1")
        if self.rng_seed < 0:  # random.Random(-n) would repeat the stream of n
            raise ConfigError("rng seed must be >= 0")


class CampaignReport(NamedTuple):
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
    stats_rows: tuple[tuple[int, int, int, int, int], ...] = ()


def _turns():
    """Per live mutant of a stage the child helps, whether the child runs its
    executions: none of the first _STAGE_LEAD + 1, then every second."""
    return chain(repeat(False, _STAGE_LEAD + 1), cycle((True, False)))


def _serve(spec, requests, replies) -> None:
    """The campaign child's loop, until the campaign closes its requests. Per
    ("havoc", data, max_len, rng state): the visit's havoc mutants as chunks
    (mutants, end), end None until the last, then the final rng state; if
    havoc raises, the mutants before it go out and the error is raised. Per
    ("stage", data, live): the runs of the live mutants _turns gives the
    child, each a pair, in chunks of 1, then 8 pairs. A run is an execution
    whose path token is complemented, so negative: a name the campaign, whose
    tokens count up from 0, never draws. It is None if its output will not
    pickle."""
    import pickle

    rng, tracer, memo = random.Random(), _tracer(spec), {}
    while True:
        try:
            kind, data, *args = pickle.load(requests)
        except EOFError:
            return
        if kind == "havoc":
            max_len, state = args
            rng.setstate(state)
            mutants, end = [], None
            try:
                for i in range(HAVOC_ITERATIONS):
                    if i in _HAVOC_SENDS:
                        send(replies, (mutants, None))
                        mutants = []
                    mutants.append(havoc(data, max_len, rng))
                end = rng.getstate()
            finally:
                send(replies, (mutants, end))
            continue
        (live,) = args
        stage = (m for m in deterministic_stage(data, live) if type(m) is bytes)
        chunk = []
        for n, mutant in enumerate(compress(stage, _turns()), 1):
            pub, *secs = default_parse(mutant, spec.constraints)
            chunk.append(pair := [])
            for key in ((pub, sec) for sec in secs):
                if key not in memo:
                    make_room(memo)
                    cost, out, note, (token, edges) = _execute(spec.target, tracer, *key)
                    try:
                        memo[key] = (cost, pickle.loads(pickle.dumps(out)), note, (~token, edges))
                    except Exception:  # noqa: BLE001 - whatever the round trip raises
                        memo[key] = None  # the campaign runs it
                pair.append(memo[key])
            if n % 8 == 1:
                send(replies, chunk)
                chunk = []
        if chunk:
            send(replies, chunk)


def _remember(memo: dict, triple: tuple, pair: list) -> None:
    """Put the child's runs of triple's executions into memo, unchanged,
    where it lacks them, under run_driver's rule."""
    pub, *secs = triple
    for sec, run in zip(secs, pair):
        if run is not None and (pub, sec) not in memo:
            make_room(memo)
            memo[pub, sec] = run


def _schedule(seeds: list, queue: FuzzQueue, rng: random.Random, max_len: int,
              cap: Optional[int], spec, cov: CoverageMap, killed: list):
    """(input, parent entry id) in evaluation order: the seeds, then the
    queue round-robin, in cycles over the entries present at each cycle's
    start. Per pick: the deterministic stage on the entry's first visit,
    HAVOC_ITERATIONS havoc mutants and up to SPLICE_ITERATIONS splices. The
    caller enqueues between yields, so each cycle and splice partner sees
    the queue so far; an empty queue after the seeds is a LookupError.
    With cap None there is no stage; else a run of flips of bytes that
    segment_layout drops at cap, each decoding to the entry's own triple,
    comes as (its length, parent).

    Evaluations stay in this process, since each can change the queue the
    next pick and splice draw from; but a pick's havoc mutants depend only
    on the entry and the rng state at its start, and a mutant's executions
    on its bytes. So if fork_cpus allows two CPUs, a child serving _serve
    makes both ahead. A stage whose function takes the mask goes to the
    child whole if, before its first mutant, this campaign's fresh traced
    executions have run STAGE_FORK_PROBES probes in all or average
    STAGE_FORK_MEAN; else none of it does. _turns says which live mutants
    the child runs; this process runs the others, and puts the child's runs
    of each of the child's into cov's memo before yielding it. The
    child is forked for the first stage that goes to it or, if earlier, at
    the first havoc mutant. Per pick the child gets the entry and the rng
    state, makes the havoc mutants from its copy of that state and sends
    them in chunks, the last with its final rng state, which is taken here;
    so every later draw is inline havoc's. An error in havoc is raised at
    the same point of the stream as inline. Closing the generator kills the
    child and closes its pipes, and puts its pid in killed, for the caller
    to reap once it has no more use for this CPU."""
    tracer = _tracer(spec) if cap is not None else None
    probes, runs = (tracer.probes, tracer.runs) if tracer else (0, 0)  # tracers outlive campaigns
    for _, data in seeds:
        yield data, None
    child = None  # (pid, request writer, reply reader) once forked; () when inline
    visited = 0  # entries that earlier cycles covered
    try:
        while True:
            n = len(queue.entries)
            if not n:
                raise LookupError("queue is empty")
            for entry in queue.entries[:n]:
                data, parent = entry.data, entry.entry_id
                if cap is not None and parent >= visited:
                    live = sum((1 << 8 * k) - 1 << 8 * o for o, k in segment_layout(len(data), cap))
                    stage, ahead = deterministic_stage, None
                    masked = stage.__code__.co_argcount > 1  # a tracer's stand-in may take no mask
                    if masked and (
                        (done := tracer.probes - probes) >= STAGE_FORK_PROBES
                        or done >= STAGE_FORK_MEAN * max(tracer.runs - runs, 1)
                    ):
                        if child is None:
                            child = fork_child(partial(_serve, spec)) if fork_cpus() >= 2 else ()
                        if child:
                            send(child[1], ("stage", data, live))
                            # the child's pairs, a reply received when needed
                            ahead = chain.from_iterable(iter(partial(receive, child, "stage"), None))
                            turns = _turns()
                    for mutant in stage(data, live) if masked else stage(data):
                        if ahead and type(mutant) is bytes and next(turns):
                            _remember(cov.memo, default_parse(mutant, spec.constraints), next(ahead))
                        yield mutant, parent
                if child is None:
                    child = fork_child(partial(_serve, spec)) if fork_cpus() >= 2 else ()
                if child:
                    send(child[1], ("havoc", data, max_len, rng.getstate()))
                    end = None
                    while end is None:
                        mutants, end = receive(child, "havoc")
                        for mutant in mutants:
                            yield mutant, parent
                    rng.setstate(end)
                else:
                    for _ in range(HAVOC_ITERATIONS):
                        yield havoc(data, max_len, rng), parent
                for _ in range(SPLICE_ITERATIONS):
                    mutant = splice(data, rng.choice(queue.entries).data, max_len, rng)
                    if mutant is not None:
                        yield mutant, parent
            visited = n
    finally:
        if child and (pid := stop_child(child)):
            killed.append(pid)


def _add_rows(rows: list, second: int, until: float, *snapshot: int) -> int:
    """A stats row per whole second from second through until; returns the next due."""
    while second <= until:
        rows.append((second, *snapshot))
        second += 1
    return second


def run_campaign(config: CampaignConfig) -> CampaignReport:
    spec = with_domain(
        get_driver(config.driver_name), config.segment_cap, config.charset, config.cost_dimension
    )
    dim = spec.cost_dimension
    seeds = load_seeds(config.seed_dir, config.max_input_len)
    for name, data in seeds:  # before the output directory is touched
        try:
            default_parse(data, spec.constraints)
        except ParseReject as exc:
            raise ConfigError(f"seed {name!r} does not parse: {exc}") from None
    _tracer(spec)  # an untraceable target, too, is refused before the first write

    out_dir = Path(config.out_dir)
    queue = FuzzQueue(out_dir / "queue")
    global_cov = GlobalCoverage()
    rng = random.Random(config.rng_seed)
    pace, stop_on_delta, timeout = config.pace, config.stop_on_delta, config.timeout_seconds
    start = time.monotonic()

    executions = 0
    best, witness = 0, None  # the delta high score and the first input to reach it
    first_positive: Optional[float] = None
    harness_errors = 0
    error_notes: dict[str, None] = {}  # insertion-ordered de-dup
    stats_rows: list[tuple[int, int, int, int, int]] = []
    next_row_second = 0

    # One map for every evaluation, so its memo and folded pairs span the
    # campaign; an empty map adds nothing, so consider runs only for a map
    # with edges, a delta above the high score or a seed (see run_driver).
    cov = CoverageMap()

    stop_reason = "timeout"
    cap = spec.constraints.max_segment_len if config.deterministic_stage_enabled else None
    killed: list[int] = []  # the child's pid once the schedule has killed it
    schedule = _schedule(seeds, queue, rng, config.max_input_len, cap, spec, cov, killed)
    staged: dict[int, DiffResult] = {}  # by entry id: its untraced result, for its dead runs
    try:
        try:
            for data, parent_id in schedule:
                cov.clear()
                if type(data) is int:  # a dead run: no map, no delta above the high score
                    if parent_id not in staged:
                        staged[parent_id] = run_driver(spec, queue.entries[parent_id].data)
                    end, result = executions + data, staged[parent_id]
                else:
                    end, result = executions + 1, run_driver(spec, data, cov)
                delta = result.delta_of(dim)
                improved = delta > best
                keep = improved or parent_id is None  # every seed is queued
                while executions < end:  # a pass per evaluation, of a repeat or a dead run too
                    executions += 1
                    # campaign time: evaluations/pace when paced, else elapsed seconds
                    at = time.monotonic() - start if pace is None else executions / pace
                    if cov or keep:
                        consider(queue, data, delta, keep, cov, global_cov, parent_id)
                        if improved:
                            if first_positive is None:
                                first_positive = at
                            best, witness = delta, data
                    if result.outcome == OUTCOME_HARNESS_ERROR:
                        harness_errors += 1
                        if len(error_notes) < 8:
                            error_notes.setdefault(result.note)
                    if at >= next_row_second:
                        next_row_second = _add_rows(
                            stats_rows, next_row_second, at, executions, best, len(global_cov), len(queue)
                        )
                    if stop_on_delta is not None and best >= stop_on_delta:
                        stop_reason = "delta-target-reached"
                    if at >= timeout or stop_reason != "timeout":
                        break
                else:
                    continue
                break
        except KeyboardInterrupt:
            # stop like any other stop: the artifacts below still get written
            stop_reason = "interrupted"
        finally:
            schedule.close()  # on every stop: it kills the child, reaped below

        duration = time.monotonic() - start if pace is None else executions / pace
        snapshot = (executions, best, len(global_cov), len(queue))
        _add_rows(stats_rows, next_row_second, duration, *snapshot)
        stats_rows.append((int(duration), *snapshot))  # final snapshot, even mid-second

        # with no positive delta, the first seed stands as the exhibit
        witness_data = witness or seeds[0][1]
        report = CampaignReport(
            driver=spec.name,
            dimension=dim,
            verdict=verdict(best, config.report_epsilon),
            max_delta=best,
            witness_data=witness_data,
            witness_decoded=default_parse(witness_data, spec.constraints),
            first_positive_at=first_positive,
            executions=executions,
            coverage_count=len(global_cov),
            queue_size=len(queue),
            harness_error_count=harness_errors,
            harness_error_notes=tuple(error_notes),
            duration=duration,
            stop_reason=stop_reason,
            report_epsilon=config.report_epsilon,
            stats_rows=tuple(stats_rows),
        )
        _write_outputs(out_dir, report)
        # checked once the artifacts are on disk: a witness that does not replay
        # is a fault of the target. With no evaluation done (Ctrl-C in the first
        # run) there is nothing to check, and re-running could hang again.
        if executions:
            replay_check(spec, witness_data, best)
        return report
    finally:  # on every exit, last: the kernel tears the child down meanwhile
        for pid in killed:
            os.waitpid(pid, 0)


def triple_lines(decoded: tuple[bytes, bytes, bytes], prefix: str = "") -> list[str]:
    """The hex lines of a decoded (pub, sec1, sec2) triple, as every output shows them."""
    labels = ("pub:   ", "sec_1: ", "sec_2: ")
    return [f"{prefix}{label}{part.hex()}" for label, part in zip(labels, decoded)]


def _write_outputs(out_dir: Path, report: CampaignReport) -> None:
    with open(out_dir / "stats.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        writer.writerows(report.stats_rows)

    (out_dir / "witness.bin").write_bytes(report.witness_data)

    witness_lines = [
        f"driver: {report.driver}",
        f"dimension: {report.dimension}",
        f"delta: {report.max_delta}",
        *triple_lines(report.witness_decoded),
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
        *triple_lines(report.witness_decoded, "witness "),
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
