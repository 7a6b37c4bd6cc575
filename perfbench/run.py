#!/usr/bin/env python3
"""deltafuzz benchmark: runs one workload for a while and prints its metrics.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 22 --trace 0

Run from a checkout of the repository; the library is imported from its
src/ directory. The load is a closed loop: one campaign at a time in this
process. A run repeats its workload's round of jobs (see workloads.py) until
--seconds have passed, at least twice, checks every result, and prints as
its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
an outside-in trace (layers.py). README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Every timing is scaled by CALIB_REF_S / (the calibration loop's time next
# to it), so figures read as on a host where that loop takes CALIB_REF_S.
# The host's speed drifts by up to 1.8x over seconds; the loop tracks it.
CALIB_REF_S = 0.025

SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import deltafuzz
deltafuzz.run_campaign(deltafuzz.CampaignConfig(
    driver_name=sys.argv[2], seed_dir=sys.argv[3], out_dir=sys.argv[4],
    timeout_seconds=1, pace=1))
print(time.perf_counter() - start)
"""


def calibrate() -> float:
    """Seconds for a fixed interpreter-bound loop that uses no deltafuzz code."""
    if sys.gettrace() is not None:
        raise RuntimeError("a trace function is still installed")
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Outcome:
    wall: float = 0.0  # seconds, as measured
    scaled: float = 0.0  # seconds, scaled by the calibration loop
    evals: int = 0
    max_delta: int = 0
    reached: bool = True  # hunt: stopped at truth before the cap
    fingerprint: tuple = ()
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.jobs = workloads.build(workload, seed)
        truths = {}  # the structured oracle takes ~1 s on modpow: once per domain
        for job in self.jobs:
            if (job.driver, job.segment_cap) not in truths:
                truths[job.driver, job.segment_cap] = self._truth(job)
        self.truths = [truths[job.driver, job.segment_cap] for job in self.jobs]
        self.seed_dirs = []
        for i, job in enumerate(self.jobs):
            seed_dir = work / "seeds" / str(i)
            if job.seed is not None:
                seed_dir.mkdir(parents=True)
                (seed_dir / "seed").write_bytes(job.seed)
            self.seed_dirs.append(seed_dir)
        self.runs = 0

    @staticmethod
    def _truth(job):
        """The structured oracle's maximum for a campaign, where one exists."""
        from deltafuzz import get_driver, structured_max_delta

        if job.is_sweep:
            return None
        spec = get_driver(job.driver)
        if spec.statistic is None:
            return None
        cap = job.segment_cap or spec.constraints.max_segment_len
        return structured_max_delta(spec, cap).max_delta

    def run_job(self, i: int, call) -> Outcome:
        from deltafuzz import CampaignConfig, exhaustive_max_delta, get_driver, replay, run_campaign

        job, truth, out = self.jobs[i], self.truths[i], Outcome()
        self.runs += 1
        if job.is_sweep:
            spec = get_driver(job.driver)
            start = time.perf_counter()
            try:
                res = call(
                    "oracle.exhaustive_max_delta", exhaustive_max_delta,
                    spec, workloads.SWEEP_LEN, workloads.SWEEP_CHARSET,
                )
            except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
                out.problems.append(f"raised {exc!r}")
                return out
            out.wall = time.perf_counter() - start
            out.evals, out.max_delta = res.executions, res.max_delta
            out.fingerprint = (res.executions, res.max_delta, res.witness.hex())
            derived = workloads.SWEEP_TRUTH[job.driver]
            if res.max_delta != derived:
                out.problems.append(f"sweep max {res.max_delta} != derived {derived}")
            return out

        out_dir = self.work / "out" / str(self.runs)
        config = CampaignConfig(
            driver_name=job.driver,
            seed_dir=str(self.seed_dirs[i]),
            out_dir=str(out_dir),
            timeout_seconds=job.evals / workloads.PACE,
            rng_seed=job.rng_seed,
            segment_cap=job.segment_cap,
            deterministic_stage_enabled=job.deterministic,
            pace=workloads.PACE,
            stop_on_delta=truth if job.stop_at_truth else None,
        )
        start = time.perf_counter()
        try:
            report = call("campaign.run_campaign", run_campaign, config)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
            out.problems.append(f"raised {exc!r}")
            return out
        out.wall = time.perf_counter() - start
        out.evals, out.max_delta = report.executions, report.max_delta
        out.reached = not job.stop_at_truth or report.stop_reason == "delta-target-reached"
        out.fingerprint = (
            report.executions, report.max_delta, report.queue_size, report.coverage_count,
            sha256(out_dir / "stats.csv"), sha256(out_dir / "witness.bin"),
        )
        replayed = replay(
            job.driver, report.witness_data, dimension=report.dimension, segment_cap=job.segment_cap
        ).delta_of(report.dimension)
        if replayed != report.max_delta:
            out.problems.append(f"witness replays to {replayed}, reported {report.max_delta}")
        if truth is not None and report.max_delta > truth:
            out.problems.append(f"max delta {report.max_delta} exceeds the oracle's {truth}")
        shutil.rmtree(out_dir)
        return out

    def run_round(self, tracer=None) -> list[Outcome]:
        """All jobs once; each timing is scaled by the calibration loops run
        just before and just after it. With a tracer, only the timed call
        runs traced; the checks after it do not."""

        def call(name, fn, *args):
            if tracer is None:
                return fn(*args)
            with tracer.active():
                return tracer.span(name, fn, *args)

        outcomes = []
        before = calibrate()
        for i in range(len(self.jobs)):
            if tracer is not None:
                tracer.begin_job(capture=len(tracer.captures) < len(self.jobs))
            out = self.run_job(i, call)
            after = calibrate()
            out.scaled = out.wall * CALIB_REF_S / ((before + after) / 2)
            before = after
            outcomes.append(out)
        return outcomes


def setup_seconds(bench: Bench) -> list[float]:
    """Fresh-interpreter `import deltafuzz` through a one-evaluation campaign
    on the workload's first driver; one warm-up, then SETUP_REPEATS timed."""
    seed_dir = bench.work / "setup-seed"
    seed_dir.mkdir()
    (seed_dir / "seed").write_bytes(workloads.ZERO_SEED)
    times = []
    for k in range(SETUP_REPEATS + 1):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), bench.jobs[0].driver,
             str(seed_dir), str(bench.work / "setup-out" / str(k))],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = calibrate()
        if k:
            times.append(float(done.stdout.split()[-1]) * CALIB_REF_S / ((before + after) / 2))
    return times


def check_rounds(rounds: list[list[Outcome]], reference: list[Outcome]) -> None:
    """Every round must repeat the reference round's deterministic outputs."""
    for outcomes in rounds:
        for out, ref in zip(outcomes, reference):
            if out.fingerprint != ref.fingerprint and not out.problems:
                out.problems.append("deterministic outputs differ between repeats")


def central(values) -> float:
    """Interquartile mean: the mean of the middle half, robust to bursts."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle) if middle else 0.0


def per_job(jobs, rounds: list[list[Outcome]], attr: str) -> list[float]:
    """Each job's typical seconds: its evaluations times the interquartile
    mean, over every round, of the seconds per evaluation of all the jobs
    that run the same driver. Pooling a driver's jobs gives the mean more
    samples; within a workload they differ only in rng_seed and in bytes
    the search does not reach."""
    pooled: dict[str, list[float]] = {}
    for outcomes in rounds:
        for job, out in zip(jobs, outcomes):
            if out.evals:
                pooled.setdefault(job.driver, []).append(getattr(out, attr) / out.evals)
    return [out.evals * central(pooled.get(job.driver, ())) for job, out in zip(jobs, rounds[0])]


def end_to_end(bench: Bench, seconds: float) -> tuple[list, dict, dict]:
    setup = setup_seconds(bench)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(bench.run_round())
    check_rounds(rounds, rounds[0])
    first = rounds[0]
    scaled = per_job(bench.jobs, rounds, "scaled")
    evals = sum(o.evals for o in first)
    round_s = sum(scaled)
    metrics = {
        "evals_per_s": (evals / round_s if round_s else 0.0, "evals/s"),
        "time_to_truth_s": (round_s, "s"),
        "evals_to_truth": (evals, "evals"),
        "max_delta": (sum(o.max_delta for o in first), "delta"),
        "setup_s": (central(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    runs = len(first)
    detail = {
        "rounds": len(rounds),
        "truth_miss_frac": sum(not o.reached for o in first) / runs,
        "per_job_time_to_truth_s": [[j.driver, t] for j, t in zip(bench.jobs, scaled)],
        "per_job_evals": [o.evals for o in first],
        "per_job_max_delta": [o.max_delta for o in first],
        "unscaled_time_to_truth_s": sum(per_job(bench.jobs, rounds, "wall")),
        "setup_s_samples": setup,
    }
    return rounds, metrics, detail


def traced(bench: Bench, seconds: float) -> tuple[list, dict, dict]:
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones, the tracing overhead from comparing the two."""
    from layers import Tracer, replay_sample

    tracer = Tracer()
    plain, rounds = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain.append(bench.run_round())
        rounds.append(bench.run_round(tracer))
    check_rounds(plain + rounds, plain[0])
    sample = replay_sample(tracer.captures, bench.seed)
    evals = sum(o.evals for o in plain[0])

    def rate(timed):
        total = sum(per_job(bench.jobs, timed, "scaled"))
        return evals / total if total else 0.0

    untraced_rate, traced_rate = rate(plain), rate(rounds)
    metrics = tracer.metrics(len(rounds), sample)
    metrics["trace.untraced_evals_per_s"] = (untraced_rate, "evals/s")
    metrics["trace.traced_evals_per_s"] = (traced_rate, "evals/s")
    metrics["trace.overhead_evals_per_s"] = (traced_rate - untraced_rate, "evals/s")
    path = WORK / "traces" / f"{bench.workload}-seed{bench.seed}.json.gz"
    tracer.write(path)
    detail = {"rounds": len(plain) + len(rounds), "trace_file": str(path.relative_to(ROOT)),
              "spans_dropped": tracer.dropped}
    return plain + rounds, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltafuzz" / "__init__.py").is_file():
        print(f"run.py: no deltafuzz sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deltafuzz

    if not Path(deltafuzz.__file__).resolve().is_relative_to(SRC):
        print(f"run.py: imported deltafuzz from {deltafuzz.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        measure = traced if args.trace else end_to_end
        rounds, metrics, detail = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for r in rounds for o in r]
    problems = [f"{bench.jobs[i % len(bench.jobs)].driver}: {p}"
                for i, o in enumerate(outcomes) for p in o.problems]
    failed = sum(bool(o.problems) for o in outcomes)
    detail["failed_frac"] = failed / len(outcomes)
    detail["problems"] = problems[:20]
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:7s} {name:45s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
