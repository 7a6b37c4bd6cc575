"""Outside-in layer trace for the traced run.

The tracer swaps the names that deltafuzz.campaign and deltafuzz.oracle call
for wrappers that record a span per call: name, start, end, the enclosing
span, and the evaluation it belongs to. Spans stay in memory and are written
once, when the run ends. Nothing inside deltafuzz is edited; every wrapper is
removed again when a traced job returns.
"""

from __future__ import annotations

import gzip
import json
import random
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from deltafuzz import campaign, driver, oracle
from deltafuzz.corpus import FuzzQueue
from deltafuzz.coverage import CoverageMap, GlobalCoverage

SPAN_CAP = 200_000  # spans kept for the trace file; durations are always kept
SAMPLE_PER_JOB = 48  # replayed inputs per job
SAMPLE_REPEATS = 3

perf = time.perf_counter


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when the layer was never called."""
    if len(values) == 0:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    def __init__(self) -> None:
        self.t0 = perf()
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.columns = {k: array("q") for k in ("id", "name", "parent", "eval")}
        self.columns.update({k: array("d") for k in ("start_s", "end_s")})
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [id, seconds in children]
        self.eval_id = 0
        self._pending = False  # a mutant was made and awaits its evaluation
        self.captures: list[list] = []  # per job: (spec, data) run_driver saw
        self._capture: list | None = None

    def span(self, name, fn, *args, **kwargs):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._stack.pop()
            took = end - start
            if parent is not None:
                parent[1] += took
            self.durations[name].append(took)
            self.self_s[name] += took - frame[1]
            self._record(frame[0], name, -1 if parent is None else parent[0], start, end)

    def _record(self, sid, name, parent, start, end) -> None:
        if len(self.columns["id"]) >= SPAN_CAP:
            self.dropped += 1
            return
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        cols = self.columns
        for key, value in (
            ("id", sid), ("name", ix), ("parent", parent), ("eval", self.eval_id),
            ("start_s", start - self.t0), ("end_s", end - self.t0),
        ):
            cols[key].append(value)

    def _new_eval(self) -> None:
        self.eval_id += 1
        self._pending = True

    def begin_job(self, capture: bool) -> None:
        self._capture = [] if capture else None
        if capture:
            self.captures.append(self._capture)

    # --- wrappers ---------------------------------------------------------

    def _run_driver(self, name, original, per_call_eval):
        def run_driver(spec, data, cov_map=None):
            if per_call_eval:
                self.eval_id += 1
            result = self.span(name, original, spec, data, cov_map)
            counts = self.counts
            counts[name] += 1
            counts["outcome." + result.outcome] += 1
            counts["ops"] += result.cost1.ops + result.cost2.ops
            if cov_map is not None:
                counts["traced_calls"] += 1
                counts["edges"] += cov_map.nonzero_count()
            if self._capture is not None:
                self._capture.append((spec, data))
            return result

        return run_driver

    def _mutator(self, name, original):
        def mutate(*args):
            self._new_eval()
            out = self.span(name, original, *args)
            if out is None:
                self.counts[name + ".none"] += 1
            return out

        return mutate

    def _deterministic_stage(self, original):
        def deterministic_stage(data):
            mutants = original(data)
            while True:
                self._new_eval()
                try:
                    mutant = self.span("mutation.deterministic_stage", next, mutants)
                except StopIteration:
                    return
                self.counts["mutation.deterministic_stage"] += 1
                yield mutant

        return deterministic_stage

    def _coverage_map(self, original):
        def coverage_map():
            if self._pending:
                self._pending = False
            else:
                self.eval_id += 1
            return self.span("coverage.CoverageMap", original)

        return coverage_map

    def _counting(self, name, original):
        """Wrap a call whose truthy results are counted (kept, new coverage)."""
        def counted(*args, **kwargs):
            out = self.span(name, original, *args, **kwargs)
            self.counts[name] += 1
            if out:
                self.counts[name + ".true"] += 1
            return out

        return counted

    @contextmanager
    def active(self):
        """Install every wrapper; restore the originals on exit."""
        targets = [
            (campaign, "run_driver", self._run_driver("driver.run_driver", campaign.run_driver, False)),
            (campaign, "havoc", self._mutator("mutation.havoc", campaign.havoc)),
            (campaign, "splice", self._mutator("mutation.splice", campaign.splice)),
            (campaign, "deterministic_stage", self._deterministic_stage(campaign.deterministic_stage)),
            (campaign, "CoverageMap", self._coverage_map(campaign.CoverageMap)),
            (campaign, "consider", self._counting("corpus.consider", campaign.consider)),
            (campaign, "_write_outputs", self._counting("campaign.write_outputs", campaign._write_outputs)),
            (GlobalCoverage, "absorb", self._counting("coverage.absorb", GlobalCoverage.absorb)),
            (FuzzQueue, "add", self._counting("corpus.queue_add", FuzzQueue.add)),
            (oracle, "run_driver", self._run_driver("oracle.run_driver", oracle.run_driver, True)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        for obj, attr, wrapper in targets:
            setattr(obj, attr, wrapper)
        try:
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)
            self._capture = None

    # --- results ----------------------------------------------------------

    def metrics(self, rounds: int, sample: dict[str, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit); counts and seconds are
        per traced round."""
        d, c = self.durations, self.counts

        def us(name, q):
            return percentile(d[name], q) * 1e6

        def ratio(part, whole):
            return part / whole if whole else 0.0

        calls = c["driver.run_driver"] + c["oracle.run_driver"]
        mutants = c["mutation.deterministic_stage"]
        rows = [
            ("driver.run_driver.us_p50", "us", us("driver.run_driver", 0.50)),
            ("driver.run_driver.us_p99", "us", us("driver.run_driver", 0.99)),
            ("driver.run_driver.calls", "count", c["driver.run_driver"] / rounds),
            ("coverage.edges_per_eval", "edges", ratio(c["edges"], c["traced_calls"])),
            ("coverage.trace_overhead_x", "x", sample["trace_overhead_x"]),
            ("mutation.havoc.us_p50", "us", us("mutation.havoc", 0.50)),
            ("mutation.havoc.us_p99", "us", us("mutation.havoc", 0.99)),
            ("mutation.havoc.calls", "count", len(d["mutation.havoc"]) / rounds),
            ("mutation.deterministic_stage.mutants", "count", mutants / rounds),
            ("mutation.deterministic_stage.us_per_mutant", "us",
             ratio(sum(d["mutation.deterministic_stage"]) * 1e6, mutants)),
            ("mutation.splice.none_frac", "ratio",
             ratio(c["mutation.splice.none"], len(d["mutation.splice"]))),
            ("coverage.CoverageMap.us_p50", "us", us("coverage.CoverageMap", 0.50)),
            ("coverage.absorb.us_p50", "us", us("coverage.absorb", 0.50)),
            ("corpus.consider.us_p50", "us", us("corpus.consider", 0.50)),
            ("campaign.self_s", "s", self.self_s["campaign.run_campaign"] / rounds),
            ("corpus.queue_add.count", "count", c["corpus.queue_add"] / rounds),
            ("corpus.queue_add.us_p50", "us", us("corpus.queue_add", 0.50)),
            ("campaign.write_outputs_s", "s", sum(d["campaign.write_outputs"]) / rounds),
            ("corpus.keep_frac", "ratio", ratio(c["corpus.consider.true"], c["corpus.consider"])),
            ("coverage.new_coverage_frac", "ratio",
             ratio(c["coverage.absorb.true"], c["coverage.absorb"])),
            ("driver.parse_reject_frac", "ratio", ratio(c["outcome.parse_reject"], calls)),
            ("driver.harness_error_frac", "ratio", ratio(c["outcome.harness_error"], calls)),
            ("metering.ops_per_eval", "ops", ratio(c["ops"], calls)),
            ("driver.run_driver.untraced_us_p50", "us", sample["untraced_us_p50"]),
            ("driver.default_parse.us_p50", "us", sample["parse_us_p50"]),
            ("oracle.exhaustive_max_delta.s", "s", sum(d["oracle.exhaustive_max_delta"]) / rounds),
            ("oracle.run_driver.us_p50", "us", us("oracle.run_driver", 0.50)),
        ]
        return {name: (value, unit) for name, unit, value in rows}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "columns": {k: v.tolist() for k, v in self.columns.items()},
            "dropped_spans": self.dropped,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _best_us(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = perf()
        fn()
        best = min(best, perf() - start)
    return best * 1e6


def _parse(data, constraints) -> None:
    try:
        driver.default_parse(data, constraints)
    except driver.ParseReject:
        pass


def replay_sample(captures: list[list], seed: int) -> dict[str, float]:
    """Time a fixed, seed-chosen sample of the inputs each job evaluated:
    through run_driver with a CoverageMap (traced) and without (untraced),
    and through the default parser alone. Best of SAMPLE_REPEATS each."""
    rng = random.Random(f"sample/{seed}")
    traced, untraced, parse = [], [], []
    for inputs in captures:
        for spec, data in rng.sample(inputs, min(SAMPLE_PER_JOB, len(inputs))):
            untraced.append(_best_us(lambda: driver.run_driver(spec, data), SAMPLE_REPEATS))
            maps = [CoverageMap() for _ in range(SAMPLE_REPEATS)]
            traced.append(
                _best_us(lambda: driver.run_driver(spec, data, maps.pop()), SAMPLE_REPEATS)
            )
            parse.append(_best_us(lambda: _parse(data, spec.constraints), SAMPLE_REPEATS))
    return {
        "trace_overhead_x": sum(traced) / sum(untraced) if untraced else 0.0,
        "untraced_us_p50": percentile(untraced, 0.5),
        "parse_us_p50": percentile(parse, 0.5),
    }
